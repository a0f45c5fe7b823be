/**
 * @file
 * Tests of the benchmark's own code: the metric-name grammar, the
 * window-percentile rule, self-time arithmetic, the drain check, and the
 * ratios derived from a tiny fixed-seed run.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "runner.hpp"
#include "spans.hpp"

using namespace perfbench;

namespace {

TEST(MetricName, AcceptsTheGrammar)
{
    for (const char *n : {"refs_per_s", "setup_s", "a", "9lives",
                          "coherence.level.off-chip.cycles_per_ref",
                          "esp8-apache.net.flits_per_ref"})
        EXPECT_TRUE(validMetricName(n)) << n;
}

TEST(MetricName, RejectsOutsideTheGrammar)
{
    for (const char *n : {"", "_x", ".x", "-x", "a b", "a/b", "ns%",
                          "\"q\"", "a\tb"})
        EXPECT_FALSE(validMetricName(n)) << n;
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(MetricName, EveryCountMetricIsValidAndUnique)
{
    const StatsRegistry empty;
    std::set<std::string> seen;
    for (const Metric &m : countMetrics(empty, RunCounts{})) {
        EXPECT_TRUE(validMetricName(m.name)) << m.name;
        EXPECT_TRUE(seen.insert(m.name).second) << m.name;
        EXPECT_FALSE(m.unit.empty()) << m.name;
    }
}

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(WindowPercentile, P99NeedsTenSamplesBeyond)
{
    const Percentile p = tailPercentile(oneTo(1000), 99.0);
    EXPECT_EQ(p.pct, 99.0);
    EXPECT_EQ(p.value, 990.0);
    EXPECT_EQ(p.samples, 1000u);
    EXPECT_EQ(p.beyond, 10u);
}

TEST(WindowPercentile, StepsDownWhenTheTailIsThin)
{
    // 500 samples: p99 leaves 5 beyond, p98 leaves 10.
    Percentile p = tailPercentile(oneTo(500), 99.0);
    EXPECT_EQ(p.pct, 98.0);
    EXPECT_EQ(p.value, 490.0);
    EXPECT_EQ(p.beyond, 10u);
    // 20 samples: only the median has 10 beyond.
    p = tailPercentile(oneTo(20), 99.0);
    EXPECT_EQ(p.pct, 50.0);
    EXPECT_EQ(p.value, 10.0);
    EXPECT_EQ(p.beyond, 10u);
    // Too few for any rung: the median, with the shortfall reported.
    p = tailPercentile(oneTo(5), 99.0);
    EXPECT_EQ(p.pct, 50.0);
    EXPECT_EQ(p.value, 3.0);
    EXPECT_EQ(p.samples, 5u);
    EXPECT_EQ(p.beyond, 2u);
}

TEST(WindowPercentile, OrderOfSamplesDoesNotMatter)
{
    std::vector<double> v = oneTo(1000);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(tailPercentile(v, 99.0).value, 990.0);
    EXPECT_EQ(tailPercentile(v, 50.0, 0).value, 500.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

Span
span(std::uint32_t parent, Layer l, std::uint64_t start, std::uint64_t end)
{
    Span s;
    s.parent = parent;
    s.layer = l;
    s.start = start;
    s.end = end;
    return s;
}

TEST(SelfTime, SubtractsDirectChildrenOnly)
{
    // event [0,100]
    //   access [10,60]
    //     search [20,30]
    //   done [70,90]
    //     next [75,80]
    // event [100,150] (no children)
    const std::vector<Span> spans = {
        span(kNoParent, Layer::SimEvent, 0, 100),
        span(0, Layer::CoherenceAccess, 10, 60),
        span(1, Layer::ArchSearch, 20, 30),
        span(0, Layer::CpuDone, 70, 90),
        span(3, Layer::WorkloadNext, 75, 80),
        span(kNoParent, Layer::SimEvent, 100, 150),
    };
    const SelfTimes st = selfTimes(spans);
    EXPECT_EQ(st.ns(Layer::SimEvent), 30.0 + 50.0);
    EXPECT_EQ(st.ns(Layer::CoherenceAccess), 40.0);
    EXPECT_EQ(st.ns(Layer::ArchSearch), 10.0);
    EXPECT_EQ(st.ns(Layer::CpuDone), 15.0);
    EXPECT_EQ(st.ns(Layer::WorkloadNext), 5.0);
    EXPECT_EQ(st.count(Layer::SimEvent), 2u);
    EXPECT_EQ(st.rootNs, 150.0);
    EXPECT_EQ(st.totalSelfNs(), st.rootNs);
}

TEST(SelfTime, RecorderLinksParentsAndBalances)
{
    SpanRecorder rec;
    {
        ScopedSpan a(rec, Layer::SimEvent);
        {
            ScopedSpan b(rec, Layer::CoherenceAccess);
            ScopedSpan c(rec, Layer::ArchSearch);
        }
        ScopedSpan d(rec, Layer::CpuDone);
        EXPECT_FALSE(rec.balanced());
    }
    { ScopedSpan e(rec, Layer::SimEvent); }
    EXPECT_TRUE(rec.balanced());
    const auto &s = rec.spans();
    ASSERT_EQ(s.size(), 5u);
    EXPECT_EQ(s[0].parent, kNoParent);
    EXPECT_EQ(s[1].parent, 0u);
    EXPECT_EQ(s[2].parent, 1u);
    EXPECT_EQ(s[3].parent, 0u);
    EXPECT_EQ(s[4].parent, kNoParent);
    for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_LE(s[i].start, s[i].end);
    const SelfTimes st = selfTimes(s);
    EXPECT_DOUBLE_EQ(st.totalSelfNs(), st.rootNs);
    for (double v : st.selfNs)
        EXPECT_GE(v, 0.0);
}

/** A few hundred references per core: runs in well under a second. */
WorkloadSpec
tiny(const std::string &name)
{
    WorkloadSpec w = *findWorkload(name);
    w.opsPerCore = w.cores > 8 ? 100 : 400;
    return w;
}

double
metric(const std::vector<Metric> &ms, const std::string &name)
{
    for (const auto &m : ms)
        if (m.name == name)
            return m.value;
    ADD_FAILURE() << "no metric " << name;
    return 0.0;
}

TEST(Ratios, TinyRunDerivesFromOneWindowEach)
{
    const WorkloadSpec w = tiny("esp8-apache");
    const UntracedRep rep = runUntraced(w, 7, RepKind::Windowed);
    ASSERT_GT(rep.refs, 0u);
    EXPECT_EQ(rep.coreMemOps, rep.refs);
    EXPECT_EQ(rep.inFlight, 0u);
    EXPECT_FALSE(rep.windowNsPerRef.empty());

    // Re-derive from the counters by hand: measured-window counters
    // over the measured references, whole-run counters over all.
    const SystemConfig cfg = configFor(w);
    const Workload wl = makeWorkload(w.preset, cfg, w.opsPerCore, 7);
    System sys(cfg, w.arch, wl, 7, kWarmup);
    const RunResult r = sys.run();
    StatsRegistry reg;
    sys.collectStats(reg);
    std::ostringstream os;
    reg.dump(os);
    EXPECT_EQ(os.str(), rep.stats);

    double measured = 0.0;
    for (std::uint64_t n : r.levelCounts)
        measured += static_cast<double>(n);
    ASSERT_GT(measured, 0.0);
    EXPECT_LT(measured, static_cast<double>(rep.refs)); // warmup excluded
    EXPECT_DOUBLE_EQ(metric(rep.counts, "net.flits_per_ref"),
                     static_cast<double>(reg.counterValue("mesh.flits")) /
                         measured);
    EXPECT_DOUBLE_EQ(
        metric(rep.counts, "sim.events_per_ref"),
        static_cast<double>(reg.counterValue("sim.events")) /
            static_cast<double>(rep.refs));
    EXPECT_DOUBLE_EQ(
        metric(rep.counts, "coherence.invals_per_kref"),
        1000.0 * static_cast<double>(reg.counterValue("proto.invals_sent")) /
            measured);

    double level_sum = 0.0;
    for (const auto &m : rep.counts)
        if (m.name.rfind("coherence.level.", 0) == 0)
            level_sum += m.value;
    EXPECT_NEAR(level_sum, r.avgAccessTime, 1e-9 * r.avgAccessTime);
    EXPECT_NEAR(level_sum, rep.result.avgAccessTime, 1e-12);
}

TEST(Ratios, TracedRigMatchesSystemByteForByte)
{
    for (const char *name :
         {"esp8-apache", "shared8-mcf-gzip", "esp32-apache"}) {
        const WorkloadSpec w = tiny(name);
        const UntracedRep u = runUntraced(w, 11, RepKind::Plain);
        SpanRecorder rec;
        const TracedRep t = runTraced(w, 11, rec);
        EXPECT_EQ(t.stats, u.stats) << name;
        EXPECT_EQ(t.completed, t.refs) << name;
        EXPECT_TRUE(t.finished) << name;
        EXPECT_TRUE(t.balanced) << name;
        EXPECT_EQ(t.self.count(Layer::CoherenceAccess), t.refs) << name;
        EXPECT_EQ(t.self.count(Layer::CpuDone), t.refs) << name;
        EXPECT_DOUBLE_EQ(t.self.totalSelfNs(), t.self.rootNs) << name;
    }
}

TEST(Ratios, RepetitionsAtOneSeedAreIdentical)
{
    const WorkloadSpec w = tiny("shared8-mcf-gzip");
    const std::string windowed = runUntraced(w, 5, RepKind::Windowed).stats;
    EXPECT_EQ(windowed, runUntraced(w, 5, RepKind::Plain).stats);
    EXPECT_EQ(windowed, runUntraced(w, 5, RepKind::Windowed).stats);
    EXPECT_NE(windowed, runUntraced(w, 6, RepKind::Plain).stats);
}

TEST(Checks, UndrainedMachineFailsTheDrainCheck)
{
    const WorkloadSpec w = tiny("esp8-apache");
    const SystemConfig cfg = configFor(w);
    const Workload wl = makeWorkload(w.preset, cfg, w.opsPerCore, 3);
    System sys(cfg, w.arch, wl, 3, kWarmup);
    sys.startCores();
    for (int i = 0; i < 200 && !sys.eq().empty(); ++i)
        sys.eq().step();
    ASSERT_FALSE(sys.eq().empty());
    EXPECT_THROW(requireDrained(sys, wl, 0), CheckFailure);
    sys.eq().run();
    std::uint64_t generated = 0;
    for (const auto &p : wl.cores)
        generated += p.ops;
    EXPECT_NO_THROW(requireDrained(sys, wl, generated));
    EXPECT_THROW(requireDrained(sys, wl, generated - 1), CheckFailure);
}

TEST(Checks, WindowedRepetitionCountsEveryReference)
{
    const WorkloadSpec w = tiny("esp32-apache");
    const SystemConfig cfg = configFor(w);
    const Workload wl = makeWorkload(w.preset, cfg, w.opsPerCore, 4);
    System sys(cfg, w.arch, wl, 4, kWarmup);
    std::vector<double> windows;
    const std::uint64_t completed = stepWindowed(sys, windows);
    EXPECT_EQ(completed, generatedRefs(w, 4));
    EXPECT_NO_THROW(requireDrained(sys, wl, completed));
    EXPECT_FALSE(windows.empty());
}

} // namespace
