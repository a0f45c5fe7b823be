/**
 * @file
 * The end-to-end benchmark of the simulator (see README.md here).
 *
 *   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
 *
 * Untraced repetitions, in pairs of a windowed and a plain one, run for
 * S seconds of host time; with --trace 1 one traced repetition of the
 * same seed follows them.
 * Every metric is printed as "metric <name> <value> <unit>"; the last
 * line is one JSON object {"correct", "attempted", "failed", "metrics"}
 * holding the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). --workload all runs every workload, untraced and traced,
 * from this one process and reports every metric under
 * "<workload>.<metric>". The exit status is non-zero when any output
 * check fails.
 */

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "runner.hpp"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &err)
{
    std::cerr << "perfbench: " << err
              << "\nusage: perfbench --workload NAME|all --seed N "
                 "--seconds S --trace 0|1\n"
                 "workloads:";
    for (const auto &w : workloads())
        std::cerr << ' ' << w.name;
    std::cerr << '\n';
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = v == "1" ? true
                        : v == "0" ? false
                                   : (usage("--trace takes 0 or 1"), false);
            else
                usage("unknown option " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0 && o.seconds <= 3600.0))
        usage("--seconds must be in (0, 3600]");
    return o;
}

/** Peak resident set since the last reset, in MiB (0 if unreadable). */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

/**
 * Start a fresh peak-RSS window: hand freed heap back to the kernel,
 * then reset the kernel's high-water mark to the current RSS.
 * @return false when the reset is not permitted.
 */
bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

/** Everything measured on one workload at one seed. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
};

void
print(const Metric &m)
{
    std::printf("metric %s %s %s\n", m.name.c_str(),
                jsonNumber(m.value).c_str(), m.unit.c_str());
}

/** Record a failed check; the repetition's references count as failed. */
void
fail(Report &r, const std::string &what, std::uint64_t refs)
{
    std::printf("CHECK FAILED: %s\n", what.c_str());
    r.correct = false;
    r.failed += refs;
}

/**
 * Set-ups timed before the first repetition and before each one. A
 * set-up is a few milliseconds of memory-bound work that other work on
 * the host only ever slows, by up to twice, so setup_s reports the
 * fastest of many, spread over the whole run.
 */
constexpr int kSetupSamples = 64;
constexpr int kSetupPerRep = 16;

/** The checks every untraced repetition must pass after System::run(). */
void
checkUntraced(Report &r, const UntracedRep &u, const std::string &reference)
{
    if (u.inFlight != 0)
        fail(r, "transactions in flight after the run", u.refs);
    else if (u.coreMemOps != u.refs)
        fail(r,
             "references generated " + std::to_string(u.refs) +
                 ", issued " + std::to_string(u.coreMemOps),
             u.refs);
    else if (u.stats != reference)
        fail(r, "repetition statistics differ from the first", u.refs);
}

/** The checks the traced repetition must pass. */
void
checkTraced(Report &r, const TracedRep &t, const std::string &reference)
{
    if (t.inFlight != 0 || !t.finished || !t.balanced)
        fail(r, "traced run did not drain cleanly", t.refs);
    else if (t.completed != t.refs)
        fail(r,
             "traced run completed " + std::to_string(t.completed) + " of " +
                 std::to_string(t.refs) + " references",
             t.refs);
    else if (t.stats != reference)
        fail(r, "traced statistics differ from the untraced run", t.refs);
}

/** Host self time per layer from the traced repetition. */
std::vector<Metric>
selfTimeMetrics(const TracedRep &t, double untraced_s)
{
    const SelfTimes &st = t.self;
    const auto per = [](double ns, double n) {
        return n == 0.0 ? 0.0 : ns / n;
    };
    const auto refs = static_cast<double>(t.refs);
    const auto per_call = [&](Layer l) {
        return per(st.ns(l), static_cast<double>(st.count(l)));
    };
    return {
        {"workload.next_self_ns_per_ref", per(st.ns(Layer::WorkloadNext), refs),
         "ns"},
        {"cpu.done_self_ns_per_ref", per(st.ns(Layer::CpuDone), refs), "ns"},
        {"coherence.access_self_ns_per_ref",
         per(st.ns(Layer::CoherenceAccess), refs), "ns"},
        {"arch.search_self_ns_per_tx", per_call(Layer::ArchSearch), "ns"},
        {"arch.fill_self_ns_per_fill", per_call(Layer::ArchFill), "ns"},
        {"arch.evict_self_ns_per_evict", per_call(Layer::ArchEvict), "ns"},
        {"arch.readhit_self_ns_per_hit", per_call(Layer::ArchReadHit), "ns"},
        {"sim.unattributed_self_ns_per_ref", per(st.ns(Layer::SimEvent), refs),
         "ns"},
        {"trace.overhead_pct", (t.runS / untraced_s - 1.0) * 100.0, "%"},
        {"trace.accounted_pct", per(st.totalSelfNs(), t.runS * 1e9) * 100.0,
         "%"},
    };
}

/**
 * Untraced repetitions at one seed, a windowed and a plain one at a
 * time, until `o.seconds` have passed; then, when `traced`, one traced
 * repetition of the same seed. Set-ups are timed before the first
 * repetition and between all of them, so that their sample spans the
 * whole run.
 */
Report
measure(const WorkloadSpec &w, const Options &o, bool traced)
{
    Report rep;
    std::printf("# workload %s: arch %s, preset %s, %u cores%s, %" PRIu64
                " refs/core, seed %" PRIu64 "\n",
                w.name.c_str(), w.arch.c_str(), w.preset.c_str(), w.cores,
                w.cores > 8 ? " (tiled mesh, 1 MB + 4 banks L2 per core, 4 MCs)"
                            : " (paper 4x3 mesh, 8 MB / 32 banks, 4 MCs)",
                w.opsPerCore, o.seed);
    std::printf("# caches start empty; statistics reset after %.0f%% of "
                "the references (warmup); host metrics include warmup\n",
                kWarmup * 100.0);
    const bool rss_window = resetPeakRss();

    std::vector<double> setups;
    const auto time_setups = [&](int n) {
        for (int i = 0; i < n; ++i)
            setups.push_back(timeSetup(w, o.seed));
    };
    time_setups(kSetupSamples);

    const std::uint64_t refs_per_rep = generatedRefs(w, o.seed);
    std::vector<UntracedRep> windowed, plain;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(o.seconds));
    do {
        for (const RepKind kind : {RepKind::Windowed, RepKind::Plain}) {
            const bool win = kind == RepKind::Windowed;
            time_setups(kSetupPerRep);
            rep.attempted += refs_per_rep;
            UntracedRep u;
            try {
                u = runUntraced(w, o.seed, kind);
            } catch (const std::exception &e) {
                fail(rep,
                     std::string(win ? "windowed" : "plain") +
                         " repetition: " + e.what(),
                     refs_per_rep);
                return rep;
            }
            checkUntraced(rep, u, windowed.empty() ? u.stats
                                                   : windowed.front().stats);
            if (!rep.correct)
                return rep;
            setups.push_back(u.setupS);
            std::printf("rep %zu %s: %.4f s, %" PRIu64 " refs",
                        windowed.size() + plain.size(),
                        win ? "windowed" : "plain", u.runS, u.refs);
            if (win)
                std::printf(", window p50 %.1f ns p99 %.1f ns",
                            tailPercentile(u.windowNsPerRef, 50.0, 0).value,
                            tailPercentile(u.windowNsPerRef, 99.0).value);
            std::printf(", stats_fnv %016" PRIx64 "\n", fnv1a(u.stats));
            (win ? windowed : plain).push_back(std::move(u));
        }
    } while (Clock::now() < deadline);
    const double peak_rss = peakRssMiB();

    const UntracedRep &first = windowed.front();
    std::printf("stats_fnv %s seed %" PRIu64 " %016" PRIx64 "\n",
                w.name.c_str(), o.seed, fnv1a(first.stats));

    // End-to-end: refs_per_s over the plain repetitions, the window
    // percentiles over the windowed ones, simulated figures from the
    // first (all repetitions are identical). A window percentile is taken
    // per repetition and the median over repetitions reported, so that
    // one repetition sharing the host with a burst of other work does
    // not set the tail alone.
    std::vector<double> rates, run_times, p50s, p99s;
    for (const auto &u : plain) {
        rates.push_back(static_cast<double>(u.refs) / u.runS);
        run_times.push_back(u.runS);
    }
    Percentile tail;
    for (const auto &u : windowed) {
        p50s.push_back(tailPercentile(u.windowNsPerRef, 50.0, 0).value);
        tail = tailPercentile(u.windowNsPerRef, 99.0);
        p99s.push_back(tail.value);
    }
    std::printf("# %zu plain and %zu windowed repetitions; windows of "
                "%" PRIu64 " completed refs after warmup: %zu per "
                "repetition; p99 metric reports p%g with %zu windows "
                "beyond it\n",
                plain.size(), windowed.size(), kWindowRefs, tail.samples,
                tail.pct, tail.beyond);
    std::vector<double> sorted_setups = setups;
    std::sort(sorted_setups.begin(), sorted_setups.end());
    std::printf("# setup_s is the fastest of %zu set-ups: p10 %.6f median "
                "%.6f max %.6f s\n",
                setups.size(), rankPercentile(sorted_setups, 10.0).value,
                median(setups), sorted_setups.back());
    double measured_refs = 0.0;
    for (std::uint64_t n : first.result.levelCounts)
        measured_refs += static_cast<double>(n);
    rep.endToEnd = {
        {"refs_per_s", median(rates), "refs/s"},
        {"window_ns_per_ref_p50", median(p50s), "ns"},
        {"window_ns_per_ref_p99", median(p99s), "ns"},
        {"setup_s", sorted_setups.front(), "s"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"sim_ipc", first.result.throughput, "instr/cycle"},
        {"sim_access_cycles", first.result.avgAccessTime, "cycles/ref"},
        {"offchip_per_kref",
         measured_refs == 0.0
             ? 0.0
             : 1000.0 * static_cast<double>(first.result.offChipAccesses) /
                   measured_refs,
         "1/kref"},
    };
    if (!rss_window)
        std::printf("# peak_rss_mb is the process-wide peak: resetting "
                    "the high-water mark is not permitted here\n");

    // Per-layer: exact counts from the first repetition, host self time
    // from the traced one.
    rep.perLayer = first.counts;
    const double untraced_s = median(run_times);
    rep.perLayer.push_back(
        {"sim.ns_per_event",
         untraced_s * 1e9 / static_cast<double>(first.events), "ns"});
    if (traced) {
        SpanRecorder rec;
        rep.attempted += refs_per_rep;
        TracedRep t;
        try {
            t = runTraced(w, o.seed, rec);
        } catch (const std::exception &e) {
            fail(rep, std::string("traced run threw: ") + e.what(),
                 refs_per_rep);
            return rep;
        }
        checkTraced(rep, t, first.stats);
        std::printf("traced: %.4f s, %zu spans, stats_fnv %016" PRIx64 "\n",
                    t.runS, rec.spans().size(), fnv1a(t.stats));
        std::printf("# span calls:");
        for (std::size_t i = 0; i < kNumLayers; ++i)
            std::printf(" %s=%" PRIu64, toString(static_cast<Layer>(i)),
                        t.self.calls[i]);
        std::printf("\n");
        for (Metric &m : selfTimeMetrics(t, untraced_s))
            rep.perLayer.push_back(std::move(m));
    }
    for (const auto &m : rep.endToEnd)
        print(m);
    for (const auto &m : rep.perLayer)
        print(m);
    std::printf("ops_attempted %" PRIu64 " ops_failed %" PRIu64 "\n",
                rep.attempted, rep.failed);
    return rep;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    std::vector<WorkloadSpec> selected;
    if (o.workload == "all") {
        selected = workloads();
    } else if (const WorkloadSpec *w = findWorkload(o.workload)) {
        selected.push_back(*w);
    } else {
        usage("unknown workload " + o.workload);
    }
    const bool all = o.workload == "all";

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<Metric> out;
    for (const WorkloadSpec &w : selected) {
        const Report r = measure(w, o, all || o.trace);
        correct = correct && r.correct;
        attempted += r.attempted;
        failed += r.failed;
        std::vector<Metric> ms;
        if (all || !o.trace)
            ms.insert(ms.end(), r.endToEnd.begin(), r.endToEnd.end());
        if (all || o.trace)
            ms.insert(ms.end(), r.perLayer.begin(), r.perLayer.end());
        for (Metric &m : ms) {
            if (all)
                m.name = w.name + "." + m.name;
            if (!validMetricName(m.name)) {
                std::printf("CHECK FAILED: bad metric name %s\n",
                            m.name.c_str());
                correct = false;
            }
            out.push_back(std::move(m));
        }
    }
    std::printf("%s\n",
                resultLine(correct, attempted, failed, out).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
