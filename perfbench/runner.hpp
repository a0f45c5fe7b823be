/**
 * @file
 * The benchmark's workloads and one repetition of each kind of run:
 * untraced, through the public System API, and traced, through the
 * TracedRig. Every repetition of a workload at one seed simulates the
 * same references, so any two of them must produce the same statistics.
 */

#ifndef PERFBENCH_RUNNER_HPP_
#define PERFBENCH_RUNNER_HPP_

#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "harness/system.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "traced_rig.hpp"

namespace perfbench {

using namespace espnuca;

/** One benchmark workload: a fixed machine, preset and run length. */
struct WorkloadSpec
{
    std::string name;
    std::string arch;
    std::string preset;
    std::uint32_t cores = 8;
    std::uint64_t opsPerCore = 0;
};

/** Fraction of the references run before statistics reset. */
inline constexpr double kWarmup = 0.5;

/** Completed references per timing window. */
inline constexpr std::uint64_t kWindowRefs = 250;

inline const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"esp8-apache", "esp-nuca", "apache", 8, 80000},
        {"shared8-mcf-gzip", "shared", "mcf-gzip", 8, 80000},
        {"esp32-apache", "esp-nuca", "apache", 32, 20000},
    };
    return specs;
}

inline const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const auto &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

/**
 * The machine of a workload, scaled as fig11 scales it: 1 MB and 4
 * banks of L2 per core and 4 memory controllers, on the paper's 4x3
 * mesh at 8 cores (exactly the Table 2 machine) and a tiled mesh above.
 */
inline SystemConfig
configFor(const WorkloadSpec &w)
{
    SystemConfig cfg;
    cfg.numCores = w.cores;
    cfg.l2Banks = w.cores * 4;
    cfg.l2SizeBytes = static_cast<std::uint64_t>(w.cores) * 1024 * 1024;
    cfg.memControllers = 4;
    if (w.cores > 8) {
        cfg.placement = "tiled";
        cfg.meshCols = 0;
        cfg.meshRows = 0;
    }
    return cfg;
}

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/**
 * References completed so far, read from the per-level counts after
 * every event. Those counts restart at the warmup boundary; the drop is
 * seen in the event that resets them, so the total carried across it
 * is exact, and so is the moment the measured window opens.
 */
class CompletedRefs
{
  public:
    explicit CompletedRefs(const Protocol &p) : proto_(p) {}

    std::uint64_t
    update()
    {
        std::uint64_t sum = 0;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(ServiceLevel::kNumLevels); ++i)
            sum += proto_.levelStats(static_cast<ServiceLevel>(i)).count;
        if (sum < last_) {
            carried_ += last_;
            reset_ = true;
        }
        last_ = sum;
        return carried_ + sum;
    }

    /** Has the warmup boundary passed? */
    bool measuring() const { return reset_; }

  private:
    const Protocol &proto_;
    std::uint64_t carried_ = 0;
    std::uint64_t last_ = 0;
    bool reset_ = false;
};

/**
 * The two kinds of untraced repetition. A Plain one times System::run()
 * exactly as a user calls it: refs_per_s and sim.ns_per_event come from
 * these. A Windowed one steps the event queue itself, reading the
 * completed references after every event and the clock every
 * kWindowRefs of them: the window percentiles come from these, and so
 * do the drain checks that System::run() can only make by aborting.
 */
enum class RepKind { Windowed, Plain };

/** Outcome of one untraced repetition. */
struct UntracedRep
{
    double setupS = 0.0;
    double runS = 0.0;
    std::uint64_t refs = 0;       //!< references generated
    std::uint64_t coreMemOps = 0; //!< references the cores issued
    std::uint64_t events = 0;     //!< events executed, warmup included
    std::size_t inFlight = 0;
    std::vector<double> windowNsPerRef; //!< Windowed, measured window only
    RunResult result;
    std::string stats; //!< System::dumpStats
    std::vector<Metric> counts;
};

/** References the workload generates at `seed`, warmup included. */
inline std::uint64_t
generatedRefs(const WorkloadSpec &w, std::uint64_t seed)
{
    std::uint64_t refs = 0;
    for (const auto &p :
         makeWorkload(w.preset, configFor(w), w.opsPerCore, seed).cores)
        refs += p.ops;
    return refs;
}

/** Time makeWorkload + System construction only. */
inline double
timeSetup(const WorkloadSpec &w, std::uint64_t seed)
{
    const SystemConfig cfg = configFor(w);
    const auto t0 = Clock::now();
    const Workload wl = makeWorkload(w.preset, cfg, w.opsPerCore, seed);
    System sys(cfg, w.arch, wl, seed, kWarmup);
    return seconds(Clock::now() - t0);
}

/** A failed output check of a repetition. */
struct CheckFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Throw CheckFailure unless `sys`, whose event queue the caller has
 * stepped until empty, has drained: no transaction in flight, every
 * core issued all its references, and all `completed` of them returned.
 * A core with nothing left to issue and nothing outstanding has
 * finished. System::run() checks the same, but by aborting the process.
 */
inline void
requireDrained(System &sys, const Workload &wl, std::uint64_t completed)
{
    if (const std::size_t n = sys.protocol().inFlight())
        throw CheckFailure(std::to_string(n) +
                           " transaction(s) in flight after the drain");
    StatsRegistry reg;
    sys.collectStats(reg);
    std::uint64_t generated = 0;
    for (CoreId c = 0; c < wl.cores.size(); ++c) {
        const std::uint64_t ops = wl.cores[c].ops;
        const std::uint64_t issued =
            reg.counterValue("core." + std::to_string(c) + ".mem_ops");
        if (issued != ops)
            throw CheckFailure("core " + std::to_string(c) + " issued " +
                               std::to_string(issued) + " of " +
                               std::to_string(ops) + " references");
        generated += ops;
    }
    if (completed != generated)
        throw CheckFailure("completed " + std::to_string(completed) +
                           " of " + std::to_string(generated) +
                           " references");
}

/**
 * Step `sys` until its event queue is empty, sampling host time per
 * reference in windows of kWindowRefs completed references from the
 * warmup boundary on (the cold-cache phase before it is a steep,
 * seed-dependent ramp that refs_per_s, whole run, already carries).
 * @return the references completed.
 */
inline std::uint64_t
stepWindowed(System &sys, std::vector<double> &window_ns_per_ref)
{
    EventQueue &eq = sys.eq();
    CompletedRefs done(sys.protocol());
    bool measuring = false;
    std::uint64_t window_start_refs = 0;
    auto window_start = Clock::now();
    sys.startCores();
    while (!eq.empty()) {
        eq.step();
        const std::uint64_t n = done.update();
        if (!measuring) {
            if (!done.measuring())
                continue;
            measuring = true;
            window_start = Clock::now();
            window_start_refs = n;
        }
        if (n - window_start_refs >= kWindowRefs) {
            const auto now = Clock::now();
            window_ns_per_ref.push_back(
                std::chrono::duration<double, std::nano>(now - window_start)
                    .count() /
                static_cast<double>(n - window_start_refs));
            window_start = now;
            window_start_refs = n;
        }
    }
    return done.update();
}

/**
 * One untraced run of `w` at `seed` through the public System API.
 * A Windowed repetition throws CheckFailure, before System::run(), when
 * the stepped queue leaves the machine undrained.
 */
inline UntracedRep
runUntraced(const WorkloadSpec &w, std::uint64_t seed, RepKind kind)
{
    const SystemConfig cfg = configFor(w);
    UntracedRep rep;
    const auto t0 = Clock::now();
    const Workload wl = makeWorkload(w.preset, cfg, w.opsPerCore, seed);
    System sys(cfg, w.arch, wl, seed, kWarmup);
    const auto t1 = Clock::now();
    rep.setupS = seconds(t1 - t0);
    for (const auto &p : wl.cores)
        rep.refs += p.ops;

    if (kind == RepKind::Windowed)
        requireDrained(sys, wl, stepWindowed(sys, rep.windowNsPerRef));
    rep.result = sys.run();
    rep.runS = seconds(Clock::now() - t1);
    rep.inFlight = sys.protocol().inFlight();

    StatsRegistry reg;
    sys.collectStats(reg);
    std::ostringstream os;
    reg.dump(os);
    rep.stats = os.str();
    rep.events = reg.counterValue("sim.events");
    for (CoreId c = 0; c < cfg.numCores; ++c)
        rep.coreMemOps +=
            reg.counterValue("core." + std::to_string(c) + ".mem_ops");
    RunCounts rc;
    rc.issuedRefs = rep.refs;
    if (const auto *esp = dynamic_cast<const EspNuca *>(&sys.org())) {
        rc.replicas = esp->replicasCreated();
        rc.victims = esp->victimsCreated();
    }
    rep.counts = countMetrics(reg, rc);
    return rep;
}

/** Outcome of one traced repetition. */
struct TracedRep
{
    double runS = 0.0;
    std::uint64_t refs = 0;
    std::uint64_t completed = 0;
    std::size_t inFlight = 0;
    bool finished = false;
    bool balanced = false;
    SelfTimes self;
    std::string stats;
};

/** One traced run of `w` at `seed`; its spans are appended to `rec`. */
inline TracedRep
runTraced(const WorkloadSpec &w, std::uint64_t seed, SpanRecorder &rec)
{
    const SystemConfig cfg = configFor(w);
    TracedRep rep;
    const Workload wl = makeWorkload(w.preset, cfg, w.opsPerCore, seed);
    for (const auto &p : wl.cores)
        rep.refs += p.ops;
    TracedRig rig(cfg, w.arch, wl, seed, kWarmup, rec);
    const auto t0 = Clock::now();
    rig.run();
    rep.runS = seconds(Clock::now() - t0);
    rep.completed = rig.completed();
    rep.inFlight = rig.protocol().inFlight();
    rep.finished = rig.allCoresFinished();
    rep.balanced = rec.balanced();
    rep.self = selfTimes(rec.spans());
    std::ostringstream os;
    rig.dumpStats(os);
    rep.stats = os.str();
    return rep;
}

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HPP_
