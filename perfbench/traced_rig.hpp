/**
 * @file
 * The traced run: the same machine System builds, assembled here from
 * the public classes System wires (Topology, EventQueue, Mesh, the arch
 * class, Protocol, TraceCore), with a span around every call the
 * benchmark makes into a layer:
 *
 *   sim.event        each EventQueue::step()
 *   workload.next    a TraceSource decorator around SyntheticSource::next
 *   coherence.access the MemoryIssueFn's call of Protocol::access
 *   cpu.done         a wrapper around the core's completion callback
 *   arch.*           an arch subclass timing search / onMemFill /
 *                    onL1Eviction / onL2ReadHit and delegating
 *
 * Work done inside an event but outside these calls (protocol
 * continuations, mesh, banks, directory, memory, the kernel) is the
 * self time of sim.event, reported as sim.unattributed.
 *
 * collectStats() registers exactly what System::collectStats does, so
 * the rig's dump must be byte-identical to an untraced System run of
 * the same configuration and seed; the benchmark checks that on every
 * traced run.
 */

#ifndef PERFBENCH_TRACED_RIG_HPP_
#define PERFBENCH_TRACED_RIG_HPP_

#include <cstdint>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/esp_nuca.hpp"
#include "arch/snuca.hpp"
#include "coherence/protocol.hpp"
#include "cpu/trace_core.hpp"
#include "fault/fault_injector.hpp"
#include "net/mesh.hpp"
#include "net/topology.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_buffer.hpp"
#include "sim/event_queue.hpp"
#include "spans.hpp"
#include "stats/stats_registry.hpp"
#include "workload/presets.hpp"
#include "workload/trace_gen.hpp"

namespace perfbench {

using namespace espnuca;

/** Arch subclass timing the four L2Org entry points. */
template <typename Base>
class TracedArch : public Base
{
  public:
    template <typename... Args>
    explicit TracedArch(SpanRecorder &rec, Args &&...args)
        : Base(std::forward<Args>(args)...), rec_(rec)
    {
    }

    void
    search(Transaction &tx) override
    {
        ScopedSpan s(rec_, Layer::ArchSearch);
        Base::search(tx);
    }

    void
    onMemFill(Transaction &tx, Cycle t) override
    {
        ScopedSpan s(rec_, Layer::ArchFill);
        Base::onMemFill(tx, t);
    }

    bool
    onL1Eviction(CoreId c, const BlockMeta &blk, Cycle t) override
    {
        ScopedSpan s(rec_, Layer::ArchEvict);
        return Base::onL1Eviction(c, blk, t);
    }

    void
    onL2ReadHit(Transaction &tx, BankId bank, std::uint32_t set, int way,
                Cycle t) override
    {
        ScopedSpan s(rec_, Layer::ArchReadHit);
        Base::onL2ReadHit(tx, bank, set, way, t);
    }

  private:
    SpanRecorder &rec_;
};

/** The traced counterpart of makeArch for the benchmarked archs. */
inline std::unique_ptr<L2Org>
makeTracedArch(const std::string &name, const SystemConfig &cfg,
               SpanRecorder &rec)
{
    if (name == "shared")
        return std::make_unique<TracedArch<Snuca>>(rec, cfg);
    if (name == "esp-nuca")
        return std::make_unique<TracedArch<EspNuca>>(
            rec, cfg, EspReplacement::ProtectedLru);
    throw std::invalid_argument("no traced variant of arch " + name);
}

/** TraceSource decorator timing the wrapped generator. */
class TimedSource : public TraceSource
{
  public:
    TimedSource(std::unique_ptr<TraceSource> inner, SpanRecorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {
    }

    bool
    next(TraceOp &op) override
    {
        ScopedSpan s(rec_, Layer::WorkloadNext);
        return inner_->next(op);
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    SpanRecorder &rec_;
};

/** One traced machine: one arch, one workload, one seed. */
class TracedRig
{
  public:
    TracedRig(const SystemConfig &cfg, const std::string &arch_name,
              const Workload &wl, std::uint64_t seed,
              double warmup_fraction, SpanRecorder &rec)
        : cfg_(cfg), topo_(cfg), mesh_(topo_, eq_),
          org_(makeTracedArch(arch_name, cfg, rec)),
          proto_(cfg, topo_, mesh_, eq_, *org_), rec_(rec)
    {
        // System hands both emitters a (disabled) tracer; do the same
        // so the traced run executes the same code.
        proto_.setTracer(&tracer_);
        mesh_.setTracer(&tracer_);
        std::uint64_t total_ops = 0;
        for (const auto &p : wl.cores)
            total_ops += p.ops;
        warmupThreshold_ = static_cast<std::uint64_t>(
            warmup_fraction * static_cast<double>(total_ops));
        MemoryIssueFn issue = [this](CoreId c, AccessType t, Addr a,
                                     OpDone done) {
            if (++issued_ == warmupThreshold_)
                endWarmup();
            OpDone timed = [this, slot = park(std::move(done))](
                               ServiceLevel l, Cycle lat) {
                ScopedSpan s(rec_, Layer::CpuDone);
                OpDone inner = unpark(slot);
                ++completed_;
                inner(l, lat);
            };
            ScopedSpan s(rec_, Layer::CoherenceAccess);
            proto_.access(c, t, a, std::move(timed));
        };
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            const StreamParams &p = wl.cores[c];
            if (p.ops == 0) {
                cores_.push_back(nullptr);
                continue;
            }
            auto src = std::make_unique<TimedSource>(
                std::make_unique<SyntheticSource>(cfg, p,
                                                  seed * 1000003ULL + c),
                rec_);
            cores_.push_back(std::make_unique<TraceCore>(
                cfg, c, eq_, issue, std::move(src)));
        }
    }

    TracedRig(const TracedRig &) = delete;
    TracedRig &operator=(const TracedRig &) = delete;

    /** Run to completion, one sim.event span per executed event. */
    void
    run()
    {
        for (auto &core : cores_)
            if (core)
                core->start();
        while (!eq_.empty()) {
            ScopedSpan s(rec_, Layer::SimEvent);
            eq_.step();
        }
    }

    /** Registers what System::collectStats registers (no extensions). */
    void
    collectStats(StatsRegistry &reg) const
    {
        reg.counter("sim.cycles").inc(eq_.now());
        reg.counter("sim.events").inc(eq_.executed());
        proto_.registerStats(reg);
        mesh_.registerStats(reg);
        InjectionReport{}.registerStats(reg);
        org_->registerStats(reg);
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            if (!cores_[c])
                continue;
            const StatsScope core =
                StatsScope(reg, "core").sub(std::to_string(c));
            core.counter("instructions").inc(cores_[c]->instructions());
            core.counter("mem_ops").inc(cores_[c]->memOps());
            core.average("ipc").record(cores_[c]->ipc());
        }
        obs::ProfRegistry::instance().collect(reg);
    }

    void
    dumpStats(std::ostream &os) const
    {
        StatsRegistry reg;
        collectStats(reg);
        reg.dump(os);
    }

    bool
    allCoresFinished() const
    {
        for (const auto &core : cores_)
            if (core && !core->finished())
                return false;
        return true;
    }

    Protocol &protocol() { return proto_; }
    std::uint64_t completed() const { return completed_; }

  private:
    /** Hold a core's completion callback while its reference is out. */
    std::uint32_t
    park(OpDone done)
    {
        if (freeSlots_.empty()) {
            parked_.push_back(std::move(done));
            return static_cast<std::uint32_t>(parked_.size() - 1);
        }
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        parked_[slot] = std::move(done);
        return slot;
    }

    OpDone
    unpark(std::uint32_t slot)
    {
        OpDone done = std::move(parked_[slot]);
        freeSlots_.push_back(slot);
        return done;
    }

    /** System::endWarmup, verbatim. */
    void
    endWarmup()
    {
        proto_.resetStats();
        mesh_.resetStats();
        for (std::uint32_t m = 0; m < cfg_.memControllers; ++m)
            proto_.memCtrl(m).resetStats();
        for (BankId b = 0; b < org_->numBanks(); ++b)
            org_->bank(b).resetStats();
        for (auto &core : cores_)
            if (core)
                core->snapshotMeasurement();
    }

    SystemConfig cfg_;
    Topology topo_;
    EventQueue eq_;
    Mesh mesh_;
    std::unique_ptr<L2Org> org_;
    Protocol proto_;
    obs::Tracer tracer_;
    SpanRecorder &rec_;
    std::vector<std::unique_ptr<TraceCore>> cores_;
    std::vector<OpDone> parked_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t issued_ = 0;
    std::uint64_t warmupThreshold_ = 0;
    std::uint64_t completed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_RIG_HPP_
