/**
 * @file
 * Component microbenchmarks (google-benchmark): the hot paths of the
 * simulator — bank lookup, protected-LRU victim selection, EMA update,
 * mesh routing, generator throughput, event queue.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>

#include "cache/cache_bank.hpp"
#include "cache/hit_rate_monitor.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "harness/system.hpp"
#include "net/mesh.hpp"
#include "sim/event_queue.hpp"
#include "sim/heap_event_queue.hpp"
#include "stats/ema.hpp"
#include "workload/trace_gen.hpp"

namespace {

using namespace espnuca;

void
BM_EmaRecord(benchmark::State &state)
{
    ShiftEma e(8, 1);
    bool hit = false;
    for (auto _ : state) {
        e.record(hit);
        hit = !hit;
        benchmark::DoNotOptimize(e.raw());
    }
}
BENCHMARK(BM_EmaRecord);

void
BM_CacheSetFind(benchmark::State &state)
{
    SetArray s_sets(1, 16);
    CacheSet &s = s_sets[0];
    for (int i = 0; i < 16; ++i) {
        BlockMeta m;
        m.addr = 0x1000 + i * 0x40;
        m.valid = true;
        m.cls = i % 2 ? BlockClass::Private : BlockClass::Shared;
        s.assign(i, m);
    }
    Addr probe = 0x1000;
    for (auto _ : state) {
        const int w = s.find(probe, [](const BlockMeta &m) {
            return m.cls == BlockClass::Private;
        });
        benchmark::DoNotOptimize(w);
        probe += 0x40;
        if (probe >= 0x1000 + 16 * 0x40)
            probe = 0x1000;
    }
}
BENCHMARK(BM_CacheSetFind);

// Same lookup via the ClassMask fast path the simulator's search flow
// uses — no callable involved at all.
void
BM_CacheSetFindMask(benchmark::State &state)
{
    SetArray s_sets(1, 16);
    CacheSet &s = s_sets[0];
    for (int i = 0; i < 16; ++i) {
        BlockMeta m;
        m.addr = 0x1000 + i * 0x40;
        m.valid = true;
        m.cls = i % 2 ? BlockClass::Private : BlockClass::Shared;
        s.assign(i, m);
    }
    Addr probe = 0x1000;
    for (auto _ : state) {
        const int w = s.find(probe, kMatchPrivate);
        benchmark::DoNotOptimize(w);
        probe += 0x40;
        if (probe >= 0x1000 + 16 * 0x40)
            probe = 0x1000;
    }
}
BENCHMARK(BM_CacheSetFindMask);

// LRU maintenance: a touch is one age-stamp store (was a find/erase/
// insert shuffle of a recency vector).
void
BM_CacheSetTouch(benchmark::State &state)
{
    SetArray s_sets(1, 16);
    CacheSet &s = s_sets[0];
    for (int i = 0; i < 16; ++i) {
        BlockMeta m;
        m.addr = 0x1000 + i * 0x40;
        m.valid = true;
        m.cls = BlockClass::Private;
        s.assign(i, m);
    }
    int w = 0;
    for (auto _ : state) {
        s.touch(w);
        w = (w + 5) & 15;
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_CacheSetTouch);

void
BM_ProtectedLruChoose(benchmark::State &state)
{
    SetArray s_sets(1, 16);
    CacheSet &s = s_sets[0];
    for (int i = 0; i < 16; ++i) {
        BlockMeta m;
        m.addr = 0x1000 + i * 0x40;
        m.valid = true;
        m.cls = i < 4 ? BlockClass::Replica : BlockClass::Private;
        s.assign(i, m);
        s.touch(i);
    }
    ProtectedLru p;
    ReplacementContext ctx;
    ctx.category = SetCategory::Conventional;
    ctx.nmax = 4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            p.chooseWay(s, BlockClass::Replica, ctx));
    }
}
BENCHMARK(BM_ProtectedLruChoose);

void
BM_BankInsert(benchmark::State &state)
{
    SystemConfig cfg;
    CacheBank bank(cfg, 0, std::make_shared<FlatLru>(), false);
    Rng rng(1);
    BlockMeta m;
    m.valid = true;
    m.cls = BlockClass::Private;
    for (auto _ : state) {
        m.addr = rng.next() << 6;
        benchmark::DoNotOptimize(
            bank.insert(static_cast<std::uint32_t>(rng.below(256)), m));
    }
}
BENCHMARK(BM_BankInsert);

// The remote-private fan-out on a 32-core tiled (8x4) mesh: a home
// node sends a control probe to each of the 31 other tiles, and each
// negative reply leaves its tile a staggered few cycles after the probe
// lands. The clock advances between fan-outs, so links prune as they
// do in a run and carry the queueing a loaded mesh carries. Items are
// mesh deliveries (62 per fan-out).
void
BM_MeshDelivery(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.numCores = 32;
    cfg.l2Banks = 128;
    cfg.l2SizeBytes = 32ull * 1024 * 1024;
    cfg.placement = "tiled";
    Topology topo(cfg);
    EventQueue eq;
    Mesh mesh(topo, eq);
    Rng rng(2);
    for (auto _ : state) {
        const Cycle now = eq.now();
        const NodeId home = topo.coreNode(
            static_cast<CoreId>(rng.below(cfg.numCores)));
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            const NodeId tile = topo.coreNode(c);
            if (tile == home)
                continue;
            const Cycle probed =
                mesh.deliveryTime(home, tile, cfg.ctrlMsgBytes, now);
            const Cycle reply = probed + cfg.l2TagLatency + rng.below(8);
            benchmark::DoNotOptimize(
                mesh.deliveryTime(tile, home, cfg.ctrlMsgBytes, reply));
        }
        eq.runUntil(now + 4 + rng.below(8));
    }
    state.SetItemsProcessed(state.iterations() * 2 *
                            (cfg.numCores - 1));
}
BENCHMARK(BM_MeshDelivery);

void
BM_EventQueue(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t x = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.schedule(static_cast<Cycle>(i % 7), [&x]() { ++x; });
        eq.run();
    }
    benchmark::DoNotOptimize(x);
}
BENCHMARK(BM_EventQueue);

// Event-kernel microbench: the schedule/fire loop that dominates a
// simulation run. Each fired event reschedules itself with a delay
// pattern spanning same-cycle, typical hop, and DRAM-ish latencies so
// both wheel levels (and, for the heap baseline, deep heap churn) are
// exercised. The closure carries a probe-continuation-sized payload
// (~72 bytes of captured state, matching the bank/set/mask/done
// captures in the protocol hot path) so each kernel pays the storage
// cost real events pay. Reported as items/sec where an item is one
// event.
template <typename Queue>
void
runEventKernel(benchmark::State &state)
{
    constexpr int kLive = 64;        // events in flight
    constexpr int kRoundsPerIter = 256;
    static constexpr Cycle kDelays[8] = {1, 3, 0, 14, 5, 97, 2, 420};
    // Stand-in for the probe continuation's captured state (this,
    // addr, bank, set, mask, tag, completion hook).
    using Payload = std::array<std::uint64_t, 8>;
    for (auto _ : state) {
        Queue eq;
        std::uint64_t budget =
            static_cast<std::uint64_t>(kLive) * kRoundsPerIter;
        std::uint64_t fired = 0;
        std::uint64_t acc = 0;
        struct Chain
        {
            Queue &eq;
            std::uint64_t &budget;
            std::uint64_t &fired;
            std::uint64_t &acc;
            void
            fire(const Payload &p)
            {
                ++fired;
                acc += p[0] + p[7];
                if (budget == 0)
                    return;
                --budget;
                const Cycle d = kDelays[(p[0] + fired) & 7];
                Payload next = p;
                next[0] = p[0] * 3 + 1;
                next[7] ^= fired;
                eq.schedule(d, [this, next]() { fire(next); });
            }
        };
        Chain chain{eq, budget, fired, acc};
        for (int i = 0; i < kLive; ++i) {
            --budget;
            Payload p{};
            p[0] = static_cast<std::uint64_t>(i);
            eq.schedule(kDelays[i & 7],
                        [&chain, p]() { chain.fire(p); });
        }
        eq.run();
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kLive) *
                            kRoundsPerIter);
}

void
BM_EventKernelWheel(benchmark::State &state)
{
    runEventKernel<EventQueue>(state);
}
BENCHMARK(BM_EventKernelWheel);

void
BM_EventKernelHeapBaseline(benchmark::State &state)
{
    runEventKernel<HeapEventQueue>(state);
}
BENCHMARK(BM_EventKernelHeapBaseline);

// Hash-map hot path: the MSHR/live-transaction access pattern — a
// small live set (bounded by outstanding misses) with every
// transaction inserting a fresh block-aligned key, probing it a couple
// of times in flight, then erasing it on completion. Node-based maps
// pay an allocation/deallocation per transaction here; the flat map
// pays none.
template <typename Map>
void
runMapChurn(benchmark::State &state)
{
    constexpr std::uint64_t kSpace = 4096;
    constexpr int kLive = 48; // outstanding transactions
    Map m;
    Rng rng(7);
    Addr ring[kLive] = {};
    int slot = 0;
    for (auto _ : state) {
        for (int round = 0; round < 64; ++round) {
            if (ring[slot] != 0)
                m.erase(ring[slot]); // retire the oldest transaction
            const Addr a = (rng.below(kSpace) + 1) << 6;
            ring[slot] = a;
            slot = (slot + 1) % kLive;
            m[a] = round;            // allocate MSHR
            auto it = m.find(a);     // hit it while in flight
            benchmark::DoNotOptimize(it->second);
            benchmark::DoNotOptimize(m.find((a ^ 0x40)));
        }
    }
    state.SetItemsProcessed(state.iterations() * 64);
}

void
BM_FlatMapChurn(benchmark::State &state)
{
    runMapChurn<FlatMap<Addr, int>>(state);
}
BENCHMARK(BM_FlatMapChurn);

void
BM_UnorderedMapChurnBaseline(benchmark::State &state)
{
    runMapChurn<std::unordered_map<Addr, int>>(state);
}
BENCHMARK(BM_UnorderedMapChurnBaseline);

void
BM_TraceGenerator(benchmark::State &state)
{
    SystemConfig cfg;
    StreamParams p;
    p.ops = ~0ULL;
    p.hotBytes = 1 << 20;
    p.sharedBytes = 1 << 20;
    p.sharedFraction = 0.3;
    p.coldBytes = 4 << 20;
    p.coldFraction = 0.2;
    SyntheticSource src(cfg, p, 3);
    TraceOp op;
    for (auto _ : state) {
        src.next(op);
        benchmark::DoNotOptimize(op.addr);
    }
}
BENCHMARK(BM_TraceGenerator);

void
BM_FullSystemSmall(benchmark::State &state)
{
    SystemConfig cfg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulate(cfg, "esp-nuca", "apache", 1000, 1).cycles);
    }
}
BENCHMARK(BM_FullSystemSmall)->Unit(benchmark::kMillisecond);

// Round-trip cost of the experiment harness's fan-out primitive:
// submit a batch of trivial tasks and harvest the futures in order.
void
BM_ThreadPoolRoundTrip(benchmark::State &state)
{
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        std::vector<std::future<int>> futs;
        futs.reserve(64);
        for (int i = 0; i < 64; ++i)
            futs.push_back(pool.submit([i]() { return i; }));
        int sum = 0;
        for (auto &f : futs)
            sum += f.get();
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_ThreadPoolRoundTrip)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
