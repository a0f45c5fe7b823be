/**
 * @file
 * Flit-level link occupancy model tests, plus a differential test of
 * the cycle-bitmap Link against a sorted busy-interval list reference.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "net/link.hpp"

namespace espnuca {
namespace {

TEST(Link, UncontendedLatency)
{
    Link l;
    // 1 flit, 2-cycle link: head arrives at t+2, tail == head.
    EXPECT_EQ(l.transmit(10, 1, 2), 12u);
}

TEST(Link, SerializationAddsFlits)
{
    Link l;
    // 5 flits (72 B / 16 B links): tail crosses 4 cycles after head.
    EXPECT_EQ(l.transmit(0, 5, 2), 6u);
}

TEST(Link, BackToBackMessagesQueue)
{
    Link l;
    EXPECT_EQ(l.transmit(0, 5, 2), 6u);
    // Second message at t=0 must wait for the first's tail injection
    // (link free at t=5), finishing at 5 + 2 + 4 = 11.
    EXPECT_EQ(l.transmit(0, 5, 2), 11u);
    EXPECT_EQ(l.waitCycles(), 5u);
}

TEST(Link, IdleGapsDontAccumulate)
{
    Link l;
    l.transmit(0, 1, 2);
    // Long idle gap; a later message suffers no queueing.
    EXPECT_EQ(l.transmit(100, 1, 2), 102u);
    EXPECT_EQ(l.waitCycles(), 0u);
}

TEST(Link, StatsAccumulate)
{
    Link l;
    l.transmit(0, 5, 2);
    l.transmit(0, 1, 2);
    EXPECT_EQ(l.flitsSent(), 6u);
    EXPECT_EQ(l.messages(), 2u);
}

TEST(Link, ResetClears)
{
    Link l;
    l.transmit(0, 5, 2);
    l.reset();
    EXPECT_EQ(l.intervals(), 0u);
    EXPECT_EQ(l.flitsSent(), 0u);
    EXPECT_EQ(l.transmit(0, 1, 2), 2u);
}

TEST(Link, FarFutureReservationDoesNotBlockEarlierTraffic)
{
    Link l;
    // A response leg reserved 300 cycles ahead...
    l.transmit(300, 5, 2);
    // ...must not delay a message that crosses the wire right now.
    EXPECT_EQ(l.transmit(0, 5, 2), 6u);
    EXPECT_EQ(l.waitCycles(), 0u);
}

TEST(Link, BackfillRespectsCapacity)
{
    Link l;
    l.transmit(10, 5, 2); // busy [10, 15)
    // A 5-flit message at t=8 cannot fit before [10,15): queues to 15.
    EXPECT_EQ(l.transmit(8, 5, 2), 15 + 2 + 4u);
    // A 1-flit message at t=6 fits in the gap [6, 10).
    EXPECT_EQ(l.transmit(6, 1, 2), 8u);
}

TEST(Link, PruneDropsPastIntervals)
{
    Link l;
    for (int i = 0; i < 10; ++i)
        l.transmit(static_cast<Cycle>(i) * 100, 5, 2);
    EXPECT_EQ(l.intervals(), 10u);
    l.transmit(2000, 1, 2, /*horizon=*/1500);
    EXPECT_LE(l.intervals(), 2u);
}

} // namespace
} // namespace espnuca

namespace espnuca {
namespace {

TEST(Link, EarliestStartIsPureQuery)
{
    Link l;
    l.transmit(10, 5, 2); // busy [10, 15)
    const Cycle probe = l.earliestStart(12, 2);
    EXPECT_EQ(probe, 15u);
    // Querying must not reserve anything.
    EXPECT_EQ(l.earliestStart(12, 2), probe);
    EXPECT_EQ(l.intervals(), 1u);
}

TEST(Link, AdjacentIntervalsCoalesce)
{
    Link l;
    l.transmit(0, 5, 2);  // [0, 5)
    l.transmit(5, 5, 2);  // [5, 10) -> coalesces with [0, 5)
    EXPECT_EQ(l.intervals(), 1u);
    // The merged interval still blocks the whole range.
    EXPECT_EQ(l.earliestStart(3, 1), 10u);
}

TEST(Link, GapExactFitIsUsed)
{
    Link l;
    l.transmit(0, 2, 2);  // [0, 2)
    l.transmit(5, 2, 2);  // [5, 7)
    // A 3-flit message at t=2 fits exactly into [2, 5).
    EXPECT_EQ(l.transmit(2, 3, 2), 2 + 2 + 2u);
    EXPECT_EQ(l.waitCycles(), 0u);
}

TEST(Link, QueueGrowsMonotonicallyUnderBurst)
{
    Link l;
    Cycle prev = 0;
    for (int i = 0; i < 32; ++i) {
        const Cycle t = l.transmit(0, 5, 2);
        EXPECT_GE(t, prev);
        prev = t;
    }
    EXPECT_EQ(l.flitsSent(), 32u * 5);
}

} // namespace
} // namespace espnuca

namespace espnuca {
namespace {

/**
 * Reference oracle: link occupancy as a sorted list of disjoint busy
 * intervals — first fit with backfilling, coalescing of touching
 * intervals, pruning of intervals ending at or before the horizon, and
 * smallest-gap compaction at Link::kMaxIntervals. Link must agree with
 * it after every call.
 */
class IntervalListLink
{
  public:
    struct Busy
    {
        Cycle start, end;
    };

    void degrade(Cycle from, Cycle until, std::uint32_t factor)
    {
        windows_.push_back({from, until, factor});
    }

    Cycle
    transmit(Cycle head, std::uint32_t flits, Cycle latency, Cycle horizon)
    {
        std::size_t dead = 0;
        while (dead < busy.size() && busy[dead].end <= horizon)
            ++dead;
        busy.erase(busy.begin(), busy.begin() + static_cast<long>(dead));
        Cycle t = head;
        std::uint32_t eff = flits * factorAt(t);
        std::size_t pos = 0;
        for (; pos < busy.size(); ++pos) {
            if (t + eff <= busy[pos].start)
                break;
            if (busy[pos].end > t) {
                t = busy[pos].end;
                eff = flits * factorAt(t);
            }
        }
        busy.insert(busy.begin() + static_cast<long>(pos), {t, t + eff});
        if (pos + 1 < busy.size() && busy[pos].end >= busy[pos + 1].start) {
            busy[pos].end = busy[pos + 1].end;
            busy.erase(busy.begin() + static_cast<long>(pos + 1));
        }
        if (pos > 0 && busy[pos - 1].end >= busy[pos].start) {
            busy[pos - 1].end = busy[pos].end;
            busy.erase(busy.begin() + static_cast<long>(pos));
        }
        peak = std::max<std::uint64_t>(peak, busy.size());
        while (busy.size() > Link::kMaxIntervals) {
            std::size_t best = 0;
            for (std::size_t i = 1; i + 1 < busy.size(); ++i)
                if (busy[i + 1].start - busy[i].end <
                    busy[best + 1].start - busy[best].end)
                    best = i;
            busy[best].end = busy[best + 1].end;
            busy.erase(busy.begin() + static_cast<long>(best + 1));
            ++compactions;
        }
        wait += t - head;
        degraded += eff - flits;
        return t + latency + (eff - 1);
    }

    std::vector<Busy> busy;
    std::uint64_t peak = 0, compactions = 0;
    Cycle wait = 0, degraded = 0;

  private:
    std::uint32_t
    factorAt(Cycle t) const
    {
        std::uint32_t f = 1;
        for (const auto &w : windows_)
            if (t >= w.from && t < w.until && w.factor > f)
                f = w.factor;
        return f;
    }

    struct Window
    {
        Cycle from, until;
        std::uint32_t factor;
    };
    std::vector<Window> windows_;
};

void
expectSame(const Link &l, const IntervalListLink &ref)
{
    ASSERT_EQ(l.intervals(), ref.busy.size());
    ASSERT_EQ(l.peakIntervals(), ref.peak);
    ASSERT_EQ(l.compactions(), ref.compactions);
    ASSERT_EQ(l.waitCycles(), ref.wait);
    ASSERT_EQ(l.degradedCycles(), ref.degraded);
}

/** Occupancy bytes as Link::save writes them, from the oracle. */
std::string
oracleOccupancy(const IntervalListLink &ref)
{
    SnapshotWriter w;
    w.u64(ref.busy.size());
    for (const auto &b : ref.busy) {
        w.u64(b.start);
        w.u64(b.end);
    }
    return w.bytes();
}

struct Shape
{
    std::uint64_t seed;
    std::uint64_t calls;
    Cycle maxStep;       //!< horizon advance per call is at most this
    Cycle nearWindow;    //!< most arrivals land within this of now
    double farChance;    //!< probability of a far-future leg
    bool degrade;        //!< overlapping degradation windows
};

/**
 * Drive Link and the oracle with the same seeded reservations and
 * compare after every call; halfway through, round-trip the Link
 * through save/load (bytes equal, occupancy bytes equal to the
 * oracle's list) and keep driving the restored copy.
 * @return the number of compactions the run forced
 */
std::uint64_t
runDifferential(const Shape &shape)
{
    Rng rng(shape.seed);
    Link link;
    IntervalListLink ref;
    struct Window
    {
        Cycle from, until;
        std::uint32_t factor;
    };
    std::vector<Window> windows;
    if (shape.degrade) {
        for (int i = 0; i < 6; ++i) {
            const Cycle from =
                rng.below(shape.calls * shape.maxStep + shape.nearWindow);
            windows.push_back({from, from + 1 + rng.below(400),
                               static_cast<std::uint32_t>(1 + rng.below(8))});
        }
    }
    for (const Window &w : windows) {
        link.degrade(w.from, w.until, w.factor);
        ref.degrade(w.from, w.until, w.factor);
    }
    Cycle now = 0;
    for (std::uint64_t i = 0; i < shape.calls; ++i) {
        now += rng.below(shape.maxStep + 1);
        Cycle head = now + rng.below(shape.nearWindow);
        if (rng.chance(shape.farChance))
            head = now + 300 + rng.below(3000);
        const std::uint32_t flits = rng.chance(0.5) ? 1 : 5;
        EXPECT_EQ(link.transmit(head, flits, 2, now),
                  ref.transmit(head, flits, 2, now))
            << "call " << i;
        expectSame(link, ref);
        if (::testing::Test::HasFailure())
            return 0;
        if (i == shape.calls / 2) {
            SnapshotWriter w;
            link.save(w);
            const std::string occupancy = oracleOccupancy(ref);
            EXPECT_EQ(w.bytes().substr(0, occupancy.size()), occupancy);
            Link restored;
            for (const Window &d : windows)
                restored.degrade(d.from, d.until, d.factor);
            SnapshotReader r(w.bytes());
            restored.load(r);
            SnapshotWriter again;
            restored.save(again);
            EXPECT_EQ(again.bytes(), w.bytes());
            link = restored;
        }
    }
    return link.compactions();
}

TEST(LinkDifferential, ControlAndDataTrafficWithAdvancingClock)
{
    runDifferential({1, 20000, 3, 24, 0.0, false});
}

TEST(LinkDifferential, FarFutureLegsBackfill)
{
    runDifferential({2, 20000, 2, 40, 0.15, false});
}

TEST(LinkDifferential, OverlappingDegradationWindows)
{
    runDifferential({3, 20000, 1, 30, 0.1, true});
}

TEST(LinkDifferential, ClockJumpsPruneSeveralIntervalsAtOnce)
{
    // Large clock steps with far-future legs still live: one prune
    // drops several intervals while later ones survive.
    runDifferential({6, 20000, 40, 60, 0.1, false});
}

TEST(LinkDifferential, SpansAtTheRingCapacityAreNotAliased)
{
    // A live span that exactly fills a power-of-two number of words,
    // then messages placed against its last word, whose window reaches
    // one word past the span: that word must read as free, not as the
    // span's first word wrapped around the ring.
    for (Cycle last = 400; last < 1100; ++last) {
        for (const std::uint32_t flits : {1u, 3u, 5u}) {
            Link link;
            IntervalListLink ref;
            for (const Cycle head : {Cycle{0}, last, last - 2, last - 1,
                                     last + 1, last - 3}) {
                ASSERT_EQ(link.transmit(head, flits, 2, 0),
                          ref.transmit(head, flits, 2, 0))
                    << "span end " << last << " flits " << flits;
                expectSame(link, ref);
            }
        }
    }
}

TEST(LinkDifferential, ChurnPastTheIntervalCap)
{
    // A frozen clock (nothing is ever pruned) and sparse arrivals: the
    // interval count climbs past kMaxIntervals, and every compaction
    // must merge the same pair as the list.
    EXPECT_GT(runDifferential({4, 6000, 0, 60000, 0.0, false}), 0u);
}

TEST(LinkDifferential, DegradedChurnPastTheIntervalCap)
{
    EXPECT_GT(runDifferential({5, 6000, 0, 60000, 0.05, true}), 0u);
}

TEST(LinkDifferential, ResetThenReuse)
{
    Link link;
    IntervalListLink ref;
    Rng rng(6);
    for (int i = 0; i < 500; ++i)
        link.transmit(rng.below(2000), 5, 2, 0);
    link.reset();
    EXPECT_EQ(link.intervals(), 0u);
    EXPECT_EQ(link.peakIntervals(), 0u);
    Cycle now = 0;
    for (int i = 0; i < 2000; ++i) {
        now += rng.below(3);
        const Cycle head = now + rng.below(20);
        ASSERT_EQ(link.transmit(head, 1, 2, now),
                  ref.transmit(head, 1, 2, now));
        expectSame(link, ref);
    }
}

} // namespace
} // namespace espnuca
