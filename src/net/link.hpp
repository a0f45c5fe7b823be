/**
 * @file
 * Directed mesh link with flit-level bandwidth accounting. Links are
 * 128 bits wide (Table 2): a 72 B data message serializes into 5 flits,
 * a control message into 1 flit; the link injects one flit per cycle.
 *
 * Because the simulator reserves whole paths analytically (including
 * hops that will be reached far in the future, e.g. the response leg of
 * a 300-cycle memory access), occupancy is kept per cycle rather than
 * as a single "free-at" scalar: a message reserving a far-future window
 * must not block earlier traffic that physically crosses the wire first
 * (backfilling).
 *
 * Occupancy is a bitmap with one bit per cycle, stored in a
 * power-of-two ring of u64 words that covers the live span (first busy
 * cycle .. last busy cycle). A maximal run of set bits is one busy
 * interval: touching reservations coalesce by construction, a
 * reservation test is a word mask, and a run's end is a ctz. Every bit
 * outside a live run is zero, so a ring slot not covered by the live
 * span is free to be reused for any cycle. The ring starts inline (most
 * links never look more than a few hundred cycles ahead) and moves to
 * the heap, doubling, when a reservation reaches past it.
 */

#ifndef ESPNUCA_NET_LINK_HPP_
#define ESPNUCA_NET_LINK_HPP_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace espnuca {

/** One direction of a physical channel. */
class alignas(64) Link
{
  public:
    Link() = default;

    /**
     * Hard cap on the number of busy intervals. Pathological
     * reservation patterns (notably long fault-injected degradation
     * windows, whose inflated serialization shreds the schedule into
     * many small fragments) could otherwise grow the count without
     * bound; at the cap the smallest inter-interval gaps are merged
     * away, which only ever over-reserves the wire (conservative,
     * deterministic).
     */
    static constexpr std::size_t kMaxIntervals = 1024;

    /**
     * Reserve the link for one message.
     *
     * @param head_arrival cycle the message head reaches the link input
     * @param flits message length in flits (>= 1)
     * @param latency link traversal latency in cycles
     * @param horizon current simulation time; intervals wholly in the
     *        past are pruned (no arrival may precede it)
     * @return cycle at which the full message has crossed the link
     */
    Cycle
    transmit(Cycle head_arrival, std::uint32_t flits, Cycle latency,
             Cycle horizon = 0)
    {
        if (horizon >= firstEnd_)
            prune(horizon);
        // Earliest conflict-free start >= head_arrival (first fit).
        // Under a fault-injected degradation window the message
        // serializes `factor` times slower, so its footprint is
        // recomputed whenever the candidate start moves.
        Cycle t = head_arrival;
        std::uint32_t eff = flits;
        if (!degraded_ && flits <= kWindowFlits) {
            t = place(t, flits);
        } else {
            eff = flits * factorAt(t);
            if (t < lastEnd_)
                t = firstFit(t, flits, eff);
            reserve(t, t + eff);
            degradedCycles_ += eff - flits;
        }
        if (intervals_ > peakIntervals_)
            peakIntervals_ = intervals_;
        if (intervals_ > kMaxIntervals)
            compact();
        waitCycles_ += t - head_arrival;
        flitsSent_ += flits;
        ++messages_;
        return t + latency + (eff - 1);
    }

    /** First cycle a new message arriving "now" could start (tests). */
    Cycle
    earliestStart(Cycle arrival, std::uint32_t flits) const
    {
        std::uint32_t eff = flits * factorAt(arrival);
        return firstFit(arrival, flits, eff);
    }

    // -- Fault model ---------------------------------------------------

    /**
     * Degrade the link for cycles [from, until): every message whose
     * transmission starts inside the window serializes `factor` times
     * slower (a factor of 1 is a no-op window). Overlapping windows
     * take the worst factor.
     */
    void
    degrade(Cycle from, Cycle until, std::uint32_t factor)
    {
        degradations_.push_back(Degradation{from, until, factor});
        degraded_ = true;
    }

    /** Serialization multiplier in effect at cycle `t` (>= 1). */
    std::uint32_t
    factorAt(Cycle t) const
    {
        if (!degraded_)
            return 1;
        std::uint32_t f = 1;
        for (const Degradation &d : degradations_)
            if (t >= d.from && t < d.until && d.factor > f)
                f = d.factor;
        return f;
    }

    /** True when any degradation window is configured. */
    bool degraded() const { return degraded_; }

    /** Number of live busy intervals (diagnostics). */
    std::size_t intervals() const { return intervals_; }

    /** High-water mark of the busy-interval count (leak visibility). */
    std::size_t peakIntervals() const { return peakIntervals_; }

    /** Interval-merge operations forced by the kMaxIntervals cap. */
    std::uint64_t compactions() const { return compactions_; }

    /** Extra wire cycles paid to degradation windows. */
    Cycle degradedCycles() const { return degradedCycles_; }

    /** Total flits pushed through this link (utilization stat). */
    std::uint64_t flitsSent() const { return flitsSent_; }

    /** Total messages that crossed this link. */
    std::uint64_t messages() const { return messages_; }

    /** Accumulated queueing delay suffered at this link. */
    Cycle waitCycles() const { return waitCycles_; }

    /** Clear occupancy and stats; degradation windows are configuration
     * and survive. */
    void
    reset()
    {
        clearOccupancy();
        resetStats();
    }

    /** Clear the statistics only (warmup boundary). */
    void
    resetStats()
    {
        flitsSent_ = 0;
        messages_ = 0;
        waitCycles_ = 0;
        degradedCycles_ = 0;
        compactions_ = 0;
        peakIntervals_ = intervals_;
    }

    // -- Snapshot/restore ----------------------------------------------

    /** Serialize occupancy (as the sorted busy-interval list) and
     *  statistics. Degradation windows are configuration (re-applied
     *  from the fault plan at construction) and not part of the
     *  snapshot. */
    void
    save(SnapshotWriter &w) const
    {
        w.u64(intervals_);
        if (intervals_ > 0) {
            for (Cycle s = firstStart_;;) {
                const Cycle e = runEnd(s);
                w.u64(s);
                w.u64(e);
                if (e >= lastEnd_)
                    break;
                s = firstSet(e, lastEnd_);
            }
        }
        w.u64(flitsSent_);
        w.u64(messages_);
        w.u64(compactions_);
        w.u64(peakIntervals_);
        w.u64(waitCycles_);
        w.u64(degradedCycles_);
    }

    void
    load(SnapshotReader &r)
    {
        clearOccupancy();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Cycle s = r.u64();
            const Cycle e = r.u64();
            if (e <= s || (i > 0 && s <= lastEnd_))
                throw SnapshotError("link busy intervals out of order");
            reserve(s, e);
        }
        flitsSent_ = r.u64();
        messages_ = r.u64();
        compactions_ = r.u64();
        peakIntervals_ = static_cast<std::uint32_t>(r.u64());
        waitCycles_ = r.u64();
        degradedCycles_ = r.u64();
    }

  private:
    static constexpr Cycle kNever = ~Cycle{0};
    static constexpr std::uint64_t kAll = ~std::uint64_t{0};
    static constexpr std::uint32_t kInlineWords = 8;
    /** Longest message place() handles: its 64-cycle window also
     *  covers the cycle before the message and the one after it. */
    static constexpr std::uint32_t kWindowFlits = 62;

    /** Bits [lo, hi] (inclusive) of a word. */
    static std::uint64_t
    wordBits(std::uint32_t lo, std::uint32_t hi)
    {
        return (kAll << lo) & (kAll >> (63 - hi));
    }

    std::uint64_t *
    ring()
    {
        return wordMask_ < kInlineWords ? inline_.data() : spill_.data();
    }

    const std::uint64_t *
    ring() const
    {
        return wordMask_ < kInlineWords ? inline_.data() : spill_.data();
    }

    /** Is cycle `c` busy? Cycles outside the live span are free. */
    bool
    busyAt(Cycle c) const
    {
        return c >= firstStart_ && c < lastEnd_ &&
               ((ring()[(c >> 6) & wordMask_] >> (c & 63)) & 1u);
    }

    /** First busy cycle in [lo, hi), or kNever. */
    Cycle
    firstSet(Cycle lo, Cycle hi) const
    {
        lo = std::max(lo, firstStart_);
        hi = std::min(hi, lastEnd_);
        if (lo >= hi)
            return kNever;
        const std::uint64_t *r = ring();
        Cycle w = lo >> 6;
        const Cycle last = (hi - 1) >> 6;
        std::uint64_t x = r[w & wordMask_] & (kAll << (lo & 63));
        while (x == 0) {
            if (w == last)
                return kNever;
            ++w;
            x = r[w & wordMask_];
        }
        const Cycle p = (w << 6) + static_cast<Cycle>(__builtin_ctzll(x));
        return p < hi ? p : kNever;
    }

    /** End (exclusive) of the busy run containing busy cycle `p`. */
    Cycle
    runEnd(Cycle p) const
    {
        const std::uint64_t *r = ring();
        Cycle w = p >> 6;
        // Bits past the live span inside a live word are zero, so the
        // first word always holds the run's end unless the run fills it.
        std::uint64_t x = ~r[w & wordMask_] & (kAll << (p & 63));
        while (x == 0) {
            ++w;
            if ((w << 6) >= lastEnd_)
                return lastEnd_;
            x = ~r[w & wordMask_];
        }
        return (w << 6) + static_cast<Cycle>(__builtin_ctzll(x));
    }

    /**
     * The 64 cycles from `c` as a word (bit i = cycle c + i). Reads the
     * words holding c and c + 63 without clamping: callers keep both
     * within one word of the live span, and the ring always has two
     * spare words (see fit()), so neither can alias a live word.
     */
    std::uint64_t
    bitsFrom(Cycle c) const
    {
        const std::uint64_t *r = ring();
        const Cycle w = c >> 6;
        const auto s = static_cast<std::uint32_t>(c & 63);
        // (x << 1) << (63 - s) is x << (64 - s), and 0 when s == 0.
        return (r[w & wordMask_] >> s) |
               ((r[(w + 1) & wordMask_] << 1) << (63 - s));
    }

    /**
     * First fit and reservation in one pass for an undegraded message
     * of `n` <= kWindowFlits flits: one 64-cycle window read answers
     * whether [t, t + n) is free and whether it touches the intervals
     * on either side.
     */
    Cycle
    place(Cycle t, std::uint32_t n)
    {
        bool joins_prev = false, joins_next = false;
        for (;;) {
            if (t >= lastEnd_) { // after all traffic: append
                joins_prev = intervals_ > 0 && t == lastEnd_;
                break;
            }
            if (t + n <= firstStart_) { // before all traffic
                joins_next = t + n == firstStart_;
                break;
            }
            // Here t - 1 and t + 62 lie within a word of the live span.
            const std::uint64_t win = bitsFrom(t - 1);
            const std::uint64_t clash = win & (wordBits(0, n - 1) << 1);
            if (clash == 0) {
                joins_prev = win & 1u;
                joins_next = (win >> (n + 1)) & 1u;
                break;
            }
            // Push past the conflicting interval: its end is the first
            // free cycle after the clash, within the window or beyond.
            const auto k = static_cast<std::uint32_t>(__builtin_ctzll(clash));
            const std::uint64_t free = ~win >> k;
            t = free != 0 ? t - 1 + k +
                                static_cast<Cycle>(__builtin_ctzll(free))
                          : runEnd(t + 62);
        }
        commit(t, t + n, joins_prev, joins_next);
        return t;
    }

    /** Earliest start >= t whose [t, t + eff) window is free; `eff`
     *  follows the degradation factor at the returned start. */
    Cycle
    firstFit(Cycle t, std::uint32_t flits, std::uint32_t &eff) const
    {
        for (Cycle p = firstSet(t, t + eff); p != kNever;
             p = firstSet(t, t + eff)) {
            t = runEnd(p); // pushed past the conflicting interval
            eff = flits * factorAt(t);
        }
        return t;
    }

    /** Mark cycles [a, b) busy (or free). */
    void
    mark(Cycle a, Cycle b, bool busy)
    {
        std::uint64_t *r = ring();
        auto apply = [&](Cycle w, std::uint64_t m) {
            std::uint64_t &x = r[w & wordMask_];
            x = busy ? x | m : x & ~m;
        };
        const Cycle wa = a >> 6, wb = (b - 1) >> 6;
        const auto lo = static_cast<std::uint32_t>(a & 63);
        const auto hi = static_cast<std::uint32_t>((b - 1) & 63);
        if (wa == wb) {
            apply(wa, wordBits(lo, hi));
            return;
        }
        apply(wa, wordBits(lo, 63));
        for (Cycle w = wa + 1; w < wb; ++w)
            apply(w, kAll);
        apply(wb, wordBits(0, hi));
    }

    /** Make the ring wide enough to hold cycles [lo, hi) plus two
     *  spare words, which keep bitsFrom()'s reads next to the live
     *  span from aliasing a live word. */
    void
    fit(Cycle lo, Cycle hi)
    {
        const Cycle words = ((hi - 1) >> 6) - (lo >> 6) + 3;
        if (words > static_cast<Cycle>(wordMask_) + 1)
            grow(words);
    }

    void
    grow(Cycle words)
    {
        std::uint64_t cap = std::uint64_t{wordMask_} + 1;
        while (cap < words)
            cap *= 2;
        std::vector<std::uint64_t> next(cap, 0);
        if (intervals_ > 0) {
            const std::uint64_t *r = ring();
            for (Cycle w = firstStart_ >> 6; w <= (lastEnd_ - 1) >> 6; ++w)
                next[w & (cap - 1)] = r[w & wordMask_];
        }
        spill_ = std::move(next);
        wordMask_ = static_cast<std::uint32_t>(cap - 1);
    }

    /** Mark the free window [a, b) busy (general path). */
    void
    reserve(Cycle a, Cycle b)
    {
        commit(a, b, a > 0 && busyAt(a - 1), busyAt(b));
    }

    /** Mark the free window [a, b) busy, coalescing with the touching
     *  intervals flagged by the caller, and keep the interval count
     *  and span bounds exact. */
    void
    commit(Cycle a, Cycle b, bool joins_prev, bool joins_next)
    {
        if (intervals_ == 0) {
            fit(a, b);
            mark(a, b, true);
            intervals_ = 1;
            firstStart_ = a;
            firstEnd_ = b;
            lastEnd_ = b;
            return;
        }
        fit(std::min(a, firstStart_), std::max(b, lastEnd_));
        mark(a, b, true);
        intervals_ = intervals_ + 1 - static_cast<std::uint32_t>(joins_prev) -
                     static_cast<std::uint32_t>(joins_next);
        if (b > lastEnd_)
            lastEnd_ = b;
        if (a < firstStart_) { // a new first interval, or the first grew
            if (!joins_next)
                firstEnd_ = b;
            firstStart_ = a;
        } else if (a == firstEnd_) { // appended to the first interval
            firstEnd_ = joins_next ? runEnd(b) : b;
        }
    }

    /** Drop every interval ending at or before `horizon` (the caller
     *  checked that the first one does). */
    void
    prune(Cycle horizon)
    {
        if (horizon >= lastEnd_) {
            clearOccupancy();
            return;
        }
        // The first survivor holds the horizon or starts after it; the
        // common case finds it in one window at the first interval.
        const Cycle d = horizon - firstStart_; // >= 1
        if (d < 64) {
            const std::uint64_t y = bitsFrom(firstStart_);
            const std::uint64_t after = y & (kAll << d);
            if (after != 0) {
                // Horizon busy: the survivor starts after the last free
                // cycle below it (one exists: the first interval ends by
                // the horizon). Else: at the next busy cycle.
                const Cycle s =
                    (y >> d) & 1u
                        ? 64 - static_cast<Cycle>(
                                   __builtin_clzll(~y & ~(kAll << d)))
                        : static_cast<Cycle>(__builtin_ctzll(after));
                const std::uint64_t dead = y & ~(kAll << s);
                intervals_ -= static_cast<std::uint32_t>(
                    __builtin_popcountll(dead & ~(dead << 1)));
                mark(firstStart_, firstStart_ + s, false);
                firstStart_ += s;
                const std::uint64_t rest = ~y >> s; // bit 0 is busy
                firstEnd_ = rest != 0
                                ? firstStart_ + static_cast<Cycle>(
                                                    __builtin_ctzll(rest))
                                : runEnd(firstStart_);
                return;
            }
        }
        do { // one interval at a time
            mark(firstStart_, firstEnd_, false);
            --intervals_;
            firstStart_ = firstSet(firstEnd_, lastEnd_);
            firstEnd_ = runEnd(firstStart_);
        } while (firstEnd_ <= horizon);
    }

    /**
     * Enforce kMaxIntervals by repeatedly merging the pair of adjacent
     * intervals with the smallest gap between them (ties: the earliest
     * pair). Merging turns free time into reserved time — future
     * messages may be scheduled later than strictly necessary, never
     * earlier — so correctness and determinism are preserved.
     */
    void
    compact()
    {
        while (intervals_ > kMaxIntervals) {
            Cycle best_end = 0, best_next = 0, best_gap = kNever;
            for (Cycle e = firstEnd_; e < lastEnd_;) {
                const Cycle next = firstSet(e, lastEnd_);
                if (next - e < best_gap) {
                    best_gap = next - e;
                    best_end = e;
                    best_next = next;
                }
                e = runEnd(next);
            }
            mark(best_end, best_next, true);
            if (best_end == firstEnd_)
                firstEnd_ = runEnd(firstStart_);
            --intervals_;
            ++compactions_;
        }
    }

    void
    clearOccupancy()
    {
        if (intervals_ > 0) {
            std::uint64_t *r = ring();
            for (Cycle w = firstStart_ >> 6; w <= (lastEnd_ - 1) >> 6; ++w)
                r[w & wordMask_] = 0;
        }
        intervals_ = 0;
        firstStart_ = 0;
        firstEnd_ = kNever;
        lastEnd_ = 0;
    }

    struct Degradation
    {
        Cycle from;
        Cycle until; //!< exclusive
        std::uint32_t factor;
    };

    // Hot state first: the span bounds, ring geometry and per-message
    // counters fill the leading cache line, the inline ring the next;
    // the rarely touched fields come last.
    Cycle firstStart_ = 0;    //!< first busy cycle (when intervals_ > 0)
    Cycle firstEnd_ = kNever; //!< end of the first interval; kNever if none
    Cycle lastEnd_ = 0;       //!< end of the last interval; 0 if none
    std::uint32_t wordMask_ = kInlineWords - 1; //!< ring words - 1
    std::uint32_t intervals_ = 0;
    std::uint32_t peakIntervals_ = 0;
    bool degraded_ = false; //!< any degradation window configured
    Cycle waitCycles_ = 0;
    std::uint64_t flitsSent_ = 0;
    std::uint64_t messages_ = 0;
    std::array<std::uint64_t, kInlineWords> inline_{};
    Cycle degradedCycles_ = 0;
    std::uint64_t compactions_ = 0;
    std::vector<Degradation> degradations_;
    std::vector<std::uint64_t> spill_; //!< the ring once it outgrows inline_
};

} // namespace espnuca

#endif // ESPNUCA_NET_LINK_HPP_
