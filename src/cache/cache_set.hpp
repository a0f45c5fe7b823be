/**
 * @file
 * A w-way set in struct-of-arrays layout. Policies query the set through
 * class masks (the common case — how the paper's "private bit added to
 * the tag comparison" and "LRU among the helping blocks" rules are
 * expressed) or through arbitrary predicates via the template overloads.
 *
 * Layout (DESIGN.md 5.10): each way's state is stored once. The block
 * address lives only in a packed tag array (kInvalidAddr when the way is
 * invalid), valid and class only as u64 way bitmasks, so a probe is a
 * branch-light scan over one or two cache lines and every
 * class-population count (the paper's per-set `n`) is a popcount. The
 * remaining per-way fields — owner, dirty, owner token, reuse hits —
 * sit in an 8-byte WayState record. way() assembles a BlockMeta by
 * value from the three.
 *
 * A set's per-way arrays follow its fixed header in memory and are
 * sized to the set's associativity, so a set occupies
 * sizeof(CacheSet) + ways * (8 + 8 + 8) bytes; a SetArray holds a
 * cache's sets back to back in one allocation.
 *
 * Replacement is accelerated further by a per-(set, class-mask) victim
 * candidate cache: lruAmong(mask) memoizes its answer and touch /
 * demote / assign / clearWay / setClass repair or invalidate exactly
 * the entries they can affect, so steady-state victim selection is O(1)
 * instead of a rescan per miss.
 */

#ifndef ESPNUCA_CACHE_CACHE_SET_HPP_
#define ESPNUCA_CACHE_CACHE_SET_HPP_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "cache/block.hpp"
#include "common/log.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "obs/profiler.hpp"

namespace espnuca {

/** Way index sentinel. */
inline constexpr int kNoWay = -1;

/** The per-way fields that live in no tag array or mask (8 bytes). */
struct WayState
{
    CoreId owner = kInvalidCore;
    bool dirty = false;
    bool hasOwnerToken = false;
    std::uint8_t hits = 0; //!< saturating demand-hit count
};

/**
 * Set of `w` ways (1 <= w <= 64, the width of the way bitmasks) plus
 * per-way LRU age stamps (larger = more recent). Probes and victim
 * scans walk u64 candidate bitmasks over the packed tag/stamp arrays;
 * class counts are popcounts; recency updates are O(1).
 *
 * The object is a fixed header followed in memory by its per-way
 * arrays — tags[w], stamps[w], WayState[w] — so it only exists inside a
 * SetArray, which sizes each slot to the associativity. The header's
 * occupancy masks come last, right before the tags, so a find() reads
 * one contiguous run of masks and tags.
 */
class CacheSet
{
  public:
    /** Widest set the u64 way bitmasks can describe. */
    static constexpr std::uint32_t kMaxWays = 64;

    /** Bytes one set of `ways` ways occupies, header included. */
    static constexpr std::size_t
    bytesFor(std::uint32_t ways)
    {
        return sizeof(CacheSet) +
               ways * (sizeof(Addr) + sizeof(std::int64_t) +
                       sizeof(WayState));
    }

    CacheSet(const CacheSet &) = delete;
    CacheSet &operator=(const CacheSet &) = delete;

    std::uint32_t numWays() const { return ways_; }

    /** A way's metadata, assembled from the tags, masks and WayState.
     *  All mutation goes through the mutators below. */
    BlockMeta
    way(int i) const
    {
        checkWay(i);
        const auto u = static_cast<std::uint32_t>(i);
        const WayState &st = state()[u];
        BlockMeta m;
        m.addr = tags()[u];
        m.valid = (validMask_ >> u) & 1u;
        m.dirty = st.dirty;
        m.cls = classOf(u);
        m.owner = st.owner;
        m.hasOwnerToken = st.hasOwnerToken;
        m.hits = st.hits;
        return m;
    }

    // -- Mutators ------------------------------------------------------

    /**
     * Overwrite a way with `m` wholesale (fills, test seeding). Does
     * not touch recency; pair with touch() for an MRU insertion. An
     * invalid `m` must carry no address or class: an invalid way has
     * neither.
     */
    void
    assign(int w, const BlockMeta &m)
    {
        checkWay(w);
        const auto u = static_cast<std::uint32_t>(w);
        const std::uint64_t bit = std::uint64_t{1} << u;
        ESP_ASSERT(!m.valid || !(disabledMask_ & bit),
                   "assigning into a fault-disabled way");
        ESP_ASSERT(m.valid || (m.addr == kInvalidAddr &&
                               m.cls == BlockClass::Private),
                   "an invalid way holds no address or class");
        if (validMask_ & bit) {
            validMask_ &= ~bit;
            classWays_[clsIndex(classOf(u))] &= ~bit;
            dropVictimWay(w);
        }
        tags()[u] = m.addr;
        state()[u] = {m.owner, m.dirty, m.hasOwnerToken, m.hits};
        if (m.valid) {
            validMask_ |= bit;
            classWays_[clsIndex(m.cls)] |= bit;
            // The way keeps its old (possibly very low) stamp until the
            // caller touches it, so it may now be the true LRU of any
            // mask that matches its class: those memos must go.
            dropVictimsForClass(m.cls);
        }
    }

    /** Invalidate a way (coherence invalidation / eviction teardown). */
    void
    clearWay(int w)
    {
        assign(w, BlockMeta{});
    }

    /** Reclassify a valid way in place (e.g. victim -> shared). */
    void
    setClass(int w, BlockClass cls, CoreId owner)
    {
        checkWay(w);
        const auto u = static_cast<std::uint32_t>(w);
        const std::uint64_t bit = std::uint64_t{1} << u;
        ESP_ASSERT(validMask_ & bit, "reclassifying an invalid way");
        classWays_[clsIndex(classOf(u))] &= ~bit;
        classWays_[clsIndex(cls)] |= bit;
        state()[u].owner = owner;
        // Old-class memos may have pointed at this way; new-class memos
        // may now be beaten by this way's stamp. Drop both families.
        dropVictimWay(w);
        dropVictimsForClass(cls);
    }

    /** Set the dirty bit. */
    void
    setDirty(int w, bool v)
    {
        checkWay(w);
        state()[static_cast<std::uint32_t>(w)].dirty = v;
    }

    /** Set the owner-token bit. */
    void
    setOwnerToken(int w, bool v)
    {
        checkWay(w);
        state()[static_cast<std::uint32_t>(w)].hasOwnerToken = v;
    }

    /** Saturating demand-hit counter bump (reuse filter). */
    void
    bumpHits(int w)
    {
        checkWay(w);
        WayState &st = state()[static_cast<std::uint32_t>(w)];
        if (st.hits < 255)
            ++st.hits;
    }

    // -- Search --------------------------------------------------------

    /**
     * Hint the hardware to pull in exactly the lines a find() reads —
     * the occupancy masks and the first `ways` tags right after them —
     * ahead of a probe known to follow shortly. `ways` comes from the
     * caller so the hint never waits on this set's own line.
     */
    void
    prefetchProbe(std::uint32_t ways) const
    {
        constexpr std::uintptr_t kLine = 64;
        const auto end = reinterpret_cast<std::uintptr_t>(tags() + ways);
        for (std::uintptr_t p =
                 reinterpret_cast<std::uintptr_t>(&validMask_) &
                 ~(kLine - 1);
             p < end; p += kLine)
            __builtin_prefetch(reinterpret_cast<const void *>(p));
    }

    /** Find a valid way holding `addr` whose class is in `mask`. */
    int
    find(Addr addr, ClassMask mask) const
    {
        ESP_PROF_SCOPE("set.find");
        return match(addr, waysMatching(mask));
    }

    /** Find a valid way holding `addr` and satisfying `pred`. */
    template <typename Pred>
    int
    find(Addr addr, Pred &&pred) const
    {
        const Addr *t = tags();
        for (std::uint64_t cand = validMask_; cand != 0;
             cand &= cand - 1) {
            const int i = __builtin_ctzll(cand);
            if (t[i] == addr && pred(way(i)))
                return i;
        }
        return kNoWay;
    }

    /** Find a valid way holding `addr` under any class. */
    int
    findAny(Addr addr) const
    {
        return match(addr, validMask_);
    }

    // -- Recency -------------------------------------------------------

    /** Promote a way to MRU. */
    void
    touch(int w)
    {
        checkWay(w);
        stamps()[static_cast<std::uint32_t>(w)] = ++hi_;
        // Only a memoized victim can be invalidated by gaining recency;
        // anything else keeps every memo exact.
        if (victimWays_ & (std::uint64_t{1}
                           << static_cast<std::uint32_t>(w)))
            dropVictimWay(w);
    }

    /** Demote a way to LRU (used when inserting low-priority blocks). */
    void
    demote(int w)
    {
        checkWay(w);
        const auto u = static_cast<std::uint32_t>(w);
        stamps()[u] = --lo_;
        if ((validMask_ >> u) & 1u) {
            // The way now holds the globally smallest stamp: it IS the
            // LRU of every mask matching its class. Repair in place.
            const ClassMask cb = classBit(classOf(u));
            for (std::uint32_t m = 0; m < victim_.size(); ++m) {
                if (m & cb)
                    victim_[m] = static_cast<std::int8_t>(w);
            }
            victimWays_ |= std::uint64_t{1} << u;
        } else {
            dropVictimWay(w);
        }
    }

    /** Any invalid (and not fault-disabled) way, or kNoWay. */
    int
    invalidWay() const
    {
        const std::uint64_t inv = ~(validMask_ | disabledMask_) &
                                  wayMask();
        return inv != 0 ? __builtin_ctzll(inv) : kNoWay;
    }

    // -- Fault model ---------------------------------------------------

    /**
     * Fence off the masked ways (fault injection). Disabled ways are
     * permanently invalid: invalidWay() skips them, and since every
     * other helper only considers valid ways they can never be found,
     * touched, or chosen as victims. Must be applied before the set
     * holds data (injection happens at system assembly).
     */
    void
    disableWays(std::uint64_t mask)
    {
        mask &= wayMask();
        ESP_ASSERT(!(mask & validMask_), "disabling a way that holds data");
        disabledMask_ |= mask;
    }

    /** True when way `w` has been fenced off by fault injection. */
    bool
    wayDisabled(int w) const
    {
        return (disabledMask_ >> static_cast<std::uint32_t>(w)) & 1u;
    }

    /** Ways still usable after fault injection. */
    std::uint32_t
    enabledWays() const
    {
        return numWays() -
               static_cast<std::uint32_t>(
                   __builtin_popcountll(disabledMask_));
    }

    // -- Replacement helpers -------------------------------------------

    /** LRU-most valid way whose class is in `mask`, or kNoWay. */
    int
    lruAmong(ClassMask mask) const
    {
        ESP_PROF_SCOPE("set.lru");
        const std::int8_t cached = victim_[mask];
        if (cached != kVictimUnknown)
            return cached;
        const int best = lruOf(waysMatching(mask));
        if (best != kNoWay) {
            victim_[mask] = static_cast<std::int8_t>(best);
            victimWays_ |= std::uint64_t{1}
                           << static_cast<std::uint32_t>(best);
        }
        return best;
    }

    /** LRU-most valid way satisfying `pred`, or kNoWay. */
    template <typename Pred>
    int
    lruAmong(Pred &&pred) const
    {
        return lruOf(waysSatisfying(pred));
    }

    /** Globally LRU valid way, or kNoWay when the set is empty. */
    int
    lruWay() const
    {
        return lruAmong(kMatchAny);
    }

    /** Count valid ways whose class is in `mask`. */
    std::uint32_t
    countIf(ClassMask mask) const
    {
        return static_cast<std::uint32_t>(
            __builtin_popcountll(waysMatching(mask)));
    }

    /** Count valid ways satisfying `pred`. */
    template <typename Pred>
    std::uint32_t
    countIf(Pred &&pred) const
    {
        return static_cast<std::uint32_t>(
            __builtin_popcountll(waysSatisfying(pred)));
    }

    /** Number of valid helping blocks (the paper's per-set `n` counter). */
    std::uint32_t
    helpingCount() const
    {
        return countIf(kMatchHelping);
    }

    /** Recency position of a way: 0 = MRU .. w-1 = LRU (testing aid). */
    std::uint32_t
    recencyOf(int w) const
    {
        checkWay(w);
        const std::int64_t s = stamps()[static_cast<std::uint32_t>(w)];
        std::uint32_t rank = 0;
        for (std::uint32_t i = 0; i < ways_; ++i)
            if (stamps()[i] > s)
                ++rank;
        return rank;
    }

    /** Memoized victim for `mask`, kNoWay when not cached (tests). */
    int
    cachedVictim(ClassMask mask) const
    {
        const std::int8_t v = victim_[mask];
        return v == kVictimUnknown ? kNoWay : v;
    }

    // -- Snapshot/restore ----------------------------------------------

    /**
     * Serialize the full logical state: occupancy masks, recency stamps
     * and every way's BlockMeta fields. The per-way addr/valid/cls bytes
     * are rebuilt from the tags and masks, which hold them; load()
     * checks them against the same. The victim memo cache is NOT
     * serialized — it is a pure memoization of the stamps and class
     * masks, and lruAmong() recomputes identical answers from them.
     */
    void
    save(SnapshotWriter &w) const
    {
        w.u32(ways_);
        w.u64(validMask_);
        for (const auto cw : classWays_)
            w.u64(cw);
        w.u64(disabledMask_);
        w.i64(hi_);
        w.i64(lo_);
        for (std::uint32_t i = 0; i < ways_; ++i) {
            const BlockMeta m = way(static_cast<int>(i));
            w.u64(tags()[i]);
            w.i64(stamps()[i]);
            w.u64(m.addr);
            w.b(m.valid);
            w.b(m.dirty);
            w.u8(static_cast<std::uint8_t>(m.cls));
            w.u32(m.owner);
            w.b(m.hasOwnerToken);
            w.u8(m.hits);
        }
    }

    void
    load(SnapshotReader &r)
    {
        if (r.u32() != ways_)
            throw SnapshotError("cache set way-count mismatch");
        validMask_ = r.u64();
        std::uint64_t classed = 0;
        for (auto &cw : classWays_) {
            cw = r.u64();
            if (cw & classed)
                throw SnapshotError("cache set way in two class masks");
            classed |= cw;
        }
        disabledMask_ = r.u64();
        if (classed != validMask_ || (validMask_ & ~wayMask()) ||
            (disabledMask_ & ~wayMask()) || (validMask_ & disabledMask_))
            throw SnapshotError("cache set masks disagree");
        hi_ = r.i64();
        lo_ = r.i64();
        for (std::uint32_t i = 0; i < ways_; ++i) {
            tags()[i] = r.u64();
            stamps()[i] = r.i64();
            const Addr addr = r.u64();
            const bool valid = r.b();
            WayState &st = state()[i];
            st.dirty = r.b();
            const std::uint8_t cls = r.u8();
            st.owner = static_cast<CoreId>(r.u32());
            st.hasOwnerToken = r.b();
            st.hits = r.u8();
            const bool live = (validMask_ >> i) & 1u;
            if (valid != live || addr != tags()[i] ||
                (!live && addr != kInvalidAddr) ||
                cls != static_cast<std::uint8_t>(classOf(i)))
                throw SnapshotError(
                    "cache set way disagrees with its tag or masks");
        }
        victim_.fill(kVictimUnknown);
        victimWays_ = 0;
    }

  private:
    friend class SetArray;
    static constexpr std::int8_t kVictimUnknown = -1;

    /** Only SetArray builds sets, in slots of bytesFor(ways) bytes. */
    explicit CacheSet(std::uint32_t ways) : ways_(ways)
    {
        ESP_ASSERT(ways > 0, "set needs at least one way");
        ESP_ASSERT(ways <= kMaxWays, "way bitmasks hold at most 64 ways");
        std::fill_n(tags(), ways, kInvalidAddr);
        // Initial recency order: way 0 is MRU, way w-1 is LRU — the
        // same total order the recency-stack representation started
        // with. Stamps stay unique forever: every touch takes a fresh
        // value above every live stamp, every demote one below.
        for (std::uint32_t i = 0; i < ways; ++i)
            stamps()[i] = static_cast<std::int64_t>(ways - i);
        hi_ = static_cast<std::int64_t>(ways);
        lo_ = 1;
        std::fill_n(state(), ways, WayState{});
        victim_.fill(kVictimUnknown);
    }

    static std::uint32_t
    clsIndex(BlockClass c)
    {
        return static_cast<std::uint32_t>(c);
    }

    // The per-way arrays trail the header: tags, then stamps, then
    // WayState records.
    Addr *tags() { return reinterpret_cast<Addr *>(this + 1); }
    const Addr *
    tags() const
    {
        return reinterpret_cast<const Addr *>(this + 1);
    }
    std::int64_t *
    stamps()
    {
        return reinterpret_cast<std::int64_t *>(tags() + ways_);
    }
    const std::int64_t *
    stamps() const
    {
        return reinterpret_cast<const std::int64_t *>(tags() + ways_);
    }
    WayState *
    state()
    {
        return reinterpret_cast<WayState *>(stamps() + ways_);
    }
    const WayState *
    state() const
    {
        return reinterpret_cast<const WayState *>(stamps() + ways_);
    }

    void
    checkWay(int w) const
    {
        ESP_ASSERT(w >= 0 && static_cast<std::uint32_t>(w) < numWays(),
                   "way out of range");
        (void)w;
    }

    std::uint64_t
    wayMask() const
    {
        return ~std::uint64_t{0} >> (64 - ways_);
    }

    /** Class of way `i`, read from the class masks (Private when the
     *  way is invalid, as a cleared BlockMeta has it). */
    BlockClass
    classOf(std::uint32_t i) const
    {
        return static_cast<BlockClass>(
            ((classWays_[1] >> i) & 1u) | (((classWays_[2] >> i) & 1u) << 1) |
            (((classWays_[3] >> i) & 1u) * 3));
    }

    /** First way in `cand` whose tag is `addr`, or kNoWay. */
    int
    match(Addr addr, std::uint64_t cand) const
    {
        const Addr *t = tags();
        for (; cand != 0; cand &= cand - 1) {
            const int i = __builtin_ctzll(cand);
            if (t[i] == addr)
                return i;
        }
        return kNoWay;
    }

    /** The way in `cand` with the smallest stamp, or kNoWay. */
    int
    lruOf(std::uint64_t cand) const
    {
        const std::int64_t *st = stamps();
        int best = kNoWay;
        std::int64_t best_stamp = 0;
        for (; cand != 0; cand &= cand - 1) {
            const int i = __builtin_ctzll(cand);
            if (best == kNoWay || st[i] < best_stamp) {
                best = i;
                best_stamp = st[i];
            }
        }
        return best;
    }

    /** Valid ways whose class is in `mask` (the tag-comparison filter). */
    std::uint64_t
    waysMatching(ClassMask mask) const
    {
        std::uint64_t r = 0;
        if (mask & kMatchPrivate)
            r |= classWays_[clsIndex(BlockClass::Private)];
        if (mask & kMatchShared)
            r |= classWays_[clsIndex(BlockClass::Shared)];
        if (mask & kMatchReplica)
            r |= classWays_[clsIndex(BlockClass::Replica)];
        if (mask & kMatchVictim)
            r |= classWays_[clsIndex(BlockClass::Victim)];
        return r;
    }

    /** Valid ways whose BlockMeta satisfies `pred`. */
    template <typename Pred>
    std::uint64_t
    waysSatisfying(Pred &pred) const
    {
        std::uint64_t r = 0;
        for (std::uint64_t cand = validMask_; cand != 0;
             cand &= cand - 1) {
            const int i = __builtin_ctzll(cand);
            if (pred(way(i)))
                r |= std::uint64_t{1} << static_cast<std::uint32_t>(i);
        }
        return r;
    }

    /** Forget every memoized victim that points at way `w`. */
    void
    dropVictimWay(int w) const
    {
        const std::uint64_t bit = std::uint64_t{1}
                                  << static_cast<std::uint32_t>(w);
        if (!(victimWays_ & bit))
            return;
        for (auto &v : victim_)
            if (v == static_cast<std::int8_t>(w))
                v = kVictimUnknown;
        victimWays_ &= ~bit;
    }

    /** Forget every memoized victim for masks matching class `c`. */
    void
    dropVictimsForClass(BlockClass c) const
    {
        const ClassMask cb = classBit(c);
        for (std::uint32_t m = 0; m < victim_.size(); ++m)
            if (m & cb)
                victim_[m] = kVictimUnknown;
        std::uint64_t ways = 0;
        for (const auto &v : victim_)
            if (v != kVictimUnknown)
                ways |= std::uint64_t{1}
                        << static_cast<std::uint32_t>(v);
        victimWays_ = ways;
    }

    // Cold header: recency bookkeeping, the victim memos, fault fence.
    std::int64_t hi_ = 0;             //!< last MRU stamp handed out
    std::int64_t lo_ = 0;             //!< next LRU stamp is lo_ - 1
    // Victim candidate cache, one memo per ClassMask value; lazily
    // filled by lruAmong(mask) and repaired by the mutators (mutable:
    // memoization only, never observable).
    mutable std::array<std::int8_t, kMatchAny + 1> victim_;
    mutable std::uint64_t victimWays_ = 0; //!< ways some memo points at
    std::uint64_t disabledMask_ = 0; //!< fault-disabled ways (bit per way)
    std::uint32_t ways_ = 0;
    // Probe header, last so the tags follow it directly: a find()
    // reads these masks and then the tags, one contiguous run.
    std::uint64_t validMask_ = 0;
    std::array<std::uint64_t, 4> classWays_{}; //!< valid ways per class
};

static_assert(sizeof(CacheSet) % alignof(Addr) == 0 &&
                  sizeof(WayState) == 8,
              "per-way arrays must start aligned after the header");

/**
 * A cache's sets, back to back in one allocation whose first set starts
 * on a 64-byte line. Each slot is CacheSet::bytesFor(ways) bytes, so a
 * 4-way L1 set costs only its four ways.
 */
class SetArray
{
  public:
    SetArray(std::uint32_t sets, std::uint32_t ways)
        : stride_(CacheSet::bytesFor(ways)), size_(sets),
          // Aligned by hand inside a plain allocation: an aligned
          // operator new splits off remainder chunks that fragment the
          // heap across a process's successive Systems.
          raw_(new std::byte[stride_ * sets + kLine - 1]),
          base_(raw_.get() + (-reinterpret_cast<std::uintptr_t>(raw_.get()) &
                              (kLine - 1)))
    {
        for (std::uint32_t s = 0; s < sets; ++s)
            ::new (base_ + s * stride_) CacheSet(ways);
    }

    std::uint32_t size() const { return size_; }

    CacheSet &
    operator[](std::uint32_t s)
    {
        return *std::launder(
            reinterpret_cast<CacheSet *>(base_ + s * stride_));
    }
    const CacheSet &
    operator[](std::uint32_t s) const
    {
        return *std::launder(
            reinterpret_cast<const CacheSet *>(base_ + s * stride_));
    }

  private:
    static constexpr std::uintptr_t kLine = 64;

    // Sets are trivially destructible, so freeing the storage ends them.
    static_assert(std::is_trivially_destructible_v<CacheSet>);

    std::size_t stride_;
    std::uint32_t size_;
    std::unique_ptr<std::byte[]> raw_;
    std::byte *base_;
};

} // namespace espnuca

#endif // ESPNUCA_CACHE_CACHE_SET_HPP_
