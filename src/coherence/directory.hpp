/**
 * @file
 * Chip-wide per-block coherence bookkeeping: the token-counting ledger
 * and the TokenD-style directory (paper 2.3, [15]).
 *
 * The simulator tracks, per block, which L1s hold tokens, which L2 banks
 * hold copies, where the owner token is, and the SP-NUCA private/shared
 * status. Token counts follow the transaction-level redistribution rule
 * (DESIGN.md 5.2): the owner holds the remainder of the fixed total,
 * every other holder one token, and memory everything when the block is
 * off chip — so conservation holds by construction and the testable
 * invariants are on the holder sets themselves.
 */

#ifndef ESPNUCA_COHERENCE_DIRECTORY_HPP_
#define ESPNUCA_COHERENCE_DIRECTORY_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "coherence/l1_cache.hpp"
#include "common/config.hpp"
#include "common/flat_map.hpp"
#include "common/inline_bitset.hpp"
#include "common/log.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace espnuca {

/** Who holds a block's owner token. */
enum class OwnerKind : std::uint8_t { Memory, L1, L2Bank };

/** Per-block L1 holder set (one bit per L1Id = core*2 + i/d). */
using L1HolderMask = InlineBitset<kMaxCores * 2>;
/** Per-block L2 copy set (one bit per BankId). */
using L2CopyMask = InlineBitset<kMaxL2Banks>;

/** Directory entry for one block (on chip, or off chip with its
 *  status kept for the next demand access). The hot scalar fields lead
 *  so owner/status probes touch only the entry's first bytes; the wide
 *  holder/copy masks (48 B at the 64-core/256-bank caps) sit behind
 *  them. */
struct BlockInfo
{
    OwnerKind ownerKind = OwnerKind::Memory;
    /** SP/ESP-NUCA sharing status: false = private, true = shared. */
    bool sharedStatus = false;
    /** The single accessor while the block is private. */
    CoreId firstAccessor = kInvalidCore;
    std::uint32_t ownerIndex = 0; //!< L1Id or BankId when not Memory
    L1HolderMask l1Holders;       //!< bit per L1Id (core*2 + i/d)
    L2CopyMask l2Copies;          //!< bit per BankId

    bool
    onChip() const
    {
        return l1Holders.any() || l2Copies.any();
    }

    bool hasL1Holder(L1Id id) const { return l1Holders.test(id); }
    bool hasL2Copy(BankId b) const { return l2Copies.test(b); }

    std::uint32_t
    numL1Holders() const
    {
        return l1Holders.count();
    }

    std::uint32_t
    numL2Copies() const
    {
        return l2Copies.count();
    }
};

/**
 * The directory proper. All mutations funnel through here so the holder
 * sets stay consistent with the cache arrays (cross-checked in tests).
 *
 * Storage is split in two. A FlatMap probe index maps a block address
 * to a 32-bit entry id; its slots are 24 bytes, so a rehash moves
 * those rather than whole entries, and table order (which save()
 * follows) depends only on the key history. The entries live in a
 * pool of fixed-size chunks that never move or free while the
 * directory lives: a doubling of the index copies no entry, and an
 * entry pointer survives every insert.
 * Entries are never erased — an off-chip block keeps its status until
 * the next demand access resets it (noteAccess) — so the pool only
 * grows and ids are handed out in creation order.
 */
class Directory
{
  public:
    explicit Directory(const SystemConfig &cfg)
        : totalTokens_(cfg.totalTokens())
    {
    }

    /** Hint: pull a's home slot into cache ahead of a find/entry known
     * to follow shortly (e.g. the noteAccess of a just-issued access). */
    void prefetch(Addr a) const { index_.prefetch(a); }

    /** Look up without creating; nullptr when the block was never seen. */
    const BlockInfo *
    find(Addr a) const
    {
        auto it = index_.find(a);
        return it == index_.end() ? nullptr : &at(it->second);
    }

    /**
     * Look up or create (fresh blocks are private, memory-owned). The
     * reference stays valid for the directory's lifetime: entries
     * never move and are never erased, so a transaction can carry its
     * block's entry from begin() to teardown.
     */
    BlockInfo &
    entry(Addr a)
    {
        const std::size_t before = index_.size();
        std::uint32_t &id = index_[a];
        if (index_.size() != before) {
            ESP_ASSERT(count_ != ~std::uint32_t{0},
                       "directory entry ids exhausted");
            if ((count_ & kChunkMask) == 0)
                chunks_.push_back(
                    std::make_unique<BlockInfo[]>(kChunkMask + 1));
            id = count_++;
        }
        return at(id);
    }

    /** True when any on-chip structure holds the block. */
    bool
    onChip(Addr a) const
    {
        const BlockInfo *e = find(a);
        return e != nullptr && e->onChip();
    }

    /**
     * Record the demand access of core c: establishes the first accessor
     * and performs the SP-NUCA privatization transition. A block whose
     * copies all left the chip starts over as private (paper 2.1) —
     * the reset is applied lazily here, so the status survives pure
     * on-chip moves (e.g. a displaced private block becoming a victim).
     * @return true when this access flips the block private -> shared.
     */
    bool
    noteAccess(BlockInfo &e, CoreId c)
    {
        if (!e.onChip() && e.firstAccessor != kInvalidCore) {
            e.firstAccessor = kInvalidCore;
            e.sharedStatus = false;
        }
        if (e.firstAccessor == kInvalidCore) {
            e.firstAccessor = c;
            return false;
        }
        if (!e.sharedStatus && e.firstAccessor != c) {
            e.sharedStatus = true;
            return true;
        }
        return false;
    }

    // -- L1 holder management -----------------------------------------
    //
    // The mutators take the block's entry, not its address: a
    // transaction carries its own block's entry, and every other
    // caller looks the block up once (entry()) and hands the entry to
    // each mutator it applies.

    void
    addL1(BlockInfo &e, L1Id id, bool owner)
    {
        e.l1Holders.set(id);
        if (owner) {
            e.ownerKind = OwnerKind::L1;
            e.ownerIndex = id;
        }
    }

    /** Remove an L1 holder; owner token falls back to memory for now
     *  (callers re-assign it when the data lands in an L2 bank). The
     *  entry stays when this was the last on-chip copy, as on every
     *  remove path: transient zero-copy windows during on-chip moves
     *  must not lose the private/shared status. */
    void
    removeL1(BlockInfo &e, L1Id id)
    {
        ESP_ASSERT(e.hasL1Holder(id), "removing a non-holder L1");
        e.l1Holders.clear(id);
        if (e.ownerKind == OwnerKind::L1 && e.ownerIndex == id) {
            e.ownerKind = OwnerKind::Memory;
            e.ownerIndex = 0;
        }
    }

    // -- L2 copy management --------------------------------------------

    void
    addL2(BlockInfo &e, BankId b, bool owner)
    {
        ESP_ASSERT(!e.hasL2Copy(b), "bank already holds a copy");
        e.l2Copies.set(b);
        if (owner) {
            e.ownerKind = OwnerKind::L2Bank;
            e.ownerIndex = b;
        }
    }

    void
    removeL2(BlockInfo &e, BankId b)
    {
        ESP_ASSERT(e.hasL2Copy(b), "removing a non-copy bank");
        e.l2Copies.clear(b);
        if (e.ownerKind == OwnerKind::L2Bank && e.ownerIndex == b) {
            e.ownerKind = OwnerKind::Memory;
            e.ownerIndex = 0;
        }
    }

    /** Move the L2 owner-token copy from one bank to another. */
    void
    moveL2(Addr a, BankId from, BankId to)
    {
        BlockInfo &e = entry(a);
        ESP_ASSERT(e.hasL2Copy(from), "moving from a non-copy bank");
        ESP_ASSERT(!e.hasL2Copy(to), "destination already holds a copy");
        e.l2Copies.clear(from);
        e.l2Copies.set(to);
        if (e.ownerKind == OwnerKind::L2Bank && e.ownerIndex == from)
            e.ownerIndex = to;
    }

    /** Explicitly hand the owner token to a holder. */
    void
    setOwner(BlockInfo &e, OwnerKind kind, std::uint32_t index)
    {
        if (kind == OwnerKind::L1)
            ESP_ASSERT(e.hasL1Holder(index), "owner must hold the block");
        if (kind == OwnerKind::L2Bank)
            ESP_ASSERT(e.hasL2Copy(index), "owner bank must hold a copy");
        e.ownerKind = kind;
        e.ownerIndex = index;
    }

    /**
     * Token count of a holder under the redistribution rule (tests and
     * diagnostics; conservation is structural).
     */
    std::uint32_t
    tokensOf(Addr a, OwnerKind kind, std::uint32_t index) const
    {
        const BlockInfo *e = find(a);
        if (!e)
            return kind == OwnerKind::Memory ? totalTokens_ : 0;
        const std::uint32_t holders = e->numL1Holders() + e->numL2Copies();
        const bool is_holder =
            (kind == OwnerKind::L1 && e->hasL1Holder(index)) ||
            (kind == OwnerKind::L2Bank && e->hasL2Copy(index));
        const bool is_owner =
            e->ownerKind == kind &&
            (kind == OwnerKind::Memory || e->ownerIndex == index);
        if (is_owner) {
            const std::uint32_t others = holders - (is_holder ? 1 : 0);
            return totalTokens_ - others;
        }
        return is_holder ? 1 : 0;
    }

    /** Number of blocks currently resident somewhere on chip. */
    std::size_t
    population() const
    {
        std::size_t n = 0;
        for (std::uint32_t id = 0; id < count_; ++id)
            n += at(id).onChip();
        return n;
    }

    /** Internal consistency of one entry (used by property tests). */
    bool
    consistent(Addr a) const
    {
        const BlockInfo *e = find(a);
        if (!e)
            return true;
        if (e->ownerKind == OwnerKind::L1 && !e->hasL1Holder(e->ownerIndex))
            return false;
        if (e->ownerKind == OwnerKind::L2Bank &&
            !e->hasL2Copy(e->ownerIndex)) {
            return false;
        }
        if (e->firstAccessor == kInvalidCore && e->sharedStatus)
            return false;
        return true;
    }

    /** Visit every tracked block, fn(addr, entry), in table order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[a, id] : index_)
            fn(a, at(id));
    }

    // -- Snapshot/restore ----------------------------------------------

    /**
     * Every entry is serialized, including off-chip ones: their
     * sharedStatus/firstAccessor survive until the next demand access
     * resets them lazily (noteAccess), so dropping them would change
     * the privatization sequence of the restored run. Entries follow
     * table order; bucket layout is not preserved (lookups are
     * exact-key; nothing iterates the directory during simulation).
     */
    void
    save(SnapshotWriter &w) const
    {
        w.u64(index_.size());
        forEach([&](Addr a, const BlockInfo &e) {
            w.u64(a);
            for (std::uint32_t k = 0; k < L1HolderMask::kWords; ++k)
                w.u64(e.l1Holders.word(k));
            for (std::uint32_t k = 0; k < L2CopyMask::kWords; ++k)
                w.u64(e.l2Copies.word(k));
            w.u8(static_cast<std::uint8_t>(e.ownerKind));
            w.u32(e.ownerIndex);
            w.b(e.sharedStatus);
            w.u32(e.firstAccessor);
        });
    }

    void
    load(SnapshotReader &r)
    {
        index_.clear();
        chunks_.clear();
        count_ = 0;
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr a = r.u64();
            BlockInfo &e = entry(a);
            for (std::uint32_t k = 0; k < L1HolderMask::kWords; ++k)
                e.l1Holders.setWord(k, r.u64());
            for (std::uint32_t k = 0; k < L2CopyMask::kWords; ++k)
                e.l2Copies.setWord(k, r.u64());
            e.ownerKind = static_cast<OwnerKind>(r.u8());
            e.ownerIndex = r.u32();
            e.sharedStatus = r.b();
            e.firstAccessor = static_cast<CoreId>(r.u32());
        }
    }

  private:
    /** Entries per pool chunk: 64 KB of 64-byte entries. */
    static constexpr std::uint32_t kChunkShift = 10;
    static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

    const BlockInfo &
    at(std::uint32_t id) const
    {
        return chunks_[id >> kChunkShift][id & kChunkMask];
    }
    BlockInfo &
    at(std::uint32_t id)
    {
        return chunks_[id >> kChunkShift][id & kChunkMask];
    }

    std::uint32_t totalTokens_;
    /**
     * Open-addressing probe index: the directory is probed on every L2
     * search step and every fill, so the lookup must be one mixed hash
     * and (almost always) one cache line rather than a node chase.
     */
    FlatMap<Addr, std::uint32_t> index_;
    std::vector<std::unique_ptr<BlockInfo[]>> chunks_;
    std::uint32_t count_ = 0; //!< entries handed out
};

} // namespace espnuca

#endif // ESPNUCA_COHERENCE_DIRECTORY_HPP_
