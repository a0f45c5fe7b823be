/**
 * @file
 * Directory / token-ledger tests: holder bookkeeping, owner-token
 * invariants, the SP-NUCA privatization lifecycle, token conservation
 * under the redistribution rule; and a differential test against the
 * single-table directory the probe-index/entry-pool split replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "coherence/directory.hpp"
#include "common/rng.hpp"

namespace espnuca {
namespace {

struct DirFixture : ::testing::Test
{
    SystemConfig cfg;
    Directory dir{cfg};
    static constexpr Addr kA = 0x4000;
};

TEST_F(DirFixture, UnknownBlockIsOffChip)
{
    EXPECT_EQ(dir.find(kA), nullptr);
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::Memory, 0), cfg.totalTokens());
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::L1, 3), 0u);
}

TEST_F(DirFixture, FirstAccessSetsPrivateOwner)
{
    EXPECT_FALSE(dir.noteAccess(dir.entry(kA), 2));
    const BlockInfo *e = dir.find(kA);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->firstAccessor, 2u);
    EXPECT_FALSE(e->sharedStatus);
}

TEST_F(DirFixture, SecondCoreFlipsShared)
{
    dir.noteAccess(dir.entry(kA), 2);
    dir.addL1(dir.entry(kA), l1IdOf(2, false), true); // block is on chip
    EXPECT_TRUE(dir.noteAccess(dir.entry(kA), 5)); // privatization reset
    EXPECT_TRUE(dir.find(kA)->sharedStatus);
    // Further accesses don't flip again.
    EXPECT_FALSE(dir.noteAccess(dir.entry(kA), 6));
    EXPECT_FALSE(dir.noteAccess(dir.entry(kA), 2));
}

TEST_F(DirFixture, OffChipBlockStartsOverAsPrivate)
{
    // With no on-chip copy, a second core's access is a fresh arrival,
    // not a privatization flip (paper 2.1: status holds only while the
    // block stays in the chip).
    dir.noteAccess(dir.entry(kA), 2);
    EXPECT_FALSE(dir.noteAccess(dir.entry(kA), 5));
    EXPECT_FALSE(dir.find(kA)->sharedStatus);
    EXPECT_EQ(dir.find(kA)->firstAccessor, 5u);
}

TEST_F(DirFixture, SameCoreRepeatStaysPrivate)
{
    dir.noteAccess(dir.entry(kA), 2);
    EXPECT_FALSE(dir.noteAccess(dir.entry(kA), 2));
    EXPECT_FALSE(dir.find(kA)->sharedStatus);
}

TEST_F(DirFixture, L1HolderBits)
{
    dir.noteAccess(dir.entry(kA), 0);
    dir.addL1(dir.entry(kA), 3, true);
    dir.addL1(dir.entry(kA), 7, false);
    const BlockInfo *e = dir.find(kA);
    EXPECT_TRUE(e->hasL1Holder(3));
    EXPECT_TRUE(e->hasL1Holder(7));
    EXPECT_EQ(e->numL1Holders(), 2u);
    EXPECT_EQ(e->ownerKind, OwnerKind::L1);
    EXPECT_EQ(e->ownerIndex, 3u);
}

TEST_F(DirFixture, RemoveOwnerL1FallsBackToMemory)
{
    dir.addL1(dir.entry(kA), 3, true);
    dir.addL1(dir.entry(kA), 7, false);
    dir.removeL1(dir.entry(kA), 3);
    const BlockInfo *e = dir.find(kA);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ownerKind, OwnerKind::Memory);
}

TEST_F(DirFixture, LastHolderRemovalReleasesBlock)
{
    dir.noteAccess(dir.entry(kA), 0);
    dir.addL1(dir.entry(kA), 0, true);
    dir.noteAccess(dir.entry(kA), 5); // shared now
    dir.removeL1(dir.entry(kA), 0);
    // Block left the chip: status resets lazily (paper 2.1)...
    EXPECT_FALSE(dir.onChip(kA));
    // ...so the next arrival is private again.
    EXPECT_FALSE(dir.noteAccess(dir.entry(kA), 5));
    EXPECT_FALSE(dir.find(kA)->sharedStatus);
    EXPECT_EQ(dir.find(kA)->firstAccessor, 5u);
}

TEST_F(DirFixture, StatusSurvivesOnChipMoves)
{
    // A displaced private block becoming a victim passes through a
    // zero-copy window; the status must survive it (no demand access
    // intervenes).
    dir.noteAccess(dir.entry(kA), 0);
    dir.addL2(dir.entry(kA), 2, true);
    dir.noteAccess(dir.entry(kA), 5); // shared
    dir.removeL2(dir.entry(kA), 2);   // transient zero-copy window
    dir.addL2(dir.entry(kA), 9, true);
    EXPECT_TRUE(dir.find(kA)->sharedStatus);
    EXPECT_FALSE(dir.noteAccess(dir.entry(kA), 3)); // no double flip
}

TEST_F(DirFixture, NoteAccessEntryAloneDoesNotPinChipResidence)
{
    // An entry created by noteAccess only (no holders) reports off-chip.
    dir.noteAccess(dir.entry(kA), 1);
    EXPECT_FALSE(dir.find(kA)->onChip());
}

TEST_F(DirFixture, L2CopyBookkeeping)
{
    dir.addL2(dir.entry(kA), 12, true);
    const BlockInfo *e = dir.find(kA);
    EXPECT_TRUE(e->hasL2Copy(12));
    EXPECT_EQ(e->ownerKind, OwnerKind::L2Bank);
    EXPECT_EQ(e->ownerIndex, 12u);
    dir.removeL2(dir.entry(kA), 12);
    EXPECT_FALSE(dir.onChip(kA));
    EXPECT_EQ(dir.find(kA)->ownerKind, OwnerKind::Memory);
}

TEST_F(DirFixture, MoveL2KeepsOwner)
{
    dir.addL2(dir.entry(kA), 3, true);
    dir.moveL2(kA, 3, 17);
    const BlockInfo *e = dir.find(kA);
    EXPECT_FALSE(e->hasL2Copy(3));
    EXPECT_TRUE(e->hasL2Copy(17));
    EXPECT_EQ(e->ownerIndex, 17u);
}

TEST_F(DirFixture, TokenConservationAcrossStates)
{
    // Memory-only: all tokens at memory.
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::Memory, 0), 64u);
    // One L1 owner: it holds everything.
    dir.addL1(dir.entry(kA), 2, true);
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::L1, 2), 64u);
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::Memory, 0), 0u);
    // A second reader: owner keeps the remainder.
    dir.addL1(dir.entry(kA), 5, false);
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::L1, 2), 63u);
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::L1, 5), 1u);
    // An L2 copy too: sums still 64.
    dir.addL2(dir.entry(kA), 9, false);
    const std::uint32_t total = dir.tokensOf(kA, OwnerKind::L1, 2) +
                                dir.tokensOf(kA, OwnerKind::L1, 5) +
                                dir.tokensOf(kA, OwnerKind::L2Bank, 9);
    EXPECT_EQ(total, 64u);
}

TEST_F(DirFixture, ConsistencyChecks)
{
    EXPECT_TRUE(dir.consistent(kA));
    dir.addL1(dir.entry(kA), 1, true);
    dir.addL2(dir.entry(kA), 4, false);
    EXPECT_TRUE(dir.consistent(kA));
    dir.setOwner(dir.entry(kA), OwnerKind::L2Bank, 4);
    EXPECT_TRUE(dir.consistent(kA));
}

TEST_F(DirFixture, PopulationTracksDistinctBlocks)
{
    dir.addL1(dir.entry(0x1000), 0, true);
    dir.addL1(dir.entry(0x2000), 1, true);
    EXPECT_EQ(dir.population(), 2u);
    dir.removeL1(dir.entry(0x1000), 0);
    EXPECT_EQ(dir.population(), 1u);
}

// -- Differential test against the inline-entry directory --------------

/** Oracle: every entry inline in one FlatMap slot (the old Directory). */
class InlineDirectory
{
  public:
    explicit InlineDirectory(const SystemConfig &cfg)
        : total_(cfg.totalTokens())
    {
    }

    const BlockInfo *
    find(Addr a) const
    {
        auto it = map_.find(a);
        return it == map_.end() ? nullptr : &it->second;
    }

    bool
    noteAccess(Addr a, CoreId c)
    {
        BlockInfo &e = map_[a];
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

    void
    addL1(Addr a, L1Id id, bool owner)
    {
        BlockInfo &e = map_[a];
        e.l1Holders.set(id);
        if (owner)
            setOwnerRaw(e, OwnerKind::L1, id);
    }

    void
    removeL1(Addr a, L1Id id)
    {
        BlockInfo &e = map_[a];
        e.l1Holders.clear(id);
        if (e.ownerKind == OwnerKind::L1 && e.ownerIndex == id)
            setOwnerRaw(e, OwnerKind::Memory, 0);
    }

    void
    addL2(Addr a, BankId b, bool owner)
    {
        BlockInfo &e = map_[a];
        e.l2Copies.set(b);
        if (owner)
            setOwnerRaw(e, OwnerKind::L2Bank, b);
    }

    void
    removeL2(Addr a, BankId b)
    {
        BlockInfo &e = map_[a];
        e.l2Copies.clear(b);
        if (e.ownerKind == OwnerKind::L2Bank && e.ownerIndex == b)
            setOwnerRaw(e, OwnerKind::Memory, 0);
    }

    void
    moveL2(Addr a, BankId from, BankId to)
    {
        BlockInfo &e = map_[a];
        e.l2Copies.clear(from);
        e.l2Copies.set(to);
        if (e.ownerKind == OwnerKind::L2Bank && e.ownerIndex == from)
            e.ownerIndex = to;
    }

    void
    setOwner(Addr a, OwnerKind kind, std::uint32_t index)
    {
        setOwnerRaw(map_[a], kind, index);
    }

    std::uint32_t
    tokensOf(Addr a, OwnerKind kind, std::uint32_t index) const
    {
        const BlockInfo *e = find(a);
        if (!e)
            return kind == OwnerKind::Memory ? total_ : 0;
        const bool is_holder =
            (kind == OwnerKind::L1 && e->l1Holders.test(index)) ||
            (kind == OwnerKind::L2Bank && e->l2Copies.test(index));
        if (e->ownerKind == kind &&
            (kind == OwnerKind::Memory || e->ownerIndex == index))
            return total_ - (e->l1Holders.count() + e->l2Copies.count() -
                             (is_holder ? 1 : 0));
        return is_holder ? 1 : 0;
    }

    bool
    consistent(Addr a) const
    {
        const BlockInfo *e = find(a);
        return !e ||
               !((e->ownerKind == OwnerKind::L1 &&
                  !e->l1Holders.test(e->ownerIndex)) ||
                 (e->ownerKind == OwnerKind::L2Bank &&
                  !e->l2Copies.test(e->ownerIndex)) ||
                 (e->firstAccessor == kInvalidCore && e->sharedStatus));
    }

    std::size_t
    population() const
    {
        std::size_t n = 0;
        for (const auto &[a, e] : map_)
            n += e.onChip();
        return n;
    }

    const FlatMap<Addr, BlockInfo> &map() const { return map_; }

    void
    save(SnapshotWriter &w) const
    {
        w.u64(map_.size());
        for (const auto &[a, e] : map_) {
            w.u64(a);
            for (std::uint32_t k = 0; k < L1HolderMask::kWords; ++k)
                w.u64(e.l1Holders.word(k));
            for (std::uint32_t k = 0; k < L2CopyMask::kWords; ++k)
                w.u64(e.l2Copies.word(k));
            w.u8(static_cast<std::uint8_t>(e.ownerKind));
            w.u32(e.ownerIndex);
            w.b(e.sharedStatus);
            w.u32(e.firstAccessor);
        }
    }

    void
    load(SnapshotReader &r)
    {
        map_.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            BlockInfo &e = map_[r.u64()];
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
    static void
    setOwnerRaw(BlockInfo &e, OwnerKind kind, std::uint32_t index)
    {
        e.ownerKind = kind;
        e.ownerIndex = index;
    }

    std::uint32_t total_;
    FlatMap<Addr, BlockInfo> map_;
};

SystemConfig
machine(std::uint32_t cores, std::uint32_t banks)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.l2Banks = banks;
    return cfg;
}

/** Every field, mask word and derived query of one block agrees. */
void
expectSameBlock(const Directory &dir, const InlineDirectory &ref,
                const SystemConfig &cfg, Addr a)
{
    const BlockInfo *e = dir.find(a);
    const BlockInfo *o = ref.find(a);
    ASSERT_EQ(e == nullptr, o == nullptr);
    if (e != nullptr) {
        EXPECT_EQ(e->ownerKind, o->ownerKind);
        EXPECT_EQ(e->ownerIndex, o->ownerIndex);
        EXPECT_EQ(e->sharedStatus, o->sharedStatus);
        EXPECT_EQ(e->firstAccessor, o->firstAccessor);
        EXPECT_EQ(e->onChip(), o->onChip());
        for (std::uint32_t k = 0; k < L1HolderMask::kWords; ++k)
            EXPECT_EQ(e->l1Holders.word(k), o->l1Holders.word(k)) << k;
        for (std::uint32_t k = 0; k < L2CopyMask::kWords; ++k)
            EXPECT_EQ(e->l2Copies.word(k), o->l2Copies.word(k)) << k;
    }
    EXPECT_EQ(dir.consistent(a), ref.consistent(a));
    EXPECT_EQ(dir.tokensOf(a, OwnerKind::Memory, 0),
              ref.tokensOf(a, OwnerKind::Memory, 0));
    for (L1Id id = 0; id < cfg.l1Count(); ++id) {
        ASSERT_EQ(dir.tokensOf(a, OwnerKind::L1, id),
                  ref.tokensOf(a, OwnerKind::L1, id))
            << "l1 " << id;
    }
    for (BankId b = 0; b < cfg.l2Banks; ++b) {
        ASSERT_EQ(dir.tokensOf(a, OwnerKind::L2Bank, b),
                  ref.tokensOf(a, OwnerKind::L2Bank, b))
            << "bank " << b;
    }
}

/** A random set member of `mask`, or `none` when it is empty. */
template <typename Mask>
std::uint32_t
pickSet(const Mask &mask, Rng &rng, std::uint32_t none)
{
    const std::uint32_t n = mask.count();
    if (n == 0)
        return none;
    std::uint32_t skip = static_cast<std::uint32_t>(rng.below(n));
    std::uint32_t found = none;
    mask.forEachSet([&](std::uint32_t bit) {
        if (skip-- == 0)
            found = bit;
    });
    return found;
}

/** An index below width, biased to the word edges (0, 63, 64, last). */
std::uint32_t
pickIndex(Rng &rng, std::uint32_t width)
{
    if (rng.chance(0.25)) {
        const std::uint32_t edges[] = {0, 63, 64, width - 1};
        return std::min(edges[rng.below(4)], width - 1);
    }
    return static_cast<std::uint32_t>(rng.below(width));
}

struct DiffParam
{
    std::uint32_t cores;
    std::uint32_t banks;
};

class DirectoryDiff : public ::testing::TestWithParam<DiffParam>
{
};

TEST_P(DirectoryDiff, MatchesInlineDirectory)
{
    const SystemConfig cfg = machine(GetParam().cores, GetParam().banks);
    const std::uint32_t l1s = cfg.l1Count();
    for (std::uint64_t seed : {1u, 2u}) {
        if (HasFailure())
            return;
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Directory dir(cfg);
        InlineDirectory ref(cfg);
        Rng rng(seed * 7919 + cfg.numCores);
        // A hot set that accumulates holders, plus a cold range wide
        // enough to grow the index several times and fill more than
        // one pool chunk.
        auto pickAddr = [&]() -> Addr {
            const std::uint64_t blk =
                rng.chance(0.6) ? rng.below(48) : 48 + rng.below(2600);
            return 0x10000 + blk * 64;
        };
        for (int op = 0; op < 6000; ++op) {
            const Addr a = pickAddr();
            const BlockInfo *o = ref.find(a);
            const L1HolderMask l1 = o ? o->l1Holders : L1HolderMask{};
            const L2CopyMask l2 = o ? o->l2Copies : L2CopyMask{};
            switch (rng.below(8)) {
            case 0:
            case 1: {
                const CoreId c = static_cast<CoreId>(rng.below(cfg.numCores));
                EXPECT_EQ(dir.noteAccess(dir.entry(a), c),
                          ref.noteAccess(a, c));
                break;
            }
            case 2: {
                const L1Id id = pickIndex(rng, l1s);
                const bool owner = rng.chance(0.3);
                dir.addL1(dir.entry(a), id, owner);
                ref.addL1(a, id, owner);
                break;
            }
            case 3:
                if (const L1Id id = pickSet(l1, rng, l1s); id != l1s) {
                    dir.removeL1(dir.entry(a), id);
                    ref.removeL1(a, id);
                }
                break;
            case 4: {
                const BankId b = pickIndex(rng, cfg.l2Banks);
                if (!l2.test(b)) {
                    const bool owner = rng.chance(0.3);
                    dir.addL2(dir.entry(a), b, owner);
                    ref.addL2(a, b, owner);
                }
                break;
            }
            case 5:
                if (const BankId b = pickSet(l2, rng, cfg.l2Banks);
                    b != cfg.l2Banks) {
                    dir.removeL2(dir.entry(a), b);
                    ref.removeL2(a, b);
                }
                break;
            case 6: {
                const BankId from = pickSet(l2, rng, cfg.l2Banks);
                const BankId to = pickIndex(rng, cfg.l2Banks);
                if (from != cfg.l2Banks && !l2.test(to)) {
                    dir.moveL2(a, from, to);
                    ref.moveL2(a, from, to);
                }
                break;
            }
            default: {
                // Hand the owner token to a holder, or back to memory.
                OwnerKind kind = OwnerKind::Memory;
                std::uint32_t index = 0;
                if (const L1Id id = pickSet(l1, rng, l1s);
                    id != l1s && rng.chance(0.5)) {
                    kind = OwnerKind::L1;
                    index = id;
                } else if (const BankId b = pickSet(l2, rng, cfg.l2Banks);
                           b != cfg.l2Banks) {
                    kind = OwnerKind::L2Bank;
                    index = b;
                }
                dir.setOwner(dir.entry(a), kind, index);
                ref.setOwner(a, kind, index);
                break;
            }
            }
            expectSameBlock(dir, ref, cfg, a);
            expectSameBlock(dir, ref, cfg, pickAddr());
            ASSERT_EQ(dir.population(), ref.population()) << "op " << op;
            ASSERT_FALSE(HasFailure()) << "diverged at op " << op;
        }

        // Table order, snapshot bytes and a load->save round trip (the
        // reloaded table's order follows the load's insert history, so
        // it is compared with the oracle's own round trip).
        std::vector<Addr> order, want_order;
        dir.forEach([&](Addr a, const BlockInfo &) { order.push_back(a); });
        for (const auto &[a, e] : ref.map())
            want_order.push_back(a);
        EXPECT_EQ(order, want_order);
        EXPECT_GT(order.size(), 1024u); // more than one pool chunk
        SnapshotWriter got, want;
        dir.save(got);
        ref.save(want);
        EXPECT_TRUE(got.bytes() == want.bytes());
        Directory restored(cfg);
        InlineDirectory ref_restored(cfg);
        SnapshotReader r(got.bytes());
        SnapshotReader ref_r(want.bytes());
        restored.load(r);
        ref_restored.load(ref_r);
        EXPECT_EQ(r.remaining(), 0u);
        SnapshotWriter again, want_again;
        restored.save(again);
        ref_restored.save(want_again);
        EXPECT_TRUE(again.bytes() == want_again.bytes());
        EXPECT_EQ(restored.population(), ref.population());
    }
}

INSTANTIATE_TEST_SUITE_P(Machines, DirectoryDiff,
                         ::testing::Values(DiffParam{8, 32},
                                           DiffParam{32, 128},
                                           DiffParam{64, 256}),
                         [](const auto &info) {
                             return std::to_string(info.param.cores) +
                                    "c" +
                                    std::to_string(info.param.banks) + "b";
                         });

TEST(DirectoryPool, EntriesStayPutAcrossGrowth)
{
    // An entry pointer survives any number of later inserts (index
    // rehashes and new pool chunks alike).
    Directory dir(SystemConfig{});
    dir.addL1(dir.entry(0x40), 3, true);
    const BlockInfo *first = dir.find(0x40);
    for (Addr a = 1; a < 5000; ++a)
        dir.noteAccess(dir.entry(0x40 + a * 64), 1);
    EXPECT_EQ(dir.find(0x40), first);
    EXPECT_TRUE(first->hasL1Holder(3));
}

} // namespace
} // namespace espnuca
