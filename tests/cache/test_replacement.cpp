/**
 * @file
 * Replacement-policy tests: flat LRU, the static 12/4 partition, the
 * ESP-NUCA protected LRU (paper 3.2) and the shadow-tag comparator.
 */

#include <gtest/gtest.h>

#include "cache/replacement.hpp"

namespace espnuca {
namespace {

BlockMeta
makeBlock(Addr a, BlockClass cls)
{
    BlockMeta m;
    m.addr = a;
    m.valid = true;
    m.cls = cls;
    return m;
}

/** Fill a set with `n` blocks of a class, touching in order. */
void
fillSet(CacheSet &s, int start_way, int count, BlockClass cls,
        Addr base = 0x1000)
{
    for (int i = 0; i < count; ++i) {
        const int w = start_way + i;
        s.assign(w, makeBlock(base + 0x40 * w, cls));
        s.touch(w);
    }
}

ReplacementContext
ctx(SetCategory cat, std::uint32_t nmax, std::uint32_t set = 0)
{
    ReplacementContext c;
    c.category = cat;
    c.nmax = nmax;
    c.setIndex = set;
    return c;
}

// ---------------------------------------------------------------- Flat

TEST(FlatLru, PrefersInvalidWay)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    fillSet(s, 0, 3, BlockClass::Private);
    FlatLru p;
    EXPECT_EQ(p.chooseWay(s, BlockClass::Shared, ctx({}, 0)), 3);
}

TEST(FlatLru, EvictsGlobalLruRegardlessOfClass)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    fillSet(s, 0, 1, BlockClass::Replica);
    fillSet(s, 1, 3, BlockClass::Private);
    FlatLru p;
    EXPECT_EQ(p.chooseWay(s, BlockClass::Private, ctx({}, 0)), 0);
    s.touch(0);
    EXPECT_EQ(p.chooseWay(s, BlockClass::Private, ctx({}, 0)), 1);
}

// -------------------------------------------------------------- Static

TEST(StaticPartition, EnforcesQuotaPerSide)
{
    SetArray s_sets(1, 16);
    CacheSet &s = s_sets[0];
    fillSet(s, 0, 12, BlockClass::Private);
    fillSet(s, 12, 4, BlockClass::Shared);
    StaticPartitionLru p(12, 16);
    // Private side is at quota: evict the private LRU (way 0).
    EXPECT_EQ(p.chooseWay(s, BlockClass::Private, ctx({}, 0)), 0);
    // Shared side at quota: evict the shared LRU (way 12).
    EXPECT_EQ(p.chooseWay(s, BlockClass::Shared, ctx({}, 0)), 12);
}

TEST(StaticPartition, UnderQuotaTakesInvalidFirst)
{
    SetArray s_sets(1, 16);
    CacheSet &s = s_sets[0];
    fillSet(s, 0, 8, BlockClass::Private);
    StaticPartitionLru p(12, 16);
    EXPECT_EQ(p.chooseWay(s, BlockClass::Private, ctx({}, 0)), 8);
}

TEST(StaticPartition, UnderQuotaReclaimsOverQuotaSide)
{
    SetArray s_sets(1, 16);
    CacheSet &s = s_sets[0];
    // 14 private (over the 12 quota), 2 shared, set full.
    fillSet(s, 0, 14, BlockClass::Private);
    fillSet(s, 14, 2, BlockClass::Shared);
    StaticPartitionLru p(12, 16);
    // Shared under its quota of 4: reclaim the private LRU.
    EXPECT_EQ(p.chooseWay(s, BlockClass::Shared, ctx({}, 0)), 0);
}

// ----------------------------------------------------------- Protected

TEST(ProtectedLru, RefusesHelpingAtReferenceSets)
{
    SetArray s_sets(1, 16);
    CacheSet &s = s_sets[0];
    ProtectedLru p;
    EXPECT_EQ(p.chooseWay(s, BlockClass::Replica,
                          ctx(SetCategory::Reference, 4)),
              kNoWay);
    EXPECT_EQ(p.chooseWay(s, BlockClass::Victim,
                          ctx(SetCategory::Reference, 4)),
              kNoWay);
}

TEST(ProtectedLru, ReferenceSetsStillServeFirstClass)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    fillSet(s, 0, 4, BlockClass::Private);
    ProtectedLru p;
    EXPECT_EQ(p.chooseWay(s, BlockClass::Private,
                          ctx(SetCategory::Reference, 4)),
              0);
}

TEST(ProtectedLru, RefusesHelpingWhenNmaxZero)
{
    SetArray s_sets(1, 16);
    CacheSet &s = s_sets[0];
    ProtectedLru p;
    EXPECT_EQ(p.chooseWay(s, BlockClass::Replica,
                          ctx(SetCategory::Conventional, 0)),
              kNoWay);
}

TEST(ProtectedLru, HelpingUnderLimitUsesGlobalLru)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    fillSet(s, 0, 4, BlockClass::Private);
    ProtectedLru p;
    // n = 0 < nmax = 2: global LRU (a first-class block) is chosen.
    EXPECT_EQ(p.chooseWay(s, BlockClass::Replica,
                          ctx(SetCategory::Conventional, 2)),
              0);
}

TEST(ProtectedLru, HelpingAtLimitReplacesHelpingLru)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    fillSet(s, 0, 2, BlockClass::Replica);
    fillSet(s, 2, 2, BlockClass::Private);
    ProtectedLru p;
    // n = 2 == nmax: must replace the LRU helping block (way 0),
    // even though the set's global LRU is also way 0 here; rotate
    // first to make them differ.
    s.touch(0);
    s.touch(1); // recency: 1,0,3,2 -> global LRU = 2 (private)
    EXPECT_EQ(p.chooseWay(s, BlockClass::Victim,
                          ctx(SetCategory::Conventional, 2)),
              0);
}

TEST(ProtectedLru, FirstClassOverLimitTrimsHelping)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    fillSet(s, 0, 3, BlockClass::Replica);
    fillSet(s, 3, 1, BlockClass::Private);
    ProtectedLru p;
    // n = 3 > nmax = 1: a first-class insertion replaces helping LRU.
    EXPECT_EQ(p.chooseWay(s, BlockClass::Private,
                          ctx(SetCategory::Conventional, 1)),
              0);
}

TEST(ProtectedLru, FirstClassPrefersInvalid)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    fillSet(s, 0, 3, BlockClass::Replica);
    ProtectedLru p;
    EXPECT_EQ(p.chooseWay(s, BlockClass::Private,
                          ctx(SetCategory::Conventional, 1)),
              3);
}

TEST(ProtectedLru, ExplorerAcceptsOneMore)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    fillSet(s, 0, 2, BlockClass::Replica);
    fillSet(s, 2, 2, BlockClass::Private);
    ProtectedLru p;
    // nmax = 2, n = 2. Conventional replaces helping LRU; explorer
    // (limit 3) still admits by global LRU.
    EXPECT_EQ(p.chooseWay(s, BlockClass::Replica,
                          ctx(SetCategory::Conventional, 2)),
              0);
    EXPECT_EQ(p.chooseWay(s, BlockClass::Replica,
                          ctx(SetCategory::Explorer, 2)),
              0); // global LRU happens to be way 0 too
    s.touch(0);
    s.touch(1); // now global LRU is way 2 (private)
    EXPECT_EQ(p.chooseWay(s, BlockClass::Replica,
                          ctx(SetCategory::Explorer, 2)),
              2);
}

TEST(ProtectedLru, LimitForMatchesPaper)
{
    EXPECT_EQ(ProtectedLru::limitFor(ctx(SetCategory::Reference, 5)), 0u);
    EXPECT_EQ(ProtectedLru::limitFor(ctx(SetCategory::Conventional, 5)),
              5u);
    EXPECT_EQ(ProtectedLru::limitFor(
                  ctx(SetCategory::SampledConventional, 5)),
              5u);
    EXPECT_EQ(ProtectedLru::limitFor(ctx(SetCategory::Explorer, 5)), 6u);
}

/** Property: protected LRU never lets helping blocks exceed the limit
 *  when insertions go through the policy. */
class ProtectedLruSweep
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ProtectedLruSweep, HelpingCountBounded)
{
    const std::uint32_t nmax = GetParam();
    SetArray s_sets(1, 16);
    CacheSet &s = s_sets[0];
    ProtectedLru p;
    std::uint64_t addr = 0x4000;
    for (int i = 0; i < 600; ++i) {
        const BlockClass cls = (i % 3 == 0) ? BlockClass::Replica
                             : (i % 3 == 1) ? BlockClass::Private
                                            : BlockClass::Shared;
        const int w = p.chooseWay(s, cls,
                                  ctx(SetCategory::Conventional, nmax));
        if (w == kNoWay)
            continue;
        s.assign(w, makeBlock(addr += 0x40, cls));
        s.touch(w);
        EXPECT_LE(s.helpingCount(), std::max(nmax, 1u))
            << "i=" << i << " nmax=" << nmax;
    }
}

INSTANTIATE_TEST_SUITE_P(NmaxSweep, ProtectedLruSweep,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u, 14u));

// ------------------------------------------------------------- Shadow

TEST(ShadowTags, LearnsTowardPrivateUtility)
{
    ShadowTagPolicy p(/*num_sets=*/1, /*ways=*/16, 4, 8);
    // Repeatedly: evict private blocks and then miss on them.
    for (int round = 0; round < 20; ++round) {
        BlockMeta evicted = makeBlock(0x1000 + 0x40 * (round % 4),
                                      BlockClass::Private);
        p.onEvict(0, evicted);
        p.onDemandAccess(0, evicted.addr, BlockClass::Private, false);
        // Shared side sees hits (no ghost matches).
        p.onDemandAccess(0, 0x9000, BlockClass::Shared, true);
    }
    EXPECT_GT(p.targetPrivate(0), 8u);
}

TEST(ShadowTags, LearnsTowardSharedUtility)
{
    ShadowTagPolicy p(1, 16, 4, 8);
    for (int round = 0; round < 20; ++round) {
        BlockMeta evicted = makeBlock(0x2000 + 0x40 * (round % 4),
                                      BlockClass::Shared);
        p.onEvict(0, evicted);
        p.onDemandAccess(0, evicted.addr, BlockClass::Shared, false);
        p.onDemandAccess(0, 0x8000, BlockClass::Private, true);
    }
    EXPECT_LT(p.targetPrivate(0), 8u);
}

TEST(ShadowTags, QuotaEnforcedAtChooseWay)
{
    SetArray s_sets(1, 16);
    CacheSet &s = s_sets[0];
    fillSet(s, 0, 8, BlockClass::Private);
    fillSet(s, 8, 8, BlockClass::Shared);
    ShadowTagPolicy p(1, 16, 4, 8);
    // Default target 8/8: both sides evict their own LRU.
    EXPECT_EQ(p.chooseWay(s, BlockClass::Private, ctx({}, 0, 0)), 0);
    EXPECT_EQ(p.chooseWay(s, BlockClass::Shared, ctx({}, 0, 0)), 8);
}

} // namespace
} // namespace espnuca
