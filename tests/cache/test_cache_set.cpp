/**
 * @file
 * LRU set mechanics: recency ordering, predicate search, helping count.
 */

#include <gtest/gtest.h>

#include "cache/cache_set.hpp"

namespace espnuca {
namespace {

BlockMeta
makeBlock(Addr a, BlockClass cls = BlockClass::Private)
{
    BlockMeta m;
    m.addr = a;
    m.valid = true;
    m.cls = cls;
    return m;
}

TEST(CacheSet, FindsByAddressAndPredicate)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    s.assign(0, makeBlock(0x100, BlockClass::Private));
    s.assign(1, makeBlock(0x100, BlockClass::Shared));
    const int priv = s.find(0x100, [](const BlockMeta &m) {
        return m.cls == BlockClass::Private;
    });
    const int sh = s.find(0x100, [](const BlockMeta &m) {
        return m.cls == BlockClass::Shared;
    });
    EXPECT_EQ(priv, 0);
    EXPECT_EQ(sh, 1);
    EXPECT_EQ(s.find(0x200, [](const BlockMeta &) { return true; }),
              kNoWay);
}

TEST(CacheSet, InvalidBlocksNeverMatch)
{
    SetArray s_sets(1, 2);
    CacheSet &s = s_sets[0];
    s.assign(0, makeBlock(0x40));
    s.clearWay(0);
    EXPECT_EQ(s.findAny(0x40), kNoWay);
}

TEST(CacheSet, TouchMovesToMru)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    for (int i = 0; i < 4; ++i)
        s.assign(i, makeBlock(0x40 * (i + 1)));
    s.touch(2);
    EXPECT_EQ(s.recencyOf(2), 0u);
    s.touch(0);
    EXPECT_EQ(s.recencyOf(0), 0u);
    EXPECT_EQ(s.recencyOf(2), 1u);
}

TEST(CacheSet, LruWayIsLeastRecent)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    for (int i = 0; i < 4; ++i) {
        s.assign(i, makeBlock(0x40 * (i + 1)));
        s.touch(i);
    }
    EXPECT_EQ(s.lruWay(), 0);
    s.touch(0);
    EXPECT_EQ(s.lruWay(), 1);
}

TEST(CacheSet, LruAmongFiltersByClass)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    s.assign(0, makeBlock(0x40, BlockClass::Private));
    s.assign(1, makeBlock(0x80, BlockClass::Replica));
    s.assign(2, makeBlock(0xC0, BlockClass::Private));
    s.assign(3, makeBlock(0x100, BlockClass::Victim));
    for (int i = 0; i < 4; ++i)
        s.touch(i); // recency: 3 MRU .. 0 LRU
    const int lru_helping = s.lruAmong(
        [](const BlockMeta &m) { return isHelping(m.cls); });
    EXPECT_EQ(lru_helping, 1); // replica older than victim
    const int lru_private = s.lruAmong(
        [](const BlockMeta &m) { return m.cls == BlockClass::Private; });
    EXPECT_EQ(lru_private, 0);
}

TEST(CacheSet, InvalidWayFoundFirst)
{
    SetArray s_sets(1, 3);
    CacheSet &s = s_sets[0];
    s.assign(0, makeBlock(0x40));
    s.assign(2, makeBlock(0x80));
    EXPECT_EQ(s.invalidWay(), 1);
    s.assign(1, makeBlock(0xC0));
    EXPECT_EQ(s.invalidWay(), kNoWay);
}

TEST(CacheSet, HelpingCountMatchesClasses)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    EXPECT_EQ(s.helpingCount(), 0u);
    s.assign(0, makeBlock(0x40, BlockClass::Replica));
    s.assign(1, makeBlock(0x80, BlockClass::Victim));
    s.assign(2, makeBlock(0xC0, BlockClass::Shared));
    EXPECT_EQ(s.helpingCount(), 2u);
}

TEST(CacheSet, DemoteMakesWayLru)
{
    SetArray s_sets(1, 3);
    CacheSet &s = s_sets[0];
    for (int i = 0; i < 3; ++i) {
        s.assign(i, makeBlock(0x40 * (i + 1)));
        s.touch(i);
    }
    s.demote(2);
    EXPECT_EQ(s.lruWay(), 2);
}

TEST(CacheSet, CountIf)
{
    SetArray s_sets(1, 4);
    CacheSet &s = s_sets[0];
    s.assign(0, makeBlock(0x40, BlockClass::Private));
    s.assign(1, makeBlock(0x80, BlockClass::Private));
    s.assign(2, makeBlock(0xC0, BlockClass::Shared));
    EXPECT_EQ(s.countIf([](const BlockMeta &m) {
                  return m.cls == BlockClass::Private;
              }),
              2u);
}

TEST(CacheSet, SlotSizeFollowsAssociativity)
{
    // A 96-byte header plus 24 bytes per way (tag, stamp, WayState):
    // Table 2's 4-way L1 set and 16-way L2 set.
    EXPECT_EQ(CacheSet::bytesFor(4), 192u);
    EXPECT_EQ(CacheSet::bytesFor(16), 480u);
    SetArray sets(3, 4);
    EXPECT_EQ(reinterpret_cast<const char *>(&sets[1]) -
                  reinterpret_cast<const char *>(&sets[0]),
              192);
    EXPECT_EQ(sets[2].numWays(), 4u);
}

} // namespace
} // namespace espnuca
