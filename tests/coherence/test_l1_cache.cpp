/**
 * @file
 * L1 cache array tests.
 */

#include <gtest/gtest.h>

#include "coherence/l1_cache.hpp"

namespace espnuca {
namespace {

TEST(L1Id, Encoding)
{
    EXPECT_EQ(l1IdOf(0, false), 0u);
    EXPECT_EQ(l1IdOf(0, true), 1u);
    EXPECT_EQ(l1IdOf(3, false), 6u);
    EXPECT_EQ(coreOfL1(6), 3u);
    EXPECT_EQ(coreOfL1(7), 3u);
}

struct L1Fixture : ::testing::Test
{
    SystemConfig cfg;
    L1Cache l1{cfg};
};

TEST_F(L1Fixture, FillThenHit)
{
    const BlockMeta evicted = l1.fill(0x1000, false, false);
    EXPECT_FALSE(evicted.valid);
    EXPECT_TRUE(l1.has(0x1000));
    EXPECT_FALSE(l1.has(0x2000));
}

TEST_F(L1Fixture, FillEvictsLruWhenSetFull)
{
    // 4-way L1: fill 5 blocks mapping to the same set. Set index uses
    // bits [6, 13): stride of 128 sets * 64 B keeps the set fixed.
    const Addr stride = 128 * 64;
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(l1.fill(0x1000 + i * stride, false, false).valid);
    const BlockMeta evicted = l1.fill(0x1000 + 4 * stride, false, false);
    ASSERT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.addr, 0x1000u);
}

TEST_F(L1Fixture, TouchProtectsFromEviction)
{
    const Addr stride = 128 * 64;
    for (int i = 0; i < 4; ++i)
        l1.fill(0x1000 + i * stride, false, false);
    const int way = l1.lookup(0x1000);
    ASSERT_NE(way, kNoWay);
    l1.touch(0x1000, way);
    const BlockMeta evicted = l1.fill(0x1000 + 4 * stride, false, false);
    EXPECT_EQ(evicted.addr, 0x1000u + stride); // second oldest now LRU
}

TEST_F(L1Fixture, InvalidateRemoves)
{
    l1.fill(0x1000, true, true);
    const BlockMeta old = l1.invalidate(0x1000);
    EXPECT_TRUE(old.dirty);
    EXPECT_TRUE(old.hasOwnerToken);
    EXPECT_FALSE(l1.has(0x1000));
    EXPECT_EQ(l1.invalidations(), 1u);
}

TEST_F(L1Fixture, DirtyAndOwnerPreserved)
{
    l1.fill(0x1000, true, false);
    const int w = l1.lookup(0x1000);
    EXPECT_TRUE(l1.meta(0x1000, w).dirty);
    EXPECT_FALSE(l1.meta(0x1000, w).hasOwnerToken);
}

TEST_F(L1Fixture, PopulationTracksFills)
{
    EXPECT_EQ(l1.population(), 0u);
    l1.fill(0x1000, false, false);
    l1.fill(0x2000, false, false);
    EXPECT_EQ(l1.population(), 2u);
    l1.invalidate(0x1000);
    EXPECT_EQ(l1.population(), 1u);
}

TEST_F(L1Fixture, DifferentSetsDontConflict)
{
    // Fill many blocks across sets: no eviction while under capacity.
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(l1.fill(static_cast<Addr>(i) * 64, false,
                             false).valid);
    EXPECT_EQ(l1.population(), 100u);
}

/** L1 geometries beyond Table 2's 4 ways: every way of a set holds a
 *  block, LRU order holds across all of them, and the array survives a
 *  snapshot round trip. */
class WideL1 : public ::testing::TestWithParam<std::uint32_t>
{
  protected:
    SystemConfig
    config() const
    {
        SystemConfig cfg;
        cfg.l1Ways = GetParam();
        return cfg;
    }
};

TEST_P(WideL1, EveryWayHoldsABlockBeforeLruEviction)
{
    const SystemConfig cfg = config();
    ASSERT_TRUE(cfg.valid());
    L1Cache l1(cfg);
    const std::uint32_t ways = cfg.l1Ways;
    const Addr stride = static_cast<Addr>(cfg.l1Sets()) * cfg.blockBytes;
    for (std::uint32_t i = 0; i < ways; ++i)
        EXPECT_FALSE(l1.fill(0x1000 + i * stride, i % 2 == 0, false).valid);
    EXPECT_EQ(l1.population(), ways);
    // Touch the oldest block: the second-oldest becomes the LRU.
    l1.touch(0x1000, l1.lookup(0x1000));
    const BlockMeta evicted = l1.fill(0x1000 + ways * stride, false, false);
    ASSERT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.addr, 0x1000u + stride);
    EXPECT_FALSE(evicted.dirty);
    EXPECT_EQ(l1.population(), ways);
    const int last = l1.lookup(0x1000 + (ways - 2) * stride);
    ASSERT_NE(last, kNoWay);
    EXPECT_EQ(l1.meta(0x1000 + (ways - 2) * stride, last).dirty, true);

    SnapshotWriter w;
    l1.save(w);
    L1Cache copy(cfg);
    SnapshotReader r(w.bytes());
    copy.load(r);
    EXPECT_NO_THROW(r.finish());
    EXPECT_EQ(copy.population(), ways);
    for (std::uint32_t i = 0; i <= ways; ++i)
        EXPECT_EQ(copy.lookup(0x1000 + i * stride),
                  l1.lookup(0x1000 + i * stride));
    SnapshotWriter again;
    copy.save(again);
    EXPECT_EQ(again.bytes(), w.bytes());
}

INSTANTIATE_TEST_SUITE_P(L1Ways, WideL1, ::testing::Values(8u, 16u));

} // namespace
} // namespace espnuca
