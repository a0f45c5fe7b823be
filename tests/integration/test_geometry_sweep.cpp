/**
 * @file
 * Geometry robustness: the whole stack (mapping, protocol, monitor,
 * architectures) must work for CMP configurations other than Table 2 —
 * different core counts, bank counts, capacities and associativities
 * (L2 and L1).
 */

#include <gtest/gtest.h>

#include "harness/system.hpp"

namespace espnuca {
namespace {

struct Geometry
{
    std::uint32_t cores;
    std::uint32_t banks;
    std::uint64_t l2MiB;
    std::uint32_t ways;
};

class GeometrySweep : public ::testing::TestWithParam<Geometry>
{
  protected:
    SystemConfig
    config() const
    {
        SystemConfig cfg;
        const Geometry g = GetParam();
        cfg.numCores = g.cores;
        cfg.l2Banks = g.banks;
        cfg.l2SizeBytes = g.l2MiB << 20;
        cfg.l2Ways = g.ways;
        return cfg;
    }
};

TEST_P(GeometrySweep, ConfigIsConsistent)
{
    const SystemConfig cfg = config();
    ASSERT_TRUE(cfg.valid());
    EXPECT_EQ(cfg.banksPerCore() * cfg.numCores, cfg.l2Banks);
    EXPECT_EQ(static_cast<std::uint64_t>(cfg.l2SetsPerBank()) *
                  cfg.l2Ways * cfg.blockBytes * cfg.l2Banks,
              cfg.l2SizeBytes);
}

TEST_P(GeometrySweep, MappingStaysInBounds)
{
    const SystemConfig cfg = config();
    const AddressMap map(cfg);
    Rng rng(5);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = rng.next() << 6;
        EXPECT_LT(map.sharedBank(a), cfg.l2Banks);
        EXPECT_LT(map.sharedSet(a), cfg.l2SetsPerBank());
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            EXPECT_LT(map.privateBank(c, a), cfg.l2Banks);
            EXPECT_TRUE(map.isLocalBank(c, map.privateBank(c, a)));
            EXPECT_LT(map.privateSet(a), cfg.l2SetsPerBank());
        }
    }
}

TEST_P(GeometrySweep, EspNucaRunsEndToEnd)
{
    const SystemConfig cfg = config();
    const Workload wl = makeWorkload("apache", cfg, 2'000, 1);
    System sys(cfg, "esp-nuca", wl, 1);
    const RunResult r = sys.run();
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_EQ(sys.protocol().inFlight(), 0u);
}

TEST_P(GeometrySweep, SharedAndPrivateRunEndToEnd)
{
    const SystemConfig cfg = config();
    for (const char *arch : {"shared", "private", "d-nuca"}) {
        const Workload wl = makeWorkload("CG", cfg, 1'500, 2);
        System sys(cfg, arch, wl, 2);
        const RunResult r = sys.run();
        EXPECT_GT(r.throughput, 0.0) << arch;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(Geometry{8, 32, 8, 16},  // Table 2
                      Geometry{8, 32, 4, 8},   // half capacity
                      Geometry{8, 16, 8, 16},  // 2 banks per core
                      Geometry{4, 16, 4, 16},  // 4-core CMP
                      Geometry{4, 32, 8, 8},   // 8 banks per core
                      Geometry{16, 32, 8, 16}, // 16-core CMP
                      Geometry{8, 64, 16, 16}) // big L2
);

/** Table 2 with a wider L1: the whole stack runs and drains. */
class WideL1Geometry : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(WideL1Geometry, EspNucaRunsAndDrains)
{
    SystemConfig cfg;
    cfg.l1Ways = GetParam();
    ASSERT_TRUE(cfg.valid());
    const Workload wl = makeWorkload("apache", cfg, 2'000, 1);
    System sys(cfg, "esp-nuca", wl, 1);
    const RunResult r = sys.run();
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_EQ(sys.protocol().inFlight(), 0u);
    EXPECT_GT(sys.protocol().l1(0).population(), 0u);
}

INSTANTIATE_TEST_SUITE_P(L1Ways, WideL1Geometry, ::testing::Values(8u, 16u));

TEST(GeometryEdge, SixteenCoreTopologyIsTaller)
{
    SystemConfig cfg;
    cfg.numCores = 16;
    cfg.l2Banks = 64;
    cfg.l2SizeBytes = 16ull << 20;
    ASSERT_TRUE(cfg.valid());
    Topology topo(cfg);
    EXPECT_EQ(topo.cols(), 8u);
    EXPECT_EQ(topo.numNodes(), 24u);
    for (CoreId c = 0; c < 16; ++c)
        EXPECT_LT(topo.coreNode(c), topo.numNodes());
    for (BankId b = 0; b < 64; ++b)
        EXPECT_EQ(topo.bankNode(b), topo.coreNode(topo.bankOwner(b)));
}

} // namespace
} // namespace espnuca
