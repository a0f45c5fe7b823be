/**
 * @file
 * Directory-filtered remote-private probes (Figure 2b step 3'): a
 * fan-out probe of a bank whose l2Copies bit is clear answers kNoWay
 * without reading the set. In audit builds every filtered probe also
 * runs the skipped tag match and the auditor throws if it would have
 * hit, so a run that completes proves the filter exact on that run.
 * Covered: the three SP-NUCA-family searches, on the paper 4x3 mesh
 * and on a 32-core tiled mesh, with and without two disabled ways per
 * bank.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "fault/fault_plan.hpp"
#include "harness/system.hpp"

namespace espnuca {
namespace {

#if ESPNUCA_TX_AUDIT
/** Paper machine, or the 32-core tiled machine of fig11. */
SystemConfig
machine(bool tiled32)
{
    SystemConfig cfg;
    if (tiled32) {
        cfg.numCores = 32;
        cfg.l2Banks = 128;
        cfg.l2SizeBytes = 32ULL * 1024 * 1024;
        cfg.memControllers = 4;
        cfg.placement = "tiled";
        cfg.meshCols = 0;
        cfg.meshRows = 0;
    }
    return cfg;
}
#endif

// std::string, not const char *: gtest prints a tuple's char pointer by
// address, and the discovered test name would change with every run.
class ProbeFilter
    : public ::testing::TestWithParam<std::tuple<std::string, bool, bool>>
{
};

TEST_P(ProbeFilter, FilteredProbesAreExactMisses)
{
#if ESPNUCA_TX_AUDIT
    const auto [arch, tiled32, faulty] = GetParam();
    const SystemConfig cfg = machine(tiled32);
    const FaultPlan plan = FaultPlan::parse("ways=*:0x3");
    const std::uint64_t ops = tiled32 ? 800 : 3000;
    const Workload wl = makeWorkload("apache", cfg, ops, 3);
    System sys(cfg, arch, wl, 3, 0.0, faulty ? &plan : nullptr);
    // A filtered probe whose tag match would hit throws TxAuditError.
    EXPECT_NO_THROW(sys.run());
    EXPECT_EQ(sys.protocol().inFlight(), 0u);
    EXPECT_GT(sys.protocol().txAudit().filteredProbes(), 0u);
#else
    GTEST_SKIP() << "audit layer compiled out (ESPNUCA_AUDIT=OFF)";
#endif
}

INSTANTIATE_TEST_SUITE_P(
    SpFamily, ProbeFilter,
    ::testing::Combine(::testing::Values(std::string("sp-nuca"),
                                         std::string("esp-nuca"),
                                         std::string("sp-nuca-shadow")),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        name += std::get<1>(info.param) ? "_tiled32" : "_paper";
        name += std::get<2>(info.param) ? "_ways3" : "_healthy";
        return name;
    });

} // namespace
} // namespace espnuca
