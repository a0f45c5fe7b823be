/**
 * @file
 * Snapshot/restore correctness: for every arch model (and under a
 * dead-way fault plan) a run that checkpoints at the warmup boundary
 * and restores from that file must produce results — including the
 * full per-component stats dump — byte-identical to the same phased
 * run executed cold, and a checkpoint must never be accepted for a
 * run with a different identity. The directory's own save() bytes are
 * pinned to digests of the pre-split layout, and the cache arrays'
 * save() bytes to digests of the fixed-capacity set layout.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "common/snapshot.hpp"
#include "fault/fault_plan.hpp"
#include "harness/report.hpp"
#include "harness/system.hpp"

namespace espnuca {
namespace {

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("espnuca_ckpt_" + name + ".ckpt"))
        .string();
}

struct Phased
{
    RunResult result;
    bool restored = false;
    std::string stats;
};

Phased
runPhased(const std::string &arch, const std::string &workload,
          const std::string &fault, const std::string &path,
          std::uint64_t ops = 12'000, std::uint64_t seed = 7)
{
    SystemConfig cfg;
    std::optional<FaultPlan> plan;
    if (!fault.empty())
        plan = FaultPlan::parse(fault);
    Phased p;
    p.result = simulatePhased(cfg, arch, workload, ops, seed,
                              /*warmup=*/0.5, plan ? &*plan : nullptr,
                              path, &p.restored, &p.stats);
    return p;
}

class CheckpointRoundTrip
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CheckpointRoundTrip, RestoreMatchesColdByteForByte)
{
    const std::string arch = GetParam();
    const std::string path = tmpPath(arch);
    std::filesystem::remove(path);

    const Phased cold = runPhased(arch, "apache", "", path);
    EXPECT_FALSE(cold.restored);
    ASSERT_TRUE(std::filesystem::exists(path));

    const Phased warm = runPhased(arch, "apache", "", path);
    EXPECT_TRUE(warm.restored);

    EXPECT_EQ(runToJson(cold.result), runToJson(warm.result));
    EXPECT_EQ(cold.stats, warm.stats);
    std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(AllArchModels, CheckpointRoundTrip,
                         ::testing::Values("shared", "private",
                                           "sp-nuca", "esp-nuca",
                                           "d-nuca"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(Checkpoint, RestoreMatchesColdUnderDeadWayFault)
{
    const std::string path = tmpPath("deadways");
    std::filesystem::remove(path);
    const std::string fault = "ways=*:0x3"; // two dead ways, every bank

    const Phased cold = runPhased("esp-nuca", "oltp", fault, path);
    EXPECT_FALSE(cold.restored);
    ASSERT_TRUE(std::filesystem::exists(path));

    const Phased warm = runPhased("esp-nuca", "oltp", fault, path);
    EXPECT_TRUE(warm.restored);

    EXPECT_EQ(runToJson(cold.result), runToJson(warm.result));
    EXPECT_EQ(cold.stats, warm.stats);
    std::filesystem::remove(path);
}

TEST(Checkpoint, MismatchedIdentityFallsBackToColdRun)
{
    const std::string path = tmpPath("identity");
    std::filesystem::remove(path);

    const Phased first = runPhased("esp-nuca", "apache", "", path);
    EXPECT_FALSE(first.restored);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Same file, different workload: the identity header must reject
    // it and the run must complete cold. The mismatched run then
    // re-caches its own boundary at that path (last-run-wins), so the
    // next apache run is cold again — and once it has re-cached, the
    // restore reproduces the original results byte for byte. At no
    // point may a stale checkpoint be silently accepted.
    const Phased other = runPhased("esp-nuca", "jbb", "", path);
    EXPECT_FALSE(other.restored);

    const Phased recache = runPhased("esp-nuca", "apache", "", path);
    EXPECT_FALSE(recache.restored);
    EXPECT_EQ(runToJson(first.result), runToJson(recache.result));

    const Phased again = runPhased("esp-nuca", "apache", "", path);
    EXPECT_TRUE(again.restored);
    EXPECT_EQ(runToJson(first.result), runToJson(again.result));
    std::filesystem::remove(path);
}

TEST(Checkpoint, CorruptFileFallsBackToColdRun)
{
    const std::string path = tmpPath("corrupt");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "this is not a snapshot";
    }
    const Phased p = runPhased("shared", "apache", "", path);
    EXPECT_FALSE(p.restored);
    EXPECT_GT(p.result.instructions, 0u);
    std::filesystem::remove(path);
}

TEST(Checkpoint, WrongVersionIsRejected)
{
    SnapshotIdentity id;
    id.arch = "shared";
    id.workload = "apache";
    SnapshotWriter w;
    w.header(id);
    std::string bytes = w.bytes();
    // The version field sits right after the 4-byte magic.
    bytes[4] = static_cast<char>(bytes[4] + 1);
    SnapshotReader r(bytes);
    EXPECT_THROW(r.header(), SnapshotError);
}

TEST(Checkpoint, TrailingBytesAreAnError)
{
    SnapshotWriter w;
    w.u64(42);
    w.u64(43);
    SnapshotReader r(w.bytes());
    EXPECT_EQ(r.u64(), 42u);
    EXPECT_THROW(r.finish(), SnapshotError);
    EXPECT_EQ(r.u64(), 43u);
    EXPECT_NO_THROW(r.finish());
}

TEST(Checkpoint, PhasedRunIsDeterministicAcrossProcessesShape)
{
    // Two cold phased runs (no checkpoint file at all) of the same
    // point must already be byte-identical — the snapshot round-trip
    // inside the cold path is exercised every run.
    const Phased a = runPhased("esp-nuca", "apache", "", "");
    const Phased b = runPhased("esp-nuca", "apache", "", "");
    EXPECT_FALSE(a.restored);
    EXPECT_FALSE(b.restored);
    EXPECT_EQ(runToJson(a.result), runToJson(b.result));
    EXPECT_EQ(a.stats, b.stats);
}

// -- Directory snapshot bytes pinned against the single-table layout -----
// The digests were taken from the directory that stored every entry
// inline in one FlatMap, before the probe-index/entry-pool split; the
// split must reproduce its save() bytes exactly.

/** FNV-1a digest of Directory::save after a fixed end-to-end run. */
std::uint64_t
dirSaveDigest(const SystemConfig &cfg, const char *workload,
              std::uint64_t ops_per_core)
{
    System sys(cfg, "esp-nuca", makeWorkload(workload, cfg, ops_per_core, 1),
               1, /*warmup=*/0.0);
    sys.run();
    SnapshotWriter w;
    sys.protocol().dir().save(w);
    return fnv1a(w.bytes());
}

TEST(DirectorySnapshotLayout, Paper8CoreApacheMatchesInlineLayout)
{
    EXPECT_EQ(dirSaveDigest(SystemConfig{}, "apache", 20'000),
              0xb4b28e61f693c285ULL);
}

TEST(DirectorySnapshotLayout, Tiled32CoreApacheMatchesInlineLayout)
{
    SystemConfig cfg;
    cfg.numCores = 32;
    cfg.l2Banks = 128;
    cfg.l2SizeBytes = 32ULL * 1024 * 1024;
    cfg.memControllers = 4;
    cfg.placement = "tiled";
    EXPECT_EQ(dirSaveDigest(cfg, "apache", 3'000), 0x987fc2e67a34b6c7ULL);
}

// -- Cache-array snapshot bytes pinned against the fixed-capacity layout -
// The digests were taken from sets that stored 16 inline ways whatever
// their associativity and kept a full BlockMeta copy per way; sets sized
// to their ways, whose address/valid/class live only in the tags and
// masks, must reproduce those save() bytes exactly.

/** FNV-1a digests of every L2 bank's and every L1's save(). */
struct CacheArrayDigests
{
    std::uint64_t banks = 0;
    std::uint64_t l1s = 0;
};

CacheArrayDigests
cacheSaveDigests(const SystemConfig &cfg, std::uint64_t ops_per_core)
{
    System sys(cfg, "esp-nuca", makeWorkload("apache", cfg, ops_per_core, 1),
               1, /*warmup=*/0.0);
    sys.run();
    SnapshotWriter banks;
    for (BankId b = 0; b < sys.org().numBanks(); ++b)
        sys.org().bank(b).save(banks);
    SnapshotWriter l1s;
    for (L1Id id = 0; id < 2 * cfg.numCores; ++id)
        sys.protocol().l1(id).save(l1s);
    return {fnv1a(banks.bytes()), fnv1a(l1s.bytes())};
}

TEST(CacheArraySnapshotLayout, Paper8CoreApacheMatchesInlineLayout)
{
    const CacheArrayDigests d = cacheSaveDigests(SystemConfig{}, 20'000);
    EXPECT_EQ(d.banks, 0x199a5c1340f567aeULL);
    EXPECT_EQ(d.l1s, 0x401cf53003c86a46ULL);
}

TEST(CacheArraySnapshotLayout, Tiled32CoreApacheMatchesInlineLayout)
{
    SystemConfig cfg;
    cfg.numCores = 32;
    cfg.l2Banks = 128;
    cfg.l2SizeBytes = 32ULL * 1024 * 1024;
    cfg.memControllers = 4;
    cfg.placement = "tiled";
    const CacheArrayDigests d = cacheSaveDigests(cfg, 3'000);
    EXPECT_EQ(d.banks, 0x89294d003dc95a9eULL);
    EXPECT_EQ(d.l1s, 0xfd2a7b2d67efd610ULL);
}

TEST(CacheArraySnapshotLayout, WayBytesContradictingTagsAreRejected)
{
    // A 2-way set holding one valid Shared block in way 0. Its save()
    // is the way count and the masks (u32 + 6 x u64 + 2 x i64: the
    // valid mask, four class masks, the disabled mask, hi and lo), then
    // per way: tag, stamp, addr, valid, dirty, cls, owner, owner-token,
    // hits. The addr/valid/cls bytes repeat what the tag and masks say.
    SetArray s_sets(1, 2);
    CacheSet &s = s_sets[0];
    BlockMeta m;
    m.addr = 0x1c0;
    m.valid = true;
    m.cls = BlockClass::Shared;
    m.owner = 3;
    s.assign(0, m);
    s.touch(0);
    SnapshotWriter w;
    s.save(w);
    const std::string good = w.bytes();
    {
        SetArray t_sets(1, 2);
        CacheSet &t = t_sets[0];
        SnapshotReader r(good);
        EXPECT_NO_THROW(t.load(r));
        EXPECT_EQ(t.way(0).addr, 0x1c0u);
        EXPECT_EQ(t.way(0).cls, BlockClass::Shared);
        EXPECT_EQ(t.way(0).owner, 3u);
    }
    constexpr std::size_t kWay0 = 4 + 6 * 8 + 2 * 8;
    constexpr std::size_t kWay1 = kWay0 + 8 + 8 + 8 + 1 + 1 + 1 + 4 + 1 + 1;
    constexpr std::size_t kAddr = 16; // after tag and stamp
    constexpr std::size_t kValid = kAddr + 8;
    constexpr std::size_t kCls = kValid + 2; // after valid and dirty
    auto rejects = [&](std::size_t at, char value) {
        std::string bad = good;
        bad[at] = value;
        SetArray t_sets(1, 2);
        CacheSet &t = t_sets[0];
        SnapshotReader r(bad);
        EXPECT_THROW(t.load(r), SnapshotError) << "byte " << at;
    };
    // Way 0 (valid): address differs from the tag, valid byte clear,
    // class differs from the class masks.
    rejects(kWay0 + kAddr, 0x00);
    rejects(kWay0 + kValid, 0);
    rejects(kWay0 + kCls, static_cast<char>(BlockClass::Victim));
    // Way 1 (invalid): an address, a valid byte, a class.
    rejects(kWay1 + kAddr, 0x40);
    rejects(kWay1 + kValid, 1);
    rejects(kWay1 + kCls, static_cast<char>(BlockClass::Replica));
    // The valid mask names a way that no class mask holds.
    rejects(4, 0x03);
}

} // namespace
} // namespace espnuca
