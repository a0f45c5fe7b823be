/**
 * @file
 * Supervision-layer tests: the heartbeat and quarantine wire formats
 * round-trip, and the Supervisor itself — driven against /bin/sh fake
 * workers so no simulation is involved — restarts dead workers,
 * SIGKILLs stalled ones, charges organic deaths to the in-flight
 * point, quarantines a point at the death threshold (which is what
 * lets the restarted worker finally complete), and gives up cleanly
 * when a shard exhausts its restart budget.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "harness/supervisor.hpp"

namespace espnuca {
namespace {

std::string
freshDir(const std::string &name)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("espnuca_sup_" + name + "_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(HeartbeatFormat, RoundTrips)
{
    Heartbeat hb;
    hb.pid = 1234;
    hb.seq = 9;
    hb.state = "point-start";
    hb.pointHash = 0xABCDEF0123456789ULL;
    hb.index = 4;
    hb.arch = "esp-nuca";
    hb.workload = "apache";
    hb.done = 2;
    hb.total = 5;

    Heartbeat back;
    ASSERT_TRUE(parseHeartbeat(heartbeatJson(hb), back));
    EXPECT_EQ(back.pid, hb.pid);
    EXPECT_EQ(back.seq, hb.seq);
    EXPECT_EQ(back.state, hb.state);
    EXPECT_EQ(back.pointHash, hb.pointHash);
    EXPECT_EQ(back.index, hb.index);
    EXPECT_EQ(back.arch, hb.arch);
    EXPECT_EQ(back.workload, hb.workload);
    EXPECT_EQ(back.done, hb.done);
    EXPECT_EQ(back.total, hb.total);
}

TEST(HeartbeatFormat, RejectsMalformation)
{
    Heartbeat out;
    EXPECT_FALSE(parseHeartbeat("", out));
    EXPECT_FALSE(parseHeartbeat("{\"schema\":\"bogus\"}", out));
    Heartbeat hb;
    hb.state = "start";
    const std::string good = heartbeatJson(hb);
    EXPECT_TRUE(parseHeartbeat(good, out));
    // A torn (half-written) heartbeat parses as false, not garbage.
    EXPECT_FALSE(parseHeartbeat(good.substr(0, good.size() / 2), out));
}

TEST(HeartbeatFormat, WriterBumpsSequenceAndPid)
{
    const std::string dir = freshDir("hbwrite");
    const std::string path = dir + "/hb.json";
    Heartbeat hb;
    hb.state = "start";
    writeHeartbeat(path, hb);
    writeHeartbeat(path, hb);
    EXPECT_EQ(hb.seq, 2u);
    EXPECT_EQ(hb.pid, static_cast<std::uint64_t>(::getpid()));
    std::ifstream in(path);
    std::string doc((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    Heartbeat back;
    ASSERT_TRUE(parseHeartbeat(doc, back));
    EXPECT_EQ(back.seq, 2u);
    std::filesystem::remove_all(dir);
}

TEST(QuarantineFormat, RoundTrips)
{
    const std::string dir = freshDir("qfmt");
    EXPECT_TRUE(readQuarantine(dir).empty()); // absent file = empty

    std::vector<QuarantineRecord> records(2);
    records[0].hash = 0x00000000000000AAULL;
    records[0].index = 7;
    records[0].arch = "esp-nuca";
    records[0].workload = "apache";
    records[0].deaths = 3;
    records[0].error = "shard 0 pid 11 died on signal 11";
    records[1].hash = 0x1111111111111111ULL;
    records[1].index = 2;
    records[1].arch = "shared";
    records[1].workload = "oltp";
    records[1].deaths = 5;
    records[1].error = "stalled";
    ASSERT_TRUE(writeQuarantine(dir, records));

    const std::vector<QuarantineRecord> back = readQuarantine(dir);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].hash, records[0].hash);
    EXPECT_EQ(back[0].index, records[0].index);
    EXPECT_EQ(back[0].arch, records[0].arch);
    EXPECT_EQ(back[0].workload, records[0].workload);
    EXPECT_EQ(back[0].deaths, records[0].deaths);
    EXPECT_EQ(back[0].error, records[0].error);
    EXPECT_EQ(back[1].hash, records[1].hash);
    EXPECT_EQ(back[1].deaths, records[1].deaths);
    std::filesystem::remove_all(dir);
}

TEST(QuarantineFormat, MalformedFileThrows)
{
    const std::string dir = freshDir("qbad");
    {
        std::ofstream out(quarantinePath(dir));
        out << "{\"schema\":\"bogus\"}\n";
    }
    EXPECT_THROW(readQuarantine(dir), PointFileError);
    {
        std::ofstream out(quarantinePath(dir),
                          std::ios::binary | std::ios::trunc);
        out << "{\"schema\":\"espnuca-quarantine-v1\",\"points\":"
               "[{\"point_hash\":\"zz\"}]}\n";
    }
    EXPECT_THROW(readQuarantine(dir), PointFileError);
    std::filesystem::remove_all(dir);
}

TEST(JsonArrayItems, SplitsTopLevelElements)
{
    const std::vector<std::string> items =
        jsonArrayItems("[{\"a\":[1,2]},\"s,t\",3,{\"b\":\"}\"}]");
    ASSERT_EQ(items.size(), 4u);
    EXPECT_EQ(items[0], "{\"a\":[1,2]}");
    EXPECT_EQ(items[1], "\"s,t\"");
    EXPECT_EQ(items[2], "3");
    EXPECT_EQ(items[3], "{\"b\":\"}\"}");
    EXPECT_TRUE(jsonArrayItems("[]").empty());
    EXPECT_TRUE(jsonArrayItems("").empty());
}

// ------------------------------------------------------------------
// Supervisor end-to-end against /bin/sh fake workers. The supervisor
// appends `--shard i/N --results-dir DIR --heartbeat HB`, so with
// workerCmd = {sh, -c, SCRIPT, worker} the script sees $2=i/N $4=DIR
// $6=HB.
// ------------------------------------------------------------------

SupervisorOptions
fastOpts(const std::string &dir, const std::string &script)
{
    SupervisorOptions o;
    o.resultsDir = dir;
    o.workerCmd = {"/bin/sh", "-c", script, "worker"};
    o.shards = 1;
    o.pollMs = 5;
    o.backoffBaseMs = 1;
    o.backoffCapMs = 20;
    o.verbose = false;
    return o;
}

TEST(Supervisor, CleanWorkerCompletes)
{
    const std::string dir = freshDir("clean");
    Supervisor sup(fastOpts(dir, "exit 0"));
    EXPECT_EQ(sup.run(), 0);
    EXPECT_TRUE(sup.failures().empty());
    EXPECT_TRUE(sup.quarantine().empty());
    std::filesystem::remove_all(dir);
}

TEST(Supervisor, CrashingPointIsQuarantinedAndSweepCompletes)
{
    const std::string dir = freshDir("poison");
    // Declare point 0xaa in flight, then die — until the supervisor
    // blacklists it, after which the worker "skips" it and finishes.
    const std::string script = R"(
dir="$4"; hb="$6"
printf '%s\n' '{"schema":"espnuca-heartbeat-v1","pid":1,"seq":1,"state":"point-start","point_hash":"00000000000000aa","index":7,"arch":"esp-nuca","workload":"apache","done":0,"total":1}' > "$hb"
if [ -f "$dir/quarantine.json" ]; then exit 0; fi
exit 9
)";
    SupervisorOptions o = fastOpts(dir, script);
    o.quarantineAfter = 2;
    Supervisor sup(o);
    EXPECT_EQ(sup.run(), 0);

    ASSERT_EQ(sup.quarantine().size(), 1u);
    const QuarantineRecord &q = sup.quarantine()[0];
    EXPECT_EQ(q.hash, 0xAAu);
    EXPECT_EQ(q.index, 7u);
    EXPECT_EQ(q.arch, "esp-nuca");
    EXPECT_EQ(q.workload, "apache");
    EXPECT_EQ(q.deaths, 2u);
    ASSERT_GE(sup.failures().size(), 2u);
    EXPECT_EQ(sup.failures()[0].pointHash, 0xAAu);
    EXPECT_FALSE(sup.failures()[0].chaos);

    // The on-disk blacklist matches what the supervisor reports.
    const std::vector<QuarantineRecord> disk = readQuarantine(dir);
    ASSERT_EQ(disk.size(), 1u);
    EXPECT_EQ(disk[0].hash, 0xAAu);
    std::filesystem::remove_all(dir);
}

TEST(Supervisor, StalledWorkerIsKilledAndCharged)
{
    const std::string dir = freshDir("stall");
    const std::string script = R"(
dir="$4"; hb="$6"
if [ -f "$dir/quarantine.json" ]; then exit 0; fi
printf '%s\n' '{"schema":"espnuca-heartbeat-v1","pid":1,"seq":1,"state":"point-start","point_hash":"00000000000000bb","index":1,"arch":"shared","workload":"oltp","done":0,"total":1}' > "$hb"
sleep 60
)";
    SupervisorOptions o = fastOpts(dir, script);
    o.quarantineAfter = 1;
    o.stallTimeoutMs = 200;
    Supervisor sup(o);
    EXPECT_EQ(sup.run(), 0);
    ASSERT_GE(sup.failures().size(), 1u);
    EXPECT_TRUE(sup.failures()[0].stalled);
    EXPECT_EQ(sup.failures()[0].pointHash, 0xBBu);
    ASSERT_EQ(sup.quarantine().size(), 1u);
    EXPECT_EQ(sup.quarantine()[0].workload, "oltp");
    std::filesystem::remove_all(dir);
}

/** True once `pid` is gone or a zombie (killed, awaiting its reaper). */
bool
processDead(pid_t pid)
{
    if (::kill(pid, 0) != 0 && errno == ESRCH)
        return true;
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string field;
    for (int i = 0; i < 3 && (stat >> field); ++i) {
    }
    return field == "Z";
}

TEST(Supervisor, StallKillReachesEveryDescendant)
{
    // The worker is a wrapper whose grandchild records its pid and
    // would outlive a kill aimed only at the direct child.
    const std::string dir = freshDir("tree");
    const std::string script = R"(
dir="$4"; hb="$6"
if [ -f "$dir/quarantine.json" ]; then exit 0; fi
sleep 60 &
echo $! > "$dir/grandchild.pid"
printf '%s\n' '{"schema":"espnuca-heartbeat-v1","pid":1,"seq":1,"state":"point-start","point_hash":"00000000000000cc","index":1,"arch":"shared","workload":"oltp","done":0,"total":1}' > "$hb"
wait
)";
    SupervisorOptions o = fastOpts(dir, script);
    o.quarantineAfter = 1;
    o.stallTimeoutMs = 200;
    Supervisor sup(o);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(sup.run(), 0);
    ASSERT_GE(sup.failures().size(), 1u);
    EXPECT_TRUE(sup.failures()[0].stalled);

    pid_t grandchild = 0;
    std::ifstream(dir + "/grandchild.pid") >> grandchild;
    ASSERT_GT(grandchild, 0);
    bool dead = processDead(grandchild);
    for (int i = 0; i < 200 && !dead; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        dead = processDead(grandchild);
    }
    EXPECT_TRUE(dead) << "grandchild " << grandchild << " survived";
    if (!dead)
        ::kill(grandchild, SIGKILL);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
    std::filesystem::remove_all(dir);
}

TEST(Supervisor, RestartBudgetExhaustionFails)
{
    const std::string dir = freshDir("giveup");
    SupervisorOptions o = fastOpts(dir, "exit 3");
    o.maxRestarts = 2;
    Supervisor sup(o);
    EXPECT_EQ(sup.run(), 1);
    EXPECT_EQ(sup.failures().size(), 3u); // initial + 2 restarts
    EXPECT_FALSE(sup.failures()[0].signaled);
    EXPECT_EQ(sup.failures()[0].exitCode, 3);
    EXPECT_TRUE(sup.quarantine().empty());
    std::filesystem::remove_all(dir);
}

TEST(Supervisor, ExecFailureIsBoundedByRestartBudget)
{
    const std::string dir = freshDir("noexec");
    SupervisorOptions o = fastOpts(dir, "");
    o.workerCmd = {"/nonexistent/espnuca-worker-binary"};
    o.maxRestarts = 1;
    Supervisor sup(o);
    EXPECT_EQ(sup.run(), 1);
    ASSERT_GE(sup.failures().size(), 1u);
    EXPECT_EQ(sup.failures()[0].exitCode, 127);
    std::filesystem::remove_all(dir);
}

TEST(Supervisor, TwoShardsCompleteIndependently)
{
    const std::string dir = freshDir("twoshard");
    // Shard 0 succeeds immediately; shard 1 fails once, then succeeds.
    const std::string script = R"(
dir="$4"
case "$2" in
0/2) exit 0 ;;
*) if [ -f "$dir/seen-once" ]; then exit 0; fi; : > "$dir/seen-once"; exit 7 ;;
esac
)";
    SupervisorOptions o = fastOpts(dir, script);
    o.shards = 2;
    Supervisor sup(o);
    EXPECT_EQ(sup.run(), 0);
    ASSERT_EQ(sup.failures().size(), 1u);
    EXPECT_EQ(sup.failures()[0].shard, 1u);
    EXPECT_EQ(sup.failures()[0].exitCode, 7);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace espnuca
