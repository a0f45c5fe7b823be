/**
 * @file
 * Process-level sweep supervision: fork/exec one worker per shard over
 * a results directory and keep the sweep alive through arbitrary
 * worker death (DESIGN.md 5.12).
 *
 * The contract with workers is deliberately thin — three files, no
 * pipes, no signals-as-API:
 *
 *  - heartbeat: each worker atomically rewrites `hb-<shard>.json`
 *    around every point (sweep.hpp protocol). The supervisor derives
 *    liveness from the bytes *changing* (content comparison, not
 *    mtime — coarse filesystem timestamps would mask a stall) and
 *    attribution from the last state: a death while `point-start` is
 *    on disk is charged to that point.
 *  - results: per-point files are durable and checksummed, so a
 *    restarted worker resumes by validating what survived and
 *    recomputing the rest. The supervisor never parses results.
 *  - quarantine: a point charged with `quarantineAfter` organic
 *    deaths is blacklisted into `quarantine.json`; restarted workers
 *    skip it and espnuca-merge folds it into the bench document's
 *    `failures` array. One poison point cannot wedge a sweep.
 *
 * Deaths the supervisor itself induces (`--chaos`, for crash-safety
 * acceptance runs) are tracked by pid and never charged — chaos must
 * not quarantine healthy points, or the byte-identity check against
 * an unsupervised run would fail.
 *
 * Restarts back off exponentially (base << restarts, capped) so a
 * worker that dies instantly — bad binary, unmountable results dir —
 * cannot busy-loop the machine, and give up entirely after
 * `maxRestarts`, turning "retry forever" into a reportable failure.
 */

#ifndef ESPNUCA_HARNESS_SUPERVISOR_HPP_
#define ESPNUCA_HARNESS_SUPERVISOR_HPP_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "harness/sweep.hpp"

namespace espnuca {

/** Structured record of one worker death, however it happened. */
struct WorkerFailure
{
    std::uint32_t shard = 0;
    std::uint64_t pid = 0;
    bool signaled = false; //!< killed by a signal (vs exited nonzero)
    int signal = 0;
    int exitCode = 0;
    bool stalled = false; //!< SIGKILLed by us for a heartbeat timeout
    bool chaos = false;   //!< SIGKILLed by us for --chaos (not charged)
    std::uint64_t pointHash = 0; //!< in-flight point (0 = none known)
    std::uint64_t pointIndex = 0;
    std::string arch;
    std::string workload;

    std::string
    describe() const
    {
        std::string s = "shard " + std::to_string(shard) + " pid " +
                        std::to_string(pid);
        if (stalled)
            s += " stalled (heartbeat timeout)";
        else if (chaos)
            s += " chaos-killed";
        else if (signaled)
            s += " died on signal " + std::to_string(signal);
        else
            s += " exited " + std::to_string(exitCode);
        if (pointHash != 0)
            s += " during point " + digestHex(pointHash) + " " + arch +
                 "/" + workload;
        return s;
    }
};

struct SupervisorOptions
{
    std::string resultsDir;
    std::vector<std::string> workerCmd; //!< template argv (exec'd per shard)
    std::uint32_t shards = 1;
    double chaosKillRate = 0.0; //!< expected induced SIGKILLs per second
    std::uint64_t chaosSeed = 1;
    std::uint64_t stallTimeoutMs = 120'000;
    std::uint64_t pollMs = 25;
    std::uint32_t quarantineAfter = 3; //!< organic deaths per point
    std::uint32_t maxRestarts = 50;    //!< per shard, then give up
    std::uint64_t backoffBaseMs = 20;
    std::uint64_t backoffCapMs = 2'000;
    bool verbose = true;
};

/** Heartbeat file of shard `i` under the results directory. */
inline std::string
heartbeatPathFor(const std::string &dir, std::uint32_t shard)
{
    return dir + "/hb-" + std::to_string(shard) + ".json";
}

class Supervisor
{
  public:
    explicit Supervisor(SupervisorOptions opts)
        : opts_(std::move(opts)), chaosRng_(opts_.chaosSeed)
    {
    }

    /**
     * Drive every shard to a clean exit. @return 0 when all workers
     * eventually exited 0 (quarantined points count as handled — they
     * are reported, not fatal), 1 when any shard exhausted its restart
     * budget.
     */
    int
    run()
    {
        // Mint the run id and export it before the first fork: every
        // worker's ledger carries the same id as ours.
        std::string run_id = inheritedRunId();
        if (run_id.empty())
            run_id = makeRunId();
        ::setenv(kRunIdEnv, run_id.c_str(), 1);
        RunLedger &ledger = RunLedger::process();
        ledger.open(ledgerPathFor(opts_.resultsDir, /*supervisor=*/true),
                    run_id, buildDescribe(), "supervisor", 0);
        ledger.event("run-start", opts_.shards,
                     opts_.workerCmd.empty() ? std::string()
                                             : opts_.workerCmd[0]);
        for (const QuarantineRecord &q : readQuarantine(opts_.resultsDir))
            quarantine_.push_back(q);
        shards_.resize(opts_.shards);
        for (std::uint32_t i = 0; i < opts_.shards; ++i) {
            shards_[i].index = i;
            spawn(shards_[i]);
        }
        bool gaveUp = false;
        while (true) {
            bool allDone = true;
            for (Shard &s : shards_) {
                step(s, gaveUp);
                if (s.state != State::Done && s.state != State::Failed)
                    allDone = false;
            }
            if (allDone)
                break;
            maybeChaosKill();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts_.pollMs));
        }
        int rc = 0;
        for (const Shard &s : shards_)
            if (s.state == State::Failed)
                rc = 1;
        ledger.event("run-finish", static_cast<std::uint64_t>(rc));
        return rc;
    }

    const std::vector<WorkerFailure> &failures() const
    {
        return failures_;
    }

    const std::vector<QuarantineRecord> &quarantine() const
    {
        return quarantine_;
    }

  private:
    using Clock = std::chrono::steady_clock;

    enum class State
    {
        Running,
        PendingRestart, //!< dead; respawn when backoff elapses
        Done,
        Failed, //!< restart budget exhausted
    };

    struct Shard
    {
        std::uint32_t index = 0;
        State state = State::Running;
        pid_t pid = -1;
        std::uint32_t restarts = 0;
        Clock::time_point restartAt{};
        Clock::time_point lastBeat{}; //!< heartbeat bytes last changed
        std::string lastContent;      //!< heartbeat bytes last seen
        bool stallKillSent = false;   //!< we SIGKILLed it for a stall
        bool gapLogged = false;       //!< heartbeat-gap ledgered once
    };

    std::vector<std::string>
    shardArgv(std::uint32_t shard) const
    {
        std::vector<std::string> argv = opts_.workerCmd;
        argv.push_back("--shard");
        argv.push_back(std::to_string(shard) + "/" +
                       std::to_string(opts_.shards));
        argv.push_back("--results-dir");
        argv.push_back(opts_.resultsDir);
        argv.push_back("--heartbeat");
        argv.push_back(heartbeatPathFor(opts_.resultsDir, shard));
        return argv;
    }

    void
    spawn(Shard &s)
    {
        const std::vector<std::string> argv = shardArgv(s.index);
        std::vector<char *> cargv;
        cargv.reserve(argv.size() + 1);
        for (const std::string &a : argv)
            cargv.push_back(const_cast<char *>(a.c_str()));
        cargv.push_back(nullptr);
        const pid_t parent = ::getpid();
        const pid_t pid = ::fork();
        if (pid < 0) {
            // Treat a failed fork like a dead worker: back off, retry.
            s.state = State::PendingRestart;
            s.restartAt = Clock::now() + backoff(s.restarts);
            return;
        }
        if (pid == 0) {
            // The worker leads its own process group, so a kill reaches
            // every descendant (a wrapper's grandchildren too), and it
            // dies with the supervisor.
            ::setpgid(0, 0);
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                std::_Exit(127); // the supervisor died before prctl
            ::execvp(cargv[0], cargv.data());
            std::_Exit(127); // exec failed; parent sees exit 127
        }
        // Also set from this side: a kill issued before the child runs
        // must still find the group.
        ::setpgid(pid, pid);
        s.pid = pid;
        s.state = State::Running;
        s.lastBeat = Clock::now();
        s.lastContent.clear();
        s.stallKillSent = false;
        s.gapLogged = false;
        RunLedger::process().event(
            "worker-spawn", static_cast<std::uint64_t>(pid),
            "shard " + std::to_string(s.index) +
                (s.restarts == 0 ? "" : " restart " +
                                            std::to_string(s.restarts)));
        if (opts_.verbose)
            std::printf("[swarm] shard %u: pid %d %s\n", s.index,
                        static_cast<int>(pid),
                        s.restarts == 0 ? "started" : "restarted");
    }

    std::chrono::milliseconds
    backoff(std::uint32_t restarts) const
    {
        const std::uint32_t shift = restarts < 7 ? restarts : 7;
        const std::uint64_t ms = opts_.backoffBaseMs << shift;
        return std::chrono::milliseconds(
            ms < opts_.backoffCapMs ? ms : opts_.backoffCapMs);
    }

    /** Poll one shard: reap, stall-check, or respawn as appropriate. */
    void
    step(Shard &s, bool &gaveUp)
    {
        if (s.state == State::Running) {
            int status = 0;
            const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
            if (r == s.pid) {
                onExit(s, status);
                return;
            }
            checkStall(s);
            return;
        }
        if (s.state == State::PendingRestart &&
            Clock::now() >= s.restartAt) {
            if (s.restarts > opts_.maxRestarts) {
                s.state = State::Failed;
                gaveUp = true;
                RunLedger::process().event(
                    "shard-give-up", s.restarts,
                    "shard " + std::to_string(s.index));
                std::fprintf(stderr,
                             "[swarm] shard %u: giving up after %u "
                             "restarts\n",
                             s.index, s.restarts);
                return;
            }
            spawn(s);
        }
    }

    /** A worker exited: clean completion or a death to account for. */
    void
    onExit(Shard &s, int status)
    {
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            s.state = State::Done;
            RunLedger::process().event(
                "worker-exit", static_cast<std::uint64_t>(s.pid),
                "shard " + std::to_string(s.index) + " done");
            if (opts_.verbose)
                std::printf("[swarm] shard %u: done\n", s.index);
            return;
        }
        WorkerFailure f;
        f.shard = s.index;
        f.pid = static_cast<std::uint64_t>(s.pid);
        f.signaled = WIFSIGNALED(status);
        f.signal = f.signaled ? WTERMSIG(status) : 0;
        f.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : 0;
        f.stalled = s.stallKillSent;
        f.chaos = chaosPids_.count(s.pid) != 0;
        chaosPids_.erase(s.pid);

        // Attribution comes from the file, not the last polled copy: a
        // worker that died between polls still left its final state on
        // disk. (After a restart the previous incarnation's bytes may
        // linger — that points at the same poison point, so charging it
        // is the right call anyway.)
        std::string content = s.lastContent;
        {
            std::ifstream in(
                heartbeatPathFor(opts_.resultsDir, s.index),
                std::ios::binary);
            if (in)
                content.assign(std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>());
        }
        Heartbeat hb;
        if (parseHeartbeat(content, hb) &&
            hb.state == "point-start") {
            f.pointHash = hb.pointHash;
            f.pointIndex = hb.index;
            f.arch = hb.arch;
            f.workload = hb.workload;
        }
        failures_.push_back(f);
        RunLedger::process().event(
            "worker-exit", static_cast<std::uint64_t>(s.pid),
            f.describe());
        if (opts_.verbose)
            std::printf("[swarm] %s\n", f.describe().c_str());

        // Chaos kills are ours; only organic deaths indict the point.
        if (!f.chaos && f.pointHash != 0)
            chargePoint(f);

        ++s.restarts;
        s.state = State::PendingRestart;
        s.restartAt = Clock::now() + backoff(s.restarts);
    }

    /** An organic death landed on a point; quarantine at threshold. */
    void
    chargePoint(const WorkerFailure &f)
    {
        const std::uint32_t deaths = ++pointDeaths_[f.pointHash];
        if (deaths < opts_.quarantineAfter)
            return;
        for (const QuarantineRecord &q : quarantine_)
            if (q.hash == f.pointHash)
                return;
        QuarantineRecord q;
        q.hash = f.pointHash;
        q.index = f.pointIndex;
        q.arch = f.arch;
        q.workload = f.workload;
        q.deaths = deaths;
        q.error = f.describe();
        quarantine_.push_back(q);
        RunLedger::process().pointEvent("point-quarantine", q.hash,
                                        q.index, q.arch, q.workload,
                                        deaths, q.error);
        FileError err;
        if (!writeQuarantine(opts_.resultsDir, quarantine_, &err))
            std::fprintf(stderr, "[swarm] %s\n", err.message().c_str());
        std::fprintf(stderr,
                     "[swarm] quarantined point %s %s/%s after %u "
                     "deaths\n",
                     digestHex(q.hash).c_str(), q.arch.c_str(),
                     q.workload.c_str(), deaths);
    }

    /** Liveness = the heartbeat bytes changed recently. */
    void
    checkStall(Shard &s)
    {
        const std::string path =
            heartbeatPathFor(opts_.resultsDir, s.index);
        std::ifstream in(path, std::ios::binary);
        if (in) {
            std::string content((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
            if (content != s.lastContent) {
                s.lastContent = std::move(content);
                s.lastBeat = Clock::now();
            }
        }
        if (s.stallKillSent)
            return;
        const auto quiet = std::chrono::duration_cast<
            std::chrono::milliseconds>(Clock::now() - s.lastBeat);
        const std::uint64_t quiet_ms =
            static_cast<std::uint64_t>(quiet.count());
        // Flag a suspiciously long gap (half the stall budget) once per
        // incident so the ledger shows the lead-up, not just the kill.
        if (!s.gapLogged && quiet_ms >= opts_.stallTimeoutMs / 2) {
            s.gapLogged = true;
            RunLedger::process().event(
                "heartbeat-gap", quiet_ms,
                "shard " + std::to_string(s.index));
        }
        if (quiet_ms >= opts_.stallTimeoutMs) {
            s.stallKillSent = true;
            RunLedger::process().event(
                "worker-stall-kill", static_cast<std::uint64_t>(s.pid),
                "shard " + std::to_string(s.index) + " quiet " +
                    std::to_string(quiet_ms) + " ms");
            ::kill(-s.pid, SIGKILL); // the worker's whole process group
        }
    }

    /** Per poll tick, fire with p = rate * poll interval and SIGKILL a
     *  random running worker. Seeded: chaos runs are reproducible. */
    void
    maybeChaosKill()
    {
        if (opts_.chaosKillRate <= 0.0)
            return;
        const double p = opts_.chaosKillRate *
                         (static_cast<double>(opts_.pollMs) / 1000.0);
        if (!chaosRng_.chance(p < 1.0 ? p : 1.0))
            return;
        std::vector<Shard *> running;
        for (Shard &s : shards_)
            if (s.state == State::Running && !s.stallKillSent)
                running.push_back(&s);
        if (running.empty())
            return;
        Shard &victim = *running[chaosRng_.below(
            static_cast<std::uint32_t>(running.size()))];
        chaosPids_.insert(victim.pid);
        RunLedger::process().event(
            "chaos-kill", static_cast<std::uint64_t>(victim.pid),
            "shard " + std::to_string(victim.index));
        ::kill(-victim.pid, SIGKILL); // the worker's whole process group
    }

    SupervisorOptions opts_;
    Rng chaosRng_;
    std::vector<Shard> shards_;
    std::vector<WorkerFailure> failures_;
    std::vector<QuarantineRecord> quarantine_;
    std::map<std::uint64_t, std::uint32_t> pointDeaths_;
    std::set<pid_t> chaosPids_;
};

} // namespace espnuca

#endif // ESPNUCA_HARNESS_SUPERVISOR_HPP_
