/**
 * @file
 * Fault-tolerance layer tests (DESIGN.md §10): backoff determinism,
 * workload-affine dealing (Supervisor::pick on a fig06-shaped grid),
 * the forked fleet against stand-in workers that crash at startup or
 * wedge (one process per attempt, every child reaped, the coordinator
 * asleep while they hold their points), the quarantine
 * placeholder, its FAILED-cell rendering and the wire's refusal to
 * encode it, and the restart journal of a killed sweep — the ResultCache
 * seen by grid index (ResultCache::served): fresh/reload round trips
 * through a real sweep, write-failure degrade, torn-tail tolerance
 * and quarantined-point rerun semantics. The cache's own content
 * keying and corruption ladder are tested in result_cache_test.cpp.
 * The end-to-end crash/respawn/restart behavior against real bench
 * workers is exercised by tests/fault_smoke.cmake.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "harness/result_cache.hh"
#include "harness/sharded_sweep.hh"
#include "harness/supervisor.hh"

namespace
{

using namespace acr;
using namespace acr::harness;

std::vector<GridPoint>
tinyGrid()
{
    std::vector<GridPoint> points;
    ExperimentConfig config;
    config.mode = BerMode::kNoCkpt;
    points.push_back({"is", config, 2});
    config.mode = BerMode::kCkpt;
    points.push_back({"is", config, 2});
    config.mode = BerMode::kReCkpt;
    points.push_back({"is", config, 2});
    return points;
}

/** A distinguishable successful result. */
ExperimentResult
fakeResult(std::uint64_t cycles)
{
    ExperimentResult result;
    result.cycles = cycles;
    result.energyPj = static_cast<double>(cycles) * 2.0;
    result.edp = static_cast<double>(cycles) * 3.0;
    result.checkpointsEstablished = 7;
    return result;
}

std::string
dump(const ExperimentResult &result)
{
    return wire::encodeResult(result).dump();
}

/** Per-test journal (cache file) path under gtest's temp dir. */
std::string
journalPath(const std::string &tag)
{
    return testing::TempDir() + "acr_journal_" + tag + "_" +
           std::to_string(::getpid()) + ".ndjson";
}

/** Every grid index, as an unsharded sweep owns them. */
std::vector<std::size_t>
allOwned(const std::vector<GridPoint> &grid)
{
    return ShardedSweep::shardIndices(grid.size(), {});
}

TEST(Backoff, DeterministicJitteredAndCapped)
{
    // Same (tries, gridIndex) always yields the same delay.
    EXPECT_EQ(Supervisor::backoffSeconds(1, 3),
              Supervisor::backoffSeconds(1, 3));

    // Jitter stays within [0.5, 1.5)x of the capped exponential.
    for (unsigned tries = 1; tries <= 8; ++tries) {
        for (std::size_t index = 0; index < 16; ++index) {
            const double base =
                std::min(Supervisor::kBackoffCapSec,
                         Supervisor::kBackoffBaseSec *
                             std::ldexp(1.0, tries - 1));
            const double delay = Supervisor::backoffSeconds(tries, index);
            EXPECT_GE(delay, 0.5 * base);
            EXPECT_LT(delay, 1.5 * base);
        }
    }

    // Deep retry counts saturate at the cap instead of overflowing.
    EXPECT_LT(Supervisor::backoffSeconds(64, 0),
              1.5 * Supervisor::kBackoffCapSec);
}

/** A fig06-shaped grid: per workload NoCkpt, Ckpt_E, Ckpt_NE,
 *  ReCkpt_E, ReCkpt_NE (one error in each _E), _E before _NE. */
std::vector<GridPoint>
fig06Shaped(const std::vector<std::string> &workloads)
{
    std::vector<GridPoint> points;
    for (const auto &workload : workloads) {
        for (auto [mode, errors] :
             {std::pair{BerMode::kNoCkpt, 0u}, {BerMode::kCkpt, 1u},
              {BerMode::kCkpt, 0u}, {BerMode::kReCkpt, 1u},
              {BerMode::kReCkpt, 0u}}) {
            ExperimentConfig config;
            config.mode = mode;
            config.numErrors = errors;
            points.push_back({workload, config, 8});
        }
    }
    return points;
}

const std::vector<std::string> kEightWorkloads = {
    "bt", "cg", "dc", "ft", "is", "lu", "mg", "sp"};

/** Every point of @p grid as a ready attempt, in grid order. */
std::deque<Supervisor::Attempt>
readyQueue(const std::vector<GridPoint> &grid,
           Supervisor::Clock::time_point now)
{
    std::deque<Supervisor::Attempt> queue;
    for (std::size_t i = 0; i < grid.size(); ++i)
        queue.push_back({{i, i, &grid[i]}, 0, now});
    return queue;
}

/** Union of the peers' warm sets: what pick() calls claimed. */
std::set<Supervisor::Affinity>
claimedBy(const std::vector<std::set<Supervisor::Affinity>> &warm)
{
    std::set<Supervisor::Affinity> claimed;
    for (const auto &peer : warm)
        claimed.insert(peer.begin(), peer.end());
    return claimed;
}

/** One deal of a lockstep simulation. */
struct Deal
{
    std::size_t peer;
    std::size_t gridIndex;
    bool cold;  ///< the peer had not run the point's affinity yet
};

/** Deal all of @p queue to peers that finish in lockstep: each round,
 *  peer 0, 1, … in turn takes pick()'s choice, as the coordinator's
 *  deal loop serves its idle peers in order. */
std::vector<Deal>
dealLockstep(std::deque<Supervisor::Attempt> queue,
             std::vector<std::set<Supervisor::Affinity>> &warm,
             Supervisor::Clock::time_point now)
{
    std::vector<Deal> deals;
    while (!queue.empty()) {
        for (std::size_t peer = 0; peer < warm.size() && !queue.empty();
             ++peer) {
            const auto chosen =
                Supervisor::pick(queue, warm[peer], claimedBy(warm), now);
            EXPECT_NE(chosen, queue.end());
            if (chosen == queue.end())
                return deals;
            const bool cold =
                warm[peer].insert(Supervisor::affinity(chosen->task)).second;
            deals.push_back({peer, chosen->task.gridIndex, cold});
            queue.erase(chosen);
        }
    }
    return deals;
}

TEST(AffineDealing, KeepsAWorkloadAndItsSiblingsOnOnePeer)
{
    const auto grid = fig06Shaped(kEightWorkloads);
    const auto now = Supervisor::Clock::now();
    std::vector<std::set<Supervisor::Affinity>> warm(3);
    const auto deals = dealLockstep(readyQueue(grid, now), warm, now);
    ASSERT_EQ(deals.size(), grid.size());

    // The three first deals open three different workloads.
    std::set<std::string> first;
    for (std::size_t i = 0; i < 3; ++i)
        first.insert(grid[deals[i].gridIndex].workload);
    EXPECT_EQ(first.size(), 3u);

    std::vector<std::size_t> ranBy(grid.size());
    std::set<std::size_t> seen;
    for (const auto &deal : deals) {
        ranBy[deal.gridIndex] = deal.peer;
        seen.insert(deal.gridIndex);
    }
    EXPECT_EQ(seen.size(), grid.size());

    // Until the last workload is claimed, every workload stays on the
    // peer that opened it, so each _NE runs where its _E captured its
    // prefix. The end of the sweep balances by stealing: peers with
    // nothing of their own left take points of the last two workloads,
    // which splits three of their four pairs in this lockstep.
    std::size_t kept = 0;
    for (std::size_t w = 0; w < kEightWorkloads.size(); ++w) {
        const std::size_t base = 5 * w;
        for (const std::size_t e : {base + 1, base + 3}) {
            kept += ranBy[e] == ranBy[e + 1] ? 1 : 0;
            if (w < 6) {
                EXPECT_EQ(ranBy[e], ranBy[e + 1])
                    << grid[e].workload << " point " << e;
                EXPECT_EQ(ranBy[base], ranBy[e]) << grid[e].workload;
            }
        }
    }
    EXPECT_EQ(kept, 13u);

    // One cold deal per workload, plus the three steals.
    std::size_t cold = 0;
    for (const auto &deal : deals)
        cold += deal.cold ? 1 : 0;
    EXPECT_EQ(cold, 11u);
}

TEST(AffineDealing, NeverPicksAnAttemptWaitingOutItsBackoff)
{
    const auto grid = fig06Shaped({"bt", "cg"});
    const auto now = Supervisor::Clock::now();
    auto queue = readyQueue(grid, now);
    const std::set<Supervisor::Affinity> warm = {
        Supervisor::affinity(queue[0].task)};

    // The peer's own workload is backing off: it steals cg instead of
    // waiting, and never takes a bt point early.
    for (std::size_t i = 0; i < 5; ++i)
        queue[i].readyAt = now + std::chrono::seconds(1);
    auto chosen = Supervisor::pick(queue, warm, warm, now);
    ASSERT_NE(chosen, queue.end());
    EXPECT_EQ(chosen->task.gridIndex, 5u);

    // Nothing ready: nothing is picked.
    for (auto &attempt : queue)
        attempt.readyAt = now + std::chrono::milliseconds(50);
    EXPECT_EQ(Supervisor::pick(queue, warm, warm, now), queue.end());
    EXPECT_EQ(Supervisor::pick(queue, {}, {}, now), queue.end());

    // Once its backoff expires, the attempt is the peer's first pick.
    queue[2].readyAt = now;
    queue[7].readyAt = now;
    chosen = Supervisor::pick(queue, warm, warm, now);
    ASSERT_NE(chosen, queue.end());
    EXPECT_EQ(chosen->task.gridIndex, 2u);
}

TEST(AffineDealing, RespawnedPeerTakesAnUnclaimedWorkloadFirst)
{
    const auto grid = fig06Shaped({"bt", "cg", "dc"});
    const auto now = Supervisor::Clock::now();
    auto queue = readyQueue(grid, now);
    // Peer 0 holds bt; the peer that held cg died, so only bt is
    // claimed. A fresh peer skips the bt points at the head of the
    // queue and takes cg, the first unclaimed workload.
    const std::set<Supervisor::Affinity> claimed = {
        Supervisor::affinity(queue[0].task)};
    auto chosen = Supervisor::pick(queue, {}, claimed, now);
    ASSERT_NE(chosen, queue.end());
    EXPECT_EQ(chosen->task.gridIndex, 5u);

    // With every workload claimed, it steals the queue's head.
    std::set<Supervisor::Affinity> all;
    for (const auto &attempt : queue)
        all.insert(Supervisor::affinity(attempt.task));
    chosen = Supervisor::pick(queue, {}, all, now);
    ASSERT_NE(chosen, queue.end());
    EXPECT_EQ(chosen->task.gridIndex, 0u);
}

TEST(AffineDealing, OneWorkloadIsDealtInFifoOrder)
{
    const auto grid = fig06Shaped({"is"});
    const auto now = Supervisor::Clock::now();
    std::vector<std::set<Supervisor::Affinity>> warm(3);
    const auto deals = dealLockstep(readyQueue(grid, now), warm, now);
    ASSERT_EQ(deals.size(), grid.size());
    for (std::size_t i = 0; i < deals.size(); ++i) {
        EXPECT_EQ(deals[i].gridIndex, i);
        EXPECT_EQ(deals[i].peer, i % 3);
    }
}

/** The first two tinyGrid() points, forked to @p workerCmd stand-ins
 *  under @p controls. */
std::vector<ExperimentResult>
runStandIns(const std::vector<std::string> &workerCmd,
            const ShardedSweep::SweepControls &controls,
            StatSet &hostStats)
{
    auto points = tinyGrid();
    points.pop_back();
    RunnerPool pool;
    ShardedSweep sweep(pool, 1);
    auto results = sweep.runForked(points, 2, workerCmd, {}, controls);
    hostStats = sweep.hostStats();
    return results;
}

TEST(ForkedFleet, StartupCrashCostsOneProcessPerAttempt)
{
    // Every worker dies before reading its point. A replacement is
    // forked only once a retried point is ready to be dealt to it, so
    // two points x two attempts cost four processes (two of them
    // respawns), and each reason is the reaped exit status.
    ShardedSweep::SweepControls controls;
    controls.supervise.retries = 1;
    StatSet stats;
    const auto results =
        runStandIns({"/bin/sh", "-c", "exit 42"}, controls, stats);

    ASSERT_EQ(results.size(), 2u);
    for (const auto &result : results) {
        EXPECT_TRUE(result.failed);
        EXPECT_EQ(result.attempts, 2u);
        EXPECT_NE(result.failReason.find("exited with status 42"),
                  std::string::npos)
            << result.failReason;
    }
    EXPECT_EQ(stats.get("sweep.respawns"), 2.0);
    EXPECT_EQ(stats.get("sweep.quarantined"), 2.0);
}

TEST(ForkedFleet, WatchdogKillsAndReapsWedgedWorkers)
{
    // Workers that never answer: the watchdog kills each attempt, both
    // points are quarantined, and no child outlives the sweep.
    ShardedSweep::SweepControls controls;
    controls.supervise.retries = 1;
    controls.supervise.pointTimeoutSec = 0.3;
    StatSet stats;
    const auto results =
        runStandIns({"/bin/sleep", "30"}, controls, stats);

    ASSERT_EQ(results.size(), 2u);
    for (const auto &result : results) {
        EXPECT_TRUE(result.failed);
        EXPECT_NE(result.failReason.find("--point-timeout"),
                  std::string::npos)
            << result.failReason;
    }
    EXPECT_EQ(stats.get("sweep.watchdogKills"), 4.0);
    EXPECT_EQ(stats.get("sweep.quarantined"), 2.0);
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

/** CPU seconds the calling thread has used. */
double
threadCpuSeconds()
{
    struct rusage usage{};
    ::getrusage(RUSAGE_THREAD, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec +
                               usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) *
               1e-6;
}

TEST(ForkedFleet, CoordinatorSleepsWhileEveryWorkerIsBusy)
{
    // One forked worker that never answers holds each point until the
    // watchdog kills it, while the other points wait. The coordinator
    // must sleep in poll() until the deadline rather than spin, and
    // deal the next point at once after each kill: three 0.5 s
    // watchdog periods back to back.
    ShardedSweep::SweepControls controls;
    controls.supervise.retries = 0;
    controls.supervise.pointTimeoutSec = 0.5;
    RunnerPool pool;
    ShardedSweep sweep(pool, 1);
    const double cpu_start = threadCpuSeconds();
    const auto wall_start = std::chrono::steady_clock::now();
    const auto results =
        sweep.runForked(tinyGrid(), 1, {"/bin/sleep", "30"}, {}, controls);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    const double cpu = threadCpuSeconds() - cpu_start;

    ASSERT_EQ(results.size(), 3u);
    for (const auto &result : results)
        EXPECT_TRUE(result.failed);
    EXPECT_EQ(sweep.hostStats().get("sweep.watchdogKills"), 3.0);
    // Each point went to a fresh worker.
    EXPECT_EQ(sweep.hostStats().get("sweep.coldDeals"), 3.0);
    EXPECT_LT(cpu, 0.1);
    EXPECT_NEAR(wall, 1.5, 0.3);
}

TEST(QuarantinedResult, PoisonsEveryDerivedMetric)
{
    const auto result =
        ExperimentResult::quarantined(3, "killed by signal 9");
    EXPECT_TRUE(result.failed);
    EXPECT_EQ(result.attempts, 3u);
    EXPECT_TRUE(std::isnan(result.energyPj));
    EXPECT_TRUE(std::isnan(result.edp));
    EXPECT_TRUE(std::isnan(result.timeOverheadPct(1000)));
    EXPECT_TRUE(std::isnan(result.energyOverheadPct(1000.0)));
    EXPECT_TRUE(std::isnan(result.edpReductionPct(1000.0)));
}

TEST(TableFailedCell, EveryEmitterRendersNonFiniteAsFailed)
{
    Table table({"name", "value"});
    table.row().cell(std::string("ok")).cell(1.5);
    table.row()
        .cell(std::string("poisoned"))
        .cell(std::nan(""), 2);

    std::ostringstream text, csv, json;
    table.print(text);
    table.printCsv(csv);
    table.printJson(json);
    EXPECT_NE(text.str().find("FAILED"), std::string::npos);
    EXPECT_NE(csv.str().find("FAILED"), std::string::npos);
    // The JSON emitter must quote it (bare nan would not parse).
    EXPECT_NE(json.str().find("\"FAILED\""), std::string::npos);
}

TEST(QuarantinedResult, WireRefusesToEncodeIt)
{
    // A quarantine placeholder must never masquerade as a result
    // record: its payload is NaN-poisoned, not a measurement.
    EXPECT_THROW(wire::encodeResult(
                     ExperimentResult::quarantined(2, "boom")),
                 serde::SerdeError);
}

// JournalTest: a killed sweep restarts from its ResultCache (DESIGN.md
// §10.3). Rerun with the same file, it is served by grid index every
// point that reached the file (ResultCache::served, wired into
// SweepControls as benchMain wires --cache) and simulates the rest.

TEST(JournalTest, FreshThenResumeServesRecordedResults)
{
    const auto grid = tinyGrid();
    const auto owned = allOwned(grid);
    const auto path = journalPath("fresh");
    std::remove(path.c_str());

    {
        // The killed run: points 0 and 2 reached the file.
        ResultCache cache;
        cache.open(path);
        ASSERT_TRUE(cache.isOpen());
        EXPECT_TRUE(cache.served(grid, owned).empty());
        cache.insert(grid[0], fakeResult(100));
        cache.insert(grid[2], fakeResult(300));
        EXPECT_EQ(cache.inserts(), 2u);
    }

    // The rerun serves the recorded points (the fake results prove
    // they were not re-simulated) and only point 1 reaches the
    // completion hook, which appends it.
    ResultCache cache;
    cache.open(path);
    const auto served = cache.served(grid, owned);
    ASSERT_EQ(served.size(), 2u);
    std::vector<std::size_t> simulated;
    ShardedSweep::SweepControls controls;
    controls.cache = &served;
    controls.completed = [&](std::size_t index,
                             const ExperimentResult &result) {
        simulated.push_back(index);
        cache.insert(grid[index], result);
    };
    RunnerPool pool;
    const auto results = ShardedSweep(pool, 1).run(grid, {}, controls);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(dump(results[0]), dump(fakeResult(100)));
    EXPECT_EQ(dump(results[2]), dump(fakeResult(300)));
    EXPECT_EQ(simulated, std::vector<std::size_t>{1});
    EXPECT_FALSE(results[1].failed);
    EXPECT_GT(results[1].cycles, 0u);
    EXPECT_EQ(cache.inserts(), 1u);
    cache.close();

    // The rerun appended, so restarting twice still works.
    ResultCache full;
    full.open(path);
    const auto all = full.served(grid, owned);
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(dump(all.at(1)), dump(results[1]));
    std::remove(path.c_str());
}

TEST(JournalTest, WriteFailureDegradesInsteadOfDying)
{
    const auto grid = tinyGrid();
    const auto owned = allOwned(grid);
    const auto path = journalPath("enospc");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));

        // The next append hits (injected) ENOSPC: the journal must
        // warn and degrade, not fatal() — a full disk may disable
        // restarts but never kill the sweep itself.
        cache.failNextWriteForTest();
        cache.insert(grid[1], fakeResult(200));
        EXPECT_TRUE(cache.degraded());
        EXPECT_TRUE(cache.isOpen());
        EXPECT_EQ(cache.inserts(), 1u);  // only the durable one

        // Further appends are silent no-ops, not crashes.
        cache.insert(grid[2], fakeResult(300));
        EXPECT_EQ(cache.inserts(), 1u);
    }

    // The file holds exactly the entries appended before the failure:
    // a clean durable prefix a rerun can still load (the lost points
    // simply rerun).
    ResultCache reloaded;
    reloaded.open(path);
    const auto served = reloaded.served(grid, owned);
    ASSERT_EQ(served.size(), 1u);
    EXPECT_EQ(dump(served.at(0)), dump(fakeResult(100)));
    std::remove(path.c_str());
}

TEST(JournalTest, ResumeWithMissingFileStartsFresh)
{
    const auto grid = tinyGrid();
    const auto path = journalPath("missing");
    std::remove(path.c_str());

    ResultCache cache;
    cache.open(path);
    EXPECT_TRUE(cache.isOpen());
    EXPECT_TRUE(cache.served(grid, allOwned(grid)).empty());
    EXPECT_EQ(cache.misses(), grid.size());
    cache.close();
    std::remove(path.c_str());
}

TEST(JournalTest, TornFinalLineIsDropped)
{
    const auto grid = tinyGrid();
    const auto owned = allOwned(grid);
    const auto path = journalPath("torn");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
        cache.insert(grid[1], fakeResult(200));
    }
    // Simulate the coordinator dying mid-append: chop the trailing
    // newline and part of the final entry.
    std::string content;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        content = buffer.str();
    }
    ASSERT_GT(content.size(), 40u);
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out << content.substr(0, content.size() - 40);
    }

    ResultCache reloaded;
    reloaded.open(path);
    const auto served = reloaded.served(grid, owned);
    ASSERT_EQ(served.size(), 1u);
    EXPECT_EQ(dump(served.at(0)), dump(fakeResult(100)));
    // Point 1 reruns and its fresh entry appends cleanly.
    reloaded.insert(grid[1], fakeResult(200));
    EXPECT_EQ(reloaded.inserts(), 1u);
    reloaded.close();

    ResultCache full;
    full.open(path);
    EXPECT_EQ(full.served(grid, owned).size(), 2u);
    std::remove(path.c_str());
}

TEST(JournalTest, QuarantinedPointsAreNotServedSoTheyRerun)
{
    const auto grid = tinyGrid();
    const auto path = journalPath("failed");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
        cache.insert(
            grid[1], ExperimentResult::quarantined(3, "killed by signal 9"));
        EXPECT_EQ(cache.inserts(), 1u);  // never stored
    }

    ResultCache reloaded;
    reloaded.open(path);
    const auto served = reloaded.served(grid, allOwned(grid));
    EXPECT_EQ(served.size(), 1u);
    EXPECT_EQ(served.count(1), 0u);
    std::remove(path.c_str());
}

} // namespace
