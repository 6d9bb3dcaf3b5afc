/**
 * @file
 * Fault-tolerance layer tests (DESIGN.md §10): backoff determinism,
 * the forked fleet against stand-in workers that crash at startup or
 * wedge (one process per attempt, every child reaped), the quarantine
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

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
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
