/**
 * @file
 * Fault-tolerance layer tests (DESIGN.md §10): backoff determinism,
 * the forked fleet against stand-in workers that crash at startup or
 * wedge (one process per attempt, every child reaped), the quarantine
 * placeholder and its FAILED-cell rendering, the `failed` wire
 * record, and the crash-safe Journal — fresh/reload round trips,
 * torn-tail tolerance, failed-record rerun semantics, and grid
 * validation. The end-to-end crash/respawn/resume behavior against
 * real bench workers is exercised by tests/fault_smoke.cmake.
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

/** Per-test journal path under gtest's temp dir. */
std::string
journalPath(const std::string &tag)
{
    return testing::TempDir() + "acr_journal_" + tag + "_" +
           std::to_string(::getpid()) + ".ndjson";
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

TEST(WireFailed, RoundTripsAndResultEncodingRefusesQuarantine)
{
    wire::FailedRecord record;
    record.index = 11;
    record.attempts = 3;
    record.reason = "worker killed by signal 9";
    const auto decoded =
        wire::decodeLine(wire::encodeFailedLine(record));
    ASSERT_EQ(decoded.type, wire::Record::Type::kFailed);
    EXPECT_EQ(decoded.failed.index, 11u);
    EXPECT_EQ(decoded.failed.attempts, 3u);
    EXPECT_EQ(decoded.failed.reason, record.reason);

    // A quarantine placeholder must never masquerade as a result
    // record: its payload is NaN-poisoned, not a measurement.
    EXPECT_THROW(wire::encodeResult(
                     ExperimentResult::quarantined(2, "boom")),
                 serde::SerdeError);
}

TEST(JournalTest, FreshThenResumeServesRecordedResults)
{
    const auto grid = tinyGrid();
    const auto path = journalPath("fresh");

    {
        Journal journal;
        journal.open(path, false, "bench", 0, 1, grid);
        ASSERT_TRUE(journal.isOpen());
        EXPECT_TRUE(journal.entries().empty());
        journal.record(0, fakeResult(100));
        journal.record(2, fakeResult(300));
        EXPECT_EQ(journal.appended(), 2u);
    }

    Journal reloaded;
    reloaded.open(path, true, "bench", 0, 1, grid);
    ASSERT_EQ(reloaded.entries().size(), 2u);
    EXPECT_EQ(dump(reloaded.entries().at(0)), dump(fakeResult(100)));
    EXPECT_EQ(dump(reloaded.entries().at(2)), dump(fakeResult(300)));
    // The reopened journal appends, so resuming twice still works.
    EXPECT_EQ(reloaded.appended(), 0u);
    reloaded.record(1, fakeResult(200));
    reloaded.close();

    Journal full;
    full.open(path, true, "bench", 0, 1, grid);
    EXPECT_EQ(full.entries().size(), 3u);
    std::remove(path.c_str());
}

TEST(JournalTest, WriteFailureDegradesInsteadOfDying)
{
    const auto grid = tinyGrid();
    const auto path = journalPath("enospc");

    {
        Journal journal;
        journal.open(path, false, "bench", 0, 1, grid);
        journal.record(0, fakeResult(100));

        // The next append hits (injected) ENOSPC: the journal must
        // warn and degrade, not fatal() — a full disk may disable
        // resumability but never kill the sweep itself.
        journal.failNextWriteForTest();
        journal.record(1, fakeResult(200));
        EXPECT_TRUE(journal.degraded());
        EXPECT_TRUE(journal.isOpen());
        EXPECT_EQ(journal.appended(), 1u);  // only the durable one

        // Further records are silent no-ops, not crashes.
        journal.record(2, fakeResult(300));
        EXPECT_EQ(journal.appended(), 1u);
    }

    // The file holds exactly the records appended before the failure:
    // a clean durable prefix a --resume can still load (the lost
    // points simply rerun).
    Journal reloaded;
    reloaded.open(path, true, "bench", 0, 1, grid);
    ASSERT_EQ(reloaded.entries().size(), 1u);
    EXPECT_EQ(dump(reloaded.entries().at(0)), dump(fakeResult(100)));
    std::remove(path.c_str());
}

TEST(JournalTest, WithoutResumeTruncatesExistingJournal)
{
    const auto grid = tinyGrid();
    const auto path = journalPath("truncate");

    {
        Journal journal;
        journal.open(path, false, "bench", 0, 1, grid);
        journal.record(0, fakeResult(100));
    }
    Journal fresh;
    fresh.open(path, false, "bench", 0, 1, grid);
    EXPECT_TRUE(fresh.entries().empty());
    fresh.close();

    Journal reloaded;
    reloaded.open(path, true, "bench", 0, 1, grid);
    EXPECT_TRUE(reloaded.entries().empty());
    std::remove(path.c_str());
}

TEST(JournalTest, ResumeWithMissingFileStartsFresh)
{
    const auto grid = tinyGrid();
    const auto path = journalPath("missing");
    std::remove(path.c_str());

    Journal journal;
    journal.open(path, true, "bench", 0, 1, grid);
    EXPECT_TRUE(journal.isOpen());
    EXPECT_TRUE(journal.entries().empty());
    journal.close();
    std::remove(path.c_str());
}

TEST(JournalTest, TornFinalLineIsDropped)
{
    const auto grid = tinyGrid();
    const auto path = journalPath("torn");

    {
        Journal journal;
        journal.open(path, false, "bench", 0, 1, grid);
        journal.record(0, fakeResult(100));
        journal.record(1, fakeResult(200));
    }
    // Simulate the coordinator dying mid-append: chop the trailing
    // newline and half the final record.
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

    Journal reloaded;
    reloaded.open(path, true, "bench", 0, 1, grid);
    ASSERT_EQ(reloaded.entries().size(), 1u);
    EXPECT_EQ(dump(reloaded.entries().at(0)), dump(fakeResult(100)));
    // Point 1 reruns and its fresh record appends cleanly.
    reloaded.record(1, fakeResult(200));
    reloaded.close();

    Journal full;
    full.open(path, true, "bench", 0, 1, grid);
    EXPECT_EQ(full.entries().size(), 2u);
    std::remove(path.c_str());
}

TEST(JournalTest, FailedRecordsAreSkippedSoQuarantinedPointsRerun)
{
    const auto grid = tinyGrid();
    const auto path = journalPath("failed");

    {
        Journal journal;
        journal.open(path, false, "bench", 0, 1, grid);
        journal.record(0, fakeResult(100));
        journal.record(
            1, ExperimentResult::quarantined(3, "killed by signal 9"));
        EXPECT_EQ(journal.appended(), 2u);
    }

    Journal reloaded;
    reloaded.open(path, true, "bench", 0, 1, grid);
    EXPECT_EQ(reloaded.entries().size(), 1u);
    EXPECT_EQ(reloaded.entries().count(1), 0u);
    std::remove(path.c_str());
}

TEST(JournalTest, ResumeValidatesBenchShardAndGrid)
{
    const auto grid = tinyGrid();
    const auto path = journalPath("validate");

    {
        Journal journal;
        journal.open(path, false, "bench", 0, 1, grid);
        journal.record(0, fakeResult(100));
    }

    EXPECT_EXIT(
        {
            Journal journal;
            journal.open(path, true, "other", 0, 1, grid);
        },
        testing::ExitedWithCode(1), "belongs to bench");
    EXPECT_EXIT(
        {
            Journal journal;
            journal.open(path, true, "bench", 1, 2, grid);
        },
        testing::ExitedWithCode(1), "shard");
    EXPECT_EXIT(
        {
            auto other = tinyGrid();
            other.pop_back();
            Journal journal;
            journal.open(path, true, "bench", 0, 1, other);
        },
        testing::ExitedWithCode(1), "different grid");
    std::remove(path.c_str());
}

} // namespace
