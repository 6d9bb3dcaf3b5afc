/**
 * @file
 * ShardedSweep tests: the static partition is disjoint and covering,
 * "i/N" parsing is strict, the ordered sink fires in ascending grid
 * order even under parallel execution, shards executed in separate
 * pools merge to exactly the unsharded results (the wire encodings are
 * compared byte-for-byte), and the --worker loop speaks net frames
 * over plain streams.
 *
 * SweepDeterminism locks the in-process executor itself: fanning a
 * sweep out across threads must be observationally invisible. An
 * 8-workload × {NoCkpt, Ckpt, ReCkpt} grid run with jobs=1 and jobs=8
 * must produce bit-identical ExperimentResults — every scalar field,
 * every StatSet entry, every per-interval history record. Two
 * independent RunnerPools are used so even the cache-fill work
 * (program builds, slice passes) happens under different schedules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "harness/net.hh"
#include "harness/sharded_sweep.hh"
#include "harness/wire.hh"

namespace
{

using namespace acr;
using namespace acr::harness;

std::vector<GridPoint>
smallGrid()
{
    // is on a 2-core machine is the cheapest sweep point; vary the
    // config axis so every result differs.
    std::vector<GridPoint> points;
    ExperimentConfig config;
    config.mode = BerMode::kNoCkpt;
    points.push_back({"is", config, 2});
    config.mode = BerMode::kCkpt;
    points.push_back({"is", config, 2});
    config.mode = BerMode::kReCkpt;
    points.push_back({"is", config, 2});
    config.numErrors = 1;
    points.push_back({"is", config, 2});
    config.mode = BerMode::kCkpt;
    points.push_back({"is", config, 2});
    return points;
}

std::vector<std::string>
encodeAll(const std::vector<ExperimentResult> &results)
{
    std::vector<std::string> lines;
    for (const auto &result : results) {
        EXPECT_EQ(result.oracleDivergences, 0u) << result.oracleReport;
        lines.push_back(wire::encodeResult(result).dump());
    }
    return lines;
}

TEST(ShardIndices, DisjointAndCovering)
{
    for (std::size_t total : {0u, 1u, 7u, 16u}) {
        for (unsigned count : {1u, 2u, 3u, 5u}) {
            std::set<std::size_t> seen;
            for (unsigned shard = 0; shard < count; ++shard) {
                const auto owned = ShardedSweep::shardIndices(
                    total, {shard, count});
                EXPECT_TRUE(
                    std::is_sorted(owned.begin(), owned.end()));
                for (std::size_t index : owned) {
                    EXPECT_EQ(index % count, shard);
                    EXPECT_LT(index, total);
                    EXPECT_TRUE(seen.insert(index).second)
                        << "index " << index << " owned twice";
                }
            }
            EXPECT_EQ(seen.size(), total);
        }
    }
}

TEST(ShardParse, AcceptsAndRejects)
{
    const auto shard = ShardedSweep::parseShard("1/3");
    EXPECT_EQ(shard.index, 1u);
    EXPECT_EQ(shard.count, 3u);

    const auto zero = ShardedSweep::parseShard("0/1");
    EXPECT_EQ(zero.index, 0u);
    EXPECT_EQ(zero.count, 1u);

    // strtol would happily take signs, spaces, and leading zeros;
    // only the canonical `digits/digits` spelling is a valid shard,
    // so the same string always names the same slice of the grid.
    for (const char *bad : {"", "/", "1", "3/3", "4/3", "a/2", "1/b",
                            "-1/2", "1/0", "1/2x", "+1/4", " 1/4",
                            "1/+4", "1/ 4", "01/4", "1/04", "0x1/4",
                            "1//4", "1/4/4"}) {
        EXPECT_EXIT(ShardedSweep::parseShard(bad),
                    testing::ExitedWithCode(1), "shard")
            << "accepted '" << bad << "'";
    }
}

TEST(ShardedSweepRun, MatchesAcrossJobCountsAndSinkIsOrdered)
{
    const auto grid = smallGrid();

    RunnerPool serial_pool;
    ShardedSweep serial(serial_pool, 1);
    const auto reference = encodeAll(serial.run(grid));
    ASSERT_EQ(reference.size(), grid.size());

    RunnerPool parallel_pool;
    ShardedSweep parallel(parallel_pool, 4);
    std::vector<std::size_t> order;
    const auto results = parallel.run(
        grid, {},
        [&](std::size_t index, const ExperimentResult &) {
            order.push_back(index);
        });
    EXPECT_EQ(encodeAll(results), reference);

    // The sink saw every grid index, in ascending order.
    std::vector<std::size_t> expected(grid.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        expected[i] = i;
    EXPECT_EQ(order, expected);
}

TEST(ShardedSweepRun, ShardsMergeToTheUnshardedResults)
{
    const auto grid = smallGrid();

    RunnerPool reference_pool;
    const auto reference =
        encodeAll(ShardedSweep(reference_pool, 1).run(grid));

    // Each shard in its own pool: nothing shared but the wire format,
    // exactly like two machines.
    std::vector<std::string> merged(grid.size());
    for (unsigned shard = 0; shard < 2; ++shard) {
        RunnerPool pool;
        ShardedSweep sweep(pool, 2);
        const auto owned =
            ShardedSweep::shardIndices(grid.size(), {shard, 2});
        const auto results = sweep.run(grid, {shard, 2});
        ASSERT_EQ(results.size(), owned.size());
        for (std::size_t i = 0; i < owned.size(); ++i)
            merged[owned[i]] = wire::encodeResult(results[i]).dump();
    }
    EXPECT_EQ(merged, reference);
}

std::vector<GridPoint>
determinismGrid()
{
    std::vector<GridPoint> points;
    for (const auto &name : workloads::allWorkloadNames()) {
        for (auto mode :
             {BerMode::kNoCkpt, BerMode::kCkpt, BerMode::kReCkpt}) {
            ExperimentConfig config;
            config.mode = mode;
            config.numCheckpoints = 15;
            config.numErrors = mode == BerMode::kNoCkpt ? 0 : 1;
            config.sliceThreshold = 0;  // per-workload default
            points.push_back({name, config, 4});
        }
    }
    return points;
}

void
expectBitIdentical(const ExperimentResult &serial,
                   const ExperimentResult &parallel,
                   const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(serial.cycles, parallel.cycles);
    EXPECT_EQ(serial.energyPj, parallel.energyPj);  // exact, not near
    EXPECT_EQ(serial.edp, parallel.edp);
    EXPECT_EQ(serial.checkpointsEstablished,
              parallel.checkpointsEstablished);
    EXPECT_EQ(serial.recoveries, parallel.recoveries);
    EXPECT_EQ(serial.ckptBytesStored, parallel.ckptBytesStored);
    EXPECT_EQ(serial.ckptBytesOmitted, parallel.ckptBytesOmitted);

    // Every StatSet entry: same names, same exact values.
    EXPECT_EQ(serial.stats.size(), parallel.stats.size());
    for (const auto &[name, value] : serial.stats.all()) {
        EXPECT_TRUE(parallel.stats.has(name)) << name;
        EXPECT_EQ(value, parallel.stats.get(name)) << name;
    }

    ASSERT_EQ(serial.history.size(), parallel.history.size());
    for (std::size_t i = 0; i < serial.history.size(); ++i) {
        const auto &s = serial.history[i];
        const auto &p = parallel.history[i];
        EXPECT_EQ(s.interval, p.interval);
        EXPECT_EQ(s.records, p.records);
        EXPECT_EQ(s.amnesicRecords, p.amnesicRecords);
        EXPECT_EQ(s.loggedBytes, p.loggedBytes);
        EXPECT_EQ(s.omittedBytes, p.omittedBytes);
        EXPECT_EQ(s.flushedLines, p.flushedLines);
        EXPECT_EQ(s.archBytes, p.archBytes);
    }
}

TEST(SweepDeterminism, Jobs8MatchesJobs1BitForBit)
{
    const auto points = determinismGrid();

    RunnerPool serial_pool;
    const auto serial = ShardedSweep(serial_pool, 1).run(points);

    RunnerPool parallel_pool;
    const auto parallel = ShardedSweep(parallel_pool, 8).run(points);

    ASSERT_EQ(serial.size(), points.size());
    ASSERT_EQ(parallel.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        expectBitIdentical(serial[i], parallel[i],
                           points[i].workload + "/" +
                               points[i].config.label());
    }
}

TEST(SweepDeterminism, ResultsComeBackInSubmissionOrder)
{
    // Distinguishable points (different checkpoint counts for one
    // workload): slot i must hold point i's result even when workers
    // finish out of order.
    RunnerPool pool;
    std::vector<GridPoint> points;
    for (unsigned checkpoints : {5u, 10u, 15u, 20u}) {
        ExperimentConfig config;
        config.mode = BerMode::kCkpt;
        config.numCheckpoints = checkpoints;
        config.sliceThreshold = 0;
        points.push_back({"is", config, 2});
    }
    const auto serial = ShardedSweep(pool, 1).run(points);
    std::set<std::uint64_t> distinct;
    for (const auto &result : serial)
        distinct.insert(result.checkpointsEstablished);
    ASSERT_EQ(distinct.size(), points.size())
        << "points must be distinguishable for the order check";

    const auto results = ShardedSweep(pool, 8).run(points);
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(results[i].checkpointsEstablished,
                  serial[i].checkpointsEstablished)
            << "slot " << i;
    }
}

TEST(SweepDeterminism, HostTimingStaysOutOfResults)
{
    // Wall-clock depends on scheduling, so it must never leak into
    // ExperimentResult.stats — it lives in hostStats() only.
    RunnerPool pool;
    ExperimentConfig config;
    config.mode = BerMode::kCkpt;
    config.numCheckpoints = 5;
    config.sliceThreshold = 0;

    ShardedSweep sweep(pool, 2);
    const auto results = sweep.run({{"is", config, 2}});
    ASSERT_EQ(results.size(), 1u);
    for (const auto &[name, value] : results[0].stats.all())
        EXPECT_EQ(name.rfind("sweep.", 0), std::string::npos) << name;

    EXPECT_EQ(sweep.hostStats().get("sweep.points"), 1.0);
    EXPECT_EQ(sweep.hostStats().get("sweep.jobs"), 2.0);
    EXPECT_GT(sweep.hostStats().get("sweep.wallMillis"), 0.0);
    EXPECT_TRUE(sweep.hostStats().has("sweep.point.000.millis"));
}

TEST(SweepDeterminism, EmptySweepAndDefaultJobs)
{
    RunnerPool pool;
    ShardedSweep sweep(pool, 3);
    EXPECT_EQ(sweep.jobs(), 3u);
    EXPECT_TRUE(sweep.run({}).empty());
    EXPECT_GE(ShardedSweep::defaultJobs(), 1u);
    EXPECT_EQ(ShardedSweep(pool).jobs(), ShardedSweep::defaultJobs());
}

/** Run the --worker loop over @p input; its output lands in @p reply. */
int
runWorker(RunnerPool &pool, const std::string &input, std::string &reply)
{
    std::istringstream in(input);
    std::ostringstream out;
    const int status = ShardedSweep::workerLoop(pool, in, out);
    reply = out.str();
    return status;
}

/** Split a worker's output into its frames. */
std::vector<net::Frame>
splitFrames(const std::string &bytes)
{
    std::vector<net::Frame> frames;
    std::size_t off = 0;
    while (off + net::kFrameHeaderBytes <= bytes.size()) {
        net::Frame frame;
        std::uint32_t length = 0;
        std::string error;
        EXPECT_TRUE(net::decodeFrameHeader(bytes.data() + off, length,
                                           frame.type, error))
            << error;
        frame.payload = bytes.substr(off + net::kFrameHeaderBytes, length);
        off += net::kFrameHeaderBytes + length;
        frames.push_back(std::move(frame));
    }
    EXPECT_EQ(off, bytes.size()) << "trailing partial frame";
    return frames;
}

TEST(WorkerLoop, SpeaksTheWireProtocol)
{
    const auto grid = smallGrid();

    RunnerPool reference_pool;
    const auto reference =
        encodeAll(ShardedSweep(reference_pool, 1).run(grid));

    // Deal the points out of order to prove the worker echoes indices
    // rather than renumbering; the stream then ends (EOF: exit 0).
    std::string request;
    for (std::size_t index : {2UL, 0UL, 4UL})
        request += net::encodeFrame(
            net::FrameType::kWire,
            wire::encodePointLine({index, grid[index]}));

    RunnerPool worker_pool;
    std::string reply;
    EXPECT_EQ(runWorker(worker_pool, request, reply), 0);

    std::vector<std::uint64_t> indices;
    for (const auto &frame : splitFrames(reply)) {
        ASSERT_EQ(frame.type, net::FrameType::kWire);
        const auto record = wire::decodeLine(frame.payload);
        ASSERT_EQ(record.type, wire::Record::Type::kResult);
        indices.push_back(record.result.index);
        EXPECT_EQ(wire::encodeResult(record.result.result).dump(),
                  reference[record.result.index]);
    }
    EXPECT_EQ(indices, (std::vector<std::uint64_t>{2, 0, 4}));
}

TEST(WorkerLoop, EndsOnShutdownOrEof)
{
    RunnerPool pool;
    std::string reply;

    // A shutdown exits 0 without reading further or answering.
    EXPECT_EQ(runWorker(pool,
                        net::encodeFrame(net::FrameType::kShutdown, "") +
                            "not even a frame",
                        reply),
              0);
    EXPECT_TRUE(reply.empty());

    // EOF between frames — the coordinator closed the stream — is a
    // clean end too.
    EXPECT_EQ(runWorker(pool, "", reply), 0);
    EXPECT_TRUE(reply.empty());
}

TEST(WorkerLoop, RejectsGarbageWithNonzeroStatus)
{
    RunnerPool pool;
    std::string reply;

    // Well-framed payloads that are not point records.
    EXPECT_NE(runWorker(pool,
                        net::encodeFrame(net::FrameType::kWire,
                                         "{\"v\":2,\"type\":\"result\"}"),
                        reply),
              0);
    EXPECT_NE(runWorker(pool,
                        net::encodeFrame(net::FrameType::kWire,
                                         "not a record"),
                        reply),
              0);

    // An unknown frame type.
    std::string unknown = net::encodeFrame(net::FrameType::kShutdown, "");
    unknown[4] = 9;
    EXPECT_NE(runWorker(pool, unknown, reply), 0);

    // A length header past kMaxFramePayload: a garbled stream,
    // rejected before any allocation.
    std::string oversized = net::encodeFrame(net::FrameType::kWire, "");
    oversized.replace(0, 4, "\xff\xff\xff\xff");
    EXPECT_NE(runWorker(pool, oversized, reply), 0);
    EXPECT_TRUE(reply.empty());
}

} // namespace
