/**
 * @file
 * ResultCache tests (DESIGN.md §10, §11): content-addressed keying is
 * position- and bench-independent, persisted entries round-trip
 * byte-exactly across repeated reopens (the restart of a killed
 * sweep), quarantined results are never cached, concurrent inserts
 * and counter reads are race-free, concatenated files serve every
 * segment whose header this build reads, and every corruption mode —
 * torn tail, flipped byte in a point or a result, stale cache or wire
 * version, garbage header — degrades to a miss (recompute), never a
 * crash. The end-to-end
 * warm-replay and cross-bench determinism contract is exercised
 * against real bench binaries by tests/cache_smoke.cmake, and the
 * restart of a killed sweep by tests/fault_smoke.cmake and
 * tests/distributed_smoke.sh.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/result_cache.hh"

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

std::string
cachePath(const std::string &tag)
{
    return testing::TempDir() + "acr_cache_" + tag + "_" +
           std::to_string(::getpid()) + ".ndjson";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

TEST(PointHash, ContentAddressedAndSensitiveToEveryAxis)
{
    const auto grid = tinyGrid();

    // Same content, same hash — regardless of containing vector or
    // "bench": the hash covers only (workload, config, threads).
    GridPoint copy = grid[0];
    EXPECT_EQ(wire::pointHash(grid[0]), wire::pointHash(copy));

    // Distinct configs, workloads, and thread counts all separate.
    EXPECT_NE(wire::pointHash(grid[0]), wire::pointHash(grid[1]));
    copy.workload = "mg";
    EXPECT_NE(wire::pointHash(grid[0]), wire::pointHash(copy));
    copy = grid[0];
    copy.threads = 4;
    EXPECT_NE(wire::pointHash(grid[0]), wire::pointHash(copy));
}

TEST(ResultCacheTest, FreshInsertThenReopenServesByContent)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("fresh");
    // A missing file opens as an empty cache.
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        ASSERT_TRUE(cache.isOpen());
        EXPECT_EQ(cache.size(), 0u);
        EXPECT_EQ(cache.find(grid[0]), nullptr);
        cache.insert(grid[0], fakeResult(100));
        cache.insert(grid[2], fakeResult(300));
        EXPECT_EQ(cache.inserts(), 2u);
        EXPECT_EQ(cache.misses(), 1u);

        // Hits serve the exact stored payload.
        const auto *hit = cache.find(grid[0]);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(dump(*hit), dump(fakeResult(100)));
        EXPECT_EQ(cache.hits(), 1u);
    }

    {
        ResultCache reloaded;
        reloaded.open(path);
        EXPECT_EQ(reloaded.size(), 2u);
        EXPECT_EQ(reloaded.inserts(), 0u);
        // Content addressing: lookup works from a freshly built,
        // distinct GridPoint object (different grid position,
        // different "bench").
        auto probe = tinyGrid()[2];
        const auto *hit = reloaded.find(probe);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(dump(*hit), dump(fakeResult(300)));
        EXPECT_EQ(reloaded.find(tinyGrid()[1]), nullptr);
        // The reopened cache appends, so a second restart serves
        // what the first one added.
        reloaded.insert(grid[1], fakeResult(200));
        EXPECT_EQ(reloaded.inserts(), 1u);
    }

    ResultCache full;
    full.open(path);
    EXPECT_EQ(full.size(), 3u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto *hit = full.find(grid[i]);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(dump(*hit), dump(fakeResult(100 * (i + 1))));
    }
    std::remove(path.c_str());
}

TEST(ResultCacheTest, ConcurrentInsertsAndCounterReads)
{
    constexpr unsigned kThreads = 4;
    constexpr unsigned kPerThread = 8;
    const auto path = cachePath("concurrent");
    std::remove(path.c_str());

    // kThreads * kPerThread distinct points: the seed separates them.
    std::vector<GridPoint> points;
    for (unsigned i = 0; i < kThreads * kPerThread; ++i) {
        ExperimentConfig config;
        config.mode = BerMode::kCkpt;
        config.seed = i;
        points.push_back({"is", config, 2});
    }

    {
        ResultCache cache;
        cache.open(path);
        // The in-process sweep inserts from worker threads while the
        // completion hook reads inserts(); TSan checks the pairing.
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kThreads; ++t)
            threads.emplace_back([&cache, &points, t] {
                std::uint64_t seen = 0;
                for (unsigned i = 0; i < kPerThread; ++i) {
                    const unsigned index = t * kPerThread + i;
                    cache.insert(points[index], fakeResult(index + 1));
                    const std::uint64_t now = cache.inserts();
                    EXPECT_GT(now, seen);
                    seen = now;
                }
            });
        for (auto &thread : threads)
            thread.join();
        EXPECT_EQ(cache.inserts(), kThreads * kPerThread);
        EXPECT_EQ(cache.size(), kThreads * kPerThread);
    }

    ResultCache reloaded;
    reloaded.open(path);
    EXPECT_EQ(reloaded.size(), kThreads * kPerThread);
    for (unsigned i = 0; i < points.size(); ++i) {
        const auto *hit = reloaded.find(points[i]);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(dump(*hit), dump(fakeResult(i + 1)));
    }
    EXPECT_EQ(reloaded.hits(), kThreads * kPerThread);
    EXPECT_EQ(reloaded.misses(), 0u);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, DuplicateInsertIsANoOp)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("dup");
    std::remove(path.c_str());

    ResultCache cache;
    cache.open(path);
    cache.insert(grid[0], fakeResult(100));
    const auto bytes = readFile(path).size();
    cache.insert(grid[0], fakeResult(100));
    EXPECT_EQ(cache.inserts(), 1u);
    EXPECT_EQ(readFile(path).size(), bytes);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, QuarantinedResultsAreNeverCached)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("quarantine");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0],
                     ExperimentResult::quarantined(3, "signal 9"));
        EXPECT_EQ(cache.inserts(), 0u);
        EXPECT_EQ(cache.size(), 0u);
    }
    ResultCache reloaded;
    reloaded.open(path);
    EXPECT_EQ(reloaded.find(grid[0]), nullptr);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, TornFinalLineIsDroppedAndTruncated)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("torn");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
        cache.insert(grid[1], fakeResult(200));
    }
    // Chop the trailing newline and half the final entry.
    const auto content = readFile(path);
    ASSERT_GT(content.size(), 40u);
    writeFile(path, content.substr(0, content.size() - 40));

    {
        ResultCache reloaded;
        reloaded.open(path);
        EXPECT_EQ(reloaded.size(), 1u);
        EXPECT_NE(reloaded.find(grid[0]), nullptr);
        EXPECT_EQ(reloaded.find(grid[1]), nullptr);
        // The file was truncated to the durable prefix, so a fresh
        // append lands on a clean line boundary.
        reloaded.insert(grid[1], fakeResult(200));
    }
    ResultCache full;
    full.open(path);
    EXPECT_EQ(full.size(), 2u);
    EXPECT_NE(full.find(grid[1]), nullptr);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, FlippedByteSkipsOnlyThatEntry)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("flip");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
        cache.insert(grid[1], fakeResult(200));
    }
    // Corrupt a byte inside the first entry (the second line) only.
    auto content = readFile(path);
    const auto header_end = content.find('\n');
    ASSERT_NE(header_end, std::string::npos);
    const auto flip = content.find("\"type\":\"entry\"", header_end);
    ASSERT_NE(flip, std::string::npos);
    content[flip + 9] = 'X';  // "entry" -> "Xntry"
    writeFile(path, content);

    ResultCache reloaded;
    reloaded.open(path);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_EQ(reloaded.find(grid[0]), nullptr);  // served as a miss
    const auto *hit = reloaded.find(grid[1]);    // neighbor survives
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(dump(*hit), dump(fakeResult(200)));
    std::remove(path.c_str());
}

TEST(ResultCacheTest, FlippedResultDigitIsAMiss)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("flipdigit");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
        cache.insert(grid[1], fakeResult(200));
    }
    // A digit flipped inside the first stored result still parses as
    // a result; the entry's key must catch it, or the wrong number
    // would be served as a hit.
    auto content = readFile(path);
    const std::string stored = "\"cycles\":100,";
    const auto at = content.find(stored);
    ASSERT_NE(at, std::string::npos);
    content.replace(at, stored.size(), "\"cycles\":190,");
    writeFile(path, content);

    {
        ResultCache reloaded;
        reloaded.open(path);
        EXPECT_EQ(reloaded.size(), 1u);
        EXPECT_EQ(reloaded.find(grid[0]), nullptr);
        EXPECT_EQ(reloaded.misses(), 1u);
        EXPECT_NE(reloaded.find(grid[1]), nullptr);
        // The recomputed point is stored again.
        reloaded.insert(grid[0], fakeResult(100));
        EXPECT_EQ(reloaded.inserts(), 1u);
    }
    ResultCache full;
    full.open(path);
    const auto *hit = full.find(grid[0]);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(dump(*hit), dump(fakeResult(100)));
    std::remove(path.c_str());
}

/** The cache at @p path holding tinyGrid()'s three points, the first
 *  with one digit of its result flipped (the open skips that line);
 *  the file's content. */
std::string
writeWithFlippedEntry(const std::string &path)
{
    const auto grid = tinyGrid();
    std::remove(path.c_str());
    {
        ResultCache cache;
        cache.open(path);
        for (std::size_t i = 0; i < grid.size(); ++i)
            cache.insert(grid[i], fakeResult(100 * (i + 1)));
    }
    auto content = readFile(path);
    const std::string stored = "\"cycles\":100,";
    const auto at = content.find(stored);
    EXPECT_NE(at, std::string::npos);
    if (at != std::string::npos)
        content.replace(at, stored.size(), "\"cycles\":190,");
    writeFile(path, content);
    return content;
}

/** Lines of @p content. */
std::size_t
lineCount(const std::string &content)
{
    return static_cast<std::size_t>(
        std::count(content.begin(), content.end(), '\n'));
}

TEST(ResultCacheTest, OpenThatSkipsALineCompactsTheFile)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("compact");
    writeWithFlippedEntry(path);

    {
        testing::internal::CaptureStderr();
        ResultCache cache;
        cache.open(path);
        const std::string warnings =
            testing::internal::GetCapturedStderr();
        EXPECT_NE(warnings.find("skipping unreadable entry 1"),
                  std::string::npos)
            << warnings;
        EXPECT_EQ(cache.size(), 2u);
        // Rewritten as one header plus the two entries it serves.
        EXPECT_EQ(lineCount(readFile(path)), 3u);
        cache.insert(grid[0], fakeResult(100));
    }
    // The skipped line is gone, so the next open is silent and serves
    // every entry, the re-inserted one included.
    const std::string compacted = readFile(path);
    testing::internal::CaptureStderr();
    ResultCache reopened;
    reopened.open(path);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(reopened.size(), 3u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto *hit = reopened.find(grid[i]);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(dump(*hit), dump(fakeResult(100 * (i + 1))));
    }
    EXPECT_EQ(readFile(path), compacted) << "a clean open rewrites nothing";
    std::remove(path.c_str());
}

TEST(ResultCacheTest, FailedCompactionKeepsTheFile)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("compactfail");
    const std::string content = writeWithFlippedEntry(path);

    {
        testing::internal::CaptureStderr();
        ResultCache cache;
        cache.failNextWriteForTest();
        cache.open(path);
        const std::string warnings =
            testing::internal::GetCapturedStderr();
        EXPECT_NE(warnings.find("rewrite failed"), std::string::npos)
            << warnings;
        // The old file stays, serves what it served, and still takes
        // appends.
        EXPECT_EQ(readFile(path), content);
        EXPECT_FALSE(cache.degraded());
        EXPECT_EQ(cache.size(), 2u);
        cache.insert(grid[0], fakeResult(100));
        EXPECT_EQ(cache.inserts(), 1u);
        EXPECT_EQ(lineCount(readFile(path)), 5u);
    }
    // The next open skips the line again, and this time compacts.
    testing::internal::CaptureStderr();
    ResultCache reopened;
    reopened.open(path);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "skipping unreadable entry 1"),
              std::string::npos);
    EXPECT_EQ(reopened.size(), 3u);
    EXPECT_EQ(lineCount(readFile(path)), 4u);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, ConcatenatedCachesServeEverySegment)
{
    const auto grid = tinyGrid();
    const auto first = cachePath("segment0");
    const auto second = cachePath("segment1");
    const auto path = cachePath("segments");
    for (const auto &file : {first, second, path})
        std::remove(file.c_str());

    // Two shard legs, each with its own header, concatenated.
    {
        ResultCache leg;
        leg.open(first);
        leg.insert(grid[0], fakeResult(100));
        leg.insert(grid[2], fakeResult(300));
    }
    {
        ResultCache leg;
        leg.open(second);
        leg.insert(grid[1], fakeResult(200));
    }
    writeFile(path, readFile(first) + readFile(second));

    // The second header is one this build reads: skipped silently.
    testing::internal::CaptureStderr();
    ResultCache merged;
    merged.open(path);
    const std::string warnings = testing::internal::GetCapturedStderr();
    EXPECT_EQ(warnings, "");
    EXPECT_EQ(merged.size(), 3u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto *hit = merged.find(grid[i]);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(dump(*hit), dump(fakeResult(100 * (i + 1))));
    }
    for (const auto &file : {first, second, path})
        std::remove(file.c_str());
}

TEST(ResultCacheTest, RejectedLaterHeaderIsNotServed)
{
    const auto grid = tinyGrid();
    const auto first = cachePath("rejected0");
    const auto second = cachePath("rejected1");
    const auto path = cachePath("rejected");
    for (const auto &file : {first, second, path})
        std::remove(file.c_str());

    {
        ResultCache leg;
        leg.open(first);
        leg.insert(grid[0], fakeResult(100));
    }
    {
        ResultCache leg;
        leg.open(second);
        leg.insert(grid[1], fakeResult(200));
        leg.insert(grid[2], fakeResult(300));
    }
    // The second file claims a wire version this build does not
    // speak: its entries must not be served, even though they decode.
    std::string foreign = readFile(second);
    const std::string current =
        "\"wirev\":" + std::to_string(wire::kVersion);
    const auto at = foreign.find(current);
    ASSERT_NE(at, std::string::npos);
    foreign.replace(at, current.size(), "\"wirev\":999");
    writeFile(path, readFile(first) + foreign);

    {
        testing::internal::CaptureStderr();
        ResultCache merged;
        merged.open(path);
        const std::string warnings =
            testing::internal::GetCapturedStderr();
        // One warning for the whole segment, not one per entry.
        EXPECT_NE(warnings.find("not serving"), std::string::npos);
        EXPECT_EQ(warnings.find('\n'), warnings.size() - 1) << warnings;
        EXPECT_EQ(merged.size(), 1u);
        EXPECT_NE(merged.find(grid[0]), nullptr);
        EXPECT_EQ(merged.find(grid[1]), nullptr);
        EXPECT_EQ(merged.find(grid[2]), nullptr);
        // Fresh entries land after a header this build reads.
        merged.insert(grid[1], fakeResult(200));
    }
    ResultCache reopened;
    reopened.open(path);
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_NE(reopened.find(grid[1]), nullptr);
    EXPECT_EQ(reopened.find(grid[2]), nullptr);
    for (const auto &file : {first, second, path})
        std::remove(file.c_str());
}

TEST(ResultCacheTest, RejectedFirstHeaderKeepsLaterSegments)
{
    const auto grid = tinyGrid();
    const auto first = cachePath("firstrejected0");
    const auto second = cachePath("firstrejected1");
    const auto path = cachePath("firstrejected");
    for (const auto &file : {first, second, path})
        std::remove(file.c_str());

    {
        ResultCache leg;
        leg.open(first);
        leg.insert(grid[0], fakeResult(100));
        leg.insert(grid[2], fakeResult(300));
    }
    {
        ResultCache leg;
        leg.open(second);
        leg.insert(grid[1], fakeResult(200));
    }
    // The first file claims a wire version this build does not speak:
    // its entries are not served, but the valid leg after it is, and
    // it is kept whole when the open compacts the file.
    std::string foreign = readFile(first);
    const std::string current =
        "\"wirev\":" + std::to_string(wire::kVersion);
    const auto at = foreign.find(current);
    ASSERT_NE(at, std::string::npos);
    foreign.replace(at, current.size(), "\"wirev\":999");
    const std::string concatenated = foreign + readFile(second);
    writeFile(path, concatenated);

    {
        testing::internal::CaptureStderr();
        ResultCache merged;
        merged.open(path);
        const std::string warnings =
            testing::internal::GetCapturedStderr();
        EXPECT_NE(warnings.find("line 1:"), std::string::npos)
            << warnings;
        EXPECT_NE(warnings.find("not serving"), std::string::npos);
        EXPECT_EQ(warnings.find("starting cold"), std::string::npos);
        EXPECT_EQ(merged.size(), 1u);
        EXPECT_EQ(merged.find(grid[0]), nullptr);
        ASSERT_NE(merged.find(grid[1]), nullptr);
        EXPECT_EQ(dump(*merged.find(grid[1])), dump(fakeResult(200)));
        EXPECT_EQ(merged.find(grid[2]), nullptr);
        // The last segment is served, so a fresh entry lands in it.
        merged.insert(grid[0], fakeResult(100));
    }
    EXPECT_EQ(readFile(path).rfind(readFile(second), 0), 0u)
        << "the file must keep the valid leg byte for byte";
    ResultCache reopened;
    reopened.open(path);
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_NE(reopened.find(grid[0]), nullptr);
    EXPECT_NE(reopened.find(grid[1]), nullptr);
    for (const auto &file : {first, second, path})
        std::remove(file.c_str());
}

TEST(ResultCacheTest, KeyPointMismatchIsSkipped)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("keymismatch");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
    }
    // Re-key the entry: content-addressing must detect that the key
    // no longer hashes the point and refuse to serve it.
    auto content = readFile(path);
    const auto key_at = content.find("\"key\":");
    ASSERT_NE(key_at, std::string::npos);
    content[key_at + 6] =
        content[key_at + 6] == '1' ? '2' : '1';  // first key digit
    writeFile(path, content);

    ResultCache reloaded;
    reloaded.open(path);
    EXPECT_EQ(reloaded.size(), 0u);
    EXPECT_EQ(reloaded.find(grid[0]), nullptr);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, StaleWireVersionStartsCold)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("stalewire");
    std::remove(path.c_str());

    std::string content;
    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
        content = readFile(path);
    }
    // Pretend the file was written by a build speaking a different
    // wire version: every entry must be served as a miss, not decoded.
    const std::string current =
        "\"wirev\":" + std::to_string(wire::kVersion);
    const auto at = content.find(current);
    ASSERT_NE(at, std::string::npos);
    content.replace(at, current.size(),
                    "\"wirev\":" + std::to_string(wire::kVersion + 1));
    writeFile(path, content);

    {
        ResultCache reloaded;
        reloaded.open(path);
        EXPECT_EQ(reloaded.size(), 0u);
        EXPECT_EQ(reloaded.find(grid[0]), nullptr);
        // The cold cache re-headed the file for this build and keeps
        // working as a fresh cache.
        reloaded.insert(grid[0], fakeResult(100));
    }
    ResultCache fresh;
    fresh.open(path);
    EXPECT_EQ(fresh.size(), 1u);
    EXPECT_NE(fresh.find(grid[0]), nullptr);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, WriteFailureDegradesInsteadOfDying)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("enospc");
    std::remove(path.c_str());

    {
        ResultCache cache;
        cache.open(path);
        cache.insert(grid[0], fakeResult(100));
        const auto durable_bytes = readFile(path).size();

        // The next append hits (injected) ENOSPC: the cache must warn
        // and degrade, not fatal() — a full disk may not kill a sweep.
        cache.failNextWriteForTest();
        cache.insert(grid[1], fakeResult(200));
        EXPECT_TRUE(cache.degraded());
        EXPECT_TRUE(cache.isOpen());
        EXPECT_EQ(cache.inserts(), 1u);  // only the durable one
        EXPECT_EQ(readFile(path).size(), durable_bytes);

        // Loaded/previous entries still serve, and the failed insert
        // still deduplicates in memory for this process.
        EXPECT_NE(cache.find(grid[0]), nullptr);
        EXPECT_NE(cache.find(grid[1]), nullptr);

        // Further inserts are silent no-ops on disk, not crashes.
        cache.insert(grid[2], fakeResult(300));
        EXPECT_EQ(cache.inserts(), 1u);
        EXPECT_EQ(readFile(path).size(), durable_bytes);
    }

    // The on-disk file holds exactly the entries appended before the
    // failure — a clean durable prefix a later run can still load.
    ResultCache reloaded;
    reloaded.open(path);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_NE(reloaded.find(grid[0]), nullptr);
    EXPECT_EQ(reloaded.find(grid[1]), nullptr);
    std::remove(path.c_str());
}

TEST(ResultCacheTest, GarbageHeaderStartsCold)
{
    const auto grid = tinyGrid();
    const auto path = cachePath("garbage");
    writeFile(path, "this is not a cache file\nat all\n");

    ResultCache cache;
    cache.open(path);
    EXPECT_TRUE(cache.isOpen());
    EXPECT_EQ(cache.size(), 0u);
    cache.insert(grid[0], fakeResult(100));
    EXPECT_EQ(cache.inserts(), 1u);
    std::remove(path.c_str());
}

} // namespace
