/**
 * @file
 * Wire-format tests: every ExperimentConfig/ExperimentResult field
 * survives encode → decode → encode byte-stably (randomized property
 * over the whole configuration space), StatSet merge/diff identities
 * hold across the wire, record lines carry and enforce the version
 * envelope, and ExperimentConfig::validate() names the offending field
 * for each documented invalid combination.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/serde.hh"
#include "harness/runner.hh"
#include "harness/wire.hh"

namespace
{

using namespace acr;
using namespace acr::harness;
using serde::SerdeError;

ExperimentConfig
randomConfig(std::mt19937_64 &rng)
{
    auto pick = [&](std::uint64_t bound) { return rng() % bound; };

    ExperimentConfig config;
    config.mode = static_cast<BerMode>(pick(3));
    config.coordination = static_cast<ckpt::Coordination>(pick(2));
    config.numCheckpoints = 1 + static_cast<unsigned>(pick(100));
    config.numErrors = static_cast<unsigned>(pick(6));
    config.sliceThreshold = static_cast<unsigned>(pick(51));
    config.policy = static_cast<slice::SelectionPolicy>(pick(2));
    config.addrMapRetention = static_cast<unsigned>(pick(3));
    config.detectionLatencyFraction = pick(101) / 100.0;
    config.placement = static_cast<PlacementPolicy>(pick(2));
    config.seed = rng();
    config.oracle = config.mode != BerMode::kNoCkpt && pick(2) == 0;
    config.faultEventMask = pick(2) == 0 ? ~std::uint64_t{0} : rng() | 1;
    // NoCkpt stores nothing, so only checkpointing modes vary the
    // backend or take storage faults (matches
    // ExperimentConfig::validate()).
    config.backend = config.mode == BerMode::kNoCkpt
                         ? ckpt::Backend::kLog
                         : static_cast<ckpt::Backend>(pick(3));
    config.storageErrors = config.mode == BerMode::kNoCkpt
                               ? 0
                               : static_cast<unsigned>(pick(5));
    config.storageFaultMask =
        pick(2) == 0 ? ~std::uint64_t{0} : rng() | 1;
    return config;
}

ExperimentResult
randomResult(std::mt19937_64 &rng)
{
    auto pick = [&](std::uint64_t bound) { return rng() % bound; };

    ExperimentResult result;
    result.cycles = rng();
    result.energyPj = pick(1u << 30) / 16.0;
    result.edp = pick(1u << 30) * 1024.0;
    result.checkpointsEstablished = pick(100);
    result.recoveries = pick(10);
    result.oracleDivergences = pick(4);
    if (result.oracleDivergences > 0)
        result.oracleReport =
            "[oracle] memory-word recovery=1 addr=42 expected=7 actual=9";
    result.unrecoverable = pick(4) == 0;
    if (result.unrecoverable)
        result.unrecoverableDetail =
            "no intact rollback target for the affected cores";
    result.ckptBytesStored = rng();
    result.ckptBytesOmitted = rng();
    result.stats.set("ckpt.logRecords", pick(1u << 20));
    result.stats.set("acr.replayAluOps", pick(1u << 20) / 4.0);
    result.stats.set("dram.lineWrites", pick(1u << 20));
    const std::size_t intervals = pick(5);
    for (std::size_t i = 0; i < intervals; ++i) {
        ckpt::IntervalSizes sizes;
        sizes.interval = i;
        sizes.records = pick(1000);
        sizes.amnesicRecords = pick(1000);
        sizes.loggedBytes = pick(1u << 20);
        sizes.omittedBytes = pick(1u << 20);
        sizes.flushedLines = pick(1000);
        sizes.archBytes = pick(1u << 16);
        result.history.push_back(sizes);
    }
    return result;
}

void
expectConfigEqual(const ExperimentConfig &a, const ExperimentConfig &b)
{
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.coordination, b.coordination);
    EXPECT_EQ(a.numCheckpoints, b.numCheckpoints);
    EXPECT_EQ(a.numErrors, b.numErrors);
    EXPECT_EQ(a.sliceThreshold, b.sliceThreshold);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.addrMapRetention, b.addrMapRetention);
    EXPECT_EQ(a.detectionLatencyFraction, b.detectionLatencyFraction);
    EXPECT_EQ(a.placement, b.placement);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.oracle, b.oracle);
    EXPECT_EQ(a.faultEventMask, b.faultEventMask);
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.storageErrors, b.storageErrors);
    EXPECT_EQ(a.storageFaultMask, b.storageFaultMask);
}

TEST(WireConfig, RoundTripProperty)
{
    std::mt19937_64 rng(0xacce55);
    for (int i = 0; i < 200; ++i) {
        const ExperimentConfig config = randomConfig(rng);
        const std::string encoded = wire::encodeConfig(config).dump();
        const ExperimentConfig decoded =
            wire::decodeConfig(serde::Json::parse(encoded));
        expectConfigEqual(config, decoded);
        // Byte-stable re-encode: the merge-determinism substrate.
        EXPECT_EQ(wire::encodeConfig(decoded).dump(), encoded);
    }
}

TEST(WireConfig, RejectsUnknownKeyAndBadEnums)
{
    const std::string good = wire::encodeConfig({}).dump();
    // Splice an unknown key into an otherwise valid config object.
    std::string unknown = good;
    unknown.insert(unknown.size() - 1, ",\"novel\":1");
    EXPECT_THROW(wire::decodeConfig(serde::Json::parse(unknown)),
                 SerdeError);

    serde::Json bad_mode = wire::encodeConfig({});
    const std::string bad =
        [&] {
            std::string text = bad_mode.dump();
            const std::string from = "\"mode\":\"Ckpt\"";
            return text.replace(text.find(from), from.size(),
                                "\"mode\":\"Chkpt\"");
        }();
    EXPECT_THROW(wire::decodeConfig(serde::Json::parse(bad)),
                 SerdeError);

    // An unknown backend name must be rejected the same way (a shard
    // from a build with more backends must not be silently misread).
    const std::string bad_backend =
        [&] {
            std::string text = good;
            const std::string from = "\"backend\":\"log\"";
            return text.replace(text.find(from), from.size(),
                                "\"backend\":\"tape\"");
        }();
    EXPECT_THROW(wire::decodeConfig(serde::Json::parse(bad_backend)),
                 SerdeError);
}

TEST(WireResult, RoundTripProperty)
{
    std::mt19937_64 rng(0x5eed);
    for (int i = 0; i < 200; ++i) {
        const ExperimentResult result = randomResult(rng);
        const std::string encoded = wire::encodeResult(result).dump();
        const ExperimentResult decoded =
            wire::decodeResult(serde::Json::parse(encoded));

        EXPECT_EQ(result.cycles, decoded.cycles);
        EXPECT_EQ(result.energyPj, decoded.energyPj);
        EXPECT_EQ(result.edp, decoded.edp);
        EXPECT_EQ(result.checkpointsEstablished,
                  decoded.checkpointsEstablished);
        EXPECT_EQ(result.recoveries, decoded.recoveries);
        EXPECT_EQ(result.unrecoverable, decoded.unrecoverable);
        EXPECT_EQ(result.unrecoverableDetail,
                  decoded.unrecoverableDetail);
        EXPECT_EQ(result.ckptBytesStored, decoded.ckptBytesStored);
        EXPECT_EQ(result.ckptBytesOmitted, decoded.ckptBytesOmitted);
        EXPECT_EQ(result.stats.all(), decoded.stats.all());
        ASSERT_EQ(result.history.size(), decoded.history.size());
        for (std::size_t h = 0; h < result.history.size(); ++h) {
            EXPECT_EQ(result.history[h].interval,
                      decoded.history[h].interval);
            EXPECT_EQ(result.history[h].records,
                      decoded.history[h].records);
            EXPECT_EQ(result.history[h].amnesicRecords,
                      decoded.history[h].amnesicRecords);
            EXPECT_EQ(result.history[h].loggedBytes,
                      decoded.history[h].loggedBytes);
            EXPECT_EQ(result.history[h].omittedBytes,
                      decoded.history[h].omittedBytes);
            EXPECT_EQ(result.history[h].flushedLines,
                      decoded.history[h].flushedLines);
            EXPECT_EQ(result.history[h].archBytes,
                      decoded.history[h].archBytes);
        }
        EXPECT_EQ(wire::encodeResult(decoded).dump(), encoded);
    }
}

TEST(WireStats, MergeDiffIdentitiesSurviveTheWire)
{
    std::mt19937_64 rng(7);
    for (int i = 0; i < 50; ++i) {
        StatSet a, b;
        a.set("x", static_cast<double>(rng() % 1000));
        a.set("shared", static_cast<double>(rng() % 1000));
        b.set("y", static_cast<double>(rng() % 1000) / 8.0);
        b.set("shared", static_cast<double>(rng() % 1000));

        auto wired = [](const StatSet &stats) {
            return wire::decodeStats(
                serde::Json::parse(wire::encodeStats(stats).dump()));
        };

        // merge then diff gives the original back, on both sides of
        // the wire.
        StatSet merged = wired(a);
        merged.merge(wired(b));
        EXPECT_EQ(wire::encodeStats(merged.diff(b)).dump(),
                  wire::encodeStats(wired(a).diff(b.diff(b))).dump());
        EXPECT_EQ(merged.get("shared"),
                  a.get("shared") + b.get("shared"));

        // Map-ordered canonical encoding is stable.
        EXPECT_EQ(wire::encodeStats(wired(a)).dump(),
                  wire::encodeStats(a).dump());
    }
}

TEST(WireRecords, LineRoundTripAndTags)
{
    std::mt19937_64 rng(11);

    wire::PointRecord point{42, {"is", randomConfig(rng), 16}};
    const std::string point_line = wire::encodePointLine(point);
    wire::Record decoded = wire::decodeLine(point_line);
    ASSERT_EQ(decoded.type, wire::Record::Type::kPoint);
    EXPECT_EQ(decoded.point.index, 42u);
    EXPECT_EQ(decoded.point.point.workload, "is");
    EXPECT_EQ(decoded.point.point.threads, 16u);
    expectConfigEqual(point.point.config, decoded.point.point.config);
    EXPECT_EQ(wire::encodePointLine(decoded.point), point_line);

    wire::ResultRecord result{7, randomResult(rng)};
    const std::string result_line = wire::encodeResultLine(result);
    decoded = wire::decodeLine(result_line);
    ASSERT_EQ(decoded.type, wire::Record::Type::kResult);
    EXPECT_EQ(decoded.result.index, 7u);
    EXPECT_EQ(wire::encodeResultLine(decoded.result), result_line);
}

TEST(WireRecords, VersionAndTypeEnforced)
{
    const std::string line = wire::encodePointLine({0, {"bt", {}, 8}});

    std::string wrong_version = line;
    const std::string v =
        "{\"v\":" + std::to_string(wire::kVersion);
    wrong_version.replace(wrong_version.find(v), v.size(),
                          "{\"v\":999");
    EXPECT_THROW(wire::decodeLine(wrong_version), SerdeError);

    std::string wrong_type = line;
    const std::string t = "\"type\":\"point\"";
    wrong_type.replace(wrong_type.find(t), t.size(),
                       "\"type\":\"telemetry\"");
    EXPECT_THROW(wire::decodeLine(wrong_type), SerdeError);

    EXPECT_THROW(wire::decodeLine("not json"), SerdeError);
    EXPECT_THROW(wire::decodeLine("[1,2,3]"), SerdeError);
}

TEST(ConfigValidate, AcceptsTheDefaultMatrix)
{
    EXPECT_EQ(ExperimentConfig{}.validate(), "");
    ExperimentConfig reckpt;
    reckpt.mode = BerMode::kReCkpt;
    reckpt.numErrors = 5;
    reckpt.placement = PlacementPolicy::kRecomputeAware;
    EXPECT_EQ(reckpt.validate(), "");
}

TEST(ConfigValidate, NamesTheOffendingField)
{
    auto expectNames = [](const ExperimentConfig &config,
                          const std::string &field) {
        const std::string error = config.validate();
        ASSERT_FALSE(error.empty()) << "expected a " << field
                                    << " error";
        EXPECT_NE(error.find(field), std::string::npos) << error;
    };

    ExperimentConfig config;
    config.detectionLatencyFraction = 1.5;
    expectNames(config, "detectionLatencyFraction");
    config.detectionLatencyFraction = -0.1;
    expectNames(config, "detectionLatencyFraction");

    config = {};
    config.placement = PlacementPolicy::kRecomputeAware;
    config.mode = BerMode::kCkpt;
    expectNames(config, "placement");

    config = {};
    config.sliceThreshold = 0;
    expectNames(config, "sliceThreshold");

    config = {};
    config.mode = BerMode::kNoCkpt;
    config.numErrors = 1;
    expectNames(config, "numErrors");

    config = {};
    config.mode = BerMode::kNoCkpt;
    config.oracle = true;
    expectNames(config, "oracle");

    config = {};
    config.numErrors = 3;
    config.faultEventMask = 0;
    expectNames(config, "faultEventMask");

    config = {};
    config.mode = BerMode::kNoCkpt;
    config.backend = ckpt::Backend::kNvm;
    expectNames(config, "backend");

    config = {};
    config.mode = BerMode::kNoCkpt;
    config.storageErrors = 2;
    expectNames(config, "storageErrors");

    config = {};
    config.storageErrors = 2;
    config.storageFaultMask = 0;
    expectNames(config, "storageFaultMask");
}

TEST(ConfigValidate, RunnerRejectsInvalidConfigs)
{
    Runner runner(2);
    ExperimentConfig config;
    config.mode = BerMode::kNoCkpt;
    config.numErrors = 3;
    EXPECT_EXIT(runner.run("bt", config),
                testing::ExitedWithCode(1), "numErrors");
}

} // namespace
