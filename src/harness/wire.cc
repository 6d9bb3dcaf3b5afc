#include "harness/wire.hh"

#include <limits>

#include "common/logging.hh"

namespace acr::harness::wire
{

namespace
{

using serde::Json;
using serde::ObjectReader;
using serde::SerdeError;

// --- Enum <-> string tables (decode rejects unknown names) ---

const char *
modeName(BerMode mode)
{
    switch (mode) {
      case BerMode::kNoCkpt: return "NoCkpt";
      case BerMode::kCkpt: return "Ckpt";
      case BerMode::kReCkpt: return "ReCkpt";
    }
    return "?";
}

BerMode
modeFromName(const std::string &name)
{
    if (name == "NoCkpt")
        return BerMode::kNoCkpt;
    if (name == "Ckpt")
        return BerMode::kCkpt;
    if (name == "ReCkpt")
        return BerMode::kReCkpt;
    throw SerdeError("unknown BerMode '" + name + "'");
}

const char *
coordinationName(ckpt::Coordination coordination)
{
    return coordination == ckpt::Coordination::kGlobal ? "Global"
                                                       : "Local";
}

ckpt::Coordination
coordinationFromName(const std::string &name)
{
    if (name == "Global")
        return ckpt::Coordination::kGlobal;
    if (name == "Local")
        return ckpt::Coordination::kLocal;
    throw SerdeError("unknown Coordination '" + name + "'");
}

ckpt::Backend
backendFromName(const std::string &name)
{
    ckpt::Backend backend;
    if (!ckpt::parseBackend(name, backend))
        throw SerdeError("unknown Backend '" + name + "'");
    return backend;
}

const char *
policyName(slice::SelectionPolicy policy)
{
    return policy == slice::SelectionPolicy::kGreedyThreshold
               ? "GreedyThreshold"
               : "CostModel";
}

slice::SelectionPolicy
policyFromName(const std::string &name)
{
    if (name == "GreedyThreshold")
        return slice::SelectionPolicy::kGreedyThreshold;
    if (name == "CostModel")
        return slice::SelectionPolicy::kCostModel;
    throw SerdeError("unknown SelectionPolicy '" + name + "'");
}

const char *
placementName(PlacementPolicy placement)
{
    return placement == PlacementPolicy::kUniform ? "Uniform"
                                                  : "RecomputeAware";
}

PlacementPolicy
placementFromName(const std::string &name)
{
    if (name == "Uniform")
        return PlacementPolicy::kUniform;
    if (name == "RecomputeAware")
        return PlacementPolicy::kRecomputeAware;
    throw SerdeError("unknown PlacementPolicy '" + name + "'");
}

unsigned
asUnsigned(const Json &json, const char *what)
{
    std::uint64_t value = json.asUint();
    if (value > std::numeric_limits<unsigned>::max())
        throw SerdeError(std::string(what) + " out of range");
    return static_cast<unsigned>(value);
}

Json
encodeInterval(const ckpt::IntervalSizes &sizes)
{
    Json json = Json::object();
    json.set("interval", sizes.interval)
        .set("records", sizes.records)
        .set("amnesicRecords", sizes.amnesicRecords)
        .set("loggedBytes", sizes.loggedBytes)
        .set("omittedBytes", sizes.omittedBytes)
        .set("flushedLines", sizes.flushedLines)
        .set("archBytes", sizes.archBytes);
    return json;
}

ckpt::IntervalSizes
decodeInterval(const Json &json)
{
    ObjectReader reader(json, "IntervalSizes");
    ckpt::IntervalSizes sizes;
    sizes.interval = reader.requireUint("interval");
    sizes.records = reader.requireUint("records");
    sizes.amnesicRecords = reader.requireUint("amnesicRecords");
    sizes.loggedBytes = reader.requireUint("loggedBytes");
    sizes.omittedBytes = reader.requireUint("omittedBytes");
    sizes.flushedLines = reader.requireUint("flushedLines");
    sizes.archBytes = reader.requireUint("archBytes");
    reader.finish();
    return sizes;
}

/** The `{"v":N,"type":T,...}` envelope shared by every record line. */
Json
envelope(const char *type)
{
    Json json = Json::object();
    json.set("v", kVersion).set("type", type);
    return json;
}

} // namespace

Json
encodeConfig(const ExperimentConfig &config)
{
    Json json = Json::object();
    json.set("mode", modeName(config.mode))
        .set("coordination", coordinationName(config.coordination))
        .set("backend", ckpt::backendName(config.backend))
        .set("numCheckpoints", config.numCheckpoints)
        .set("numErrors", config.numErrors)
        .set("sliceThreshold", config.sliceThreshold)
        .set("policy", policyName(config.policy))
        .set("addrMapRetention", config.addrMapRetention)
        .set("detectionLatencyFraction",
             config.detectionLatencyFraction)
        .set("placement", placementName(config.placement))
        .set("seed", config.seed)
        .set("oracle", config.oracle)
        .set("faultEventMask", config.faultEventMask)
        .set("storageErrors", config.storageErrors)
        .set("storageFaultMask", config.storageFaultMask);
    return json;
}

ExperimentConfig
decodeConfig(const Json &json)
{
    ObjectReader reader(json, "ExperimentConfig");
    ExperimentConfig config;
    config.mode = modeFromName(reader.requireString("mode"));
    config.coordination =
        coordinationFromName(reader.requireString("coordination"));
    config.backend = backendFromName(reader.requireString("backend"));
    config.numCheckpoints =
        asUnsigned(reader.require("numCheckpoints"), "numCheckpoints");
    config.numErrors =
        asUnsigned(reader.require("numErrors"), "numErrors");
    config.sliceThreshold =
        asUnsigned(reader.require("sliceThreshold"), "sliceThreshold");
    config.policy = policyFromName(reader.requireString("policy"));
    config.addrMapRetention = asUnsigned(
        reader.require("addrMapRetention"), "addrMapRetention");
    config.detectionLatencyFraction =
        reader.requireDouble("detectionLatencyFraction");
    config.placement =
        placementFromName(reader.requireString("placement"));
    config.seed = reader.requireUint("seed");
    config.oracle = reader.requireBool("oracle");
    config.faultEventMask = reader.requireUint("faultEventMask");
    config.storageErrors =
        asUnsigned(reader.require("storageErrors"), "storageErrors");
    config.storageFaultMask = reader.requireUint("storageFaultMask");
    reader.finish();
    return config;
}

Json
encodeStats(const StatSet &stats)
{
    // StatSet iterates its map in name order, so the encoding is
    // canonical without extra sorting.
    Json json = Json::object();
    for (const auto &[name, value] : stats.all())
        json.set(name, value);
    return json;
}

StatSet
decodeStats(const Json &json)
{
    StatSet stats;
    for (const auto &[name, value] : json.members())
        stats.set(name, value.asDouble());
    return stats;
}

Json
encodeResult(const ExperimentResult &result)
{
    if (result.failed)
        throw SerdeError("a quarantined result is a placeholder, not a "
                         "measurement: it has no wire encoding");
    Json history = Json::array();
    for (const auto &interval : result.history)
        history.push(encodeInterval(interval));

    Json json = Json::object();
    json.set("cycles", result.cycles)
        .set("energyPj", result.energyPj)
        .set("edp", result.edp)
        .set("checkpointsEstablished", result.checkpointsEstablished)
        .set("recoveries", result.recoveries)
        .set("oracleDivergences", result.oracleDivergences)
        .set("oracleReport", result.oracleReport)
        .set("ckptBytesStored", result.ckptBytesStored)
        .set("ckptBytesOmitted", result.ckptBytesOmitted)
        .set("unrecoverable", result.unrecoverable)
        .set("unrecoverableDetail", result.unrecoverableDetail)
        .set("stats", encodeStats(result.stats))
        .set("history", std::move(history));
    return json;
}

ExperimentResult
decodeResult(const Json &json)
{
    ObjectReader reader(json, "ExperimentResult");
    ExperimentResult result;
    result.cycles = reader.requireUint("cycles");
    result.energyPj = reader.requireDouble("energyPj");
    result.edp = reader.requireDouble("edp");
    result.checkpointsEstablished =
        reader.requireUint("checkpointsEstablished");
    result.recoveries = reader.requireUint("recoveries");
    result.oracleDivergences = reader.requireUint("oracleDivergences");
    result.oracleReport = reader.requireString("oracleReport");
    result.ckptBytesStored = reader.requireUint("ckptBytesStored");
    result.ckptBytesOmitted = reader.requireUint("ckptBytesOmitted");
    result.unrecoverable = reader.requireBool("unrecoverable");
    result.unrecoverableDetail =
        reader.requireString("unrecoverableDetail");
    result.stats = decodeStats(reader.require("stats"));
    for (const auto &interval : reader.require("history").items())
        result.history.push_back(decodeInterval(interval));
    reader.finish();
    return result;
}

Json
encodePoint(const GridPoint &point)
{
    Json json = Json::object();
    json.set("workload", point.workload)
        .set("threads", point.threads)
        .set("config", encodeConfig(point.config));
    return json;
}

GridPoint
decodePoint(const Json &json)
{
    ObjectReader reader(json, "GridPoint");
    GridPoint point;
    point.workload = reader.requireString("workload");
    point.threads = asUnsigned(reader.require("threads"), "threads");
    point.config = decodeConfig(reader.require("config"));
    reader.finish();
    return point;
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t hash)
{
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
pointHash(const GridPoint &point)
{
    return fnv1a(encodePoint(point).dump());
}

std::string
encodePointLine(const PointRecord &record)
{
    Json json = envelope("point");
    json.set("index", record.index)
        .set("point", encodePoint(record.point));
    return json.dump();
}

std::string
encodeResultLine(const ResultRecord &record)
{
    Json json = envelope("result");
    json.set("index", record.index)
        .set("result", encodeResult(record.result));
    return json.dump();
}

Record
decodeLine(const std::string &line)
{
    Json json = Json::parse(line);
    ObjectReader reader(json, "wire record");
    const std::uint64_t version = reader.requireUint("v");
    if (version != kVersion)
        throw SerdeError(csprintf("wire version mismatch: record has "
                                  "v=%llu, this build speaks v=%llu",
                                  static_cast<unsigned long long>(
                                      version),
                                  static_cast<unsigned long long>(
                                      kVersion)));
    const std::string type = reader.requireString("type");

    Record record;
    if (type == "point") {
        record.type = Record::Type::kPoint;
        record.point.index = reader.requireUint("index");
        record.point.point = decodePoint(reader.require("point"));
    } else if (type == "result") {
        record.type = Record::Type::kResult;
        record.result.index = reader.requireUint("index");
        record.result.result = decodeResult(reader.require("result"));
    } else {
        throw SerdeError("unknown record type '" + type + "'");
    }
    reader.finish();
    return record;
}

} // namespace acr::harness::wire
