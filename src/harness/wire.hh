/**
 * @file
 * The experiment wire format (DESIGN.md §8): versioned, schema-checked
 * JSON encodings of ExperimentConfig, ExperimentResult (StatSet and
 * history included), and the shard records the multi-process sweep
 * exchanges — the "checkpoint state must survive a process boundary"
 * discipline applied to the harness's own data.
 *
 * Records travel as line-delimited JSON ("ndjson"): one record per
 * line, each carrying the wire version (`v`) and a `type` tag so a
 * stream is self-describing. Decoding rejects unknown keys and
 * mismatched versions outright (forward-compatibility rule: any field
 * change bumps kVersion).
 */

#ifndef ACR_HARNESS_WIRE_HH
#define ACR_HARNESS_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serde.hh"
#include "harness/experiment.hh"

namespace acr::harness
{

/** One point of a (possibly multi-machine) sweep grid: a workload, its
 *  configuration, and the simulated-machine core count it runs on. */
struct GridPoint
{
    std::string workload;
    ExperimentConfig config;
    unsigned threads = 8;
};

namespace wire
{

/** Bump on ANY schema change (field added/removed/renamed/retyped).
 *  v2: added the `failed` record type (quarantined sweep points).
 *  v3: config gained `oracle` + `faultEventMask`, result gained
 *      `oracleDivergences` + `oracleReport` (recovery validation).
 *  v4: config gained `backend` (pluggable checkpoint stores), so
 *      ResultCache keys and shard grids distinguish backends.
 *  v5: added the `hello` record type (the distributed sweep's strict
 *      TCP handshake, harness/net.hh).
 *  v6: config gained `storageErrors` + `storageFaultMask` (checkpoint-
 *      medium fault injection), result gained `unrecoverable` +
 *      `unrecoverableDetail` (escalation-ladder exhaustion), so
 *      ResultCache keys and shard grids distinguish storage-fault
 *      campaigns.
 *  v7: config lost its hierarchical second-tier promotion period (the
 *      tier was removed). */
inline constexpr std::uint64_t kVersion = 7;

// --- Value encodings (no version envelope; record lines add it) ---

serde::Json encodeConfig(const ExperimentConfig &config);
ExperimentConfig decodeConfig(const serde::Json &json);

serde::Json encodeStats(const StatSet &stats);
StatSet decodeStats(const serde::Json &json);

serde::Json encodeResult(const ExperimentResult &result);
ExperimentResult decodeResult(const serde::Json &json);

/** Canonical encoding of one grid point (workload + full config +
 *  threads) — position-independent, the ResultCache's key material. */
serde::Json encodePoint(const GridPoint &point);
GridPoint decodePoint(const serde::Json &json);

/** FNV-1a over encodePoint(point).dump(): two points hash equal iff
 *  they are the same experiment, regardless of which bench enumerated
 *  them or where in its grid they sit. */
std::uint64_t pointHash(const GridPoint &point);

// --- Record lines ---

/** Work sent to a worker: grid index + the point itself. */
struct PointRecord
{
    std::uint64_t index = 0;
    GridPoint point;
};

/** A finished experiment travelling back to the coordinator. */
struct ResultRecord
{
    std::uint64_t index = 0;
    ExperimentResult result;
};

/**
 * A point the supervisor quarantined after exhausting its retries:
 * the sweep completed around it, and the failure travels through the
 * result stream (shard files) as an explicit record instead of
 * aborting the whole run.
 */
struct FailedRecord
{
    std::uint64_t index = 0;
    std::uint64_t attempts = 0;
    std::string reason;
};

/**
 * First line of a shard's output: which slice of which grid this
 * stream holds, so merging can verify the shards are disjoint,
 * complete, and come from the same grid (gridHash covers every
 * point's full encoding).
 */
struct ManifestRecord
{
    std::string bench;
    std::uint64_t shard = 0;
    std::uint64_t shardCount = 1;
    std::uint64_t gridPoints = 0;
    std::uint64_t gridHash = 0;
};

/**
 * The distributed sweep's handshake (DESIGN.md §15): the first record
 * either end of a TCP connection sends, carrying everything both
 * sides must agree on before any point is dealt — the bench name, the
 * exact grid (size + hash over every point's full encoding), and the
 * net-layer framing version. The record's own `v` envelope pins the
 * wire version, so a version-skewed peer is rejected by decodeLine
 * itself before any field is compared.
 */
struct HelloRecord
{
    std::string bench;
    std::uint64_t gridPoints = 0;
    std::uint64_t gridHash = 0;
    std::uint64_t netVersion = 0;

    bool operator==(const HelloRecord &) const = default;

    /** "bench 'B', N point(s), grid HASH, net vV", for mismatch
     *  reports. */
    std::string describe() const;
};

std::string encodePointLine(const PointRecord &record);
std::string encodeResultLine(const ResultRecord &record);
std::string encodeManifestLine(const ManifestRecord &record);
std::string encodeFailedLine(const FailedRecord &record);
std::string encodeHelloLine(const HelloRecord &record);

/** One decoded record line (tagged union over the five types). */
struct Record
{
    enum class Type
    {
        kPoint,
        kResult,
        kManifest,
        kFailed,
        kHello,
    };
    Type type = Type::kPoint;
    PointRecord point;
    ResultRecord result;
    ManifestRecord manifest;
    FailedRecord failed;
    HelloRecord hello;
};

/** Decode any record line; throws SerdeError on bad version/type/keys. */
Record decodeLine(const std::string &line);

/** FNV-1a over the canonical point-record encodings: two invocations
 *  agree iff they enumerated the identical grid. */
std::uint64_t gridHash(const std::vector<GridPoint> &points);

} // namespace wire
} // namespace acr::harness

#endif // ACR_HARNESS_WIRE_HH
