#include "harness/result_cache.hh"

#include <vector>

#include "common/logging.hh"

namespace acr::harness
{

namespace
{

std::string
headerLine()
{
    serde::Json json = serde::Json::object();
    json.set("type", "acr-cache")
        .set("cachev", ResultCache::kCacheVersion)
        .set("wirev", wire::kVersion);
    return json.dump();
}

/** Why @p line is not a header this build reads; "" when it is. */
std::string
headerProblem(const std::string &line)
{
    try {
        serde::Json json = serde::Json::parse(line);
        serde::ObjectReader reader(json, "cache header");
        const std::string type = reader.requireString("type");
        const std::uint64_t cachev = reader.requireUint("cachev");
        const std::uint64_t wirev = reader.requireUint("wirev");
        reader.finish();
        if (type != "acr-cache" || cachev != ResultCache::kCacheVersion)
            return "unrecognized header";
        if (wirev != wire::kVersion)
            return csprintf("entries use wire v%llu but this build "
                            "speaks v%llu",
                            static_cast<unsigned long long>(wirev),
                            static_cast<unsigned long long>(
                                wire::kVersion));
        return "";
    } catch (const serde::SerdeError &error) {
        return csprintf("unreadable header (%s)", error.what());
    }
}

/** True when @p json is a header line (valid or not), which starts a
 *  segment: concatenated cache files keep every file's header. */
bool
isHeader(const serde::Json &json)
{
    const serde::Json *type = json.find("type");
    return type != nullptr && type->kind() == serde::Json::Kind::kString &&
           type->asString() == "acr-cache";
}

/** An entry's check: the point's content hash continued over the
 *  result's encoding, so a change to either half is a miss. */
std::uint64_t
entryCheck(const GridPoint &point, const std::string &result_dump)
{
    return wire::fnv1a(result_dump, wire::pointHash(point));
}

std::string
entryLine(const GridPoint &point, const std::string &point_dump,
          const ExperimentResult &result)
{
    serde::Json encoded = wire::encodeResult(result);
    serde::Json json = serde::Json::object();
    json.set("type", "entry")
        .set("key", entryCheck(point, encoded.dump()))
        .set("point", serde::Json::parse(point_dump))
        .set("result", std::move(encoded));
    return json.dump();
}

} // namespace

void
ResultCache::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<std::string> lines = log_.load(path);

    // The first line and every later header (the next concatenated
    // file) start a segment, each validated alike: the entries after
    // a header this build reads are served, and the entries after one
    // it rejects — garbage, a future cache schema, records encoded
    // under a different wire version — are not (one warning per
    // segment). Warnings wait until the file is known to be kept.
    bool serving = false;
    bool servable = false;
    std::vector<std::string> warnings;
    std::vector<std::size_t> served;  // the entry lines loaded, in order
    auto start_segment = [&](std::size_t i) {
        const std::string problem = headerProblem(lines[i]);
        serving = problem.empty();
        servable = servable || serving;
        if (!serving)
            warnings.push_back(csprintf(
                "line %zu: %s; not serving the entries after it", i + 1,
                problem.c_str()));
    };
    if (!lines.empty())
        start_segment(0);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        // One bad entry (flipped byte, schema drift, a check that no
        // longer matches) is a miss for that experiment, not a dead
        // cache.
        try {
            serde::Json json = serde::Json::parse(lines[i]);
            if (isHeader(json)) {
                start_segment(i);
                continue;
            }
            if (!serving)
                continue;
            serde::ObjectReader reader(json, "cache entry");
            if (reader.requireString("type") != "entry")
                throw serde::SerdeError("not an entry record");
            const std::uint64_t key = reader.requireUint("key");
            const GridPoint point =
                wire::decodePoint(reader.require("point"));
            ExperimentResult result =
                wire::decodeResult(reader.require("result"));
            reader.finish();
            if (key != entryCheck(point, wire::encodeResult(result).dump()))
                throw serde::SerdeError(
                    "key does not match the point and result");
            entries_[wire::encodePoint(point).dump()] = std::move(result);
            served.push_back(i);
        } catch (const serde::SerdeError &error) {
            if (serving)
                warnings.push_back(csprintf(
                    "skipping unreadable entry %zu: %s", i, error.what()));
        }
    }

    // No segment can be served (an empty file, a wire-version bump,
    // garbage): the whole file is cold — every lookup misses, the
    // sweep recomputes, and the file is re-headed for this build.
    if (!servable) {
        if (!lines.empty())
            warn("cache '%s': %s; starting cold", path.c_str(),
                 headerProblem(lines.front()).c_str());
        log_.create(path, headerLine());
        return;
    }
    for (const std::string &warning : warnings)
        warn("cache '%s': %s", path.c_str(), warning.c_str());
    // A skipped line would warn again on every later open: rewrite the
    // file as one header plus the entries it serves. If the rewrite
    // fails, the file stays as it was and serves the same entries.
    if (!warnings.empty()) {
        std::vector<std::string> compacted = {headerLine()};
        for (const std::size_t i : served)
            compacted.push_back(lines[i]);
        if (log_.replace(compacted))
            return;
    }
    log_.resume(lines.size());
    // New entries must not land in a rejected segment, where the next
    // open would not serve them.
    if (!serving)
        log_.append(headerLine());
}

void
ResultCache::failNextWriteForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    log_.failNextWriteForTest();
}

const ExperimentResult *
ResultCache::find(const GridPoint &point)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ACR_ASSERT(isOpen(), "cache not open");
    const auto it = entries_.find(wire::encodePoint(point).dump());
    if (it == entries_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    return &it->second;
}

void
ResultCache::insert(const GridPoint &point,
                    const ExperimentResult &result)
{
    // Quarantined points are not cached: retrying on the next run is
    // the natural restart semantic.
    if (result.failed)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    ACR_ASSERT(isOpen(), "cache not open");
    const std::string dump = wire::encodePoint(point).dump();
    if (entries_.count(dump))
        return;
    // Degraded (ENOSPC/EIO on an earlier append): keep deduplicating
    // in memory so this process still gets hits; nothing persists.
    const bool durable = log_.append(entryLine(point, dump, result));
    entries_[dump] = result;
    if (durable)
        ++inserts_;
}

std::map<std::size_t, ExperimentResult>
ResultCache::served(const std::vector<GridPoint> &grid,
                    const std::vector<std::size_t> &owned)
{
    std::map<std::size_t, ExperimentResult> served;
    for (const auto index : owned)
        if (const auto *hit = find(grid[index]))
            served.emplace(index, *hit);
    return served;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::uint64_t
ResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
ResultCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::uint64_t
ResultCache::inserts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return inserts_;
}

void
ResultCache::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    log_.close();
}

} // namespace acr::harness
