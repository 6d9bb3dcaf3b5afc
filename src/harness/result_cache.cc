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

std::string
entryLine(const std::string &point_dump, std::uint64_t key,
          const ExperimentResult &result)
{
    serde::Json json = serde::Json::object();
    json.set("type", "entry")
        .set("key", key)
        .set("point", serde::Json::parse(point_dump))
        .set("result", wire::encodeResult(result));
    return json.dump();
}

} // namespace

void
ResultCache::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<std::string> lines = log_.load(path);

    // Validate the header. Anything unrecognized — garbage, a future
    // cache schema, records encoded under a different wire version —
    // makes the whole file cold: every lookup misses, the sweep
    // recomputes, and the file is re-headed for this build.
    bool cold = lines.empty();
    if (!cold) {
        try {
            serde::Json json = serde::Json::parse(lines.front());
            serde::ObjectReader reader(json, "cache header");
            const std::string type = reader.requireString("type");
            const std::uint64_t cachev = reader.requireUint("cachev");
            const std::uint64_t wirev = reader.requireUint("wirev");
            reader.finish();
            if (type != "acr-cache" || cachev != kCacheVersion) {
                warn("cache '%s': unrecognized header; starting cold",
                     path.c_str());
                cold = true;
            } else if (wirev != wire::kVersion) {
                warn("cache '%s': entries use wire v%llu but this "
                     "build speaks v%llu; starting cold",
                     path.c_str(),
                     static_cast<unsigned long long>(wirev),
                     static_cast<unsigned long long>(wire::kVersion));
                cold = true;
            }
        } catch (const serde::SerdeError &error) {
            warn("cache '%s': unreadable header (%s); starting cold",
                 path.c_str(), error.what());
            cold = true;
        }
    }

    if (cold) {
        log_.create(path, headerLine());
        return;
    }

    for (std::size_t i = 1; i < lines.size(); ++i) {
        // One bad entry (flipped byte, schema drift, key/point
        // mismatch) is a miss for that experiment, not a dead cache.
        try {
            serde::Json json = serde::Json::parse(lines[i]);
            serde::ObjectReader reader(json, "cache entry");
            if (reader.requireString("type") != "entry")
                throw serde::SerdeError("not an entry record");
            const std::uint64_t key = reader.requireUint("key");
            const GridPoint point =
                wire::decodePoint(reader.require("point"));
            ExperimentResult result =
                wire::decodeResult(reader.require("result"));
            reader.finish();
            if (key != wire::pointHash(point))
                throw serde::SerdeError(
                    "key does not match the point encoding");
            entries_[wire::encodePoint(point).dump()] =
                std::move(result);
        } catch (const serde::SerdeError &error) {
            warn("cache '%s': skipping unreadable entry %zu: %s",
                 path.c_str(), i, error.what());
        }
    }
    log_.resume(lines.size());
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
    const bool durable =
        log_.append(entryLine(dump, wire::pointHash(point), result));
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
