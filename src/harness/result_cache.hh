/**
 * @file
 * ResultCache: the harness's one durable result store (DESIGN.md §10,
 * §11) — the paper's "never regenerate what you already have durable"
 * discipline applied to the harness's own sweeps.
 *
 * Completed points are keyed by *content*: the canonical serde
 * encoding of the GridPoint itself (workload + full ExperimentConfig +
 * threads; each entry also stores its FNV-1a hash, wire::pointHash, as
 * a check). Any bench that enumerates the same experiment — at any
 * grid position, under any sharding — is served the stored result
 * instead of re-simulating. That is also how a killed sweep restarts:
 * rerun it with the same file, and every point that reached the file
 * is served while only the rest are simulated.
 *
 * On disk the cache is one ndjson file kept by an AppendLog
 * (append_log.hh): a versioned header line (cache schema version plus
 * the wire::kVersion its records were encoded under), then one fsync'd
 * entry per result, appended as they complete. Nothing in the file is
 * fatal — every corruption mode degrades to recompute, never to a
 * crash or a wrong table:
 *
 *   - unknown/garbled header, stale cache version, or a wirev that
 *     does not match this build  → the whole file is cold (truncated
 *     and re-headed; every lookup misses);
 *   - a torn final line (no trailing newline)  → dropped and the file
 *     truncated to the durable prefix;
 *   - an unreadable entry line (flipped byte, key/point mismatch,
 *     schema drift)  → that entry alone is skipped (served as a miss);
 *   - a failed append or fsync (ENOSPC, EIO, a yanked disk)  → the
 *     file is disabled with a one-line warning and the sweep keeps
 *     going: find() still serves everything already loaded, insert()
 *     keeps deduplicating in memory, nothing new persists.
 *
 * Quarantined results are never cached: a failed point's natural
 * restart semantic is retry.
 *
 * A cache is only as fresh as the code that wrote it: `wirev` catches
 * schema changes, not changes to the simulated model, so delete the
 * file after changing what a point computes.
 *
 * Thread-safety: find(), insert(), size() and the counters take an
 * internal mutex; the in-process sweep calls insert() and reads
 * inserts() from worker threads. Returned pointers stay valid for the
 * cache's lifetime (std::map nodes are stable under insertion).
 */

#ifndef ACR_HARNESS_RESULT_CACHE_HH
#define ACR_HARNESS_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/append_log.hh"
#include "harness/wire.hh"

namespace acr::harness
{

/** Content-addressed cross-bench experiment result cache. */
class ResultCache
{
  public:
    /** Bump on any change to the cache file schema (header or entry
     *  layout). Distinct from wire::kVersion, which covers the record
     *  payload encodings and is checked separately via the header's
     *  `wirev` field. */
    static constexpr std::uint64_t kCacheVersion = 1;

    /**
     * Open (creating if absent) the cache file at @p path and load
     * every readable entry. Corrupt content is never fatal — see the
     * file comment for the degradation ladder. fatal()s only on real
     * I/O errors (unopenable path, failed fsync).
     */
    void open(const std::string &path);

    /** True after open() — including after a write-failure degrade
     *  (loaded entries are still served; only persistence stopped). */
    bool isOpen() const { return log_.isOpen(); }

    /** The backing file was disabled by a failed append/fsync. */
    bool degraded() const { return log_.degraded(); }

    /** Test hook: make the next append fail as if the disk were full
     *  (exercises the ENOSPC degrade path without a full disk). */
    void failNextWriteForTest();

    /**
     * Look up @p point by content; nullptr on miss. Counts into
     * hits()/misses().
     */
    const ExperimentResult *find(const GridPoint &point);

    /**
     * Append @p result under @p point's content key (fsync'd before
     * returning). No-op for quarantined results (retry semantics) and
     * keys already present. A failed append (ENOSPC/EIO) degrades the
     * cache instead of dying — see the file comment. Thread-safe.
     */
    void insert(const GridPoint &point, const ExperimentResult &result);

    /**
     * The restart view of a sweep over @p grid: each @p owned index
     * whose point this cache holds, mapped to the stored result. It is
     * what SweepControls::cache serves instead of re-simulating, so a
     * rerun of a killed sweep redoes only what never reached the file.
     * Counts into hits()/misses() like find().
     */
    std::map<std::size_t, ExperimentResult>
    served(const std::vector<GridPoint> &grid,
           const std::vector<std::size_t> &owned);

    /** Entries currently loaded/inserted. */
    std::size_t size() const;

    std::uint64_t hits() const;
    std::uint64_t misses() const;
    /** Entries appended by this process (excludes loaded ones). */
    std::uint64_t inserts() const;

    void close();

  private:
    mutable std::mutex mutex_;
    AppendLog log_{"cache", "disabling the cache file — loaded entries "
                            "still serve, new results are not "
                            "persisted"};
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t inserts_ = 0;

    /** Canonical point encoding (wire::encodePoint dump) → result.
     *  Keyed by the full encoding rather than its hash so even a
     *  64-bit FNV collision cannot serve the wrong experiment. */
    std::map<std::string, ExperimentResult> entries_;
};

} // namespace acr::harness

#endif // ACR_HARNESS_RESULT_CACHE_HH
