/**
 * @file
 * Set-associative write-back cache with true-LRU replacement.
 *
 * This is a timing/bookkeeping model: it tracks tags, dirty bits and LRU
 * order, while the data itself lives in MainMemory (functional-first
 * simulation, see DESIGN.md). Dirty-line tracking is what the checkpoint
 * substrate consumes — establishing a checkpoint "involves writing all
 * dirty cache lines back to memory" (Sec. II-A).
 *
 * Layout is structure-of-arrays (DESIGN.md §13): tags and LRU stamps are
 * flat way-indexed arrays, and the valid/dirty state lives in packed
 * bitmaps. The lookup loop touches one contiguous tag run per set, and
 * the checkpoint flush scans 64 ways per machine word instead of one
 * 24-byte struct per way.
 *
 * Counters are plain integers (this is the hottest path in the
 * simulator); exportStats() publishes them into a StatSet.
 */

#ifndef ACR_CACHE_CACHE_HH
#define ACR_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace acr::cache
{

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::size_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    /** Access latency in core cycles. */
    Cycle latency = 4;

    std::size_t lines() const { return sizeBytes / kLineBytes; }
    std::size_t sets() const { return lines() / ways; }
};

/** Outcome of a cache access. */
struct AccessResult
{
    bool hit = false;
    /** State of the line before this access (false on miss). */
    bool wasDirty = false;
    /** Line evicted dirty by this access (needs write-back downstream). */
    LineId dirtyVictim = ~LineId{0};
    bool hasDirtyVictim = false;
};

/** Event counters kept as plain integers for speed. */
struct CacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t invalidations = 0;

    std::uint64_t accesses() const { return hits + misses; }
};

/** One level of set-associative write-back cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up @p line; on miss, allocate it, evicting LRU.
     * @param write marks the line dirty on completion.
     * The hit path is inline (one tag scan, two bitmap tests); the
     * miss path (victim choice, eviction bookkeeping) is out of line.
     */
    AccessResult
    access(LineId line, bool write)
    {
        ++useClock_;
        if (std::size_t i = find(line); i != kNoWay) {
            AccessResult result;
            result.hit = true;
            result.wasDirty = testBit(dirtyBits_, i);
            lastUse_[i] = useClock_;
            if (write)
                setBit(dirtyBits_, i);
            ++counters_.hits;
            return result;
        }
        return accessMiss(line, write);
    }

    /** True if the line is resident. */
    bool contains(LineId line) const;

    /** True if the line is resident and dirty. */
    bool isDirty(LineId line) const;

    /**
     * Remove @p line if resident.
     * @return true if it was resident and dirty (caller owns write-back).
     */
    bool invalidate(LineId line);

    /**
     * Mark @p line clean if resident (data written back, copy kept —
     * the Rebound-style checkpoint flush).
     * @return true if it was dirty.
     */
    bool clean(LineId line);

    /** All currently dirty resident lines, sorted. */
    std::vector<LineId> dirtyLines() const;

    /** Count of currently dirty resident lines. */
    std::size_t dirtyCount() const;

    /** Invalidate everything (rollback discards cached state). */
    void invalidateAll();

    const CacheConfig &config() const { return config_; }
    const CacheCounters &counters() const { return counters_; }

    /** Publish counters as "<prefix>.hits" etc. */
    void exportStats(StatSet &stats, const std::string &prefix) const;

  private:
    /** Sentinel way index for "not resident". */
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /** A mask when the set count is a power of two, as every Table I
     *  geometry is; a division otherwise. */
    std::size_t
    setOf(LineId line) const
    {
        return setMask_ != 0 ? line & setMask_ : line % sets_;
    }

    /** Way index of @p line, or kNoWay. */
    std::size_t
    find(LineId line) const
    {
        const std::size_t base = setOf(line) * config_.ways;
        for (unsigned w = 0; w < config_.ways; ++w) {
            const std::size_t i = base + w;
            if (tags_[i] == line && testBit(validBits_, i))
                return i;
        }
        return kNoWay;
    }

    /** Allocate-and-evict path of access(). */
    AccessResult accessMiss(LineId line, bool write);

    bool
    testBit(const std::vector<std::uint64_t> &bits, std::size_t i) const
    {
        return (bits[i >> 6] >> (i & 63)) & 1;
    }

    void
    setBit(std::vector<std::uint64_t> &bits, std::size_t i)
    {
        bits[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

    void
    clearBit(std::vector<std::uint64_t> &bits, std::size_t i)
    {
        bits[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    CacheConfig config_;
    std::size_t sets_;
    /** sets_ - 1 when sets_ is a power of two above 1, else 0. */
    std::size_t setMask_;

    // Structure-of-arrays way state, set-major (way i of set s lives at
    // index s * ways + i). Valid/dirty are packed 64-ways-per-word.
    std::vector<LineId> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint64_t> validBits_;
    std::vector<std::uint64_t> dirtyBits_;

    std::uint64_t useClock_ = 0;
    CacheCounters counters_;
};

} // namespace acr::cache

#endif // ACR_CACHE_CACHE_HH
