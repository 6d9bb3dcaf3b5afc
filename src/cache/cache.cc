#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace acr::cache
{

Cache::Cache(const CacheConfig &config)
    : config_(config), sets_(config.sets()),
      setMask_(std::has_single_bit(sets_) ? sets_ - 1 : 0)
{
    ACR_ASSERT(config_.ways > 0, "%s: zero ways", config_.name.c_str());
    ACR_ASSERT(sets_ > 0, "%s: size too small for geometry",
               config_.name.c_str());
    ACR_ASSERT(config_.sizeBytes % (config_.ways * kLineBytes) == 0,
               "%s: size not a multiple of way size",
               config_.name.c_str());
    const std::size_t n = sets_ * config_.ways;
    tags_.assign(n, 0);
    lastUse_.assign(n, 0);
    validBits_.assign((n + 63) / 64, 0);
    dirtyBits_.assign((n + 63) / 64, 0);
}

AccessResult
Cache::accessMiss(LineId line, bool write)
{
    AccessResult result;
    ++counters_.misses;

    // Choose a victim: an invalid way if any, else true LRU.
    const std::size_t base = setOf(line) * config_.ways;
    std::size_t victim = base;
    for (unsigned w = 0; w < config_.ways; ++w) {
        const std::size_t i = base + w;
        if (!testBit(validBits_, i)) {
            victim = i;
            break;
        }
        if (lastUse_[i] < lastUse_[victim])
            victim = i;
    }

    if (testBit(validBits_, victim)) {
        ++counters_.evictions;
        if (testBit(dirtyBits_, victim)) {
            ++counters_.dirtyEvictions;
            result.dirtyVictim = tags_[victim];
            result.hasDirtyVictim = true;
        }
    }

    tags_[victim] = line;
    setBit(validBits_, victim);
    if (write)
        setBit(dirtyBits_, victim);
    else
        clearBit(dirtyBits_, victim);
    lastUse_[victim] = useClock_;
    return result;
}

bool
Cache::contains(LineId line) const
{
    return find(line) != kNoWay;
}

bool
Cache::isDirty(LineId line) const
{
    std::size_t i = find(line);
    return i != kNoWay && testBit(dirtyBits_, i);
}

bool
Cache::invalidate(LineId line)
{
    if (std::size_t i = find(line); i != kNoWay) {
        bool was_dirty = testBit(dirtyBits_, i);
        clearBit(validBits_, i);
        clearBit(dirtyBits_, i);
        ++counters_.invalidations;
        return was_dirty;
    }
    return false;
}

bool
Cache::clean(LineId line)
{
    if (std::size_t i = find(line); i != kNoWay) {
        bool was_dirty = testBit(dirtyBits_, i);
        clearBit(dirtyBits_, i);
        return was_dirty;
    }
    return false;
}

std::vector<LineId>
Cache::dirtyLines() const
{
    // Dirty implies valid (every transition that sets a dirty bit also
    // sets the valid bit); the AND keeps the invariant explicit.
    std::vector<LineId> out;
    for (std::size_t w = 0; w < dirtyBits_.size(); ++w) {
        std::uint64_t bits = dirtyBits_[w] & validBits_[w];
        while (bits != 0) {
            unsigned b = static_cast<unsigned>(std::countr_zero(bits));
            out.push_back(tags_[w * 64 + b]);
            bits &= bits - 1;
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t
Cache::dirtyCount() const
{
    std::size_t n = 0;
    for (std::size_t w = 0; w < dirtyBits_.size(); ++w)
        n += static_cast<std::size_t>(
            std::popcount(dirtyBits_[w] & validBits_[w]));
    return n;
}

void
Cache::invalidateAll()
{
    std::fill(validBits_.begin(), validBits_.end(), 0);
    std::fill(dirtyBits_.begin(), dirtyBits_.end(), 0);
}

void
Cache::exportStats(StatSet &stats, const std::string &prefix) const
{
    stats.add(prefix + ".hits", static_cast<double>(counters_.hits));
    stats.add(prefix + ".misses", static_cast<double>(counters_.misses));
    stats.add(prefix + ".evictions",
              static_cast<double>(counters_.evictions));
    stats.add(prefix + ".dirtyEvictions",
              static_cast<double>(counters_.dirtyEvictions));
    stats.add(prefix + ".invalidations",
              static_cast<double>(counters_.invalidations));
}

} // namespace acr::cache
