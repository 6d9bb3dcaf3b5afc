/**
 * @file
 * Unit and property tests for the set-associative cache and the
 * directory. The cache property test runs random traffic against a
 * reference model tracking residency and dirtiness.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cache/cache.hh"
#include "cache/directory.hh"
#include "common/rng.hh"

namespace acr::cache
{
namespace
{

CacheConfig
tinyCache(unsigned ways = 2, std::size_t lines = 8)
{
    CacheConfig config;
    config.name = "tiny";
    config.ways = ways;
    config.sizeBytes = lines * kLineBytes;
    config.latency = 1;
    return config;
}

TEST(Cache, GeometryDerivation)
{
    CacheConfig config;
    config.sizeBytes = 32 * 1024;
    config.ways = 8;
    EXPECT_EQ(config.lines(), 512u);
    EXPECT_EQ(config.sets(), 64u);
}

TEST(Cache, MissThenHit)
{
    Cache cache(tinyCache());
    EXPECT_FALSE(cache.access(5, false).hit);
    EXPECT_TRUE(cache.access(5, false).hit);
    EXPECT_EQ(cache.counters().hits, 1u);
    EXPECT_EQ(cache.counters().misses, 1u);
}

TEST(Cache, WriteSetsDirtyReadDoesNot)
{
    Cache cache(tinyCache());
    cache.access(1, false);
    EXPECT_FALSE(cache.isDirty(1));
    cache.access(1, true);
    EXPECT_TRUE(cache.isDirty(1));
}

TEST(Cache, AccessReportsPriorDirtyState)
{
    Cache cache(tinyCache());
    cache.access(1, true);
    auto r = cache.access(1, true);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.wasDirty);
    auto r2 = cache.access(2, false);
    cache.access(2, true);
    r2 = cache.access(2, true);
    EXPECT_TRUE(r2.wasDirty);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way, 4 sets: lines 0, 4, 8 collide in set 0.
    Cache cache(tinyCache(2, 8));
    cache.access(0, false);
    cache.access(4, false);
    cache.access(0, false);  // 0 now MRU
    auto r = cache.access(8, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(4)) << "LRU way (4) must be evicted";
}

TEST(Cache, NonPowerOfTwoSetCountMapsByModulo)
{
    // 3 sets x 2 ways: lines 0, 3 and 6 share set 0, so the third
    // access evicts the least recently used of them, line 0.
    Cache three(tinyCache(2, 6));
    three.access(0, false);
    three.access(3, false);
    EXPECT_FALSE(three.access(6, false).hit);
    EXPECT_FALSE(three.contains(0));
    EXPECT_TRUE(three.contains(3));
    EXPECT_TRUE(three.contains(6));

    // Lines 0, 1 and 2 fall in three different sets.
    Cache spread(tinyCache(2, 6));
    for (LineId line : {0, 1, 2})
        spread.access(line, false);
    for (LineId line : {0, 1, 2})
        EXPECT_TRUE(spread.access(line, false).hit) << "line " << line;
    EXPECT_EQ(spread.counters().evictions, 0u);

    // 4 sets x 2 ways, a power of two: the set mask maps lines 0, 4
    // and 8 to set 0, so the third access evicts line 0.
    Cache four(tinyCache(2, 8));
    four.access(0, false);
    four.access(4, false);
    EXPECT_FALSE(four.access(8, false).hit);
    EXPECT_FALSE(four.contains(0));
    EXPECT_EQ(four.counters().evictions, 1u);
}

TEST(Cache, DirtyEvictionReportsVictim)
{
    Cache cache(tinyCache(2, 8));
    cache.access(0, true);
    cache.access(4, false);
    auto r = cache.access(8, false);
    ASSERT_TRUE(r.hasDirtyVictim);
    EXPECT_EQ(r.dirtyVictim, 0u);
    EXPECT_EQ(cache.counters().dirtyEvictions, 1u);
}

TEST(Cache, CleanKeepsResidencyDropsDirty)
{
    Cache cache(tinyCache());
    cache.access(3, true);
    EXPECT_TRUE(cache.clean(3));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_FALSE(cache.isDirty(3));
    EXPECT_FALSE(cache.clean(3)) << "already clean";
    EXPECT_FALSE(cache.clean(99)) << "not resident";
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache cache(tinyCache());
    cache.access(3, true);
    EXPECT_TRUE(cache.invalidate(3));
    EXPECT_FALSE(cache.contains(3));
    EXPECT_FALSE(cache.invalidate(3));
}

TEST(Cache, DirtyLinesSortedAndCounted)
{
    Cache cache(tinyCache(2, 8));
    cache.access(6, true);
    cache.access(1, true);
    cache.access(2, false);
    auto dirty = cache.dirtyLines();
    ASSERT_EQ(dirty.size(), 2u);
    EXPECT_EQ(dirty[0], 1u);
    EXPECT_EQ(dirty[1], 6u);
    EXPECT_EQ(cache.dirtyCount(), 2u);
    cache.invalidateAll();
    EXPECT_EQ(cache.dirtyCount(), 0u);
}

/** Random traffic against a reference model of residency/dirtiness. */
TEST(CacheProperty, MatchesReferenceModelUnderRandomTraffic)
{
    Cache cache(tinyCache(4, 32));  // 8 sets x 4 ways
    // Reference: per set, the resident lines and their dirty bits.
    std::map<LineId, bool> resident;
    Rng rng(77);

    for (int i = 0; i < 50000; ++i) {
        LineId line = rng.below(64);
        bool write = rng.chance(0.4);
        bool was_resident = resident.count(line) != 0;

        auto r = cache.access(line, write);
        EXPECT_EQ(r.hit, was_resident);
        if (r.hasDirtyVictim) {
            ASSERT_TRUE(resident.count(r.dirtyVictim));
            EXPECT_TRUE(resident.at(r.dirtyVictim));
            resident.erase(r.dirtyVictim);
        } else if (!was_resident) {
            // A clean victim may have been evicted silently; sync by
            // removing whatever left the set.
            std::set<LineId> gone;
            for (const auto &[l, d] : resident) {
                if (!cache.contains(l))
                    gone.insert(l);
            }
            for (LineId l : gone) {
                EXPECT_FALSE(resident.at(l))
                    << "dirty line " << l << " vanished unreported";
                resident.erase(l);
            }
        }
        resident[line] = (was_resident && resident[line]) || write;
        EXPECT_EQ(cache.isDirty(line), resident[line]);
    }

    // Final dirty set must agree exactly.
    std::size_t dirty_ref = 0;
    for (const auto &[l, d] : resident)
        if (d)
            ++dirty_ref;
    EXPECT_EQ(cache.dirtyCount(), dirty_ref);
}

TEST(Directory, ReadersBecomeSharers)
{
    Directory dir(4);
    EXPECT_EQ(dir.onRead(0, 10), kInvalidCore);
    EXPECT_EQ(dir.onRead(1, 10), kInvalidCore);
    EXPECT_EQ(dir.sharers(10), 0b11u);
    EXPECT_EQ(dir.owner(10), kInvalidCore);
}

TEST(Directory, WriteTakesOwnershipAndReportsInvalidations)
{
    Directory dir(4);
    dir.onRead(0, 10);
    dir.onRead(1, 10);
    SharerMask inv = dir.onWrite(2, 10);
    EXPECT_EQ(inv, 0b011u);
    EXPECT_EQ(dir.owner(10), 2u);
    EXPECT_EQ(dir.sharers(10), 0b100u);
}

TEST(Directory, OwnWriteUpgradesSilently)
{
    Directory dir(4);
    dir.onRead(0, 10);
    EXPECT_EQ(dir.onWrite(0, 10), 0u);
}

TEST(Directory, ReadFromDirtyOwnerForwards)
{
    Directory dir(4);
    dir.onWrite(3, 10);
    EXPECT_EQ(dir.onRead(1, 10), 3u);
    EXPECT_EQ(dir.owner(10), kInvalidCore) << "owner downgraded";
}

TEST(Directory, InteractionsTrackCommunication)
{
    Directory dir(4);
    dir.onWrite(0, 10);
    dir.onRead(1, 10);  // 1 reads 0's data
    EXPECT_TRUE(dir.interactions(0) & (SharerMask{1} << 1));
    EXPECT_TRUE(dir.interactions(1) & (SharerMask{1} << 0));
    EXPECT_FALSE(dir.interactions(2) & ~(SharerMask{1} << 2));
}

TEST(Directory, CommunicationGroupsAreConnectedComponents)
{
    Directory dir(6);
    dir.onWrite(0, 1);
    dir.onRead(1, 1);  // 0-1
    dir.onWrite(2, 2);
    dir.onRead(3, 2);  // 2-3
    auto groups = dir.communicationGroups();
    // {0,1}, {2,3}, {4}, {5}
    EXPECT_EQ(groups.size(), 4u);
    std::set<SharerMask> set(groups.begin(), groups.end());
    EXPECT_TRUE(set.count(0b000011));
    EXPECT_TRUE(set.count(0b001100));
    EXPECT_TRUE(set.count(0b010000));
    EXPECT_TRUE(set.count(0b100000));
}

TEST(Directory, TransitiveClosureMergesGroups)
{
    Directory dir(4);
    dir.onWrite(0, 1);
    dir.onRead(1, 1);
    dir.onWrite(1, 2);
    dir.onRead(2, 2);
    auto groups = dir.communicationGroups();
    EXPECT_EQ(groups.size(), 2u);  // {0,1,2}, {3}
    std::set<SharerMask> set(groups.begin(), groups.end());
    EXPECT_TRUE(set.count(0b0111));
}

TEST(Directory, ClearInteractionsResetsGroups)
{
    Directory dir(4);
    dir.onWrite(0, 1);
    dir.onRead(1, 1);
    dir.clearInteractions();
    EXPECT_EQ(dir.communicationGroups().size(), 4u);
}

TEST(Directory, EvictionRemovesSharerAndOwner)
{
    Directory dir(4);
    dir.onWrite(0, 10);
    dir.onEviction(0, 10);
    EXPECT_EQ(dir.sharers(10), 0u);
    EXPECT_EQ(dir.owner(10), kInvalidCore);
}

TEST(Directory, DropCoresScrubsState)
{
    Directory dir(4);
    dir.onWrite(0, 10);
    dir.onRead(1, 10);
    dir.dropCores(0b0011);
    EXPECT_EQ(dir.sharers(10), 0u);
    EXPECT_EQ(dir.owner(10), kInvalidCore);
}

TEST(Directory, GroupsOfEveryCoreAppearsOnce)
{
    Rng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        unsigned n = 1 + rng.below(16);
        std::vector<SharerMask> adj(n);
        for (unsigned c = 0; c < n; ++c) {
            adj[c] = SharerMask{1} << c;
            if (rng.chance(0.3)) {
                unsigned d = rng.below(n);
                adj[c] |= SharerMask{1} << d;
            }
        }
        auto groups = Directory::groupsOf(adj);
        SharerMask all = 0;
        for (auto g : groups) {
            EXPECT_EQ(all & g, 0u) << "groups must be disjoint";
            all |= g;
        }
        EXPECT_EQ(all, (n >= 64 ? ~SharerMask{0}
                                : (SharerMask{1} << n) - 1));
    }
}

} // namespace
} // namespace acr::cache
