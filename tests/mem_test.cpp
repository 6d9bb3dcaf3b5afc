/**
 * @file
 * Unit tests for MainMemory (functional state) and the DRAM timing
 * model (latency, per-controller bandwidth queues, interleaving).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/dram.hh"
#include "mem/main_memory.hh"

namespace acr::mem
{
namespace
{

TEST(MainMemory, UntouchedWordsReadZero)
{
    MainMemory m;
    EXPECT_EQ(m.read(0), 0u);
    EXPECT_EQ(m.read(123456789), 0u);
    EXPECT_EQ(m.pageCount(), 0u);
}

TEST(MainMemory, WriteReturnsOldValue)
{
    MainMemory m;
    EXPECT_EQ(m.write(10, 5), 0u);
    EXPECT_EQ(m.write(10, 7), 5u);
    EXPECT_EQ(m.read(10), 7u);
}

TEST(MainMemory, SparsePagesAllocateOnDemand)
{
    MainMemory m;
    m.write(0, 1);
    EXPECT_EQ(m.pageCount(), 1u);
    m.write(MainMemory::kPageWords - 1, 1);
    EXPECT_EQ(m.pageCount(), 1u);
    m.write(MainMemory::kPageWords, 1);
    EXPECT_EQ(m.pageCount(), 2u);
    m.write(1ull << 40, 1);
    EXPECT_EQ(m.pageCount(), 3u);
}

TEST(MainMemory, ImageSkipsZeros)
{
    MainMemory m;
    m.write(5, 9);
    m.write(6, 0);  // allocates but stays zero
    auto image = m.image();
    EXPECT_EQ(image.size(), 1u);
    EXPECT_EQ(image.at(5), 9u);
}

TEST(MainMemory, FirstDifferenceFindsTheFirstMismatch)
{
    MainMemory a, b;
    a.write(100, 1);
    b.write(100, 1);
    EXPECT_EQ(a.firstDifference(b), kInvalidAddr);

    b.write(200, 5);
    EXPECT_EQ(a.firstDifference(b), 200u);

    // Zero-valued backed words compare equal to absent words.
    MainMemory c, d;
    c.write(300, 0);
    EXPECT_EQ(c.firstDifference(d), kInvalidAddr);
}

TEST(MainMemory, DigestTreatsZeroPagesAsAbsentAndCountsOverflowPages)
{
    MainMemory a, b;
    EXPECT_EQ(a.digest(), 0u);
    a.write(5 * MainMemory::kPageWords + 3, 0);  // allocates, stays zero
    ASSERT_EQ(a.pageCount(), 1u);
    EXPECT_EQ(a.digest(), b.digest());

    const Addr overflow =
        MainMemory::kDirectPages * MainMemory::kPageWords + 7;
    a.write(overflow, 42);
    EXPECT_EQ(a.digest(), MainMemory::wordDigest(overflow, 42));
    b.write(overflow, 42);
    EXPECT_EQ(a.digest(), b.digest());

    // A running digest kept from the stores alone tracks the scan.
    std::uint64_t running = a.digest();
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.below(3 * MainMemory::kPageWords);
        const Word value = rng.chance(0.2) ? 0 : rng.next();
        const Word old = a.write(addr, value);
        running += MainMemory::wordDigest(addr, value) -
                   MainMemory::wordDigest(addr, old);
    }
    EXPECT_EQ(running, a.digest());
    EXPECT_NE(a.digest(), b.digest());
}

TEST(MainMemory, DifferencesAreAscendingAndStopAtTheLimit)
{
    constexpr Addr kPage = MainMemory::kPageWords;
    const Addr overflow = MainMemory::kDirectPages * kPage + 1;
    MainMemory a, b;
    a.write(7, 2);
    b.write(7, 2);            // equal on both sides
    b.write(3 * kPage + 1, 1);  // page only b has
    b.write(overflow, 5);     // overflow page only b has
    a.write(kPage - 1, 3);
    a.write(20, 4);
    a.write(21, 4);
    a.write(2 * kPage, 0);    // allocated zero page: no difference

    const std::vector<Addr> all{20, 21, kPage - 1, 3 * kPage + 1,
                                overflow};
    EXPECT_EQ(a.differences(b, 10), all);
    EXPECT_EQ(b.differences(a, 10), all);
    EXPECT_EQ(a.differences(b, 2), (std::vector<Addr>{20, 21}));
    EXPECT_EQ(a.differences(b, 4),
              (std::vector<Addr>(all.begin(), all.begin() + 4)));
    EXPECT_TRUE(a.differences(b, 0).empty());
    EXPECT_TRUE(a.differences(a, 10).empty());
    EXPECT_EQ(a.firstDifference(b), 20u);
}

TEST(MainMemory, RandomizedWriteReadAgainstReferenceModel)
{
    MainMemory m;
    std::map<Addr, Word> reference;
    Rng rng(2024);
    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.below(1 << 16) + (rng.below(4) << 30);
        if (rng.chance(0.7)) {
            Word value = rng.next();
            Word expected_old = reference.count(addr) ? reference[addr]
                                                      : 0;
            EXPECT_EQ(m.write(addr, value), expected_old);
            reference[addr] = value;
        } else {
            Word expected = reference.count(addr) ? reference[addr] : 0;
            EXPECT_EQ(m.read(addr), expected);
        }
    }
}

TEST(Dram, ControllersForFollowsTableI)
{
    EXPECT_EQ(DramConfig::controllersFor(1), 1u);
    EXPECT_EQ(DramConfig::controllersFor(4), 1u);
    EXPECT_EQ(DramConfig::controllersFor(8), 2u);
    EXPECT_EQ(DramConfig::controllersFor(16), 4u);
    EXPECT_EQ(DramConfig::controllersFor(32), 8u);
}

TEST(Dram, SingleAccessPaysLatency)
{
    DramConfig config;
    config.latency = 100;
    config.bytesPerCycle = 64.0;
    config.controllers = 1;
    DramModel dram(config);
    Cycle done = dram.lineRead(0, 1000);
    // One line occupies one cycle of bandwidth at 64 B/cycle.
    EXPECT_EQ(done, 1000 + 1 + 100);
}

TEST(Dram, BandwidthQueuesBackToBackAccesses)
{
    DramConfig config;
    config.latency = 0;
    config.bytesPerCycle = 6.4;  // 10 cycles per 64B line
    config.controllers = 1;
    DramModel dram(config);
    Cycle t1 = dram.lineRead(0, 0);
    Cycle t2 = dram.lineRead(1, 0);
    EXPECT_GT(t2, t1) << "second access must queue behind the first";
    EXPECT_GE(t2, 19u);
    EXPECT_DOUBLE_EQ(dram.counters().queueDelayCycles, 10.0);
}

TEST(Dram, ControllersInterleaveAndDecouple)
{
    DramConfig config;
    config.latency = 0;
    config.bytesPerCycle = 6.4;
    config.controllers = 2;
    DramModel dram(config);
    EXPECT_NE(dram.controllerOf(0), dram.controllerOf(1));
    EXPECT_EQ(dram.controllerOf(0), dram.controllerOf(2));
    // Lines on different controllers don't queue behind each other.
    Cycle t1 = dram.lineRead(0, 0);
    Cycle t2 = dram.lineRead(1, 0);
    EXPECT_EQ(t1, t2);
}

TEST(Dram, WordAccessesAreCheaperThanLines)
{
    DramConfig config;
    config.latency = 0;
    config.bytesPerCycle = 1.0;
    config.controllers = 1;
    DramModel dram(config);
    Cycle word = dram.wordWrite(0, 0);
    dram.reset();
    Cycle line = dram.lineWrite(0, 0);
    EXPECT_LT(word, line);
}

TEST(Dram, CountersTrackTraffic)
{
    DramModel dram(DramConfig{});
    dram.lineRead(0, 0);
    dram.lineWrite(1, 0);
    dram.wordRead(16, 0);
    EXPECT_EQ(dram.counters().reads, 2u);
    EXPECT_EQ(dram.counters().writes, 1u);
    EXPECT_EQ(dram.counters().bytes, 2 * kLineBytes + kWordBytes);

    StatSet stats;
    dram.exportStats(stats, "dram");
    EXPECT_DOUBLE_EQ(stats.get("dram.reads"), 2.0);
    EXPECT_DOUBLE_EQ(stats.get("dram.bytes"),
                     static_cast<double>(2 * kLineBytes + kWordBytes));
}

TEST(Dram, ResetClearsQueuesButKeepsCounters)
{
    DramConfig config;
    config.latency = 0;
    config.bytesPerCycle = 1.0;
    config.controllers = 1;
    DramModel dram(config);
    dram.lineRead(0, 0);
    dram.reset();
    Cycle t = dram.lineRead(0, 0);
    EXPECT_EQ(t, kLineBytes);  // no residual queueing
    EXPECT_EQ(dram.counters().reads, 2u);
}

} // namespace
} // namespace acr::mem
