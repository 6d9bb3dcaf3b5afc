/**
 * @file
 * Additional coverage: full-pipeline arithmetic corner cases, cache
 * inclusion on L2 eviction, zero-input slices, 32-core and
 * scaled-problem stress, and Runner corner cases (NoCkpt baselines,
 * per-workload threshold defaults, strict AddrMap retention).
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "harness/runner.hh"
#include "isa/builder.hh"
#include "sim/system.hh"
#include "slice/instance.hh"

namespace acr
{
namespace
{

TEST(MiscCpu, DivisionCornersThroughThePipeline)
{
    isa::ProgramBuilder b("div");
    b.movi(1, 42);
    b.movi(2, 0);
    b.divu(3, 1, 2);   // 42 / 0 == 0
    b.remu(4, 1, 2);   // 42 % 0 == 42
    b.movi(5, -8);
    b.movi(6, 3);
    b.sra(7, 5, 6);    // -8 >> 3 == -1 (arithmetic)
    b.movi(8, 900);
    b.store(8, 3);
    b.store(8, 4, 1);
    b.store(8, 7, 2);
    b.halt();
    sim::MulticoreSystem sys(sim::MachineConfig::tableI(1), b.build());
    sys.runToCompletion();
    EXPECT_EQ(sys.memory().read(900), 0u);
    EXPECT_EQ(sys.memory().read(901), 42u);
    EXPECT_EQ(sys.memory().read(902), ~Word{0});
}

TEST(MiscCache, L2EvictionEnforcesInclusionOnL1)
{
    cache::HierarchyConfig hier;
    hier.l1d.sizeBytes = 2 * kLineBytes;  // 2 lines, 2 ways -> 1 set
    hier.l1d.ways = 2;
    hier.l2.sizeBytes = 4 * kLineBytes;
    hier.l2.ways = 2;
    cache::CacheSystem sys(1, hier, mem::DramConfig{});

    // Touch enough distinct lines to force L2 evictions; the evicted
    // line must leave L1 too (the write-back path invalidates it).
    for (Addr a = 0; a < 64 * kWordsPerLine; a += kWordsPerLine)
        sys.dataAccess(0, a, true, 0);
    for (LineId line : sys.l1d(0).dirtyLines()) {
        EXPECT_TRUE(sys.l2(0).contains(line) || sys.l1d(0).isDirty(line));
    }
    // Flush drains every dirty line without double counting.
    auto flush = sys.flushCores(0b1, 0);
    EXPECT_GT(flush.lines, 0u);
    EXPECT_EQ(sys.dirtyLineCount(0), 0u);
}

TEST(MiscSlice, ZeroInputSliceReplays)
{
    // movi-only slice: constants need no captured operands.
    slice::StaticSlice s;
    s.code.push_back({isa::Opcode::kMovi, 77, slice::kNoSrc,
                      slice::kNoSrc});
    s.code.push_back({isa::Opcode::kMuli, 3, 0, slice::kNoSrc});
    s.numInputs = 0;
    slice::SliceRepository repo;
    auto id = repo.intern(std::move(s));
    slice::OperandBufferAccounting buf(4);
    auto inst = slice::SliceInstance::create(id, {}, buf);
    ASSERT_NE(inst, nullptr);
    slice::ReplayCost cost;
    EXPECT_EQ(inst->replay(repo, &cost), 231u);
    EXPECT_EQ(cost.operandReads, 0u);
    EXPECT_EQ(buf.liveWords(), 0u);
}

TEST(MiscStress, ThirtyTwoCoreRunWithErrorsAndLocalCoordination)
{
    harness::Runner runner(32);
    harness::ExperimentConfig config;
    config.mode = harness::BerMode::kReCkpt;
    config.coordination = ckpt::Coordination::kLocal;
    config.numCheckpoints = 10;
    config.numErrors = 2;
    config.sliceThreshold = 0;
    auto result = runner.run("mg", config);
    EXPECT_EQ(result.recoveries +
                  static_cast<std::uint64_t>(
                      result.stats.get("fault.dropped")),
              2u);
    EXPECT_GT(result.ckptBytesOmitted, 0u);
    EXPECT_FALSE(result.unrecoverable) << result.unrecoverableDetail;
    EXPECT_EQ(result.oracleDivergences, 0u) << result.oracleReport;
}

TEST(MiscStress, ScaledProblemKeepsInvariants)
{
    harness::Runner runner(4, /*scale=*/2);
    harness::ExperimentConfig config;
    config.mode = harness::BerMode::kReCkpt;
    config.numCheckpoints = 10;
    config.numErrors = 1;
    config.sliceThreshold = 0;
    auto small = harness::Runner(4, 1).run("dc", config);
    auto big = runner.run("dc", config);
    EXPECT_GT(big.ckptBytesStored + big.ckptBytesOmitted,
              small.ckptBytesStored + small.ckptBytesOmitted);
    EXPECT_EQ(small.oracleDivergences + big.oracleDivergences, 0u);
}

TEST(MiscHarness, NoCkptModeIgnoresErrorKnobs)
{
    // NoCkpt is the clean baseline: no checkpoints, no recoveries,
    // regardless of other knobs.
    harness::Runner runner(2);
    auto result = runner.noCkpt("cg");
    EXPECT_EQ(result.checkpointsEstablished, 0u);
    EXPECT_EQ(result.recoveries, 0u);
    EXPECT_EQ(result.ckptBytesStored, 0u);
    EXPECT_TRUE(result.history.empty());
}

TEST(MiscHarness, ThresholdZeroResolvesPerWorkload)
{
    EXPECT_EQ(harness::Runner::defaultThreshold("is"), 5u);
    EXPECT_EQ(harness::Runner::defaultThreshold("bt"), 10u);
    EXPECT_EQ(harness::Runner::defaultThreshold("cg"), 10u);
}

TEST(MiscHarness, StrictAddrMapRetentionStillTransparent)
{
    // The strict two-interval retention reading must stay correct —
    // it only reduces omissions, never breaks recovery.
    harness::Runner runner(4);
    harness::ExperimentConfig strict;
    strict.mode = harness::BerMode::kReCkpt;
    strict.numCheckpoints = 15;
    strict.numErrors = 2;
    strict.addrMapRetention = 2;
    strict.sliceThreshold = 0;
    auto strict_run = runner.run("is", strict);

    auto loose = strict;
    loose.addrMapRetention = 0;
    auto loose_run = runner.run("is", loose);

    EXPECT_LE(strict_run.ckptBytesOmitted, loose_run.ckptBytesOmitted)
        << "age expiry can only reduce omission opportunities";
    EXPECT_EQ(strict_run.oracleDivergences, 0u) << strict_run.oracleReport;
    EXPECT_EQ(loose_run.oracleDivergences, 0u) << loose_run.oracleReport;
}

} // namespace
} // namespace acr
