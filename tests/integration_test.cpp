/**
 * @file
 * End-to-end integration tests over the full stack (workload → slicer →
 * checkpointing → error injection → recovery → verification). The
 * runtime's recovery oracle checks every run's final state and reports
 * a divergence in the result, so run() below requires recovery
 * transparency — the final memory image equals the error-free
 * reference — of every run; the tests add cross-configuration
 * invariants from the paper on top.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"

namespace acr::harness
{
namespace
{

/** Shared runner so programs, passes, and baselines are built once. */
Runner &
runner()
{
    static Runner instance(4);
    return instance;
}

/** One point on the shared runner, required to recover transparently
 *  (the oracle's verdict travels in the result). */
ExperimentResult
run(const std::string &name, const ExperimentConfig &cfg)
{
    ExperimentResult result = runner().run(name, cfg);
    EXPECT_EQ(result.oracleDivergences, 0u)
        << name << " " << cfg.label() << ":\n"
        << result.oracleReport;
    EXPECT_FALSE(result.unrecoverable) << result.unrecoverableDetail;
    return result;
}

ExperimentConfig
config(BerMode mode, unsigned errors = 0,
       ckpt::Coordination coordination = ckpt::Coordination::kGlobal)
{
    ExperimentConfig cfg;
    cfg.mode = mode;
    cfg.numErrors = errors;
    cfg.coordination = coordination;
    cfg.numCheckpoints = 15;
    cfg.sliceThreshold = 0;  // per-workload default
    return cfg;
}

class EveryWorkload : public testing::TestWithParam<std::string>
{
};

TEST_P(EveryWorkload, FourCoreConfigurationsAreTransparentAndOrdered)
{
    const std::string name = GetParam();
    const auto &base = runner().noCkpt(name);
    ASSERT_GT(base.cycles, 0u);

    auto ckpt_ne = run(name, config(BerMode::kCkpt));
    auto reckpt_ne = run(name, config(BerMode::kReCkpt));
    auto ckpt_e = run(name, config(BerMode::kCkpt, 1));
    auto reckpt_e = run(name, config(BerMode::kReCkpt, 1));

    // Checkpointing costs time and energy (Fig. 6/7: all bars > 0).
    EXPECT_GT(ckpt_ne.cycles, base.cycles);
    EXPECT_GT(ckpt_ne.energyPj, base.energyPj);

    // Errors add recovery overhead on top.
    EXPECT_GT(ckpt_e.cycles, ckpt_ne.cycles);
    EXPECT_EQ(ckpt_e.recoveries, 1u);
    EXPECT_EQ(reckpt_e.recoveries, 1u);
    EXPECT_EQ(ckpt_ne.recoveries, 0u);

    // ACR omits recomputable values and shrinks stored checkpoints
    // (Sec. V-C); it never hurts, and the number of checkpoints is
    // schedule-determined, not mode-determined.
    EXPECT_GT(reckpt_ne.ckptBytesOmitted, 0u) << "no omissions at all";
    EXPECT_LT(reckpt_ne.ckptBytesStored, ckpt_ne.ckptBytesStored);
    EXPECT_EQ(reckpt_ne.checkpointsEstablished,
              ckpt_ne.checkpointsEstablished);

    // ACR reduces the time and energy overhead of checkpointing
    // (the paper's headline result; allow a hair of slack for
    // queueing noise on nearly-unsliceable kernels).
    EXPECT_LE(reckpt_ne.cycles, ckpt_ne.cycles * 101 / 100);
    EXPECT_LE(reckpt_e.cycles, ckpt_e.cycles * 101 / 100);
    EXPECT_LE(reckpt_ne.energyPj, ckpt_ne.energyPj * 1.01);

    // The set of omittable values does not depend on the presence of
    // errors (Sec. V-C): interval histories agree up to the first
    // recovery perturbation — compare the first third.
    auto &h_ne = reckpt_ne.history;
    auto &h_e = reckpt_e.history;
    std::size_t n = std::min(h_ne.size(), h_e.size()) / 3;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        EXPECT_EQ(h_ne[i].amnesicRecords, h_e[i].amnesicRecords)
            << "interval " << i;
    }
}

TEST_P(EveryWorkload, AccountingIdentitiesHold)
{
    const std::string name = GetParam();
    auto result = run(name, config(BerMode::kReCkpt, 1));

    // Per-interval bookkeeping sums to the run totals (Eq. 1 pieces).
    std::uint64_t records = 0, amnesic = 0, logged = 0, omitted = 0;
    for (const auto &interval : result.history) {
        records += interval.records;
        amnesic += interval.amnesicRecords;
        logged += interval.loggedBytes;
        omitted += interval.omittedBytes;
        EXPECT_EQ(interval.loggedBytes,
                  (interval.records - interval.amnesicRecords) *
                      ckpt::kLogRecordBytes);
        EXPECT_EQ(interval.omittedBytes,
                  interval.amnesicRecords * ckpt::kLogRecordBytes);
    }
    EXPECT_DOUBLE_EQ(result.stats.get("ckpt.records"),
                     static_cast<double>(records));
    EXPECT_DOUBLE_EQ(result.stats.get("ckpt.amnesicRecords"),
                     static_cast<double>(amnesic));
    EXPECT_DOUBLE_EQ(result.stats.get("ckpt.loggedBytes"),
                     static_cast<double>(logged));
    EXPECT_DOUBLE_EQ(result.stats.get("ckpt.omittedBytes"),
                     static_cast<double>(omitted));
    EXPECT_EQ(result.ckptBytesOmitted, omitted);

    // Recovery accounting: every applied record was either restored
    // from the log or recomputed.
    EXPECT_GT(result.stats.get("rec.recoveries"), 0.0);
    EXPECT_GT(result.stats.get("rec.restoredWords") +
                  result.stats.get("rec.recomputedWords"),
              0.0);
    // Recomputation implies replayed ALU work.
    if (result.stats.get("rec.recomputedWords") > 0) {
        EXPECT_GT(result.stats.get("acr.replayAluOps"), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, EveryWorkload,
                         testing::ValuesIn(workloads::allWorkloadNames()),
                         [](const auto &info) { return info.param; });

TEST(Integration, LocalCoordinationIsTransparentAndNoSlower)
{
    // dc/is communicate in pairs at most: local coordination must not
    // slow them down (Fig. 13's y <= 1 for them).
    for (const char *name : {"dc", "is"}) {
        auto global =
            run(name, config(BerMode::kCkpt, 0));
        auto local = run(
            name,
            config(BerMode::kCkpt, 0, ckpt::Coordination::kLocal));
        EXPECT_LE(local.cycles, global.cycles) << name;
    }
}

TEST(Integration, LocalRecoveryWithAcrIsTransparent)
{
    for (const char *name : {"dc", "mg"}) {
        auto result = run(
            name,
            config(BerMode::kReCkpt, 2, ckpt::Coordination::kLocal));
        EXPECT_EQ(result.recoveries, 2u) << name;
    }
}

TEST(Integration, MultipleErrorsAllRecovered)
{
    auto result = run("bt", config(BerMode::kReCkpt, 4));
    EXPECT_EQ(result.recoveries, 4u);
    EXPECT_DOUBLE_EQ(result.stats.get("fault.detected"), 4.0);
    EXPECT_DOUBLE_EQ(result.stats.get("fault.dropped"), 0.0);
}

TEST(Integration, MoreErrorsMeanMoreOverhead)
{
    auto one = run("ft", config(BerMode::kCkpt, 1));
    auto three = run("ft", config(BerMode::kCkpt, 3));
    EXPECT_GT(three.cycles, one.cycles) << "Fig. 11's monotone trend";
}

TEST(Integration, MoreCheckpointsMeanMoreOverhead)
{
    auto sparse = run("mg", config(BerMode::kCkpt));
    auto cfg = config(BerMode::kCkpt);
    cfg.numCheckpoints = 60;
    auto dense = run("mg", cfg);
    EXPECT_GT(dense.checkpointsEstablished,
              sparse.checkpointsEstablished);
    EXPECT_GT(dense.cycles, sparse.cycles) << "Fig. 12's monotone trend";
}

TEST(Integration, ThresholdSweepIsMonotoneInOmission)
{
    // Table II's property: higher thresholds never omit less.
    std::uint64_t prev = 0;
    for (unsigned threshold : {10u, 30u, 50u}) {
        auto cfg = config(BerMode::kReCkpt);
        cfg.sliceThreshold = threshold;
        auto result = run("bt", cfg);
        EXPECT_GE(result.ckptBytesOmitted, prev)
            << "threshold " << threshold;
        prev = result.ckptBytesOmitted;
    }
    EXPECT_GT(prev, 0u);
}

TEST(Integration, CostModelPolicyOmitsAtLeastAsMuchAsGreedy)
{
    auto greedy_cfg = config(BerMode::kReCkpt);
    greedy_cfg.sliceThreshold = 10;
    auto greedy = run("lu", greedy_cfg);

    auto cost_cfg = greedy_cfg;
    cost_cfg.policy = slice::SelectionPolicy::kCostModel;
    auto cost = run("lu", cost_cfg);
    EXPECT_GE(cost.ckptBytesOmitted, greedy.ckptBytesOmitted);
}

TEST(Integration, ScalabilityAcrossThreadCounts)
{
    // Sec. V-D4: the reproduction must run at 8 and 16 threads too;
    // checkpoint overhead stays positive and ACR keeps helping.
    for (unsigned threads : {8u, 16u}) {
        Runner wide(threads);
        auto base = wide.noCkpt("is");
        auto ckpt = wide.run("is", config(BerMode::kCkpt));
        auto reckpt = wide.run("is", config(BerMode::kReCkpt));
        EXPECT_GT(ckpt.timeOverheadPct(base.cycles), 0.0);
        EXPECT_LT(reckpt.cycles, ckpt.cycles);
        EXPECT_EQ(ckpt.oracleDivergences + reckpt.oracleDivergences, 0u);
    }
}

TEST(Integration, NoCkptIsCheapestEverywhere)
{
    const auto &base = runner().noCkpt("sp");
    for (auto mode : {BerMode::kCkpt, BerMode::kReCkpt}) {
        auto result = run("sp", config(mode));
        EXPECT_GT(result.cycles, base.cycles);
        EXPECT_GT(result.energyPj, base.energyPj);
        EXPECT_GT(result.edp, base.edp);
    }
}

} // namespace
} // namespace acr::harness
