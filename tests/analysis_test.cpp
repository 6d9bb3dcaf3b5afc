/**
 * @file
 * Tests for the Equation 1-4 decomposition helpers, including the
 * paper's Eq. 4 condition on real runs: ACR's per-recovery roll-back
 * (restore of the shrunken checkpoint + recomputation) must not exceed
 * the baseline's roll-back cost.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/analysis.hh"
#include "harness/runner.hh"

namespace acr::harness
{
namespace
{

TEST(Analysis, ExtractsTheBreakdownFromStats)
{
    ExperimentResult result;
    result.stats.set("ckpt.establishments", 10);
    result.stats.set("ckpt.establishStallCycles", 5000);
    result.stats.set("ckpt.loggedBytes", 2048);
    result.stats.set("ckpt.omittedBytes", 1024);
    result.stats.set("rec.recoveries", 2);
    result.stats.set("rec.wasteCycles", 600);
    result.stats.set("rec.rollbackCycles", 400);
    result.stats.set("rec.restoredWords", 50);
    result.stats.set("rec.recomputedWords", 30);
    result.stats.set("acr.replayAluOps", 150);

    BerBreakdown b = analyze(result);
    EXPECT_DOUBLE_EQ(b.checkpoints, 10);
    EXPECT_DOUBLE_EQ(b.meanEstablishCycles(), 500);
    EXPECT_DOUBLE_EQ(b.meanRecoveryCycles(), 500);
    EXPECT_DOUBLE_EQ(b.recomputedWords, 30);

    std::ostringstream oss;
    printBreakdown(oss, b);
    EXPECT_NE(oss.str().find("#chk = 10"), std::string::npos);
    EXPECT_NE(oss.str().find("o_waste = 600"), std::string::npos);
}

TEST(Analysis, MeansAreZeroSafe)
{
    BerBreakdown b;
    EXPECT_DOUBLE_EQ(b.meanEstablishCycles(), 0);
    EXPECT_DOUBLE_EQ(b.meanRecoveryCycles(), 0);
}

TEST(Analysis, Eq4VacuouslyHoldsWithoutRecoveries)
{
    ExperimentResult a, b;
    EXPECT_TRUE(eq4Holds(a, b));
}

TEST(Analysis, Eq4HoldsOnRealRuns)
{
    // The condition the paper derives for ACR's profitability during
    // recovery (Sec. I, Equation 4), measured on every kernel.
    Runner runner(4);
    for (const auto &name : workloads::allWorkloadNames()) {
        ExperimentConfig config;
        config.mode = BerMode::kCkpt;
        config.numErrors = 1;
        config.numCheckpoints = 15;
        config.sliceThreshold = 0;
        auto baseline = runner.run(name, config);

        config.mode = BerMode::kReCkpt;
        auto acr_run = runner.run(name, config);

        // Slack for DRAM queueing noise between the two runs.
        EXPECT_TRUE(eq4Holds(acr_run, baseline, 1.05)) << name;
        EXPECT_EQ(baseline.oracleDivergences + acr_run.oracleDivergences,
                  0u)
            << name;
    }
}

} // namespace
} // namespace acr::harness
