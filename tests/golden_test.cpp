/**
 * @file
 * Golden regression lock on the reproduction's headline numbers at the
 * paper's default evaluation point (8 threads, 25 checkpoints,
 * per-workload default slice thresholds — the grid of Figs. 6/7/9):
 * the overall checkpoint-size reduction, the execution-time overhead
 * reduction, and the energy overhead reduction of ReCkpt_NE vs
 * Ckpt_NE, per workload and on average, all per bench_util.hh's
 * arithmetic. The simulator is fully deterministic, so these match to
 * floating-point exactness; the ±0.01 tolerance only absorbs honest
 * refactors of summation order. Any real change to the modeled
 * machinery must update these numbers CONSCIOUSLY, in this file, with
 * the diff explained in the commit.
 */

#include <gtest/gtest.h>

#include "bench_util.hh"

namespace acr::bench
{
namespace
{

using harness::BerMode;

constexpr double kTolerance = 0.01;

/** Run (every workload × @p configs) on the default machine. */
std::vector<harness::ExperimentResult>
runGrid(const std::vector<harness::ExperimentConfig> &configs)
{
    harness::RunnerPool pool;
    auto results = harness::ShardedSweep(pool).run(
        crossGrid(workloads::allWorkloadNames(), configs));
    // The runtime's oracle checks every run's final image and reports
    // a divergence in the result.
    for (const auto &result : results)
        EXPECT_EQ(result.oracleDivergences, 0u) << result.oracleReport;
    return results;
}

struct GoldenRow
{
    const char *workload;
    double sizeReductionPct;    ///< overall ckpt-size red., ReCkpt vs Ckpt
    double timeReductionPct;    ///< time-overhead red., ReCkpt vs Ckpt
    double energyReductionPct;  ///< energy-overhead red., ReCkpt vs Ckpt
};

// Pinned from the current reproduction (see EXPERIMENTS.md; regenerate
// by running this test and copying the reported actuals).
constexpr GoldenRow kGolden[] = {
    {"bt", 30.752642, 19.243233, 18.929279},
    {"cg", 7.070822, 5.585331, 4.562969},
    {"dc", 61.164657, 35.655396, 36.347058},
    {"ft", 20.045723, 13.239789, 12.642953},
    {"is", 60.826544, 35.855340, 34.455618},
    {"lu", 37.136395, 22.476707, 22.467135},
    {"mg", 11.001495, 7.031273, 6.657590},
    {"sp", 33.678119, 20.779221, 20.592067},
};

// Same reductions under local coordination (Sec. V-E): only
// communicating cores cooperate at each checkpoint, so the interval
// structure — and with it every reduction — shifts. Pinned from the
// same seed engine as kGolden; the hot-path rewrite must reproduce
// both coordination modes exactly.
constexpr GoldenRow kGoldenLocal[] = {
    {"bt", 30.752642, 19.464181, 19.060649},
    {"cg", 7.070822, 5.585331, 4.562969},
    {"dc", 61.164657, 38.138619, 37.770761},
    {"ft", 20.045723, 20.269369, 15.763205},
    {"is", 60.826544, 34.432046, 33.278069},
    {"lu", 37.136395, 23.159238, 22.750200},
    {"mg", 11.001495, 7.664674, 6.693785},
    {"sp", 33.678119, 20.779221, 20.592067},
};

TEST(Golden, HeadlineReductionsAtDefaultPoint)
{
    const std::vector<harness::ExperimentConfig> configs = {
        makeConfig(BerMode::kNoCkpt),
        makeConfig(BerMode::kCkpt),
        makeConfig(BerMode::kReCkpt),
    };
    const auto results = runGrid(configs);

    const auto &names = workloads::allWorkloadNames();
    ASSERT_EQ(names.size(), std::size(kGolden));

    for (std::size_t w = 0; w < names.size(); ++w) {
        const GoldenRow &golden = kGolden[w];
        ASSERT_EQ(names[w], golden.workload);
        const auto *row = &results[w * configs.size()];
        const auto &base = row[0];
        const auto &ckpt = row[1];
        const auto &reckpt = row[2];

        SCOPED_TRACE(names[w]);
        EXPECT_NEAR(overallSizeReductionPct(ckpt, reckpt),
                    golden.sizeReductionPct, kTolerance);
        EXPECT_NEAR(reductionPct(ckpt.timeOverheadPct(base.cycles),
                                 reckpt.timeOverheadPct(base.cycles)),
                    golden.timeReductionPct, kTolerance);
        EXPECT_NEAR(
            reductionPct(ckpt.energyOverheadPct(base.energyPj),
                         reckpt.energyOverheadPct(base.energyPj)),
            golden.energyReductionPct, kTolerance);
    }
}

TEST(Golden, HeadlineReductionsUnderLocalCoordination)
{
    const std::vector<harness::ExperimentConfig> configs = {
        makeConfig(BerMode::kNoCkpt),
        makeConfig(BerMode::kCkpt, 0, ckpt::Coordination::kLocal),
        makeConfig(BerMode::kReCkpt, 0, ckpt::Coordination::kLocal),
    };
    const auto results = runGrid(configs);

    const auto &names = workloads::allWorkloadNames();
    ASSERT_EQ(names.size(), std::size(kGoldenLocal));

    for (std::size_t w = 0; w < names.size(); ++w) {
        const GoldenRow &golden = kGoldenLocal[w];
        ASSERT_EQ(names[w], golden.workload);
        const auto *row = &results[w * configs.size()];
        const auto &base = row[0];
        const auto &ckpt = row[1];
        const auto &reckpt = row[2];

        SCOPED_TRACE(names[w]);
        EXPECT_NEAR(overallSizeReductionPct(ckpt, reckpt),
                    golden.sizeReductionPct, kTolerance);
        EXPECT_NEAR(reductionPct(ckpt.timeOverheadPct(base.cycles),
                                 reckpt.timeOverheadPct(base.cycles)),
                    golden.timeReductionPct, kTolerance);
        EXPECT_NEAR(
            reductionPct(ckpt.energyOverheadPct(base.energyPj),
                         reckpt.energyOverheadPct(base.energyPj)),
            golden.energyReductionPct, kTolerance);
    }
}

} // namespace
} // namespace acr::bench
