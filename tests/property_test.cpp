/**
 * @file
 * Randomized whole-stack property tests: for randomly generated kernel
 * shapes, checkpoint cadences, error counts and coordination modes, a
 * full ACR run must (a) terminate, (b) recover every injected error,
 * and (c) land on a final memory state bit-identical to the error-free
 * reference — the runtime's recovery oracle checks every run's
 * recomputations and final image and reports any divergence in the
 * result.
 */

#include <gtest/gtest.h>

#include "acr/slice_pass.hh"
#include "common/rng.hh"
#include "harness/ber_runtime.hh"
#include "random_kernel.hh"
#include "workloads/kernel_spec.hh"

namespace acr::harness
{
namespace
{

class RandomizedAcrRuns : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomizedAcrRuns, RecoveryIsAlwaysTransparent)
{
    Rng rng(GetParam());
    auto [program, threads] = testsupport::randomKernel(rng);
    ASSERT_EQ(program.validate(), "");

    auto machine = sim::MachineConfig::tableI(threads);

    slice::SlicePolicyConfig policy;
    policy.lengthThreshold = 5 + static_cast<unsigned>(rng.below(30));
    auto pass = amnesic::SlicePass::run(program, machine, policy);

    ExperimentConfig config;
    config.mode = rng.chance(0.8) ? BerMode::kReCkpt : BerMode::kCkpt;
    config.coordination = rng.chance(0.5) ? ckpt::Coordination::kLocal
                                          : ckpt::Coordination::kGlobal;
    config.numCheckpoints = 3 + static_cast<unsigned>(rng.below(20));
    config.numErrors = static_cast<unsigned>(rng.below(4));
    config.sliceThreshold = policy.lengthThreshold;
    config.seed = rng.next();

    const isa::Program &to_run =
        config.mode == BerMode::kReCkpt ? pass.program : program;
    auto result = BerRuntime::run(to_run, machine, config, pass);

    EXPECT_GT(result.cycles, 0u);
    EXPECT_EQ(result.checkpointsEstablished + 0u,
              result.history.size());
    std::uint64_t detected =
        static_cast<std::uint64_t>(result.stats.get("fault.detected"));
    std::uint64_t dropped =
        static_cast<std::uint64_t>(result.stats.get("fault.dropped"));
    EXPECT_EQ(detected + dropped, config.numErrors);
    EXPECT_EQ(result.recoveries, detected);
    EXPECT_FALSE(result.unrecoverable) << result.unrecoverableDetail;
    EXPECT_EQ(result.oracleDivergences, 0u) << result.oracleReport;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedAcrRuns,
                         testing::Range<std::uint64_t>(100, 124));

/** The same configuration must reproduce the same measurements. */
TEST(DeterminismProperty, IdenticalConfigsProduceIdenticalResults)
{
    workloads::KernelSpec spec;
    spec.name = "det";
    spec.outerIters = 5;
    spec.phases = {{24, 7}, {16, 20}};
    spec.comm = workloads::Comm::kPair;
    workloads::WorkloadParams params;
    params.threads = 4;
    auto program = workloads::buildKernel(spec, params);
    auto machine = sim::MachineConfig::tableI(4);
    slice::SlicePolicyConfig policy;
    auto pass = amnesic::SlicePass::run(program, machine, policy);

    ExperimentConfig config;
    config.mode = BerMode::kReCkpt;
    config.numCheckpoints = 8;
    config.numErrors = 2;

    auto a = BerRuntime::run(pass.program, machine, config, pass);
    auto b = BerRuntime::run(pass.program, machine, config, pass);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.ckptBytesStored, b.ckptBytesStored);
    EXPECT_EQ(a.ckptBytesOmitted, b.ckptBytesOmitted);
    EXPECT_EQ(a.recoveries, b.recoveries);
}

/** Error seeds shift where errors land but never break transparency. */
class ErrorSeedSweep : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ErrorSeedSweep, AnyErrorPlacementRecovers)
{
    static isa::Program program = [] {
        workloads::KernelSpec spec;
        spec.name = "seed";
        spec.outerIters = 6;
        spec.phases = {{20, 5}, {12, 25}};
        spec.histogram = true;
        spec.comm = workloads::Comm::kRing;
        workloads::WorkloadParams params;
        params.threads = 4;
        return workloads::buildKernel(spec, params);
    }();
    static auto machine = sim::MachineConfig::tableI(4);
    static auto pass = amnesic::SlicePass::run(
        program, machine, slice::SlicePolicyConfig{});

    ExperimentConfig config;
    config.mode = BerMode::kReCkpt;
    config.numCheckpoints = 10;
    config.numErrors = 2;
    config.seed = GetParam();
    auto result = BerRuntime::run(pass.program, machine, config, pass);
    EXPECT_EQ(result.recoveries +
                  static_cast<std::uint64_t>(
                      result.stats.get("fault.dropped")),
              2u);
    EXPECT_EQ(result.oracleDivergences, 0u) << result.oracleReport;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErrorSeedSweep,
                         testing::Range<std::uint64_t>(1, 13));

} // namespace
} // namespace acr::harness
