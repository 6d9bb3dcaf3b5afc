/**
 * @file
 * Deterministic edge-case tests: detection latency at the checkpoint
 * period (Fig. 2's worst case, forcing two-interval rollbacks with
 * recomputation), slicer size-cap opacity, operand-buffer pressure
 * falling back to logging, and result arithmetic.
 */

#include <gtest/gtest.h>

#include "acr/acr_engine.hh"
#include "acr/slice_pass.hh"
#include "harness/ber_runtime.hh"
#include "harness/runner.hh"
#include "isa/builder.hh"
#include "workloads/kernel_spec.hh"

namespace acr
{
namespace
{

TEST(Edge, MaxDetectionLatencyRollsBackTwoIntervals)
{
    // Detection latency == the full checkpoint period: most detections
    // see a suspect checkpoint established after the error and must
    // skip it (Fig. 2). Transparency is still verified in-run, by the
    // runtime's oracle.
    harness::Runner runner(4);
    harness::ExperimentConfig config;
    config.mode = harness::BerMode::kReCkpt;
    config.numCheckpoints = 12;
    config.numErrors = 3;
    config.detectionLatencyFraction = 1.0;
    config.sliceThreshold = 0;
    auto result = runner.run("is", config);
    EXPECT_EQ(result.recoveries +
                  static_cast<std::uint64_t>(
                      result.stats.get("fault.dropped")),
              3u);
    EXPECT_FALSE(result.unrecoverable) << result.unrecoverableDetail;
    EXPECT_EQ(result.oracleDivergences, 0u) << result.oracleReport;
}

TEST(Edge, ZeroDetectionLatencyAlwaysUsesNewestCheckpoint)
{
    harness::Runner runner(4);
    harness::ExperimentConfig config;
    config.mode = harness::BerMode::kReCkpt;
    config.numCheckpoints = 12;
    config.numErrors = 2;
    config.detectionLatencyFraction = 0.0;
    config.sliceThreshold = 0;
    auto result = runner.run("dc", config);
    EXPECT_EQ(result.recoveries, 2u);
    EXPECT_EQ(result.oracleDivergences, 0u) << result.oracleReport;
}

TEST(Edge, SizeCapTruncatesVeryLongChainsIntoSuffixSlices)
{
    // A 201-op dependent chain exceeds the tracker's size cap (128):
    // the engine captures the intermediate value at the cap as an
    // input operand, leaving a 71-op suffix slice (movi + 128 addis
    // collapse into the captured leaf; addis 129..199 remain). Replay
    // stays bit-exact because the captured intermediate is recorded.
    isa::ProgramBuilder b("deep");
    b.movi(1, 3);
    for (int i = 0; i < 200; ++i)
        b.addi(1, 1, 1);
    b.movi(2, 100);
    b.store(2, 1);
    b.halt();
    auto program = b.build();

    slice::SlicePolicyConfig strict;
    strict.lengthThreshold = 64;  // below the 71-op suffix
    auto r64 = amnesic::SlicePass::run(
        program, sim::MachineConfig::tableI(1), strict);
    EXPECT_EQ(r64.hintedStores, 0u);

    slice::SlicePolicyConfig loose;
    loose.lengthThreshold = 80;  // admits the suffix
    auto r80 = amnesic::SlicePass::run(
        program, sim::MachineConfig::tableI(1), loose);
    EXPECT_EQ(r80.hintedStores, 1u);
}

TEST(Edge, TinyOperandBufferFallsBackToLogging)
{
    // An operand buffer of 1 word cannot hold the 2-leaf captures the
    // kernels produce: every capture is rejected and ACR degenerates to
    // the plain baseline — correctly, without omissions.
    workloads::KernelSpec spec;
    spec.name = "pressure";
    spec.outerIters = 4;
    spec.phases = {{16, 4}};
    spec.comm = workloads::Comm::kNone;
    workloads::WorkloadParams params;
    params.threads = 2;
    auto program = workloads::buildKernel(spec, params);
    auto machine = sim::MachineConfig::tableI(2);
    auto pass = amnesic::SlicePass::run(program, machine,
                                        slice::SlicePolicyConfig{});

    StatSet stats;
    sim::MulticoreSystem system(machine, pass.program);
    slice::SliceEngine slicer(2, slice::SlicePolicyConfig{});
    amnesic::AcrConfig acr_config;
    acr_config.operandBufferWords = 1;
    amnesic::AcrEngine acr(acr_config, slicer, stats);
    struct Auditor : ckpt::RecoveryAuditor
    {
        unsigned mismatches = 0;
        void
        onRecomputeMismatch(const ckpt::LogRecord &, Word, std::uint64_t,
                            std::uint64_t) override
        {
            ++mismatches;
        }
    } auditor;
    ckpt::CheckpointManager manager({}, system, &acr, auditor, stats);
    manager.initialCheckpoint();

    struct Observer : cpu::ExecObserver
    {
        ckpt::CheckpointManager *manager;
        amnesic::AcrEngine *acr;
        slice::SliceEngine *slicer;
        void
        onInstr(const cpu::InstrEvent &e) override
        {
            if (isa::isStore(e.inst->op)) {
                manager->onStore(e.core, e.addr, e.oldValue);
                acr->onStoreRetired(e);
                return;
            }
            slicer->observe(e);
        }
    } observer;
    observer.manager = &manager;
    observer.acr = &acr;
    observer.slicer = &slicer;
    system.setObserver(&observer);
    system.runToCompletion();

    EXPECT_EQ(manager.openLog().amnesicRecords(), 0u);
    EXPECT_EQ(auditor.mismatches, 0u);
    acr.exportStats();  // flush the deferred hot counters
    EXPECT_GT(stats.get("acr.operandBufferRejections"), 0.0);
}

TEST(Edge, TinyAddrMapLimitsOmissions)
{
    workloads::KernelSpec spec;
    spec.name = "mapcap";
    spec.outerIters = 4;
    spec.phases = {{64, 4}};
    spec.comm = workloads::Comm::kNone;
    workloads::WorkloadParams params;
    params.threads = 1;
    auto program = workloads::buildKernel(spec, params);
    auto machine = sim::MachineConfig::tableI(1);
    auto pass = amnesic::SlicePass::run(program, machine,
                                        slice::SlicePolicyConfig{});

    StatSet stats;
    sim::MulticoreSystem system(machine, pass.program);
    slice::SliceEngine slicer(1, slice::SlicePolicyConfig{});
    amnesic::AcrConfig acr_config;
    acr_config.addrMapCapacity = 4;  // far below 64 unique addresses
    amnesic::AcrEngine acr(acr_config, slicer, stats);

    struct Observer : cpu::ExecObserver
    {
        amnesic::AcrEngine *acr;
        slice::SliceEngine *slicer;
        void
        onInstr(const cpu::InstrEvent &e) override
        {
            if (isa::isStore(e.inst->op)) {
                acr->onStoreRetired(e);
                return;
            }
            slicer->observe(e);
        }
    } observer;
    observer.acr = &acr;
    observer.slicer = &slicer;
    system.setObserver(&observer);
    system.runToCompletion();

    acr.exportStats();  // flush the deferred hot counters
    EXPECT_GT(stats.get("acr.addrMapOverflows"), 0.0);
    EXPECT_LE(acr.addrMap().size(), 4u);
}

TEST(Edge, OverheadArithmetic)
{
    harness::ExperimentResult result;
    result.cycles = 150;
    result.energyPj = 300.0;
    result.edp = 45000.0;
    EXPECT_DOUBLE_EQ(result.timeOverheadPct(100), 50.0);
    EXPECT_DOUBLE_EQ(result.energyOverheadPct(200.0), 50.0);
    EXPECT_DOUBLE_EQ(result.edpReductionPct(90000.0), 50.0);
}

TEST(Edge, ConfigLabelsMatchThePaper)
{
    harness::ExperimentConfig config;
    config.mode = harness::BerMode::kNoCkpt;
    EXPECT_EQ(config.label(), "NoCkpt");
    config.mode = harness::BerMode::kCkpt;
    EXPECT_EQ(config.label(), "Ckpt_NE");
    config.numErrors = 2;
    EXPECT_EQ(config.label(), "Ckpt_E");
    config.mode = harness::BerMode::kReCkpt;
    config.coordination = ckpt::Coordination::kLocal;
    EXPECT_EQ(config.label(), "ReCkpt_E,Loc");
    config.numErrors = 0;
    EXPECT_EQ(config.label(), "ReCkpt_NE,Loc");
}

TEST(Edge, RecomputeAwarePlacementStoresNoMore)
{
    harness::Runner runner(4);
    harness::ExperimentConfig uniform;
    uniform.mode = harness::BerMode::kReCkpt;
    uniform.numCheckpoints = 12;
    uniform.sliceThreshold = 0;
    auto u = runner.run("is", uniform);

    auto aware_cfg = uniform;
    aware_cfg.placement = harness::PlacementPolicy::kRecomputeAware;
    auto a = runner.run("is", aware_cfg);

    // Deferral may only shift checkpoints into richer regions; stored
    // bytes must not grow materially.
    EXPECT_LE(a.ckptBytesStored, u.ckptBytesStored * 11 / 10);
    EXPECT_EQ(u.oracleDivergences + a.oracleDivergences, 0u);
}

} // namespace
} // namespace acr
