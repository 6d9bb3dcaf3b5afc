/**
 * @file
 * RecoveryOracle tests: a clean multi-error campaign (overlapping
 * latent windows, errors landing during recovery) validates with zero
 * divergences, and each deliberate-corruption fixture (flip a replayed
 * word, drop an undo record, corrupt the recovered image) produces a
 * structured report — with the right kind and diagnostic fields —
 * instead of an abort, with the shadow hooks on or off (the oracle
 * audits recomputation on every run). The fixtures arm through the
 * ACR_TEST_* hooks the checkpoint manager reads at construction, so
 * each test sets the environment, runs, and clears it again.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "acr/slice_pass.hh"
#include "harness/runner.hh"
#include "validate/recovery_oracle.hh"
#include "workloads/kernel_spec.hh"

namespace
{

using namespace acr;
using namespace acr::harness;

/** RAII environment hook: set on construction, cleared on scope exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

/** The torture default point: ReCkpt, 8 errors against 5 checkpoints
 *  (denser than one per period, so latent windows overlap), detection
 *  latency at half the period. */
ExperimentConfig
campaignConfig(ckpt::Coordination coordination, std::uint64_t seed)
{
    ExperimentConfig config;
    config.mode = BerMode::kReCkpt;
    config.coordination = coordination;
    config.numCheckpoints = 5;
    config.numErrors = 8;
    config.detectionLatencyFraction = 0.5;
    config.sliceThreshold = 0;  // per-workload default
    config.seed = seed;
    config.oracle = true;
    return config;
}

TEST(RecoveryOracle, CleanMultiErrorCampaignHasZeroDivergences)
{
    Runner runner(8);
    std::uint64_t requeued = 0;
    for (std::uint64_t seed = 0xacce55ULL; seed < 0xacce55ULL + 3;
         ++seed) {
        for (auto coordination : {ckpt::Coordination::kGlobal,
                                  ckpt::Coordination::kLocal}) {
            auto result =
                runner.run("is", campaignConfig(coordination, seed));
            EXPECT_EQ(result.oracleDivergences, 0u)
                << "seed " << seed << ":\n"
                << result.oracleReport;
            EXPECT_EQ(result.oracleReport, "");
            EXPECT_GE(result.recoveries, 3u)
                << "the campaign must actually recover repeatedly";
            EXPECT_GT(result.stats.get("oracle.recoveriesChecked"), 0.0);
            EXPECT_GT(result.stats.get("oracle.establishmentsChecked"),
                      0.0);
            requeued += static_cast<std::uint64_t>(
                result.stats.get("fault.requeued"));
        }
    }
    EXPECT_GE(requeued, 1u)
        << "at least one error must land during recovery (rollback "
           "erases it; the injector re-posts it)";
}

TEST(RecoveryOracle, EveryBackendValidatesACleanCampaignDivergenceFree)
{
    // The stores differ only in cost/footprint models; the recovery
    // protocol (and therefore the oracle's checks) is shared, so a
    // clean campaign must validate with zero divergences on every
    // backend — including kReplicated, which forces non-amnesic
    // logging under ReCkpt.
    Runner runner(8);
    for (ckpt::Backend backend : ckpt::allBackends()) {
        auto config =
            campaignConfig(ckpt::Coordination::kGlobal, 0xacce55ULL);
        config.backend = backend;
        auto result = runner.run("is", config);
        EXPECT_EQ(result.oracleDivergences, 0u)
            << ckpt::backendName(backend) << ":\n"
            << result.oracleReport;
        EXPECT_EQ(result.oracleReport, "");
        EXPECT_GE(result.recoveries, 3u)
            << ckpt::backendName(backend)
            << ": the campaign must actually recover repeatedly";
        EXPECT_GT(result.stats.get("oracle.recoveriesChecked"), 0.0);
        EXPECT_GT(result.stats.get("oracle.establishmentsChecked"), 0.0);
    }
}

TEST(RecoveryOracle, CampaignIsSeedDeterministic)
{
    Runner runner(8);
    const auto config =
        campaignConfig(ckpt::Coordination::kGlobal, 0xacce55ULL);
    auto a = runner.run("is", config);
    auto b = runner.run("is", config);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.oracleDivergences, b.oracleDivergences);
    EXPECT_EQ(a.oracleReport, b.oracleReport);
    EXPECT_EQ(a.stats.get("fault.requeued"),
              b.stats.get("fault.requeued"));
}

TEST(RecoveryOracle, ReportsACorruptedRecoveredWord)
{
    // Flip one memory bit right after the rollback restored the image:
    // the oracle must report a memory-word divergence with the address
    // and both values — and the run must complete, not abort.
    ScopedEnv hook("ACR_TEST_CORRUPT_RECOVERY", "1");
    Runner runner(8);
    auto result = runner.run(
        "is", campaignConfig(ckpt::Coordination::kGlobal, 0xacce55ULL));
    ASSERT_GE(result.oracleDivergences, 1u);
    EXPECT_NE(result.oracleReport.find("memory-word"),
              std::string::npos)
        << result.oracleReport;
    EXPECT_NE(result.oracleReport.find("recovery=1"), std::string::npos)
        << result.oracleReport;
    EXPECT_NE(result.oracleReport.find("addr="), std::string::npos);
    EXPECT_NE(result.oracleReport.find("expected="), std::string::npos);
    EXPECT_NE(result.oracleReport.find("actual="), std::string::npos);
}

TEST(RecoveryOracle, ReportsADroppedLogRecord)
{
    // Lose one undo record (with its log bit) before recovery #2
    // applies the logs: the word it should have restored stays at its
    // post-error value, and the oracle attributes the divergence to
    // the originating record's writer.
    ScopedEnv hook("ACR_TEST_DROP_LOG_RECORD", "2");
    Runner runner(8);
    auto result = runner.run(
        "is", campaignConfig(ckpt::Coordination::kGlobal, 0xacce55ULL));
    ASSERT_GE(result.oracleDivergences, 1u);
    EXPECT_NE(result.oracleReport.find("memory-word"),
              std::string::npos)
        << result.oracleReport;
    EXPECT_NE(result.oracleReport.find("recovery=2"), std::string::npos)
        << result.oracleReport;
    EXPECT_NE(result.oracleReport.find("restored by"),
              std::string::npos)
        << "the report must name the originating record: "
        << result.oracleReport;
    EXPECT_NE(result.oracleReport.find("writer="), std::string::npos);
}

TEST(RecoveryOracle, ReportsARecomputeMismatchWithItsSlice)
{
    // Flip the first amnesically replayed value of recovery #1: the
    // manager's assert becomes an oracle report carrying the slice id,
    // the manager heals from the shadow copy, and the rest of the run
    // (including the final-image check) stays clean.
    ScopedEnv hook("ACR_TEST_FLIP_REPLAY", "1");
    Runner runner(8);
    auto result = runner.run(
        "is", campaignConfig(ckpt::Coordination::kGlobal, 0xacce55ULL));
    ASSERT_EQ(result.oracleDivergences, 1u) << result.oracleReport;
    EXPECT_NE(result.oracleReport.find("recompute"), std::string::npos)
        << result.oracleReport;
    EXPECT_NE(result.oracleReport.find("recovery=1"), std::string::npos)
        << result.oracleReport;
    EXPECT_NE(result.oracleReport.find("slice="), std::string::npos)
        << "the diagnostic must carry the originating slice: "
        << result.oracleReport;
    EXPECT_EQ(result.oracleReport.find("final-image"),
              std::string::npos)
        << "healing from the shadow must keep the final image clean";
}

TEST(RecoveryOracle, OracleOffStillReportsARecomputeMismatch)
{
    // Without the shadow hooks the oracle is still the manager's
    // auditor: the flipped replay is a structured finding instead of
    // an abort, and it names the same recovery, address and slice as
    // the run with the oracle on.
    ScopedEnv hook("ACR_TEST_FLIP_REPLAY", "1");
    Runner runner(8);
    auto config = campaignConfig(ckpt::Coordination::kGlobal,
                                 0xacce55ULL);
    config.oracle = false;
    const auto off = runner.run("is", config);
    ASSERT_GE(off.oracleDivergences, 1u);
    ASSERT_EQ(off.oracleReport.rfind("[oracle] recompute recovery=1 ", 0),
              0u)
        << off.oracleReport;
    EXPECT_FALSE(off.stats.has("oracle.recoveriesChecked"));

    config.oracle = true;
    const auto on = runner.run("is", config);
    const auto first_line = [](const std::string &report) {
        return report.substr(0, report.find('\n'));
    };
    EXPECT_EQ(first_line(off.oracleReport), first_line(on.oracleReport));
}

TEST(RecoveryOracle, FixtureReportsAreLockedByteForByte)
{
    // Every fixture's full report under both coordinations, with the
    // shadow hooks on and off. Oracle-off runs check only the final
    // image, and re-execution rewrites the word CORRUPT_RECOVERY
    // flips and the one DROP_LOG_RECORD leaves stale, so they report
    // nothing; FLIP_REPLAY is the auditor's finding either way.
    const std::string corrupt =
        "[oracle] memory-word recovery=1 ckpt=0 interval=1 addr=1048808 "
        "expected=0 actual=1 writer=0: restored by stored record";
    const std::string drop_global =
        "[oracle] memory-word recovery=2 ckpt=2 interval=3 addr=1048808 "
        "expected=11867325109708245576 actual=14005341365132357023 "
        "writer=0: restored by stored record";
    const std::string drop_local =
        "[oracle] memory-word recovery=2 ckpt=2 interval=3 addr=8388608 "
        "expected=0 actual=279963994462758042 writer=0: restored by "
        "stored record";
    const std::string flip =
        "[oracle] recompute recovery=1 ckpt=0 interval=2 addr=1097742 "
        "expected=8053019417134181768 actual=8053019417134181769 "
        "writer=0 slice=3: slice replay disagreed with the record's "
        "shadow value";
    struct Case
    {
        const char *hook;
        const char *ordinal;
        ckpt::Coordination coordination;
        bool oracle;
        std::string report;
    };
    const auto global = ckpt::Coordination::kGlobal;
    const auto local = ckpt::Coordination::kLocal;
    const Case cases[] = {
        {"ACR_TEST_CORRUPT_RECOVERY", "1", global, true, corrupt},
        {"ACR_TEST_CORRUPT_RECOVERY", "1", global, false, ""},
        {"ACR_TEST_CORRUPT_RECOVERY", "1", local, true, corrupt},
        {"ACR_TEST_CORRUPT_RECOVERY", "1", local, false, ""},
        {"ACR_TEST_DROP_LOG_RECORD", "2", global, true, drop_global},
        {"ACR_TEST_DROP_LOG_RECORD", "2", global, false, ""},
        {"ACR_TEST_DROP_LOG_RECORD", "2", local, true, drop_local},
        {"ACR_TEST_DROP_LOG_RECORD", "2", local, false, ""},
        {"ACR_TEST_FLIP_REPLAY", "1", global, true, flip},
        {"ACR_TEST_FLIP_REPLAY", "1", global, false, flip},
        {"ACR_TEST_FLIP_REPLAY", "1", local, true, flip},
        {"ACR_TEST_FLIP_REPLAY", "1", local, false, flip},
    };
    for (const Case &c : cases) {
        ScopedEnv hook(c.hook, c.ordinal);
        Runner runner(8);
        auto config = campaignConfig(c.coordination, 0xacce55ULL);
        config.oracle = c.oracle;
        const auto result = runner.run("is", config);
        EXPECT_EQ(result.oracleReport, c.report)
            << c.hook << " "
            << (c.coordination == global ? "global" : "local")
            << (c.oracle ? " oracle on" : " oracle off");
    }
}

/**
 * The oracle driven by hand on a small two-core kernel: checkpoints
 * established on the golden path, with the machine free to be
 * tampered with between them.
 */
struct OracleRig : cpu::ExecObserver
{
    OracleRig()
        : machine(sim::MachineConfig::tableI(2)),
          program(miniKernel()),
          pass(amnesic::SlicePass::run(program, machine,
                                       slice::SlicePolicyConfig{})),
          system(machine, program),
          oracle(system, pass.goldenTrack, stats),
          manager({ckpt::Coordination::kGlobal, ckpt::Backend::kLog},
                  system, nullptr, oracle, stats)
    {
        system.setObserver(this);
        manager.initialCheckpoint();
        oracle.onInitialCheckpoint(manager);
    }

    static isa::Program
    miniKernel()
    {
        workloads::KernelSpec spec;
        spec.name = "mini";
        spec.outerIters = 6;
        spec.phases = {{16, 4}, {16, 12}};
        spec.comm = workloads::Comm::kNone;
        workloads::WorkloadParams params;
        params.threads = 2;
        return workloads::buildKernel(spec, params);
    }

    void
    onInstr(const cpu::InstrEvent &e) override
    {
        if (isa::isStore(e.inst->op))
            manager.onStore(e.core, e.addr, e.oldValue);
    }

    /** Step until progress reaches @p target (or the program ends). */
    void
    runTo(std::uint64_t target)
    {
        while (system.progress() < target && !system.allHalted())
            system.step();
    }

    void
    establish()
    {
        manager.establish();
        oracle.onEstablish(manager, 0);
    }

    StatSet stats;
    sim::MachineConfig machine;
    isa::Program program;
    amnesic::SlicePassResult pass;
    sim::MulticoreSystem system;
    validate::RecoveryOracle oracle;
    ckpt::CheckpointManager manager;
};

TEST(RecoveryOracle, LiveWordWrittenOnTheGoldenPathIsOneGoldenStateDivergence)
{
    // A word the kernel never touches, written between two on-path
    // establishments: the second one's digests miss the golden track,
    // and the replay that follows names the word exactly.
    constexpr Addr kAddr = 48u << 20;
    OracleRig rig;
    ASSERT_EQ(rig.pass.finalImage.count(kAddr), 0u);
    const std::uint64_t total = rig.pass.totalProgress;

    rig.runTo(total / 4);
    rig.establish();
    ASSERT_EQ(rig.oracle.report(), "");
    EXPECT_EQ(rig.stats.get("oracle.goldenCompares"), 1.0);

    rig.system.memory().write(kAddr, 0xfeed);
    rig.runTo(total / 2);
    rig.establish();
    EXPECT_EQ(rig.oracle.report(),
              "[oracle] golden-state ckpt=0: memory addr 50331648: "
              "golden 0 != actual 65261");
    EXPECT_EQ(rig.stats.get("oracle.goldenCompares"), 1.0);

    // The final-image check names the same word from the images.
    rig.runTo(total);
    ASSERT_TRUE(rig.system.allHalted());
    rig.oracle.onFinalImage(rig.pass.finalImage);
    ASSERT_EQ(rig.oracle.divergences().size(), 2u);
    EXPECT_EQ(rig.oracle.divergences()[1].describe(),
              "[oracle] final-image ckpt=0 addr=50331648 expected=0 "
              "actual=65261: final memory image diverged from the "
              "error-free reference");
}

TEST(RecoveryOracle, OffByDefaultAndSilentWhenOff)
{
    Runner runner(8);
    auto config = campaignConfig(ckpt::Coordination::kGlobal,
                                 0xacce55ULL);
    config.oracle = false;
    auto result = runner.run("is", config);
    EXPECT_EQ(result.oracleDivergences, 0u);
    EXPECT_EQ(result.oracleReport, "");
    EXPECT_FALSE(result.stats.has("oracle.recoveriesChecked"));
}

} // namespace
