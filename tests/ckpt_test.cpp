/**
 * @file
 * Tests for the BER substrate: undo-log semantics (log bit, first-update
 * logging), checkpoint establishment and two-checkpoint retention,
 * rollback correctness (bit-exact memory restoration), the Fig. 2
 * suspect-checkpoint scenario, group-local rollback, and the
 * structured unrecoverable verdict when no retained checkpoint is a
 * safe target.
 */

#include <gtest/gtest.h>

#include "ckpt/manager.hh"
#include "fault/storage_fault.hh"
#include "isa/builder.hh"
#include "sim/system.hh"

namespace acr::ckpt
{
namespace
{

// ---------------------------------------------------------------------
// IntervalLog
// ---------------------------------------------------------------------

TEST(IntervalLog, AppendAndLogBit)
{
    IntervalLog log(3);
    EXPECT_EQ(log.interval(), 3u);
    EXPECT_FALSE(log.contains(10));
    log.append({10, 99, 0, nullptr});
    EXPECT_TRUE(log.contains(10));
    EXPECT_EQ(log.totalRecords(), 1u);
    EXPECT_EQ(log.normalRecords(), 1u);
    EXPECT_EQ(log.loggedBytes(), kLogRecordBytes);
    EXPECT_EQ(log.omittedBytes(), 0u);
}

TEST(IntervalLogDeathTest, DoubleLoggingAnAddressPanics)
{
    IntervalLog log(1);
    log.append({10, 1, 0, nullptr});
    EXPECT_DEATH(log.append({10, 2, 0, nullptr}), "already logged");
}

TEST(IntervalLog, RemoveWritersFiltersAndReindexes)
{
    IntervalLog log(1);
    log.append({10, 1, 0, nullptr});
    log.append({11, 2, 1, nullptr});
    log.append({12, 3, 0, nullptr});
    log.removeWriters(0b01);  // drop core 0's records
    EXPECT_EQ(log.totalRecords(), 1u);
    EXPECT_FALSE(log.contains(10));
    EXPECT_TRUE(log.contains(11));
    // Re-logging a removed address is legal again.
    log.append({10, 5, 0, nullptr});
    EXPECT_TRUE(log.contains(10));
}

// ---------------------------------------------------------------------
// Manager rig: a 2-core program storing a counter sweep per iteration.
// ---------------------------------------------------------------------

isa::Program
sweepProgram(unsigned iters, unsigned cells)
{
    // Per iteration: each core writes cells words (value = iter+1) into
    // its own region at 1000 + tid*512, then barriers.
    isa::ProgramBuilder b("sweep");
    b.tid(1);
    b.shli(2, 1, 9);
    b.movi(3, 1000);
    b.add(2, 2, 3);          // region base
    b.movi(4, 0);            // t
    b.movi(5, static_cast<SWord>(iters));
    b.label("outer");
    b.movi(6, 0);            // i
    b.movi(7, static_cast<SWord>(cells));
    b.addi(8, 4, 1);         // value = t + 1
    b.label("inner");
    b.add(9, 2, 6);
    b.store(9, 8);
    b.addi(6, 6, 1);
    b.bltu(6, 7, "inner");
    b.barrier();
    b.addi(4, 4, 1);
    b.bltu(4, 5, "outer");
    b.halt();
    return b.build();
}

/** Records every recomputation mismatch a manager reports. */
struct RecordingAuditor : RecoveryAuditor
{
    void
    onRecomputeMismatch(const LogRecord &record, Word, std::uint64_t,
                        std::uint64_t) override
    {
        mismatches.push_back(record.addr);
    }

    std::vector<Addr> mismatches;
};

struct Rig : cpu::ExecObserver
{
    explicit Rig(Coordination mode, unsigned iters = 6,
                 unsigned cells = 32, Backend backend = Backend::kLog)
        : program(sweepProgram(iters, cells)),
          system(sim::MachineConfig::tableI(2), program),
          manager(CheckpointManager::Config{mode, backend}, system,
                  nullptr, auditor, stats)
    {
        system.setObserver(this);
        manager.initialCheckpoint();
    }

    ~Rig() override
    {
        // The rig has no recompute provider: nothing is amnesic, so
        // no rollback may ever report a recomputation mismatch.
        EXPECT_TRUE(auditor.mismatches.empty());
    }

    void
    onInstr(const cpu::InstrEvent &e) override
    {
        if (isa::isStore(e.inst->op))
            manager.onStore(e.core, e.addr, e.oldValue);
    }

    /** Run until progress crosses @p target. */
    void
    runUntilProgress(std::uint64_t target)
    {
        while (system.progress() < target && !system.allHalted())
            system.step();
    }

    StatSet stats;
    RecordingAuditor auditor;
    isa::Program program;
    sim::MulticoreSystem system;
    CheckpointManager manager;
};

TEST(Manager, FirstUpdateLogsOnceAndKeepsOldValue)
{
    Rig rig(Coordination::kGlobal);
    rig.runUntilProgress(400);
    const IntervalLog &log = rig.manager.openLog();
    // Each cell address appears exactly once even after repeated
    // iterations; old values of first updates are the pre-run zeros.
    EXPECT_GT(log.totalRecords(), 0u);
    for (const LogRecord &record : log.records())
        EXPECT_EQ(record.oldValue, 0u)
            << "first update's old value is the initial state";
}

TEST(Manager, EstablishMovesTheLogAndStallsCores)
{
    Rig rig(Coordination::kGlobal);
    rig.runUntilProgress(400);
    auto records = rig.manager.openLog().totalRecords();
    ASSERT_GT(records, 0u);
    Cycle before = rig.system.maxCycle();

    rig.manager.establish();
    EXPECT_EQ(rig.manager.openLog().totalRecords(), 0u);
    EXPECT_EQ(rig.manager.checkpointsEstablished(), 1u);
    EXPECT_EQ(rig.manager.retained().back().log.totalRecords(), records);
    EXPECT_GT(rig.system.maxCycle(), before)
        << "establishment costs time";
    EXPECT_EQ(rig.system.core(0).cycle(), rig.system.core(1).cycle())
        << "global coordination aligns all cores";
    EXPECT_DOUBLE_EQ(rig.stats.get("ckpt.establishments"), 1.0);
    ASSERT_EQ(rig.manager.history().size(), 1u);
    EXPECT_EQ(rig.manager.history()[0].records, records);
}

TEST(Manager, RetainsExactlyTwoCheckpoints)
{
    Rig rig(Coordination::kGlobal, 10);
    for (int i = 0; i < 4; ++i) {
        rig.runUntilProgress(rig.system.progress() + 200);
        rig.manager.establish();
    }
    EXPECT_EQ(rig.manager.retained().size(), 2u);
    EXPECT_EQ(rig.manager.retained().back().index, 4u);
    EXPECT_EQ(rig.manager.retained().front().index, 3u);
    EXPECT_EQ(rig.manager.history().size(), 4u) << "history is unbounded";
}

TEST(Manager, RollbackRestoresMemoryBitExact)
{
    Rig rig(Coordination::kGlobal, 8);
    rig.runUntilProgress(300);
    rig.manager.establish();
    auto reference = rig.system.memory().image();
    auto arch0 = rig.system.core(0).saveArch();

    rig.runUntilProgress(rig.system.progress() + 400);
    ASSERT_NE(rig.system.memory().image(), reference)
        << "execution must have changed memory before rollback";

    Cycle now = rig.system.maxCycle();
    auto outcome = rig.manager.recover(0, now, now + 10);
    EXPECT_EQ(outcome.targetIndex, 1u);
    EXPECT_EQ(outcome.affected, 0b11u);
    EXPECT_EQ(rig.system.memory().image(), reference);
    EXPECT_EQ(rig.system.core(0).saveArch(), arch0);
    EXPECT_GE(rig.system.core(0).cycle(), now + 10);
    EXPECT_DOUBLE_EQ(rig.stats.get("rec.recoveries"), 1.0);
}

TEST(Manager, ReExecutionAfterRollbackReachesSameFinalState)
{
    // Golden run.
    auto program = sweepProgram(6, 32);
    sim::MulticoreSystem golden(sim::MachineConfig::tableI(2), program);
    golden.runToCompletion();
    auto golden_image = golden.memory().image();

    Rig rig(Coordination::kGlobal, 6);
    rig.runUntilProgress(200);
    rig.manager.establish();
    rig.runUntilProgress(500);
    Cycle now = rig.system.maxCycle();
    rig.manager.recover(1, now, now);
    while (!rig.system.allHalted())
        rig.system.step();
    EXPECT_EQ(rig.system.memory().image(), golden_image);
}

TEST(Manager, Fig2SuspectCheckpointIsSkipped)
{
    Rig rig(Coordination::kGlobal, 10);
    rig.runUntilProgress(300);
    rig.manager.establish();  // ckpt 1 (safe)
    auto safe_image = rig.system.memory().image();

    rig.runUntilProgress(rig.system.progress() + 200);
    Cycle error_time = rig.system.maxCycle();  // error occurs here

    rig.runUntilProgress(rig.system.progress() + 100);
    rig.manager.establish();  // ckpt 2: established after the error —
                              // potentially corrupted (Fig. 2)
    rig.runUntilProgress(rig.system.progress() + 100);

    Cycle detect_time = rig.system.maxCycle();
    auto outcome = rig.manager.recover(0, error_time, detect_time);
    EXPECT_EQ(outcome.targetIndex, 1u)
        << "rollback must skip the suspect checkpoint 2";
    EXPECT_EQ(rig.system.memory().image(), safe_image);
}

TEST(Manager, RecoverToMostRecentWhenSafe)
{
    Rig rig(Coordination::kGlobal, 10);
    rig.runUntilProgress(300);
    rig.manager.establish();
    rig.runUntilProgress(rig.system.progress() + 200);
    rig.manager.establish();  // ckpt 2
    auto image2 = rig.system.memory().image();
    rig.runUntilProgress(rig.system.progress() + 150);

    Cycle error_time = rig.system.maxCycle();  // after ckpt 2
    auto outcome = rig.manager.recover(0, error_time, error_time + 5);
    EXPECT_EQ(outcome.targetIndex, 2u);
    EXPECT_EQ(rig.system.memory().image(), image2);
}

TEST(Manager, WasteAndRollbackStatsAccumulate)
{
    Rig rig(Coordination::kGlobal, 8);
    rig.runUntilProgress(300);
    rig.manager.establish();
    rig.runUntilProgress(rig.system.progress() + 200);
    Cycle now = rig.system.maxCycle();
    rig.manager.recover(0, now, now + 50);
    EXPECT_GT(rig.stats.get("rec.wasteCycles"), 0.0);
    EXPECT_GT(rig.stats.get("rec.rollbackCycles"), 0.0);
    EXPECT_GT(rig.stats.get("rec.restoredWords"), 0.0);
}

// ---------------------------------------------------------------------
// Local coordination
// ---------------------------------------------------------------------

TEST(Manager, LocalModeRollsBackOnlyTheFailingGroup)
{
    // The sweep program's threads touch disjoint regions and never
    // share lines, so each core is its own communication group.
    Rig rig(Coordination::kLocal, 8);
    rig.runUntilProgress(300);
    rig.manager.establish();
    rig.runUntilProgress(rig.system.progress() + 300);

    auto arch1_before = rig.system.core(1).saveArch();
    auto image_before = rig.system.memory().image();

    Cycle now = rig.system.maxCycle();
    auto outcome = rig.manager.recover(0, now, now);
    EXPECT_EQ(outcome.affected, 0b01u) << "only core 0's group";
    EXPECT_EQ(rig.system.core(1).saveArch(), arch1_before)
        << "core 1 must be untouched";

    // Core 1's region is untouched; core 0's region rolled back.
    auto image_after = rig.system.memory().image();
    for (Addr a = 1512; a < 1512 + 32; ++a) {
        auto it_b = image_before.find(a);
        auto it_a = image_after.find(a);
        EXPECT_TRUE(it_b != image_before.end() &&
                    it_a != image_after.end() &&
                    it_b->second == it_a->second);
    }
}

TEST(Manager, NoSafeTargetIsUnrecoverableNotAnAbort)
{
    // The local-coordination retention hole in miniature, on a
    // reliable medium: a group rollback to ckpt 1 leaves ckpt 2
    // invalid for core 0, the next establishment retires ckpt 1
    // (retention is global), and an error that predates ckpt 3 then
    // has no safe target. The verdict is structured and names each
    // refusal.
    Rig rig(Coordination::kLocal, 12);
    rig.runUntilProgress(300);
    rig.manager.establish();  // ckpt 1
    rig.runUntilProgress(rig.system.progress() + 100);
    const Cycle first_error = rig.system.maxCycle();
    rig.runUntilProgress(rig.system.progress() + 100);
    rig.manager.establish();  // ckpt 2: after the first error
    Cycle now = rig.system.maxCycle();
    auto outcome = rig.manager.recover(0, first_error, now);
    ASSERT_FALSE(outcome.unrecoverable) << outcome.failureDetail;
    ASSERT_EQ(outcome.targetIndex, 1u);
    ASSERT_EQ(outcome.affected, 0b01u);

    rig.runUntilProgress(rig.system.progress() + 200);
    const Cycle second_error = rig.system.maxCycle();
    rig.runUntilProgress(rig.system.progress() + 100);
    rig.manager.establish();  // ckpt 3 retires ckpt 1
    ASSERT_EQ(rig.manager.retained().front().index, 2u);

    now = rig.system.maxCycle();
    outcome = rig.manager.recover(0, second_error, now);
    EXPECT_TRUE(outcome.unrecoverable);
    EXPECT_EQ(outcome.failureDetail,
              "no intact rollback target for the affected cores (mask "
              "0x1): ckpt 2 not valid for these cores, ckpt 3 "
              "established after the error");
    EXPECT_DOUBLE_EQ(rig.stats.get("rec.unrecoverable"), 1.0);
    EXPECT_DOUBLE_EQ(rig.stats.get("rec.recoveries"), 1.0);
}

TEST(Manager, LocalModeCheckpointsPerGroup)
{
    Rig rig(Coordination::kLocal, 6);
    rig.runUntilProgress(300);
    rig.manager.establish();
    // Two singleton groups coordinated independently.
    EXPECT_DOUBLE_EQ(rig.stats.get("ckpt.coordinationGroups"), 2.0);
}

TEST(Manager, GlobalModeHasOneGroup)
{
    Rig rig(Coordination::kGlobal, 6);
    rig.runUntilProgress(300);
    rig.manager.establish();
    EXPECT_DOUBLE_EQ(rig.stats.get("ckpt.coordinationGroups"), 1.0);
}

// ---------------------------------------------------------------------
// Backend naming
// ---------------------------------------------------------------------

TEST(Backend, NamesRoundTripThroughParse)
{
    for (Backend backend : allBackends()) {
        Backend parsed;
        ASSERT_TRUE(parseBackend(backendName(backend), parsed));
        EXPECT_EQ(parsed, backend);
    }
    Backend unused;
    EXPECT_FALSE(parseBackend("dram", unused));
    EXPECT_FALSE(parseBackend("", unused));
    EXPECT_FALSE(parseBackend("Log", unused)) << "names are lowercase";
}

// ---------------------------------------------------------------------
// Backend conformance: every CheckpointStore must satisfy the manager's
// protocol identically — establishment moves the log and costs time,
// retention keeps exactly two checkpoints, Fig. 2 suspect skipping
// invalidates rollback targets (validFor), and rollback restores memory
// bit-exactly. Only the cost/footprint numbers may differ per medium.
// ---------------------------------------------------------------------

class BackendConformance : public ::testing::TestWithParam<Backend>
{
};

TEST_P(BackendConformance, EstablishMovesTheLogAndCostsTime)
{
    Rig rig(Coordination::kGlobal, 6, 32, GetParam());
    EXPECT_EQ(rig.manager.store().backend(), GetParam());
    rig.runUntilProgress(400);
    auto records = rig.manager.openLog().totalRecords();
    ASSERT_GT(records, 0u);
    Cycle before = rig.system.maxCycle();

    rig.manager.establish();
    EXPECT_EQ(rig.manager.openLog().totalRecords(), 0u);
    EXPECT_EQ(rig.manager.checkpointsEstablished(), 1u);
    EXPECT_EQ(rig.manager.retained().back().log.totalRecords(), records);
    EXPECT_GT(rig.system.maxCycle(), before)
        << "establishment costs time on every medium";
    EXPECT_EQ(rig.system.core(0).cycle(), rig.system.core(1).cycle())
        << "global coordination aligns all cores";
}

TEST_P(BackendConformance, RetainsExactlyTwoCheckpoints)
{
    Rig rig(Coordination::kGlobal, 10, 32, GetParam());
    for (int i = 0; i < 4; ++i) {
        rig.runUntilProgress(rig.system.progress() + 200);
        rig.manager.establish();
    }
    EXPECT_EQ(rig.manager.retained().size(), 2u);
    EXPECT_EQ(rig.manager.retained().back().index, 4u);
    EXPECT_EQ(rig.manager.history().size(), 4u);
}

TEST_P(BackendConformance, RollbackRestoresMemoryBitExact)
{
    Rig rig(Coordination::kGlobal, 8, 32, GetParam());
    rig.runUntilProgress(300);
    rig.manager.establish();
    auto reference = rig.system.memory().image();
    auto arch0 = rig.system.core(0).saveArch();

    rig.runUntilProgress(rig.system.progress() + 400);
    ASSERT_NE(rig.system.memory().image(), reference);

    Cycle now = rig.system.maxCycle();
    auto outcome = rig.manager.recover(0, now, now + 10);
    EXPECT_EQ(outcome.targetIndex, 1u);
    EXPECT_EQ(rig.system.memory().image(), reference);
    EXPECT_EQ(rig.system.core(0).saveArch(), arch0);
    EXPECT_GT(rig.stats.get("rec.rollbackCycles"), 0.0)
        << "rollback reads cost time on every medium";
}

TEST_P(BackendConformance, Fig2SuspectSkipInvalidatesTheCheckpoint)
{
    Rig rig(Coordination::kGlobal, 10, 32, GetParam());
    rig.runUntilProgress(300);
    rig.manager.establish();  // ckpt 1 (safe)
    auto safe_image = rig.system.memory().image();

    rig.runUntilProgress(rig.system.progress() + 200);
    Cycle error_time = rig.system.maxCycle();
    rig.runUntilProgress(rig.system.progress() + 100);
    rig.manager.establish();  // ckpt 2: suspect (after the error)
    rig.runUntilProgress(rig.system.progress() + 100);

    auto outcome =
        rig.manager.recover(0, error_time, rig.system.maxCycle());
    EXPECT_EQ(outcome.targetIndex, 1u);
    EXPECT_EQ(rig.system.memory().image(), safe_image);
    for (const Checkpoint &ckpt : rig.manager.retained()) {
        if (ckpt.index == 2) {
            EXPECT_EQ(ckpt.validFor & outcome.affected, 0u)
                << "the skipped suspect checkpoint is no longer a "
                   "valid target for the rolled-back cores";
        }
    }
}

TEST_P(BackendConformance, ReExecutionAfterRollbackReachesGoldenState)
{
    auto program = sweepProgram(6, 32);
    sim::MulticoreSystem golden(sim::MachineConfig::tableI(2), program);
    golden.runToCompletion();
    auto golden_image = golden.memory().image();

    Rig rig(Coordination::kGlobal, 6, 32, GetParam());
    rig.runUntilProgress(200);
    rig.manager.establish();
    rig.runUntilProgress(500);
    Cycle now = rig.system.maxCycle();
    rig.manager.recover(1, now, now);
    while (!rig.system.allHalted())
        rig.system.step();
    EXPECT_EQ(rig.system.memory().image(), golden_image);
}

TEST_P(BackendConformance, FootprintMatchesTheMediumsCostModel)
{
    Rig rig(Coordination::kGlobal, 6, 32, GetParam());
    rig.runUntilProgress(400);
    rig.manager.establish();
    ASSERT_EQ(rig.manager.history().size(), 1u);
    const IntervalSizes &sizes = rig.manager.history()[0];
    const std::uint64_t arch_per_core =
        CheckpointManager::Config{}.archBytesPerCore;
    ASSERT_GT(sizes.records, 0u);
    EXPECT_EQ(sizes.omittedBytes, 0u)
        << "the rig has no provider, so nothing is amnesic";

    switch (GetParam()) {
      case Backend::kLog:
      case Backend::kNvm:
        // A log stores each record and each core's arch state once.
        EXPECT_EQ(sizes.loggedBytes, sizes.records * kLogRecordBytes);
        EXPECT_EQ(sizes.archBytes, 2 * arch_per_core);
        break;
      case Backend::kReplicated:
        // Every datum lands on all k replicas.
        EXPECT_EQ(sizes.loggedBytes,
                  kReplicaCount * sizes.records * kLogRecordBytes);
        EXPECT_EQ(sizes.archBytes, kReplicaCount * 2 * arch_per_core);
        EXPECT_GT(rig.stats.get("ckpt.replicaBytes"), 0.0);
        break;
    }

    // Medium-specific traffic only shows up on its own medium.
    if (GetParam() == Backend::kNvm) {
        EXPECT_GT(rig.stats.get("nvm.writes"), 0.0);
        EXPECT_GT(rig.stats.get("nvm.persists"), 0.0);
    } else {
        EXPECT_DOUBLE_EQ(rig.stats.get("nvm.writes"), 0.0);
    }
    if (GetParam() != Backend::kReplicated) {
        EXPECT_DOUBLE_EQ(rig.stats.get("ckpt.replicaBytes"), 0.0);
    }
}

TEST_P(BackendConformance, AmnesicSupportMatchesTheRecoveryPath)
{
    Rig rig(Coordination::kGlobal, 6, 32, GetParam());
    // Only a store whose recovery rereads stored bytes exclusively
    // (kReplicated) must refuse omission; the log-shaped media accept.
    EXPECT_EQ(rig.manager.store().supportsAmnesic(),
              GetParam() != Backend::kReplicated);
}

// ---------------------------------------------------------------------
// Storage-fault conformance (DESIGN.md §16): every backend must detect
// a corrupted stored datum on read — never serve wrong bytes silently —
// and then escalate to its documented rung: replica retry on
// kReplicated, older-checkpoint retarget for arch corruption on the
// single-copy media, torn-establishment refusal at target selection,
// and a structured unrecoverable outcome once the ladder is exhausted.
// ---------------------------------------------------------------------

/** One hand-built storage-fault event (ordinal 0, full mask). */
fault::StorageFaultPlan
oneEvent(std::uint64_t ckpt_index, fault::StorageFaultKind kind,
         Word xor_mask = 0x40, std::uint64_t pick = 0)
{
    fault::StorageFaultPlan plan;
    plan.events.push_back({ckpt_index, kind, xor_mask, pick, 0});
    return plan;
}

TEST_P(BackendConformance, CorruptStoredRecordIsDetectedOnRestore)
{
    Rig rig(Coordination::kGlobal, 8, 32, GetParam());
    auto initial_image = rig.system.memory().image();

    // The flip lands on a record stored by establishment #1. The
    // error predates that establishment, so ckpt 1 is suspect
    // (Fig. 2), the rollback targets ckpt 0, and the restore must
    // read ckpt 1's stored log — through the corrupted copy.
    auto plan = oneEvent(1, fault::StorageFaultKind::kRecordFlip);
    fault::StorageFaultInjector faults(plan, rig.stats);
    rig.manager.setStorageFaults(&faults);

    rig.runUntilProgress(300);
    Cycle error_time = rig.system.maxCycle();
    rig.runUntilProgress(rig.system.progress() + 100);
    rig.manager.establish();  // ckpt 1: the fault arms here
    rig.runUntilProgress(rig.system.progress() + 200);

    auto outcome =
        rig.manager.recover(0, error_time, rig.system.maxCycle());
    EXPECT_GE(rig.stats.get("ckpt.corruptReads"), 1.0)
        << "the flipped stored record must be detected, not served";
    EXPECT_GT(rig.stats.get("ckpt.integrityChecks"), 0.0);

    if (GetParam() == Backend::kReplicated) {
        // Rung 1: the clean replica heals the read; recovery is
        // bit-exact as if the medium had never failed.
        EXPECT_FALSE(outcome.unrecoverable);
        EXPECT_GT(outcome.replicaSwitches, 0u);
        EXPECT_GT(rig.stats.get("rec.replicaSwitches"), 0.0);
        EXPECT_EQ(outcome.targetIndex, 0u);
        EXPECT_EQ(rig.system.memory().image(), initial_image);
    } else {
        // Single-copy media: a corrupt stored record composes into
        // every older restore path (records apply by prefix), so the
        // ladder is exhausted — a structured verdict, not an abort
        // and never silent wrong data.
        EXPECT_TRUE(outcome.unrecoverable);
        EXPECT_NE(outcome.failureDetail.find("unreadable"),
                  std::string::npos)
            << outcome.failureDetail;
        EXPECT_DOUBLE_EQ(rig.stats.get("rec.unrecoverable"), 1.0);
    }
}

TEST_P(BackendConformance, TornEstablishmentIsRefusedAsATarget)
{
    Rig rig(Coordination::kGlobal, 8, 32, GetParam());
    auto initial_image = rig.system.memory().image();

    auto plan = oneEvent(1, fault::StorageFaultKind::kTornGroup);
    fault::StorageFaultInjector faults(plan, rig.stats);
    rig.manager.setStorageFaults(&faults);

    rig.runUntilProgress(300);
    rig.manager.establish();  // ckpt 1 tears mid-establishment
    rig.runUntilProgress(rig.system.progress() + 200);

    // The error postdates ckpt 1, so ckpt 1 would be the preferred
    // target — but its establishment tore, so target selection must
    // refuse it and fall back to ckpt 0.
    Cycle now = rig.system.maxCycle();
    auto outcome = rig.manager.recover(0, now, now);
    EXPECT_FALSE(outcome.unrecoverable);
    EXPECT_EQ(outcome.targetIndex, 0u)
        << "the torn newest checkpoint must be refused";
    EXPECT_GE(rig.stats.get("ckpt.tornRefusals"), 1.0);
    EXPECT_EQ(rig.system.memory().image(), initial_image);
}

TEST_P(BackendConformance, CorruptArchStateEscalatesPerBackend)
{
    Rig rig(Coordination::kGlobal, 8, 32, GetParam());
    auto initial_image = rig.system.memory().image();
    auto plan = oneEvent(1, fault::StorageFaultKind::kArchFlip);
    fault::StorageFaultInjector faults(plan, rig.stats);
    rig.manager.setStorageFaults(&faults);

    rig.runUntilProgress(300);
    rig.manager.establish();  // ckpt 1: core 0's arch image flips
    auto ckpt1_image = rig.system.memory().image();
    rig.runUntilProgress(rig.system.progress() + 200);

    // The error postdates ckpt 1: the rollback commits to ckpt 1 and
    // only then finds its stored arch state corrupt.
    Cycle now = rig.system.maxCycle();
    auto outcome = rig.manager.recover(0, now, now);
    EXPECT_FALSE(outcome.unrecoverable);
    EXPECT_GE(rig.stats.get("ckpt.corruptReads"), 1.0);

    if (GetParam() == Backend::kReplicated) {
        // Rung 1: the clean replica serves the arch words.
        EXPECT_GT(outcome.replicaSwitches, 0u);
        EXPECT_EQ(outcome.retargets, 0u);
        EXPECT_EQ(outcome.targetIndex, 1u);
        EXPECT_EQ(rig.system.memory().image(), ckpt1_image);
    } else {
        // Rung 2: no second copy — the recovery restarts against the
        // older retained checkpoint (the wider recompute window is
        // the honest price of the narrower medium).
        EXPECT_EQ(outcome.retargets, 1u);
        EXPECT_DOUBLE_EQ(rig.stats.get("rec.retargets"), 1.0);
        EXPECT_EQ(outcome.targetIndex, 0u);
        EXPECT_EQ(rig.system.memory().image(), initial_image);
    }
}

TEST(StorageFaultKinds, MatchEachMediumsFailureModes)
{
    using fault::StorageFaultKind;
    for (Backend backend : allBackends()) {
        const auto kinds = storageFaultKinds(backend);
        const auto has = [&](StorageFaultKind kind) {
            for (StorageFaultKind k : kinds)
                if (k == kind)
                    return true;
            return false;
        };
        // Every medium can flip stored bits or tear an establishment.
        EXPECT_TRUE(has(StorageFaultKind::kRecordFlip));
        EXPECT_TRUE(has(StorageFaultKind::kArchFlip));
        EXPECT_TRUE(has(StorageFaultKind::kTornGroup));
        // Replica loss only exists where replicas do; uncorrectable
        // media reads are the NVM failure mode.
        EXPECT_EQ(has(StorageFaultKind::kReplicaLoss),
                  backend == Backend::kReplicated);
        EXPECT_EQ(has(StorageFaultKind::kUncorrectableRead),
                  backend == Backend::kNvm);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformance,
    ::testing::ValuesIn(allBackends()),
    [](const ::testing::TestParamInfo<Backend> &info) {
        return std::string(backendName(info.param));
    });

} // namespace
} // namespace acr::ckpt
