/**
 * @file
 * RecoveryOracle: differential validation of rollback/recovery, after
 * ReStore's discipline of checking recovered state against a fault-free
 * reference. The oracle shadows the CheckpointManager: at every
 * establishment it snapshots what a correct checkpoint must restore
 * beyond its memory (per-core ArchState, the slice instances the log
 * pins) and — when the execution is known to be on the fault-free path —
 * compares the machine against the golden track: the state digests the
 * slice pass recorded at every step boundary of the same program's
 * error-free run. After every recovery it re-derives the full expected
 * machine state from the memory pages and undo logs it captured *before*
 * the rollback mutated them and checks memory, architectural state, the
 * log-bit index, two-checkpoint retention, `validFor` masks, and
 * slice-instance pinning. Violations are reported as structured Divergence records
 * (address, expected/actual word, originating record, slice id) instead
 * of aborting, so a torture campaign can surface every failure and
 * shrink the fault plan that caused it.
 *
 * Every checkpointing run attaches an oracle (DESIGN.md §12.1): it is
 * the manager's auditor (recomputation mismatches) and the run's one
 * final-image check. ExperimentConfig::oracle arms the shadow hooks —
 * establishment snapshots, the before/after-recovery checks, and the
 * golden comparison — which are what cost time.
 *
 * Taint tracking makes the golden comparison sound under multi-error
 * campaigns: a checkpoint established while a corruption is latent (the
 * Fig. 2 hazard) is off the golden path, as is everything after a
 * partial (group-local) rollback, whose survivors keep post-rollback
 * progress the golden run never visits. Off-path state still gets
 * the full set of internal-consistency checks — only the golden
 * image/arch comparison is gated.
 */

#ifndef ACR_VALIDATE_RECOVERY_ORACLE_HH
#define ACR_VALIDATE_RECOVERY_ORACLE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/auditor.hh"
#include "ckpt/manager.hh"
#include "common/stats.hh"
#include "mem/main_memory.hh"
#include "sim/system.hh"

namespace acr::validate
{

/** Which recovery invariant a divergence violated. */
enum class DivergenceKind
{
    kRecompute,    ///< slice replay != the record's shadow value
    kMemoryWord,   ///< recovered memory word != log-derived expectation
    kArchState,    ///< restored ArchState != checkpoint snapshot
    kLogIndex,     ///< log-bit index inconsistent / stale writer records
    kRetention,    ///< two-checkpoint retention / missing target
    kValidFor,     ///< newer checkpoint still valid for a rolled-back core
    kPinning,      ///< pinned SliceInstance died while its log lives
    kGoldenState,  ///< on-path establishment != golden fault-free run
    kFinalImage,   ///< final memory image != error-free reference
    kEscalation,   ///< escalation-ladder outcome inconsistent with the
                   ///< medium's state (DESIGN.md §16): an unrecoverable
                   ///< verdict with neither detected damage nor a
                   ///< missing safe target, a torn checkpoint accepted
                   ///< as a target, or replica switches on a
                   ///< single-copy backend
};

const char *divergenceKindName(DivergenceKind kind);

/** One structured divergence diagnostic. */
struct Divergence
{
    DivergenceKind kind = DivergenceKind::kMemoryWord;
    /** 1-based ordinal of the recovery being validated (0: none). */
    std::uint64_t recovery = 0;
    /** Checkpoint index involved (target, or the one established). */
    std::uint64_t ckptIndex = 0;
    /** Interval of the originating log record (when attributable). */
    std::uint64_t interval = 0;
    Addr addr = kInvalidAddr;
    Word expected = 0;
    Word actual = 0;
    CoreId core = kInvalidCore;
    /** Writer of the originating record (kInvalidCore: none). */
    CoreId writer = kInvalidCore;
    /** Slice of the originating amnesic record (slice::kInvalidSlice: none). */
    slice::SliceId sliceId = slice::kInvalidSlice;
    /** Free-form context (which field differed, audit message, ...). */
    std::string detail;

    /** One-line human-readable rendering. */
    std::string describe() const;
};

/** Differential recovery validator; pass it to the CheckpointManager
 *  as its auditor and call the hooks from the driver. */
class RecoveryOracle : public ckpt::RecoveryAuditor
{
  public:
    /**
     * @param system  the machine to validate
     * @param golden  the slice pass's golden track of the same
     *                program and machine (SlicePassResult::goldenTrack);
     *                it must outlive the oracle
     */
    RecoveryOracle(sim::MulticoreSystem &system,
                   const std::vector<sim::StepDigest> &golden,
                   StatSet &stats);

    /** Snapshot checkpoint 0 (call right after initialCheckpoint()). */
    void onInitialCheckpoint(const ckpt::CheckpointManager &manager);

    /**
     * Validate and snapshot the checkpoint just established.
     * @p latent_errors  applied-but-undetected corruptions outstanding
     * — a nonzero count taints the checkpoint (its content is not on
     * the fault-free path, Fig. 2).
     */
    void onEstablish(const ckpt::CheckpointManager &manager,
                     unsigned latent_errors);

    /** Capture the undo logs (and memory pages) a recovery is about to
     *  consume, before the rollback compacts them. */
    void beforeRecovery(const ckpt::CheckpointManager &manager);

    /** Validate the full machine + manager state after a recovery
     *  from an error that occurred at @p error_time. */
    void afterRecovery(const ckpt::CheckpointManager &manager,
                       const ckpt::RecoveryOutcome &outcome,
                       Cycle error_time);

    /** End-of-run check against the golden track's final memory
     *  digest; @p expected (the error-free final image) names the
     *  first differing word on a mismatch. */
    void onFinalImage(const std::map<Addr, Word> &expected);

    /** RecoveryAuditor: amnesic replay disagreed with its shadow. */
    void onRecomputeMismatch(const ckpt::LogRecord &record, Word replayed,
                             std::uint64_t interval,
                             std::uint64_t recovery) override;

    const std::vector<Divergence> &divergences() const
    {
        return divergences_;
    }

    /** Multi-line report of up to @p limit divergences ("" if clean). */
    std::string report(std::size_t limit = 16) const;

  private:
    /** A slice instance a checkpoint log pins. */
    struct Pin
    {
        Addr addr = 0;
        CoreId writer = 0;
        slice::SliceId sliceId = slice::kInvalidSlice;
        std::weak_ptr<slice::SliceInstance> instance;
    };

    /** What a correct rollback to this checkpoint must reproduce. */
    struct Snapshot
    {
        std::uint64_t index = 0;
        std::vector<cpu::ArchState> arch;
        std::vector<Pin> pins;
        /** Writers whose records group rollbacks legitimately removed
         *  from this checkpoint's log since establishment. */
        std::uint64_t removedWriters = 0;
        /** Established from fault-free state: golden-comparable. */
        bool onGoldenPath = true;
    };

    /** Copy of one undo record, taken before recovery mutates logs. */
    struct CapturedRecord
    {
        Addr addr = 0;
        Word oldValue = 0;
        CoreId writer = 0;
        bool amnesic = false;
        slice::SliceId sliceId = slice::kInvalidSlice;
    };

    struct CapturedLog
    {
        std::uint64_t interval = 0;
        std::vector<CapturedRecord> records;
    };

    void addDivergence(Divergence divergence);
    Snapshot captureSnapshot(const ckpt::Checkpoint &ckpt) const;
    void auditLogs(const ckpt::CheckpointManager &manager);

    /** Walk the golden track to progress @p target (back to its start
     *  if the rollback rewound progress) and compare the live machine
     *  against it. False: divergence reported. */
    bool compareAgainstGolden(std::uint64_t target);
    /** The live machine matches the track at goldenAt_; on a digest
     *  mismatch, a real replay to that boundary decides and fills
     *  @p why. */
    bool goldenMatches(std::string *why) const;

    sim::MulticoreSystem &system_;
    const std::vector<sim::StepDigest> &golden_;
    StatSet &stats_;

    /** Boundary of golden_ the walk is at (the steps a golden replay
     *  would have taken). */
    std::size_t goldenAt_ = 0;

    /** Snapshots of currently retained checkpoints, keyed by index. */
    std::map<std::uint64_t, Snapshot> snapshots_;

    /** Captured by beforeRecovery: open log first, then retained logs
     *  newest -> oldest (the order recovery applies them). */
    std::vector<CapturedLog> capturedLogs_;
    mem::MainMemory::Snap prePages_;
    bool captureValid_ = false;

    /** The last restore target was on the golden path (start: true). */
    bool lastRestoredOnPath_ = true;

    std::uint64_t recoveriesChecked_ = 0;
    std::vector<Divergence> divergences_;

    /** Hard cap so a badly broken run cannot accumulate unbounded
     *  diagnostics. */
    static constexpr std::size_t kMaxDivergences = 64;
};

} // namespace acr::validate

#endif // ACR_VALIDATE_RECOVERY_ORACLE_HH
