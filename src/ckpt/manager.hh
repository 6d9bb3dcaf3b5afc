/**
 * @file
 * CheckpointManager: the BER substrate of the reproduction — log-based
 * incremental in-memory checkpointing with global or local coordination
 * (Sec. II-A, V-E), two-checkpoint retention (Sec. II-A / Fig. 2), and
 * rollback/recovery with optional recomputation of amnesic records
 * through a RecomputeProvider (Sec. III-B / Fig. 4b). Storage-medium
 * costs and footprint are delegated to a pluggable CheckpointStore
 * backend (ckpt/store.hh, DESIGN.md §14).
 */

#ifndef ACR_CKPT_MANAGER_HH
#define ACR_CKPT_MANAGER_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cache/directory.hh"
#include "ckpt/auditor.hh"
#include "ckpt/log.hh"
#include "ckpt/provider.hh"
#include "ckpt/store.hh"
#include "common/stats.hh"
#include "sim/system.hh"

namespace acr::ckpt
{

/** Coordination discipline of checkpoint establishment. */
enum class Coordination
{
    /** All cores cooperate at every checkpoint (Sec. II-A). */
    kGlobal,
    /** Only communicating cores coordinate (Sec. V-E). */
    kLocal,
};

/** Outcome of a recovery, for the driver (slicer resets, scheduling). */
struct RecoveryOutcome
{
    /** Cores rolled back. */
    cache::SharerMask affected = 0;
    /** Index of the checkpoint restored. */
    std::uint64_t targetIndex = 0;
    /** Cycle at which the affected cores resume. */
    Cycle resumeCycle = 0;
    /** Program progress of the restored checkpoint. */
    std::uint64_t progressAt = 0;
    /** Cycle the restored checkpoint was established at — corruptions
     *  that landed after this on an affected core were erased by the
     *  rollback (the injector re-posts them). */
    Cycle targetEstablishedAt = 0;

    // --- Escalation ladder bookkeeping (DESIGN.md §16) ---

    /** Corrupt reads healed by switching to an alternate replica
     *  (kReplicated's first escalation rung). */
    unsigned replicaSwitches = 0;
    /** Rollback attempts abandoned for corrupt per-checkpoint data
     *  (arch state) and restarted against the older retained
     *  checkpoint (second rung; wider recompute window). */
    unsigned retargets = 0;
    /** The machine cannot be restored to any safe checkpoint: every
     *  escalation rung failed, or no retained checkpoint was a safe
     *  target for the affected cores. The run must surface a
     *  structured failure (exit 5) — none of the other fields below
     *  affected/failureDetail are meaningful. */
    bool unrecoverable = false;
    /** Why, when unrecoverable: the unserveable datum, or each
     *  retained checkpoint's refusal. */
    std::string failureDetail;
};

/** The checkpointing and recovery substrate. */
class CheckpointManager
{
  public:
    struct Config
    {
        Coordination mode = Coordination::kGlobal;
        /** Storage backend the checkpoints live on (DESIGN.md §14). */
        Backend backend = Backend::kLog;
        /** Register file + pc + bookkeeping per core. */
        std::uint64_t archBytesPerCore =
            isa::kNumRegs * kWordBytes + 3 * kWordBytes;
    };

    /**
     * @param provider  recomputation engine, or null for the plain
     *                  baseline (every record carries its old value)
     * @param auditor   told of every recomputation mismatch, which the
     *                  manager then heals from the record's shadow
     * @param stats     shared statistics sink
     */
    CheckpointManager(const Config &config, sim::MulticoreSystem &system,
                      RecomputeProvider *provider,
                      RecoveryAuditor &auditor, StatSet &stats);

    /**
     * Record checkpoint 0: the initial machine state at cycle 0. Must be
     * called once before execution starts.
     */
    void initialCheckpoint();

    /**
     * Store interception (driver calls this for every retired store):
     * log the old value on the first update to @p addr this interval,
     * consulting the provider for amnesic omission.
     */
    void onStore(CoreId writer, Addr addr, Word old_value);

    /** Establish a checkpoint now (the driver owns the schedule). */
    void establish();

    /**
     * Recover from an error that occurred on @p failing at cycle
     * @p error_time and was detected at @p detection_time: pick the
     * most recent safe checkpoint, roll back memory + architectural
     * state (global: all cores; local: the failing core's communication
     * group closure), recompute amnesic records, and account costs.
     *
     * Under an armed storage-fault injector, detected corruption
     * escalates (DESIGN.md §16) instead of serving rotten bytes:
     * corrupt record/arch reads retry the alternate replica
     * (kReplicated); corrupt per-checkpoint data (arch state, torn
     * establishment) re-targets the older retained checkpoint and
     * restarts the rollback (the wider window's reads and replays are
     * charged again — honestly). When no rung is left, or no retained
     * checkpoint is a safe target at all, the outcome comes back
     * unrecoverable and the machine state is undefined.
     */
    RecoveryOutcome recover(CoreId failing, Cycle error_time,
                            Cycle detection_time);

    /** Arm storage-fault injection on the checkpoint medium (null =
     *  reliable medium). Forwards to the store's integrity layer. */
    void
    setStorageFaults(fault::StorageFaultInjector *faults)
    {
        store_->setFaultInjector(faults);
    }

    /** Number of checkpoints established (excluding checkpoint 0). */
    std::uint64_t checkpointsEstablished() const { return established_; }

    /** Index of the currently open interval. */
    std::uint64_t openInterval() const { return openLog_.interval(); }

    /** Per-interval size history across the whole run. */
    const std::vector<IntervalSizes> &history() const { return history_; }

    /** Currently retained checkpoints (newest last). */
    const std::deque<Checkpoint> &retained() const { return retained_; }

    const IntervalLog &openLog() const { return openLog_; }

    /** The storage backend this manager checkpoints onto. */
    const CheckpointStore &store() const { return *store_; }

    /**
     * Overwrite the retention state wholesale — open log, retained
     * checkpoints, establishment count, and size history — used when a
     * run resumes from a prefix-sharing snapshot (DESIGN.md §13).
     * Requires initialCheckpoint() to have run and a stateless backend
     * (the caller guards on Backend::kLog).
     */
    void restoreRetention(IntervalLog open_log,
                          std::deque<Checkpoint> retained,
                          std::uint64_t established,
                          std::vector<IntervalSizes> history);

  private:
    /** Establishment work for one coordination group. */
    void establishGroup(cache::SharerMask group, IntervalSizes &sizes);

    /** Mutable bookkeeping of one rollback attempt. dramDone,
     *  replayCycles and the word counts carry over between escalation
     *  attempts (work done before a retarget really happened); restored
     *  is per-attempt (the final attempt's applies supersede earlier
     *  ones). */
    struct ApplyState
    {
        Cycle dramDone = 0;
        std::vector<Cycle> replayCycles;
        std::vector<Addr> restored;
        unsigned replicaSwitches = 0;
        /** A stored record was unreadable on every copy — no rollback
         *  target can route around it (undo logs compose by prefix:
         *  every older target applies a superset of records). */
        bool dead = false;
        std::string deadDetail;
        /** Per-word work, published once per recovery by
         *  addWordCounts() instead of one string-keyed add per word. */
        std::uint64_t restoredWords = 0;
        std::uint64_t recomputedWords = 0;
        std::uint64_t replayAluOps = 0;
        std::uint64_t operandReads = 0;
    };

    /** Add @p state's word counts to the stats. Exact: the sums are
     *  integral. */
    void addWordCounts(const ApplyState &state);

    /** Apply one log's records (filtered by @p mask) to memory,
     *  recomputing amnesic ones and integrity-checking stored reads;
     *  collects restored addresses and accumulates timing in
     *  @p state. Returns false when a record was unserveable
     *  (state.dead). */
    bool applyLog(const IntervalLog &log, cache::SharerMask mask,
                  Cycle issue_at, ApplyState &state);

    Config config_;
    sim::MulticoreSystem &system_;
    RecomputeProvider *provider_;
    RecoveryAuditor &auditor_;
    StatSet &stats_;
    std::unique_ptr<CheckpointStore> store_;
    /** provider_ != null && the store accepts amnesic omission —
     *  cached so the hot onStore path skips a virtual call. */
    bool amnesicOk_ = false;

    IntervalLog openLog_{1};
    std::deque<Checkpoint> retained_;
    std::uint64_t established_ = 0;
    std::vector<IntervalSizes> history_;
    bool initialized_ = false;

    /** Recoveries started so far (1-based ordinal of the current one). */
    std::uint64_t recoveryOrdinal_ = 0;

    // Deliberate-bug fixtures for the oracle's own tests, armed by
    // ACR_TEST_* environment variables (1-based recovery ordinal to
    // fire in; 0 / unset = off). Each fires at most once.
    std::uint64_t corruptRecoveryAt_ = 0;  ///< ACR_TEST_CORRUPT_RECOVERY
    std::uint64_t dropRecordAt_ = 0;       ///< ACR_TEST_DROP_LOG_RECORD
    std::uint64_t flipReplayAt_ = 0;       ///< ACR_TEST_FLIP_REPLAY
};

} // namespace acr::ckpt

#endif // ACR_CKPT_MANAGER_HH
