/**
 * @file
 * Experiment configurations and results. The configuration space spans
 * exactly the paper's Sec. IV matrix: {NoCkpt, Ckpt, ReCkpt} ×
 * {error-free, with errors} × {global, local coordination}, plus the
 * knobs the sensitivity studies sweep (checkpoint count, error count,
 * slice threshold, thread count).
 */

#ifndef ACR_HARNESS_EXPERIMENT_HH
#define ACR_HARNESS_EXPERIMENT_HH

#include <limits>
#include <map>
#include <string>

#include "ckpt/manager.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "slice/policy.hh"

namespace acr::harness
{

/** Which BER scheme runs. */
enum class BerMode
{
    kNoCkpt,  ///< error-free execution, no checkpointing (baseline)
    kCkpt,    ///< incremental in-memory checkpointing
    kReCkpt,  ///< ACR: amnesic checkpointing and recovery
};

/**
 * Checkpoint placement policy. The paper places checkpoints uniformly
 * (Sec. IV) and observes (Sec. V-D1/V-D3) that shifting checkpoint times
 * toward recomputation-rich execution regions would help — left as
 * future work there, implemented here as kRecomputeAware: at a trigger
 * point, establishment is deferred (up to a slack fraction of the
 * period) while the open interval's recomputable fraction is still
 * below the program's profiled slice coverage.
 */
enum class PlacementPolicy
{
    kUniform,
    kRecomputeAware,
};

/** One experiment configuration. */
struct ExperimentConfig
{
    BerMode mode = BerMode::kCkpt;
    ckpt::Coordination coordination = ckpt::Coordination::kGlobal;

    /** Checkpoint storage backend (DESIGN.md §14): the seed's DRAM
     *  undo log, a ReStore-style replicated image store, or a
     *  JASS-style NVM log. Requires a checkpointing mode when not
     *  kLog (NoCkpt stores nothing). */
    ckpt::Backend backend = ckpt::Backend::kLog;

    /** Checkpoints uniformly distributed over execution (Sec. IV). */
    unsigned numCheckpoints = 25;

    /** Errors uniformly distributed over execution (0 = error-free). */
    unsigned numErrors = 0;

    /** Slice-length threshold for ReCkpt modes (paper default 10;
     *  5 for is, footnote 4). */
    unsigned sliceThreshold = 10;

    /** Slice selection policy (ablation: kCostModel). */
    slice::SelectionPolicy policy =
        slice::SelectionPolicy::kGreedyThreshold;

    /** AddrMap age expiry in intervals (0: live until overwritten;
     *  2: the strict Sec. III-A reading). */
    unsigned addrMapRetention = 0;

    /** Detection latency as a fraction of the checkpoint period
     *  (must stay <= 1 per Sec. II-A). */
    double detectionLatencyFraction = 0.25;

    /** Checkpoint placement (kRecomputeAware needs mode == kReCkpt). */
    PlacementPolicy placement = PlacementPolicy::kUniform;

    /** Max deferral under kRecomputeAware, as a fraction of the period. */
    double placementSlack = 0.3;

    /** Seed for error masks. */
    std::uint64_t seed = 0xacce55ULL;

    /** Panic if the final memory state diverges from the error-free
     *  reference (always sound: recovery must be transparent). */
    bool verifyFinalState = true;

    /**
     * Attach the RecoveryOracle: differentially validate every
     * recovery and report structured divergences in the result instead
     * of aborting. Requires a checkpointing mode.
     */
    bool oracle = false;

    /**
     * FaultPlan shrinking: keep planned error i iff bit (i % 64) is
     * set. All-ones (the default) keeps the full plan; the torture
     * front-end bisects this mask to a minimal failing event set.
     */
    std::uint64_t faultEventMask = ~std::uint64_t{0};

    /**
     * Storage faults injected into the checkpoint medium (0 = the
     * reliable medium; DESIGN.md §16). Seeded and ordinal-keyed like
     * compute errors; requires a checkpointing mode. Kinds are
     * backend-specific (ckpt::storageFaultKinds).
     */
    unsigned storageErrors = 0;

    /** StorageFaultPlan shrinking mask, same keep-bit convention as
     *  faultEventMask (the torture shrinker bisects it). */
    std::uint64_t storageFaultMask = ~std::uint64_t{0};

    /** Human-readable label ("ReCkpt_E,Loc" etc.). */
    std::string label() const;

    /**
     * Check the configuration's internal consistency. Returns an empty
     * string when valid, else a descriptive error naming the offending
     * field. Runner::run calls this (after defaulting
     * sliceThreshold == 0 to the workload's threshold) and fatal()s on
     * the message, so invalid combinations fail at the API boundary
     * instead of deep inside BerRuntime — or worse, silently
     * mis-measuring (e.g. a detection latency longer than the
     * checkpoint period).
     */
    std::string validate() const;
};

/** Measurements from one run. */
struct ExperimentResult
{
    Cycle cycles = 0;
    double energyPj = 0.0;
    double edp = 0.0;

    std::uint64_t checkpointsEstablished = 0;
    std::uint64_t recoveries = 0;

    /** Oracle findings (0 when the oracle is off or the run is clean). */
    std::uint64_t oracleDivergences = 0;
    /** Structured divergence report ("" when clean). */
    std::string oracleReport;

    /** Stored checkpoint bytes over the whole run / bytes ACR omitted. */
    std::uint64_t ckptBytesStored = 0;
    std::uint64_t ckptBytesOmitted = 0;

    StatSet stats;
    std::vector<ckpt::IntervalSizes> history;

    /**
     * Quarantine marker: the sweep supervisor exhausted every retry
     * for this grid point, so the slot holds a placeholder instead of
     * a measurement. The numeric payload is NaN-poisoned so every
     * derived metric a bench computes from it renders as a FAILED
     * table cell; the wire layer refuses to encode it as a `result`
     * record (it travels as an explicit `failed` record instead).
     */
    bool failed = false;
    /** Worker attempts consumed (meaningful when failed). */
    unsigned attempts = 1;
    /** Why the last attempt died (meaningful when failed). */
    std::string failReason;

    /**
     * Storage faults defeated every escalation rung (DESIGN.md §16):
     * the modeled machine could not be restored to any checkpoint and
     * the run stopped at the failed recovery. Unlike `failed` this IS
     * a measurement — a deterministic, cacheable statement about the
     * configuration — so cycles/stats hold the partial run up to the
     * loss and only the derived overhead metrics NaN-poison.
     */
    bool unrecoverable = false;
    /** Which stored datum was unserveable (when unrecoverable). */
    std::string unrecoverableDetail;

    /** The quarantine placeholder for a point that failed every
     *  attempt. */
    static ExperimentResult
    quarantined(unsigned attempts, std::string reason)
    {
        ExperimentResult result;
        result.failed = true;
        result.attempts = attempts;
        result.failReason = std::move(reason);
        result.energyPj = std::numeric_limits<double>::quiet_NaN();
        result.edp = std::numeric_limits<double>::quiet_NaN();
        return result;
    }

    /** % overhead of this run w.r.t. a NoCkpt reference. NaN for
     *  quarantined and unrecoverable results (FAILED-style cells: a
     *  truncated run's overhead is not comparable to a finished
     *  one's). */
    double
    timeOverheadPct(Cycle no_ckpt_cycles) const
    {
        if (failed || unrecoverable)
            return std::numeric_limits<double>::quiet_NaN();
        return 100.0 *
               (static_cast<double>(cycles) -
                static_cast<double>(no_ckpt_cycles)) /
               static_cast<double>(no_ckpt_cycles);
    }

    double
    energyOverheadPct(double no_ckpt_energy) const
    {
        if (failed || unrecoverable)
            return std::numeric_limits<double>::quiet_NaN();
        return 100.0 * (energyPj - no_ckpt_energy) / no_ckpt_energy;
    }

    double
    edpReductionPct(double baseline_edp) const
    {
        if (failed || unrecoverable)
            return std::numeric_limits<double>::quiet_NaN();
        return 100.0 * (baseline_edp - edp) / baseline_edp;
    }
};

} // namespace acr::harness

#endif // ACR_HARNESS_EXPERIMENT_HH
