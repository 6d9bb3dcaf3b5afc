/**
 * @file
 * Error-free prefix sharing (DESIGN.md §13.6): within one sweep cell the
 * +error and −error runs of a configuration execute identically up to
 * the first armed fault event. PrefixSnapshot captures the entire
 * mutable state of a BerRuntime run at a progress threshold — machine
 * (cores/memory/caches), slicer DAG, ACR engine, and checkpoint
 * retention — so a sibling run whose first fault trigger lies at or
 * beyond that threshold can fork from the snapshot instead of
 * re-simulating the shared prefix. The Runner holds one snapshot, its
 * latest capture, and offers it to every run of the same prefix key;
 * BerRuntime::run, which builds the fault plan, decides whether the run
 * resumes from it.
 *
 * The capture point sits immediately after the scheduling step whose
 * progress first reaches the threshold, *before* that iteration's
 * injector poll: the injector is a provable no-op until its first
 * trigger, so any consumer with trigger >= stopProgress would have
 * reached this exact state instruction for instruction.
 *
 * Live SliceInstances are the delicate part: they hold a reference to
 * their run's OperandBufferAccounting and are shared (by pointer)
 * between AddrMap entries and retained undo-log records. The snapshot
 * therefore serializes each distinct instance exactly once into an
 * indexed table and re-materializes it exactly once per resumed run —
 * double-materializing would double-charge live operand words and
 * diverge later capacity rejections.
 */

#ifndef ACR_HARNESS_PREFIX_SHARE_HH
#define ACR_HARNESS_PREFIX_SHARE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "acr/acr_engine.hh"
#include "ckpt/manager.hh"
#include "common/stats.hh"
#include "sim/system.hh"
#include "slice/engine.hh"

namespace acr::harness
{

/** Full mid-run state of one BerRuntime execution. */
struct PrefixSnapshot
{
    /** Sentinel instance index: a plain (non-amnesic) log record. */
    static constexpr std::uint32_t kNoInstance = ~std::uint32_t{0};

    /** One serialized undo-log record (amnesic pointer by index). */
    struct RecordSnap
    {
        Addr addr = 0;
        Word oldValue = 0;
        CoreId writer = 0;
        std::uint32_t amnesic = kNoInstance;
    };

    /** One serialized IntervalLog. */
    struct LogSnap
    {
        std::uint64_t interval = 0;
        std::vector<RecordSnap> records;
    };

    /** One serialized retained checkpoint. */
    struct CkptSnap
    {
        std::uint64_t index = 0;
        Cycle establishedAt = 0;
        std::uint64_t progressAt = 0;
        std::vector<cpu::ArchState> arch;
        std::vector<cache::SharerMask> interactions;
        cache::SharerMask validFor = ~cache::SharerMask{0};
        LogSnap log;
    };

    /**
     * The progress threshold this snapshot was captured at (the
     * consuming run's first fault trigger must be >= this). This is
     * the *threshold*, not the possibly-larger actual progress — the
     * eligibility proof needs the last pre-capture injector poll to
     * have happened strictly below it.
     */
    std::uint64_t stopProgress = 0;

    sim::MulticoreSystem::Snapshot system;
    /** Result of the step the capture followed (consumed in place of
     *  the resumed run's first stepWith()). */
    sim::SystemState stepState = sim::SystemState::kRunning;
    std::uint64_t nextCkpt = 0;
    StatSet stats;

    /** Deduplicated live slice instances (AddrMap + undo logs). */
    std::vector<amnesic::AcrEngine::Snap::InstanceEntry> instances;
    std::optional<slice::SliceEngine> slicer;
    std::optional<amnesic::AcrEngine::Snap> acr;

    // --- Checkpoint-manager retention ---
    LogSnap openLog;
    /** Newest last, matching CheckpointManager::retained(). */
    std::vector<CkptSnap> retained;
    std::uint64_t established = 0;
    std::vector<ckpt::IntervalSizes> history;
};

/**
 * Capture a snapshot. Call right after the stepWith() whose progress
 * first reaches @p stop_progress, before the injector poll. @p slicer
 * and @p acr may be null (plain Ckpt mode); @p manager must not be.
 */
PrefixSnapshot capturePrefix(std::uint64_t stop_progress,
                             const sim::MulticoreSystem &system,
                             sim::SystemState step_state,
                             std::uint64_t next_ckpt,
                             const StatSet &stats,
                             const slice::SliceEngine *slicer,
                             const amnesic::AcrEngine *acr,
                             const ckpt::CheckpointManager &manager);

/**
 * Overwrite a freshly constructed run's components with @p snap.
 * The caller must have built every component exactly as a normal run
 * does (including manager.initialCheckpoint()); null-ness of
 * @p slicer / @p acr must match the snapshot's.
 */
void resumePrefix(const PrefixSnapshot &snap, sim::MulticoreSystem &system,
                  std::uint64_t &next_ckpt, StatSet &stats,
                  slice::SliceEngine *slicer, amnesic::AcrEngine *acr,
                  ckpt::CheckpointManager &manager);

/**
 * In/out handle BerRuntime::run uses to take part in sharing. The
 * caller offers the one snapshot it holds for the run's prefix key;
 * BerRuntime, which builds the fault plan, alone decides whether the
 * run resumes from it, captures its own, or does neither — never both.
 */
struct PrefixHandle
{
    /** Snapshot offered to fork from (null: none held for this key). */
    std::shared_ptr<const PrefixSnapshot> offer;
    /** Set by BerRuntime when the run resumed from the offer. */
    bool resumed = false;
    /** Filled by BerRuntime when the run captured a snapshot. */
    std::shared_ptr<const PrefixSnapshot> captured;
};

} // namespace acr::harness

#endif // ACR_HARNESS_PREFIX_SHARE_HH
