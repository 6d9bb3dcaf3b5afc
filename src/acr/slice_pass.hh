/**
 * @file
 * SlicePass: ACR's compiler pass (Sec. III-A / IV). Implemented — like
 * the paper's — as dynamic binary instrumentation: the program runs once
 * under the slicer, every store's backward slice is extracted, and
 * stores with at least one admissible Slice get the ASSOC-ADDR fusion
 * hint embedded in the binary. Unique slice shapes are interned to
 * measure the static code-size overhead of embedding (paper: < 2%).
 *
 * The profiling run is an error-free, checkpoint-free execution, so its
 * timing doubles as the NoCkpt baseline of the evaluation, and its
 * state digests at every step boundary are the recovery oracle's
 * golden reference (DESIGN.md §12.1, §13.4).
 */

#ifndef ACR_ACR_SLICE_PASS_HH
#define ACR_ACR_SLICE_PASS_HH

#include <map>
#include <vector>

#include "common/stats.hh"
#include "isa/program.hh"
#include "sim/machine_config.hh"
#include "sim/system.hh"
#include "slice/policy.hh"

namespace acr::amnesic
{

/** Everything the pass learns about a program. */
struct SlicePassResult
{
    /** The program with sliceHint set on recomputable stores. */
    isa::Program program;

    std::size_t staticStores = 0;
    std::size_t hintedStores = 0;
    std::size_t uniqueSlices = 0;
    std::size_t sliceInstrs = 0;

    /** Embedded-slice instructions relative to program size, percent. */
    double binaryGrowthPct = 0.0;

    /** Dynamic stores observed / found sliceable (coverage). */
    std::uint64_t dynamicStores = 0;
    std::uint64_t sliceableStores = 0;

    // --- NoCkpt profile of the same run ---
    std::uint64_t totalProgress = 0;  ///< retired instructions
    Cycle cycles = 0;                 ///< completion time
    /** Final memory image (names the first differing word when a
     *  run's final memory digest diverges from goldenTrack's last). */
    std::map<Addr, Word> finalImage;
    /**
     * The run's golden track: its digests at the initial state and
     * after every step, in order; the last entry is the halted
     * machine. The recovery oracle walks it in place of a replay.
     */
    std::vector<sim::StepDigest> goldenTrack;
    /**
     * The system's exported counters at completion. Because the pass
     * observer never perturbs timing, these are exactly the stats an
     * error-free NoCkpt run of the same program would export, and the
     * BER runtime reuses them to answer NoCkpt experiments without
     * re-simulating (DESIGN.md Sec. 13).
     */
    StatSet stats;
};

/** The pass itself. */
class SlicePass
{
  public:
    /**
     * Profile @p program on @p machine, extracting Slices under
     * @p policy.
     */
    static SlicePassResult run(const isa::Program &program,
                               const sim::MachineConfig &machine,
                               const slice::SlicePolicyConfig &policy);
};

} // namespace acr::amnesic

#endif // ACR_ACR_SLICE_PASS_HH
