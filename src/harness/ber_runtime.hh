/**
 * @file
 * BerRuntime: executes one experiment — wires the multicore system, the
 * checkpoint substrate, the ACR engine, the error injector, and the
 * recovery oracle together, drives the progress-based checkpoint
 * schedule, reacts to detections with recovery, and has the oracle
 * verify that the final memory state matches the error-free reference
 * (recovery transparency). Every verdict lands in the result — none
 * aborts the process.
 */

#ifndef ACR_HARNESS_BER_RUNTIME_HH
#define ACR_HARNESS_BER_RUNTIME_HH

#include "acr/slice_pass.hh"
#include "harness/experiment.hh"
#include "harness/prefix_share.hh"
#include "sim/machine_config.hh"

namespace acr::harness
{

/** One-shot experiment executor. */
class BerRuntime
{
  public:
    /**
     * Run @p config against @p program. @p config must be valid
     * (ExperimentConfig::validate() empty; Runner::run checks it).
     *
     * @param program  the kernel; must carry slice hints (from
     *                 SlicePass) when config.mode == kReCkpt
     * @param profile  NoCkpt profile of the same program (progress and
     *                 cycle totals drive the checkpoint/error schedules;
     *                 its golden track and final image are the
     *                 verification reference)
     * @param prefix   optional prefix-sharing handle (DESIGN.md
     *                 §13.6): the run resumes from the offered snapshot
     *                 or captures one at its first fault trigger; this
     *                 function alone decides which (null: neither)
     */
    static ExperimentResult run(const isa::Program &program,
                                const sim::MachineConfig &machine,
                                const ExperimentConfig &config,
                                const amnesic::SlicePassResult &profile,
                                PrefixHandle *prefix = nullptr);
};

} // namespace acr::harness

#endif // ACR_HARNESS_BER_RUNTIME_HH
