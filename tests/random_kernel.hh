/**
 * @file
 * Randomized kernel shapes shared by the whole-stack property tests and
 * the slice-relevance differential test.
 */

#ifndef ACR_TESTS_RANDOM_KERNEL_HH
#define ACR_TESTS_RANDOM_KERNEL_HH

#include "common/rng.hh"
#include "isa/program.hh"
#include "workloads/kernel_spec.hh"

namespace acr::testsupport
{

/** A random kernel and the thread count it was built for. */
struct RandomKernel
{
    isa::Program program;
    unsigned threads = 0;
};

/** Draw a kernel shape, thread count and data seed from @p rng. */
inline RandomKernel
randomKernel(Rng &rng)
{
    workloads::KernelSpec spec;
    spec.name = "fuzz";
    spec.outerIters = 4 + static_cast<unsigned>(rng.below(6));
    unsigned phases = 1 + static_cast<unsigned>(rng.below(3));
    for (unsigned p = 0; p < phases; ++p) {
        workloads::PhaseSpec phase;
        phase.cells = 8 + static_cast<unsigned>(rng.below(40));
        phase.chainLen = 1 + static_cast<unsigned>(rng.below(45));
        spec.phases.push_back(phase);
    }
    spec.reps = 1 + static_cast<unsigned>(rng.below(2));
    spec.histogram = rng.chance(0.3);
    if (rng.chance(0.4))
        spec.burst = {32 + static_cast<unsigned>(rng.below(64)),
                      1 + static_cast<unsigned>(rng.below(60))};
    switch (rng.below(5)) {
      case 0: spec.comm = workloads::Comm::kNone; break;
      case 1: spec.comm = workloads::Comm::kPair; break;
      case 2: spec.comm = workloads::Comm::kQuad; break;
      case 3: spec.comm = workloads::Comm::kRing; break;
      default: spec.comm = workloads::Comm::kAllToAll; break;
    }
    spec.commPeriod = 1u << rng.below(3);

    RandomKernel kernel;
    kernel.threads = 2u << rng.below(2);  // 2 or 4
    workloads::WorkloadParams params;
    params.threads = kernel.threads;
    params.seed = rng.next();
    kernel.program = workloads::buildKernel(spec, params);
    return kernel;
}

} // namespace acr::testsupport

#endif // ACR_TESTS_RANDOM_KERNEL_HH
