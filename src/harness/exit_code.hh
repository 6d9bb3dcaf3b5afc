/**
 * @file
 * Process exit-code vocabulary of the sweep front-ends, and the one
 * place their precedence lives. A bench process can end up with
 * several independent verdicts — the supervisor quarantined points,
 * the recovery oracle found divergences, a point lost its machine —
 * and the shell sees a single byte, so benchMain combines the
 * verdicts by severity, not by whoever returns last:
 *
 *     kExitClean (0)  <  kExitQuarantine (3)  <  kExitDivergence (4)
 *                     <  kExitUnrecoverable (5)
 *
 * Quarantine means "some points have no measurement" (partial output);
 * divergence means "a measurement itself is wrong" (the recovery
 * oracle caught the engine misbehaving); unrecoverable means "the
 * modeled machine itself was lost" (no rollback target could be
 * restored, DESIGN.md §16) — the strongest statement a campaign can
 * make, so it dominates everything.
 * Codes 1/2 are not combinable verdicts: 1 is fatal()'s path (bad
 * flags, broken wire records) and exits immediately, 2 is reserved
 * for the platform. combineExitCodes() rejects them loudly rather
 * than guessing an ordering.
 */

#ifndef ACR_HARNESS_EXIT_CODE_HH
#define ACR_HARNESS_EXIT_CODE_HH

#include "common/logging.hh"

namespace acr::harness
{

enum ExitCode : int
{
    /** Every point measured, every check clean. */
    kExitClean = 0,
    /** >= 1 grid point failed every retry; rendered output is partial. */
    kExitQuarantine = 3,
    /** >= 1 recovery-oracle divergence: the engine produced a wrong
     *  measurement. */
    kExitDivergence = 4,
    /** >= 1 point ended unrecoverable: no rollback target could be
     *  restored (storage faults defeated every escalation rung, or no
     *  retained checkpoint was safe) and the run surfaced a structured
     *  loss-of-machine outcome. */
    kExitUnrecoverable = 5,
};

/** Severity rank within the precedence chain; -1 for codes that are
 *  not combinable verdicts. */
constexpr int
exitCodeSeverity(int code)
{
    switch (code) {
    case kExitClean: return 0;
    case kExitQuarantine: return 1;
    case kExitDivergence: return 2;
    case kExitUnrecoverable: return 3;
    default: return -1;
    }
}

/** The more severe of two verdicts (0 < 3 < 4 < 5). */
inline int
combineExitCodes(int a, int b)
{
    ACR_ASSERT(exitCodeSeverity(a) >= 0,
               "exit code %d is not a combinable verdict", a);
    ACR_ASSERT(exitCodeSeverity(b) >= 0,
               "exit code %d is not a combinable verdict", b);
    return exitCodeSeverity(a) >= exitCodeSeverity(b) ? a : b;
}

} // namespace acr::harness

#endif // ACR_HARNESS_EXIT_CODE_HH
