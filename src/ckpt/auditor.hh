/**
 * @file
 * Audit hook between the CheckpointManager and a recovery validator.
 *
 * Every manager reports each recomputation mismatch to its auditor
 * (with the originating record, so the validator can attribute it to
 * an address, writer, and slice) and heals the word from the record's
 * shadow value, so a campaign continues and surfaces every divergence
 * as a structured verdict instead of aborting on the first.
 */

#ifndef ACR_CKPT_AUDITOR_HH
#define ACR_CKPT_AUDITOR_HH

#include <cstdint>

#include "ckpt/log.hh"

namespace acr::ckpt
{

/** Observer of recovery-correctness events inside the manager. */
class RecoveryAuditor
{
  public:
    virtual ~RecoveryAuditor() = default;

    /**
     * A Slice replay produced @p replayed for @p record (whose
     * `oldValue` shadow holds the expected word) while the manager's
     * recovery number @p recovery (1-based) undid the log of
     * checkpoint interval @p interval. The manager heals the word
     * from the shadow after reporting.
     */
    virtual void onRecomputeMismatch(const LogRecord &record,
                                     Word replayed,
                                     std::uint64_t interval,
                                     std::uint64_t recovery) = 0;
};

} // namespace acr::ckpt

#endif // ACR_CKPT_AUDITOR_HH
