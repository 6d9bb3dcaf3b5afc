/**
 * @file
 * CheckpointStore: the pluggable storage backend behind the
 * CheckpointManager (DESIGN.md §14). The manager owns the checkpoint
 * *protocol* — what to log, when to establish, which checkpoint a
 * rollback targets, two-checkpoint retention, Fig. 2 suspect skipping —
 * while a store owns the storage *medium*: where checkpoint bytes
 * live, what reading/writing them costs, and what footprint they
 * charge. Three backends:
 *
 *   kLog         undo log in DRAM (the paper's BER substrate; the
 *                seed behavior, bit for bit)
 *   kReplicated  ReStore-style k-replica in-memory images: every
 *                record and the arch state are written k times, and
 *                recovery is served from a replica — no recomputation,
 *                so amnesic omission is disabled
 *   kNvm         JASS-style NVM log: checkpoint bytes go to a
 *                byte-addressable non-volatile tier with distinct
 *                read/write/persist costs (acr::energy charges them
 *                separately); ACR's amnesic omission still applies
 */

#ifndef ACR_CKPT_STORE_HH
#define ACR_CKPT_STORE_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/directory.hh"
#include "ckpt/log.hh"
#include "common/stats.hh"
#include "fault/storage_fault.hh"
#include "sim/system.hh"

namespace acr::ckpt
{

/** Which CheckpointStore implementation a run uses. */
enum class Backend
{
    kLog,         ///< undo log in DRAM (seed behavior)
    kReplicated,  ///< ReStore-style k-replica in-memory images
    kNvm,         ///< JASS-style NVM-resident log
};

/** Canonical lowercase name ("log", "replicated", "nvm") — shared by
 *  the wire encoding and the --backend flag. */
const char *backendName(Backend backend);

/** Parse a canonical backend name; returns false on an unknown name
 *  (callers wrap with SerdeError / fatal as appropriate). */
bool parseBackend(const std::string &name, Backend &backend);

/** Every Backend enumerator, in declaration order (test sweeps). */
const std::vector<Backend> &allBackends();

/** Replica count of the kReplicated store (ReStore's default: one
 *  working image plus one recovery replica per checkpoint datum,
 *  modeled as k independent in-memory copies). */
inline constexpr unsigned kReplicaCount = 2;

/** The failure modes @p backend's medium can suffer (DESIGN.md §16):
 *  flips and torn establishments everywhere, replica loss only where
 *  replicas exist, uncorrectable reads only on NVM cells. */
const std::vector<fault::StorageFaultKind> &
storageFaultKinds(Backend backend);

/** Result of an integrity-checked read from the checkpoint medium. */
struct MediumRead
{
    /** Completion cycle of the read (charged even when corrupt —
     *  detecting rot costs the same traffic as serving it). */
    Cycle done = 0;
    /** The stored bytes failed their checksum, the replica was lost,
     *  or the medium reported an uncorrectable error: the served
     *  value must not be used. */
    bool corrupt = false;
};

/** One established checkpoint. */
struct Checkpoint
{
    /** Checkpoint number (the interval it terminates). */
    std::uint64_t index = 0;

    /** Cycle at which establishment completed (max over groups). */
    Cycle establishedAt = 0;

    /** Program progress (retired instructions) at establishment. */
    std::uint64_t progressAt = 0;

    /** Architectural state of every core. */
    std::vector<cpu::ArchState> arch;

    /** Undo log of the interval that ended at this checkpoint. */
    IntervalLog log;

    /** Interaction adjacency of that interval (local-mode closure). */
    std::vector<cache::SharerMask> interactions;

    /** Cores for which this checkpoint is still a valid rollback
     *  target (group rollbacks invalidate newer checkpoints for the
     *  rolled-back cores only). */
    cache::SharerMask validFor = ~cache::SharerMask{0};
};

/** Per-interval size bookkeeping, kept for the whole run (Fig. 9/10,
 *  Table II). */
struct IntervalSizes
{
    std::uint64_t interval = 0;
    std::uint64_t records = 0;
    std::uint64_t amnesicRecords = 0;
    std::uint64_t loggedBytes = 0;
    std::uint64_t omittedBytes = 0;
    std::uint64_t flushedLines = 0;
    std::uint64_t archBytes = 0;

    /** Stored checkpoint footprint (log + architectural state). */
    std::uint64_t
    storedBytes() const
    {
        return loggedBytes + archBytes;
    }
};

/**
 * The storage API carved out of the CheckpointManager. A store is a
 * cost/footprint model plus retention hooks; it never mutates the
 * functional machine state (memory writes and register restores stay
 * in the manager, so every backend recovers through the identical
 * protocol and the RecoveryOracle validates them all the same way).
 *
 * Contract (DESIGN.md §14):
 *  - establishGroup() charges the medium's establishment traffic for
 *    one coordination group and returns the completion cycle; the
 *    manager stalls the group to it.
 *  - accountFootprint() fills the interval's stored-bytes fields for
 *    this medium (what Fig. 9/10-style metrics read).
 *  - restoreWord()/readArchState() charge rollback traffic; the
 *    returned cycles feed the recovery's resume time. A recomputed
 *    word was never stored, so writeRecomputed() charges the same
 *    working-memory write on every medium.
 *  - onCheckpointRetired() observes the manager's retention decisions
 *    (a reclamation hook; the base class prunes its integrity state
 *    there).
 *  - supportsAmnesic() gates ACR's amnesic omission: a store that
 *    serves recovery from stored bytes alone (kReplicated) must see
 *    every old value, so the manager logs records non-amnesically.
 *
 * Integrity layer (DESIGN.md §16): when a StorageFaultInjector is
 * armed, onEstablished() checksums every stored datum (FNV-1a over
 * old value + addr + interval for records; a digest of the saved
 * ArchState per core) and applies the faults due at that ordinal; the
 * *Checked() read wrappers then verify the served bytes against the
 * stored sums, so a corrupt read is reported (`ckpt.corruptReads`,
 * against `ckpt.integrityChecks`) instead of silently served. Amnesic
 * records never land on the medium, so they are immune — ReCkpt's
 * fault cross-section is smaller than Ckpt's by exactly the omitted
 * bytes. Without an injector the layer is entirely inert (no sums, no
 * stats, byte-identical behavior to the reliable-medium model).
 */
class CheckpointStore
{
  public:
    CheckpointStore(sim::MulticoreSystem &system, StatSet &stats,
                    std::uint64_t arch_bytes_per_core)
        : system_(system), stats_(stats),
          archBytesPerCore_(arch_bytes_per_core)
    {
    }

    virtual ~CheckpointStore() = default;

    virtual Backend backend() const = 0;

    const char *name() const { return backendName(backend()); }

    /** May the manager omit recomputable records from this store? */
    virtual bool supportsAmnesic() const = 0;

    /**
     * Charge establishment traffic for @p group's slice of the open
     * interval @p log (stored records + the group cores' architectural
     * state), issued at @p start. @p flush_done is when the group's
     * dirty-line flush completed. Returns the cycle the last write
     * lands (>= flush_done).
     */
    virtual Cycle establishGroup(const IntervalLog &log,
                                 cache::SharerMask group, Cycle start,
                                 Cycle flush_done) = 0;

    /** Fill @p sizes' loggedBytes/omittedBytes/archBytes for an
     *  interval of @p log stored on this medium by @p num_cores. */
    virtual void accountFootprint(const IntervalLog &log,
                                  unsigned num_cores,
                                  IntervalSizes &sizes) const = 0;

    /** Charge reading @p record's old value from copy @p replica of
     *  the store and writing it back to working memory; returns the
     *  completion cycle. Single-copy media ignore @p replica. */
    virtual Cycle restoreWord(const LogRecord &record, Cycle issue_at,
                              unsigned replica) = 0;

    /** Charge writing a recomputed (amnesic) word to working memory —
     *  the value never touched the medium; returns the completion
     *  cycle. */
    Cycle writeRecomputed(const LogRecord &record, Cycle issue_at);

    /** Charge reading core @p core's checkpointed architectural state
     *  from copy @p replica of the store; returns the completion
     *  cycle. Single-copy media ignore @p replica. */
    virtual Cycle readArchState(CoreId core, Cycle issue_at,
                                unsigned replica) = 0;

    /** The manager dropped @p ckpt from retention (oldest-first):
     *  prune the integrity state kept for it. */
    void onCheckpointRetired(const Checkpoint &ckpt);

    // --- Integrity layer (base-class; inert without an injector) ---

    /** Arm the storage-fault integrity layer; null disarms it (the
     *  reliable-medium model, the default). */
    void setFaultInjector(fault::StorageFaultInjector *faults);

    /** The manager finished establishing @p ckpt: checksum its stored
     *  data and apply the storage-fault events due at its ordinal. */
    void onEstablished(const Checkpoint &ckpt);

    /** Verify @p ckpt's establishment digest before trusting it as a
     *  rollback target: false when the group write tore. Charges an
     *  integrity check when the layer is armed. */
    bool establishmentIntact(const Checkpoint &ckpt);

    /** Was @p ckpt_index's establishment torn? Pure query (oracle
     *  cross-checks); charges nothing. */
    bool
    tornEstablishment(std::uint64_t ckpt_index) const
    {
        return armedTorn_.count(ckpt_index) != 0;
    }

    /** Integrity-checked restoreWord: charges the medium read from
     *  copy @p replica and verifies the served record of interval
     *  @p interval against its establishment checksum. */
    MediumRead restoreWordChecked(const LogRecord &record,
                                  std::uint64_t interval, Cycle issue_at,
                                  unsigned replica);

    /** Integrity-checked readArchState against @p ckpt's digest. */
    MediumRead readArchStateChecked(const Checkpoint &ckpt, CoreId core,
                                    Cycle issue_at, unsigned replica);

    /** Independent copies a corrupt read can be retried from. */
    unsigned
    replicaCount() const
    {
        return backend() == Backend::kReplicated ? kReplicaCount : 1;
    }

  protected:
    sim::MulticoreSystem &system_;
    StatSet &stats_;
    std::uint64_t archBytesPerCore_;

  private:
    void applyFault(const Checkpoint &ckpt,
                    const fault::StorageFaultPlan::Event &event);

    fault::StorageFaultInjector *faults_ = nullptr;

    /** Establishment checksums: (interval, addr) -> FNV-1a sum. */
    std::map<std::pair<std::uint64_t, Addr>, std::uint64_t> recordSums_;
    /** Arch digests: (checkpoint index, core) -> FNV-1a sum. */
    std::map<std::pair<std::uint64_t, CoreId>, std::uint64_t> archSums_;

    // Armed corruptions (what the medium will actually serve).
    std::map<std::pair<std::uint64_t, Addr>,
             std::array<Word, kReplicaCount>>
        armedRecordFlips_;
    std::map<std::pair<std::uint64_t, CoreId>,
             std::array<Word, kReplicaCount>>
        armedArchFlips_;
    std::set<std::pair<std::uint64_t, Addr>> armedUncorrectable_;
    std::array<std::set<std::uint64_t>, kReplicaCount>
        armedLostReplicas_;
    std::set<std::uint64_t> armedTorn_;
};

/** Construct the @p backend store. */
std::unique_ptr<CheckpointStore>
makeCheckpointStore(Backend backend, sim::MulticoreSystem &system,
                    StatSet &stats, std::uint64_t arch_bytes_per_core);

} // namespace acr::ckpt

#endif // ACR_CKPT_STORE_HH
