/**
 * @file
 * AcrEngine: the paper's ACR handler pair.
 *
 * Checkpoint-handler side (Fig. 4a): every retired store carrying the
 * compiler's slice hint executes a fused ASSOC-ADDR — the engine builds
 * the dynamic Slice instance for the stored value, captures its input
 * operands into the bounded operand buffer, and records the
 * <address, Slice> association in AddrMap. When the checkpoint substrate
 * is about to log an old value, it asks (through ckpt::RecomputeProvider)
 * whether that value's producer left an association; if so the record
 * becomes amnesic and is omitted from the stored checkpoint.
 *
 * Recovery-handler side (Fig. 4b): replays pinned Slice instances to
 * regenerate omitted values during rollback, and drops stale
 * associations for rolled-back addresses.
 */

#ifndef ACR_ACR_ACR_ENGINE_HH
#define ACR_ACR_ACR_ENGINE_HH

#include <functional>
#include <memory>
#include <vector>

#include "acr/addr_map.hh"
#include "ckpt/provider.hh"
#include "common/stats.hh"
#include "cpu/exec_observer.hh"
#include "slice/engine.hh"
#include "slice/repository.hh"

namespace acr::amnesic
{

/**
 * Configuration of the ACR microarchitectural support (Fig. 5). Slice
 * selection is not part of it: ASSOC-ADDR builds under the policy its
 * slicer was constructed with, the one the compiler pass applied.
 */
struct AcrConfig
{
    /** AddrMap entries (on-chip, Sec. III-C). */
    std::size_t addrMapCapacity = 8192;

    /** Input-operand buffer capacity in words (Sec. II-B). */
    std::size_t operandBufferWords = 65536;

    /**
     * Age-based expiry of AddrMap associations, in checkpoint
     * intervals. 0 (default): an association lives until the address
     * is overwritten by a non-recomputable store, evicted by capacity,
     * or rolled back — the mapping describes the *current* memory
     * value, which stays recomputable however old it is. N > 0 models
     * the stricter reading of Sec. III-A's "two most recent
     * checkpoints" (N = 2): associations older than N intervals are
     * dropped even if still valid. Instances referenced by retained
     * undo logs survive either way (shared ownership).
     */
    unsigned retentionIntervals = 0;
};

/** The ACR checkpoint + recovery handlers. */
class AcrEngine : public ckpt::RecomputeProvider
{
  public:
    /** Per-store event tallies deferred until exportStats(). */
    struct HotCounters
    {
        std::uint64_t captures = 0;
        std::uint64_t captureFailures = 0;
        std::uint64_t operandBufferRejections = 0;
        std::uint64_t operandBufferWords = 0;
        std::uint64_t addrMapAccesses = 0;
        std::uint64_t addrMapOverflows = 0;
    };

    /**
     * Engine state captured by the prefix-sharing snapshot
     * (DESIGN.md §13). Live slice instances are serialized out-of-line
     * (as Snap::InstanceEntry values) because instances hold a
     * reference to *this engine's* operand buffer: a resumed run must
     * re-create them against its own accounting object, never adopt
     * the originals. AddrMap entries refer to instances by index into
     * that shared table (undo-log records use the same indices).
     */
    struct Snap
    {
        struct MapEntry
        {
            Addr addr = 0;
            std::uint32_t instance = 0;
            std::uint64_t interval = 0;
        };

        /** One live instance: static slice id + captured operands. */
        struct InstanceEntry
        {
            slice::SliceId slice = 0;
            std::vector<Word> inputs;
        };

        slice::SliceRepository repo;
        std::vector<MapEntry> addrMap;
        std::uint64_t addrMapOverflows = 0;
        std::size_t addrMapPeak = 0;
        std::size_t operandPeak = 0;
        std::uint64_t operandRejections = 0;
        std::uint64_t currentInterval = 1;
        HotCounters hot;
    };


    AcrEngine(const AcrConfig &config, slice::SliceEngine &slicer,
              StatSet &stats);

    /**
     * ASSOC-ADDR execution, fused with a retired store (driver calls
     * this for every store, after the checkpoint substrate logged it).
     * Non-hinted or non-sliceable stores kill any stale association for
     * the address, keeping AddrMap sound.
     */
    void onStoreRetired(const cpu::InstrEvent &event);

    // --- ckpt::RecomputeProvider ---
    std::shared_ptr<slice::SliceInstance>
    currentValueSlice(Addr addr) override;

    Word replay(const slice::SliceInstance &instance,
                slice::ReplayCost *cost) override;

    void onCheckpointEstablished(std::uint64_t interval) override;

    void onRollback(const std::vector<Addr> &restored) override;

    const AcrConfig &config() const { return config_; }
    const AddrMap &addrMap() const { return addrMap_; }
    slice::SliceRepository &repository() { return repo_; }
    const slice::OperandBufferAccounting &operandBuffer() const
    {
        return operandBuf_;
    }

    /**
     * Publish structure-occupancy statistics and flush the per-store
     * event counters into the StatSet. The hot path (one to three
     * events per retired store) bumps plain integers; the string-keyed
     * StatSet sees one add() per counter here instead of millions.
     * Flushing zeroes the counters, so calling this twice is safe.
     * The final StatSet values are bit-identical to per-event add()
     * calls: every increment is integral and the totals stay far below
     * 2^53, so double addition is exact in any order.
     */
    void exportStats();

    /**
     * Capture this engine's state. @p index_of maps each live instance
     * to its slot in the caller's deduplicated instance table (the
     * caller serializes instances once across AddrMap and undo logs).
     */
    Snap
    save(const std::function<
         std::uint32_t(const std::shared_ptr<slice::SliceInstance> &)>
             &index_of) const;

    /**
     * Overwrite this (freshly constructed) engine with @p snap,
     * materializing @p entries against this engine's own operand
     * buffer. @return the new instances, aligned with the table's
     * indices, so the caller can re-link undo-log records.
     */
    std::vector<std::shared_ptr<slice::SliceInstance>>
    restore(const Snap &snap,
            const std::vector<Snap::InstanceEntry> &entries);

  private:
    AcrConfig config_;
    slice::SliceEngine &slicer_;
    StatSet &stats_;
    slice::SliceRepository repo_;
    slice::OperandBufferAccounting operandBuf_;
    AddrMap addrMap_;
    std::uint64_t currentInterval_ = 1;
    HotCounters hot_;
};

} // namespace acr::amnesic

#endif // ACR_ACR_ACR_ENGINE_HH
