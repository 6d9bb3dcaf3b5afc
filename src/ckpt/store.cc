#include "ckpt/store.hh"

#include <algorithm>

#include "common/logging.hh"

namespace acr::ckpt
{

namespace
{

bool
inMask(cache::SharerMask mask, CoreId core)
{
    return (mask >> core) & 1;
}

/** Synthetic line ids for checkpoint-region traffic (arch state). */
LineId
archRegionLine(CoreId core, std::uint64_t index)
{
    return (LineId{1} << 40) + core * 1024 + index;
}

/** Synthetic word address of replica @p replica's copy of @p addr:
 *  each replica occupies its own high region so replica traffic lands
 *  on its own controller queue slots deterministically. */
Addr
replicaAddr(unsigned replica, Addr addr)
{
    return addr + (Addr{1} << 41) * (replica + 1);
}

/** Synthetic line ids of replica @p replica's arch-state region. */
LineId
replicaArchLine(unsigned replica, CoreId core, std::uint64_t index)
{
    return (LineId{1} << 40) + (LineId{1} << 30) * (replica + 1) +
           core * 1024 + index;
}

/**
 * The seed's undo-log-in-DRAM backend. Every charge below reproduces
 * the exact DramModel call sequence the pre-extraction manager issued,
 * so a kLog run is bit-identical to the seed (perf_equiv_test and
 * golden_stdout lock this).
 */
class LogStore final : public CheckpointStore
{
  public:
    using CheckpointStore::CheckpointStore;

    Backend backend() const override { return Backend::kLog; }

    bool supportsAmnesic() const override { return true; }

    Cycle
    establishGroup(const IntervalLog &log, cache::SharerMask group,
                   Cycle start, Cycle flush_done) override
    {
        auto &dram = system_.caches().dram();
        Cycle done = flush_done;

        // Log traffic: each stored (non-amnesic) record reads the old
        // value from memory and appends it to the log region; amnesic
        // records cost nothing here (their AddrMap writes were charged
        // at ASSOC-ADDR).
        for (const LogRecord &record : log.records()) {
            if (!inMask(group, record.writer))
                continue;
            if (record.isAmnesic())
                continue;
            Cycle t1 = dram.wordRead(record.addr, start);
            Cycle t2 = dram.wordWrite(record.addr, start);
            done = std::max({done, t1, t2});
        }

        // Architectural state of every group core goes to the
        // checkpoint region in memory.
        const std::uint64_t arch_lines =
            (archBytesPerCore_ + kLineBytes - 1) / kLineBytes;
        for (CoreId c = 0; c < system_.numCores(); ++c) {
            if (!inMask(group, c))
                continue;
            for (std::uint64_t i = 0; i < arch_lines; ++i) {
                Cycle t = dram.lineWrite(archRegionLine(c, i), start);
                done = std::max(done, t);
            }
        }
        return done;
    }

    void
    accountFootprint(const IntervalLog &log, unsigned num_cores,
                     IntervalSizes &sizes) const override
    {
        sizes.loggedBytes = log.loggedBytes();
        sizes.omittedBytes = log.omittedBytes();
        sizes.archBytes = archBytesPerCore_ * num_cores;
    }

    Cycle
    restoreWord(const LogRecord &record, Cycle issue_at,
                unsigned replica) override
    {
        (void)replica;  // single copy
        auto &dram = system_.caches().dram();
        Cycle t1 = dram.wordRead(record.addr, issue_at);
        Cycle t2 = dram.wordWrite(record.addr, issue_at);
        return std::max(t1, t2);
    }

    Cycle
    readArchState(CoreId core, Cycle issue_at,
                  unsigned replica) override
    {
        (void)replica;  // single copy
        auto &dram = system_.caches().dram();
        const std::uint64_t arch_lines =
            (archBytesPerCore_ + kLineBytes - 1) / kLineBytes;
        Cycle done = issue_at;
        for (std::uint64_t i = 0; i < arch_lines; ++i) {
            Cycle t = dram.lineRead(archRegionLine(core, i), issue_at);
            done = std::max(done, t);
        }
        return done;
    }
};

/**
 * ReStore-style replicated in-memory store: every checkpoint datum is
 * written to kReplicaCount independent in-memory images, and recovery
 * reads replica 0 instead of recomputing. Amnesic omission is off — a
 * replica must hold every old value to serve a rollback by itself —
 * so this is the storage-heavy / recovery-cheap baseline ACR beats on
 * footprint but loses to on recovery traffic.
 */
class ReplicatedStore final : public CheckpointStore
{
  public:
    using CheckpointStore::CheckpointStore;

    Backend backend() const override { return Backend::kReplicated; }

    bool supportsAmnesic() const override { return false; }

    Cycle
    establishGroup(const IntervalLog &log, cache::SharerMask group,
                   Cycle start, Cycle flush_done) override
    {
        auto &dram = system_.caches().dram();
        Cycle done = flush_done;
        std::uint64_t replica_bytes = 0;

        // Each record reads the old value once and fans it out to
        // every replica image (per-replica write traffic is charged —
        // that is the point of this baseline).
        for (const LogRecord &record : log.records()) {
            if (!inMask(group, record.writer))
                continue;
            Cycle t = dram.wordRead(record.addr, start);
            done = std::max(done, t);
            for (unsigned r = 0; r < kReplicaCount; ++r) {
                t = dram.wordWrite(replicaAddr(r, record.addr), start);
                done = std::max(done, t);
            }
            replica_bytes += kReplicaCount * kLogRecordBytes;
        }

        const std::uint64_t arch_lines =
            (archBytesPerCore_ + kLineBytes - 1) / kLineBytes;
        for (CoreId c = 0; c < system_.numCores(); ++c) {
            if (!inMask(group, c))
                continue;
            for (unsigned r = 0; r < kReplicaCount; ++r) {
                for (std::uint64_t i = 0; i < arch_lines; ++i) {
                    Cycle t =
                        dram.lineWrite(replicaArchLine(r, c, i), start);
                    done = std::max(done, t);
                }
            }
            replica_bytes += kReplicaCount * arch_lines * kLineBytes;
        }

        stats_.add("ckpt.replicaBytes",
                   static_cast<double>(replica_bytes));
        return done;
    }

    void
    accountFootprint(const IntervalLog &log, unsigned num_cores,
                     IntervalSizes &sizes) const override
    {
        // Every record is stored (never omitted), k times over.
        sizes.loggedBytes =
            kReplicaCount * log.totalRecords() * kLogRecordBytes;
        sizes.omittedBytes = 0;
        sizes.archBytes =
            kReplicaCount * archBytesPerCore_ * num_cores;
    }

    Cycle
    restoreWord(const LogRecord &record, Cycle issue_at,
                unsigned replica) override
    {
        auto &dram = system_.caches().dram();
        Cycle t1 =
            dram.wordRead(replicaAddr(replica, record.addr), issue_at);
        Cycle t2 = dram.wordWrite(record.addr, issue_at);
        return std::max(t1, t2);
    }

    Cycle
    readArchState(CoreId core, Cycle issue_at,
                  unsigned replica) override
    {
        auto &dram = system_.caches().dram();
        const std::uint64_t arch_lines =
            (archBytesPerCore_ + kLineBytes - 1) / kLineBytes;
        Cycle done = issue_at;
        for (std::uint64_t i = 0; i < arch_lines; ++i) {
            Cycle t = dram.lineRead(replicaArchLine(replica, core, i),
                                    issue_at);
            done = std::max(done, t);
        }
        return done;
    }
};

/**
 * JASS-style NVM-resident log: checkpoint bytes live on a
 * byte-addressable non-volatile tier with its own bandwidth queue and
 * asymmetric read/write latencies, plus a persist fence per group
 * establishment. Old values are still *read* from DRAM (that is where
 * the working data lives); only checkpoint storage moves to NVM.
 * Amnesic omission stays on — fewer NVM writes is exactly where the
 * hybrid wins, NVM writes being the expensive operation.
 */
class NvmStore final : public CheckpointStore
{
  public:
    /** PCM-class operating point relative to the Table I DRAM model
     *  (131-cycle latency, 6.97 B/cycle): ~2x read latency, ~5x write
     *  latency, ~1/3 bandwidth, and a DRAM-latency-class persist
     *  fence. DESIGN.md §14 documents the derivation. */
    static constexpr Cycle kReadLatency = 262;
    static constexpr Cycle kWriteLatency = 655;
    static constexpr Cycle kPersistLatency = 131;
    static constexpr double kBytesPerCycle = 2.3;

    using CheckpointStore::CheckpointStore;

    Backend backend() const override { return Backend::kNvm; }

    bool supportsAmnesic() const override { return true; }

    Cycle
    establishGroup(const IntervalLog &log, cache::SharerMask group,
                   Cycle start, Cycle flush_done) override
    {
        auto &dram = system_.caches().dram();
        Cycle done = flush_done;

        for (const LogRecord &record : log.records()) {
            if (!inMask(group, record.writer))
                continue;
            if (record.isAmnesic())
                continue;
            Cycle t1 = dram.wordRead(record.addr, start);
            Cycle t2 = nvmWrite(kLogRecordBytes, start);
            done = std::max({done, t1, t2});
        }

        const std::uint64_t arch_lines =
            (archBytesPerCore_ + kLineBytes - 1) / kLineBytes;
        for (CoreId c = 0; c < system_.numCores(); ++c) {
            if (!inMask(group, c))
                continue;
            for (std::uint64_t i = 0; i < arch_lines; ++i) {
                Cycle t = nvmWrite(kLineBytes, start);
                done = std::max(done, t);
            }
        }

        // One persist fence makes the group's checkpoint durable.
        stats_.add("nvm.persists");
        return done + kPersistLatency;
    }

    void
    accountFootprint(const IntervalLog &log, unsigned num_cores,
                     IntervalSizes &sizes) const override
    {
        sizes.loggedBytes = log.loggedBytes();
        sizes.omittedBytes = log.omittedBytes();
        sizes.archBytes = archBytesPerCore_ * num_cores;
    }

    Cycle
    restoreWord(const LogRecord &record, Cycle issue_at,
                unsigned replica) override
    {
        (void)replica;  // single copy
        Cycle t1 = nvmRead(kLogRecordBytes, issue_at);
        Cycle t2 =
            system_.caches().dram().wordWrite(record.addr, issue_at);
        return std::max(t1, t2);
    }

    Cycle
    readArchState(CoreId core, Cycle issue_at,
                  unsigned replica) override
    {
        (void)core;
        (void)replica;  // single copy
        const std::uint64_t arch_lines =
            (archBytesPerCore_ + kLineBytes - 1) / kLineBytes;
        Cycle done = issue_at;
        for (std::uint64_t i = 0; i < arch_lines; ++i) {
            Cycle t = nvmRead(kLineBytes, issue_at);
            done = std::max(done, t);
        }
        return done;
    }

  private:
    /** Single-channel bandwidth/latency queue, same shape as
     *  DramModel::access so the two media compose deterministically. */
    Cycle
    access(Cycle now, std::uint64_t bytes, bool write)
    {
        double start =
            std::max(static_cast<double>(now), channelFree_);
        double occupancy =
            static_cast<double>(bytes) / kBytesPerCycle;
        channelFree_ = start + occupancy;
        double queue_delay = start - static_cast<double>(now);

        if (write) {
            stats_.add("nvm.writes");
            stats_.add("nvm.bytesWritten", static_cast<double>(bytes));
        } else {
            stats_.add("nvm.reads");
            stats_.add("nvm.bytesRead", static_cast<double>(bytes));
        }
        stats_.add("nvm.queueDelayCycles", queue_delay);

        return now + static_cast<Cycle>(queue_delay + occupancy + 0.5)
               + (write ? kWriteLatency : kReadLatency);
    }

    Cycle
    nvmRead(std::uint64_t bytes, Cycle now)
    {
        return access(now, bytes, false);
    }

    Cycle
    nvmWrite(std::uint64_t bytes, Cycle now)
    {
        return access(now, bytes, true);
    }

    /** Earliest cycle the NVM channel is free. */
    double channelFree_ = 0.0;
};

/** FNV-1a over the 8 bytes of @p value, folded into @p sum. */
std::uint64_t
fnv1aWord(std::uint64_t sum, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        sum ^= (value >> (8 * i)) & 0xff;
        sum *= 0x100000001b3ULL;
    }
    return sum;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** Per-record checksum: FNV-1a over old value + addr + interval
 *  (DESIGN.md §16 — the checksum format the issue pins). */
std::uint64_t
recordChecksum(Word value, Addr addr, std::uint64_t interval)
{
    std::uint64_t sum = fnv1aWord(kFnvBasis, value);
    sum = fnv1aWord(sum, addr);
    return fnv1aWord(sum, interval);
}

/** Per-core arch digest: FNV-1a over the saved register file, pc, and
 *  rollback bookkeeping. @p flip perturbs reg 0 — the served bytes of
 *  a flipped copy. */
std::uint64_t
archChecksum(const cpu::ArchState &arch, Word flip = 0)
{
    std::uint64_t sum = kFnvBasis;
    bool first = true;
    for (Word reg : arch.regs) {
        sum = fnv1aWord(sum, first ? (reg ^ flip) : reg);
        first = false;
    }
    sum = fnv1aWord(sum, arch.pc);
    sum = fnv1aWord(sum, arch.instrsRetired);
    return fnv1aWord(sum, arch.barrierEpoch);
}

} // namespace

Cycle
CheckpointStore::writeRecomputed(const LogRecord &record, Cycle issue_at)
{
    return system_.caches().dram().wordWrite(record.addr, issue_at);
}

void
CheckpointStore::setFaultInjector(fault::StorageFaultInjector *faults)
{
    faults_ = faults;
}

void
CheckpointStore::onEstablished(const Checkpoint &ckpt)
{
    if (faults_ == nullptr)
        return;

    // Checksum what the medium now holds: every stored record (amnesic
    // records never land on the medium — immune by construction) and
    // every core's architectural state.
    for (const LogRecord &record : ckpt.log.records()) {
        if (record.isAmnesic())
            continue;
        recordSums_[{ckpt.index, record.addr}] =
            recordChecksum(record.oldValue, record.addr, ckpt.index);
    }
    for (CoreId c = 0; c < static_cast<CoreId>(ckpt.arch.size()); ++c)
        archSums_[{ckpt.index, c}] = archChecksum(ckpt.arch[c]);

    for (const fault::StorageFaultPlan::Event &event :
         faults_->takeDue(ckpt.index))
        applyFault(ckpt, event);
}

void
CheckpointStore::applyFault(const Checkpoint &ckpt,
                            const fault::StorageFaultPlan::Event &event)
{
    // The victim replica: high pick bits, so the same event picks the
    // same datum whether or not the medium replicates.
    const unsigned replica =
        static_cast<unsigned>((event.pick >> 48) % replicaCount());

    // Record-granular kinds pick among this checkpoint's stored
    // (non-amnesic) records, in log order.
    auto pickStoredAddr = [&](Addr &addr) {
        std::uint64_t stored = 0;
        for (const LogRecord &record : ckpt.log.records())
            if (!record.isAmnesic())
                ++stored;
        if (stored == 0)
            return false;
        std::uint64_t index = event.pick % stored;
        for (const LogRecord &record : ckpt.log.records()) {
            if (record.isAmnesic())
                continue;
            if (index-- == 0) {
                addr = record.addr;
                return true;
            }
        }
        return false;
    };

    switch (event.kind) {
      case fault::StorageFaultKind::kRecordFlip: {
          Addr addr = 0;
          if (!pickStoredAddr(addr)) {
              faults_->noteDropped();
              return;
          }
          armedRecordFlips_[{ckpt.index, addr}][replica] ^=
              event.xorMask;
          break;
      }
      case fault::StorageFaultKind::kArchFlip: {
          const CoreId core = static_cast<CoreId>(
              event.pick % ckpt.arch.size());
          armedArchFlips_[{ckpt.index, core}][replica] ^= event.xorMask;
          break;
      }
      case fault::StorageFaultKind::kTornGroup:
        armedTorn_.insert(ckpt.index);
        break;
      case fault::StorageFaultKind::kReplicaLoss:
        if (replicaCount() < 2) {
            faults_->noteDropped();
            return;
        }
        armedLostReplicas_[replica].insert(ckpt.index);
        break;
      case fault::StorageFaultKind::kUncorrectableRead: {
          Addr addr = 0;
          if (!pickStoredAddr(addr)) {
              faults_->noteDropped();
              return;
          }
          armedUncorrectable_.insert({ckpt.index, addr});
          break;
      }
    }
    faults_->noteInjected();
}

bool
CheckpointStore::establishmentIntact(const Checkpoint &ckpt)
{
    if (faults_ == nullptr)
        return true;
    stats_.add("ckpt.integrityChecks");
    if (armedTorn_.count(ckpt.index) != 0) {
        stats_.add("ckpt.tornRefusals");
        return false;
    }
    return true;
}

MediumRead
CheckpointStore::restoreWordChecked(const LogRecord &record,
                                    std::uint64_t interval,
                                    Cycle issue_at, unsigned replica)
{
    MediumRead read;
    read.done = restoreWord(record, issue_at, replica);
    if (faults_ == nullptr)
        return read;

    const auto key = std::make_pair(interval, record.addr);
    const auto sum = recordSums_.find(key);
    if (sum == recordSums_.end())
        return read;  // open interval: volatile working state, never
                      // stored on the medium, nothing to verify

    stats_.add("ckpt.integrityChecks");
    if (armedUncorrectable_.count(key) != 0 ||
        armedLostReplicas_[replica].count(interval) != 0) {
        read.corrupt = true;
    } else {
        Word served = record.oldValue;
        const auto flip = armedRecordFlips_.find(key);
        if (flip != armedRecordFlips_.end())
            served ^= flip->second[replica];
        read.corrupt = recordChecksum(served, record.addr, interval) !=
                       sum->second;
    }
    if (read.corrupt)
        stats_.add("ckpt.corruptReads");
    return read;
}

MediumRead
CheckpointStore::readArchStateChecked(const Checkpoint &ckpt,
                                      CoreId core, Cycle issue_at,
                                      unsigned replica)
{
    MediumRead read;
    read.done = readArchState(core, issue_at, replica);
    if (faults_ == nullptr)
        return read;

    const auto key = std::make_pair(ckpt.index, core);
    const auto sum = archSums_.find(key);
    if (sum == archSums_.end())
        return read;  // checkpoint 0: recorded before the fault clock
                      // started, unconditionally intact

    stats_.add("ckpt.integrityChecks");
    if (armedLostReplicas_[replica].count(ckpt.index) != 0) {
        read.corrupt = true;
    } else {
        Word flip = 0;
        const auto it = armedArchFlips_.find(key);
        if (it != armedArchFlips_.end())
            flip = it->second[replica];
        read.corrupt =
            archChecksum(ckpt.arch[core], flip) != sum->second;
    }
    if (read.corrupt)
        stats_.add("ckpt.corruptReads");
    return read;
}

void
CheckpointStore::onCheckpointRetired(const Checkpoint &ckpt)
{
    if (faults_ == nullptr)
        return;
    // Retired data can never be read again: prune its sums and any
    // armed corruption that targeted it.
    const auto record_lo = recordSums_.lower_bound({ckpt.index, 0});
    const auto record_hi = recordSums_.lower_bound({ckpt.index + 1, 0});
    recordSums_.erase(record_lo, record_hi);
    archSums_.erase(archSums_.lower_bound({ckpt.index, 0}),
                    archSums_.lower_bound({ckpt.index + 1, 0}));
    armedRecordFlips_.erase(
        armedRecordFlips_.lower_bound({ckpt.index, 0}),
        armedRecordFlips_.lower_bound({ckpt.index + 1, 0}));
    armedArchFlips_.erase(
        armedArchFlips_.lower_bound({ckpt.index, 0}),
        armedArchFlips_.lower_bound({ckpt.index + 1, 0}));
    armedUncorrectable_.erase(
        armedUncorrectable_.lower_bound({ckpt.index, 0}),
        armedUncorrectable_.lower_bound({ckpt.index + 1, 0}));
    for (auto &lost : armedLostReplicas_)
        lost.erase(ckpt.index);
    armedTorn_.erase(ckpt.index);
}

const std::vector<fault::StorageFaultKind> &
storageFaultKinds(Backend backend)
{
    using K = fault::StorageFaultKind;
    static const std::vector<K> log_kinds = {
        K::kRecordFlip, K::kArchFlip, K::kTornGroup};
    static const std::vector<K> replicated_kinds = {
        K::kRecordFlip, K::kArchFlip, K::kTornGroup, K::kReplicaLoss};
    static const std::vector<K> nvm_kinds = {
        K::kRecordFlip, K::kArchFlip, K::kTornGroup,
        K::kUncorrectableRead};
    switch (backend) {
      case Backend::kLog: return log_kinds;
      case Backend::kReplicated: return replicated_kinds;
      case Backend::kNvm: return nvm_kinds;
    }
    panic("unknown checkpoint store backend %d",
          static_cast<int>(backend));
}

const char *
backendName(Backend backend)
{
    switch (backend) {
      case Backend::kLog: return "log";
      case Backend::kReplicated: return "replicated";
      case Backend::kNvm: return "nvm";
    }
    return "?";
}

bool
parseBackend(const std::string &name, Backend &backend)
{
    if (name == "log") {
        backend = Backend::kLog;
        return true;
    }
    if (name == "replicated") {
        backend = Backend::kReplicated;
        return true;
    }
    if (name == "nvm") {
        backend = Backend::kNvm;
        return true;
    }
    return false;
}

const std::vector<Backend> &
allBackends()
{
    static const std::vector<Backend> all = {
        Backend::kLog, Backend::kReplicated, Backend::kNvm};
    return all;
}

std::unique_ptr<CheckpointStore>
makeCheckpointStore(Backend backend, sim::MulticoreSystem &system,
                    StatSet &stats, std::uint64_t arch_bytes_per_core)
{
    switch (backend) {
      case Backend::kLog:
        return std::make_unique<LogStore>(system, stats,
                                          arch_bytes_per_core);
      case Backend::kReplicated:
        return std::make_unique<ReplicatedStore>(system, stats,
                                                 arch_bytes_per_core);
      case Backend::kNvm:
        return std::make_unique<NvmStore>(system, stats,
                                          arch_bytes_per_core);
    }
    panic("unknown checkpoint store backend %d",
          static_cast<int>(backend));
}

} // namespace acr::ckpt
