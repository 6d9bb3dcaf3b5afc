#include "validate/recovery_oracle.hh"

#include <algorithm>

#include "common/logging.hh"

namespace acr::validate
{

namespace
{

bool
inMask(std::uint64_t mask, CoreId core)
{
    return (mask >> core) & 1;
}

/**
 * Compare two sparse images with absent-means-zero semantics (an
 * allocated-but-zero page and an absent page are the same memory).
 * @return false and the first difference when they disagree.
 */
bool
imagesEqual(const std::map<Addr, Word> &expected,
            const std::map<Addr, Word> &actual, Addr *addr,
            Word *expected_word, Word *actual_word)
{
    auto e = expected.begin();
    auto a = actual.begin();
    while (e != expected.end() || a != actual.end()) {
        Addr next;
        if (e == expected.end())
            next = a->first;
        else if (a == actual.end())
            next = e->first;
        else
            next = std::min(e->first, a->first);

        Word want = (e != expected.end() && e->first == next) ? e->second
                                                              : 0;
        Word have = (a != actual.end() && a->first == next) ? a->second
                                                            : 0;
        if (want != have) {
            *addr = next;
            *expected_word = want;
            *actual_word = have;
            return false;
        }
        if (e != expected.end() && e->first == next)
            ++e;
        if (a != actual.end() && a->first == next)
            ++a;
    }
    return true;
}

/** First field of two ArchStates that differs, for diagnostics. */
std::string
archDifference(const cpu::ArchState &expected, const cpu::ArchState &actual)
{
    if (expected.pc != actual.pc)
        return csprintf("pc %zu != %zu", expected.pc, actual.pc);
    if (expected.instrsRetired != actual.instrsRetired)
        return csprintf("instrsRetired %llu != %llu",
                        static_cast<unsigned long long>(
                            expected.instrsRetired),
                        static_cast<unsigned long long>(
                            actual.instrsRetired));
    if (expected.barrierEpoch != actual.barrierEpoch)
        return csprintf("barrierEpoch %llu != %llu",
                        static_cast<unsigned long long>(
                            expected.barrierEpoch),
                        static_cast<unsigned long long>(
                            actual.barrierEpoch));
    if (expected.state != actual.state)
        return csprintf("state %d != %d", static_cast<int>(expected.state),
                        static_cast<int>(actual.state));
    for (unsigned r = 0; r < isa::kNumRegs; ++r) {
        if (expected.regs[r] != actual.regs[r])
            return csprintf("r%u %llu != %llu", r,
                            static_cast<unsigned long long>(
                                expected.regs[r]),
                            static_cast<unsigned long long>(
                                actual.regs[r]));
    }
    return "identical";
}

bool
isRetained(const ckpt::CheckpointManager &manager, std::uint64_t index)
{
    for (const ckpt::Checkpoint &ckpt : manager.retained()) {
        if (ckpt.index == index)
            return true;
    }
    return false;
}

} // namespace

const char *
divergenceKindName(DivergenceKind kind)
{
    switch (kind) {
    case DivergenceKind::kRecompute: return "recompute";
    case DivergenceKind::kMemoryWord: return "memory-word";
    case DivergenceKind::kArchState: return "arch-state";
    case DivergenceKind::kLogIndex: return "log-index";
    case DivergenceKind::kRetention: return "retention";
    case DivergenceKind::kValidFor: return "valid-for";
    case DivergenceKind::kPinning: return "pinning";
    case DivergenceKind::kGoldenState: return "golden-state";
    case DivergenceKind::kFinalImage: return "final-image";
    case DivergenceKind::kEscalation: return "escalation";
    }
    return "unknown";
}

std::string
Divergence::describe() const
{
    std::string out = csprintf("[oracle] %s", divergenceKindName(kind));
    if (recovery != 0)
        out += csprintf(" recovery=%llu",
                        static_cast<unsigned long long>(recovery));
    out += csprintf(" ckpt=%llu",
                    static_cast<unsigned long long>(ckptIndex));
    if (interval != 0)
        out += csprintf(" interval=%llu",
                        static_cast<unsigned long long>(interval));
    if (addr != kInvalidAddr)
        out += csprintf(" addr=%llu expected=%llu actual=%llu",
                        static_cast<unsigned long long>(addr),
                        static_cast<unsigned long long>(expected),
                        static_cast<unsigned long long>(actual));
    if (core != kInvalidCore)
        out += csprintf(" core=%u", core);
    if (writer != kInvalidCore)
        out += csprintf(" writer=%u", writer);
    if (sliceId != slice::kInvalidSlice)
        out += csprintf(" slice=%u", sliceId);
    if (!detail.empty())
        out += ": " + detail;
    return out;
}

RecoveryOracle::RecoveryOracle(sim::MulticoreSystem &system,
                               const std::vector<sim::StepDigest> &golden,
                               StatSet &stats)
    : system_(system), golden_(golden), stats_(stats)
{
    ACR_ASSERT(!golden_.empty(), "oracle needs a golden track");
}

void
RecoveryOracle::addDivergence(Divergence divergence)
{
    stats_.add("oracle.divergences");
    if (divergences_.size() < kMaxDivergences)
        divergences_.push_back(std::move(divergence));
}

RecoveryOracle::Snapshot
RecoveryOracle::captureSnapshot(const ckpt::Checkpoint &ckpt) const
{
    Snapshot snap;
    snap.index = ckpt.index;
    // Architectural state is captured from the cores themselves, not
    // from the manager's checkpoint — the comparison after a rollback
    // is then independent of what the manager stored.
    for (CoreId c = 0; c < system_.numCores(); ++c)
        snap.arch.push_back(system_.core(c).saveArch());
    for (const ckpt::LogRecord &record : ckpt.log.records()) {
        if (!record.isAmnesic())
            continue;
        Pin pin;
        pin.addr = record.addr;
        pin.writer = record.writer;
        pin.sliceId = record.amnesic->slice();
        pin.instance = record.amnesic;
        snap.pins.push_back(std::move(pin));
    }
    return snap;
}

void
RecoveryOracle::auditLogs(const ckpt::CheckpointManager &manager)
{
    auto check = [&](const ckpt::IntervalLog &log,
                     std::uint64_t ckpt_index) {
        std::string why = log.auditIndex();
        if (why.empty())
            return;
        Divergence d;
        d.kind = DivergenceKind::kLogIndex;
        d.recovery = recoveriesChecked_;
        d.ckptIndex = ckpt_index;
        d.interval = log.interval();
        d.detail = why;
        addDivergence(std::move(d));
    };
    check(manager.openLog(), manager.retained().empty()
                                 ? 0
                                 : manager.retained().back().index);
    for (const ckpt::Checkpoint &ckpt : manager.retained())
        check(ckpt.log, ckpt.index);
}

bool
RecoveryOracle::goldenMatches(std::string *why) const
{
    // A digest match is trusted (DESIGN.md §12.1); a mismatch is
    // re-derived on a real replay, which names what differs.
    const sim::StepDigest &want_digest = golden_[goldenAt_];
    if (system_.archDigest() == want_digest.arch &&
        system_.memory().digest() == want_digest.memory)
        return true;
    sim::MulticoreSystem replay(system_.config(), system_.program());
    for (std::size_t step = 0; step < goldenAt_; ++step)
        replay.step();

    for (CoreId c = 0; c < system_.numCores(); ++c) {
        cpu::ArchState want = replay.core(c).saveArch();
        cpu::ArchState have = system_.core(c).saveArch();
        if (!(want == have)) {
            *why = csprintf("core %u: %s", c,
                            archDifference(want, have).c_str());
            return false;
        }
    }
    const Addr addr = replay.memory().firstDifference(system_.memory());
    if (addr != kInvalidAddr) {
        *why = csprintf(
            "memory addr %llu: golden %llu != actual %llu",
            static_cast<unsigned long long>(addr),
            static_cast<unsigned long long>(replay.memory().read(addr)),
            static_cast<unsigned long long>(system_.memory().read(addr)));
        return false;
    }
    return true;
}

bool
RecoveryOracle::compareAgainstGolden(std::uint64_t target)
{
    // Progress rewinds on rollback; the walk only steps forward, so a
    // rewound target means walking from the start. Stepping past the
    // last boundary (the halted machine) stays on it.
    if (golden_[goldenAt_].progress > target)
        goldenAt_ = 0;
    const std::size_t last = golden_.size() - 1;
    auto step = [&] {
        if (goldenAt_ < last)
            ++goldenAt_;
    };
    auto progress = [&] { return golden_[goldenAt_].progress; };

    auto fail = [&](const std::string &why) {
        Divergence d;
        d.kind = DivergenceKind::kGoldenState;
        d.recovery = recoveriesChecked_;
        d.detail = why;
        addDivergence(std::move(d));
        return false;
    };

    while (progress() < target) {
        step();
        if (goldenAt_ == last && progress() < target) {
            return fail(csprintf(
                "golden replay stopped at progress %llu before "
                "reaching %llu",
                static_cast<unsigned long long>(progress()),
                static_cast<unsigned long long>(target)));
        }
    }
    if (progress() > target) {
        return fail(csprintf(
            "golden replay overshot to progress %llu (target %llu): "
            "step boundaries diverged",
            static_cast<unsigned long long>(progress()),
            static_cast<unsigned long long>(target)));
    }

    // A barrier release retires no instructions, so several successive
    // step boundaries can share one progress value; walk the track
    // through them before declaring a mismatch.
    std::string why;
    unsigned extra = 0;
    while (!goldenMatches(&why)) {
        if (goldenAt_ == last || extra++ > system_.numCores() + 2)
            return fail(why);
        step();
        if (progress() != target)
            return fail(why);
        why.clear();
    }
    stats_.add("oracle.goldenCompares");
    return true;
}

void
RecoveryOracle::onInitialCheckpoint(const ckpt::CheckpointManager &manager)
{
    ACR_ASSERT(!manager.retained().empty(),
               "oracle attached before initialCheckpoint");
    Snapshot snap = captureSnapshot(manager.retained().front());
    snap.onGoldenPath = true;
    snapshots_[snap.index] = std::move(snap);
}

void
RecoveryOracle::onEstablish(const ckpt::CheckpointManager &manager,
                            unsigned latent_errors)
{
    ACR_ASSERT(!manager.retained().empty(), "establish retained nothing");
    stats_.add("oracle.establishmentsChecked");

    const ckpt::Checkpoint &ckpt = manager.retained().back();
    Snapshot snap = captureSnapshot(ckpt);

    // Fig. 2's hazard: a checkpoint established while a corruption is
    // latent holds corrupted state — it is off the fault-free path, as
    // is everything downstream of restoring an off-path checkpoint.
    snap.onGoldenPath = lastRestoredOnPath_ && latent_errors == 0;
    if (snap.onGoldenPath &&
        !compareAgainstGolden(ckpt.progressAt))
        snap.onGoldenPath = false;

    if (manager.retained().size() > 2) {
        Divergence d;
        d.kind = DivergenceKind::kRetention;
        d.ckptIndex = ckpt.index;
        d.detail = csprintf("%zu checkpoints retained (limit 2)",
                            manager.retained().size());
        addDivergence(std::move(d));
    }
    auditLogs(manager);

    snapshots_[snap.index] = std::move(snap);
    for (auto it = snapshots_.begin(); it != snapshots_.end();) {
        if (isRetained(manager, it->first))
            ++it;
        else
            it = snapshots_.erase(it);
    }
}

void
RecoveryOracle::beforeRecovery(const ckpt::CheckpointManager &manager)
{
    capturedLogs_.clear();
    auto capture = [&](const ckpt::IntervalLog &log) {
        CapturedLog captured;
        captured.interval = log.interval();
        for (const ckpt::LogRecord &record : log.records()) {
            CapturedRecord r;
            r.addr = record.addr;
            r.oldValue = record.oldValue;
            r.writer = record.writer;
            r.amnesic = record.isAmnesic();
            if (record.isAmnesic())
                r.sliceId = record.amnesic->slice();
            captured.records.push_back(r);
        }
        capturedLogs_.push_back(std::move(captured));
    };
    // Same order recovery applies them: open log, then retained
    // newest -> oldest.
    capture(manager.openLog());
    for (auto it = manager.retained().rbegin();
         it != manager.retained().rend(); ++it)
        capture(it->log);
    prePages_ = system_.memory().save();
    captureValid_ = true;
}

void
RecoveryOracle::afterRecovery(const ckpt::CheckpointManager &manager,
                              const ckpt::RecoveryOutcome &outcome,
                              Cycle error_time)
{
    ++recoveriesChecked_;
    stats_.add("oracle.recoveriesChecked");
    const cache::SharerMask affected = outcome.affected;

    if (outcome.unrecoverable) {
        // There is no restored state to validate, but the verdict
        // itself must be consistent: either the integrity layer
        // detected damage (a corrupt stored read, or a torn
        // establishment refused at target selection), or no retained
        // checkpoint was a safe target — each was established after
        // the error or is no longer valid for an affected core.
        stats_.add("oracle.unrecoverableChecked");
        const bool damaged = stats_.get("ckpt.corruptReads") != 0 ||
                             stats_.get("ckpt.tornRefusals") != 0;
        const ckpt::Checkpoint *safe = nullptr;
        for (const ckpt::Checkpoint &ckpt : manager.retained()) {
            if (ckpt.establishedAt < error_time &&
                (ckpt.validFor & affected) == affected)
                safe = &ckpt;
        }
        if (!damaged && safe != nullptr) {
            Divergence d;
            d.kind = DivergenceKind::kEscalation;
            d.recovery = recoveriesChecked_;
            d.ckptIndex = safe->index;
            d.detail = "unrecoverable outcome without any detected "
                       "corrupt read or torn establishment, although "
                       "this checkpoint was a safe target";
            addDivergence(std::move(d));
        }
        captureValid_ = false;
        lastRestoredOnPath_ = false;
        return;
    }

    if (outcome.replicaSwitches > 0 || outcome.retargets > 0) {
        // An escalated recovery gets the full differential validation
        // below (the log-derived memory expectation and arch snapshots
        // are target-relative, so the bit-exactness check holds for
        // whichever rung finally served) plus rung-consistency checks.
        stats_.add("oracle.escalatedChecked");
        if (manager.store().tornEstablishment(outcome.targetIndex)) {
            Divergence d;
            d.kind = DivergenceKind::kEscalation;
            d.recovery = recoveriesChecked_;
            d.ckptIndex = outcome.targetIndex;
            d.detail = "rollback committed to a checkpoint whose "
                       "establishment tore";
            addDivergence(std::move(d));
        }
        if (outcome.replicaSwitches > 0 &&
            manager.store().backend() != ckpt::Backend::kReplicated) {
            Divergence d;
            d.kind = DivergenceKind::kEscalation;
            d.recovery = recoveriesChecked_;
            d.ckptIndex = outcome.targetIndex;
            d.detail = csprintf(
                "%u replica switch(es) on single-copy backend %s",
                outcome.replicaSwitches, manager.store().name());
            addDivergence(std::move(d));
        }
    }

    const Snapshot *snap = nullptr;
    auto found = snapshots_.find(outcome.targetIndex);
    if (found != snapshots_.end()) {
        snap = &found->second;
    } else {
        Divergence d;
        d.kind = DivergenceKind::kRetention;
        d.recovery = recoveriesChecked_;
        d.ckptIndex = outcome.targetIndex;
        d.detail = "rolled back to a checkpoint the oracle never saw "
                   "retained";
        addDivergence(std::move(d));
    }
    if (!isRetained(manager, outcome.targetIndex)) {
        Divergence d;
        d.kind = DivergenceKind::kRetention;
        d.recovery = recoveriesChecked_;
        d.ckptIndex = outcome.targetIndex;
        d.detail = "rollback target no longer retained";
        addDivergence(std::move(d));
    }

    // --- Memory: every word either keeps its pre-recovery value or is
    // restored to the oldest applied undo record's old value. ---
    if (captureValid_) {
        // Later captures are older intervals, so applying them in
        // capture order leaves each word at its oldest applied record,
        // matching recovery's apply order.
        auto applied = [&](const CapturedLog &log,
                           const CapturedRecord &record) {
            return log.interval > outcome.targetIndex &&
                   inMask(affected, record.writer);
        };
        mem::MainMemory expected;
        expected.restore(prePages_);
        for (const CapturedLog &log : capturedLogs_) {
            for (const CapturedRecord &record : log.records) {
                if (applied(log, record))
                    expected.write(record.addr, record.oldValue);
            }
        }

        for (Addr addr : expected.differences(system_.memory(), 4)) {
            Divergence d;
            d.kind = DivergenceKind::kMemoryWord;
            d.recovery = recoveriesChecked_;
            d.ckptIndex = outcome.targetIndex;
            d.addr = addr;
            d.expected = expected.read(addr);
            d.actual = system_.memory().read(addr);
            d.detail = "word outside the rollback's undo set changed";
            // The originating record: the last applied one naming addr.
            for (auto log = capturedLogs_.rbegin();
                 log != capturedLogs_.rend() && d.writer == kInvalidCore;
                 ++log) {
                for (const CapturedRecord &record : log->records) {
                    if (record.addr != addr || !applied(*log, record))
                        continue;
                    d.interval = log->interval;
                    d.writer = record.writer;
                    d.sliceId = record.sliceId;
                    d.detail = record.amnesic
                                   ? "restored by amnesic record"
                                   : "restored by stored record";
                    break;
                }
            }
            addDivergence(std::move(d));
        }
    }
    captureValid_ = false;
    prePages_ = {};

    // --- Architectural state of every rolled-back core. ---
    if (snap != nullptr) {
        for (CoreId c = 0; c < system_.numCores(); ++c) {
            if (!inMask(affected, c))
                continue;
            cpu::ArchState want = snap->arch[c];
            cpu::ArchState have = system_.core(c).saveArch();
            if (want == have)
                continue;
            Divergence d;
            d.kind = DivergenceKind::kArchState;
            d.recovery = recoveriesChecked_;
            d.ckptIndex = outcome.targetIndex;
            d.core = c;
            d.expected = want.pc;
            d.actual = have.pc;
            d.detail = archDifference(want, have);
            addDivergence(std::move(d));
        }
    }

    // --- validFor masks and writer purging on newer checkpoints. ---
    for (const ckpt::Checkpoint &ckpt : manager.retained()) {
        if (ckpt.index <= outcome.targetIndex)
            continue;
        if ((ckpt.validFor & affected) != 0) {
            Divergence d;
            d.kind = DivergenceKind::kValidFor;
            d.recovery = recoveriesChecked_;
            d.ckptIndex = ckpt.index;
            d.detail = csprintf(
                "checkpoint newer than the rollback target still "
                "valid for mask %llx of rolled-back cores",
                static_cast<unsigned long long>(ckpt.validFor &
                                                affected));
            addDivergence(std::move(d));
        }
        for (const ckpt::LogRecord &record : ckpt.log.records()) {
            if (!inMask(affected, record.writer))
                continue;
            Divergence d;
            d.kind = DivergenceKind::kLogIndex;
            d.recovery = recoveriesChecked_;
            d.ckptIndex = ckpt.index;
            d.interval = ckpt.log.interval();
            d.addr = record.addr;
            d.writer = record.writer;
            d.detail = "undone writer's record survived in a newer "
                       "checkpoint log";
            addDivergence(std::move(d));
            break;
        }
    }
    for (const ckpt::LogRecord &record : manager.openLog().records()) {
        if (!inMask(affected, record.writer))
            continue;
        Divergence d;
        d.kind = DivergenceKind::kLogIndex;
        d.recovery = recoveriesChecked_;
        d.interval = manager.openLog().interval();
        d.addr = record.addr;
        d.writer = record.writer;
        d.detail = "undone writer's record survived in the open log";
        addDivergence(std::move(d));
        break;
    }

    auditLogs(manager);

    // --- Pinning: slice instances of still-live records must be
    // alive; records removed for rolled-back writers are exempt. ---
    for (auto &[index, s] : snapshots_) {
        if (index > outcome.targetIndex)
            s.removedWriters |= affected;
    }
    for (const auto &[index, s] : snapshots_) {
        if (!isRetained(manager, index))
            continue;
        for (const Pin &pin : s.pins) {
            if (inMask(s.removedWriters, pin.writer))
                continue;
            if (!pin.instance.expired())
                continue;
            Divergence d;
            d.kind = DivergenceKind::kPinning;
            d.recovery = recoveriesChecked_;
            d.ckptIndex = index;
            d.addr = pin.addr;
            d.writer = pin.writer;
            d.sliceId = pin.sliceId;
            d.detail = "pinned slice instance died while its "
                       "checkpoint log is retained";
            addDivergence(std::move(d));
        }
    }

    // A partial (group-local) rollback leaves the survivors ahead of
    // the restored cores; the machine is then permanently off any
    // single golden-replay point.
    lastRestoredOnPath_ = snap != nullptr && snap->onGoldenPath &&
                          affected == system_.allCoresMask();
}

void
RecoveryOracle::onFinalImage(const std::map<Addr, Word> &expected)
{
    // Digests first; the images only name the first differing word.
    if (system_.memory().digest() == golden_.back().memory)
        return;
    Addr addr;
    Word want, have;
    if (imagesEqual(expected, system_.memory().image(), &addr, &want,
                    &have))
        return;
    Divergence d;
    d.kind = DivergenceKind::kFinalImage;
    d.addr = addr;
    d.expected = want;
    d.actual = have;
    d.detail = "final memory image diverged from the error-free "
               "reference";
    addDivergence(std::move(d));
}

void
RecoveryOracle::onRecomputeMismatch(const ckpt::LogRecord &record,
                                    Word replayed, std::uint64_t interval,
                                    std::uint64_t recovery)
{
    Divergence d;
    d.kind = DivergenceKind::kRecompute;
    d.recovery = recovery;
    d.interval = interval;
    d.addr = record.addr;
    d.expected = record.oldValue;
    d.actual = replayed;
    d.writer = record.writer;
    if (record.isAmnesic())
        d.sliceId = record.amnesic->slice();
    d.detail = "slice replay disagreed with the record's shadow value";
    addDivergence(std::move(d));
}

std::string
RecoveryOracle::report(std::size_t limit) const
{
    std::string out;
    std::size_t shown = 0;
    for (const Divergence &d : divergences_) {
        if (shown++ >= limit)
            break;
        if (!out.empty())
            out += '\n';
        out += d.describe();
    }
    std::uint64_t total =
        static_cast<std::uint64_t>(stats_.get("oracle.divergences"));
    if (total > shown)
        out += csprintf("\n[oracle] ... and %llu more divergence(s)",
                        static_cast<unsigned long long>(total - shown));
    return out;
}

} // namespace acr::validate
