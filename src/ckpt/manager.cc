#include "ckpt/manager.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "common/logging.hh"
#include "common/options.hh"

namespace acr::ckpt
{

namespace
{

unsigned
popcount(cache::SharerMask mask)
{
    return static_cast<unsigned>(std::popcount(mask));
}

bool
inMask(cache::SharerMask mask, CoreId core)
{
    return (mask >> core) & 1;
}

/** Recovery ordinal from an ACR_TEST_* variable (0 = unset / off). */
std::uint64_t
testHookOrdinal(const char *name)
{
    const char *text = std::getenv(name);
    if (text == nullptr || *text == '\0')
        return 0;
    unsigned long long value = 0;
    if (!parseStrictUint(text, value))
        fatal("%s='%s' is not an unsigned integer", name, text);
    return value;
}

} // namespace

CheckpointManager::CheckpointManager(const Config &config,
                                     sim::MulticoreSystem &system,
                                     RecomputeProvider *provider,
                                     RecoveryAuditor &auditor,
                                     StatSet &stats)
    : config_(config), system_(system), provider_(provider),
      auditor_(auditor), stats_(stats),
      store_(makeCheckpointStore(config.backend, system, stats,
                                 config.archBytesPerCore)),
      amnesicOk_(provider != nullptr && store_->supportsAmnesic())
{
    corruptRecoveryAt_ = testHookOrdinal("ACR_TEST_CORRUPT_RECOVERY");
    dropRecordAt_ = testHookOrdinal("ACR_TEST_DROP_LOG_RECORD");
    flipReplayAt_ = testHookOrdinal("ACR_TEST_FLIP_REPLAY");
}

void
CheckpointManager::initialCheckpoint()
{
    ACR_ASSERT(!initialized_, "initialCheckpoint called twice");
    initialized_ = true;

    Checkpoint ckpt;
    ckpt.index = 0;
    ckpt.establishedAt = 0;
    ckpt.progressAt = system_.progress();
    for (CoreId c = 0; c < system_.numCores(); ++c)
        ckpt.arch.push_back(system_.core(c).saveArch());
    ckpt.log = IntervalLog(0);
    ckpt.interactions.assign(system_.numCores(), 0);
    ckpt.validFor = ~cache::SharerMask{0};
    retained_.push_back(std::move(ckpt));
}

void
CheckpointManager::onStore(CoreId writer, Addr addr, Word old_value)
{
    if (openLog_.contains(addr))
        return;  // log bit set: only the first update per interval logs

    LogRecord record;
    record.addr = addr;
    record.oldValue = old_value;
    record.writer = writer;
    // A store that serves recovery from stored bytes alone must see
    // every old value, so amnesic omission is gated on the backend.
    if (amnesicOk_)
        record.amnesic = provider_->currentValueSlice(addr);
    openLog_.append(std::move(record));
}

void
CheckpointManager::establishGroup(cache::SharerMask group,
                                  IntervalSizes &sizes)
{
    auto &caches = system_.caches();

    // Coordinate the group, then flush its dirty lines.
    Cycle start = system_.syncCores(group);
    cache::FlushResult flush = caches.flushCores(group, start);
    sizes.flushedLines += flush.lines;

    // The store charges the medium's establishment traffic (stored
    // records + the group cores' architectural state).
    Cycle done =
        store_->establishGroup(openLog_, group, start, flush.done);

    // The whole group stalls until establishment completes.
    for (CoreId c = 0; c < system_.numCores(); ++c) {
        if (inMask(group, c))
            system_.core(c).setCycle(done);
    }
    stats_.add("ckpt.establishStallCycles",
               static_cast<double>((done - start) * popcount(group)));
}

void
CheckpointManager::establish()
{
    ACR_ASSERT(initialized_, "establish before initialCheckpoint");
    ++established_;

    IntervalSizes sizes;
    sizes.interval = openLog_.interval();
    sizes.records = openLog_.totalRecords();
    sizes.amnesicRecords = openLog_.amnesicRecords();
    store_->accountFootprint(openLog_, system_.numCores(), sizes);

    auto &directory = system_.caches().directory();
    std::vector<cache::SharerMask> adjacency =
        directory.interactionMatrix();

    std::vector<cache::SharerMask> groups;
    if (config_.mode == Coordination::kGlobal)
        groups.push_back(system_.allCoresMask());
    else
        groups = cache::Directory::groupsOf(adjacency);
    stats_.add("ckpt.coordinationGroups",
               static_cast<double>(groups.size()));

    for (cache::SharerMask group : groups)
        establishGroup(group, sizes);

    Checkpoint ckpt;
    ckpt.index = openLog_.interval();
    ckpt.establishedAt = system_.maxCycle();
    ckpt.progressAt = system_.progress();
    for (CoreId c = 0; c < system_.numCores(); ++c)
        ckpt.arch.push_back(system_.core(c).saveArch());
    ckpt.interactions = std::move(adjacency);
    ckpt.validFor = ~cache::SharerMask{0};
    std::uint64_t next_interval = openLog_.interval() + 1;
    ckpt.log = std::move(openLog_);
    // The medium now holds this checkpoint's bytes: checksum them and
    // land any storage faults due at this ordinal (inert when no
    // injector is armed).
    store_->onEstablished(ckpt);
    retained_.push_back(std::move(ckpt));

    // Two-checkpoint retention (Sec. II-A): dropping an old checkpoint
    // releases its log and thereby unpins its slice instances; the
    // store gets to reclaim whatever it held for it. The retired log's
    // stamp pages and record buffer become the next open interval's —
    // steady-state appends then allocate and re-zero nothing.
    IntervalLog recycled;
    bool have_recycled = false;
    while (retained_.size() > 2) {
        store_->onCheckpointRetired(retained_.front());
        recycled = std::move(retained_.front().log);
        have_recycled = true;
        retained_.pop_front();
    }

    if (have_recycled) {
        recycled.recycle(next_interval);
        openLog_ = std::move(recycled);
    } else {
        openLog_ = IntervalLog(next_interval);
    }
    directory.clearInteractions();
    if (provider_)
        provider_->onCheckpointEstablished(next_interval);

    history_.push_back(sizes);
    stats_.add("ckpt.establishments");
    stats_.add("ckpt.flushedLines",
               static_cast<double>(sizes.flushedLines));
    stats_.add("ckpt.records", static_cast<double>(sizes.records));
    stats_.add("ckpt.amnesicRecords",
               static_cast<double>(sizes.amnesicRecords));
    stats_.add("ckpt.loggedBytes", static_cast<double>(sizes.loggedBytes));
    stats_.add("ckpt.omittedBytes",
               static_cast<double>(sizes.omittedBytes));
    stats_.add("ckpt.archBytes", static_cast<double>(sizes.archBytes));
}

bool
CheckpointManager::applyLog(const IntervalLog &log,
                            cache::SharerMask mask, Cycle issue_at,
                            ApplyState &state)
{
    // Affected cores share the recomputation work (Slices execute on
    // the cores before the register files are restored, Sec. II-B).
    std::vector<CoreId> workers;
    for (CoreId c = 0; c < system_.numCores(); ++c) {
        if (inMask(mask, c))
            workers.push_back(c);
    }
    ACR_ASSERT(!workers.empty(), "applyLog with empty core mask");

    for (const LogRecord &record : log.records()) {
        if (!inMask(mask, record.writer))
            continue;

        if (record.isAmnesic()) {
            // Amnesic records were never stored on the medium, so they
            // have no storage-fault cross-section: the replay below
            // runs entirely from working state.
            ACR_ASSERT(provider_,
                       "amnesic record without a recompute provider");
            slice::ReplayCost cost;
            Word value = provider_->replay(*record.amnesic, &cost);
            if (flipReplayAt_ != 0 &&
                flipReplayAt_ == recoveryOrdinal_) {
                // Oracle fixture: pretend the Slice replay miscomputed
                // the first amnesic word of this recovery.
                value ^= 1;
                flipReplayAt_ = 0;
            }
            if (value != record.oldValue) {
                auditor_.onRecomputeMismatch(record, value,
                                             log.interval(),
                                             recoveryOrdinal_);
                value = record.oldValue;  // heal from the shadow
            }
            system_.memory().write(record.addr, value);

            // Least-loaded affected core executes this Slice.
            CoreId worker = workers[0];
            for (CoreId c : workers) {
                if (state.replayCycles[c] < state.replayCycles[worker])
                    worker = c;
            }
            state.replayCycles[worker] += cost.aluOps;

            state.dramDone =
                std::max(state.dramDone,
                         store_->writeRecomputed(record, issue_at));
            state.replayAluOps += cost.aluOps;
            state.operandReads += cost.operandReads;
            ++state.recomputedWords;
        } else {
            MediumRead read = store_->restoreWordChecked(
                record, log.interval(), issue_at, 0);
            Cycle done = read.done;
            if (read.corrupt) {
                // First escalation rung: retry every alternate copy
                // (only kReplicated has any). Detection traffic is
                // charged per attempt.
                bool healed = false;
                for (unsigned r = 1; r < store_->replicaCount(); ++r) {
                    MediumRead retry = store_->restoreWordChecked(
                        record, log.interval(), issue_at, r);
                    done = std::max(done, retry.done);
                    if (!retry.corrupt) {
                        healed = true;
                        ++state.replicaSwitches;
                        stats_.add("rec.replicaSwitches");
                        break;
                    }
                }
                if (!healed) {
                    // Terminal: undo logs compose by prefix — every
                    // older target applies a superset of records, so
                    // no retarget can route around this one.
                    state.dead = true;
                    state.deadDetail = csprintf(
                        "stored log record for addr %llu (interval "
                        "%llu) unreadable on every copy",
                        static_cast<unsigned long long>(record.addr),
                        static_cast<unsigned long long>(
                            log.interval()));
                    state.dramDone = std::max(state.dramDone, done);
                    return false;
                }
            }
            // The medium's rot never reaches working memory: a record
            // is either served verified (possibly from an alternate
            // replica) or the rollback dies above.
            system_.memory().write(record.addr, record.oldValue);
            state.dramDone = std::max(state.dramDone, done);
            ++state.restoredWords;
        }
        state.restored.push_back(record.addr);
    }
    return true;
}

void
CheckpointManager::addWordCounts(const ApplyState &state)
{
    // A name appears only once some word has touched it.
    if (state.recomputedWords > 0) {
        stats_.add("acr.replayAluOps",
                   static_cast<double>(state.replayAluOps));
        stats_.add("acr.operandBufferWords",
                   static_cast<double>(state.operandReads));
        stats_.add("rec.recomputedWords",
                   static_cast<double>(state.recomputedWords));
    }
    if (state.restoredWords > 0)
        stats_.add("rec.restoredWords",
                   static_cast<double>(state.restoredWords));
}

RecoveryOutcome
CheckpointManager::recover(CoreId failing, Cycle error_time,
                           Cycle detection_time)
{
    ACR_ASSERT(initialized_, "recover before initialCheckpoint");
    ACR_ASSERT(!retained_.empty(), "no checkpoints retained");
    ++recoveryOrdinal_;

    // Determine the rollback scope.
    cache::SharerMask affected;
    if (config_.mode == Coordination::kGlobal) {
        affected = system_.allCoresMask();
    } else {
        // Conservative closure: union of the open interval's interaction
        // matrix with those of every retained checkpoint interval.
        std::vector<cache::SharerMask> adjacency =
            system_.caches().directory().interactionMatrix();
        for (const Checkpoint &ckpt : retained_) {
            for (std::size_t c = 0;
                 c < ckpt.interactions.size() && c < adjacency.size();
                 ++c) {
                adjacency[c] |= ckpt.interactions[c];
            }
        }
        affected = 0;
        for (cache::SharerMask group :
             cache::Directory::groupsOf(adjacency)) {
            if (inMask(group, failing)) {
                affected = group;
                break;
            }
        }
        ACR_ASSERT(affected != 0, "failing core not in any group");
    }

    // Coordinate the affected cores for recovery.
    Cycle start = system_.syncCores(affected);
    start = std::max(start, detection_time);

    ApplyState state;
    state.dramDone = start;
    state.replayCycles.assign(system_.numCores(), 0);
    unsigned retargets = 0;

    auto unrecoverable = [&](const std::string &detail) {
        // Every escalation rung failed (DESIGN.md §16). The machine
        // state is undefined; the driver must surface a structured
        // failure — never resume, never serve the half-rolled image.
        addWordCounts(state);
        stats_.add("rec.unrecoverable");
        RecoveryOutcome outcome;
        outcome.affected = affected;
        outcome.unrecoverable = true;
        outcome.failureDetail = detail;
        outcome.replicaSwitches = state.replicaSwitches;
        outcome.retargets = retargets;
        return outcome;
    };

    if (dropRecordAt_ != 0 && dropRecordAt_ == recoveryOrdinal_) {
        // Oracle fixture: lose one undo record of an affected writer
        // before the rollback applies it, as a buggy log would —
        // preferring one whose restore would actually change memory,
        // so the loss is observable in the recovered image.
        openLog_.dropOneRecord(affected, [this](Addr addr, Word old) {
            return system_.memory().read(addr) != old;
        });
        dropRecordAt_ = 0;
    }

    // Escalation ladder: each attempt picks a target, applies the undo
    // logs, and verifies the target's per-checkpoint data. Corrupt
    // per-checkpoint data (arch state) re-targets the older retained
    // checkpoint and restarts; dramDone/replayCycles carry across
    // attempts (the abandoned attempt's traffic really happened) while
    // restored is per-attempt (the final attempt's newest->oldest
    // superset application lands the correct image and supersedes it).
    const Checkpoint *target = nullptr;
    std::uint64_t below = ~std::uint64_t{0};
    for (;;) {
        // Pick the most recent safe checkpoint: established strictly
        // before the error occurred (Fig. 2: a checkpoint taken between
        // error occurrence and detection may hold corrupted state),
        // still valid for every affected core, not refused by this
        // ladder already, and with an intact establishment digest (a
        // torn group write poisons the whole checkpoint).
        target = nullptr;
        for (auto it = retained_.rbegin(); it != retained_.rend();
             ++it) {
            if (it->index >= below)
                continue;
            if (it->establishedAt < error_time &&
                (it->validFor & affected) == affected &&
                store_->establishmentIntact(*it)) {
                target = &*it;
                break;
            }
        }
        if (target == nullptr) {
            // Say why each retained checkpoint was refused, in the
            // order of the test above (pure queries: the integrity
            // checks were already charged).
            std::string detail = csprintf(
                "no intact rollback target for the affected cores "
                "(mask %#llx):",
                static_cast<unsigned long long>(affected));
            const char *sep = " ";
            for (const Checkpoint &ckpt : retained_) {
                const char *why =
                    ckpt.index >= below ? "arch state unreadable"
                    : ckpt.establishedAt >= error_time
                        ? "established after the error"
                    : (ckpt.validFor & affected) != affected
                        ? "not valid for these cores"
                        : "torn";
                detail += csprintf("%sckpt %llu %s", sep,
                                   static_cast<unsigned long long>(
                                       ckpt.index),
                                   why);
                sep = ", ";
            }
            return unrecoverable(detail);
        }

        // Apply undo logs newest -> oldest; older records overwrite
        // newer ones, landing memory on the target checkpoint's state.
        state.restored.clear();
        bool applied = applyLog(openLog_, affected, start, state);
        if (applied) {
            for (auto it = retained_.rbegin(); it != retained_.rend();
                 ++it) {
                if (it->index <= target->index)
                    break;
                if (!applyLog(it->log, affected, start, state)) {
                    applied = false;
                    break;
                }
            }
        }
        if (!applied)
            return unrecoverable(state.deadDetail);

        // Verify the target's architectural state is serveable before
        // committing to it (the actual register restore below is free
        // of further faults — the reads were just charged + checked).
        bool arch_ok = true;
        for (CoreId c = 0; c < system_.numCores() && arch_ok; ++c) {
            if (!inMask(affected, c))
                continue;
            bool clean = false;
            for (unsigned r = 0; r < store_->replicaCount(); ++r) {
                MediumRead read =
                    store_->readArchStateChecked(*target, c, start, r);
                state.dramDone = std::max(state.dramDone, read.done);
                if (!read.corrupt) {
                    if (r > 0) {
                        ++state.replicaSwitches;
                        stats_.add("rec.replicaSwitches");
                    }
                    clean = true;
                    break;
                }
            }
            arch_ok = clean;
        }
        if (!arch_ok) {
            // Second rung: fall back to the older retained checkpoint
            // (wider recompute window, charged honestly by carrying
            // the accumulated traffic into the next attempt).
            ++retargets;
            stats_.add("rec.retargets");
            below = target->index;
            continue;
        }
        break;
    }

    if (corruptRecoveryAt_ != 0 &&
        corruptRecoveryAt_ == recoveryOrdinal_ &&
        !state.restored.empty()) {
        // Oracle fixture: flip the low bit of the first word this
        // rollback restored, simulating a recovery that rebuilt the
        // wrong memory image.
        Addr addr = state.restored.front();
        system_.memory().write(addr, system_.memory().read(addr) ^ 1);
        corruptRecoveryAt_ = 0;
    }

    Cycle replay_done = start;
    for (CoreId c = 0; c < system_.numCores(); ++c)
        replay_done =
            std::max(replay_done, start + state.replayCycles[c]);
    Cycle resume = std::max(state.dramDone, replay_done);

    for (CoreId c = 0; c < system_.numCores(); ++c) {
        if (!inMask(affected, c))
            continue;
        system_.core(c).restoreArch(target->arch[c]);
        system_.core(c).setCycle(resume);
    }
    system_.caches().invalidateCores(affected);

    // Updates undone for the affected cores disappear from every log
    // newer than the target; newer checkpoints are no longer valid
    // rollback targets for them (Fig. 2: the suspect checkpoint is
    // skipped and effectively discarded for this group).
    openLog_.removeWriters(affected);
    for (Checkpoint &ckpt : retained_) {
        if (ckpt.index > target->index) {
            ckpt.log.removeWriters(affected);
            ckpt.validFor &= ~affected;
        }
    }

    if (provider_)
        provider_->onRollback(state.restored);

    addWordCounts(state);
    stats_.add("rec.recoveries");
    stats_.add("rec.wasteCycles",
               static_cast<double>(detection_time -
                                   std::min(detection_time,
                                            target->establishedAt)));
    stats_.add("rec.rollbackCycles", static_cast<double>(resume - start));

    RecoveryOutcome outcome;
    outcome.affected = affected;
    outcome.targetIndex = target->index;
    outcome.resumeCycle = resume;
    outcome.progressAt = target->progressAt;
    outcome.targetEstablishedAt = target->establishedAt;
    outcome.replicaSwitches = state.replicaSwitches;
    outcome.retargets = retargets;
    return outcome;
}

void
CheckpointManager::restoreRetention(IntervalLog open_log,
                                    std::deque<Checkpoint> retained,
                                    std::uint64_t established,
                                    std::vector<IntervalSizes> history)
{
    ACR_ASSERT(initialized_, "restoreRetention before initialCheckpoint");
    openLog_ = std::move(open_log);
    retained_ = std::move(retained);
    established_ = established;
    history_ = std::move(history);
}

} // namespace acr::ckpt
