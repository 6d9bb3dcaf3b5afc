#include "acr/acr_engine.hh"

#include "common/logging.hh"

namespace acr::amnesic
{

AcrEngine::AcrEngine(const AcrConfig &config, slice::SliceEngine &slicer,
                     StatSet &stats)
    : config_(config), slicer_(slicer), stats_(stats),
      operandBuf_(config.operandBufferWords),
      addrMap_(config.addrMapCapacity)
{
}

void
AcrEngine::onStoreRetired(const cpu::InstrEvent &event)
{
    ACR_ASSERT(isa::isStore(event.inst->op),
               "onStoreRetired with a non-store");
    const Addr addr = event.addr;

    if (!event.inst->sliceHint) {
        // No embedded Slice for this store: the value it just wrote is
        // not recomputable, so any previous association is stale.
        addrMap_.erase(addr);
        return;
    }

    const slice::BuiltSlice *built = slicer_.buildForStore(event);
    if (!built) {
        // The dynamic producer chain for this instance was inadmissible
        // (too long under this control flow, too many inputs).
        addrMap_.erase(addr);
        ++hot_.captureFailures;
        return;
    }

    slice::SliceId id = repo_.intern(built->slice);
    auto instance = slice::SliceInstance::create(
        id, built->inputs, operandBuf_);
    if (!instance) {
        // Operand buffer full: fall back to normal logging.
        addrMap_.erase(addr);
        ++hot_.operandBufferRejections;
        return;
    }

    // Capture cost: operand words written into the buffer plus the
    // ASSOC-ADDR's AddrMap write.
    hot_.operandBufferWords += instance->inputs().size();
    ++hot_.addrMapAccesses;

    if (!addrMap_.insert(addr, std::move(instance), currentInterval_)) {
        ++hot_.addrMapOverflows;
        addrMap_.erase(addr);
        return;
    }
    ++hot_.captures;
}

std::shared_ptr<slice::SliceInstance>
AcrEngine::currentValueSlice(Addr addr)
{
    // The checkpoint handler's AddrMap lookup (Fig. 4a).
    ++hot_.addrMapAccesses;
    return addrMap_.lookup(addr);
}

Word
AcrEngine::replay(const slice::SliceInstance &instance,
                  slice::ReplayCost *cost)
{
    return instance.replay(repo_, cost);
}

void
AcrEngine::onCheckpointEstablished(std::uint64_t interval)
{
    currentInterval_ = interval;
    // Optional age-based expiry (see AcrConfig::retentionIntervals);
    // instances pinned by retained logs live on through shared
    // ownership regardless.
    if (config_.retentionIntervals > 0 &&
        interval >= config_.retentionIntervals) {
        addrMap_.expireOlderThan(interval - config_.retentionIntervals);
    }
}

void
AcrEngine::onRollback(const std::vector<Addr> &restored)
{
    for (Addr addr : restored)
        addrMap_.erase(addr);
}

void
AcrEngine::exportStats()
{
    if (hot_.captures)
        stats_.add("acr.captures", static_cast<double>(hot_.captures));
    if (hot_.captureFailures)
        stats_.add("acr.captureFailures",
                   static_cast<double>(hot_.captureFailures));
    if (hot_.operandBufferRejections)
        stats_.add("acr.operandBufferRejections",
                   static_cast<double>(hot_.operandBufferRejections));
    if (hot_.operandBufferWords)
        stats_.add("acr.operandBufferWords",
                   static_cast<double>(hot_.operandBufferWords));
    if (hot_.addrMapAccesses)
        stats_.add("acr.addrMapAccesses",
                   static_cast<double>(hot_.addrMapAccesses));
    if (hot_.addrMapOverflows)
        stats_.add("acr.addrMapOverflows",
                   static_cast<double>(hot_.addrMapOverflows));
    hot_ = HotCounters{};

    stats_.set("acr.addrMapPeakEntries",
               static_cast<double>(addrMap_.peakSize()));
    stats_.set("acr.addrMapOverflowsTotal",
               static_cast<double>(addrMap_.overflows()));
    stats_.set("acr.operandBufferPeakWords",
               static_cast<double>(operandBuf_.peakWords()));
    stats_.set("acr.uniqueSlices",
               static_cast<double>(repo_.uniqueSlices()));
    stats_.set("acr.sliceInstrs",
               static_cast<double>(repo_.totalInstrs()));
}

AcrEngine::Snap
AcrEngine::save(
    const std::function<
        std::uint32_t(const std::shared_ptr<slice::SliceInstance> &)>
        &index_of) const
{
    Snap snap;
    snap.repo = repo_;
    snap.addrMap.reserve(addrMap_.size());
    addrMap_.forEach(
        [&](Addr addr,
            const std::shared_ptr<slice::SliceInstance> &instance,
            std::uint64_t interval) {
            snap.addrMap.push_back(
                Snap::MapEntry{addr, index_of(instance), interval});
        });
    snap.addrMapOverflows = addrMap_.overflows();
    snap.addrMapPeak = addrMap_.peakSize();
    snap.operandPeak = operandBuf_.peakWords();
    snap.operandRejections = operandBuf_.rejections();
    snap.currentInterval = currentInterval_;
    snap.hot = hot_;
    return snap;
}

std::vector<std::shared_ptr<slice::SliceInstance>>
AcrEngine::restore(const Snap &snap,
                   const std::vector<Snap::InstanceEntry> &entries)
{
    ACR_ASSERT(operandBuf_.liveWords() == 0 && addrMap_.size() == 0,
               "restore() requires a freshly constructed engine");
    repo_ = snap.repo;
    currentInterval_ = snap.currentInterval;
    hot_ = snap.hot;

    // Materialize each instance exactly once against *this* engine's
    // operand buffer; the donor run held them all live simultaneously,
    // so re-reserving the same words cannot overflow.
    std::vector<std::shared_ptr<slice::SliceInstance>> instances;
    instances.reserve(entries.size());
    for (const Snap::InstanceEntry &entry : entries) {
        auto instance = slice::SliceInstance::create(
            entry.slice, entry.inputs, operandBuf_);
        ACR_ASSERT(instance != nullptr,
                   "snapshot instance exceeds operand buffer");
        instances.push_back(std::move(instance));
    }
    operandBuf_.restoreCounters(snap.operandPeak, snap.operandRejections);

    for (const Snap::MapEntry &entry : snap.addrMap) {
        bool ok = addrMap_.insert(entry.addr, instances[entry.instance],
                                  entry.interval);
        ACR_ASSERT(ok, "snapshot AddrMap entry did not fit");
    }
    addrMap_.restoreCounters(snap.addrMapOverflows, snap.addrMapPeak);
    return instances;
}

} // namespace acr::amnesic
