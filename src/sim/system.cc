#include "sim/system.hh"

#include <algorithm>

#include "common/logging.hh"

namespace acr::sim
{

MulticoreSystem::MulticoreSystem(const MachineConfig &config,
                                 isa::Program program)
    : config_(config),
      program_(std::move(program)),
      caches_(config.numCores, config.hierarchy, config.dram)
{
    std::string err = program_.validate();
    if (!err.empty())
        fatal("program '%s' invalid: %s", program_.name().c_str(),
              err.c_str());

    for (const auto &[addr, value] : program_.data().words)
        memory_.write(addr, value);

    for (CoreId c = 0; c < config_.numCores; ++c) {
        cores_.push_back(std::make_unique<cpu::Core>(
            c, program_, memory_, caches_, config_.coreTiming));
    }
}

SystemState
MulticoreSystem::finishStep(bool any_ran)
{
    // Barrier release with epoch semantics: a waiter at epoch e may pass
    // once no live core is below epoch e and every live core still AT
    // epoch e has arrived at the barrier. This covers both the normal
    // rendezvous (all cores arrive at the same epoch) and re-execution
    // after a group-local rollback (partners are already past the
    // epoch, so the rolled-back group passes alone).
    unsigned waiting = 0;
    unsigned running = 0;
    std::uint64_t min_epoch = ~std::uint64_t{0};
    for (auto &core : cores_) {
        if (core->halted())
            continue;
        min_epoch = std::min(min_epoch, core->barrierEpoch());
        if (core->atBarrier())
            ++waiting;
        else
            ++running;
    }

    if (waiting > 0 && running == 0) {
        // Everyone alive is waiting. A core that halted below the epoch
        // the waiters are at can never join the rendezvous: the system
        // is wedged (possible only under corrupted control flow, or a
        // genuinely buggy program).
        for (auto &core : cores_) {
            if (core->halted() && core->barrierEpoch() <= min_epoch)
                return SystemState::kBlocked;
        }
        // Release the min-epoch cohort.
        cache::SharerMask cohort = 0;
        for (auto &core : cores_) {
            if (core->halted())
                continue;
            if (core->barrierEpoch() > min_epoch)
                continue;
            cohort |= cache::SharerMask{1} << core->id();
        }
        Cycle resume = syncCores(cohort);
        for (auto &core : cores_) {
            if (cohort & (cache::SharerMask{1} << core->id()))
                core->releaseBarrier(resume);
        }
        any_ran = true;
    }

    if (!any_ran && allHalted())
        return SystemState::kAllHalted;
    if (!any_ran && waiting == 0)
        panic("system wedged: nothing ran, nothing waiting");
    return allHalted() ? SystemState::kAllHalted : SystemState::kRunning;
}

void
MulticoreSystem::runToCompletion()
{
    runToCompletionWith(observer_, [] {});
}

void
MulticoreSystem::blockedFatal() const
{
    fatal("barrier deadlock in '%s': a core halted below the "
          "epoch its peers wait at",
          program_.name().c_str());
}

bool
MulticoreSystem::allHalted() const
{
    for (const auto &core : cores_) {
        if (!core->halted())
            return false;
    }
    return true;
}

std::uint64_t
MulticoreSystem::progress() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += core->instrsRetired();
    return total;
}

Cycle
MulticoreSystem::maxCycle() const
{
    Cycle max = 0;
    for (const auto &core : cores_)
        max = std::max(max, core->cycle());
    return max;
}

Cycle
MulticoreSystem::maxCycleOf(cache::SharerMask mask) const
{
    Cycle max = 0;
    for (CoreId c = 0; c < numCores(); ++c) {
        if (mask & (cache::SharerMask{1} << c))
            max = std::max(max, cores_[c]->cycle());
    }
    return max;
}

Cycle
MulticoreSystem::syncCores(cache::SharerMask mask, Cycle extra)
{
    unsigned participants = 0;
    for (CoreId c = 0; c < numCores(); ++c) {
        if (mask & (cache::SharerMask{1} << c))
            ++participants;
    }
    Cycle aligned = maxCycleOf(mask) + config_.syncLatency(participants)
                    + extra;
    for (CoreId c = 0; c < numCores(); ++c) {
        if (mask & (cache::SharerMask{1} << c))
            cores_[c]->setCycle(aligned);
    }
    return aligned;
}

std::uint64_t
MulticoreSystem::archDigest() const
{
    std::uint64_t h = 0;
    auto add = [&h](std::uint64_t value) {
        h = mix64(h + value + 0x9e3779b97f4a7c15ULL);
    };
    for (const auto &core : cores_) {
        const cpu::ArchState arch = core->saveArch();
        add(arch.pc);
        for (Word reg : arch.regs)
            add(reg);
        add(arch.instrsRetired);
        add(static_cast<std::uint64_t>(arch.state));
        add(arch.barrierEpoch);
    }
    return h;
}

cache::SharerMask
MulticoreSystem::allCoresMask() const
{
    if (numCores() >= 64)
        return ~cache::SharerMask{0};
    return (cache::SharerMask{1} << numCores()) - 1;
}

void
MulticoreSystem::exportStats(StatSet &stats) const
{
    cpu::CoreCounters total;
    for (const auto &core : cores_) {
        const cpu::CoreCounters &c = core->counters();
        total.instrs += c.instrs;
        total.aluOps += c.aluOps;
        total.loads += c.loads;
        total.stores += c.stores;
        total.branches += c.branches;
        total.barriers += c.barriers;
        total.memStallCycles += c.memStallCycles;
    }
    stats.add("cores.instrs", static_cast<double>(total.instrs));
    stats.add("cores.aluOps", static_cast<double>(total.aluOps));
    stats.add("cores.loads", static_cast<double>(total.loads));
    stats.add("cores.stores", static_cast<double>(total.stores));
    stats.add("cores.branches", static_cast<double>(total.branches));
    stats.add("cores.barriers", static_cast<double>(total.barriers));
    stats.add("cores.memStallCycles",
              static_cast<double>(total.memStallCycles));
    stats.set("sim.maxCycle", static_cast<double>(maxCycle()));
    caches_.exportStats(stats);
}

MulticoreSystem::Snapshot
MulticoreSystem::save() const
{
    Snapshot snap;
    snap.cores.reserve(cores_.size());
    for (const auto &core : cores_)
        snap.cores.push_back(core->save());
    snap.memory = memory_.save();
    snap.caches = caches_.save();
    return snap;
}

void
MulticoreSystem::restore(const Snapshot &snap)
{
    ACR_ASSERT(snap.cores.size() == cores_.size(),
               "snapshot core count mismatch");
    for (std::size_t i = 0; i < cores_.size(); ++i)
        cores_[i]->restore(snap.cores[i]);
    memory_.restore(snap.memory);
    caches_.restore(snap.caches);
}

} // namespace acr::sim
