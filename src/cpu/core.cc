#include "cpu/core.hh"

#include <string>

#include "common/logging.hh"

namespace acr::cpu
{

using isa::Opcode;

Core::Core(CoreId id, const isa::Program &program, mem::MainMemory &memory,
           cache::CacheSystem &caches, const CoreTimingConfig &timing)
    : id_(id), program_(program), memory_(memory), caches_(caches),
      timing_(timing)
{
    ACR_ASSERT(timing_.issueWidth >= 1, "issue width must be >= 1");
    ACR_ASSERT(timing_.mlpFactor >= 1.0, "mlp factor must be >= 1");
    const std::string invalid = program_.validate();
    ACR_ASSERT(invalid.empty(), "core %u: program '%s' invalid: %s", id_,
               program_.name().c_str(), invalid.c_str());
    regs_.fill(0);

    const std::size_t size = program_.size();
    aluRun_.assign(size, 0);
    for (std::size_t pc = size; pc-- > 0;) {
        if (isa::isSliceable(program_.at(pc).op))
            aluRun_[pc] = aluRun_[pc + 1] + 1;
    }
    noPcs_.assign(size, 0);
    everyPc_.assign(size, 1);
}

const std::uint8_t *
Core::watchMask(const ExecObserver *observer) const
{
    if (!observer)
        return noPcs_.data();
    const std::vector<std::uint8_t> &mask = observer->watchedPcs();
    if (mask.empty())
        return everyPc_.data();
    ACR_ASSERT(mask.size() == program_.size(),
               "core %u: watch mask has %zu pcs, program %zu", id_,
               mask.size(), program_.size());
    return mask.data();
}

CoreState
Core::run(std::uint64_t max_instrs, ExecObserver *observer)
{
    // Explicit virtual-dispatch instantiation of the header template.
    return run<ExecObserver>(max_instrs, observer);
}

void
Core::releaseBarrier(Cycle resume_cycle)
{
    ACR_ASSERT(state_ == CoreState::kAtBarrier,
               "releaseBarrier on core %u not at a barrier", id_);
    ACR_ASSERT(isa::isBarrier(program_.at(pc_).op),
               "core %u barrier state desynced from pc", id_);
    pc_ += 1;
    state_ = CoreState::kRunning;
    ++barrierEpoch_;
    setCycle(resume_cycle);
}

void
Core::setCycle(Cycle cycle)
{
    ACR_ASSERT(cycle >= cycle_,
               "core %u clock would move backwards (%llu -> %llu)", id_,
               static_cast<unsigned long long>(cycle_),
               static_cast<unsigned long long>(cycle));
    cycle_ = cycle;
}

ArchState
Core::saveArch() const
{
    ArchState arch;
    arch.pc = pc_;
    arch.regs = regs_;
    arch.instrsRetired = counters_.instrs;
    arch.state = state_;
    arch.barrierEpoch = barrierEpoch_;
    return arch;
}

void
Core::restoreArch(const ArchState &arch)
{
    pc_ = arch.pc;
    regs_ = arch.regs;
    counters_.instrs = arch.instrsRetired;
    state_ = arch.state;
    barrierEpoch_ = arch.barrierEpoch;
    // A corruption scheduled but not yet applied dies with the rollback.
    corruptMask_.reset();
}

void
Core::scheduleCorruption(Word mask)
{
    ACR_ASSERT(mask != 0, "corruption mask must flip at least one bit");
    corruptMask_ = mask;
}

std::optional<Cycle>
Core::takeCorruptionEvent()
{
    auto event = corruptionEvent_;
    corruptionEvent_.reset();
    return event;
}

void
Core::exportStats(StatSet &stats, const std::string &prefix) const
{
    stats.add(prefix + ".instrs", static_cast<double>(counters_.instrs));
    stats.add(prefix + ".aluOps", static_cast<double>(counters_.aluOps));
    stats.add(prefix + ".loads", static_cast<double>(counters_.loads));
    stats.add(prefix + ".stores", static_cast<double>(counters_.stores));
    stats.add(prefix + ".branches",
              static_cast<double>(counters_.branches));
    stats.add(prefix + ".barriers",
              static_cast<double>(counters_.barriers));
    stats.add(prefix + ".memStallCycles",
              static_cast<double>(counters_.memStallCycles));
}

} // namespace acr::cpu
