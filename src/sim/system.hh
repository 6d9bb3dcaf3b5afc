/**
 * @file
 * MulticoreSystem: N in-order cores executing one SPMD program over a
 * shared MainMemory, with a shared CacheSystem for timing. Scheduling is
 * deterministic round-robin by instruction quanta; barriers rendezvous
 * all non-halted cores. The BER runtime (harness) drives the system in
 * steps and injects checkpoints/recoveries between them.
 */

#ifndef ACR_SIM_SYSTEM_HH
#define ACR_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "isa/program.hh"
#include "mem/main_memory.hh"
#include "sim/machine_config.hh"

namespace acr::sim
{

/** Whole-machine execution state. */
enum class SystemState
{
    kRunning,
    kAllHalted,
    /**
     * Wedged: some cores halted below the barrier epoch others wait at.
     * For a correct program this only happens when an injected error
     * corrupted control flow — the BER runtime treats it as an error
     * manifestation (watchdog detection); runToCompletion treats it as
     * a program bug and fatal()s.
     */
    kBlocked,
};

/**
 * The machine at one step boundary, as digests: what the slice pass
 * records for every boundary of its error-free run (the golden track)
 * and the recovery oracle compares live establishments against
 * (DESIGN.md §12.1).
 */
struct StepDigest
{
    std::uint64_t progress = 0;
    std::uint64_t arch = 0;    ///< MulticoreSystem::archDigest()
    std::uint64_t memory = 0;  ///< MainMemory::digest()

    bool operator==(const StepDigest &other) const = default;
};

/** The simulated machine. */
class MulticoreSystem
{
  public:
    /**
     * Build the machine and load @p program's data segment into memory.
     * The program is copied (the system outlives caller temporaries)
     * and must validate.
     */
    MulticoreSystem(const MachineConfig &config, isa::Program program);

    /** Attach the per-instruction observer (may be null). */
    void setObserver(cpu::ExecObserver *observer)
    {
        observer_ = observer;
    }

    /**
     * One scheduling round: every runnable core executes one quantum;
     * barrier release happens when all non-halted cores have arrived.
     * fatal()s on barrier deadlock (some cores halted, others waiting).
     */
    SystemState step() { return stepWith(observer_); }

    /**
     * step() with a statically-typed observer: the quantum loop and
     * the per-instruction observer call compile together (see
     * Core::run's template overload), removing the virtual hop per
     * retired instruction. The barrier/release epilogue is shared
     * non-template code, so both paths have identical semantics.
     */
    template <class Obs>
    SystemState
    stepWith(Obs *observer)
    {
        bool any_ran = false;
        for (auto &core : cores_) {
            if (core->state() == cpu::CoreState::kRunning) {
                core->run(config_.quantumInstrs, observer);
                any_ran = true;
            }
        }
        return finishStep(any_ran);
    }

    /** Run to completion (NoCkpt executions and tests). */
    void runToCompletion();

    /** runToCompletion() over the devirtualized stepWith() path,
     *  calling @p on_step() at every step boundary. */
    template <class Obs, class OnStep>
    void
    runToCompletionWith(Obs *observer, OnStep &&on_step)
    {
        while (true) {
            SystemState state = stepWith(observer);
            on_step();
            if (state == SystemState::kAllHalted)
                return;
            if (state == SystemState::kBlocked)
                blockedFatal();
        }
    }

    bool allHalted() const;

    /** Sum of per-core retired instruction counts — the monotone
     *  "program progress" metric that drives checkpoint/error schedules
     *  and rewinds on rollback. */
    std::uint64_t progress() const;

    /** Largest local clock over all cores. */
    Cycle maxCycle() const;

    /** Largest local clock over the cores in @p mask. */
    Cycle maxCycleOf(cache::SharerMask mask) const;

    /**
     * Coordination: advance every core in @p mask to
     * max(their cycles) + syncLatency(#mask) + @p extra.
     * @return the aligned cycle.
     */
    Cycle syncCores(cache::SharerMask mask, Cycle extra = 0);

    /** Order-dependent digest of every core's ArchState. */
    std::uint64_t archDigest() const;

    /** Mask containing every core. */
    cache::SharerMask allCoresMask() const;

    unsigned numCores() const { return config_.numCores; }
    const MachineConfig &config() const { return config_; }
    cpu::Core &core(CoreId id) { return *cores_[id]; }
    const cpu::Core &core(CoreId id) const { return *cores_[id]; }
    mem::MainMemory &memory() { return memory_; }
    const mem::MainMemory &memory() const { return memory_; }
    cache::CacheSystem &caches() { return caches_; }
    const cache::CacheSystem &caches() const { return caches_; }
    const isa::Program &program() const { return program_; }

    /** Aggregate core/cache/DRAM counters into @p stats. */
    void exportStats(StatSet &stats) const;

    /** Architectural + timing state of the whole machine, for the
     *  prefix-sharing snapshot (DESIGN.md §13). */
    struct Snapshot
    {
        std::vector<cpu::Core::Snap> cores;
        mem::MainMemory::Snap memory;
        cache::CacheSystem::Snap caches;
    };

    Snapshot save() const;

    /** Overwrite machine state with @p snap (same config/program). */
    void restore(const Snapshot &snap);

  private:
    /** Barrier-release epilogue shared by step()/stepWith(). */
    SystemState finishStep(bool any_ran);

    /** fatal() for a barrier deadlock in runToCompletion*(). */
    [[noreturn]] void blockedFatal() const;

    MachineConfig config_;
    /** Owned copy: the system (and its cores) must outlive any caller
     *  temporaries. */
    isa::Program program_;
    mem::MainMemory memory_;
    cache::CacheSystem caches_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    cpu::ExecObserver *observer_ = nullptr;
};

} // namespace acr::sim

#endif // ACR_SIM_SYSTEM_HH
