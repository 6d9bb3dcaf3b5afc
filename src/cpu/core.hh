/**
 * @file
 * In-order core model per Table I of the paper: 4-issue, 1.09 GHz, eight
 * outstanding loads/stores (approximated by an overlap divisor on miss
 * stalls), with functional execution against MainMemory and timing
 * against the CacheSystem.
 */

#ifndef ACR_CPU_CORE_HH
#define ACR_CPU_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/exec_observer.hh"
#include "isa/program.hh"
#include "mem/main_memory.hh"

namespace acr::cpu
{

/** Issue/stall parameters of the in-order pipeline. */
struct CoreTimingConfig
{
    /** Instructions issued per cycle (Table I: 4-issue). */
    unsigned issueWidth = 4;

    /**
     * Divisor applied to exposed miss latency, approximating the memory
     * level parallelism of 8 outstanding loads/stores on an in-order
     * core.
     */
    double mlpFactor = 2.0;

    /** Extra cycles charged for a taken branch. */
    Cycle takenBranchPenalty = 1;
};

/** Execution state of a core. */
enum class CoreState
{
    kRunning,
    kAtBarrier,
    kHalted,
};

/**
 * Architectural state captured by a checkpoint and restored by rollback.
 * instrsRetired is included so that "program progress" (which drives the
 * checkpoint and error schedules) rewinds together with the rollback.
 */
struct ArchState
{
    std::size_t pc = 0;
    std::array<Word, isa::kNumRegs> regs{};
    std::uint64_t instrsRetired = 0;
    CoreState state = CoreState::kRunning;

    /**
     * Barriers passed so far. Restored on rollback, which lets a
     * rolled-back group re-arrive at barriers whose other participants
     * are already past them: the system releases a waiter as soon as no
     * live core is at a smaller epoch (see MulticoreSystem::step).
     */
    std::uint64_t barrierEpoch = 0;

    bool operator==(const ArchState &other) const = default;
};

/** Plain-integer per-core event counters. */
struct CoreCounters
{
    std::uint64_t instrs = 0;
    std::uint64_t aluOps = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t barriers = 0;
    std::uint64_t memStallCycles = 0;
};

/** One simulated in-order core executing an SPMD program. */
class Core
{
  public:
    /** @p program must validate (isa::Program::validate) and must not
     *  change while the core exists. */
    Core(CoreId id, const isa::Program &program, mem::MainMemory &memory,
         cache::CacheSystem &caches, const CoreTimingConfig &timing);

    /**
     * Execute up to @p max_instrs instructions, stopping early at a
     * barrier or halt. @p observer (may be null) sees every retired
     * instruction at a pc it watches (ExecObserver::watchedPcs).
     *
     * The quantum loop is a template over the concrete observer type:
     * when the caller passes a final observer class (the experiment
     * driver, the slice pass), the per-instruction observer call is
     * devirtualized and inlined into the dispatch loop instead of
     * costing an indirect call per retired instruction. Passing a
     * plain ExecObserver* (or nullptr) selects the non-template
     * overload below and keeps the virtual behavior.
     * @return state after the quantum.
     */
    template <class Obs>
    CoreState run(std::uint64_t max_instrs, Obs *observer);

    /** Virtual-dispatch variant (tests, generic drivers). */
    CoreState run(std::uint64_t max_instrs, ExecObserver *observer);

    CoreId id() const { return id_; }
    CoreState state() const { return state_; }
    bool halted() const { return state_ == CoreState::kHalted; }
    bool atBarrier() const { return state_ == CoreState::kAtBarrier; }

    /**
     * Resume past the barrier the core is waiting at; the caller (the
     * system's barrier logic) supplies the synchronized resume cycle.
     */
    void releaseBarrier(Cycle resume_cycle);

    /** Local clock. */
    Cycle cycle() const { return cycle_; }

    /** Advance the local clock (coordination, checkpoint stalls). */
    void setCycle(Cycle cycle);

    std::uint64_t instrsRetired() const { return counters_.instrs; }

    /** Barriers passed (rolls back with architectural state). */
    std::uint64_t barrierEpoch() const { return barrierEpoch_; }

    /** Capture architectural state for a checkpoint. */
    ArchState saveArch() const;

    /** Restore architectural state from a checkpoint (rollback). */
    void restoreArch(const ArchState &arch);

    /** Read a register (tests, diagnostics). */
    Word reg(unsigned index) const { return regs_[index]; }

    /**
     * Fault injection: XOR @p mask into the destination of the next
     * register-writing instruction (fail-stop model: the wrong value
     * propagates through registers and stores until detection).
     */
    void scheduleCorruption(Word mask);

    /** True while a scheduled corruption has not yet been applied. */
    bool corruptionPending() const { return corruptMask_.has_value(); }

    /** Drop a scheduled-but-unapplied corruption (victim rescheduling). */
    void cancelCorruption() { corruptMask_.reset(); }

    /**
     * Cycle at which the most recent corruption was applied, if one was
     * applied since the last call (consumed on read).
     */
    std::optional<Cycle> takeCorruptionEvent();

    const CoreCounters &counters() const { return counters_; }

    /**
     * Full core state for the harness's error-free prefix-sharing
     * snapshot (DESIGN.md §13) — everything run() reads or writes, so
     * a restored core replays bit-identically to one that simulated
     * the prefix itself.
     */
    struct Snap
    {
        std::size_t pc = 0;
        std::array<Word, isa::kNumRegs> regs{};
        CoreState state = CoreState::kRunning;
        Cycle cycle = 0;
        unsigned issueBuf = 0;
        std::uint64_t barrierEpoch = 0;
        std::optional<Word> corruptMask;
        std::optional<Cycle> corruptionEvent;
        CoreCounters counters;
    };

    Snap
    save() const
    {
        return {pc_,         regs_,         state_,
                cycle_,      issueBuf_,     barrierEpoch_,
                corruptMask_, corruptionEvent_, counters_};
    }

    void
    restore(const Snap &snap)
    {
        pc_ = snap.pc;
        regs_ = snap.regs;
        state_ = snap.state;
        cycle_ = snap.cycle;
        issueBuf_ = snap.issueBuf;
        barrierEpoch_ = snap.barrierEpoch;
        corruptMask_ = snap.corruptMask;
        corruptionEvent_ = snap.corruptionEvent;
        counters_ = snap.counters;
    }

    /** Publish counters as "<prefix>.instrs" etc. */
    void exportStats(StatSet &stats, const std::string &prefix) const;

  private:
    CoreId id_;
    const isa::Program &program_;
    mem::MainMemory &memory_;
    cache::CacheSystem &caches_;
    CoreTimingConfig timing_;

    std::size_t pc_ = 0;
    std::array<Word, isa::kNumRegs> regs_{};
    CoreState state_ = CoreState::kRunning;
    Cycle cycle_ = 0;
    unsigned issueBuf_ = 0;
    std::uint64_t barrierEpoch_ = 0;

    std::optional<Word> corruptMask_;
    std::optional<Cycle> corruptionEvent_;

    CoreCounters counters_;

    /**
     * Per pc: the length of the straight-line ALU run starting there,
     * 0 at any other instruction. A run ends before the program's end,
     * because a valid program's last instruction is a kHalt or kJmp.
     */
    std::vector<std::uint32_t> aluRun_;

    /** Watch masks for a null observer (no pc) and for one that
     *  watches every pc. */
    std::vector<std::uint8_t> noPcs_;
    std::vector<std::uint8_t> everyPc_;

    /** The per-pc mask of the pcs at which run() reports to
     *  @p observer. */
    const std::uint8_t *watchMask(const ExecObserver *observer) const;
};

// The dispatch loop lives in the header so every observer type gets
// its own fully-inlined instantiation (see the run() doc comment).
//
// The hot core state (pc, cycle, issue slot, counters, retired tally)
// lives in locals for the whole quantum and is committed back to the
// members only at the exits. This is safe because no observer reads
// core state mid-quantum — the checkpoint substrate, the ACR engine,
// and the slicer all work from the InstrEvent alone — and it lets the
// compiler keep the loop state in registers across the inlined
// observer body instead of spilling every field each iteration.
//
// A straight-line run of ALU instructions executes in one tight loop
// and charges its issue slots in bulk; loads, stores, branches,
// barriers and halts take the per-instruction path, because their
// stalls and penalties read the cycle (DESIGN.md §13.3).
template <class Obs>
CoreState
Core::run(std::uint64_t max_instrs, Obs *observer)
{
    if (state_ != CoreState::kRunning)
        return state_;

    const Cycle l1d_latency = caches_.config().l1d.latency;
    const std::size_t size = program_.size();
    const isa::Instruction *const code = program_.code().data();
    const unsigned width = timing_.issueWidth;
    const std::uint32_t *const alu_run = aluRun_.data();
    const std::uint8_t *const watched = watchMask(observer);

    std::size_t pc = pc_;
    Cycle cycle = cycle_;
    unsigned issue_buf = issueBuf_;
    CoreCounters cnt = counters_;
    std::uint64_t retired = 0;

    // Instructions retired and L1I fetches both equal the quantum's
    // retired count.
    auto commit = [&] {
        pc_ = pc;
        cycle_ = cycle;
        issueBuf_ = issue_buf;
        cnt.instrs += retired;
        counters_ = cnt;
        caches_.addFetches(id_, retired);
    };

    auto alu = [&](std::size_t at, Word flip) {
        const isa::Instruction &inst = code[at];
        const Word value = isa::evalArith(inst.op, regs_[inst.rs1],
                                          regs_[inst.rs2], inst.imm, id_)
                           ^ flip;
        regs_[inst.rd] = value;  // rd != 0: validate() rejects r0 writes
        if (watched[at]) {
            InstrEvent event;
            event.core = id_;
            event.pc = at;
            event.inst = &inst;
            event.result = value;
            observer->onInstr(event);
        }
    };

    while (retired < max_instrs) {
        ACR_ASSERT(pc < size, "core %u ran off program end", id_);

        if (const std::uint32_t run_len = alu_run[pc]; run_len != 0) {
            // k ALU instructions from slot b advance the cycle by
            // (b + k) / width and leave slot (b + k) % width, exactly
            // as k single-slot increments do. The run stops at the
            // quantum limit, which sets how the cores interleave.
            const std::size_t k = static_cast<std::size_t>(
                std::min<std::uint64_t>(run_len, max_instrs - retired));
            const std::size_t end = pc + k;
            std::size_t at = pc;
            if (corruptMask_) {
                // The run's first instruction is the first register
                // write since the corruption was scheduled; it lands at
                // the cycle of its own slot. Corruptions are scheduled
                // only between quanta, so none is pending past it.
                const Word flip = *corruptMask_;
                corruptMask_.reset();
                corruptionEvent_ = cycle + (issue_buf + 1) / width;
                alu(at++, flip);
            }
            for (; at < end; ++at)
                alu(at, 0);
            const unsigned slots = issue_buf + static_cast<unsigned>(k);
            cycle += slots / width;
            issue_buf = slots % width;
            cnt.aluOps += k;
            retired += k;
            pc = end;
            continue;
        }

        const isa::Instruction &inst = code[pc];

        InstrEvent event;
        event.core = id_;
        event.pc = pc;
        event.inst = &inst;

        if (++issue_buf >= width) {
            issue_buf = 0;
            ++cycle;
        }

        std::size_t next_pc = pc + 1;

        if (isa::isLoad(inst.op)) {
            Addr addr = regs_[inst.rs1] + static_cast<Word>(inst.imm);
            Word value = memory_.read(addr);
            if (corruptMask_) {
                value ^= *corruptMask_;
                corruptMask_.reset();
                corruptionEvent_ = cycle;
            }
            Cycle done = caches_.dataAccess(id_, addr, false, cycle);
            Cycle latency = done - cycle;
            if (latency > l1d_latency) {
                Cycle stall = static_cast<Cycle>(
                    static_cast<double>(latency - l1d_latency) /
                    timing_.mlpFactor);
                cycle += stall;
                cnt.memStallCycles += stall;
            }
            regs_[inst.rd] = value;
            event.result = value;
            event.addr = addr;
            ++cnt.loads;
        } else if (isa::isStore(inst.op)) {
            Addr addr = regs_[inst.rs1] + static_cast<Word>(inst.imm);
            Word value = regs_[inst.rs2];
            Word old = memory_.write(addr, value);
            Cycle done = caches_.dataAccess(id_, addr, true, cycle);
            Cycle latency = done - cycle;
            if (latency > l1d_latency) {
                Cycle stall = static_cast<Cycle>(
                    static_cast<double>(latency - l1d_latency) /
                    timing_.mlpFactor);
                cycle += stall;
                cnt.memStallCycles += stall;
            }
            event.result = value;
            event.addr = addr;
            event.oldValue = old;
            ++cnt.stores;
        } else if (isa::isBranch(inst.op)) {
            bool taken = false;
            Word a = regs_[inst.rs1];
            Word b = regs_[inst.rs2];
            switch (inst.op) {
              case isa::Opcode::kBeq: taken = a == b; break;
              case isa::Opcode::kBne: taken = a != b; break;
              case isa::Opcode::kBltu: taken = a < b; break;
              case isa::Opcode::kBgeu: taken = a >= b; break;
              case isa::Opcode::kBlts:
                taken = static_cast<SWord>(a) < static_cast<SWord>(b);
                break;
              case isa::Opcode::kJmp: taken = true; break;
              default:
                panic("unhandled branch opcode");
            }
            if (taken) {
                next_pc = static_cast<std::size_t>(inst.imm);
                cycle += timing_.takenBranchPenalty;
            }
            ++cnt.branches;
        } else if (isa::isBarrier(inst.op)) {
            // Stay at this pc; the system releases us past it.
            state_ = CoreState::kAtBarrier;
            ++cnt.barriers;
            ++retired;
            commit();
            if (watched[event.pc])
                observer->onInstr(event);
            return state_;
        } else if (isa::isHalt(inst.op)) {
            state_ = CoreState::kHalted;
            ++retired;
            commit();
            if (watched[event.pc])
                observer->onInstr(event);
            return state_;
        } else {
            panic("core %u: unknown opcode at pc %zu", id_, pc);
        }

        pc = next_pc;
        ++retired;
        if (watched[event.pc])
            observer->onInstr(event);
    }
    commit();
    return state_;
}

} // namespace acr::cpu

#endif // ACR_CPU_CORE_HH
