/**
 * @file
 * Differential lock for the core's dispatch loop (DESIGN.md §13.3).
 *
 * ReferenceCore keeps the one-instruction-at-a-time loop that straight-
 * line ALU runs, bulk issue-slot charging, derived counters and watched
 * pcs replaced: every instruction bumps its own issue slot and counters
 * and is offered to the observer. It runs beside a real Core over its
 * own MainMemory and CacheSystem, on the 8 kernels built for one thread
 * and on the 24 random kernel shapes, at quanta of 1, 3 and 1000
 * instructions, with corruptions scheduled at seeded quantum boundaries.
 * After every quantum the two must agree on every saved field and
 * counter, the L1I fetch tally, the memory digest and the events
 * reported at a seeded subset of watched pcs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "mem/main_memory.hh"
#include "random_kernel.hh"
#include "workloads/workload.hh"

namespace acr::cpu
{
namespace
{

/**
 * The dispatch loop as it stood before ALU runs: run() below is that
 * loop verbatim, over this class's own copy of the core state.
 */
class ReferenceCore
{
  public:
    ReferenceCore(CoreId id, const isa::Program &program,
                  mem::MainMemory &memory, cache::CacheSystem &caches,
                  const CoreTimingConfig &timing)
        : id_(id), program_(program), memory_(memory), caches_(caches),
          timing_(timing)
    {
    }

    CoreState run(std::uint64_t max_instrs, ExecObserver *observer);

    CoreState state() const { return state_; }
    Cycle cycle() const { return cycle_; }

    void
    releaseBarrier(Cycle resume_cycle)
    {
        ACR_ASSERT(state_ == CoreState::kAtBarrier, "not at a barrier");
        ACR_ASSERT(resume_cycle >= cycle_, "clock would move backwards");
        pc_ += 1;
        state_ = CoreState::kRunning;
        ++barrierEpoch_;
        cycle_ = resume_cycle;
    }

    void scheduleCorruption(Word mask) { corruptMask_ = mask; }

    Core::Snap
    save() const
    {
        return {pc_,          regs_,           state_,
                cycle_,       issueBuf_,       barrierEpoch_,
                corruptMask_, corruptionEvent_, counters_};
    }

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
};

CoreState
ReferenceCore::run(std::uint64_t max_instrs, ExecObserver *observer)
{
    if (state_ != CoreState::kRunning)
        return state_;

    const Cycle l1d_latency = caches_.config().l1d.latency;

    std::size_t pc = pc_;
    Cycle cycle = cycle_;
    unsigned issue_buf = issueBuf_;
    CoreCounters cnt = counters_;
    std::uint64_t fetched = 0;

    auto commit = [&] {
        pc_ = pc;
        cycle_ = cycle;
        issueBuf_ = issue_buf;
        counters_ = cnt;
        caches_.addFetches(id_, fetched);
    };

    for (std::uint64_t n = 0; n < max_instrs; ++n) {
        ACR_ASSERT(pc < program_.size(), "core %u ran off program end",
                   id_);
        const isa::Instruction &inst = program_.at(pc);
        ++fetched;

        InstrEvent event;
        event.core = id_;
        event.pc = pc;
        event.inst = &inst;

        // Issue-slot accounting shared by all instruction classes.
        if (++issue_buf >= timing_.issueWidth) {
            issue_buf = 0;
            ++cycle;
        }

        std::size_t next_pc = pc + 1;

        if (isSliceable(inst.op)) {
            Word a = regs_[inst.rs1];
            Word b = regs_[inst.rs2];
            Word value = isa::evalArith(inst.op, a, b, inst.imm, id_);
            if (corruptMask_) {
                value ^= *corruptMask_;
                corruptMask_.reset();
                corruptionEvent_ = cycle;
            }
            regs_[inst.rd] = value;
            regs_[0] = 0;
            event.result = value;
            ++cnt.aluOps;
        } else if (isa::isLoad(inst.op)) {
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
            regs_[0] = 0;
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
            ++cnt.instrs;
            commit();
            if (observer)
                observer->onInstr(event);
            return state_;
        } else if (isa::isHalt(inst.op)) {
            state_ = CoreState::kHalted;
            ++cnt.instrs;
            commit();
            if (observer)
                observer->onInstr(event);
            return state_;
        } else {
            panic("core %u: unknown opcode at pc %zu", id_, pc);
        }

        pc = next_pc;
        ++cnt.instrs;
        if (observer)
            observer->onInstr(event);
    }
    commit();
    return state_;
}

/** The observable part of one InstrEvent. */
struct Record
{
    CoreId core = 0;
    std::size_t pc = 0;
    isa::Opcode op = isa::Opcode::kHalt;
    Word result = 0;
    Addr addr = 0;
    Word oldValue = 0;

    bool operator==(const Record &other) const = default;
};

Record
recordOf(const InstrEvent &event)
{
    return {event.core, event.pc,   event.inst->op,
            event.result, event.addr, event.oldValue};
}

/** The real core's observer: watches @p mask, records what it gets. */
class Recorder final : public ExecObserver
{
  public:
    explicit Recorder(std::vector<std::uint8_t> mask)
    {
        watchOnly(std::move(mask));
    }

    void onInstr(const InstrEvent &event) override
    {
        events.push_back(recordOf(event));
    }

    std::vector<Record> events;
};

/** The reference core's observer: it is offered every instruction and
 *  keeps those at the pcs set in @p mask. */
class FilteringRecorder final : public ExecObserver
{
  public:
    explicit FilteringRecorder(std::vector<std::uint8_t> mask)
        : mask_(std::move(mask))
    {
    }

    void
    onInstr(const InstrEvent &event) override
    {
        if (mask_[event.pc])
            events.push_back(recordOf(event));
    }

    std::vector<Record> events;

  private:
    std::vector<std::uint8_t> mask_;
};

/** The first field in which @p a and @p b differ, or "". */
std::string
firstDifference(const Core::Snap &a, const Core::Snap &b)
{
    if (a.pc != b.pc)
        return csprintf("pc %zu vs %zu", a.pc, b.pc);
    for (unsigned r = 0; r < isa::kNumRegs; ++r) {
        if (a.regs[r] != b.regs[r])
            return csprintf("r%u %llu vs %llu", r,
                            static_cast<unsigned long long>(a.regs[r]),
                            static_cast<unsigned long long>(b.regs[r]));
    }
    auto num = [](std::uint64_t value) {
        return static_cast<unsigned long long>(value);
    };
    if (a.state != b.state)
        return csprintf("state %d vs %d", static_cast<int>(a.state),
                        static_cast<int>(b.state));
    if (a.cycle != b.cycle)
        return csprintf("cycle %llu vs %llu", num(a.cycle), num(b.cycle));
    if (a.issueBuf != b.issueBuf)
        return csprintf("issue slot %u vs %u", a.issueBuf, b.issueBuf);
    if (a.barrierEpoch != b.barrierEpoch)
        return csprintf("barrier epoch %llu vs %llu", num(a.barrierEpoch),
                        num(b.barrierEpoch));
    if (a.corruptMask != b.corruptMask)
        return csprintf("pending corruption %d vs %d",
                        a.corruptMask.has_value(),
                        b.corruptMask.has_value());
    if (a.corruptionEvent != b.corruptionEvent)
        return csprintf("corruption cycle %llu vs %llu",
                        num(a.corruptionEvent.value_or(~Cycle{0})),
                        num(b.corruptionEvent.value_or(~Cycle{0})));
    const CoreCounters &x = a.counters;
    const CoreCounters &y = b.counters;
    const std::pair<const char *, std::array<std::uint64_t, 2>> counters[] =
        {{"instrs", {x.instrs, y.instrs}},
         {"aluOps", {x.aluOps, y.aluOps}},
         {"loads", {x.loads, y.loads}},
         {"stores", {x.stores, y.stores}},
         {"branches", {x.branches, y.branches}},
         {"barriers", {x.barriers, y.barriers}},
         {"memStallCycles", {x.memStallCycles, y.memStallCycles}}};
    for (const auto &[name, pair] : counters) {
        if (pair[0] != pair[1])
            return csprintf("%s %llu vs %llu", name, num(pair[0]),
                            num(pair[1]));
    }
    return "";
}

/** One core with its own memory and caches, loaded with @p program. */
template <class C>
struct Rig
{
    explicit Rig(const isa::Program &program)
        : caches(1, cache::HierarchyConfig{}, mem::DramConfig{}),
          core(0, program, memory, caches, CoreTimingConfig{})
    {
        for (const auto &[addr, value] : program.data().words)
            memory.write(addr, value);
    }

    mem::MainMemory memory;
    cache::CacheSystem caches;
    C core;
};

/** What one lockstep run covered, for the coverage checks. */
struct Coverage
{
    std::uint64_t quanta = 0;
    std::uint64_t events = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t applied = 0;
    std::uint64_t barriers = 0;
    std::uint64_t halts = 0;
};

/** Instructions @p program retires on one core with no corruption. */
std::uint64_t
cleanLength(const isa::Program &program)
{
    Rig<Core> rig(program);
    while (true) {
        const CoreState state = rig.core.run(1u << 20, nullptr);
        if (state == CoreState::kHalted)
            return rig.core.instrsRetired();
        if (state == CoreState::kAtBarrier)
            rig.core.releaseBarrier(rig.core.cycle());
    }
}

/**
 * Run @p program on a real Core and a ReferenceCore in lockstep,
 * @p quantum instructions at a time. Four corruptions are scheduled on
 * both at the first quantum boundaries past seeded progress points; a
 * corrupted run that loops is cut at a quarter past its clean length.
 * @return "" when the two agreed after every quantum.
 */
std::string
lockstep(const isa::Program &program, std::uint64_t quantum,
         std::uint64_t seed, Coverage &coverage)
{
    Rng rng(seed);
    const std::uint64_t clean = cleanLength(program);
    std::vector<std::uint64_t> triggers(4);
    for (std::uint64_t &trigger : triggers)
        trigger = rng.below(clean);
    std::sort(triggers.begin(), triggers.end());
    std::vector<std::uint8_t> mask(program.size());
    for (std::uint8_t &watched : mask)
        watched = rng.chance(0.5) ? 1 : 0;

    Rig<Core> real(program);
    Rig<ReferenceCore> ref(program);
    Recorder real_events(mask);
    FilteringRecorder ref_events(mask);
    std::size_t next_trigger = 0;
    std::uint64_t stores = 0;

    for (std::uint64_t q = 0;; ++q) {
        const std::string at = csprintf("%s, quantum %llu of %llu instrs",
                                        program.name().c_str(),
                                        static_cast<unsigned long long>(q),
                                        static_cast<unsigned long long>(
                                            quantum));
        const std::uint64_t retired = real.core.instrsRetired();
        if (next_trigger < triggers.size() &&
            retired >= triggers[next_trigger]) {
            const Word flip = Word{1} << rng.below(64);
            real.core.scheduleCorruption(flip);
            ref.core.scheduleCorruption(flip);
            ++next_trigger;
            ++coverage.corruptions;
        }
        const bool pending = real.core.corruptionPending();

        const CoreState state = real.core.run(quantum, &real_events);
        const CoreState ref_state = ref.core.run(quantum, &ref_events);
        ++coverage.quanta;

        const Core::Snap snap = real.core.save();
        const Core::Snap ref_snap = ref.core.save();
        if (std::string diff = firstDifference(snap, ref_snap);
            !diff.empty())
            return at + ": " + diff;
        if (state != ref_state)
            return at + ": returned state differs";
        if (real.caches.fetches(0) != ref.caches.fetches(0))
            return at + ": L1I fetches differ";
        if (real_events.events != ref_events.events) {
            return csprintf("%s: %zu events reported, %zu expected",
                            at.c_str(), real_events.events.size(),
                            ref_events.events.size()) +
                   (real_events.events.size() ==
                            ref_events.events.size()
                        ? " (contents differ)"
                        : "");
        }
        coverage.events += real_events.events.size();
        real_events.events.clear();
        ref_events.events.clear();
        // Only a store writes memory, and the store counts agree, so a
        // quantum that retired none left both memories as they were.
        if (snap.counters.stores != stores) {
            stores = snap.counters.stores;
            if (real.memory.digest() != ref.memory.digest())
                return at + ": memory digests differ";
        }
        if (pending && !real.core.corruptionPending())
            ++coverage.applied;

        if (state == CoreState::kHalted) {
            ++coverage.halts;
            return "";
        }
        if (state == CoreState::kAtBarrier) {
            const Cycle resume =
                std::max(real.core.cycle(), ref.core.cycle()) + 7;
            real.core.releaseBarrier(resume);
            ref.core.releaseBarrier(resume);
            ++coverage.barriers;
        }
        if (snap.counters.instrs > clean + clean / 4)
            return "";
    }
}

/** Lockstep @p program at quanta 1, 3 and 1000. */
Coverage
expectLockstep(const isa::Program &program, std::uint64_t seed)
{
    Coverage coverage;
    for (std::uint64_t quantum : {1u, 3u, 1000u})
        EXPECT_EQ(lockstep(program, quantum, seed + quantum, coverage), "");
    return coverage;
}

class CoreDifferential : public testing::TestWithParam<std::string>
{
};

TEST_P(CoreDifferential, AluRunsMatchTheReferenceLoop)
{
    workloads::WorkloadParams params;
    params.threads = 1;
    const isa::Program program =
        workloads::makeWorkload(GetParam())->build(params);
    const Coverage coverage = expectLockstep(program, 31);
    EXPECT_GT(coverage.events, 0u);
    EXPECT_GT(coverage.applied, 0u);
    EXPECT_GT(coverage.barriers, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, CoreDifferential,
    testing::ValuesIn(workloads::allWorkloadNames()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(CoreDifferential, RandomKernelSpecs)
{
    // property_test's RandomizedAcrRuns seeds; one core runs each
    // program, whatever thread count it was built for.
    Coverage coverage;
    for (std::uint64_t seed = 100; seed < 124; ++seed) {
        Rng rng(seed);
        const testsupport::RandomKernel kernel =
            testsupport::randomKernel(rng);
        const Coverage one = expectLockstep(kernel.program, seed);
        coverage.events += one.events;
        coverage.applied += one.applied;
        coverage.halts += one.halts;
    }
    EXPECT_GT(coverage.events, 0u);
    EXPECT_GT(coverage.applied, 0u);
    EXPECT_GT(coverage.halts, 0u);
}

} // namespace
} // namespace acr::cpu
