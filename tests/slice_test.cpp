/**
 * @file
 * Tests for the recomputation substrate: static slice representation,
 * repository dedup, instance/operand-buffer accounting, the dynamic
 * backward slicer, and the property that replaying a captured Slice
 * reproduces the stored value bit-for-bit for randomized programs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "isa/builder.hh"
#include "mem/main_memory.hh"
#include "slice/engine.hh"
#include "slice/instance.hh"
#include "slice/policy.hh"
#include "slice/repository.hh"

namespace acr::slice
{
namespace
{

using isa::Opcode;

// ---------------------------------------------------------------------
// Static slices and the repository
// ---------------------------------------------------------------------

StaticSlice
addChain()
{
    // v = (in0 + 5) * in1
    StaticSlice s;
    s.code.push_back({Opcode::kAddi, 5, inputSrc(0), kNoSrc});
    s.code.push_back({Opcode::kMul, 0, 0, inputSrc(1)});
    s.numInputs = 2;
    return s;
}

TEST(StaticSlice, SourceEncodingRoundTrips)
{
    EXPECT_TRUE(isInputSrc(inputSrc(0)));
    EXPECT_TRUE(isInputSrc(inputSrc(7)));
    EXPECT_FALSE(isInputSrc(0));
    EXPECT_FALSE(isInputSrc(kNoSrc));
    EXPECT_EQ(inputIndexOf(inputSrc(3)), 3u);
}

TEST(Repository, InternDeduplicatesIdenticalShapes)
{
    SliceRepository repo;
    SliceId a = repo.intern(addChain());
    SliceId b = repo.intern(addChain());
    EXPECT_EQ(a, b);
    EXPECT_EQ(repo.uniqueSlices(), 1u);
    EXPECT_EQ(repo.totalInstrs(), 2u);

    StaticSlice other = addChain();
    other.code[0].imm = 6;
    SliceId c = repo.intern(other);
    EXPECT_NE(a, c);
    EXPECT_EQ(repo.uniqueSlices(), 2u);
}

TEST(Repository, GetReturnsTheCanonicalSlice)
{
    SliceRepository repo;
    SliceId id = repo.intern(addChain());
    EXPECT_EQ(repo.get(id).code.size(), 2u);
    repo.clear();
    EXPECT_EQ(repo.uniqueSlices(), 0u);
}

// ---------------------------------------------------------------------
// Instances and operand-buffer accounting
// ---------------------------------------------------------------------

TEST(OperandBuffer, EnforcesCapacity)
{
    OperandBufferAccounting buf(4);
    EXPECT_TRUE(buf.tryReserve(3));
    EXPECT_FALSE(buf.tryReserve(2));
    EXPECT_EQ(buf.rejections(), 1u);
    EXPECT_TRUE(buf.tryReserve(1));
    buf.release(4);
    EXPECT_EQ(buf.liveWords(), 0u);
    EXPECT_EQ(buf.peakWords(), 4u);
}

TEST(Instance, LifetimeReturnsBufferSpace)
{
    SliceRepository repo;
    SliceId id = repo.intern(addChain());
    OperandBufferAccounting buf(8);
    {
        auto inst = SliceInstance::create(id, {2, 3}, buf);
        ASSERT_NE(inst, nullptr);
        EXPECT_EQ(buf.liveWords(), 2u);
    }
    EXPECT_EQ(buf.liveWords(), 0u);
}

TEST(Instance, CreateFailsWhenBufferFull)
{
    SliceRepository repo;
    SliceId id = repo.intern(addChain());
    OperandBufferAccounting buf(1);
    EXPECT_EQ(SliceInstance::create(id, {2, 3}, buf), nullptr);
    EXPECT_EQ(buf.liveWords(), 0u);
}

TEST(Instance, ReplayEvaluatesTheSlice)
{
    SliceRepository repo;
    SliceId id = repo.intern(addChain());
    OperandBufferAccounting buf(8);
    auto inst = SliceInstance::create(id, {10, 3}, buf);
    ReplayCost cost;
    EXPECT_EQ(inst->replay(repo, &cost), (10u + 5u) * 3u);
    EXPECT_EQ(cost.aluOps, 2u);
    EXPECT_EQ(cost.operandReads, 2u);
}

// ---------------------------------------------------------------------
// Selection policy
// ---------------------------------------------------------------------

TEST(Policy, GreedyThresholdCapsLength)
{
    SlicePolicyConfig policy;
    policy.lengthThreshold = 10;
    EXPECT_TRUE(policy.accepts(10, 2));
    EXPECT_FALSE(policy.accepts(11, 2));
    EXPECT_FALSE(policy.accepts(0, 1)) << "a pure copy is not a Slice";
    EXPECT_EQ(policy.buildCap(), 10u);
}

TEST(Policy, InputCapApplies)
{
    SlicePolicyConfig policy;
    policy.maxInputs = 4;
    EXPECT_FALSE(policy.accepts(3, 5));
}

TEST(Policy, CostModelAcceptsWhenRecomputeIsCheaper)
{
    SlicePolicyConfig policy;
    policy.policy = SelectionPolicy::kCostModel;
    // Long but cheap chains pass the cost model even beyond 10.
    EXPECT_TRUE(policy.accepts(40, 4));
    EXPECT_EQ(policy.buildCap(), policy.costModelMaxLen);
    // An absurdly expensive slice fails.
    policy.aluCost = 1e9;
    EXPECT_FALSE(policy.accepts(40, 4));
}

// ---------------------------------------------------------------------
// The dynamic slicer on real executions
// ---------------------------------------------------------------------

struct SliceRig
{
    explicit SliceRig(isa::Program prog,
                      const SlicePolicyConfig &policy = {})
        : program(std::move(prog)),
          caches(1, cache::HierarchyConfig{}, mem::DramConfig{}),
          core(0, program, memory, caches, cpu::CoreTimingConfig{}),
          engine(1, policy)
    {
        for (const auto &[addr, value] : program.data().words)
            memory.write(addr, value);
    }

    isa::Program program;  // owned: Core keeps a reference into it

    /** Run to halt, building a slice at each store. */
    std::vector<std::optional<BuiltSlice>>
    run()
    {
        struct Observer : cpu::ExecObserver
        {
            SliceRig *rig;
            std::vector<std::optional<BuiltSlice>> built;
            void
            onInstr(const cpu::InstrEvent &e) override
            {
                if (isa::isStore(e.inst->op)) {
                    const BuiltSlice *b = rig->engine.buildForStore(e);
                    built.push_back(b ? std::optional<BuiltSlice>(*b)
                                      : std::nullopt);
                    return;
                }
                rig->engine.observe(e);
            }
        } observer;
        observer.rig = this;
        core.run(1u << 22, &observer);
        return std::move(observer.built);
    }

    mem::MainMemory memory;
    cache::CacheSystem caches;
    cpu::Core core;
    SliceEngine engine;
};

TEST(Engine, ArithmeticChainYieldsExactLengthSlice)
{
    isa::ProgramBuilder b("chain");
    b.movi(1, 7);      // arith producer (part of the slice)
    b.addi(1, 1, 3);
    b.muli(1, 1, 5);
    b.movi(2, 100);
    b.store(2, 1);
    b.halt();
    SliceRig rig(b.build());
    auto built = rig.run();
    ASSERT_EQ(built.size(), 1u);
    ASSERT_TRUE(built[0].has_value());
    EXPECT_EQ(built[0]->slice.length(), 3u);  // movi, addi, muli
    EXPECT_EQ(built[0]->slice.numInputs, 0u);
    EXPECT_EQ(built[0]->value, (7u + 3u) * 5u);
}

TEST(Engine, LoadsBecomeCapturedInputs)
{
    isa::ProgramBuilder b("loads");
    b.data(50, 11);
    b.movi(1, 50);
    b.load(2, 1);     // leaf: captured value 11
    b.addi(2, 2, 1);  // slice instr
    b.store(1, 2, 1);
    b.halt();
    SliceRig rig(b.build());
    auto built = rig.run();
    ASSERT_TRUE(built.at(0).has_value());
    EXPECT_EQ(built[0]->slice.length(), 1u);
    ASSERT_EQ(built[0]->inputs.size(), 1u);
    EXPECT_EQ(built[0]->inputs[0], 11u);
    EXPECT_EQ(built[0]->value, 12u);
}

TEST(Engine, StoredLoadHasNoSlice)
{
    isa::ProgramBuilder b("copy");
    b.data(50, 11);
    b.movi(1, 50);
    b.load(2, 1);
    b.store(1, 2, 1);  // pure copy: backward slice contains the load
    b.halt();
    SliceRig rig(b.build());
    auto built = rig.run();
    EXPECT_FALSE(built.at(0).has_value());
}

TEST(Engine, TidIsCapturedNotReplayed)
{
    isa::ProgramBuilder b("tid");
    b.tid(1);
    b.addi(1, 1, 100);
    b.movi(2, 60);
    b.store(2, 1);
    b.halt();
    SliceRig rig(b.build());
    auto built = rig.run();
    ASSERT_TRUE(built.at(0).has_value());
    EXPECT_EQ(built[0]->slice.length(), 1u);
    ASSERT_EQ(built[0]->inputs.size(), 1u);
    EXPECT_EQ(built[0]->inputs[0], 0u) << "core 0's tid";
}

TEST(Engine, ThresholdRejectsLongChains)
{
    isa::ProgramBuilder b("long");
    b.movi(1, 1);
    for (int i = 0; i < 15; ++i)
        b.addi(1, 1, 1);
    b.movi(2, 70);
    b.store(2, 1);
    b.halt();
    SlicePolicyConfig strict;
    strict.lengthThreshold = 10;
    SliceRig rig(b.build(), strict);
    EXPECT_FALSE(rig.run().at(0).has_value());

    SlicePolicyConfig loose;
    loose.lengthThreshold = 20;
    SliceRig rig2(b.build(), loose);
    auto built = rig2.run();
    ASSERT_TRUE(built.at(0).has_value());
    EXPECT_EQ(built[0]->slice.length(), 16u);
}

TEST(Engine, SharedSubexpressionsCountOnce)
{
    // t = 3 + 4; v = t * t: the DAG has 3 arith nodes, not 4.
    isa::ProgramBuilder b("dag");
    b.movi(1, 3);
    b.addi(1, 1, 4);
    b.mul(2, 1, 1);
    b.movi(3, 80);
    b.store(3, 2);
    b.halt();
    SliceRig rig(b.build());
    auto built = rig.run();
    ASSERT_TRUE(built.at(0).has_value());
    EXPECT_EQ(built[0]->slice.length(), 3u);
}

TEST(Engine, SliceNeverContainsMemoryOrControlOps)
{
    isa::ProgramBuilder b("pure");
    b.data(90, 5);
    b.movi(1, 90);
    b.load(2, 1);
    b.addi(2, 2, 1);
    b.mul(2, 2, 2);
    b.store(1, 2, 1);
    b.halt();
    SliceRig rig(b.build());
    auto built = rig.run();
    ASSERT_TRUE(built.at(0).has_value());
    for (const SliceInstr &si : built[0]->slice.code)
        EXPECT_TRUE(isSliceable(si.op))
            << "slice contains " << opcodeName(si.op);
}

TEST(Engine, ResetCoreMakesRegistersOpaque)
{
    isa::ProgramBuilder b("reset");
    b.movi(1, 7);
    b.addi(1, 1, 1);
    b.movi(2, 95);
    b.store(2, 1);
    b.store(2, 1, 1);
    b.halt();
    SliceRig rig(b.build());

    struct Observer : cpu::ExecObserver
    {
        SliceRig *rig;
        int stores = 0;
        std::optional<BuiltSlice> first, second;
        void
        onInstr(const cpu::InstrEvent &e) override
        {
            if (isa::isStore(e.inst->op)) {
                const auto *built = rig->engine.buildForStore(e);
                if (stores++ == 0) {
                    if (built)
                        first = *built;
                    // Simulate a rollback between the stores.
                    std::array<Word, isa::kNumRegs> regs{};
                    for (unsigned r = 0; r < isa::kNumRegs; ++r)
                        regs[r] = rig->core.reg(r);
                    rig->engine.resetCore(0, regs);
                } else {
                    if (built)
                        second = *built;
                }
                return;
            }
            rig->engine.observe(e);
        }
    } observer;
    observer.rig = &rig;
    rig.core.run(1000, &observer);

    EXPECT_TRUE(observer.first.has_value());
    EXPECT_FALSE(observer.second.has_value())
        << "after reset the value's producer is opaque";
}

TEST(Engine, DeepChainsHoldNoNodes)
{
    // A value deeper than the build cap fits in no accepted Slice, so
    // it holds no node: a 1000-step self-dependent chain never keeps
    // more than the cap's arith nodes plus the leaf they start from.
    SlicePolicyConfig policy;
    SliceEngine engine(1, policy);
    isa::Instruction addi{Opcode::kAddi, 1, 1, 0, 1, false};
    cpu::InstrEvent event;
    event.core = 0;
    event.inst = &addi;
    for (int step = 0; step < 1000; ++step) {
        event.result += 1;
        engine.observe(event);
        ASSERT_LE(engine.liveNodes(), policy.lengthThreshold + 1u)
            << "step " << step;
    }
}

/** movi then addi steps up to @p length Slice instructions, stored. */
isa::Program
chainOf(unsigned length)
{
    isa::ProgramBuilder b("chain");
    b.movi(1, 1);
    for (unsigned i = 1; i < length; ++i)
        b.addi(1, 1, 1);
    b.movi(2, 70);
    b.store(2, 1);
    b.halt();
    return b.build();
}

TEST(Engine, ChainAtTheBuildCapIsAcceptedOneLongerIsNot)
{
    SlicePolicyConfig greedy5;
    greedy5.lengthThreshold = 5;
    SlicePolicyConfig greedy10;
    SlicePolicyConfig cost;
    cost.policy = SelectionPolicy::kCostModel;
    for (const SlicePolicyConfig &policy : {greedy5, greedy10, cost}) {
        const unsigned cap = policy.buildCap();
        auto at_cap = SliceRig(chainOf(cap), policy).run();
        ASSERT_TRUE(at_cap.at(0).has_value()) << "cap " << cap;
        EXPECT_EQ(at_cap[0]->slice.length(), cap);
        EXPECT_EQ(at_cap[0]->value, cap);
        EXPECT_FALSE(
            SliceRig(chainOf(cap + 1), policy).run().at(0).has_value())
            << "cap " << cap;
    }
}

TEST(Engine, ShallowWideDagIsStillRejectedByInstructionCount)
{
    // Depth 3 but seven distinct instructions: the depth cut keeps
    // every node, and the walk still counts each instruction.
    isa::ProgramBuilder b("wide");
    b.movi(1, 1);
    b.movi(2, 2);
    b.movi(3, 3);
    b.movi(4, 4);
    b.add(5, 1, 2);
    b.add(6, 3, 4);
    b.add(7, 5, 6);
    b.movi(8, 90);
    b.store(8, 7);
    b.halt();
    const isa::Program program = b.build();

    SlicePolicyConfig narrow;
    narrow.lengthThreshold = 5;
    EXPECT_FALSE(SliceRig(program, narrow).run().at(0).has_value());

    SlicePolicyConfig wide;
    wide.lengthThreshold = 7;
    auto built = SliceRig(program, wide).run();
    ASSERT_TRUE(built.at(0).has_value());
    EXPECT_EQ(built[0]->slice.length(), 7u);
    EXPECT_EQ(built[0]->value, 10u);
}

TEST(Engine, CollapsedChainFeedsAOneInstructionSlice)
{
    // movi plus kSizeCap addi steps: the last one's size exceeds the
    // cap and collapses the chain into an opaque leaf. One more addi
    // starts a 1-instruction Slice over that captured value.
    isa::ProgramBuilder b("collapse");
    b.movi(1, 1);
    for (unsigned i = 0; i <= SliceEngine::kSizeCap; ++i)
        b.addi(1, 1, 1);
    b.movi(2, 70);
    b.store(2, 1);
    b.halt();
    auto built = SliceRig(b.build()).run();
    ASSERT_TRUE(built.at(0).has_value());
    EXPECT_EQ(built[0]->slice.length(), 1u);
    ASSERT_EQ(built[0]->inputs.size(), 1u);
    EXPECT_EQ(built[0]->inputs[0], 1u + SliceEngine::kSizeCap);
    EXPECT_EQ(built[0]->value, 2u + SliceEngine::kSizeCap);
}

/**
 * Property: for random straight-line arithmetic programs, every built
 * slice replays to exactly the stored value.
 */
class SliceReplayProperty : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SliceReplayProperty, ReplayMatchesStoredValue)
{
    Rng rng(GetParam());
    isa::ProgramBuilder b("random");

    // Seed some registers and data.
    for (unsigned r = 1; r <= 8; ++r)
        b.movi(static_cast<isa::Reg>(r),
               static_cast<SWord>(rng.next() & 0xffff));
    for (Addr a = 0; a < 16; ++a)
        b.data(200 + a, rng.next());
    b.movi(20, 200);

    unsigned stores = 0;
    for (int i = 0; i < 200; ++i) {
        unsigned pick = static_cast<unsigned>(rng.below(10));
        isa::Reg rd = static_cast<isa::Reg>(1 + rng.below(8));
        isa::Reg rs1 = static_cast<isa::Reg>(1 + rng.below(8));
        isa::Reg rs2 = static_cast<isa::Reg>(1 + rng.below(8));
        switch (pick) {
          case 0: b.add(rd, rs1, rs2); break;
          case 1: b.sub(rd, rs1, rs2); break;
          case 2: b.mul(rd, rs1, rs2); break;
          case 3: b.xor_(rd, rs1, rs2); break;
          case 4: b.and_(rd, rs1, rs2); break;
          case 5: b.or_(rd, rs1, rs2); break;
          case 6:
            b.addi(rd, rs1, static_cast<SWord>(rng.below(1000)));
            break;
          case 7:
            b.shri(rd, rs1, static_cast<SWord>(rng.below(63)));
            break;
          case 8:
            b.load(rd, 20, static_cast<SWord>(rng.below(16)));
            break;
          default:
            b.store(20, rs2, static_cast<SWord>(16 + stores));
            ++stores;
            break;
        }
    }
    b.store(20, 1, 99);
    b.halt();

    SlicePolicyConfig policy;
    policy.lengthThreshold = 64;
    policy.maxInputs = 64;
    SliceRig rig(b.build(), policy);
    auto built = rig.run();

    unsigned replayed = 0;
    SliceRepository repo;
    OperandBufferAccounting buf(1u << 20);
    for (const auto &maybe : built) {
        if (!maybe)
            continue;
        SliceId id = repo.intern(maybe->slice);
        auto inst = SliceInstance::create(id, maybe->inputs, buf);
        ASSERT_NE(inst, nullptr);
        EXPECT_EQ(inst->replay(repo, nullptr), maybe->value);
        ++replayed;
    }
    EXPECT_GT(replayed, 0u) << "degenerate program: nothing sliceable";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceReplayProperty,
                         testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------
// Differential lock: the engine against a plain reference slicer
// ---------------------------------------------------------------------

/**
 * The slicer without layout tricks: a node for every arithmetic result
 * (none is ever freed), the engine's lazy-leaf sharing and over-size
 * collapse, and a recursive post-order walk that visits the rs2
 * producer before the rs1 producer, as the engine's stack does.
 */
class ReferenceSlicer
{
  public:
    ReferenceSlicer(unsigned num_cores, const SlicePolicyConfig &policy)
        : policy_(policy), regs_(num_cores)
    {
    }

    void
    observe(const cpu::InstrEvent &e)
    {
        const isa::Instruction &inst = *e.inst;
        auto &regs = regs_[e.core];
        if (isa::isLoad(inst.op) || inst.op == Opcode::kTid) {
            regs[inst.rd] = {kLeaf, e.result};
            return;
        }
        if (!isSliceable(inst.op))
            return;
        const bool use1 = isa::readsRs1(inst.op);
        const bool use2 = isa::readsRs2(inst.op);
        unsigned size = 1;
        if (use1)
            size += sizeOf(regs[inst.rs1]);
        if (use2)
            size += sizeOf(regs[inst.rs2]);
        if (size > SliceEngine::kSizeCap) {
            ++collapses;
            regs[inst.rd] = {kLeaf, e.result};
            return;
        }
        Node node{true, inst.op, inst.imm, e.result, size, 1, -1, -1};
        if (use1)
            node.in1 = link(regs[inst.rs1]);
        if (use2)
            node.in2 = link(regs[inst.rs2]);
        for (int in : {node.in1, node.in2})
            if (in >= 0)
                node.depth = std::max(node.depth, nodes_[in].depth + 1);
        nodes_.push_back(node);
        regs[inst.rd] = {static_cast<int>(nodes_.size()) - 1, e.result};
    }

    std::optional<BuiltSlice>
    build(const cpu::InstrEvent &e)
    {
        const int root = regs_[e.core][e.inst->rs2].node;
        if (root == kLeaf || !nodes_[root].arith)
            return std::nullopt;
        if (nodes_[root].depth > policy_.buildCap())
            ++deepRoots;
        BuiltSlice out;
        out.value = nodes_[root].value;
        std::map<int, std::int32_t> slot;
        if (!walk(root, out, slot))
            return std::nullopt;
        out.slice.numInputs = static_cast<std::uint32_t>(out.inputs.size());
        if (!policy_.accepts(out.slice.length(), out.inputs.size()))
            return std::nullopt;
        return out;
    }

    void
    resetCore(CoreId core, const std::array<Word, isa::kNumRegs> &regs)
    {
        for (unsigned r = 0; r < isa::kNumRegs; ++r)
            regs_[core][r] = {kLeaf, regs[r]};
    }

    /** Over-size collapses seen, and stores whose root is deeper than
     *  the build cap (stream coverage). */
    unsigned collapses = 0;
    unsigned deepRoots = 0;

  private:
    static constexpr int kLeaf = -1;  ///< lazy: the value sits in the slot

    struct Node
    {
        bool arith;
        Opcode op;
        SWord imm;
        Word value;
        unsigned size;   ///< engine's approximate size
        unsigned depth;  ///< longest arith path ending here
        int in1;
        int in2;
    };

    struct Slot
    {
        int node = kLeaf;
        Word value = 0;
    };

    unsigned
    sizeOf(const Slot &slot) const
    {
        return slot.node != kLeaf && nodes_[slot.node].arith
                   ? nodes_[slot.node].size
                   : 0;
    }

    int
    link(Slot &slot)
    {
        if (slot.node == kLeaf) {
            nodes_.push_back({false, Opcode::kMovi, 0, slot.value, 0, 0,
                              -1, -1});
            slot.node = static_cast<int>(nodes_.size()) - 1;
        }
        return slot.node;
    }

    bool
    walk(int n, BuiltSlice &out, std::map<int, std::int32_t> &slot)
    {
        if (slot.count(n))
            return true;
        const Node node = nodes_[n];
        if (!node.arith) {
            if (out.inputs.size() >= policy_.maxInputs)
                return false;
            slot[n] =
                inputSrc(static_cast<std::uint32_t>(out.inputs.size()));
            out.inputs.push_back(node.value);
            return true;
        }
        if (node.in2 >= 0 && !walk(node.in2, out, slot))
            return false;
        if (node.in1 >= 0 && !walk(node.in1, out, slot))
            return false;
        if (out.slice.code.size() >= policy_.buildCap())
            return false;
        slot[n] = static_cast<std::int32_t>(out.slice.code.size());
        out.slice.code.push_back(
            {node.op, node.imm, node.in1 >= 0 ? slot[node.in1] : kNoSrc,
             node.in2 >= 0 ? slot[node.in2] : kNoSrc});
        return true;
    }

    SlicePolicyConfig policy_;
    std::vector<std::array<Slot, isa::kNumRegs>> regs_;
    std::vector<Node> nodes_;
};

/**
 * Drive the engine and the reference with seeded random instruction
 * streams under @p policy and compare every store's build. The streams
 * favour self-dependent chains on a few registers, so depths cross the
 * build cap and sizes cross the collapse; per-seed reset and merge
 * rates vary how long those chains live and how fast they widen.
 */
void
expectEngineMatchesReference(const SlicePolicyConfig &policy)
{
    constexpr Opcode kRegReg[] = {
        Opcode::kAdd,  Opcode::kSub,    Opcode::kMul,    Opcode::kDivu,
        Opcode::kRemu, Opcode::kAnd,    Opcode::kOr,     Opcode::kXor,
        Opcode::kShl,  Opcode::kShr,    Opcode::kSra,    Opcode::kMin,
        Opcode::kMax,  Opcode::kCmpEq,  Opcode::kCmpLtu, Opcode::kCmpLts};
    constexpr Opcode kRegImm[] = {Opcode::kAddi, Opcode::kMuli,
                                  Opcode::kAndi, Opcode::kOri,
                                  Opcode::kXori, Opcode::kShli,
                                  Opcode::kShri};
    constexpr unsigned kRegs = 6;  // r1..r6: plenty of aliasing

    unsigned accepted = 0, rejected = 0, collapses = 0, deep_roots = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        const unsigned cores = 1 + static_cast<unsigned>(seed % 3);
        const double reset = seed % 4 == 0 ? 0.1 : seed % 4 == 1 ? 0.02
                                                                  : 0.003;
        const double merge = seed % 3 == 0 ? 0.01 : 0.1;
        SliceEngine engine(cores, policy);
        ReferenceSlicer reference(cores, policy);
        std::vector<std::array<Word, isa::kNumRegs>> file(cores);
        std::vector<isa::Reg> hot(cores, 1);
        auto reg = [&] {
            return static_cast<isa::Reg>(1 + rng.below(kRegs));
        };

        for (int step = 0; step < 4000; ++step) {
            const CoreId core = static_cast<CoreId>(rng.below(cores));
            auto &regs = file[core];
            if (rng.chance(0.02))
                hot[core] = reg();
            const isa::Reg h = hot[core];

            isa::Instruction inst;
            cpu::InstrEvent e;
            e.core = core;
            e.inst = &inst;
            const double pick = rng.uniform() - reset;
            if (pick < 0) {
                // A leaf producer ends whatever chain rd held.
                const double kind = rng.uniform();
                inst.op = kind < 0.4   ? Opcode::kMovi
                          : kind < 0.9 ? Opcode::kLoad
                                       : Opcode::kTid;
                inst.rd = reg();
                inst.rs1 = reg();
                inst.imm = static_cast<SWord>(rng.below(1000));
            } else if (pick < 0.003) {
                engine.resetCore(core, regs);
                reference.resetCore(core, regs);
                continue;
            } else if (pick < 0.18) {
                inst = {Opcode::kStore, 0, reg(),
                        rng.chance(0.5) ? h : reg(), 0, false};
            } else if (pick < 0.2) {
                inst = {Opcode::kBne, 0, reg(), reg(), 0, false};
            } else if (pick < 0.27) {
                inst = {kRegReg[rng.below(std::size(kRegReg))], reg(),
                        reg(), reg(), 0, false};
            } else if (pick < 0.27 + merge) {
                // Merge into the hot chain (h op h doubles its size).
                inst = {kRegReg[rng.below(std::size(kRegReg))], h, h,
                        rng.chance(0.3) ? h : reg(), 0, false};
                if (rng.chance(0.5))
                    std::swap(inst.rs1, inst.rs2);
            } else {
                // Extend the hot chain by one instruction.
                inst = {kRegImm[rng.below(std::size(kRegImm))], h, h, 0,
                        static_cast<SWord>(rng.below(64)), false};
            }

            if (isa::isStore(inst.op)) {
                e.result = regs[inst.rs2];
                const BuiltSlice *got = engine.buildForStore(e);
                const std::optional<BuiltSlice> want = reference.build(e);
                ASSERT_EQ(got != nullptr, want.has_value())
                    << "seed " << seed << " step " << step;
                if (!got) {
                    ++rejected;
                    continue;
                }
                ++accepted;
                ASSERT_EQ(got->slice, want->slice)
                    << "seed " << seed << " step " << step;
                ASSERT_EQ(got->inputs, want->inputs)
                    << "seed " << seed << " step " << step;
                ASSERT_EQ(got->value, want->value)
                    << "seed " << seed << " step " << step;
                continue;
            }
            if (isa::isLoad(inst.op))
                e.result = rng.next();
            else if (isSliceable(inst.op))
                e.result = isa::evalArith(inst.op, regs[inst.rs1],
                                          regs[inst.rs2], inst.imm, core);
            if (isa::writesReg(inst.op))
                regs[inst.rd] = e.result;
            engine.observe(e);
            reference.observe(e);
        }
        collapses += reference.collapses;
        deep_roots += reference.deepRoots;
    }
    // The streams reached every regime the engine distinguishes.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
    EXPECT_GT(collapses, 100u);
    EXPECT_GT(deep_roots, 100u);
}

TEST(SliceEngineDifferential, GreedyThreshold5)
{
    SlicePolicyConfig policy;
    policy.lengthThreshold = 5;
    expectEngineMatchesReference(policy);
}

TEST(SliceEngineDifferential, GreedyThreshold10)
{
    expectEngineMatchesReference(SlicePolicyConfig{});
}

TEST(SliceEngineDifferential, GreedyThreshold50)
{
    SlicePolicyConfig policy;
    policy.lengthThreshold = 50;
    expectEngineMatchesReference(policy);
}

TEST(SliceEngineDifferential, CostModel)
{
    SlicePolicyConfig policy;
    policy.policy = SelectionPolicy::kCostModel;
    expectEngineMatchesReference(policy);
}

} // namespace
} // namespace acr::slice
