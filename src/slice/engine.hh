/**
 * @file
 * SliceEngine: the dynamic backward slicer — the simulator's equivalent
 * of the paper's Pin-based compiler pass (Sec. IV: "We implemented ACR's
 * compiler pass ... as a Pin tool").
 *
 * For every core and register the engine maintains the producer DAG of
 * the current value: arithmetic instructions link to the nodes of their
 * register operands; loads, tid reads and over-long chains become opaque
 * leaves whose *values* are captured. When a store executes, the engine
 * linearizes the DAG behind the stored value into a StaticSlice (arith
 * ops only) plus captured input operands — or reports that no admissible
 * Slice exists. Its callers feed it only the instructions whose results
 * can reach a building store (slice/relevance.hh): on the 8 kernels, 21%
 * of a ReCkpt run's retired instructions and 70% of the slice pass's.
 *
 * Hot-path layout (DESIGN.md §13): a node exists only for a value that
 * an accepted Slice can contain. Each register slot carries its
 * producer's size and its longest arithmetic path (depth); a path of d
 * arithmetic nodes is d distinct Slice instructions, so a value deeper
 * than the policy's build cap can never sit inside an accepted Slice
 * and stays node-less (kDeep) — as do the readers it feeds, which are
 * deeper still. Nodes live in a flat engine-owned arena addressed by
 * 32-bit indices, with an intrusive non-atomic refcount; an engine
 * belongs to exactly one experiment frame, which runs on one thread.
 * The linearizer's visited-map is an epoch-stamped slot carried in the
 * node itself instead of a per-call hash map. Leaf producers (loads,
 * tid reads, over-size collapses) are *lazy*: a register slot holds
 * just the value until a non-deep arithmetic instruction links it, at
 * which point one leaf node is materialized and shared by every later
 * reader — so the common load→store / load→overwrite patterns never
 * touch the arena at all. All of this is pure allocation/bookkeeping
 * layout: the accepted slices' DAG shape, traversal order, and emitted
 * slices are bit-identical to the original shared_ptr implementation
 * (locked by perf_equiv_test / golden_stdout and by a differential test
 * against a node-per-instruction reference). A welcome side effect of
 * index addressing is that the whole engine is plain copyable state,
 * which is what lets the prefix-sharing snapshot (DESIGN.md §13) clone
 * a mid-run slicer with a handful of vector copies.
 */

#ifndef ACR_SLICE_ENGINE_HH
#define ACR_SLICE_ENGINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "cpu/exec_observer.hh"
#include "isa/instruction.hh"
#include "slice/policy.hh"
#include "slice/static_slice.hh"

namespace acr::slice
{

/** Result of linearizing a producer DAG. */
struct BuiltSlice
{
    StaticSlice slice;
    std::vector<Word> inputs;
    /** The value the slice recomputes (== the stored value). */
    Word value = 0;
};

/** Per-register producer tracking plus the slice builder. */
class SliceEngine
{
  public:
    /**
     * Producer chains whose approximate instruction count (a shared
     * subexpression counts once per use) exceeds this collapse into
     * opaque leaves, whose value a later Slice captures as an input.
     * Must be at least every build cap under study (the cost model's
     * 64), or chains those caps accept would collapse first.
     */
    static constexpr unsigned kSizeCap = 128;

    /**
     * @param num_cores  cores to track
     * @param policy     the selection policy every build applies; its
     *                   build cap is also the depth past which a value
     *                   holds no node
     */
    SliceEngine(unsigned num_cores, const SlicePolicyConfig &policy);

    // Index-addressed state: copying the engine copies the whole DAG,
    // which the prefix-sharing snapshot relies on.
    SliceEngine(const SliceEngine &) = default;
    SliceEngine &operator=(const SliceEngine &) = default;

    /**
     * Feed one retired instruction. A caller may skip the instructions
     * whose results no build can read (slice/relevance.hh) and must
     * feed every other one, in retirement order. Defined inline below:
     * the observer is devirtualized into the core's dispatch loop, and
     * keeping this in the header lets the whole alloc/retain/release
     * path fold into the caller.
     */
    void observe(const cpu::InstrEvent &event);

    /**
     * Build the Slice for the value a store wrote (the producer DAG of
     * rs2 at the time of @p event).
     * @return nullptr when the value has no admissible Slice under the
     *         engine's policy (producer is a load, chain too long, too
     *         many inputs). A non-null result points into engine-owned
     *         scratch reused by the next build call — copy out what
     *         must survive. Millions of stores build slices per run,
     *         so the builder must not allocate fresh result vectors
     *         each time (DESIGN.md §13).
     */
    const BuiltSlice *buildForStore(const cpu::InstrEvent &event);

    /**
     * Rollback support: producer chains for @p core are no longer valid;
     * every register becomes an opaque leaf holding its restored value.
     */
    void resetCore(CoreId core, const std::array<Word, isa::kNumRegs> &regs);

    /** Nodes currently alive (tests/debugging). */
    std::size_t liveNodes() const { return liveNodes_; }

  private:
    /** Arena index of a node; kNil is the null producer. */
    using NodeRef = std::uint32_t;
    static constexpr NodeRef kNil = 0xFFFFFFFFu;
    /**
     * Register-slot sentinel: the producer is a leaf whose value sits
     * in the slot and whose node has not been materialized (and never
     * will be unless a non-deep arithmetic instruction links it).
     */
    static constexpr NodeRef kLazy = 0xFFFFFFFEu;
    /**
     * Register-slot sentinel: an arithmetic value whose depth exceeds
     * the build cap. No accepted Slice can contain it, so it holds no
     * node; every slot value below kDeep is a node.
     */
    static constexpr NodeRef kDeep = 0xFFFFFFFDu;

    /** One register's producer. */
    struct RegSlot
    {
        /** Arena node, kLazy or kDeep. */
        NodeRef node;
        /** Approximate producer instruction count; 0 for a leaf. */
        std::uint8_t size;
        /** Longest arithmetic path ending here (<= size); 0 for a
         *  leaf. */
        std::uint8_t depth;
        /** The register's value (the leaf value when node is kLazy). */
        Word value;
    };
    static_assert(kSizeCap <= 0xFF, "size and depth must fit a byte");

    /**
     * A packed producer-DAG node (40 bytes; two per cache line, vs 56
     * with pointer links): an arithmetic result no deeper than the
     * build cap, or a materialized leaf. Its size and depth live in
     * the register slot, the only place observe() reads them. `refs`
     * counts register slots plus parent links; `buildEpoch`/`buildSlot`
     * are the linearizer's visited stamp (valid only while buildEpoch
     * matches the engine's current walk). When a node sits on the free
     * list, `in1` doubles as the list link.
     */
    struct Node
    {
        Word value;
        SWord imm;
        NodeRef in1;
        NodeRef in2;
        std::uint32_t refs;
        std::uint32_t buildEpoch;
        std::int32_t buildSlot;
        isa::Opcode op;
        std::uint8_t arith;
    };
    static_assert(sizeof(Node) == 40, "Node packing regressed");

    NodeRef alloc();
    NodeRef leaf(Word value);
    /** The node of a non-deep input, materializing a lazy leaf into
     *  its slot so every later reader shares it. */
    NodeRef
    linkInput(RegSlot &slot)
    {
        if (slot.node == kLazy)
            slot.node = leaf(slot.value);
        return slot.node;
    }
    /** Store @p next in @p slot, dropping the node the slot held. */
    void
    overwrite(RegSlot &slot, const RegSlot &next)
    {
        NodeRef old = slot.node;
        slot = next;
        if (old < kDeep)
            release(old);
    }
    /** Drop one reference; reclaims the node (and, transitively, its
     *  children) into the free list when it was the last. The childless
     *  case — every load/tid leaf, the bulk of node deaths — is freed
     *  inline; only a node with children drops to the out-of-line
     *  cascade. */
    void
    release(NodeRef ref)
    {
        Node &node = arena_[ref];
        if (--node.refs != 0)
            return;
        NodeRef a = node.in1;
        NodeRef b = node.in2;
        node.in1 = freeHead_;
        freeHead_ = ref;
        --liveNodes_;
        if (a != kNil || b != kNil)
            releaseChildren(a, b);
    }
    /** Out-of-line teardown of a freed node's subtrees. */
    void releaseChildren(NodeRef a, NodeRef b);

    unsigned numCores_;
    SlicePolicyConfig policy_;
    std::vector<std::array<RegSlot, isa::kNumRegs>> regs_;

    // --- Node arena (flat; indices stay valid across growth) ---
    std::vector<Node> arena_;
    NodeRef freeHead_ = kNil;
    std::size_t liveNodes_ = 0;

    // --- Reused walk scratch (arena-style: capacity survives calls) ---
    struct Frame
    {
        NodeRef node;
        bool expanded;
    };
    std::vector<Frame> buildStack_;
    std::vector<NodeRef> releaseStack_;
    std::uint32_t buildEpoch_ = 0;
    /** Result slot of buildForStore; vectors keep their capacity. */
    BuiltSlice buildScratch_;
};

inline SliceEngine::NodeRef
SliceEngine::alloc()
{
    NodeRef ref;
    if (freeHead_ != kNil) {
        ref = freeHead_;
        freeHead_ = arena_[ref].in1;
    } else {
        ref = static_cast<NodeRef>(arena_.size());
        arena_.emplace_back();
    }
    Node &node = arena_[ref];
    node.in1 = kNil;
    node.in2 = kNil;
    node.refs = 1;
    node.buildEpoch = 0;
    ++liveNodes_;
    return ref;
}

inline SliceEngine::NodeRef
SliceEngine::leaf(Word value)
{
    NodeRef ref = alloc();
    Node &node = arena_[ref];
    node.arith = 0;
    node.op = isa::Opcode::kMovi;
    node.imm = 0;
    node.value = value;
    return ref;
}

inline void
SliceEngine::observe(const cpu::InstrEvent &event)
{
    const isa::Instruction &inst = *event.inst;
    ACR_ASSERT(event.core < numCores_, "event from unknown core %u",
               event.core);
    auto &regs = regs_[event.core];

    if (isa::isLoad(inst.op) || inst.op == isa::Opcode::kTid) {
        // Memory instructions and tid reads terminate slices: the value
        // itself becomes a capturable input operand. The leaf stays
        // lazy — a value parked in the slot — so a loaded value that is
        // stored or overwritten without arith use never costs a node.
        overwrite(regs[inst.rd], {kLazy, 0, 0, event.result});
        return;
    }

    if (!isSliceable(inst.op))
        return;  // stores, branches, barriers, halt: no register change

    const bool use1 = isa::readsRs1(inst.op);
    const bool use2 = isa::readsRs2(inst.op);

    unsigned size = 1;
    unsigned depth = 0;
    if (use1) {
        size += regs[inst.rs1].size;
        depth = regs[inst.rs1].depth;
    }
    if (use2) {
        size += regs[inst.rs2].size;
        depth = std::max<unsigned>(depth, regs[inst.rs2].depth);
    }
    ++depth;

    if (size > kSizeCap) {
        // Chain exceeds every threshold under study: collapse to an
        // opaque leaf — in the lazy representation, no node at all.
        // This bounds tracking memory, builder work, and teardown
        // depth.
        overwrite(regs[inst.rd], {kLazy, 0, 0, event.result});
        return;
    }
    RegSlot next{kDeep, static_cast<std::uint8_t>(size),
                 static_cast<std::uint8_t>(depth), event.result};
    if (depth > policy_.buildCap()) {
        // Longer than any Slice the policy accepts, and so is every
        // value it feeds: no node, no leaf materialized, no retain.
        overwrite(regs[inst.rd], next);
        return;
    }

    // Every input is at most build-cap - 1 deep, so none is kDeep.
    // Link them before the node alloc: leaf() may grow the arena.
    const NodeRef in1 = use1 ? linkInput(regs[inst.rs1]) : kNil;
    const NodeRef in2 = use2 ? linkInput(regs[inst.rs2]) : kNil;

    next.node = alloc();
    // No further alloc below: the reference stays valid.
    Node &node = arena_[next.node];
    node.arith = 1;
    node.op = inst.op;
    node.imm = inst.imm;
    node.value = event.result;
    if (in1 != kNil) {
        node.in1 = in1;
        ++arena_[in1].refs;
    }
    if (in2 != kNil) {
        node.in2 = in2;
        ++arena_[in2].refs;
    }

    // Release the overwritten producer only after the inputs are
    // retained: rd may alias rs1/rs2.
    overwrite(regs[inst.rd], next);
}

} // namespace acr::slice

#endif // ACR_SLICE_ENGINE_HH
