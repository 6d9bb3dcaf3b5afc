/**
 * @file
 * Tests for the static slice-relevance filter (slice/relevance.hh):
 * the liveness rule on hand-built programs, and its exactness on real
 * traffic — an engine fed only the relevant pcs builds exactly what an
 * engine fed every instruction builds, for every building store.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "acr/slice_pass.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/builder.hh"
#include "random_kernel.hh"
#include "sim/machine_config.hh"
#include "sim/system.hh"
#include "slice/engine.hh"
#include "slice/relevance.hh"
#include "workloads/workload.hh"

namespace acr::slice
{
namespace
{

using Mask = std::vector<std::uint8_t>;

/** Build @p b and set the ASSOC-ADDR hint on the stores at @p pcs. */
isa::Program
withHints(isa::ProgramBuilder &b, std::initializer_list<std::size_t> pcs)
{
    isa::Program program = b.build();
    for (std::size_t pc : pcs)
        program.code()[pc].sliceHint = true;
    EXPECT_EQ(program.validate(), "");
    return program;
}

TEST(SliceRelevance, LoopCounterFeedingOnlyABranchAndAnAddressIsUntracked)
{
    isa::ProgramBuilder b("counter");
    b.movi(1, 0)           // 0: counter
        .movi(2, 8)        // 1: bound
        .label("loop")
        .load(3, 1, 100)   // 2: payload, addressed by the counter
        .addi(3, 3, 1)     // 3
        .store(1, 3, 200)  // 4: hinted; the counter is its address
        .addi(1, 1, 1)     // 5
        .bltu(1, 2, "loop")
        .halt();
    isa::Program program = withHints(b, {4});
    EXPECT_EQ(relevantPcs(program, BuildingStores::kHinted),
              (Mask{0, 0, 1, 1, 0, 0, 0, 0}));
}

TEST(SliceRelevance, PayloadChainIsTrackedAcrossTheBackEdge)
{
    // The hinted store at the loop head writes the accumulator before
    // the body updates it, so the add's result reaches the store only
    // through the back edge.
    isa::ProgramBuilder b("accumulate");
    b.movi(6, 0)           // 0: accumulator, defined before the loop
        .movi(4, 3)        // 1: scale, read in every iteration
        .movi(1, 0)        // 2: counter
        .movi(2, 4)        // 3: bound
        .label("loop")
        .store(1, 6, 300)  // 4: hinted
        .load(3, 1, 100)   // 5
        .mul(5, 3, 4)      // 6
        .add(6, 6, 5)      // 7
        .addi(1, 1, 1)     // 8
        .bltu(1, 2, "loop")
        .halt();
    isa::Program program = withHints(b, {4});
    EXPECT_EQ(relevantPcs(program, BuildingStores::kHinted),
              (Mask{1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0}));
}

TEST(SliceRelevance, LoadsAndTidFeedingATrackedOpAreTracked)
{
    isa::ProgramBuilder b("leaves");
    b.tid(1)               // 0: feeds the mul
        .load(2, 0, 64)    // 1: feeds the mul
        .mul(3, 1, 2)      // 2
        .load(4, 0, 72)    // 3: stored as is (a leaf root)
        .tid(5)            // 4: only an address
        .load(7, 5, 8)     // 5: only feeds a non-hinted store
        .store(0, 3, 0)    // 6: hinted
        .store(5, 4, 16)   // 7: hinted
        .store(0, 7, 24)   // 8: not hinted
        .halt();
    isa::Program program = withHints(b, {6, 7});
    EXPECT_EQ(relevantPcs(program, BuildingStores::kHinted),
              (Mask{1, 1, 1, 1, 0, 0, 0, 0, 0, 0}));
}

TEST(SliceRelevance, NonHintedStoresBuildOnlyInThePass)
{
    isa::ProgramBuilder b("stores");
    b.movi(1, 5)           // 0: feeds both stores
        .addi(2, 1, 1)     // 1: reaches only the non-hinted store
        .store(0, 2, 0)    // 2
        .addi(3, 1, 2)     // 3
        .store(0, 3, 8)    // 4: hinted
        .halt();
    isa::Program program = withHints(b, {4});
    EXPECT_EQ(relevantPcs(program, BuildingStores::kEvery),
              (Mask{1, 1, 0, 1, 0, 0}));
    EXPECT_EQ(relevantPcs(program, BuildingStores::kHinted),
              (Mask{1, 0, 0, 1, 0, 0}));
}

// ---------------------------------------------------------------------
// Differential test on real traffic
// ---------------------------------------------------------------------

/**
 * Feeds one engine every instruction and a twin only the relevant
 * pcs, and compares the two engines' builds at every building store.
 * The first disagreement is kept for the report.
 */
class TwinObserver final : public cpu::ExecObserver
{
  public:
    TwinObserver(unsigned cores, const SlicePolicyConfig &policy,
                 const isa::Program &program, BuildingStores stores)
        : full(cores, policy), filtered(cores, policy),
          relevant_(relevantPcs(program, stores)), stores_(stores)
    {
    }

    void
    onInstr(const cpu::InstrEvent &e) override
    {
        if (!isa::isStore(e.inst->op)) {
            full.observe(e);
            if (relevant_[e.pc]) {
                filtered.observe(e);
                ++tracked;
            }
            ++observed;
            return;
        }
        if (stores_ == BuildingStores::kHinted && !e.inst->sliceHint)
            return;
        const BuiltSlice *want = full.buildForStore(e);
        const BuiltSlice *got = filtered.buildForStore(e);
        ++(want ? accepted : rejected);
        const bool same = want == nullptr
                              ? got == nullptr
                              : got != nullptr &&
                                    got->slice == want->slice &&
                                    got->inputs == want->inputs &&
                                    got->value == want->value;
        if (!same && mismatch.empty())
            mismatch = csprintf("core %u pc %zu: filtered build %s, full "
                                "build %s",
                                e.core, e.pc, describe(got).c_str(),
                                describe(want).c_str());
    }

    SliceEngine full;
    SliceEngine filtered;
    std::uint64_t observed = 0;
    std::uint64_t tracked = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::string mismatch;

  private:
    static std::string
    describe(const BuiltSlice *built)
    {
        if (!built)
            return "null";
        std::string text = csprintf(
            "%zu instrs, value %llu, inputs", built->slice.length(),
            static_cast<unsigned long long>(built->value));
        for (Word input : built->inputs)
            text += ' ' + std::to_string(input);
        return text;
    }

    Mask relevant_;
    BuildingStores stores_;
};

/** Totals over twin runs, for the coverage checks. */
struct TwinTotals
{
    std::uint64_t observed = 0;
    std::uint64_t tracked = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t resets = 0;
};

/**
 * Run @p program to completion under a TwinObserver. At step
 * boundaries, seeded resetCore calls on both engines stand in for
 * rollbacks: a reset core's every slot becomes a leaf of its real
 * register value.
 */
void
expectTwinsAgree(const isa::Program &program, unsigned threads,
                 const SlicePolicyConfig &policy, BuildingStores stores,
                 std::uint64_t seed, TwinTotals &totals)
{
    sim::MulticoreSystem system(sim::MachineConfig::tableI(threads),
                                program);
    TwinObserver twins(threads, policy, program, stores);
    Rng rng(seed);
    system.runToCompletionWith(&twins, [&] {
        if (!rng.chance(0.05))
            return;
        const CoreId core = static_cast<CoreId>(rng.below(threads));
        std::array<Word, isa::kNumRegs> regs;
        for (unsigned r = 0; r < isa::kNumRegs; ++r)
            regs[r] = system.core(core).reg(r);
        twins.full.resetCore(core, regs);
        twins.filtered.resetCore(core, regs);
        ++totals.resets;
    });
    EXPECT_EQ(twins.mismatch, "")
        << program.name() << ", "
        << (policy.policy == SelectionPolicy::kCostModel
                ? std::string("cost model")
                : "threshold " + std::to_string(policy.lengthThreshold))
        << (stores == BuildingStores::kEvery ? ", every store"
                                             : ", hinted stores");
    totals.observed += twins.observed;
    totals.tracked += twins.tracked;
    totals.accepted += twins.accepted;
    totals.rejected += twins.rejected;
}

/** Both store sets at thresholds 5 and 10 and under the cost model. */
TwinTotals
expectTwinsAgreeOnEveryPolicy(const isa::Program &program,
                              unsigned threads, std::uint64_t seed)
{
    SlicePolicyConfig greedy5;
    greedy5.lengthThreshold = 5;
    SlicePolicyConfig cost_model;
    cost_model.policy = SelectionPolicy::kCostModel;
    TwinTotals totals;
    for (const SlicePolicyConfig &policy :
         {greedy5, SlicePolicyConfig{}, cost_model}) {
        expectTwinsAgree(program, threads, policy, BuildingStores::kEvery,
                         seed, totals);
        const amnesic::SlicePassResult pass = amnesic::SlicePass::run(
            program, sim::MachineConfig::tableI(threads), policy);
        expectTwinsAgree(pass.program, threads, policy,
                         BuildingStores::kHinted, seed + 1, totals);
    }
    return totals;
}

class SliceRelevanceDifferential
    : public testing::TestWithParam<std::string>
{
};

TEST_P(SliceRelevanceDifferential, FilteredEngineBuildsWhatTheFullOneBuilds)
{
    workloads::WorkloadParams params;
    params.threads = 8;
    const isa::Program program =
        workloads::makeWorkload(GetParam())->build(params);
    const TwinTotals totals =
        expectTwinsAgreeOnEveryPolicy(program, params.threads, 23);
    // The stream reached both build outcomes and the rollback path, and
    // the filter skipped work.
    EXPECT_GT(totals.accepted, 0u);
    EXPECT_GT(totals.rejected, 0u);
    EXPECT_GT(totals.resets, 0u);
    EXPECT_LT(totals.tracked, totals.observed);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, SliceRelevanceDifferential,
    testing::ValuesIn(workloads::allWorkloadNames()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(SliceRelevanceDifferential, RandomKernelSpecs)
{
    // property_test's RandomizedAcrRuns seeds.
    TwinTotals totals;
    for (std::uint64_t seed = 100; seed < 124; ++seed) {
        Rng rng(seed);
        const testsupport::RandomKernel kernel =
            testsupport::randomKernel(rng);
        const TwinTotals one = expectTwinsAgreeOnEveryPolicy(
            kernel.program, kernel.threads, seed);
        totals.accepted += one.accepted;
        totals.rejected += one.rejected;
        totals.resets += one.resets;
    }
    EXPECT_GT(totals.accepted, 0u);
    EXPECT_GT(totals.rejected, 0u);
    EXPECT_GT(totals.resets, 0u);
}

} // namespace
} // namespace acr::slice
