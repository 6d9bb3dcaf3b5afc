/**
 * @file
 * Tests for the ACR layer: AddrMap semantics, the ASSOC-ADDR lifecycle
 * in AcrEngine (association, staleness on non-recomputable overwrites,
 * retention expiry, rollback erasure), and the compiler pass.
 */

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "acr/acr_engine.hh"
#include "acr/addr_map.hh"
#include "acr/slice_pass.hh"
#include "isa/builder.hh"
#include "sim/system.hh"
#include "workloads/kernel_spec.hh"
#include "workloads/workload.hh"

namespace acr::amnesic
{
namespace
{

// ---------------------------------------------------------------------
// AddrMap
// ---------------------------------------------------------------------

struct MapRig
{
    MapRig() : buf(1024) {}

    std::shared_ptr<slice::SliceInstance>
    instance()
    {
        slice::StaticSlice s;
        s.code.push_back({isa::Opcode::kMovi, 7, slice::kNoSrc,
                          slice::kNoSrc});
        return slice::SliceInstance::create(repo.intern(std::move(s)),
                                            {}, buf);
    }

    slice::SliceRepository repo;
    slice::OperandBufferAccounting buf;
};

TEST(AddrMap, InsertLookupErase)
{
    MapRig rig;
    AddrMap map(4);
    auto inst = rig.instance();
    EXPECT_TRUE(map.insert(100, inst, 1));
    EXPECT_EQ(map.lookup(100), inst);
    EXPECT_EQ(map.lookup(101), nullptr);
    map.erase(100);
    EXPECT_EQ(map.lookup(100), nullptr);
}

TEST(AddrMap, ReplacementKeepsTheLatestProducer)
{
    MapRig rig;
    AddrMap map(4);
    auto a = rig.instance();
    auto b = rig.instance();
    map.insert(100, a, 1);
    map.insert(100, b, 2);
    EXPECT_EQ(map.lookup(100), b);
    EXPECT_EQ(map.size(), 1u);
}

TEST(AddrMap, CapacityRejectsNewAddresses)
{
    MapRig rig;
    AddrMap map(2);
    EXPECT_TRUE(map.insert(1, rig.instance(), 1));
    EXPECT_TRUE(map.insert(2, rig.instance(), 1));
    EXPECT_FALSE(map.insert(3, rig.instance(), 1));
    EXPECT_EQ(map.overflows(), 1u);
    // Replacing an existing key works even at capacity.
    EXPECT_TRUE(map.insert(2, rig.instance(), 2));
    EXPECT_EQ(map.peakSize(), 2u);
}

TEST(AddrMap, ExpiryImplementsTwoCheckpointRetention)
{
    MapRig rig;
    AddrMap map(8);
    map.insert(1, rig.instance(), 1);
    map.insert(2, rig.instance(), 2);
    map.insert(3, rig.instance(), 3);
    map.expireOlderThan(2);
    EXPECT_EQ(map.lookup(1), nullptr);
    EXPECT_NE(map.lookup(2), nullptr);
    EXPECT_NE(map.lookup(3), nullptr);
}

TEST(AddrMap, UpdateWithOlderIntervalKeepsTheNewerTag)
{
    // A re-posted rollback-erased corruption can replay an ASSOC-ADDR
    // carrying an older interval tag. The replacement must adopt the
    // new producer but keep the max interval, or the entry expires one
    // retention window early.
    MapRig rig;
    AddrMap map(4);
    auto fresh = rig.instance();
    auto stale = rig.instance();
    map.insert(100, fresh, 5);
    map.insert(100, stale, 3);
    EXPECT_EQ(map.lookup(100), stale);
    map.expireOlderThan(5);
    EXPECT_NE(map.lookup(100), nullptr)
        << "older-interval update must not shorten retention";
    map.expireOlderThan(6);
    EXPECT_EQ(map.lookup(100), nullptr);
}

TEST(AddrMap, InsertAfterExpiryKeepsProbeChainsReachable)
{
    // Addresses that collide into one probe run, partially expired,
    // then re-inserted: every survivor and every re-insert must stay
    // reachable (no tombstone holes, no orphaned displaced entries).
    MapRig rig;
    AddrMap map(64);
    // Fibonacci-hash collisions are hard to construct by hand, so use
    // volume: many keys, expire the odd intervals, reinsert, verify
    // every key individually.
    for (Addr a = 0; a < 48; ++a)
        ASSERT_TRUE(map.insert(a * 8, rig.instance(), 1 + (a & 1)));
    map.expireOlderThan(2);
    EXPECT_EQ(map.size(), 24u);
    for (Addr a = 0; a < 48; ++a) {
        if (a & 1)
            EXPECT_NE(map.lookup(a * 8), nullptr) << "addr " << a * 8;
        else
            EXPECT_EQ(map.lookup(a * 8), nullptr) << "addr " << a * 8;
    }
    for (Addr a = 0; a < 48; a += 2)
        ASSERT_TRUE(map.insert(a * 8, rig.instance(), 3));
    for (Addr a = 0; a < 48; ++a)
        EXPECT_NE(map.lookup(a * 8), nullptr) << "addr " << a * 8;
    EXPECT_EQ(map.size(), 48u);
}

TEST(AddrMap, DifferentialAgainstReferenceModel)
{
    // Randomized mixed workload against a trivially-correct
    // std::unordered_map model: locks the observable semantics of the
    // open-addressing table (backward-shift deletion, keep-max interval
    // on update, capacity rejection, batched expiry) regardless of the
    // internal probe layout.
    struct Entry
    {
        std::shared_ptr<slice::SliceInstance> instance;
        std::uint64_t interval;
    };
    MapRig rig;
    constexpr std::size_t kCapacity = 96;
    AddrMap map(kCapacity);
    std::unordered_map<Addr, Entry> model;
    std::mt19937_64 rng(0xACD5EEDull);
    // Small address universe so inserts, erases, and updates all hit.
    std::uniform_int_distribution<Addr> pickAddr(0, 255);
    std::uniform_int_distribution<int> pickOp(0, 99);
    std::uint64_t interval = 1;
    std::uint64_t minLive = 0;
    std::uint64_t modelOverflows = 0;
    std::size_t modelPeak = 0;

    for (int step = 0; step < 20000; ++step) {
        int op = pickOp(rng);
        Addr addr = pickAddr(rng) * 8;
        if (op < 55) { // insert / update
            auto inst = rig.instance();
            std::uint64_t tag =
                interval - (rng() % 3 && interval > minLive ? 1 : 0);
            bool ok = map.insert(addr, inst, tag);
            auto it = model.find(addr);
            if (it != model.end()) {
                ASSERT_TRUE(ok);
                it->second.instance = inst;
                it->second.interval = std::max(it->second.interval, tag);
            } else if (model.size() >= kCapacity) {
                ASSERT_FALSE(ok);
                ++modelOverflows;
            } else {
                ASSERT_TRUE(ok);
                model[addr] = {inst, tag};
                modelPeak = std::max(modelPeak, model.size());
            }
        } else if (op < 85) { // erase
            map.erase(addr);
            model.erase(addr);
        } else if (op < 97) { // lookup spot-check
            auto it = model.find(addr);
            ASSERT_EQ(map.lookup(addr),
                      it == model.end() ? nullptr : it->second.instance)
                << "step " << step << " addr " << addr;
        } else { // advance the interval clock and expire
            ++interval;
            minLive = interval > 2 ? interval - 2 : 0;
            map.expireOlderThan(minLive);
            std::erase_if(model, [&](const auto &kv) {
                return kv.second.interval < minLive;
            });
        }
        ASSERT_EQ(map.size(), model.size()) << "step " << step;
    }
    // Full sweep: every model entry reachable, nothing extra.
    for (const auto &[addr, entry] : model)
        ASSERT_EQ(map.lookup(addr), entry.instance) << "addr " << addr;
    EXPECT_EQ(map.overflows(), modelOverflows);
    EXPECT_EQ(map.peakSize(), modelPeak);
}

// ---------------------------------------------------------------------
// AcrEngine, driven with synthetic events
// ---------------------------------------------------------------------

struct EngineRig
{
    explicit EngineRig(AcrConfig config = AcrConfig{})
        : slicer(1, slice::SlicePolicyConfig{}),
          engine(config, slicer, stats)
    {
    }

    /** Feed "movi r1, value" so r1 has a 1-op slice behind it. */
    void
    produce(Word value)
    {
        moviInst = {isa::Opcode::kMovi, 1, 0, 0,
                    static_cast<SWord>(value), false};
        cpu::InstrEvent e;
        e.core = 0;
        e.inst = &moviInst;
        e.result = value;
        slicer.observe(e);
    }

    /** Feed "store [r2], r1" with the given hint. */
    void
    store(Addr addr, Word value, bool hinted)
    {
        storeInst = {isa::Opcode::kStore, 0, 2, 1, 0, hinted};
        cpu::InstrEvent e;
        e.core = 0;
        e.inst = &storeInst;
        e.addr = addr;
        e.result = value;
        engine.onStoreRetired(e);
    }

    StatSet stats;
    slice::SliceEngine slicer;
    AcrEngine engine;
    isa::Instruction moviInst;
    isa::Instruction storeInst;
};

TEST(AcrEngine, HintedStoreCreatesAssociation)
{
    EngineRig rig;
    rig.produce(42);
    rig.store(500, 42, true);
    auto inst = rig.engine.currentValueSlice(500);
    ASSERT_NE(inst, nullptr);
    slice::ReplayCost cost;
    EXPECT_EQ(rig.engine.replay(*inst, &cost), 42u);
    rig.engine.exportStats();  // flush the deferred hot counters
    EXPECT_DOUBLE_EQ(rig.stats.get("acr.captures"), 1.0);
    EXPECT_GT(rig.stats.get("acr.addrMapAccesses"), 0.0);
}

TEST(AcrEngine, UnhintedStoreKillsStaleAssociation)
{
    EngineRig rig;
    rig.produce(42);
    rig.store(500, 42, true);
    ASSERT_NE(rig.engine.currentValueSlice(500), nullptr);
    rig.produce(43);
    rig.store(500, 43, false);  // overwrite without a Slice
    EXPECT_EQ(rig.engine.currentValueSlice(500), nullptr)
        << "the current value is no longer recomputable";
}

TEST(AcrEngine, AssociationTracksTheLatestValue)
{
    EngineRig rig;
    rig.produce(1);
    rig.store(500, 1, true);
    rig.produce(2);
    rig.store(500, 2, true);
    auto inst = rig.engine.currentValueSlice(500);
    ASSERT_NE(inst, nullptr);
    EXPECT_EQ(rig.engine.replay(*inst, nullptr), 2u);
}

TEST(AcrEngine, DefaultRetentionKeepsValidAssociationsForever)
{
    // Default policy: the mapping describes the current memory value,
    // which stays recomputable however many checkpoints pass.
    EngineRig rig;
    rig.produce(1);
    rig.store(500, 1, true);  // interval 1
    for (std::uint64_t i = 2; i < 20; ++i)
        rig.engine.onCheckpointEstablished(i);
    EXPECT_NE(rig.engine.currentValueSlice(500), nullptr);
}

TEST(AcrEngine, StrictRetentionExpiresOldAssociations)
{
    // The stricter Sec. III-A reading: mappings only for the two most
    // recent checkpoints.
    AcrConfig config;
    config.retentionIntervals = 2;
    EngineRig rig(config);
    rig.produce(1);
    rig.store(500, 1, true);  // interval 1
    rig.engine.onCheckpointEstablished(2);
    rig.engine.onCheckpointEstablished(3);
    EXPECT_NE(rig.engine.currentValueSlice(500), nullptr)
        << "still within two-checkpoint retention";
    rig.engine.onCheckpointEstablished(4);
    EXPECT_EQ(rig.engine.currentValueSlice(500), nullptr)
        << "expired after falling out of the retention window";
}

TEST(AcrEngine, RollbackErasesRestoredAddresses)
{
    EngineRig rig;
    rig.produce(1);
    rig.store(500, 1, true);
    rig.produce(2);
    rig.store(501, 2, true);
    rig.engine.onRollback({500});
    EXPECT_EQ(rig.engine.currentValueSlice(500), nullptr);
    EXPECT_NE(rig.engine.currentValueSlice(501), nullptr);
}

TEST(AcrEngine, NonSliceableInstanceFallsBackToLogging)
{
    EngineRig rig;
    // r1 produced by a load: no Slice exists.
    isa::Instruction load{isa::Opcode::kLoad, 1, 2, 0, 0, false};
    cpu::InstrEvent e;
    e.core = 0;
    e.inst = &load;
    e.result = 9;
    rig.slicer.observe(e);
    rig.store(500, 9, true);
    EXPECT_EQ(rig.engine.currentValueSlice(500), nullptr);
    rig.engine.exportStats();  // flush the deferred hot counters
    EXPECT_DOUBLE_EQ(rig.stats.get("acr.captureFailures"), 1.0);
}

TEST(AcrEngine, ExportStatsPublishesOccupancy)
{
    EngineRig rig;
    rig.produce(1);
    rig.store(500, 1, true);
    rig.engine.exportStats();
    EXPECT_DOUBLE_EQ(rig.stats.get("acr.addrMapPeakEntries"), 1.0);
    EXPECT_DOUBLE_EQ(rig.stats.get("acr.uniqueSlices"), 1.0);
}

// ---------------------------------------------------------------------
// SlicePass
// ---------------------------------------------------------------------

TEST(SlicePass, MarksRecomputableStoresAndMeasuresGrowth)
{
    workloads::KernelSpec spec;
    spec.name = "mini";
    spec.outerIters = 4;
    spec.phases = {{16, 4}, {16, 40}};
    spec.comm = workloads::Comm::kNone;
    workloads::WorkloadParams params;
    params.threads = 2;
    isa::Program program = workloads::buildKernel(spec, params);

    slice::SlicePolicyConfig policy;
    policy.lengthThreshold = 10;
    auto result = SlicePass::run(program,
                                 sim::MachineConfig::tableI(2), policy);

    EXPECT_GT(result.staticStores, 0u);
    EXPECT_GT(result.hintedStores, 0u);
    EXPECT_LT(result.hintedStores, result.staticStores)
        << "the length-40 phase must not be hinted at threshold 10";
    EXPECT_GT(result.uniqueSlices, 0u);
    EXPECT_GT(result.binaryGrowthPct, 0.0);
    EXPECT_GT(result.totalProgress, 0u);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_FALSE(result.finalImage.empty());
    EXPECT_EQ(result.program.sliceHintedStores(), result.hintedStores);
    EXPECT_GT(result.sliceableStores, 0u);
    EXPECT_LT(result.sliceableStores, result.dynamicStores);
}

TEST(SlicePass, HigherThresholdHintsMoreStores)
{
    workloads::KernelSpec spec;
    spec.name = "mini2";
    spec.outerIters = 4;
    spec.phases = {{16, 4}, {16, 20}, {16, 40}};
    spec.comm = workloads::Comm::kNone;
    workloads::WorkloadParams params;
    params.threads = 2;
    isa::Program program = workloads::buildKernel(spec, params);

    std::size_t prev = 0;
    for (unsigned threshold : {10u, 25u, 50u}) {
        slice::SlicePolicyConfig policy;
        policy.lengthThreshold = threshold;
        auto result = SlicePass::run(
            program, sim::MachineConfig::tableI(2), policy);
        EXPECT_GE(result.hintedStores, prev)
            << "coverage must be monotone in the threshold";
        prev = result.hintedStores;
    }
    EXPECT_GT(prev, 0u);
}

TEST(SlicePass, GoldenTrackMatchesAFreshRunOfEveryKernel)
{
    // Boundary i of the track is the machine after i steps: a fresh
    // system stepped i times must digest to exactly the same values,
    // although the pass kept its memory digest from the stores alone.
    const auto machine = sim::MachineConfig::tableI(8);
    for (const std::string &name : workloads::allWorkloadNames()) {
        const isa::Program program =
            workloads::makeWorkload(name)->build({});
        const auto result =
            SlicePass::run(program, machine, slice::SlicePolicyConfig{});
        ASSERT_GE(result.goldenTrack.size(), 2u) << name;

        sim::MulticoreSystem fresh(machine, program);
        for (std::size_t i = 0; i < result.goldenTrack.size(); ++i) {
            if (i > 0)
                fresh.step();
            const sim::StepDigest want{fresh.progress(),
                                       fresh.archDigest(),
                                       fresh.memory().digest()};
            ASSERT_TRUE(result.goldenTrack[i] == want)
                << name << " boundary " << i;
        }
        EXPECT_TRUE(fresh.allHalted()) << name;
        EXPECT_EQ(result.goldenTrack.back().progress,
                  result.totalProgress);

        std::uint64_t image_digest = 0;
        for (const auto &[addr, value] : result.finalImage)
            image_digest += mem::MainMemory::wordDigest(addr, value);
        EXPECT_EQ(result.goldenTrack.back().memory, image_digest) << name;
    }
}

} // namespace
} // namespace acr::amnesic
