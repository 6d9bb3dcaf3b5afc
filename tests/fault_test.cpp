/**
 * @file
 * Tests for the fault model: the Fig. 1 error-rate curve, uniform error
 * plans, and the injector state machine against a live system.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "fault/injector.hh"
#include "fault/storage_fault.hh"
#include "isa/builder.hh"

namespace acr::fault
{
namespace
{

TEST(ErrorRate, Fig1GrowsMultiplicatively)
{
    EXPECT_DOUBLE_EQ(relativeErrorRate(0), 1.0);
    EXPECT_NEAR(relativeErrorRate(1), 1.08, 1e-12);
    EXPECT_NEAR(relativeErrorRate(6), std::pow(1.08, 6), 1e-9);
    EXPECT_GT(relativeErrorRate(9), 1.9)
        << "roughly doubles over nine generations at 8%/generation";
}

TEST(FaultPlan, UniformSpacingMatchesSecVD2)
{
    auto plan = FaultPlan::uniform(4, 1000, 50, 7);
    ASSERT_EQ(plan.events.size(), 4u);
    EXPECT_EQ(plan.events[0].progressTrigger, 200u);
    EXPECT_EQ(plan.events[1].progressTrigger, 400u);
    EXPECT_EQ(plan.events[2].progressTrigger, 600u);
    EXPECT_EQ(plan.events[3].progressTrigger, 800u);
    EXPECT_EQ(plan.detectionLatency, 50u);
    for (const auto &event : plan.events)
        EXPECT_NE(event.xorMask, 0u);
}

TEST(FaultPlan, MasksAreSeedDeterministic)
{
    auto a = FaultPlan::uniform(3, 100, 1, 42);
    auto b = FaultPlan::uniform(3, 100, 1, 42);
    auto c = FaultPlan::uniform(3, 100, 1, 43);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(a.events[i].xorMask, b.events[i].xorMask);
    bool any_diff = false;
    for (int i = 0; i < 3; ++i)
        any_diff = any_diff || a.events[i].xorMask != c.events[i].xorMask;
    EXPECT_TRUE(any_diff);
}

isa::Program
spinProgram(unsigned iters)
{
    isa::ProgramBuilder b("spin");
    b.movi(1, 0);
    b.movi(2, static_cast<SWord>(iters));
    b.movi(3, 5000);
    b.label("loop");
    b.addi(1, 1, 1);
    b.store(3, 1);
    b.bltu(1, 2, "loop");
    b.halt();
    return b.build();
}

TEST(Injector, FullLifecycleInjectsAndDetects)
{
    auto program = spinProgram(5000);
    sim::MulticoreSystem system(sim::MachineConfig::tableI(2), program);

    auto plan = FaultPlan::uniform(1, 10000, 100, 9);
    StatSet stats;
    ErrorInjector injector(plan, stats);
    EXPECT_FALSE(injector.done());

    std::optional<DetectionEvent> detection;
    while (!system.allHalted() && !detection) {
        system.step();
        detection = injector.poll(system);
    }
    ASSERT_TRUE(detection.has_value());
    EXPECT_GE(detection->detectTime,
              detection->errorTime + plan.detectionLatency);
    EXPECT_EQ(injector.injected(), 1u);
    EXPECT_EQ(injector.detected(), 1u);
    EXPECT_TRUE(injector.done());
    EXPECT_DOUBLE_EQ(stats.get("fault.injected"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("fault.detected"), 1.0);
}

TEST(Injector, CorruptionActuallyChangesAValue)
{
    auto program = spinProgram(2000);
    // Golden final state.
    sim::MulticoreSystem golden(sim::MachineConfig::tableI(1), program);
    golden.runToCompletion();

    sim::MulticoreSystem system(sim::MachineConfig::tableI(1), program);
    auto plan = FaultPlan::uniform(1, 2000 * 3, 1u << 30, 9);
    StatSet stats;
    ErrorInjector injector(plan, stats);
    // Detection latency is huge: the program finishes corrupted, and
    // detection fires at the (halted) end.
    std::optional<DetectionEvent> detection;
    while (!detection) {
        system.step();
        detection = injector.poll(system);
        if (system.allHalted() && !detection)
            detection = injector.poll(system);
        if (system.allHalted() && !detection)
            break;
    }
    ASSERT_TRUE(detection.has_value());
    EXPECT_NE(golden.memory().read(5000), system.memory().read(5000))
        << "the corrupted counter value must reach memory";
}

TEST(Injector, MultipleErrorsFireInOrder)
{
    auto program = spinProgram(20000);
    sim::MulticoreSystem system(sim::MachineConfig::tableI(2), program);
    auto plan = FaultPlan::uniform(3, 60000, 10, 11);
    StatSet stats;
    ErrorInjector injector(plan, stats);

    unsigned detections = 0;
    Cycle last_error = 0;
    // poll() always advances its state machine once everything halted
    // (latent -> detect, armed -> reschedule/drop, idle with an
    // unreachable trigger -> drop), so this terminates.
    while (!(system.allHalted() && injector.done())) {
        if (!system.allHalted())
            system.step();
        if (auto d = injector.poll(system)) {
            ++detections;
            EXPECT_GE(d->errorTime, last_error);
            last_error = d->errorTime;
        }
    }
    // Without recovery, a corruption may truncate the execution so a
    // later trigger becomes unreachable and is dropped; every planned
    // error is accounted for either way.
    EXPECT_EQ(detections + injector.dropped(), 3u);
    EXPECT_GE(detections, 1u);
    EXPECT_EQ(detections, injector.detected());
}

TEST(Injector, NoErrorsMeansImmediatelyDone)
{
    auto plan = FaultPlan::uniform(0, 100, 1, 1);
    StatSet stats;
    ErrorInjector injector(plan, stats);
    EXPECT_TRUE(injector.done());
}

TEST(Injector, ForceDetectionDropsAnArmedErrorExactlyOnce)
{
    auto program = spinProgram(5000);
    sim::MulticoreSystem system(sim::MachineConfig::tableI(2), program);
    auto plan = FaultPlan::uniform(1, 10000, 100, 9);
    StatSet stats;
    ErrorInjector injector(plan, stats);

    // Reach the trigger, then poll once: the corruption is armed on a
    // victim core but not yet applied.
    while (system.progress() < plan.events[0].progressTrigger)
        system.step();
    EXPECT_FALSE(injector.poll(system).has_value());
    ASSERT_EQ(injector.injected(), 0u) << "must still be armed";
    EXPECT_FALSE(injector.done());

    // The watchdog path drops an armed (never-applied) error: no
    // detection, dropped_ bumps exactly once, and the injector
    // converges to done().
    EXPECT_FALSE(injector.forceDetection(system).has_value());
    EXPECT_EQ(injector.dropped(), 1u);
    EXPECT_EQ(injector.detected(), 0u);
    EXPECT_TRUE(injector.done());
    EXPECT_DOUBLE_EQ(stats.get("fault.dropped"), 1.0);

    // Idempotent once idle: a second force must not double-count.
    EXPECT_FALSE(injector.forceDetection(system).has_value());
    EXPECT_EQ(injector.dropped(), 1u);
    EXPECT_DOUBLE_EQ(stats.get("fault.dropped"), 1.0);
    EXPECT_TRUE(injector.done());
}

TEST(Injector, ForceDetectionSurfacesALatentError)
{
    auto program = spinProgram(5000);
    sim::MulticoreSystem system(sim::MachineConfig::tableI(2), program);
    // Latency far beyond the run: without forcing, detection would
    // only fire at halt.
    auto plan = FaultPlan::uniform(1, 10000, 1u << 30, 9);
    StatSet stats;
    ErrorInjector injector(plan, stats);

    // Run until the corruption is applied (latent). A step is a whole
    // scheduling quantum, so the corrupted victim may halt within the
    // same poll that applies the corruption — in which case poll
    // itself surfaces the detection (halted + latent).
    std::optional<DetectionEvent> detection;
    while (injector.injected() == 0 && !detection) {
        ASSERT_FALSE(system.allHalted());
        system.step();
        detection = injector.poll(system);
    }

    // The watchdog path surfaces the latent error without waiting out
    // the (enormous) detection latency.
    if (!detection)
        detection = injector.forceDetection(system);
    ASSERT_TRUE(detection.has_value());
    EXPECT_GE(detection->detectTime, detection->errorTime);
    EXPECT_EQ(injector.detected(), 1u);
    EXPECT_EQ(injector.dropped(), 0u);
    EXPECT_TRUE(injector.done());
    EXPECT_DOUBLE_EQ(stats.get("fault.detected"), 1.0);

    // Idle injector: a second force is a no-op, nothing double-counts.
    EXPECT_FALSE(injector.forceDetection(system).has_value());
    EXPECT_EQ(injector.detected(), 1u);
    EXPECT_DOUBLE_EQ(stats.get("fault.detected"), 1.0);
}

TEST(Injector, DoneConvergesWhenTheLastEventCanNeverFire)
{
    auto program = spinProgram(50);
    sim::MulticoreSystem system(sim::MachineConfig::tableI(1), program);
    // One event triggered far past the short program's total progress:
    // it can never occur.
    auto plan = FaultPlan::uniform(1, 1u << 30, 10, 9);
    StatSet stats;
    ErrorInjector injector(plan, stats);

    while (!system.allHalted()) {
        system.step();
        EXPECT_FALSE(injector.poll(system).has_value());
    }
    // The poll on the halted system (in-loop above on the final step)
    // accounts the unreachable event as dropped; the injector
    // converges instead of spinning, and further polls on the idle
    // injector must not double-count.
    EXPECT_FALSE(injector.poll(system).has_value());
    EXPECT_TRUE(injector.done());
    EXPECT_EQ(injector.dropped(), 1u);
    EXPECT_DOUBLE_EQ(stats.get("fault.dropped"), 1.0);
    EXPECT_FALSE(injector.poll(system).has_value());
    EXPECT_EQ(injector.dropped(), 1u);
    EXPECT_DOUBLE_EQ(stats.get("fault.dropped"), 1.0);
}

TEST(FaultPlan, CountZeroNeedsNoProgress)
{
    // An error-free plan must be constructible before any profile
    // exists (total_progress == 0 is fine when nothing will trigger).
    auto plan = FaultPlan::uniform(0, 0, 0, 1);
    EXPECT_TRUE(plan.events.empty());
    StatSet stats;
    ErrorInjector injector(plan, stats);
    EXPECT_TRUE(injector.done());
}

TEST(FaultPlan, MoreErrorsThanProgressCollides)
{
    // count > total_progress forces colliding triggers; the plan must
    // stay monotonic with every mask usable (never 0).
    auto plan = FaultPlan::uniform(10, 4, 1, 5);
    ASSERT_EQ(plan.events.size(), 10u);
    for (std::size_t i = 1; i < plan.events.size(); ++i)
        EXPECT_GE(plan.events[i].progressTrigger,
                  plan.events[i - 1].progressTrigger);
    for (const auto &event : plan.events) {
        EXPECT_LT(event.progressTrigger, 4u);
        EXPECT_NE(event.xorMask, 0u);
    }
    // Same seed, same collisions: the plan is a pure function of its
    // arguments.
    auto again = FaultPlan::uniform(10, 4, 1, 5);
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        EXPECT_EQ(plan.events[i].progressTrigger,
                  again.events[i].progressTrigger);
        EXPECT_EQ(plan.events[i].xorMask, again.events[i].xorMask);
    }
}

TEST(FaultPlan, XorMaskNeverZeroAcrossSeeds)
{
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        auto plan = FaultPlan::uniform(5, 1000, 1, seed);
        for (const auto &event : plan.events)
            EXPECT_NE(event.xorMask, 0u) << "seed " << seed;
    }
}

TEST(FaultPlan, MaskedProjectsEventsByOrdinal)
{
    auto plan = FaultPlan::uniform(4, 1000, 50, 7);

    auto all = plan.masked(~std::uint64_t{0});
    ASSERT_EQ(all.events.size(), 4u);

    auto middle = plan.masked(0b0110);
    ASSERT_EQ(middle.events.size(), 2u);
    EXPECT_EQ(middle.events[0].progressTrigger,
              plan.events[1].progressTrigger);
    EXPECT_EQ(middle.events[0].xorMask, plan.events[1].xorMask);
    EXPECT_EQ(middle.events[1].progressTrigger,
              plan.events[2].progressTrigger);
    // Ordinals survive projection, so a masked event keeps its
    // round-robin victim identity — the shrunk repro replays the same
    // (victim, trigger, mask) tuples as the full campaign.
    EXPECT_EQ(middle.events[0].ordinal, 1u);
    EXPECT_EQ(middle.events[1].ordinal, 2u);
    EXPECT_EQ(middle.detectionLatency, plan.detectionLatency);

    // Masking is deterministic and composes like set intersection.
    auto one = middle.masked(0b0100);
    ASSERT_EQ(one.events.size(), 1u);
    EXPECT_EQ(one.events[0].ordinal, 2u);
}

TEST(Injector, OverlappingLatentWindowsTrackTwoErrorsAtOnce)
{
    auto program = spinProgram(20000);
    sim::MulticoreSystem system(sim::MachineConfig::tableI(2), program);
    // Two triggers one progress step apart with an enormous latency:
    // both corruptions go latent together.
    FaultPlan plan;
    plan.detectionLatency = 1u << 30;
    plan.events.push_back({100, 1, 0});
    plan.events.push_back({101, 1, 1});
    StatSet stats;
    ErrorInjector injector(plan, stats);

    while (injector.injected() < 2 && !system.allHalted()) {
        system.step();
        injector.poll(system);
    }
    EXPECT_EQ(injector.injected(), 2u);
    EXPECT_EQ(injector.latentCount(), 2u)
        << "both errors latent concurrently (the single-Phase machine "
           "could only hold one)";
    EXPECT_EQ(injector.detected(), 0u);

    // Detections surface one per poll, earliest error first.
    auto first = injector.forceDetection(system);
    ASSERT_TRUE(first.has_value());
    auto second = injector.forceDetection(system);
    ASSERT_TRUE(second.has_value());
    EXPECT_LE(first->errorTime, second->errorTime);
    EXPECT_EQ(injector.detected(), 2u);
    EXPECT_TRUE(injector.done());
}

TEST(Injector, OnRecoveryRequeuesErrorsTheRollbackErased)
{
    auto program = spinProgram(20000);
    sim::MulticoreSystem system(sim::MachineConfig::tableI(2), program);
    FaultPlan plan;
    plan.detectionLatency = 1u << 30;
    plan.events.push_back({100, 1, 0});
    StatSet stats;
    ErrorInjector injector(plan, stats);

    while (injector.injected() < 1 && !system.allHalted()) {
        system.step();
        injector.poll(system);
    }
    ASSERT_EQ(injector.latentCount(), 1u);

    // A rollback of every core to a checkpoint established before the
    // error erases the corruption: the event must return to pending
    // (and count as requeued), then fire again.
    injector.onRecovery(system.allCoresMask(), 0);
    EXPECT_EQ(injector.requeued(), 1u);
    EXPECT_EQ(injector.latentCount(), 0u);
    EXPECT_FALSE(injector.done());
    EXPECT_DOUBLE_EQ(stats.get("fault.requeued"), 1.0);

    while (injector.injected() < 2 && !system.allHalted()) {
        system.step();
        injector.poll(system);
    }
    EXPECT_EQ(injector.injected(), 2u) << "the requeued error re-fires";
    EXPECT_EQ(injector.latentCount(), 1u);

    // A rollback that resumes past the error time keeps it latent:
    // the corruption survived, so re-posting it would double-inject.
    injector.onRecovery(system.allCoresMask(),
                        system.maxCycle() + 1000000);
    EXPECT_EQ(injector.requeued(), 1u);
    EXPECT_EQ(injector.latentCount(), 1u);
}

TEST(StorageFaultPlan, UniformIsSeedDeterministicAndInRange)
{
    const std::vector<StorageFaultKind> kinds = {
        StorageFaultKind::kRecordFlip, StorageFaultKind::kArchFlip,
        StorageFaultKind::kTornGroup};
    auto a = StorageFaultPlan::uniform(6, 5, kinds, 42);
    auto b = StorageFaultPlan::uniform(6, 5, kinds, 42);
    auto c = StorageFaultPlan::uniform(6, 5, kinds, 43);

    ASSERT_EQ(a.events.size(), 6u);
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        // Pure function of its arguments: same seed, same plan.
        EXPECT_EQ(a.events[i].ckptIndex, b.events[i].ckptIndex);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].xorMask, b.events[i].xorMask);
        EXPECT_EQ(a.events[i].pick, b.events[i].pick);
        EXPECT_EQ(a.events[i].ordinal, i);
        // Every event lands on a real establishment ordinal (1-based)
        // with a usable flip mask.
        EXPECT_GE(a.events[i].ckptIndex, 1u);
        EXPECT_LE(a.events[i].ckptIndex, 5u);
        EXPECT_NE(a.events[i].xorMask, 0u);
        // Ordinals spread monotonically, like FaultPlan's triggers.
        if (i > 0) {
            EXPECT_GE(a.events[i].ckptIndex,
                      a.events[i - 1].ckptIndex);
        }
    }
    bool any_diff = false;
    for (std::size_t i = 0; i < a.events.size(); ++i)
        any_diff = any_diff || a.events[i].xorMask != c.events[i].xorMask
                   || a.events[i].kind != c.events[i].kind;
    EXPECT_TRUE(any_diff) << "a different seed draws a different plan";
}

TEST(StorageFaultPlan, KindsDrawOnlyFromTheMediumsFailureModes)
{
    const std::vector<StorageFaultKind> kinds = {
        StorageFaultKind::kTornGroup};
    auto plan = StorageFaultPlan::uniform(8, 4, kinds, 7);
    for (const auto &event : plan.events)
        EXPECT_EQ(event.kind, StorageFaultKind::kTornGroup);
}

TEST(StorageFaultPlan, MaskedProjectsEventsByOrdinal)
{
    const std::vector<StorageFaultKind> kinds = {
        StorageFaultKind::kRecordFlip, StorageFaultKind::kArchFlip};
    auto plan = StorageFaultPlan::uniform(4, 5, kinds, 9);

    auto all = plan.masked(~std::uint64_t{0});
    ASSERT_EQ(all.events.size(), 4u);

    auto middle = plan.masked(0b0110);
    ASSERT_EQ(middle.events.size(), 2u);
    EXPECT_EQ(middle.events[0].ckptIndex, plan.events[1].ckptIndex);
    EXPECT_EQ(middle.events[0].xorMask, plan.events[1].xorMask);
    EXPECT_EQ(middle.events[0].pick, plan.events[1].pick);
    // Ordinals survive projection: the shrunk storage repro replays
    // the same (ordinal, target, mask) tuples as the full campaign.
    EXPECT_EQ(middle.events[0].ordinal, 1u);
    EXPECT_EQ(middle.events[1].ordinal, 2u);

    // Masking composes like set intersection.
    auto one = middle.masked(0b0100);
    ASSERT_EQ(one.events.size(), 1u);
    EXPECT_EQ(one.events[0].ordinal, 2u);
}

TEST(StorageFaultInjector, DealsEventsByEstablishmentOrdinal)
{
    const std::vector<StorageFaultKind> kinds = {
        StorageFaultKind::kRecordFlip};
    auto plan = StorageFaultPlan::uniform(4, 2, kinds, 11);
    StatSet stats;
    StorageFaultInjector injector(plan, stats);
    EXPECT_EQ(injector.planned(), 4u);
    EXPECT_EQ(injector.pending(), 4u);

    // takeDue consumes exactly the events keyed to that ordinal; an
    // ordinal with no events yields nothing, and dealing is one-shot.
    std::size_t dealt = 0;
    for (std::uint64_t index = 1; index <= 2; ++index) {
        const auto due = injector.takeDue(index);
        for (const auto &event : due) {
            EXPECT_EQ(event.ckptIndex, index);
            ++dealt;
        }
        EXPECT_TRUE(injector.takeDue(index).empty());
    }
    EXPECT_EQ(dealt, 4u);
    EXPECT_EQ(injector.pending(), 0u);

    injector.noteInjected();
    injector.noteDropped();
    EXPECT_DOUBLE_EQ(stats.get("storage.injected"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("storage.dropped"), 1.0);
}

} // namespace
} // namespace acr::fault
