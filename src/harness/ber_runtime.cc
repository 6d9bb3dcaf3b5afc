#include "harness/ber_runtime.hh"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "acr/acr_engine.hh"
#include "common/logging.hh"
#include "energy/energy_model.hh"
#include "fault/injector.hh"
#include "fault/storage_fault.hh"
#include "sim/system.hh"
#include "slice/engine.hh"
#include "slice/relevance.hh"
#include "validate/recovery_oracle.hh"

namespace acr::harness
{

namespace
{

/** Fans instruction events out to the slicer, the checkpoint logger,
 *  and ACR's ASSOC-ADDR handling, in dependency order. */
class DriverObserver final : public cpu::ExecObserver
{
  public:
    /** Watches every store of @p program and, when @p slicer is given,
     *  the results that can reach a hinted store, the only stores that
     *  build (slice/relevance.hh). */
    DriverObserver(ckpt::CheckpointManager &manager,
                   amnesic::AcrEngine *acr, slice::SliceEngine *slicer,
                   const isa::Program &program)
        : manager_(manager), acr_(acr), slicer_(slicer)
    {
        std::vector<std::uint8_t> mask =
            slicer_ ? slice::relevantPcs(program,
                                         slice::BuildingStores::kHinted)
                    : std::vector<std::uint8_t>(program.size(), 0);
        markStores(program, mask);
        watchOnly(std::move(mask));
    }

    void
    onInstr(const cpu::InstrEvent &event) override
    {
        if (isa::isStore(event.inst->op)) {
            // The logging decision must see the producer map as of
            // *before* this store (the old value's producer), so the
            // manager runs first and the ASSOC-ADDR update second.
            manager_.onStore(event.core, event.addr, event.oldValue);
            if (acr_)
                acr_->onStoreRetired(event);
            return;
        }
        slicer_->observe(event);
    }

  private:
    ckpt::CheckpointManager &manager_;
    amnesic::AcrEngine *acr_;
    slice::SliceEngine *slicer_;
};

} // namespace

ExperimentResult
BerRuntime::run(const isa::Program &program,
                const sim::MachineConfig &machine,
                const ExperimentConfig &config,
                const amnesic::SlicePassResult &profile,
                PrefixHandle *prefix)
{
    const std::string invalid = config.validate();
    ACR_ASSERT(invalid.empty(), "invalid ExperimentConfig: %s",
               invalid.c_str());
    ACR_ASSERT(profile.totalProgress > 0, "profile has no progress");

    ExperimentResult result;
    StatSet &stats = result.stats;

    // A NoCkpt run replays the slice pass step for step: same program,
    // same machine, and an observer that never perturbs timing. The
    // pass already recorded everything such a run would measure
    // (cycles, exported counters, the final image), so answer from the
    // profile instead of re-simulating. Final-state verification holds
    // trivially — the reference image *is* this execution's image —
    // and validate() rejects every NoCkpt config that could diverge
    // (errors, the oracle, storage faults, a non-log backend).
    if (config.mode == BerMode::kNoCkpt) {
        result.stats = profile.stats;
        stats.set("sim.numCores", static_cast<double>(machine.numCores));
        energy::EnergyModel energy_model;
        result.energyPj = energy_model.annotate(stats);
        result.cycles = profile.cycles;
        result.edp =
            energy::EnergyModel::edp(result.energyPj, result.cycles);
        result.recoveries =
            static_cast<std::uint64_t>(stats.get("rec.recoveries"));
        return result;
    }

    sim::MulticoreSystem system(machine, program);

    // --- Optional ACR machinery ---
    std::unique_ptr<slice::SliceEngine> slicer;
    std::unique_ptr<amnesic::AcrEngine> acr;
    if (config.mode == BerMode::kReCkpt) {
        slice::SlicePolicyConfig policy;
        policy.policy = config.policy;
        policy.lengthThreshold = config.sliceThreshold;
        slicer = std::make_unique<slice::SliceEngine>(machine.numCores,
                                                      policy);
        amnesic::AcrConfig acr_config;
        acr_config.retentionIntervals = config.addrMapRetention;
        acr = std::make_unique<amnesic::AcrEngine>(acr_config, *slicer,
                                                   stats);
    }

    // --- Recovery validation (DESIGN.md §12.1) ---
    // Every run's oracle audits recomputation and checks the final
    // image; config.oracle arms its shadow hooks on top. Both check
    // against the profile's golden track.
    validate::RecoveryOracle oracle(system, profile.goldenTrack, stats);

    // --- Checkpoint substrate ---
    ckpt::CheckpointManager manager({config.coordination, config.backend},
                                    system, acr.get(), oracle, stats);
    manager.initialCheckpoint();

    // --- Storage-fault injection (DESIGN.md §16) ---
    std::unique_ptr<fault::StorageFaultInjector> storage_faults;
    if (config.storageErrors > 0) {
        // Ordinal-keyed against establishment, seeded off the compute-
        // error seed (salted so the two plans draw independent
        // streams) and shrinkable through storageFaultMask exactly
        // like the compute plan through faultEventMask.
        auto plan = fault::StorageFaultPlan::uniform(
                        config.storageErrors, config.numCheckpoints,
                        ckpt::storageFaultKinds(config.backend),
                        config.seed ^ 0x5704a6e'fa017ULL)
                        .masked(config.storageFaultMask);
        storage_faults = std::make_unique<fault::StorageFaultInjector>(
            plan, stats);
        manager.setStorageFaults(storage_faults.get());
    }
    if (config.oracle)
        oracle.onInitialCheckpoint(manager);

    // --- Error injection ---
    const std::uint64_t period =
        profile.totalProgress / (config.numCheckpoints + 1);
    const Cycle period_cycles =
        profile.cycles / (config.numCheckpoints + 1);
    std::unique_ptr<fault::ErrorInjector> injector;
    // The injector is a no-op below its earliest trigger, so up to it
    // this run is instruction-identical to an error-free one.
    std::uint64_t first_trigger = ~std::uint64_t{0};
    if (config.numErrors > 0) {
        Cycle latency = static_cast<Cycle>(
            config.detectionLatencyFraction *
            static_cast<double>(period_cycles));
        auto plan = fault::FaultPlan::uniform(config.numErrors,
                                              profile.totalProgress,
                                              latency, config.seed)
                        .masked(config.faultEventMask);
        for (const fault::FaultPlan::Event &event : plan.events)
            first_trigger = std::min(first_trigger, event.progressTrigger);
        injector = std::make_unique<fault::ErrorInjector>(plan, stats);
    }

    DriverObserver observer(manager, acr.get(), slicer.get(), program);

    // No rollback target could be restored (storage faults defeated
    // every escalation rung, or none was safe): the modeled machine is
    // lost and the run stops at the failed recovery with a structured
    // outcome (DESIGN.md §16).
    bool lost = false;

    auto handle_detection = [&](const fault::DetectionEvent &detection) {
        if (config.oracle)
            oracle.beforeRecovery(manager);
        auto outcome = manager.recover(detection.core,
                                       detection.errorTime,
                                       detection.detectTime);
        if (config.oracle)
            oracle.afterRecovery(manager, outcome, detection.errorTime);
        if (outcome.unrecoverable) {
            result.unrecoverable = true;
            result.unrecoverableDetail = outcome.failureDetail;
            lost = true;
            return outcome;  // no resume: the machine state is gone
        }
        // Corruptions the rollback erased must be re-posted, or a
        // multi-error plan would wait forever on a dead corruption.
        if (injector)
            injector->onRecovery(outcome.affected,
                                 outcome.targetEstablishedAt);
        // Producer chains of rolled-back cores are stale; reseed the
        // slicer from the restored register files.
        if (slicer) {
            for (CoreId c = 0; c < system.numCores(); ++c) {
                if (!(outcome.affected & (cache::SharerMask{1} << c)))
                    continue;
                std::array<Word, isa::kNumRegs> regs;
                for (unsigned r = 0; r < isa::kNumRegs; ++r)
                    regs[r] = system.core(c).reg(r);
                slicer->resetCore(c, regs);
            }
        }
        return outcome;
    };

    std::uint64_t next_ckpt = period;

    // --- Prefix sharing (DESIGN.md §13.6) ---
    // The snapshot covers every component above except those keeping
    // shadow state of their own from cycle 0: the oracle's shadow
    // hooks, the storage-fault integrity layer (per-checkpoint
    // checksums and armed corruptions) and a non-log store. A run
    // without them resumes from the offered snapshot when the snapshot
    // stops at or below its first trigger, and otherwise captures one
    // there. Resuming overwrites the freshly built components and
    // substitutes the snapshot's saved step result for the first
    // iteration's stepWith().
    std::uint64_t capture_at = 0;  // 0: no capture pending
    bool resume_pending = false;
    if (prefix && !config.oracle && !storage_faults &&
        config.backend == ckpt::Backend::kLog) {
        if (prefix->offer && prefix->offer->stopProgress <= first_trigger) {
            resumePrefix(*prefix->offer, system, next_ckpt, stats,
                         slicer.get(), acr.get(), manager);
            prefix->resumed = true;
            resume_pending = true;
        } else if (first_trigger != ~std::uint64_t{0}) {
            capture_at = first_trigger;
        }
    }

    while (true) {
        sim::SystemState state;
        if (resume_pending) {
            state = prefix->offer->stepState;
            resume_pending = false;
        } else {
            state = system.stepWith(&observer);
        }

        // Capture: the first step at or past the threshold, *before*
        // this iteration's injector poll — every pre-capture poll
        // happened strictly below the threshold, so any run whose
        // first trigger is >= capture_at reaches this exact state.
        if (capture_at != 0 && system.progress() >= capture_at) {
            prefix->captured = std::make_shared<const PrefixSnapshot>(
                capturePrefix(capture_at, system, state, next_ckpt,
                              stats, slicer.get(), acr.get(), manager));
            capture_at = 0;
        }

        if (injector) {
            if (auto detection = injector->poll(system)) {
                auto outcome = handle_detection(*detection);
                if (lost)
                    break;
                next_ckpt = outcome.progressAt + period;
                continue;
            }
        }

        if (state == sim::SystemState::kBlocked) {
            // A corrupted value wrecked control flow badly enough to
            // wedge a barrier rendezvous: the watchdog detects the
            // error now (Sec. II-A: detection need not be instantaneous
            // but must happen within the checkpoint period).
            std::optional<fault::DetectionEvent> detection;
            if (injector)
                detection = injector->forceDetection(system);
            if (!detection) {
                panic("system wedged without an injected error in "
                      "flight: program '%s' has divergent barriers",
                      program.name().c_str());
            }
            auto outcome = handle_detection(*detection);
            if (lost)
                break;
            next_ckpt = outcome.progressAt + period;
            continue;
        }

        if (system.progress() >= next_ckpt && !system.allHalted()) {
            bool defer = false;
            if (config.placement == PlacementPolicy::kRecomputeAware &&
                acr && profile.dynamicStores > 0) {
                // Defer while the open interval is recomputation-poor
                // relative to the program's profiled slice coverage,
                // up to the slack bound (Sec. V-D1's observation).
                const auto &log = manager.openLog();
                double coverage =
                    static_cast<double>(profile.sliceableStores) /
                    static_cast<double>(profile.dynamicStores);
                double ratio =
                    log.totalRecords() == 0
                        ? 1.0
                        : static_cast<double>(log.amnesicRecords()) /
                              static_cast<double>(log.totalRecords());
                // Max deferral, as a fraction of the period.
                constexpr double kPlacementSlack = 0.3;
                std::uint64_t limit =
                    next_ckpt + static_cast<std::uint64_t>(
                                    kPlacementSlack *
                                    static_cast<double>(period));
                defer = ratio < coverage && system.progress() < limit;
                if (defer)
                    stats.add("ckpt.placementDeferrals");
            }
            if (!defer) {
                manager.establish();
                if (config.oracle)
                    oracle.onEstablish(
                        manager, injector ? injector->latentCount() : 0);
                next_ckpt += period;
            }
        }

        if (state == sim::SystemState::kAllHalted) {
            // Flush any error still in flight (a halted victim forces
            // detection; recovery revives the rolled-back cores).
            if (injector && !injector->done()) {
                if (auto detection = injector->poll(system)) {
                    auto outcome = handle_detection(*detection);
                    if (lost)
                        break;
                    next_ckpt = outcome.progressAt + period;
                    continue;
                }
                if (!injector->done())
                    continue;  // injector advanced (drop/reschedule)
            }
            break;
        }
    }

    // --- Verification: recovery must be transparent ---
    // A diverged final image is a structured finding (exit 4
    // upstream). An unrecoverable run never reached its final state —
    // there is nothing to verify; the structured outcome (exit 5
    // upstream) is the verdict.
    if (!result.unrecoverable)
        oracle.onFinalImage(profile.finalImage);

    // --- Results ---
    system.exportStats(stats);
    stats.set("sim.numCores", static_cast<double>(machine.numCores));
    if (acr)
        acr->exportStats();

    energy::EnergyModel energy_model;
    result.energyPj = energy_model.annotate(stats);
    result.cycles = system.maxCycle();
    result.edp = energy::EnergyModel::edp(result.energyPj, result.cycles);
    result.checkpointsEstablished = manager.checkpointsEstablished();
    result.history = manager.history();
    for (const auto &interval : result.history) {
        result.ckptBytesStored += interval.storedBytes();
        result.ckptBytesOmitted += interval.omittedBytes;
    }
    result.recoveries =
        static_cast<std::uint64_t>(stats.get("rec.recoveries"));
    result.oracleDivergences =
        static_cast<std::uint64_t>(stats.get("oracle.divergences"));
    result.oracleReport = oracle.report();
    return result;
}

} // namespace acr::harness
