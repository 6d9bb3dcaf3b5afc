#include "harness/ber_runtime.hh"

#include <memory>

#include "acr/acr_engine.hh"
#include "common/logging.hh"
#include "energy/energy_model.hh"
#include "fault/injector.hh"
#include "fault/storage_fault.hh"
#include "sim/system.hh"
#include "slice/engine.hh"
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
    DriverObserver(ckpt::CheckpointManager *manager,
                   amnesic::AcrEngine *acr, slice::SliceEngine *slicer)
        : manager_(manager), acr_(acr), slicer_(slicer)
    {
    }

    void
    onInstr(const cpu::InstrEvent &event) override
    {
        if (isa::isStore(event.inst->op)) {
            // The logging decision must see the producer map as of
            // *before* this store (the old value's producer), so the
            // manager runs first and the ASSOC-ADDR update second.
            if (manager_)
                manager_->onStore(event.core, event.addr, event.oldValue);
            if (acr_)
                acr_->onStoreRetired(event);
            return;
        }
        if (slicer_)
            slicer_->observe(event);
    }

  private:
    ckpt::CheckpointManager *manager_;
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
    ACR_ASSERT(profile.totalProgress > 0, "profile has no progress");

    ExperimentResult result;
    StatSet &stats = result.stats;

    // An error-free NoCkpt run replays the slice pass step for step:
    // same program, same machine, and an observer that never perturbs
    // timing. The pass already recorded everything such a run would
    // measure (cycles, exported counters, the final image), so answer
    // from the profile instead of re-simulating. Final-state
    // verification holds trivially — the reference image *is* this
    // execution's image. The guards keep every config that could
    // diverge (errors, oracle) on the full simulation path; NoCkpt
    // configs reject most of those anyway.
    if (config.mode == BerMode::kNoCkpt && config.numErrors == 0 &&
        !config.oracle) {
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

    // --- Checkpoint substrate ---
    std::unique_ptr<ckpt::CheckpointManager> manager;
    if (config.mode != BerMode::kNoCkpt) {
        ckpt::CheckpointManager::Config mgr_config;
        mgr_config.mode = config.coordination;
        mgr_config.backend = config.backend;
        manager = std::make_unique<ckpt::CheckpointManager>(
            mgr_config, system, acr.get(), stats);
        manager->initialCheckpoint();
    }

    // --- Storage-fault injection (DESIGN.md §16) ---
    std::unique_ptr<fault::StorageFaultInjector> storage_faults;
    if (config.storageErrors > 0) {
        ACR_ASSERT(manager != nullptr,
                   "storage faults require a checkpointing mode");
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
        manager->setStorageFaults(storage_faults.get());
    }

    // --- Recovery validation (oracle) ---
    std::unique_ptr<validate::RecoveryOracle> oracle;
    if (config.oracle) {
        ACR_ASSERT(manager != nullptr,
                   "the oracle requires a checkpointing mode");
        oracle = std::make_unique<validate::RecoveryOracle>(
            system, machine, config.coordination, stats);
        manager->setAuditor(oracle.get());
        oracle->onInitialCheckpoint(*manager);
    }

    // --- Error injection ---
    const std::uint64_t period =
        profile.totalProgress / (config.numCheckpoints + 1);
    const Cycle period_cycles =
        profile.cycles / (config.numCheckpoints + 1);
    std::unique_ptr<fault::ErrorInjector> injector;
    if (config.numErrors > 0) {
        ACR_ASSERT(manager != nullptr,
                   "errors require a checkpointing mode");
        Cycle latency = static_cast<Cycle>(
            config.detectionLatencyFraction *
            static_cast<double>(period_cycles));
        auto plan = fault::FaultPlan::uniform(config.numErrors,
                                              profile.totalProgress,
                                              latency, config.seed)
                        .masked(config.faultEventMask);
        injector = std::make_unique<fault::ErrorInjector>(plan, stats);
    }

    DriverObserver observer(manager.get(), acr.get(), slicer.get());

    // Storage faults defeated every escalation rung mid-rollback: the
    // modeled machine is lost and the run stops at the failed
    // recovery with a structured outcome (DESIGN.md §16).
    bool lost = false;

    auto handle_detection = [&](const fault::DetectionEvent &detection) {
        if (oracle)
            oracle->beforeRecovery(*manager);
        auto outcome = manager->recover(detection.core,
                                        detection.errorTime,
                                        detection.detectTime);
        if (oracle)
            oracle->afterRecovery(*manager, outcome);
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

    std::uint64_t next_ckpt = manager ? period : ~std::uint64_t{0};

    // --- Prefix sharing (DESIGN.md §13) ---
    // Resume: overwrite the freshly built components with the donor
    // snapshot and substitute its saved step result for the first
    // iteration's stepWith(). The Runner guarantees eligibility (no
    // oracle, stateless backend, trigger >= snapshot).
    bool resume_pending = false;
    if (prefix && prefix->resume) {
        ACR_ASSERT(manager && !oracle,
                   "prefix resume with an ineligible configuration");
        resumePrefix(*prefix->resume, system, next_ckpt, stats,
                     slicer.get(), acr.get(), *manager);
        resume_pending = true;
    }

    while (true) {
        sim::SystemState state;
        if (resume_pending) {
            state = prefix->resume->stepState;
            resume_pending = false;
        } else {
            state = system.stepWith(&observer);
        }

        // Capture: the first step at or past the threshold, *before*
        // this iteration's injector poll — every pre-capture poll
        // happened strictly below the threshold, so any run whose
        // first trigger is >= captureAt reaches this exact state.
        if (prefix && prefix->captureAt != 0 && !prefix->captured &&
            manager && system.progress() >= prefix->captureAt) {
            prefix->captured = std::make_shared<PrefixSnapshot>(
                capturePrefix(prefix->captureAt, system, state,
                              next_ckpt, stats, slicer.get(), acr.get(),
                              *manager));
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

        if (manager && system.progress() >= next_ckpt &&
            !system.allHalted()) {
            bool defer = false;
            if (config.placement == PlacementPolicy::kRecomputeAware &&
                acr && profile.dynamicStores > 0) {
                // Defer while the open interval is recomputation-poor
                // relative to the program's profiled slice coverage,
                // up to the slack bound (Sec. V-D1's observation).
                const auto &log = manager->openLog();
                double coverage =
                    static_cast<double>(profile.sliceableStores) /
                    static_cast<double>(profile.dynamicStores);
                double ratio =
                    log.totalRecords() == 0
                        ? 1.0
                        : static_cast<double>(log.amnesicRecords()) /
                              static_cast<double>(log.totalRecords());
                std::uint64_t limit =
                    next_ckpt + static_cast<std::uint64_t>(
                                    config.placementSlack *
                                    static_cast<double>(period));
                defer = ratio < coverage && system.progress() < limit;
                if (defer)
                    stats.add("ckpt.placementDeferrals");
            }
            if (!defer) {
                manager->establish();
                if (oracle)
                    oracle->onEstablish(
                        *manager,
                        injector ? injector->latentCount() : 0);
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
    // An unrecoverable run never reached its final state — there is
    // nothing to verify against the reference; the structured outcome
    // (exit 5 upstream) is the verdict.
    if (config.verifyFinalState && !result.unrecoverable) {
        if (oracle) {
            // With the oracle on, a diverged final image is one more
            // structured finding, not a process abort.
            oracle->onFinalImage(profile.finalImage);
        } else {
            auto image = system.memory().image();
            if (image != profile.finalImage) {
                Addr bad = kInvalidAddr;
                for (const auto &[addr, value] : profile.finalImage) {
                    auto it = image.find(addr);
                    if (it == image.end() || it->second != value) {
                        bad = addr;
                        break;
                    }
                }
                panic("%s: final state diverged from the error-free "
                      "reference (first bad addr %llu)",
                      config.label().c_str(),
                      static_cast<unsigned long long>(bad));
            }
        }
    }

    // --- Results ---
    system.exportStats(stats);
    stats.set("sim.numCores", static_cast<double>(machine.numCores));
    if (acr)
        acr->exportStats();

    energy::EnergyModel energy_model;
    result.energyPj = energy_model.annotate(stats);
    result.cycles = system.maxCycle();
    result.edp = energy::EnergyModel::edp(result.energyPj, result.cycles);
    if (manager) {
        result.checkpointsEstablished = manager->checkpointsEstablished();
        result.history = manager->history();
        for (const auto &interval : result.history) {
            result.ckptBytesStored += interval.storedBytes();
            result.ckptBytesOmitted += interval.omittedBytes;
        }
    }
    result.recoveries =
        static_cast<std::uint64_t>(stats.get("rec.recoveries"));
    if (oracle) {
        result.oracleDivergences =
            static_cast<std::uint64_t>(stats.get("oracle.divergences"));
        result.oracleReport = oracle->report();
    }
    return result;
}

} // namespace acr::harness
