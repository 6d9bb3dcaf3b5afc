#include "harness/runner.hh"

#include <sstream>
#include <string>

#include "common/logging.hh"
#include "fault/injector.hh"

namespace acr::harness
{

namespace
{

/** Progress of the earliest armed fault event of @p config, or
 *  UINT64_MAX when the run is effectively error-free. Mirrors the
 *  plan construction in BerRuntime::run exactly. */
std::uint64_t
firstTrigger(const ExperimentConfig &config,
             const amnesic::SlicePassResult &pass)
{
    if (config.numErrors == 0)
        return ~std::uint64_t{0};
    const Cycle period_cycles =
        pass.cycles / (config.numCheckpoints + 1);
    const Cycle latency = static_cast<Cycle>(
        config.detectionLatencyFraction *
        static_cast<double>(period_cycles));
    auto plan = fault::FaultPlan::uniform(config.numErrors,
                                          pass.totalProgress, latency,
                                          config.seed)
                    .masked(config.faultEventMask);
    std::uint64_t first = ~std::uint64_t{0};
    for (const fault::FaultPlan::Event &event : plan.events)
        first = std::min(first, event.progressTrigger);
    return first;
}

/** Everything that shapes execution before the first fault trigger. */
std::string
prefixKey(const std::string &workload, const ExperimentConfig &config)
{
    std::ostringstream key;
    key << workload << '|' << static_cast<int>(config.mode) << '|'
        << static_cast<int>(config.coordination) << '|'
        << static_cast<int>(config.backend) << '|'
        << config.numCheckpoints << '|' << config.sliceThreshold << '|'
        << static_cast<int>(config.policy) << '|'
        << config.addrMapRetention << '|'
        << static_cast<int>(config.placement);
    return key.str();
}

} // namespace

Runner::Runner(unsigned threads, unsigned scale)
    : machine_(sim::MachineConfig::tableI(threads))
{
    params_.threads = threads;
    params_.scale = scale;
}

const isa::Program &
Runner::baseProgram(const std::string &workload)
{
    return programs_.getOrCompute(workload, [&] {
        auto kernel = workloads::makeWorkload(workload);
        return kernel->build(params_);
    });
}

const amnesic::SlicePassResult &
Runner::profileAt(const std::string &workload, unsigned threshold,
                  slice::SelectionPolicy policy)
{
    auto key = std::make_tuple(workload, threshold,
                               static_cast<int>(policy));
    return passes_.getOrCompute(key, [&] {
        slice::SlicePolicyConfig policy_config;
        policy_config.policy = policy;
        policy_config.lengthThreshold = threshold;
        return amnesic::SlicePass::run(baseProgram(workload), machine_,
                                       policy_config);
    });
}

const amnesic::SlicePassResult &
Runner::profile(const std::string &workload)
{
    return profileAt(workload, defaultThreshold(workload));
}

const ExperimentResult &
Runner::noCkpt(const std::string &workload)
{
    return noCkpt_.getOrCompute(workload, [&] {
        ExperimentConfig config;
        config.mode = BerMode::kNoCkpt;
        return run(workload, config);
    });
}

ExperimentResult
Runner::run(const std::string &workload, ExperimentConfig config)
{
    if (config.sliceThreshold == 0)
        config.sliceThreshold = defaultThreshold(workload);

    if (std::string error = config.validate(); !error.empty())
        fatal("invalid ExperimentConfig for workload '%s': %s",
              workload.c_str(), error.c_str());

    const amnesic::SlicePassResult &pass =
        profileAt(workload, config.sliceThreshold, config.policy);

    const isa::Program &program = config.mode == BerMode::kReCkpt
                                      ? pass.program
                                      : baseProgram(workload);

    // Prefix sharing is sound only when every component's pre-trigger
    // behavior is covered by the snapshot: the oracle, stateful store
    // backends, and the storage-fault integrity layer (per-checkpoint
    // checksums and armed corruptions accrue from establishment #1)
    // all keep shadow state of their own, so those configurations take
    // the full re-simulation path.
    const bool eligible = prefixShare_ &&
                          config.mode != BerMode::kNoCkpt &&
                          !config.oracle &&
                          config.storageErrors == 0 &&
                          config.backend == ckpt::Backend::kLog;
    PrefixHandle handle;
    PrefixHandle *prefix = nullptr;
    std::shared_ptr<const PrefixSnapshot> resume_hold;
    std::string key;
    if (eligible) {
        const std::uint64_t trigger = firstTrigger(config, pass);
        key = prefixKey(workload, config);
        {
            std::lock_guard<std::mutex> lock(prefixMutex_);
            const auto it = prefixCache_.find(key);
            if (it != prefixCache_.end()) {
                for (const auto &snap : it->second) {
                    if (snap->stopProgress > trigger)
                        continue;
                    if (!resume_hold ||
                        snap->stopProgress > resume_hold->stopProgress)
                        resume_hold = snap;
                }
            }
        }
        if (resume_hold) {
            handle.resume = resume_hold.get();
        } else if (trigger != ~std::uint64_t{0} && trigger > 0) {
            handle.captureAt = trigger;
        }
        prefix = &handle;
    }

    ExperimentResult result =
        BerRuntime::run(program, machine_, config, pass, prefix);

    if (prefix) {
        std::lock_guard<std::mutex> lock(prefixMutex_);
        if (handle.resume)
            ++prefixResumes_;
        if (handle.captured) {
            prefixCache_[key].push_back(std::move(handle.captured));
            ++prefixCaptures_;
        }
    }
    return result;
}

} // namespace acr::harness
