#include "harness/runner.hh"

#include <string>

#include "common/logging.hh"
#include "harness/wire.hh"

namespace acr::harness
{

namespace
{

/**
 * The prefix key: the workload and the config's wire encoding with the
 * fields that act only after the first fault trigger — numErrors,
 * detectionLatencyFraction, seed and faultEventMask — reset to their
 * defaults, so runs differing only in them share a prefix. Every other
 * field shapes the key, including any the encoding gains later.
 */
std::string
prefixKey(const std::string &workload, ExperimentConfig config)
{
    const ExperimentConfig defaults;
    config.numErrors = defaults.numErrors;
    config.detectionLatencyFraction = defaults.detectionLatencyFraction;
    config.seed = defaults.seed;
    config.faultEventMask = defaults.faultEventMask;
    return workload + '|' + wire::encodeConfig(config).dump();
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

    if (!prefixShare_)
        return BerRuntime::run(program, machine_, config, pass);

    // Offer the held snapshot to a run of its key; BerRuntime decides
    // whether the run resumes from it. A capture replaces it.
    const std::string key = prefixKey(workload, config);
    PrefixHandle prefix;
    {
        std::lock_guard<std::mutex> lock(prefixMutex_);
        if (prefixSlotKey_ == key)
            prefix.offer = prefixSlot_;
    }
    ExperimentResult result =
        BerRuntime::run(program, machine_, config, pass, &prefix);
    std::lock_guard<std::mutex> lock(prefixMutex_);
    if (prefix.resumed)
        ++prefixResumes_;
    if (prefix.captured) {
        prefixSlotKey_ = key;
        prefixSlot_ = std::move(prefix.captured);
        ++prefixCaptures_;
    }
    return result;
}

} // namespace acr::harness
