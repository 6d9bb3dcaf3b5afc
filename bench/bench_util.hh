/**
 * @file
 * Shared plumbing for the per-figure/per-table bench binaries: standard
 * configurations, reduction/overhead arithmetic, and checkpoint-size
 * metrics (Fig. 9's Overall and Max).
 */

#ifndef ACR_BENCH_BENCH_UTIL_HH
#define ACR_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "harness/bench_main.hh"
#include "harness/runner.hh"
#include "workloads/workload.hh"

namespace acr::bench
{

/** The paper's default evaluation point (Sec. IV). */
inline constexpr unsigned kDefaultCheckpoints = 25;
inline constexpr unsigned kDefaultThreads = 8;

/**
 * One grid point per (workload × config), workload-major: the result
 * for workload w, config c lands at index w * configs.size() + c.
 * Every point runs on a @p threads-core simulated machine.
 */
inline std::vector<harness::GridPoint>
crossGrid(const std::vector<std::string> &names,
          const std::vector<harness::ExperimentConfig> &configs,
          unsigned threads = kDefaultThreads)
{
    std::vector<harness::GridPoint> points;
    points.reserve(names.size() * configs.size());
    for (const auto &name : names)
        for (const auto &config : configs)
            points.push_back({name, config, threads});
    return points;
}

inline harness::ExperimentConfig
makeConfig(harness::BerMode mode, unsigned errors = 0,
           ckpt::Coordination coordination = ckpt::Coordination::kGlobal,
           unsigned checkpoints = kDefaultCheckpoints)
{
    harness::ExperimentConfig config;
    config.mode = mode;
    config.numErrors = errors;
    config.coordination = coordination;
    config.numCheckpoints = checkpoints;
    config.sliceThreshold = 0;  // per-workload default (is: 5, else 10)
    return config;
}

/** 100 * (baseline - improved) / baseline. */
inline double
reductionPct(double baseline, double improved)
{
    return baseline == 0.0 ? 0.0
                           : 100.0 * (baseline - improved) / baseline;
}

/** Total checkpointed bytes a run stored, and what ACR omitted. */
inline double
overallSizeReductionPct(const harness::ExperimentResult &baseline,
                        const harness::ExperimentResult &acr)
{
    return reductionPct(static_cast<double>(baseline.ckptBytesStored),
                        static_cast<double>(acr.ckptBytesStored));
}

/** Largest single checkpoint in a run, in bytes (Fig. 9's Max basis:
 *  two-checkpoint retention makes the largest checkpoint the memory
 *  footprint proxy). */
inline std::uint64_t
maxCheckpointBytes(const harness::ExperimentResult &result)
{
    std::uint64_t max = 0;
    for (const auto &interval : result.history)
        max = std::max(max, interval.storedBytes());
    return max;
}

inline double
maxSizeReductionPct(const harness::ExperimentResult &baseline,
                    const harness::ExperimentResult &acr)
{
    return reductionPct(static_cast<double>(maxCheckpointBytes(baseline)),
                        static_cast<double>(maxCheckpointBytes(acr)));
}

/** Track the per-workload best/average of a reduction series. */
struct Summary
{
    double sum = 0;
    double best = -1e300;
    std::string bestName;
    unsigned count = 0;

    void
    add(const std::string &name, double value)
    {
        sum += value;
        ++count;
        if (value > best) {
            best = value;
            bestName = name;
        }
    }

    double avg() const { return count ? sum / count : 0.0; }

    /** The one-line summary, for BenchContext::note(). */
    std::string
    text(const std::string &what) const
    {
        std::ostringstream oss;
        oss << what << ": up to " << best << "% (for " << bestName
            << "), " << avg() << "% on average\n";
        return oss.str();
    }

    void
    print(std::ostream &os, const std::string &what) const
    {
        os << text(what);
    }
};

} // namespace acr::bench

#endif // ACR_BENCH_BENCH_UTIL_HH
