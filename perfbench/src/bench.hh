/**
 * @file
 * perfbench: the repository benchmark. Three workloads drive the
 * simulator's public API from outside — the paper's fig06 grid in
 * process, a joint compute × storage recovery campaign under the
 * oracle, and the fig06 grid dealt to forked worker processes — and
 * every call the driver makes into a layer can be timed as a host span.
 * Per-layer work comes from the deterministic StatSet counters each
 * ExperimentResult carries. See perfbench/README.md for why each
 * workload exists and which end-to-end metric each layer should move.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/wire.hh"

namespace perfbench
{

using acr::StatSet;
using acr::harness::ExperimentConfig;
using acr::harness::ExperimentResult;
using acr::harness::GridPoint;
using Clock = std::chrono::steady_clock;

/** ExperimentConfig::seed of the committed goldens; --seed n runs
 *  kGoldenSeed + n, so seed 0 reproduces them. */
inline constexpr std::uint64_t kGoldenSeed = 0xacce55ULL;
inline constexpr unsigned kThreads = 8;
/** Worker processes of forked_sweep: with the driver, one per core of
 *  the 4-core host the benchmark was defined on. */
inline constexpr unsigned kForkWorkers = 3;

enum class Workload
{
    kFig06Grid,
    kRecoveryCampaign,
    kForkedSweep,
};

const std::vector<Workload> &allWorkloads();
const char *workloadName(Workload workload);
bool parseWorkload(const std::string &name, Workload &workload);
/** One-line reason the workload exists (BENCHMARK.json `why`). */
const char *workloadWhy(Workload workload);

/** Kernels a workload simulates, in grid order. */
std::vector<std::string> kernelsOf(Workload workload);

/** The workload's grid at benchmark seed @p seed: kernel-major, and
 *  within each checkpointing scheme the with-errors run first, so it
 *  captures the error-free-prefix snapshot its sibling resumes from. */
std::vector<GridPoint> gridOf(Workload workload, std::uint64_t seed);

double secondsSince(Clock::time_point start);

/** Self plus reaped-children CPU seconds of this process so far. */
double cpuSeconds();

/** Largest resident set of this process or any reaped child, MiB. */
double peakRssMb();

/** CPUs the calling thread may run on, ascending. */
std::vector<int> allowedCpus();

/** Restrict the calling thread to @p cpus; fatal() when refused. */
void pinTo(const std::vector<int> &cpus);

/**
 * Host spans of a traced run, kept in memory and written out at the
 * end. A span may name the grid point it ran (index into the pass's
 * grid) so callers can attribute it by the point's configuration.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        int point = -1;
        double startS = 0.0;
        double endS = 0.0;
        double seconds() const { return endS - startS; }
    };

    Tracer() : origin_(Clock::now()) {}

    int begin(const std::string &name, int point = -1);
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome/Perfetto trace-event JSON of every span. */
    void writeChromeTrace(std::ostream &os) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span on an optional tracer (a null tracer records nothing). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name, int point = -1)
        : tracer_(tracer), id_(tracer ? tracer->begin(name, point) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/** One timed pass over a workload's grid. */
struct Pass
{
    std::vector<ExperimentResult> results;
    /** NoCkpt reference per kernel (overhead baselines). */
    std::map<std::string, ExperimentResult> references;
    double wallS = 0.0;
    /** In process: Runner construction + program builds + slice
     *  passes. Forked: sweep start to the first result delivered. */
    double setupS = 0.0;
    double cpuS = 0.0;
    /** CPU seconds of the set-up (in-process passes). */
    double setupCpuS = 0.0;
    /** Host seconds and CPU seconds of each point's Runner::run
     *  (in-process passes). */
    std::vector<double> pointS;
    std::vector<double> pointCpuS;
    /** Index of the pass's root span in the tracer (-1: untraced). */
    int span = -1;

    // Runner audit counters (in-process passes only).
    std::uint64_t programBuilds = 0;
    std::uint64_t slicePassRuns = 0;
    std::uint64_t noCkptRuns = 0;
    std::uint64_t prefixCaptures = 0;
    std::uint64_t prefixResumes = 0;

    /** ShardedSweep::hostStats() of a forked pass. */
    StatSet sweepStats;
};

struct PassOptions
{
    bool prefixShare = true;
    /** Run the grid's oracle points with the oracle detached (the
     *  traced run's oracle-cost measurement). */
    bool oracleOff = false;
    Tracer *tracer = nullptr;
    /** When non-empty, the set-up runs on cpus[cpuOffset] and point i
     *  on cpus[cpuOffset + 1 + i], indices taken modulo the size; the
     *  pass ends pinned to all of @p cpus. */
    std::vector<int> cpus;
    std::size_t cpuOffset = 0;
};

/** Fresh Runner: set up, then run every point serially. */
Pass runInProcess(Workload workload, const std::vector<GridPoint> &grid,
                  const PassOptions &options);

/** Fresh kForkWorkers `--worker` processes running @p workerCmd. */
Pass runForked(const std::vector<GridPoint> &grid,
               const std::vector<std::string> &workerCmd,
               Tracer *tracer);

/** The committed goldens the fig06 grid must reproduce. */
struct Goldens
{
    /** "kernel|mode|coord|errors" → tests/golden/equiv_grid.txt line. */
    std::map<std::string, std::string> cells;
    /** kernel → tests/golden/fig06_grid.csv row. */
    std::map<std::string, std::string> rows;
};

/** Load both golden files from @p dir; fatal() when unreadable. */
Goldens loadGoldens(const std::string &dir);

/**
 * Per-point correctness: quarantined, oracle divergence, an
 * unrecoverable verdict without storage faults, or (fig06 grid) a miss
 * against the goldens. Error points are held to the goldens only at
 * seed 0; error-free points at every seed, since no fault plan touches
 * them. Returns one flag per grid point, true = failed.
 */
std::vector<bool> checkPoints(const std::vector<GridPoint> &grid,
                              const std::vector<ExperimentResult> &results,
                              std::uint64_t seed, const Goldens &goldens);

/** Canonical wire encoding of every result: two passes agree iff these
 *  are equal. */
std::vector<std::string>
fingerprints(const std::vector<ExperimentResult> &results);

/** Modelled (simulated, deterministic) end-to-end metrics. */
struct Modelled
{
    double timeOverheadReductionPct = 0.0;
    double energyOverheadReductionPct = 0.0;
    double ckptSizeReductionPct = 0.0;
    double recoveryOverheadPct = 0.0;
    double unrecoverableFrac = 0.0;
};

/**
 * Pair each Ckpt point with the ReCkpt point of the same kernel,
 * coordination, backend, and fault plan; average the reductions over
 * the error-free pairs (the paper's Fig. 6/7/9 definition) or, when the
 * grid has none, over the with-errors pairs without storage faults.
 * The recovery overhead averages every recovered with-errors point.
 */
Modelled modelled(const std::vector<GridPoint> &grid,
                  const std::vector<ExperimentResult> &results,
                  const std::map<std::string, ExperimentResult> &refs);

/** Every result's StatSet summed. */
StatSet counterTotals(const std::vector<ExperimentResult> &results);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
