/**
 * @file
 * BenchMain: the one experiment-facing front-end shared by every
 * sweeping bench binary. A bench declares a BenchSpec — how to
 * enumerate its grid and how to render results — and main() is one
 * call to benchMain(), which owns the common command line:
 *
 *   --jobs=N        in-process sweep worker threads (default
 *                   $ACR_JOBS, then hardware concurrency)
 *   --forks=N       local multi-process mode: fork/exec N `--worker`
 *                   children of this same binary
 *   --shard=i/N     static machine-level sharding: run only this
 *                   shard's grid points into --cache (required) and
 *                   print nothing; concatenating the legs' cache
 *                   files and running with --cache on the result
 *                   renders the whole grid (DESIGN.md §8.3)
 *   --worker        wire-protocol worker (point frames on stdin,
 *                   result frames on stdout — one socketpair end);
 *                   used by --forks
 *   --format=F      table | csv | json rendering
 *   --workloads=a,b restrict the workload axis
 *   --backend=B     override the checkpoint store backend (log |
 *                   replicated | nvm; default $ACR_BACKEND) on every
 *                   checkpointing grid point; omitted, the bench's
 *                   grid runs exactly as enumerated (the seed path)
 *
 * Fault tolerance (DESIGN.md §10):
 *
 *   --retries=N       retry a failed point N times on fresh workers
 *                     before quarantining it (--forks; default 2)
 *   --point-timeout=S per-point wall-clock watchdog: SIGKILL + retry
 *                     a worker wedged longer than S seconds (0: off)
 *   --cache=FILE      content-addressed cross-bench result cache
 *                     (DESIGN.md §11; default $ACR_CACHE): identical
 *                     (workload, config, threads) points — from any
 *                     bench, at any grid position — are served from
 *                     FILE instead of simulating, and fresh results
 *                     are appended fsync'd as they complete, so a
 *                     killed sweep restarts by rerunning it with the
 *                     same FILE. Lookups are coordinator-side in
 *                     every mode, so cached points are never dealt to
 *                     --forks workers. Quarantined points are never
 *                     cached (they retry). Hit/miss/insert counters go
 *                     to stderr.
 *
 * Determinism contract: for a fixed grid, the rendered output of
 * `--jobs=1`, `--jobs=N`, `--forks=N`, and `--cache` over the
 * concatenated cache files of `--shard` legs is byte-identical (host
 * timing goes to stderr) — including when points were retried after
 * worker crashes, served from the content-addressed result cache, or
 * missing from a lost leg's file and simulated at render.
 *
 * Verdicts: benchMain alone maps results to the exit code, in every
 * mode that runs points (a `--shard` leg included), with one `[sweep]`
 * stderr line per affected point: a quarantined point exits 3 (the
 * table renders FAILED cells; a shard leg does not store it, so the
 * render retries it), a point with recovery-oracle divergences exits
 * 4, and an unrecoverable point exits 5. The most severe wins
 * (harness/exit_code.hh).
 */

#ifndef ACR_HARNESS_BENCH_MAIN_HH
#define ACR_HARNESS_BENCH_MAIN_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/options.hh"
#include "common/table.hh"
#include "harness/sharded_sweep.hh"

namespace acr::harness
{

/** Parsed common command line of a bench binary. */
struct BenchOptions
{
    unsigned jobs = 0;   ///< 0: ShardedSweep::defaultJobs()
    unsigned forks = 0;  ///< >0: local fork/exec worker processes
    ShardedSweep::Shard shard{};
    bool shardMode = false;   ///< --shard given: fill --cache, no render
    bool workerMode = false;  ///< --worker
    TableFormat format = TableFormat::kTable;
    std::vector<std::string> workloads;  ///< resolved selection

    /** --backend given: force this store on every checkpointing grid
     *  point (NoCkpt points keep kLog — they store nothing). */
    bool backendOverride = false;
    ckpt::Backend backend = ckpt::Backend::kLog;

    unsigned retries = 2;       ///< --retries (forked)
    double pointTimeout = 0.0;  ///< --point-timeout seconds (0: off)
    std::string cachePath;      ///< --cache / $ACR_CACHE ("" : none)
};

/** Everything a bench's grid/render callbacks may touch. */
class BenchContext
{
  public:
    BenchContext(std::string name, const BenchOptions &options,
                 RunnerPool &runners, std::ostream &out)
        : name_(std::move(name)), options_(options), runners_(runners),
          out_(out)
    {
    }

    const std::string &name() const { return name_; }
    const BenchOptions &options() const { return options_; }

    /** The selected workload axis (--workloads, else the spec's
     *  default, else every workload). */
    const std::vector<std::string> &workloads() const
    {
        return options_.workloads;
    }

    RunnerPool &runners() { return runners_; }
    Runner &runner(unsigned threads = 8) { return runners_.at(threads); }

    std::ostream &out() { return out_; }

    /** Prose line around tables; suppressed under csv/json so machine
     *  formats stay parseable. */
    void
    note(const std::string &text)
    {
        if (options_.format == TableFormat::kTable)
            out_ << text;
    }

    /** Render a table in the selected format. */
    void emit(const Table &table) { table.emit(out_, options_.format); }

  private:
    std::string name_;
    const BenchOptions &options_;
    RunnerPool &runners_;
    std::ostream &out_;
};

/** A bench binary, declaratively. */
struct BenchSpec
{
    /** Program name (usage text). */
    std::string name;

    /** Workload axis when --workloads is absent; empty means every
     *  workload (workloads::allWorkloadNames()). */
    std::vector<std::string> defaultWorkloads;

    /** Enumerate the experiment grid, in submission (= output) order. */
    std::function<std::vector<GridPoint>(BenchContext &)> grid;

    /** Render results; results[i] belongs to grid point i. Must be a
     *  pure function of the results and the (deterministic) Runner
     *  caches so cached/sharded output stays byte-identical. */
    std::function<void(BenchContext &,
                       const std::vector<ExperimentResult> &)>
        render;

    /** Declare bench-specific flags on the shared parser, before
     *  parse() — use OptionParser::envDefault here so a flag and its
     *  environment variable share one validation path (optional). */
    std::function<void(OptionParser &)> options;

    /** Read the bench-specific flags back after parse() (optional;
     *  typically stores into file-scope config the grid/render
     *  callbacks consult). Runs in --worker mode too, so workers
     *  inherit the same settings through their environment. */
    std::function<void(const OptionParser &)> readOptions;
};

/** Run a bench binary: parse the common flags, execute the requested
 *  mode, return the process exit code. */
int benchMain(int argc, const char *const *argv, const BenchSpec &spec);

} // namespace acr::harness

#endif // ACR_HARNESS_BENCH_MAIN_HH
