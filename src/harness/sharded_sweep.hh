/**
 * @file
 * ShardedSweep: the one sweep executor. A coordinator enumerates an
 * experiment grid (std::vector<GridPoint>), partitions it
 * deterministically — `--shard=i/N` carves out every N-th point for
 * static machine-level sharding — runs its slice on host threads or
 * forked `--worker` child processes of the same bench binary, and
 * merges results back **in submission order**, so the rendered output
 * is bit-identical to a `--jobs=1` single-process run no matter how
 * the work was spread.
 *
 * Forked workers speak the wire format (harness/wire.hh) inside net
 * frames (harness/net.hh) over the socketpair that is their stdin and
 * stdout: the coordinator deals one PointRecord at a time and each
 * worker answers with one ResultRecord per finished experiment, so
 * results arrive (and the ordered sink fires) as they land rather than
 * at an end-of-sweep barrier.
 *
 * Simulated results never contain host timing — wall clock depends on
 * scheduling, and results must not — so wall-clock observations live
 * in hostStats() only.
 */

#ifndef ACR_HARNESS_SHARDED_SWEEP_HH
#define ACR_HARNESS_SHARDED_SWEEP_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/runner.hh"
#include "harness/supervisor.hh"
#include "harness/wire.hh"

namespace acr::harness
{

/**
 * Lazily constructed Runners, one per simulated-machine core count
 * (GridPoint::threads). Thread-safe; references stay valid for the
 * pool's lifetime (each Runner is heap-allocated and itself
 * shareable across threads).
 */
class RunnerPool
{
  public:
    Runner &at(unsigned threads);

  private:
    std::mutex mutex_;
    std::map<unsigned, std::unique_ptr<Runner>> runners_;
};

/** Multi-process/multi-thread sweep executor over one RunnerPool. */
class ShardedSweep
{
  public:
    /** A static partition: this invocation owns every point whose grid
     *  index i satisfies i % count == index. */
    struct Shard
    {
        unsigned index;
        unsigned count;

        // An explicit constructor (not member initializers) so the
        // whole-grid default Shard() can appear in the enclosing
        // class's default arguments.
        constexpr Shard(unsigned index_ = 0, unsigned count_ = 1)
            : index(index_), count(count_)
        {
        }
    };

    /**
     * Ordered streaming sink: invoked with (grid index, result) in
     * strictly ascending grid-index order, each as soon as every
     * earlier owned point has completed — no end-of-run barrier.
     * Calls never overlap, but in-process run() makes them from its
     * worker threads.
     */
    using OrderedSink =
        std::function<void(std::size_t, const ExperimentResult &)>;

    /**
     * Completion-order sink: fires once per point *as it finishes*
     * (no ordering guarantee), before the ordered sink sees it — the
     * result cache's append hook. In-process multi-job sweeps invoke
     * it from worker threads; callers must make it thread-safe
     * (ResultCache::insert is).
     */
    using CompletionSink =
        std::function<void(std::size_t, const ExperimentResult &)>;

    /**
     * Everything a fault-tolerant sweep threads through the executor
     * beyond the grid itself. Plain run()/runForked() overloads
     * taking an OrderedSink forward here with the defaults.
     */
    struct SweepControls
    {
        /** Ascending-grid-index streaming sink (may be empty). */
        OrderedSink sink;

        /** Completion-order append hook (may be empty). */
        CompletionSink completed;

        /**
         * Already-completed results by grid index (the owned points a
         * ResultCache holds); points found here are served without
         * re-simulation and never reach `completed`. Not owned; may
         * be null.
         */
        const std::map<std::size_t, ExperimentResult> *cache = nullptr;

        /** Retry/watchdog knobs for the forked executor (workers is
         *  overridden by runForked's argument). */
        Supervisor::Options supervise;
    };

    /**
     * @param pool shared Runner cache; not owned
     * @param jobs in-process worker threads (0: defaultJobs())
     */
    explicit ShardedSweep(RunnerPool &pool, unsigned jobs = 0);

    /** The --jobs default: std::thread::hardware_concurrency(), at
     *  least 1. */
    static unsigned defaultJobs();

    unsigned jobs() const { return jobs_; }

    /** Grid indices owned by @p shard, ascending. */
    static std::vector<std::size_t> shardIndices(std::size_t total,
                                                 Shard shard);

    /** Parse "i/N" (0 <= i < N); fatal() on malformed input. */
    static Shard parseShard(const std::string &spec);

    /**
     * Execute this shard's slice of @p points on the in-process thread
     * pool. Returns the owned results in ascending grid-index order
     * (all of them when shard is the default whole-grid 0/1).
     */
    std::vector<ExperimentResult>
    run(const std::vector<GridPoint> &points, Shard shard = {},
        const OrderedSink &sink = {});

    /** As above, with the full fault-tolerance controls (served
     *  results + completion hook; supervision options are unused on
     *  the in-process path, which cannot crash partially). */
    std::vector<ExperimentResult>
    run(const std::vector<GridPoint> &points, Shard shard,
        const SweepControls &controls);

    /**
     * Execute this shard's slice on up to @p workers forked child
     * processes running @p workerCmd (argv of a `--worker` invocation
     * of the same bench binary; resolve via selfExecutable()),
     * supervised by harness::Supervisor: points are assigned
     * one-at-a-time to idle workers, a crashed or wedged worker is
     * reaped and its in-flight point retried with backoff on a worker
     * forked when the point is ready, and a point that exhausts its
     * retries is delivered as an ExperimentResult::quarantined
     * placeholder.
     */
    std::vector<ExperimentResult>
    runForked(const std::vector<GridPoint> &points, unsigned workers,
              const std::vector<std::string> &workerCmd,
              Shard shard = {}, const OrderedSink &sink = {});

    /** As above, with the full fault-tolerance controls. */
    std::vector<ExperimentResult>
    runForked(const std::vector<GridPoint> &points, unsigned workers,
              const std::vector<std::string> &workerCmd, Shard shard,
              const SweepControls &controls);

    /**
     * The `--worker` side: read net frames from @p in — a forked
     * worker's stdin, one end of the coordinator's socketpair — and
     * answer on @p out, its stdout and the same socket: each point
     * frame is executed against @p pool and answered with one flushed
     * result frame. Returns a process exit code: 0 on a shutdown frame
     * or EOF between frames, nonzero on a malformed frame or record.
     * There is no handshake — the coordinator built this process's
     * argv from its own binary.
     *
     * Fault-injection hooks for the supervisor tests (inert unless
     * the environment variables are set): ACR_TEST_CRASH_AT=k
     * _exit(42)s before answering the k-th point this process reads;
     * ACR_TEST_WEDGE_AT=k blocks forever there instead (watchdog
     * bait). Both are suppressed when ACR_TEST_RESPAWNED is set (the
     * supervisor marks replacement workers), so a retry succeeds.
     * ACR_TEST_CRASH_INDEX=g is sticky: every worker _exit(43)s on
     * grid index g, forcing quarantine.
     */
    static int workerLoop(RunnerPool &pool, std::istream &in,
                          std::ostream &out);

    /** Path of the running binary (/proc/self/exe), for workerCmd;
     *  falls back to @p argv0. */
    static std::string selfExecutable(const std::string &argv0);

    /** Host-side timing of the most recent run()/runForked():
     *  sweep.jobs or sweep.forkedWorkers, sweep.points,
     *  sweep.wallMillis, and for in-process runs sweep.workMillis
     *  plus sweep.point.<index>.millis. Forked runs add the
     *  Supervisor counters (sweep.respawns, sweep.retries,
     *  sweep.workerCrashes, sweep.watchdogKills, sweep.quarantined,
     *  sweep.coldDeals). */
    const StatSet &hostStats() const { return hostStats_; }

    /** One-line wall/work summary of the last run. */
    void reportTiming(std::ostream &os) const;

  private:
    RunnerPool &pool_;
    unsigned jobs_;
    StatSet hostStats_;
};

} // namespace acr::harness

#endif // ACR_HARNESS_SHARDED_SWEEP_HH
