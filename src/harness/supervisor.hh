/**
 * @file
 * Fault-tolerant execution layer under harness::ShardedSweep — the
 * paper's checkpoint/recovery discipline applied to the harness's own
 * long-running sweeps (DESIGN.md §10, §15).
 *
 * `Supervisor` is the one coordinator loop behind both process-boundary
 * executors: a single-threaded poll() over net::FrameChannel peers —
 * forked `--worker` children on socketpairs, or `--connect` workers
 * over TCP — dealt one point at a time, workload-affine (pick()): a
 * peer keeps the workloads whose slice pass and prefix snapshot it
 * already holds. The loop sleeps in poll() until a frame, a backoff
 * expiry or a watchdog deadline needs it. Silent idle peers and (with a
 * watchdog) wedged busy ones are dropped, and a lost busy peer's point
 * is retried with jittered exponential backoff. A point that exhausts
 * its retries is *quarantined* — delivered as an
 * `ExperimentResult::quarantined` placeholder (a `failed` wire record
 * downstream) so the sweep completes around it instead of aborting.
 *
 * A killed sweep restarts from the ResultCache (result_cache.hh):
 * rerunning it with the same `--cache` serves every completed point
 * and deals only the rest.
 *
 * Determinism contract: a result is byte-identical whether it came
 * from a first-try worker, a retried worker, or the cache; only
 * host-side timing (stderr) differs.
 */

#ifndef ACR_HARNESS_SUPERVISOR_HH
#define ACR_HARNESS_SUPERVISOR_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "harness/net.hh"
#include "harness/wire.hh"

namespace acr::harness
{

/** Retry/backoff/watchdog/quarantine over an elastic fleet of forked
 *  or TCP workers. */
class Supervisor
{
  public:
    struct Options
    {
        /** Forked peers alive at once (clamped to the task count). */
        unsigned workers = 1;

        /** Retries after a point's first failed attempt; a point that
         *  fails 1 + retries attempts is quarantined. */
        unsigned retries = 2;

        /** Per-point wall-clock watchdog in seconds; a worker that
         *  holds a point longer is dropped (a forked one SIGKILLed)
         *  and the point retried. 0 disables the watchdog. */
        double pointTimeoutSec = 0.0;

        /** Keepalive ping cadence in seconds. Idle peers time out
         *  after four missed heartbeats; an empty TCP fleet with
         *  queued work is given eight for a (re)join before every
         *  queued point is quarantined — the sweep degrades to FAILED
         *  cells, it never hangs. */
        unsigned heartbeatSec = 5;
    };

    /** First retry delay in seconds; doubles per further attempt. */
    static constexpr double kBackoffBaseSec = 0.05;

    /** Backoff growth cap in seconds. */
    static constexpr double kBackoffCapSec = 2.0;

    /**
     * TCP fleet (DESIGN.md §15): where to accept `--connect` workers
     * and the identity their handshake must match.
     */
    struct NetOptions
    {
        net::Endpoint listen;  ///< port 0: kernel-picked

        /** Handshake identity: a worker whose hello disagrees on any
         *  of these (or on net::kProtocolVersion) is rejected. */
        std::string bench;
        std::uint64_t gridPoints = 0;
        std::uint64_t gridHash = 0;
    };

    /** One unit of supervised work. */
    struct Task
    {
        std::size_t slot = 0;       ///< caller's merge slot
        std::size_t gridIndex = 0;  ///< index the worker echoes back
        const GridPoint *point = nullptr;
    };

    using Clock = std::chrono::steady_clock;

    /** One attempt of one task, with its backoff gate. */
    struct Attempt
    {
        Task task;
        unsigned tries = 0;  ///< failed attempts so far
        Clock::time_point readyAt;
    };

    /** A task's (workload, threads): a worker that has run one point of
     *  it holds that workload's slice pass and prefix snapshot in the
     *  Runner it keeps for @c threads. */
    using Affinity = std::pair<std::string, unsigned>;

    static Affinity
    affinity(const Task &task)
    {
        return {task.point->workload, task.point->threads};
    }

    /**
     * Fires once per task, in completion order, with either the
     * decoded worker result or the quarantine placeholder
     * (`result.failed`). The callback runs on the supervising thread.
     */
    using Deliver =
        std::function<void(const Task &, ExperimentResult)>;

    explicit Supervisor(Options options) : options_(options) {}

    /**
     * Forked fleet: run every task to completion (success or
     * quarantine) on up to Options::workers children running
     * @p workerCmd — argv of a `--worker` invocation of this very
     * binary (see ShardedSweep::selfExecutable). A child is forked
     * only when a ready point can be dealt to it, and every close of
     * one is SIGKILL plus a blocking waitpid on its pid: its exit
     * status names the failure and no child outlives the sweep.
     * Counters in @p stats: sweep.respawns, sweep.retries,
     * sweep.workerCrashes (busy peers lost), sweep.watchdogKills,
     * sweep.quarantined, sweep.coldDeals (points dealt to a peer that
     * had not run their affinity yet).
     */
    void run(const std::vector<Task> &tasks,
             const std::vector<std::string> &workerCmd,
             const Deliver &deliver, StatSet &stats);

    /**
     * TCP fleet: accept `--connect` workers on @p net.listen (the
     * bound endpoint — port 0 resolved — is announced as
     * "[net] listening on HOST:PORT" on stderr) and run every task to
     * completion. Membership is elastic: workers may join late, leave
     * idle, crash busy, or reconnect. Counters in @p stats:
     * sweep.retries, sweep.workerCrashes (busy connections lost),
     * sweep.watchdogKills, sweep.quarantined, sweep.coldDeals,
     * sweep.netJoins, sweep.netLeaves.
     */
    void run(const std::vector<Task> &tasks, const NetOptions &net,
             const Deliver &deliver, StatSet &stats);

    /** Backoff before attempt @p tries+1 of @p gridIndex, in seconds:
     *  kBackoffBaseSec doubling per attempt, capped at
     *  kBackoffCapSec, with deterministic jitter in [0.5, 1.5)x.
     *  Exposed for tests. */
    static double backoffSeconds(unsigned tries, std::size_t gridIndex);

    /**
     * Workload-affine dealing: the attempt in @p queue that an idle peer
     * which has run the affinities @p warm takes at @p now. That is the
     * first ready attempt of an affinity in @p warm; else the first
     * ready one of an affinity no live peer has run (@p claimed); else
     * the first ready one, a steal, so the end of a sweep still
     * balances. queue.end() when no attempt is ready. A one-workload
     * queue is dealt in FIFO order. Exposed for tests.
     */
    static std::deque<Attempt>::const_iterator
    pick(const std::deque<Attempt> &queue, const std::set<Affinity> &warm,
         const std::set<Affinity> &claimed, Clock::time_point now);

  private:
    /** The one coordinator loop behind both run() overloads; exactly
     *  one of @p workerCmd and @p net is non-null. */
    void supervise(const std::vector<Task> &tasks,
                   const std::vector<std::string> *workerCmd,
                   const NetOptions *net, const Deliver &deliver,
                   StatSet &stats);

    Options options_;
};

} // namespace acr::harness

#endif // ACR_HARNESS_SUPERVISOR_HH
