#include "harness/sharded_sweep.hh"

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <thread>

#include "common/logging.hh"
#include "common/options.hh"

namespace acr::harness
{

namespace
{

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Parse a numeric environment variable (0 when unset/empty);
 *  fatal() on garbage — "4x" must not silently mean 4. */
unsigned long long
envCount(const char *name)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return 0;
    unsigned long long parsed = 0;
    if (!parseStrictUint(value, parsed))
        fatal("%s='%s' is not an unsigned integer", name, value);
    return parsed;
}

/**
 * The worker-side fault-injection hooks (doc on the workerLoop
 * declaration), shared by the `--worker` and `--connect` loops; all
 * inert unless the environment arms them.
 */
struct WorkerHooks
{
    bool respawned = false;
    unsigned long long crashAt = 0;
    unsigned long long wedgeAt = 0;
    bool haveCrashIndex = false;
    unsigned long long crashIndex = 0;
    unsigned long long processed = 0;

    static WorkerHooks
    fromEnv()
    {
        WorkerHooks hooks;
        hooks.respawned =
            std::getenv("ACR_TEST_RESPAWNED") != nullptr;
        hooks.crashAt = envCount("ACR_TEST_CRASH_AT");
        hooks.wedgeAt = envCount("ACR_TEST_WEDGE_AT");
        const char *crash_index =
            std::getenv("ACR_TEST_CRASH_INDEX");
        // 0 is a valid grid index, so presence (not value) arms it.
        hooks.haveCrashIndex =
            crash_index != nullptr && *crash_index != '\0';
        hooks.crashIndex =
            hooks.haveCrashIndex ? envCount("ACR_TEST_CRASH_INDEX")
                                 : 0;
        return hooks;
    }

    /** Call once per dealt point, before simulating it; _exit(42)s,
     *  wedges, or _exit(43)s per the armed hooks. */
    void
    onPoint(std::uint64_t grid_index)
    {
        ++processed;
        if (!respawned && crashAt != 0 && processed == crashAt)
            ::_exit(42);
        if (!respawned && wedgeAt != 0 && processed == wedgeAt) {
            while (true)
                ::pause();
        }
        if (haveCrashIndex && grid_index == crashIndex)
            ::_exit(43);
    }
};

/** What a worker loop does after one dealt frame. */
enum class Dealt
{
    kContinue,
    kShutdown,  ///< the coordinator ended the sweep: exit 0
    kError,     ///< protocol violation, reason in the error string
};

/**
 * The worker side of one frame from the coordinator, shared by the
 * `--worker` (socketpair) and `--connect` (TCP) loops: a point runs
 * the fault hooks and the simulation and is answered with its result
 * record, a ping with a pong; a stray pong is harmless.
 */
Dealt
answerDealt(RunnerPool &pool, WorkerHooks &hooks,
            const net::Frame &frame,
            const std::function<void(net::FrameType,
                                     const std::string &)> &reply,
            std::string &error)
{
    switch (frame.type) {
    case net::FrameType::kPing:
        reply(net::FrameType::kPong, "");
        return Dealt::kContinue;
    case net::FrameType::kPong:
        return Dealt::kContinue;
    case net::FrameType::kShutdown:
        return Dealt::kShutdown;
    case net::FrameType::kWire:
        break;
    }
    wire::Record record;
    try {
        record = wire::decodeLine(frame.payload);
    } catch (const serde::SerdeError &decode_error) {
        error = decode_error.what();
        return Dealt::kError;
    }
    if (record.type != wire::Record::Type::kPoint) {
        error = "expected a point record";
        return Dealt::kError;
    }
    hooks.onPoint(record.point.index);
    const GridPoint &point = record.point.point;
    reply(net::FrameType::kWire,
          wire::encodeResultLine(
              {record.point.index,
               pool.at(point.threads).run(point.workload, point.config)}));
    return Dealt::kContinue;
}

/**
 * The one ordered merge of every executor: slots fill in any order,
 * and each deliver() fires the sink — under the merger's mutex, so
 * calls never overlap — for the whole completed prefix, in strictly
 * ascending grid-index order.
 */
class OrderedMerger
{
  public:
    OrderedMerger(const std::vector<std::size_t> &grid_indices,
                  const ShardedSweep::OrderedSink &sink)
        : indices_(grid_indices), sink_(sink),
          results_(grid_indices.size()), done_(grid_indices.size(), false)
    {
    }

    /** Deliver every slot whose result @p cache holds (by grid
     *  index; may be null) and return the others, ascending: the
     *  slots left to simulate. */
    std::vector<std::size_t>
    serve(const std::map<std::size_t, ExperimentResult> *cache)
    {
        std::vector<std::size_t> todo;
        for (std::size_t slot = 0; slot < indices_.size(); ++slot) {
            if (cache != nullptr) {
                const auto hit = cache->find(indices_[slot]);
                if (hit != cache->end()) {
                    deliver(slot, hit->second);
                    continue;
                }
            }
            todo.push_back(slot);
        }
        return todo;
    }

    void
    deliver(std::size_t slot, ExperimentResult result)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ACR_ASSERT(!done_[slot], "slot %zu delivered twice", slot);
        results_[slot] = std::move(result);
        done_[slot] = true;
        for (; next_ < results_.size() && done_[next_]; ++next_)
            if (sink_)
                sink_(indices_[next_], results_[next_]);
    }

    /** Every slot, once all were delivered. */
    std::vector<ExperimentResult>
    take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ACR_ASSERT(next_ == results_.size(),
                   "sweep finished with %zu of %zu slots", next_,
                   results_.size());
        return std::move(results_);
    }

  private:
    const std::vector<std::size_t> &indices_;
    const ShardedSweep::OrderedSink &sink_;
    std::mutex mutex_;
    std::vector<ExperimentResult> results_;
    std::vector<bool> done_;
    std::size_t next_ = 0;
};

} // namespace

Runner &
RunnerPool::at(unsigned threads)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = runners_[threads];
    if (!slot)
        slot = std::make_unique<Runner>(threads);
    return *slot;
}

ShardedSweep::ShardedSweep(RunnerPool &pool, unsigned jobs)
    : pool_(pool), jobs_(jobs > 0 ? jobs : defaultJobs())
{
}

unsigned
ShardedSweep::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::vector<std::size_t>
ShardedSweep::shardIndices(std::size_t total, Shard shard)
{
    ACR_ASSERT(shard.count > 0 && shard.index < shard.count,
               "bad shard %u/%u", shard.index, shard.count);
    std::vector<std::size_t> indices;
    for (std::size_t i = shard.index; i < total; i += shard.count)
        indices.push_back(i);
    return indices;
}

ShardedSweep::Shard
ShardedSweep::parseShard(const std::string &spec)
{
    // Canonical "digits/digits" only. CI templating stamps these out
    // mechanically, and strtol's leniency ("+1/4", " 1/4", "01/4")
    // would let non-canonical spellings silently alias a shard.
    auto canonical = [](const std::string &text) {
        if (text.empty())
            return false;
        for (const char c : text)
            if (c < '0' || c > '9')
                return false;
        return text.size() == 1 || text[0] != '0';
    };
    const auto slash = spec.find('/');
    unsigned long long index = 0, count = 0;
    bool ok = slash != std::string::npos;
    if (ok) {
        const std::string left = spec.substr(0, slash);
        const std::string right = spec.substr(slash + 1);
        ok = canonical(left) && canonical(right) &&
             parseStrictUint(left, index) &&
             parseStrictUint(right, count);
    }
    if (!ok || count == 0 || index >= count ||
        count > std::numeric_limits<unsigned>::max())
        fatal("bad --shard '%s' (want canonical i/N with 0 <= i < N)",
              spec.c_str());
    return Shard{static_cast<unsigned>(index),
                 static_cast<unsigned>(count)};
}

std::vector<ExperimentResult>
ShardedSweep::run(const std::vector<GridPoint> &points, Shard shard,
                  const OrderedSink &sink)
{
    SweepControls controls;
    controls.sink = sink;
    return run(points, shard, controls);
}

std::vector<ExperimentResult>
ShardedSweep::run(const std::vector<GridPoint> &points, Shard shard,
                  const SweepControls &controls)
{
    const auto indices = shardIndices(points.size(), shard);
    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<double> point_millis(indices.size(), 0.0);

    // Serve cache hits up front; worker threads simulate the rest.
    OrderedMerger merger(indices, controls.sink);
    const std::vector<std::size_t> todo = merger.serve(controls.cache);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next++; i < todo.size(); i = next++) {
            const std::size_t slot = todo[i];
            const GridPoint &point = points[indices[slot]];
            const auto point_start = std::chrono::steady_clock::now();
            auto result =
                pool_.at(point.threads).run(point.workload, point.config);
            point_millis[slot] = millisSince(point_start);
            if (controls.completed)
                controls.completed(indices[slot], result);
            merger.deliver(slot, std::move(result));
        }
    };
    std::vector<std::thread> threads;
    const std::size_t workers = std::min<std::size_t>(jobs_, todo.size());
    for (std::size_t w = 0; w < workers; ++w)
        threads.emplace_back(worker);
    for (auto &thread : threads)
        thread.join();
    std::vector<ExperimentResult> results = merger.take();

    hostStats_.clear();
    hostStats_.set("sweep.jobs", static_cast<double>(jobs_));
    hostStats_.set("sweep.points", static_cast<double>(indices.size()));
    hostStats_.set("sweep.wallMillis", millisSince(wall_start));
    double work = 0.0;
    for (std::size_t slot = 0; slot < indices.size(); ++slot) {
        hostStats_.set(csprintf("sweep.point.%03zu.millis",
                                indices[slot]),
                       point_millis[slot]);
        work += point_millis[slot];
    }
    hostStats_.set("sweep.workMillis", work);
    return results;
}

std::vector<ExperimentResult>
ShardedSweep::runForked(const std::vector<GridPoint> &points,
                        unsigned workers,
                        const std::vector<std::string> &workerCmd,
                        Shard shard, const OrderedSink &sink)
{
    SweepControls controls;
    controls.sink = sink;
    return runForked(points, workers, workerCmd, shard, controls);
}

std::vector<ExperimentResult>
ShardedSweep::runForked(const std::vector<GridPoint> &points,
                        unsigned workers,
                        const std::vector<std::string> &workerCmd,
                        Shard shard, const SweepControls &controls)
{
    Supervisor::Options options = controls.supervise;
    options.workers = workers == 0 ? 1 : workers;
    // A fully served grid forks nothing but still reports as a forked
    // sweep.
    StatSet seed;
    seed.set("sweep.forkedWorkers", 1.0);
    return runSupervised(
        points, shard, controls, std::move(seed),
        [&](const std::vector<Supervisor::Task> &tasks,
            const Supervisor::Deliver &deliver, StatSet &stats) {
            stats.set("sweep.forkedWorkers",
                      static_cast<double>(std::min<std::size_t>(
                          options.workers, tasks.size())));
            Supervisor(options).run(tasks, workerCmd, deliver, stats);
        });
}

std::vector<ExperimentResult>
ShardedSweep::runDistributed(const std::vector<GridPoint> &points,
                             const net::Endpoint &listen,
                             const std::string &bench,
                             const SweepControls &controls)
{
    // Zero-seed the counters so a fully-served grid (the Supervisor
    // never ran) still reports as a distributed sweep.
    StatSet seed;
    for (const char *name :
         {"sweep.netJoins", "sweep.netLeaves", "sweep.retries",
          "sweep.workerCrashes", "sweep.watchdogKills",
          "sweep.quarantined"})
        seed.set(name, 0.0);
    return runSupervised(
        points, {}, controls, std::move(seed),
        [&](const std::vector<Supervisor::Task> &tasks,
            const Supervisor::Deliver &deliver, StatSet &stats) {
            Supervisor::NetOptions net_options;
            net_options.listen = listen;
            net_options.bench = bench;
            net_options.gridPoints = points.size();
            net_options.gridHash = wire::gridHash(points);
            Supervisor(controls.supervise)
                .run(tasks, net_options, deliver, stats);
        });
}

std::vector<ExperimentResult>
ShardedSweep::runSupervised(const std::vector<GridPoint> &points,
                            Shard shard, const SweepControls &controls,
                            StatSet supervision,
                            const TaskExecutor &execute)
{
    const auto indices = shardIndices(points.size(), shard);
    const auto wall_start = std::chrono::steady_clock::now();

    // The supervisor delivers in completion order; the merger fires
    // the ordered sink as the completed prefix grows, so rendered
    // output stays byte-identical to a --jobs=1 run regardless of
    // crashes, retries, or cache hits.
    OrderedMerger merger(indices, controls.sink);
    std::vector<Supervisor::Task> tasks;
    for (const std::size_t slot : merger.serve(controls.cache))
        tasks.push_back({slot, indices[slot], &points[indices[slot]]});

    if (!tasks.empty()) {
        execute(
            tasks,
            [&](const Supervisor::Task &task, ExperimentResult result) {
                if (controls.completed)
                    controls.completed(task.gridIndex, result);
                merger.deliver(task.slot, std::move(result));
            },
            supervision);
    }
    std::vector<ExperimentResult> results = merger.take();

    hostStats_.clear();
    hostStats_.set("sweep.points", static_cast<double>(indices.size()));
    hostStats_.set("sweep.wallMillis", millisSince(wall_start));
    hostStats_.merge(supervision);
    return results;
}

int
ShardedSweep::netWorkerLoop(RunnerPool &pool, const std::string &bench,
                            const std::vector<GridPoint> &grid,
                            const net::Endpoint &coordinator,
                            unsigned heartbeatSec)
{
    ACR_ASSERT(heartbeatSec > 0, "heartbeat must be positive");
    // A coordinator dying mid-frame must surface as a closed channel
    // (triggering a reconnect), not kill the worker.
    std::signal(SIGPIPE, SIG_IGN);

    // One process-wide fault plan: frame ordinals keep counting
    // across reconnects, so "torn=3" tears the third frame this
    // process ever sends no matter how many connections that takes.
    net::FaultPlan fault = net::FaultPlan::fromEnv();
    WorkerHooks hooks = WorkerHooks::fromEnv();

    const wire::HelloRecord identity{bench, grid.size(),
                                     wire::gridHash(grid),
                                     net::kProtocolVersion};
    const std::string hello_line = wire::encodeHelloLine(identity);

    using Clock = std::chrono::steady_clock;
    const auto window =
        std::chrono::seconds(static_cast<long long>(heartbeatSec) * 10);
    auto down_since = Clock::now();
    bool ever_joined = false;

    // Reconnect window exhausted: a worker that saw the sweep is a
    // clean straggler (the coordinator finished and left), one that
    // never reached a coordinator is an error.
    auto giveUp = [&](const std::string &why) -> int {
        std::fprintf(stderr,
                     "[net] giving up on %s after %llus "
                     "disconnected: %s\n",
                     coordinator.describe().c_str(),
                     static_cast<unsigned long long>(heartbeatSec) *
                         10,
                     why.c_str());
        return ever_joined ? 0 : 1;
    };

    while (true) {
        std::string error;
        const int fd = net::connectOnce(coordinator, error);
        if (fd < 0) {
            if (Clock::now() - down_since > window)
                return giveUp(error);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            continue;
        }

        net::FrameChannel channel(fd, &fault);
        channel.send(net::FrameType::kWire, hello_line);
        const auto reply = [&channel](net::FrameType type,
                                      const std::string &payload) {
            channel.send(type, payload);
        };
        bool joined = false;

        while (channel.isOpen()) {
            if (channel.flushWrites(error) ==
                net::FrameChannel::Io::kClosed)
                break;
            pollfd pfd{channel.fd(), POLLIN, 0};
            if (channel.wantsWrite())
                pfd.events |= POLLOUT;
            const int rc = ::poll(&pfd, 1, 200);
            if (rc < 0 && errno != EINTR)
                fatal("poll: %s", std::strerror(errno));
            down_since = Clock::now();  // connected counts as healthy
            if (rc <= 0)
                continue;
            std::vector<net::Frame> frames;
            const auto io = channel.readFrames(frames, error);
            for (const auto &frame : frames) {
                if (!joined && frame.type == net::FrameType::kWire) {
                    // The coordinator's first record is its hello.
                    wire::Record record;
                    std::string problem = "coordinator spoke before its "
                                          "hello";
                    try {
                        record = wire::decodeLine(frame.payload);
                    } catch (const serde::SerdeError &err) {
                        problem = err.what();
                    }
                    if (record.type != wire::Record::Type::kHello) {
                        std::fprintf(stderr,
                                     "[net] protocol error from "
                                     "coordinator: %s\n",
                                     problem.c_str());
                        channel.close();
                        break;
                    }
                    if (record.hello != identity) {
                        // Version/bench/grid skew cannot heal by
                        // reconnecting: report and exit nonzero.
                        std::fprintf(stderr,
                                     "[net] handshake mismatch: "
                                     "coordinator offers %s; this "
                                     "worker has %s\n",
                                     record.hello.describe().c_str(),
                                     identity.describe().c_str());
                        return 1;
                    }
                    joined = true;
                    ever_joined = true;
                    continue;
                }
                std::string problem;
                const Dealt next =
                    answerDealt(pool, hooks, frame, reply, problem);
                if (next == Dealt::kShutdown) {
                    // Clean end of sweep.
                    std::string ignored;
                    channel.flushWrites(ignored);
                    return 0;
                }
                if (next == Dealt::kError) {
                    std::fprintf(stderr,
                                 "[net] protocol error from "
                                 "coordinator: %s\n",
                                 problem.c_str());
                    channel.close();
                    break;
                }
            }
            if (io == net::FrameChannel::Io::kClosed)
                break;
        }

        if (!error.empty())
            std::fprintf(stderr, "[net] connection to %s lost: %s\n",
                         coordinator.describe().c_str(),
                         error.c_str());
        if (Clock::now() - down_since > window)
            return giveUp(error.empty() ? "connection lost" : error);
    }
}

int
ShardedSweep::workerLoop(RunnerPool &pool, std::istream &in,
                         std::ostream &out)
{
    WorkerHooks hooks = WorkerHooks::fromEnv();
    const auto reply = [&out](net::FrameType type,
                              const std::string &payload) {
        const std::string bytes = net::encodeFrame(type, payload);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.flush();
    };
    auto fail = [](const std::string &why) {
        std::fprintf(stderr, "sweep worker: %s\n", why.c_str());
        return 1;
    };

    while (true) {
        char header[net::kFrameHeaderBytes];
        if (!in.read(header, sizeof(header))) {
            // EOF between frames: the coordinator closed the stream.
            return in.gcount() == 0 ? 0 : fail("stream ends inside a "
                                               "frame header");
        }
        net::Frame frame;
        std::uint32_t length = 0;
        std::string error;
        if (!net::decodeFrameHeader(header, length, frame.type, error))
            return fail(error);
        frame.payload.resize(length);
        if (!in.read(frame.payload.data(), length))
            return fail("stream ends inside a frame");
        switch (answerDealt(pool, hooks, frame, reply, error)) {
        case Dealt::kContinue:
            break;
        case Dealt::kShutdown:
            return 0;
        case Dealt::kError:
            return fail(error);
        }
    }
}

std::string
ShardedSweep::selfExecutable(const std::string &argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0)
        return std::string(buf, static_cast<std::size_t>(n));
    return argv0;
}

void
ShardedSweep::reportTiming(std::ostream &os) const
{
    const double wall = hostStats_.get("sweep.wallMillis");
    os << "[sweep] " << hostStats_.get("sweep.points") << " points";
    const bool listened = hostStats_.has("sweep.netJoins");
    if (listened) {
        os << " via --listen: " << wall << " ms wall, "
           << hostStats_.get("sweep.netJoins") << " worker join(s), "
           << hostStats_.get("sweep.netLeaves") << " leave(s)\n";
    } else if (hostStats_.has("sweep.forkedWorkers")) {
        os << " on " << hostStats_.get("sweep.forkedWorkers")
           << " forked worker(s): " << wall << " ms wall, "
           << hostStats_.get("sweep.coldDeals") << " cold deal(s)\n";
    } else {
        const double work = hostStats_.get("sweep.workMillis");
        os << " on " << jobs_ << " job(s): " << wall << " ms wall, "
           << work << " ms of work (parallelism "
           << (wall > 0.0 ? work / wall : 0.0) << "x)\n";
        return;
    }
    const double crashes = hostStats_.get("sweep.workerCrashes");
    const double kills = hostStats_.get("sweep.watchdogKills");
    if (crashes > 0 || kills > 0) {
        os << "[sweep] supervision: " << crashes
           << (listened ? " connection loss(es), " : " worker crash(es), ")
           << kills << " watchdog kill(s), "
           << hostStats_.get("sweep.retries") << " retr(y/ies), ";
        if (!listened)
            os << hostStats_.get("sweep.respawns") << " respawn(s), ";
        os << hostStats_.get("sweep.quarantined") << " quarantined\n";
    }
}

} // namespace acr::harness
