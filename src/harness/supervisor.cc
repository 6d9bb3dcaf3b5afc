#include "harness/supervisor.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"

namespace acr::harness
{

namespace
{

using Clock = Supervisor::Clock;
using Attempt = Supervisor::Attempt;

/** Seed of the backoff jitter (timing only; results are unaffected). */
constexpr std::uint64_t kJitterSeed = 0x5eed;

Clock::duration
secondsDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** How a reaped child ended (a blocking waitpid without WUNTRACED
 *  only reports exits and signals). */
std::string
describeStatus(int status)
{
    return WIFEXITED(status)
               ? csprintf("exited with status %d", WEXITSTATUS(status))
               : csprintf("killed by signal %d", WTERMSIG(status));
}

/** Blocking waitpid on @p pid alone (never -1: other children of the
 *  process are not ours to reap); the wait status. */
int
reap(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            fatal("waitpid %d: %s", static_cast<int>(pid),
                  std::strerror(errno));
    }
    return status;
}

/**
 * Fork/exec @p argv with the far end of a fresh socketpair as both its
 * stdin and stdout. Returns the child's pid; @p fd receives the
 * coordinator's (nonblocking) end.
 */
pid_t
spawnWorker(const std::vector<std::string> &argv, bool respawn, int &fd)
{
    int ends[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends) != 0)
        fatal("socketpair: %s", std::strerror(errno));
    std::vector<char *> args;
    for (const auto &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork: %s", std::strerror(errno));
    if (pid == 0) {
        // Child: stdin and stdout onto the far end (dup2 clears
        // O_CLOEXEC on the copies, so every other coordinator fd —
        // sibling workers' ends included — closes across exec, and a
        // dead sibling's EOF stays observable). The end stays
        // blocking: the worker loop reads it as a plain stream.
        ::dup2(ends[1], STDIN_FILENO);
        ::dup2(ends[1], STDOUT_FILENO);
        if (respawn)
            ::setenv("ACR_TEST_RESPAWNED", "1", 1);
        ::execv(args[0], args.data());
        std::fprintf(stderr, "execv %s: %s\n", args[0],
                     std::strerror(errno));
        ::_exit(127);
    }
    ::close(ends[1]);
    net::setNonblocking(ends[0]);
    fd = ends[0];
    return pid;
}

/** One member of the fleet: a forked child on a socketpair, or a TCP
 *  connection. */
struct Peer
{
    enum class State { kHandshake, kIdle, kBusy };

    std::uint64_t id;
    pid_t pid;  ///< the forked child; -1 for a TCP peer
    net::FrameChannel channel;
    State state;
    Attempt attempt;             ///< valid while kBusy
    std::set<Supervisor::Affinity> warm;  ///< affinities dealt to it
    Clock::time_point deadline;  ///< valid while kBusy w/ watchdog
    Clock::time_point lastHeard;
    Clock::time_point lastPing;

    Peer(std::uint64_t id_, pid_t pid_, int fd, State state_,
         Clock::time_point now)
        : id(id_), pid(pid_), channel(fd), state(state_),
          lastHeard(now), lastPing(now)
    {
    }
};

} // namespace

double
Supervisor::backoffSeconds(unsigned tries, std::size_t gridIndex)
{
    const unsigned exponent = tries > 0 ? tries - 1 : 0;
    double delay = kBackoffBaseSec *
                   std::ldexp(1.0, static_cast<int>(
                                       std::min(exponent, 20u)));
    delay = std::min(delay, kBackoffCapSec);
    // Deterministic jitter in [0.5, 1.5)x: spreads retries without
    // making runs irreproducible (timing only; results are merged by
    // grid index regardless).
    Rng rng(kJitterSeed ^
            (static_cast<std::uint64_t>(gridIndex) *
             0x9e3779b97f4a7c15ULL) ^
            tries);
    return delay * (0.5 + rng.uniform());
}

std::deque<Attempt>::const_iterator
Supervisor::pick(const std::deque<Attempt> &queue,
                 const std::set<Affinity> &warm,
                 const std::set<Affinity> &claimed, Clock::time_point now)
{
    auto first = queue.end();
    auto unclaimed = queue.end();
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->readyAt > now)
            continue;
        const Affinity key = affinity(it->task);
        if (warm.count(key))
            return it;
        if (first == queue.end())
            first = it;
        if (unclaimed == queue.end() && !claimed.count(key))
            unclaimed = it;
    }
    return unclaimed != queue.end() ? unclaimed : first;
}

void
Supervisor::run(const std::vector<Task> &tasks,
                const std::vector<std::string> &workerCmd,
                const Deliver &deliver, StatSet &stats)
{
    ACR_ASSERT(!workerCmd.empty(), "empty worker command");
    supervise(tasks, &workerCmd, nullptr, deliver, stats);
}

void
Supervisor::run(const std::vector<Task> &tasks, const NetOptions &net,
                const Deliver &deliver, StatSet &stats)
{
    supervise(tasks, nullptr, &net, deliver, stats);
}

void
Supervisor::supervise(const std::vector<Task> &tasks,
                      const std::vector<std::string> *workerCmd,
                      const NetOptions *net, const Deliver &deliver,
                      StatSet &stats)
{
    ACR_ASSERT(deliver, "supervisor needs a delivery sink");
    ACR_ASSERT(options_.heartbeatSec > 0, "heartbeat must be positive");

    // A send to a just-vanished peer must surface as a closed channel
    // (triggering a retry), not kill the coordinator.
    std::signal(SIGPIPE, SIG_IGN);

    double respawns = 0, retries = 0, busy_drops = 0, watchdog_kills = 0,
           quarantined = 0, joins = 0, leaves = 0, cold_deals = 0;

    std::deque<Attempt> queue;
    for (const auto &task : tasks)
        queue.push_back({task, 0, Clock::now()});
    std::size_t remaining = tasks.size();

    // Forked fleet: children are spawned on demand, up to this many at
    // once; spawns beyond the first `fleet` are respawns.
    const std::size_t fleet = std::max(1u, options_.workers);
    const std::size_t initial_fleet =
        std::min<std::size_t>(fleet, tasks.size());
    std::size_t spawned = 0;

    // TCP fleet: workers dial in and handshake.
    int listen_fd = -1;
    wire::HelloRecord identity;
    std::string hello_line;
    if (net != nullptr) {
        net::Endpoint bound;
        listen_fd = net::listenOn(net->listen, bound);
        std::fprintf(stderr, "[net] listening on %s\n",
                     bound.describe().c_str());
        identity = {net->bench, net->gridPoints, net->gridHash,
                    net::kProtocolVersion};
        hello_line = wire::encodeHelloLine(identity);
    }

    std::vector<std::unique_ptr<Peer>> peers;
    std::uint64_t next_id = 1;

    const auto heartbeat = secondsDuration(options_.heartbeatSec);
    // An unresponsive *idle* peer is dropped after missing several
    // heartbeats. A busy peer is single-threadedly simulating and
    // cannot answer pings, so only the --point-timeout watchdog (and
    // the stream itself, for an outright death) covers it.
    const auto idle_timeout = heartbeat * 4;
    // With work queued and nobody connected, wait this long for a
    // (re)join before quarantining everything left — the sweep
    // degrades to FAILED cells and exit 3, it never hangs. A forked
    // fleet never waits: it spawns.
    const auto join_grace = heartbeat * 8;
    auto empty_since = Clock::now();

    // Give up on @p attempt: deliver its placeholder result so the
    // sweep completes around it.
    auto quarantine = [&](const Attempt &attempt,
                          const std::string &reason) {
        ++quarantined;
        std::fprintf(stderr,
                     "[sweep] quarantining point %zu after %u "
                     "attempt(s): %s\n",
                     attempt.task.gridIndex, attempt.tries,
                     reason.c_str());
        deliver(attempt.task,
                ExperimentResult::quarantined(attempt.tries, reason));
        --remaining;
    };

    // Drop @p peer, invalidating it. A forked peer is SIGKILLed and
    // reaped by pid; when its stream @p closed under it (EOF, EPIPE,
    // ECONNRESET — which one wins is a race), its exit status is the
    // reason. A busy peer's in-flight point is retried behind its
    // jittered backoff or, out of retries, quarantined. An idle leave
    // costs nothing.
    auto dropPeer = [&](Peer *peer, std::string reason, bool closed) {
        peer->channel.close();
        if (peer->pid > 0) {
            ::kill(peer->pid, SIGKILL);
            const int status = reap(peer->pid);
            if (closed)
                reason = "worker " + describeStatus(status);
        }
        if (peer->state != Peer::State::kHandshake)
            ++leaves;
        if (peer->state == Peer::State::kBusy) {
            ++busy_drops;
            Attempt attempt = peer->attempt;
            ++attempt.tries;
            if (attempt.tries > options_.retries) {
                quarantine(attempt, reason);
            } else {
                ++retries;
                const double delay =
                    backoffSeconds(attempt.tries, attempt.task.gridIndex);
                std::fprintf(stderr,
                             "[sweep] point %zu failed (%s); retry "
                             "%u/%u on a fresh worker in %.2fs\n",
                             attempt.task.gridIndex, reason.c_str(),
                             attempt.tries, options_.retries, delay);
                attempt.readyAt = Clock::now() + secondsDuration(delay);
                queue.push_back(attempt);
            }
        } else {
            std::fprintf(stderr, "[%s] worker #%llu left: %s\n",
                         peer->pid > 0 ? "sweep" : "net",
                         static_cast<unsigned long long>(peer->id),
                         reason.c_str());
        }
        peers.erase(std::find_if(
            peers.begin(), peers.end(),
            [&](const std::unique_ptr<Peer> &p) { return p.get() == peer; }));
    };

    // Apply one inbound frame; returns false once the peer has been
    // dropped (protocol violation, handshake mismatch).
    auto handleFrame = [&](Peer *peer, const net::Frame &frame) -> bool {
        peer->lastHeard = Clock::now();
        if (frame.type == net::FrameType::kPong)
            return true;
        if (frame.type != net::FrameType::kWire) {
            dropPeer(peer,
                     csprintf("protocol error: unexpected frame type %u",
                              static_cast<unsigned>(frame.type)),
                     false);
            return false;
        }
        wire::Record record;
        try {
            record = wire::decodeLine(frame.payload);
        } catch (const serde::SerdeError &error) {
            // A garbled frame (or a skewed wire version — the record
            // envelope carries it) reads as a protocol error; the
            // peer is dropped and any in-flight point re-dealt.
            dropPeer(peer, csprintf("protocol error: %s", error.what()),
                     false);
            return false;
        }
        if (peer->state == Peer::State::kHandshake) {
            if (record.type != wire::Record::Type::kHello) {
                dropPeer(peer, "protocol error: expected a hello record",
                         false);
                return false;
            }
            if (record.hello != identity) {
                dropPeer(peer,
                         "handshake mismatch: worker offers " +
                             record.hello.describe(),
                         false);
                return false;
            }
            peer->state = Peer::State::kIdle;
            ++joins;
            std::fprintf(stderr, "[net] worker #%llu joined\n",
                         static_cast<unsigned long long>(peer->id));
            return true;
        }
        if (record.type != wire::Record::Type::kResult ||
            peer->state != Peer::State::kBusy ||
            record.result.index != peer->attempt.task.gridIndex) {
            dropPeer(peer, "protocol error: unexpected record", false);
            return false;
        }
        deliver(peer->attempt.task, std::move(record.result.result));
        peer->state = Peer::State::kIdle;
        --remaining;
        return true;
    };

    while (remaining > 0) {
        const auto now = Clock::now();

        // Accept joiners — late ones included; membership is elastic.
        if (listen_fd >= 0) {
            for (int fd; (fd = net::acceptOnce(listen_fd)) >= 0;) {
                peers.push_back(std::make_unique<Peer>(
                    next_id++, -1, fd, Peer::State::kHandshake, now));
                peers.back()->channel.send(net::FrameType::kWire,
                                           hello_line);
            }
        }

        // Deal ready work to idle peers, workload-affine (pick()): a
        // peer keeps to the workloads whose slice pass and prefix
        // snapshot its Runner already holds, takes one no live peer
        // holds next, and steals only when neither is queued, so a
        // fleet of any changing size drains the same queue. A forked
        // fleet with room spawns a peer for a ready point nobody idle
        // can take — never for a point still waiting out its backoff.
        // Forked peers start idle: the coordinator built their argv,
        // so there is no identity to prove.
        const auto is_idle = [](const std::unique_ptr<Peer> &p) {
            return p->state == Peer::State::kIdle;
        };
        const std::set<Affinity> spawned_warm;  // a new peer ran nothing
        while (true) {
            std::set<Affinity> claimed;
            for (const auto &p : peers)
                claimed.insert(p->warm.begin(), p->warm.end());
            const auto idle =
                std::find_if(peers.begin(), peers.end(), is_idle);
            Peer *peer = idle != peers.end() ? idle->get() : nullptr;
            const auto chosen =
                pick(queue, peer != nullptr ? peer->warm : spawned_warm,
                     claimed, now);
            if (chosen == queue.end())
                break;
            if (peer == nullptr) {
                if (workerCmd == nullptr || peers.size() >= fleet)
                    break;
                const bool respawn = spawned++ >= initial_fleet;
                respawns += respawn ? 1 : 0;
                int fd = -1;
                const pid_t pid = spawnWorker(*workerCmd, respawn, fd);
                peers.push_back(std::make_unique<Peer>(
                    next_id++, pid, fd, Peer::State::kIdle, now));
                peer = peers.back().get();
            }
            peer->attempt = *chosen;
            queue.erase(chosen);
            if (peer->warm.insert(affinity(peer->attempt.task)).second)
                ++cold_deals;
            peer->state = Peer::State::kBusy;
            peer->channel.send(net::FrameType::kWire,
                               wire::encodePointLine(
                                   {peer->attempt.task.gridIndex,
                                    *peer->attempt.task.point}));
            if (options_.pointTimeoutSec > 0)
                peer->deadline =
                    now + secondsDuration(options_.pointTimeoutSec);
        }

        // Heartbeats out; unresponsive idle peers and wedged busy
        // peers dropped.
        for (std::size_t i = 0; i < peers.size();) {
            Peer *peer = peers[i].get();
            if (now - peer->lastPing >= heartbeat) {
                peer->lastPing = now;
                peer->channel.send(net::FrameType::kPing, "");
            }
            if (peer->state != Peer::State::kBusy &&
                now - peer->lastHeard > idle_timeout) {
                dropPeer(peer, "heartbeat timeout", false);
                continue;  // dropPeer erased peers[i]
            }
            if (peer->state == Peer::State::kBusy &&
                options_.pointTimeoutSec > 0 && now >= peer->deadline) {
                ++watchdog_kills;
                dropPeer(peer,
                         csprintf("point exceeded --point-timeout=%g s",
                                  options_.pointTimeoutSec),
                         false);
                continue;
            }
            ++i;
        }

        if (listen_fd < 0 || !peers.empty()) {
            empty_since = now;
        } else if (now - empty_since > join_grace) {
            for (; !queue.empty(); queue.pop_front())
                quarantine(queue.front(), "no connected workers");
        }
        if (remaining == 0)
            break;  // the last point was just quarantined

        // Sleep until a frame arrives, or wake at the nearest watchdog
        // deadline or backoff expiry, capped so the time-based sweeps
        // above run at a bounded cadence regardless. A point that is
        // ready already wakes the loop only if a peer could take it
        // now: one is idle, or a drop above left a forked fleet room
        // to spawn. Otherwise it waits for a busy peer's result, which
        // poll() reports.
        const bool can_deal =
            std::any_of(peers.begin(), peers.end(), is_idle) ||
            (workerCmd != nullptr && peers.size() < fleet);
        long long timeout_ms = 200;
        auto wakeAt = [&](Clock::time_point when) {
            timeout_ms = std::clamp<long long>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    when - now)
                    .count(),
                0, timeout_ms);
        };
        for (const auto &attempt : queue)
            if (can_deal || attempt.readyAt > now)
                wakeAt(attempt.readyAt);
        for (const auto &peer : peers)
            if (peer->state == Peer::State::kBusy &&
                options_.pointTimeoutSec > 0)
                wakeAt(peer->deadline);

        std::vector<pollfd> fds;
        std::vector<std::uint64_t> owner;  // peer id; 0: the listener
        if (listen_fd >= 0) {
            fds.push_back({listen_fd, POLLIN, 0});
            owner.push_back(0);
        }
        for (const auto &peer : peers) {
            short events = POLLIN;
            if (peer->channel.wantsWrite())
                events |= POLLOUT;
            fds.push_back({peer->channel.fd(), events, 0});
            owner.push_back(peer->id);
        }
        const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                              static_cast<int>(timeout_ms));
        if (rc < 0 && errno != EINTR)
            fatal("poll: %s", std::strerror(errno));
        if (rc <= 0)
            continue;

        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0 || owner[i] == 0)
                continue;
            // The peer may have been dropped while handling an earlier
            // fd this round.
            const auto found = std::find_if(
                peers.begin(), peers.end(),
                [&](const std::unique_ptr<Peer> &p) {
                    return p->id == owner[i];
                });
            if (found == peers.end())
                continue;
            Peer *peer = found->get();
            std::vector<net::Frame> frames;
            std::string error;
            const auto io = peer->channel.readFrames(frames, error);
            // Complete frames that arrived ahead of a close still
            // count (a result racing its sender's crash lands).
            bool alive = true;
            for (const auto &frame : frames)
                if (!(alive = handleFrame(peer, frame)))
                    break;
            if (!alive)
                continue;
            if (io == net::FrameChannel::Io::kClosed ||
                peer->channel.flushWrites(error) ==
                    net::FrameChannel::Io::kClosed)
                dropPeer(peer, error, true);
        }
    }

    // Sweep complete: tell every peer to exit cleanly, with a short
    // best-effort flush (a stuck peer must not wedge the coordinator's
    // own exit), then close every stream and reap every forked child
    // — an unreaped worker would drop out of RUSAGE_CHILDREN.
    for (auto &peer : peers)
        peer->channel.send(net::FrameType::kShutdown, "");
    const auto flush_deadline = Clock::now() + std::chrono::seconds(2);
    while (Clock::now() < flush_deadline) {
        bool pending = false;
        for (auto &peer : peers) {
            std::string error;
            if (peer->channel.isOpen() &&
                peer->channel.flushWrites(error) ==
                    net::FrameChannel::Io::kOk &&
                peer->channel.wantsWrite())
                pending = true;
        }
        if (!pending)
            break;
        ::poll(nullptr, 0, 10);
    }
    for (auto &peer : peers) {
        peer->channel.close();
        if (peer->pid > 0)
            reap(peer->pid);
    }
    peers.clear();
    if (listen_fd >= 0)
        ::close(listen_fd);

    stats.set("sweep.retries", retries);
    // Crashes: busy peers lost to anything but the watchdog.
    stats.set("sweep.workerCrashes", busy_drops - watchdog_kills);
    stats.set("sweep.watchdogKills", watchdog_kills);
    stats.set("sweep.quarantined", quarantined);
    stats.set("sweep.coldDeals", cold_deals);
    if (net != nullptr) {
        stats.set("sweep.netJoins", joins);
        stats.set("sweep.netLeaves", leaves);
    } else {
        stats.set("sweep.respawns", respawns);
    }
}

} // namespace acr::harness
