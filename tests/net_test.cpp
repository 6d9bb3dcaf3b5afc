/**
 * @file
 * Transport-layer tests (DESIGN.md §15): strict HOST:PORT and
 * ACR_NET_FAULT parsing, frame round trips and the garbled-header
 * guard, fault injection on a socketpair, the hello handshake record,
 * and the Supervisor's TCP fleet driven by fake in-process workers —
 * deaths between and inside frames, mid-point deaths, handshake
 * rejection, and the empty-fleet join-grace quarantine. The full
 * kill/partition/garble campaign against real worker processes lives
 * in tests/distributed_smoke.sh.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/options.hh"
#include "harness/net.hh"
#include "harness/supervisor.hh"

namespace
{

using namespace acr;
using namespace acr::harness;

std::vector<GridPoint>
tinyGrid()
{
    std::vector<GridPoint> points;
    ExperimentConfig config;
    config.mode = BerMode::kNoCkpt;
    points.push_back({"is", config, 2});
    config.mode = BerMode::kCkpt;
    points.push_back({"is", config, 2});
    config.mode = BerMode::kReCkpt;
    points.push_back({"is", config, 2});
    return points;
}

/** A distinguishable successful result. */
ExperimentResult
fakeResult(std::uint64_t cycles)
{
    ExperimentResult result;
    result.cycles = cycles;
    result.energyPj = static_cast<double>(cycles) * 2.0;
    result.edp = static_cast<double>(cycles) * 3.0;
    result.checkpointsEstablished = 7;
    return result;
}

/** Nonblocking socketpair wrapped in FrameChannels for both ends. */
struct Pair
{
    std::unique_ptr<net::FrameChannel> a, b;

    explicit Pair(net::FaultPlan *fault_on_a = nullptr)
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0,
                               fds),
                  0);
        a = std::make_unique<net::FrameChannel>(fds[0], fault_on_a);
        b = std::make_unique<net::FrameChannel>(fds[1]);
    }
};

/** Flush until drained (or the injected close lands). */
net::FrameChannel::Io
flushAll(net::FrameChannel &channel, std::string &error)
{
    while (channel.isOpen() && channel.wantsWrite()) {
        if (channel.flushWrites(error) == net::FrameChannel::Io::kClosed)
            return net::FrameChannel::Io::kClosed;
    }
    return channel.flushWrites(error);
}

// --- Strict endpoint parsing (the shared parseStrict* path) ---

TEST(NetParse, HostPortStrict)
{
    std::string host;
    std::uint16_t port = 0;

    EXPECT_TRUE(parseHostPort("127.0.0.1:8080", host, port, false));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 8080);

    EXPECT_TRUE(parseHostPort("0.0.0.0:0", host, port, true));
    EXPECT_EQ(port, 0);

    // Port 0 only where the caller can resolve it (the listen side).
    EXPECT_FALSE(parseHostPort("h:0", host, port, false));
    // Strict digits: trailing garbage, signs, spaces, overflow.
    EXPECT_FALSE(parseHostPort("h:80x", host, port, false));
    EXPECT_FALSE(parseHostPort("h:+80", host, port, false));
    EXPECT_FALSE(parseHostPort("h: 80", host, port, false));
    EXPECT_FALSE(parseHostPort("h:65536", host, port, false));
    EXPECT_FALSE(parseHostPort("h:", host, port, false));
    EXPECT_FALSE(parseHostPort(":80", host, port, false));
    EXPECT_FALSE(parseHostPort("no-port", host, port, false));
}

TEST(NetParse, EndpointFatalNamesTheFlag)
{
    EXPECT_EXIT(net::parseEndpoint("nope", "--connect", false),
                testing::ExitedWithCode(1), "--connect");
    EXPECT_EXIT(net::parseEndpoint("h:0", "--connect", false),
                testing::ExitedWithCode(1), "--connect");
    EXPECT_EXIT(net::parseEndpoint("h:70000", "--listen", true),
                testing::ExitedWithCode(1), "--listen");
}

TEST(NetParse, FaultPlanStrict)
{
    auto plan = net::FaultPlan::parse("drop-after=3");
    EXPECT_EQ(plan.kind, net::FaultPlan::Kind::kDropAfter);
    EXPECT_EQ(plan.frame, 3u);
    EXPECT_TRUE(plan.active());

    plan = net::FaultPlan::parse("torn=1");
    EXPECT_EQ(plan.kind, net::FaultPlan::Kind::kTorn);

    plan = net::FaultPlan::parse("garble=7");
    EXPECT_EQ(plan.kind, net::FaultPlan::Kind::kGarble);

    plan = net::FaultPlan::parse("stall=2:0.25");
    EXPECT_EQ(plan.kind, net::FaultPlan::Kind::kStall);
    EXPECT_EQ(plan.frame, 2u);
    EXPECT_DOUBLE_EQ(plan.stallSec, 0.25);

    EXPECT_EXIT(net::FaultPlan::parse("drop-after=0"),
                testing::ExitedWithCode(1), "ACR_NET_FAULT");
    EXPECT_EXIT(net::FaultPlan::parse("torn=2x"),
                testing::ExitedWithCode(1), "ACR_NET_FAULT");
    EXPECT_EXIT(net::FaultPlan::parse("stall=2"),
                testing::ExitedWithCode(1), "ACR_NET_FAULT");
    EXPECT_EXIT(net::FaultPlan::parse("unplug=1"),
                testing::ExitedWithCode(1), "ACR_NET_FAULT");

    // Unset environment: no fault armed.
    ::unsetenv("ACR_NET_FAULT");
    EXPECT_EQ(net::FaultPlan::fromEnv().kind,
              net::FaultPlan::Kind::kNone);
    EXPECT_FALSE(net::FaultPlan::fromEnv().active());
}

// --- Framing ---

TEST(NetFrame, RoundTripOverSocketpair)
{
    Pair pair;
    pair.a->send(net::FrameType::kWire, "{\"hello\":1}");
    pair.a->send(net::FrameType::kPing, "");
    std::string error;
    ASSERT_EQ(flushAll(*pair.a, error), net::FrameChannel::Io::kOk);

    std::vector<net::Frame> frames;
    ASSERT_EQ(pair.b->readFrames(frames, error),
              net::FrameChannel::Io::kOk);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, net::FrameType::kWire);
    EXPECT_EQ(frames[0].payload, "{\"hello\":1}");
    EXPECT_EQ(frames[1].type, net::FrameType::kPing);
    EXPECT_TRUE(frames[1].payload.empty());
}

TEST(NetFrame, FramesRacingACloseStillDeliver)
{
    Pair pair;
    pair.a->send(net::FrameType::kShutdown, "");
    std::string error;
    ASSERT_EQ(flushAll(*pair.a, error), net::FrameChannel::Io::kOk);
    pair.a->close();

    // The receiver sees the frame and the EOF in one read pass; the
    // frame must not be discarded along with the close.
    std::vector<net::Frame> frames;
    EXPECT_EQ(pair.b->readFrames(frames, error),
              net::FrameChannel::Io::kClosed);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, net::FrameType::kShutdown);
}

TEST(NetFrame, GarbledLengthHeaderRejected)
{
    Pair pair;
    // A length claiming far more than kMaxFramePayload: reject the
    // stream, don't attempt the allocation.
    const unsigned char bogus[5] = {0xff, 0xff, 0xff, 0xff, 1};
    ASSERT_EQ(::send(pair.a->fd(), bogus, sizeof(bogus), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(bogus)));
    std::vector<net::Frame> frames;
    std::string error;
    EXPECT_EQ(pair.b->readFrames(frames, error),
              net::FrameChannel::Io::kClosed);
    EXPECT_TRUE(frames.empty());
    EXPECT_NE(error.find("garbled"), std::string::npos) << error;
    EXPECT_FALSE(pair.b->isOpen());
}

TEST(NetFrame, UnknownFrameTypeRejected)
{
    Pair pair;
    const unsigned char bogus[5] = {0, 0, 0, 0, 99};
    ASSERT_EQ(::send(pair.a->fd(), bogus, sizeof(bogus), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(bogus)));
    std::vector<net::Frame> frames;
    std::string error;
    EXPECT_EQ(pair.b->readFrames(frames, error),
              net::FrameChannel::Io::kClosed);
    EXPECT_NE(error.find("unknown frame type"), std::string::npos);
}

// --- Fault injection ---

TEST(NetFault, DropAfterClosesOnceFrameNIsOut)
{
    net::FaultPlan fault = net::FaultPlan::parse("drop-after=2");
    Pair pair(&fault);
    pair.a->send(net::FrameType::kWire, "one");
    pair.a->send(net::FrameType::kWire, "two");
    std::string error;
    EXPECT_EQ(flushAll(*pair.a, error), net::FrameChannel::Io::kClosed);
    EXPECT_TRUE(fault.fired);
    EXPECT_FALSE(pair.a->isOpen());

    // The peer receives both complete frames, then the EOF.
    std::vector<net::Frame> frames;
    EXPECT_EQ(pair.b->readFrames(frames, error),
              net::FrameChannel::Io::kClosed);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[1].payload, "two");
}

TEST(NetFault, TornFrameNeverCompletes)
{
    net::FaultPlan fault = net::FaultPlan::parse("torn=1");
    Pair pair(&fault);
    pair.a->send(net::FrameType::kWire, "half of this never arrives");
    std::string error;
    EXPECT_EQ(flushAll(*pair.a, error), net::FrameChannel::Io::kClosed);

    // The peer sees a partial frame and then the close: no frame.
    std::vector<net::Frame> frames;
    EXPECT_EQ(pair.b->readFrames(frames, error),
              net::FrameChannel::Io::kClosed);
    EXPECT_TRUE(frames.empty());
}

TEST(NetFault, GarbledPayloadKeepsLengthConsistent)
{
    net::FaultPlan fault = net::FaultPlan::parse("garble=1");
    Pair pair(&fault);
    const std::string payload = "{\"v\":5,\"type\":\"x\"}";
    pair.a->send(net::FrameType::kWire, payload);
    std::string error;
    ASSERT_EQ(flushAll(*pair.a, error), net::FrameChannel::Io::kOk);
    EXPECT_TRUE(pair.a->isOpen());

    // A full frame arrives — same length, different bytes — so the
    // corruption must be caught at record decode, not at the framing
    // layer.
    std::vector<net::Frame> frames;
    ASSERT_EQ(pair.b->readFrames(frames, error),
              net::FrameChannel::Io::kOk);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].payload.size(), payload.size());
    EXPECT_NE(frames[0].payload, payload);
    EXPECT_THROW(wire::decodeLine(frames[0].payload),
                 serde::SerdeError);

    // One-shot: the next frame travels clean.
    pair.a->send(net::FrameType::kWire, payload);
    ASSERT_EQ(flushAll(*pair.a, error), net::FrameChannel::Io::kOk);
    frames.clear();
    ASSERT_EQ(pair.b->readFrames(frames, error),
              net::FrameChannel::Io::kOk);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].payload, payload);
}

// --- The hello record ---

TEST(NetHello, RoundTripsThroughTheWire)
{
    wire::HelloRecord hello;
    hello.bench = "fig06_time_overhead";
    hello.gridPoints = 40;
    hello.gridHash = 0xdeadbeefcafef00dULL;
    hello.netVersion = net::kProtocolVersion;

    const auto record = wire::decodeLine(wire::encodeHelloLine(hello));
    ASSERT_EQ(record.type, wire::Record::Type::kHello);
    EXPECT_EQ(record.hello.bench, hello.bench);
    EXPECT_EQ(record.hello.gridPoints, hello.gridPoints);
    EXPECT_EQ(record.hello.gridHash, hello.gridHash);
    EXPECT_EQ(record.hello.netVersion, hello.netVersion);
}

// --- The Supervisor's TCP fleet against fake in-process workers ---

/** Deliveries recorded from the Supervisor's callback. */
struct Deliveries
{
    std::mutex mutex;
    std::vector<std::pair<std::size_t, ExperimentResult>> list;

    Supervisor::Deliver
    sink()
    {
        return [this](const Supervisor::Task &task,
                      ExperimentResult result) {
            std::lock_guard<std::mutex> lock(mutex);
            list.emplace_back(task.gridIndex, std::move(result));
        };
    }
};

/** Grab a loopback port the coordinator can (re)bind immediately. */
std::uint16_t
pickPort()
{
    net::Endpoint bound;
    const int fd = net::listenOn({"127.0.0.1", 0}, bound);
    ::close(fd);
    return bound.port;
}

/** Dial the coordinator, retrying while it binds. */
int
dialCoordinator(std::uint16_t port)
{
    const net::Endpoint endpoint{"127.0.0.1", port};
    for (int i = 0; i < 250; ++i) {
        std::string error;
        const int fd = net::connectOnce(endpoint, error);
        if (fd >= 0)
            return fd;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;
}

/** Blocking-ish frame wait on a nonblocking channel. */
bool
awaitFrame(net::FrameChannel &channel, std::deque<net::Frame> &inbox,
           net::Frame &frame, int timeout_ms = 10000)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
        if (!inbox.empty()) {
            frame = inbox.front();
            inbox.pop_front();
            return true;
        }
        if (!channel.isOpen() ||
            std::chrono::steady_clock::now() >= deadline)
            return false;
        std::string error;
        if (channel.wantsWrite())
            channel.flushWrites(error);
        pollfd pfd{channel.fd(), POLLIN, 0};
        ::poll(&pfd, 1, 50);
        std::vector<net::Frame> frames;
        channel.readFrames(frames, error);
        for (auto &f : frames)
            inbox.push_back(std::move(f));
    }
}

wire::HelloRecord
workerHello(const std::vector<GridPoint> &grid)
{
    wire::HelloRecord hello;
    hello.bench = "net_test";
    hello.gridPoints = grid.size();
    hello.gridHash = wire::gridHash(grid);
    hello.netVersion = net::kProtocolVersion;
    return hello;
}

Supervisor::NetOptions
coordinatorOptions(const std::vector<GridPoint> &grid,
                   std::uint16_t port)
{
    Supervisor::NetOptions net_options;
    net_options.listen = {"127.0.0.1", port};
    net_options.bench = "net_test";
    net_options.gridPoints = grid.size();
    net_options.gridHash = wire::gridHash(grid);
    return net_options;
}

/** A fake worker: handshake, answer dealt points with fakeResult(100 +
 *  index), answer pings, stop on shutdown/close — or after
 *  @p quit_after answered points, slamming the connection shut
 *  mid-membership. */
void
fakeWorker(std::uint16_t port, const std::vector<GridPoint> &grid,
           std::size_t quit_after = SIZE_MAX)
{
    std::signal(SIGPIPE, SIG_IGN);
    const int fd = dialCoordinator(port);
    ASSERT_GE(fd, 0);
    net::FrameChannel channel(fd);
    std::string error;
    channel.send(net::FrameType::kWire,
                 wire::encodeHelloLine(workerHello(grid)));
    std::deque<net::Frame> inbox;
    std::size_t answered = 0;
    net::Frame frame;
    while (awaitFrame(channel, inbox, frame)) {
        if (frame.type == net::FrameType::kShutdown)
            return;
        if (frame.type == net::FrameType::kPing) {
            channel.send(net::FrameType::kPong, "");
            continue;
        }
        if (frame.type != net::FrameType::kWire)
            continue;
        const auto record = wire::decodeLine(frame.payload);
        if (record.type != wire::Record::Type::kPoint)
            continue;  // the coordinator's own hello
        channel.send(net::FrameType::kWire,
                     wire::encodeResultLine(
                         {record.point.index,
                          fakeResult(100 + record.point.index)}));
        while (channel.isOpen() && channel.wantsWrite())
            channel.flushWrites(error);
        if (++answered >= quit_after)
            return;  // abrupt close (channel destructor)
    }
}

TEST(RunListen, ElasticFleetSurvivesDeathsBetweenAndInsideFrames)
{
    const auto grid = tinyGrid();
    const std::uint16_t port = pickPort();
    std::vector<Supervisor::Task> tasks;
    for (std::size_t i = 0; i < grid.size(); ++i)
        tasks.push_back({i, i, &grid[i]});

    Supervisor::Options options;
    options.retries = 2;
    options.heartbeatSec = 1;
    Supervisor supervisor(options);

    Deliveries delivered;
    StatSet stats;
    std::thread coordinator([&] {
        supervisor.run(tasks, coordinatorOptions(grid, port),
                       delivered.sink(), stats);
    });

    // A connection that dies inside a frame — half a hello, then an
    // abrupt close — must not take down the coordinator (which writes
    // its own hello to the dead socket: EPIPE, never SIGPIPE).
    {
        const int fd = dialCoordinator(port);
        ASSERT_GE(fd, 0);
        const std::string hello =
            net::encodeFrame(net::FrameType::kWire,
                             wire::encodeHelloLine(workerHello(grid)));
        const std::string half = hello.substr(0, hello.size() / 2);
        ASSERT_EQ(::send(fd, half.data(), half.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(half.size()));
        ::close(fd);
    }

    // A member that answers one point and then dies between frames:
    // any point it still held is re-dealt to the survivor.
    std::thread quitter(
        [&] { fakeWorker(port, grid, /*quit_after=*/1); });
    quitter.join();

    std::thread survivor([&] { fakeWorker(port, grid); });
    coordinator.join();
    survivor.join();

    ASSERT_EQ(delivered.list.size(), grid.size());
    for (const auto &[index, result] : delivered.list) {
        EXPECT_FALSE(result.failed) << "point " << index;
        EXPECT_EQ(result.cycles, 100 + index);
    }
    EXPECT_GE(stats.get("sweep.netJoins"), 2.0);
    EXPECT_EQ(stats.get("sweep.quarantined"), 0.0);
}

TEST(RunListen, HandshakeMismatchIsRejected)
{
    const auto grid = tinyGrid();
    const std::uint16_t port = pickPort();
    std::vector<Supervisor::Task> tasks;
    for (std::size_t i = 0; i < grid.size(); ++i)
        tasks.push_back({i, i, &grid[i]});

    Supervisor::Options options;
    options.retries = 0;
    options.heartbeatSec = 1;
    Supervisor supervisor(options);

    Deliveries delivered;
    StatSet stats;
    std::thread coordinator([&] {
        supervisor.run(tasks, coordinatorOptions(grid, port),
                       delivered.sink(), stats);
    });

    // A worker offering a skewed grid hash: rejected at handshake,
    // dealt nothing, connection closed by the coordinator.
    {
        const int fd = dialCoordinator(port);
        ASSERT_GE(fd, 0);
        net::FrameChannel channel(fd);
        auto hello = workerHello(grid);
        hello.gridHash ^= 1;
        channel.send(net::FrameType::kWire,
                     wire::encodeHelloLine(hello));
        std::deque<net::Frame> inbox;
        net::Frame frame;
        // The coordinator's own hello arrives, then the close; no
        // point record may ever reach this impostor.
        while (awaitFrame(channel, inbox, frame)) {
            if (frame.type != net::FrameType::kWire)
                continue;
            const auto record = wire::decodeLine(frame.payload);
            EXPECT_NE(record.type, wire::Record::Type::kPoint);
        }
        EXPECT_FALSE(channel.isOpen());
    }

    std::thread honest([&] { fakeWorker(port, grid); });
    coordinator.join();
    honest.join();

    ASSERT_EQ(delivered.list.size(), grid.size());
    for (const auto &[index, result] : delivered.list)
        EXPECT_FALSE(result.failed) << "point " << index;
    EXPECT_EQ(stats.get("sweep.quarantined"), 0.0);
}

TEST(RunListen, EmptyFleetQuarantinesInsteadOfHanging)
{
    const auto grid = tinyGrid();
    const std::uint16_t port = pickPort();
    std::vector<Supervisor::Task> tasks = {{0, 0, &grid[0]}};

    Supervisor::Options options;
    options.retries = 2;
    options.heartbeatSec = 1;
    Supervisor supervisor(options);

    Deliveries delivered;
    StatSet stats;
    // Nobody ever connects: once the join grace (8 heartbeats)
    // expires, the queued point is quarantined and the coordinator
    // returns — the sweep degrades to a FAILED cell, it does not hang.
    supervisor.run(tasks, coordinatorOptions(grid, port),
                   delivered.sink(), stats);

    ASSERT_EQ(delivered.list.size(), 1u);
    EXPECT_TRUE(delivered.list[0].second.failed);
    EXPECT_NE(delivered.list[0].second.failReason.find(
                  "no connected workers"),
              std::string::npos)
        << delivered.list[0].second.failReason;
    EXPECT_EQ(stats.get("sweep.quarantined"), 1.0);
}

} // namespace
