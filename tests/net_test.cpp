/**
 * @file
 * Transport-layer tests (DESIGN.md §8.3): frame round trips over a
 * socketpair, frames racing a close, a torn frame that never
 * completes, and the garbled-header and unknown-type guards. The
 * forked fleet against misbehaving worker processes is tested in
 * supervisor_test.cpp.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/net.hh"

namespace
{

using namespace acr::harness;

/** Nonblocking socketpair wrapped in FrameChannels for both ends. */
struct Pair
{
    std::unique_ptr<net::FrameChannel> a, b;

    Pair()
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0,
                               fds),
                  0);
        a = std::make_unique<net::FrameChannel>(fds[0]);
        b = std::make_unique<net::FrameChannel>(fds[1]);
    }
};

/** Flush until drained. */
net::FrameChannel::Io
flushAll(net::FrameChannel &channel, std::string &error)
{
    while (channel.isOpen() && channel.wantsWrite()) {
        if (channel.flushWrites(error) == net::FrameChannel::Io::kClosed)
            return net::FrameChannel::Io::kClosed;
    }
    return channel.flushWrites(error);
}

// --- Framing ---

TEST(NetFrame, RoundTripOverSocketpair)
{
    Pair pair;
    pair.a->send(net::FrameType::kWire, "{\"any\":1}");
    pair.a->send(net::FrameType::kShutdown, "");
    std::string error;
    ASSERT_EQ(flushAll(*pair.a, error), net::FrameChannel::Io::kOk);

    std::vector<net::Frame> frames;
    ASSERT_EQ(pair.b->readFrames(frames, error),
              net::FrameChannel::Io::kOk);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, net::FrameType::kWire);
    EXPECT_EQ(frames[0].payload, "{\"any\":1}");
    EXPECT_EQ(frames[1].type, net::FrameType::kShutdown);
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
    // Every type byte but kWire (1) and kShutdown (2).
    for (const unsigned char type : {0, 3, 4, 99}) {
        Pair pair;
        const unsigned char bogus[5] = {0, 0, 0, 0, type};
        ASSERT_EQ(::send(pair.a->fd(), bogus, sizeof(bogus), MSG_NOSIGNAL),
                  static_cast<ssize_t>(sizeof(bogus)));
        std::vector<net::Frame> frames;
        std::string error;
        EXPECT_EQ(pair.b->readFrames(frames, error),
                  net::FrameChannel::Io::kClosed);
        EXPECT_NE(error.find("unknown frame type"), std::string::npos)
            << unsigned{type};
    }
}

TEST(NetFrame, TornFrameNeverCompletes)
{
    Pair pair;
    // Half a frame, then the writer vanishes: the peer sees a partial
    // frame and then the close, and delivers no frame.
    const std::string frame = net::encodeFrame(
        net::FrameType::kWire, "half of this never arrives");
    const std::string half = frame.substr(0, frame.size() / 2);
    ASSERT_EQ(::send(pair.a->fd(), half.data(), half.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(half.size()));
    pair.a->close();

    std::vector<net::Frame> frames;
    std::string error;
    EXPECT_EQ(pair.b->readFrames(frames, error),
              net::FrameChannel::Io::kClosed);
    EXPECT_TRUE(frames.empty());
}

} // namespace
