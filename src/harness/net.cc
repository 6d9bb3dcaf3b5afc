#include "harness/net.hh"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace acr::harness::net
{

std::string
encodeFrame(FrameType type, const std::string &payload)
{
    ACR_ASSERT(payload.size() <= kMaxFramePayload,
               "frame payload of %zu bytes exceeds the %u-byte bound",
               payload.size(), kMaxFramePayload);
    const std::uint32_t length =
        static_cast<std::uint32_t>(payload.size());
    std::string frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    frame.push_back(static_cast<char>(length & 0xff));
    frame.push_back(static_cast<char>((length >> 8) & 0xff));
    frame.push_back(static_cast<char>((length >> 16) & 0xff));
    frame.push_back(static_cast<char>((length >> 24) & 0xff));
    frame.push_back(static_cast<char>(type));
    frame += payload;
    return frame;
}

bool
decodeFrameHeader(const char *header, std::uint32_t &length,
                  FrameType &type, std::string &error)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(header);
    length = static_cast<std::uint32_t>(bytes[0]) |
             (static_cast<std::uint32_t>(bytes[1]) << 8) |
             (static_cast<std::uint32_t>(bytes[2]) << 16) |
             (static_cast<std::uint32_t>(bytes[3]) << 24);
    if (length > kMaxFramePayload) {
        error = csprintf("frame header claims %u bytes (garbled stream?)",
                         length);
        return false;
    }
    if (bytes[4] < static_cast<std::uint8_t>(FrameType::kWire) ||
        bytes[4] > static_cast<std::uint8_t>(FrameType::kShutdown)) {
        error = csprintf("unknown frame type %u", bytes[4]);
        return false;
    }
    type = static_cast<FrameType>(bytes[4]);
    return true;
}

void
setNonblocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        fatal("fcntl(O_NONBLOCK): %s", std::strerror(errno));
}

// --- FrameChannel ---

FrameChannel::FrameChannel(int fd) : fd_(fd)
{
    ACR_ASSERT(fd >= 0, "FrameChannel needs a connected fd");
}

FrameChannel::~FrameChannel()
{
    close();
}

void
FrameChannel::send(FrameType type, const std::string &payload)
{
    if (fd_ >= 0)
        wbuf_ += encodeFrame(type, payload);
}

FrameChannel::Io
FrameChannel::flushWrites(std::string &error)
{
    while (fd_ >= 0 && !wbuf_.empty()) {
        const ssize_t n =
            ::send(fd_, wbuf_.data(), wbuf_.size(), MSG_NOSIGNAL);
        if (n > 0) {
            wbuf_.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return Io::kOk;
        error = csprintf("write failed: %s", std::strerror(errno));
        close();
        return Io::kClosed;
    }
    return Io::kOk;
}

FrameChannel::Io
FrameChannel::readFrames(std::vector<Frame> &frames, std::string &error)
{
    // Complete frames that arrived together with the close are still
    // parsed and delivered below — a shutdown (or result) racing its
    // sender's exit must not be discarded.
    Io io = Io::kOk;
    while (fd_ >= 0) {
        char chunk[65536];
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            error = csprintf("read failed: %s", std::strerror(errno));
            io = Io::kClosed;
            break;
        }
        if (n == 0) {
            error = "connection closed by peer";
            io = Io::kClosed;
            break;
        }
        rbuf_.append(chunk, static_cast<std::size_t>(n));
    }

    while (rbuf_.size() >= kFrameHeaderBytes) {
        Frame frame;
        std::uint32_t length = 0;
        if (!decodeFrameHeader(rbuf_.data(), length, frame.type, error)) {
            close();
            return Io::kClosed;
        }
        if (rbuf_.size() < kFrameHeaderBytes + length)
            break;  // partial frame: wait for more bytes
        frame.payload = rbuf_.substr(kFrameHeaderBytes, length);
        rbuf_.erase(0, kFrameHeaderBytes + length);
        frames.push_back(std::move(frame));
    }
    if (io == Io::kClosed)
        close();
    return io;
}

void
FrameChannel::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    wbuf_.clear();
}

} // namespace acr::harness::net
