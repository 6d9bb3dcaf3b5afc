#include "harness/net.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.hh"
#include "common/options.hh"

namespace acr::harness::net
{

namespace
{

void
setNodelay(int fd)
{
    // Point/result lines are single small frames on a lockstep
    // request/reply path; Nagle would serialize the whole sweep on
    // delayed ACKs.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** getaddrinfo for one IPv4 stream endpoint; fatal() via @p what on
 *  resolution failure. Caller frees with freeaddrinfo. */
addrinfo *
resolve(const Endpoint &endpoint, bool passive, const char *what)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
    addrinfo *info = nullptr;
    const std::string service = std::to_string(endpoint.port);
    const int rc = ::getaddrinfo(endpoint.host.c_str(),
                                 service.c_str(), &hints, &info);
    if (rc != 0)
        fatal("%s: cannot resolve '%s': %s", what,
              endpoint.describe().c_str(), ::gai_strerror(rc));
    return info;
}

} // namespace

std::string
Endpoint::describe() const
{
    return host + ":" + std::to_string(port);
}

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

Endpoint
parseEndpoint(const std::string &spec, const char *flag,
              bool allow_port_zero)
{
    Endpoint endpoint;
    if (!parseHostPort(spec, endpoint.host, endpoint.port,
                       allow_port_zero))
        fatal("bad %s '%s' (want HOST:PORT with a port in [%d, 65535])",
              flag, spec.c_str(), allow_port_zero ? 0 : 1);
    return endpoint;
}

int
listenOn(const Endpoint &endpoint, Endpoint &bound)
{
    addrinfo *info = resolve(endpoint, true, "--listen");
    const int fd = ::socket(info->ai_family, info->ai_socktype, 0);
    if (fd < 0)
        fatal("socket: %s", std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, info->ai_addr, info->ai_addrlen) != 0)
        fatal("bind %s: %s", endpoint.describe().c_str(),
              std::strerror(errno));
    ::freeaddrinfo(info);
    if (::listen(fd, 64) != 0)
        fatal("listen %s: %s", endpoint.describe().c_str(),
              std::strerror(errno));

    sockaddr_in actual{};
    socklen_t length = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&actual),
                      &length) != 0)
        fatal("getsockname: %s", std::strerror(errno));
    char text[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &actual.sin_addr, text, sizeof(text));
    bound.host = text;
    bound.port = ntohs(actual.sin_port);

    setNonblocking(fd);
    return fd;
}

int
acceptOnce(int listen_fd)
{
    while (true) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) {
            setNonblocking(fd);
            setNodelay(fd);
            return fd;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return -1;
        if (errno != EINTR)
            fatal("accept: %s", std::strerror(errno));
    }
}

int
connectOnce(const Endpoint &endpoint, std::string &error)
{
    addrinfo *info = resolve(endpoint, false, "--connect");
    const int fd = ::socket(info->ai_family, info->ai_socktype, 0);
    if (fd < 0)
        fatal("socket: %s", std::strerror(errno));
    int rc;
    do {
        rc = ::connect(fd, info->ai_addr, info->ai_addrlen);
    } while (rc != 0 && errno == EINTR);
    ::freeaddrinfo(info);
    if (rc != 0) {
        error = std::strerror(errno);
        ::close(fd);
        return -1;
    }
    setNonblocking(fd);
    setNodelay(fd);
    return fd;
}

// --- FaultPlan ---

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    const auto fail = [&spec]() -> FaultPlan {
        fatal("ACR_NET_FAULT='%s' is not a known fault (want "
              "drop-after=N, torn=N, stall=N:SECS, or garble=N)",
              spec.c_str());
    };

    const auto equals = spec.find('=');
    if (equals == std::string::npos)
        return fail();
    const std::string kind = spec.substr(0, equals);
    const std::string arg = spec.substr(equals + 1);

    FaultPlan plan;
    std::string ordinal = arg;
    if (kind == "drop-after") {
        plan.kind = Kind::kDropAfter;
    } else if (kind == "torn") {
        plan.kind = Kind::kTorn;
    } else if (kind == "garble") {
        plan.kind = Kind::kGarble;
    } else if (kind == "stall") {
        const auto colon = arg.find(':');
        if (colon == std::string::npos)
            return fail();
        plan.kind = Kind::kStall;
        ordinal = arg.substr(0, colon);
        if (!parseStrictDouble(arg.substr(colon + 1), plan.stallSec) ||
            plan.stallSec < 0)
            return fail();
    } else {
        return fail();
    }
    unsigned long long frame = 0;
    if (!parseStrictUint(ordinal, frame) || frame == 0)
        return fail();
    plan.frame = frame;
    return plan;
}

FaultPlan
FaultPlan::fromEnv()
{
    const char *spec = std::getenv("ACR_NET_FAULT");
    if (spec == nullptr || *spec == '\0')
        return FaultPlan{};
    return parse(spec);
}

// --- FrameChannel ---

FrameChannel::FrameChannel(int fd, FaultPlan *fault)
    : fd_(fd), fault_(fault)
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
    if (fd_ < 0 || closeAfterFlush_)
        return;  // the injected close already won

    std::string bytes = encodeFrame(type, payload);
    if (fault_ != nullptr && fault_->active() &&
        ++fault_->sent == fault_->frame) {
        fault_->fired = true;
        switch (fault_->kind) {
        case FaultPlan::Kind::kDropAfter:
            closeAfterFlush_ = true;
            break;
        case FaultPlan::Kind::kTorn:
            bytes.resize(bytes.size() / 2);
            closeAfterFlush_ = true;
            break;
        case FaultPlan::Kind::kStall:
            // A genuine stall: the whole process sleeps, reads
            // included, exactly like a wedged remote host.
            std::this_thread::sleep_for(
                std::chrono::duration<double>(fault_->stallSec));
            break;
        case FaultPlan::Kind::kGarble:
            // The payload only: the length header stays consistent.
            for (std::size_t i = kFrameHeaderBytes; i < bytes.size(); ++i)
                bytes[i] = static_cast<char>(bytes[i] ^ 0x5a);
            break;
        case FaultPlan::Kind::kNone:
            break;
        }
    }
    wbuf_ += bytes;
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
    if (fd_ >= 0 && wbuf_.empty() && closeAfterFlush_) {
        // Injected drop/tear: vanish without so much as a FIN delay.
        close();
        error = "connection closed by fault injection";
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
