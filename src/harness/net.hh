/**
 * @file
 * The forked sweep's transport (DESIGN.md §8.3): nonblocking
 * length-framed streams carrying the harness::wire ndjson records
 * between the coordinator and its forked `--worker` children, over a
 * socketpair that is each child's stdin and stdout.
 *
 * A frame is a 4-byte little-endian payload length, a 1-byte type, and
 * the payload bytes. `kWire` frames carry exactly one wire record line
 * (point, result); `kShutdown` is an empty control frame for clean
 * worker shutdown. The payload length is bounded (kMaxFramePayload) so
 * a garbled header surfaces as a protocol error instead of an
 * unbounded allocation.
 *
 * I/O conventions: every read/write retries EINTR, EAGAIN yields back
 * to poll(), writes pass MSG_NOSIGNAL (and callers ignore SIGPIPE) so
 * a peer dying between frames surfaces as a closed channel, never a
 * killed process.
 */

#ifndef ACR_HARNESS_NET_HH
#define ACR_HARNESS_NET_HH

#include <cstdint>
#include <string>
#include <vector>

namespace acr::harness::net
{

/** Payload bound: anything larger is a garbled length header, not a
 *  record (the largest real record is a result line, well under 1 MB). */
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/** u32 LE payload length + u8 type. */
inline constexpr std::size_t kFrameHeaderBytes = 5;

enum class FrameType : std::uint8_t
{
    kWire = 1,      ///< payload: one harness::wire record line
    kShutdown = 2,  ///< sweep done: the worker may exit cleanly
};

struct Frame
{
    FrameType type = FrameType::kWire;
    std::string payload;
};

/** Header + payload bytes of one frame, ready to write. */
std::string encodeFrame(FrameType type, const std::string &payload);

/**
 * Parse one kFrameHeaderBytes header. False, with the reason in
 * @p error, when the stream is unparseable: a length beyond
 * kMaxFramePayload or an unknown type.
 */
bool decodeFrameHeader(const char *header, std::uint32_t &length,
                       FrameType &type, std::string &error);

/** Set O_NONBLOCK on @p fd; fatal() on failure. */
void setNonblocking(int fd);

/**
 * Nonblocking framed I/O over one connected socketpair end. The owner
 * polls fd() for POLLIN (always) and POLLOUT (when wantsWrite()), then
 * calls readFrames()/flushWrites(); either returns kClosed once the peer is
 * gone (EOF, ECONNRESET, EPIPE) or the stream is unparseable (garbled
 * length header), with the reason in the caller's error string.
 */
class FrameChannel
{
  public:
    enum class Io
    {
        kOk,
        kClosed,
    };

    /** Takes ownership of @p fd. */
    explicit FrameChannel(int fd);
    ~FrameChannel();

    FrameChannel(const FrameChannel &) = delete;
    FrameChannel &operator=(const FrameChannel &) = delete;

    int fd() const { return fd_; }
    bool isOpen() const { return fd_ >= 0; }

    /** Queue one frame; call flushWrites() to move bytes. */
    void send(FrameType type, const std::string &payload);

    /** True while queued bytes remain — poll POLLOUT. */
    bool wantsWrite() const { return fd_ >= 0 && !wbuf_.empty(); }

    /** Write queued bytes until done or EAGAIN. */
    Io flushWrites(std::string &error);

    /** Read available bytes, appending every complete frame to
     *  @p frames (partial tails stay buffered for the next call). */
    Io readFrames(std::vector<Frame> &frames, std::string &error);

    void close();

  private:
    int fd_ = -1;
    std::string rbuf_;
    std::string wbuf_;
};

} // namespace acr::harness::net

#endif // ACR_HARNESS_NET_HH
