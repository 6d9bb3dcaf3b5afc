/**
 * @file
 * The sweep's transport layer (DESIGN.md §15): nonblocking
 * length-framed streams carrying the harness::wire ndjson records
 * between one coordinator and its fleet — `--connect` workers over
 * TCP, and forked `--worker` children over a socketpair that is their
 * stdin and stdout (DESIGN.md §8.3).
 *
 * A frame is a 4-byte little-endian payload length, a 1-byte type, and
 * the payload bytes. `kWire` frames carry exactly one wire record line
 * (hello, point, result); `kPing`/`kPong`/`kShutdown` are empty
 * control frames for the heartbeat and for clean worker shutdown. The
 * payload length is bounded (kMaxFramePayload) so a garbled header
 * surfaces as a protocol error instead of an unbounded allocation.
 *
 * Robustness is the point, so the layer ships with its own adversary:
 * `FaultPlan` parses ACR_NET_FAULT and lets a test process drop its
 * connection after N frames, tear frame N in half mid-write, stall
 * before frame N, or garble frame N's payload — one shot per process,
 * surviving reconnects, so the smoke suite can kill, partition, and
 * corrupt workers mid-sweep and still require byte-identical rendered
 * output.
 *
 * I/O conventions: every read/write retries EINTR, EAGAIN yields back
 * to poll(), writes pass MSG_NOSIGNAL (and callers ignore SIGPIPE) so
 * a peer dying between frames surfaces as a closed channel, never a
 * killed process.
 */

#ifndef ACR_HARNESS_NET_HH
#define ACR_HARNESS_NET_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace acr::harness::net
{

/** Bump on any framing or handshake change (header layout, frame
 *  types, hello fields); carried in the hello record so a skewed peer
 *  is rejected at handshake, not mid-sweep. */
inline constexpr std::uint64_t kProtocolVersion = 1;

/** Payload bound: anything larger is a garbled length header, not a
 *  record (the largest real record is a result line, well under 1 MB). */
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/** u32 LE payload length + u8 type. */
inline constexpr std::size_t kFrameHeaderBytes = 5;

enum class FrameType : std::uint8_t
{
    kWire = 1,      ///< payload: one harness::wire record line
    kPing = 2,      ///< coordinator keepalive (empty payload)
    kPong = 3,      ///< worker keepalive reply (empty payload)
    kShutdown = 4,  ///< sweep done: the worker may exit cleanly
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

/** A parsed HOST:PORT pair. */
struct Endpoint
{
    std::string host;
    std::uint16_t port = 0;

    std::string describe() const;
};

/**
 * Strict HOST:PORT parse (common/options.hh parseHostPort) for the
 * --listen/--connect/ACR_CONNECT endpoints; fatal() names @p flag on
 * any malformation. Port 0 ("pick a free port") is only meaningful on
 * the listen side.
 */
Endpoint parseEndpoint(const std::string &spec, const char *flag,
                       bool allow_port_zero);

/**
 * Bind + listen on @p endpoint, nonblocking; fatal() on any socket
 * error. @p bound receives the actual bound address, resolving a
 * port-0 request to the kernel-picked port.
 */
int listenOn(const Endpoint &endpoint, Endpoint &bound);

/**
 * Accept one pending connection on @p listen_fd as a nonblocking,
 * TCP_NODELAY fd; -1 when none is pending. fatal() on socket errors.
 */
int acceptOnce(int listen_fd);

/**
 * One connect attempt to @p endpoint. On success returns a connected,
 * nonblocking, TCP_NODELAY fd; on failure returns -1 with the reason
 * in @p error (the caller owns the retry loop — a worker keeps trying
 * across coordinator restarts until its reconnect window closes).
 */
int connectOnce(const Endpoint &endpoint, std::string &error);

/**
 * Transport fault injection, parsed from ACR_NET_FAULT. Exactly one
 * fault per process, keyed to a 1-based *outbound* frame ordinal that
 * keeps counting across reconnects:
 *
 *   drop-after=N   close the connection abruptly once frame N has
 *                  been fully written
 *   torn=N         write only the first half of frame N, then close
 *                  (the peer sees a frame that never completes)
 *   stall=N:SECS   sleep SECS seconds before sending frame N (the
 *                  process genuinely stops — reads stall too)
 *   garble=N       XOR frame N's payload bytes (the length header
 *                  stays consistent, so the peer reads a full frame
 *                  of garbage and must reject it at decode)
 */
struct FaultPlan
{
    enum class Kind
    {
        kNone,
        kDropAfter,
        kTorn,
        kStall,
        kGarble,
    };

    Kind kind = Kind::kNone;
    std::uint64_t frame = 0;  ///< 1-based outbound frame ordinal
    double stallSec = 0.0;    ///< kStall only

    /** Outbound frames sent so far (across every channel that shares
     *  this plan — reconnects keep counting). */
    std::uint64_t sent = 0;
    /** One-shot: set once the fault has been injected. */
    bool fired = false;

    bool active() const { return kind != Kind::kNone && !fired; }

    /** Parse a spec; fatal() names ACR_NET_FAULT on garbage (strict:
     *  trailing text, signs, and out-of-range ordinals all fail). */
    static FaultPlan parse(const std::string &spec);

    /** Plan from $ACR_NET_FAULT (kNone when unset/empty). */
    static FaultPlan fromEnv();
};

/**
 * Nonblocking framed I/O over one connected socket (TCP or a
 * socketpair end). The owner polls fd() for POLLIN (always) and
 * POLLOUT (when wantsWrite()), then calls
 * readFrames()/flushWrites(); either returns kClosed once the peer is
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

    /** Takes ownership of @p fd. @p fault (not owned, may be null)
     *  applies the process's ACR_NET_FAULT plan to outbound frames. */
    explicit FrameChannel(int fd, FaultPlan *fault = nullptr);
    ~FrameChannel();

    FrameChannel(const FrameChannel &) = delete;
    FrameChannel &operator=(const FrameChannel &) = delete;

    int fd() const { return fd_; }
    bool isOpen() const { return fd_ >= 0; }

    /** Queue one frame (fault plan applied); call flushWrites() to
     *  move bytes. Frames queued after an injected close are dropped. */
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
    FaultPlan *fault_;
    std::string rbuf_;
    std::string wbuf_;
    bool closeAfterFlush_ = false;
};

} // namespace acr::harness::net

#endif // ACR_HARNESS_NET_HH
