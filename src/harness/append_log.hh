/**
 * @file
 * AppendLog: the durable ndjson append log under the ResultCache
 * (result_cache.hh). The owner keeps its header and record rules; the
 * durability protocol lives here: a torn final line (a writer died
 * mid-append) is dropped on load and chopped off before appending
 * resumes, every record is fsync'd, and a failed write or fsync
 * (ENOSPC, EIO) warns once and turns the log into a no-op instead of
 * killing the sweep.
 *
 * Not thread-safe: the owner serializes calls under its own mutex.
 */

#ifndef ACR_HARNESS_APPEND_LOG_HH
#define ACR_HARNESS_APPEND_LOG_HH

#include <cstddef>
#include <string>
#include <vector>

namespace acr::harness
{

class AppendLog
{
  public:
    /** @param what names the file in warnings and fatals ("cache");
     *  @param degradeNote ends the append-failure warning. */
    AppendLog(const char *what, const char *degradeNote)
        : what_(what), degradeNote_(degradeNote)
    {
    }
    ~AppendLog() { close(); }

    AppendLog(const AppendLog &) = delete;
    AppendLog &operator=(const AppendLog &) = delete;

    /** The complete lines of @p path (none when it is missing). */
    std::vector<std::string> load(const std::string &path);

    /** Reopen the loaded file for appending after its first @p keep
     *  lines, chopping whatever followed them. fatal() on I/O errors. */
    void resume(std::size_t keep);

    /** Truncate or create @p path to hold only @p header, fsync'd.
     *  fatal() on I/O errors. */
    void create(const std::string &path, const std::string &header);

    /** Append @p line and a newline, fsync'd. False when nothing was
     *  persisted: the log is degraded, or this append degraded it. */
    bool append(const std::string &line);

    /** Test hook: make the next append fail as if the disk were full
     *  (exercises the ENOSPC degrade path without a full disk). */
    void failNextWriteForTest() { failNextWrite_ = true; }

    /** True after resume() or create() — including after a degrade,
     *  whose owner still serves what it loaded. */
    bool isOpen() const { return fd_ >= 0 || degraded_; }

    /** The file was disabled by a failed append or fsync. */
    bool degraded() const { return degraded_; }

    void close();

  private:
    const char *what_;
    const char *degradeNote_;
    std::string path_;
    std::vector<std::size_t> lineEnds_;  ///< load(): offset past each line
    int fd_ = -1;
    bool degraded_ = false;
    bool failNextWrite_ = false;
};

} // namespace acr::harness

#endif // ACR_HARNESS_APPEND_LOG_HH
