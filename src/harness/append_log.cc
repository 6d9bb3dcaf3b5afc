#include "harness/append_log.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/logging.hh"

namespace acr::harness
{

namespace
{

/** write(2) all of @p bytes, retrying EINTR, then fsync(2); 0 or the
 *  failing errno. */
int
persist(int fd, const std::string &bytes)
{
    for (std::size_t off = 0; off < bytes.size();) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno != EINTR)
            return errno;
        off += n > 0 ? static_cast<std::size_t>(n) : 0;
    }
    while (::fsync(fd) < 0) {
        if (errno != EINTR)
            return errno;
    }
    return 0;
}

} // namespace

std::vector<std::string>
AppendLog::load(const std::string &path)
{
    ACR_ASSERT(fd_ < 0, "%s already open", what_);
    path_ = path;
    lineEnds_.clear();
    std::vector<std::string> lines;
    std::ifstream in(path, std::ios::binary);
    for (std::string line; std::getline(in, line);) {
        if (in.eof()) {
            // Torn tail: no newline. That record is simply recomputed.
            warn("%s '%s': dropping torn final line", what_,
                 path.c_str());
            break;
        }
        lines.push_back(std::move(line));
        lineEnds_.push_back(static_cast<std::size_t>(in.tellg()));
    }
    return lines;
}

void
AppendLog::resume(std::size_t keep)
{
    ACR_ASSERT(fd_ < 0 && keep <= lineEnds_.size(), "bad %s resume",
               what_);
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0)
        fatal("cannot reopen %s '%s': %s", what_, path_.c_str(),
              std::strerror(errno));
    const off_t durable =
        keep == 0 ? 0 : static_cast<off_t>(lineEnds_[keep - 1]);
    while (::ftruncate(fd_, durable) < 0) {
        if (errno != EINTR)
            fatal("truncate %s '%s': %s", what_, path_.c_str(),
                  std::strerror(errno));
    }
}

void
AppendLog::create(const std::string &path, const std::string &header)
{
    ACR_ASSERT(fd_ < 0, "%s already open", what_);
    path_ = path;
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0)
        fatal("cannot create %s '%s': %s", what_, path.c_str(),
              std::strerror(errno));
    if (const int error = persist(fd_, header + "\n"))
        fatal("writing %s '%s': %s", what_, path.c_str(),
              std::strerror(error));
}

bool
AppendLog::append(const std::string &line)
{
    if (fd_ < 0)
        return false;
    // An injected failure behaves exactly as if write(2) returned
    // ENOSPC, so tests drive the same degrade the real disk would.
    const int error = failNextWrite_ ? ENOSPC : persist(fd_, line + "\n");
    failNextWrite_ = false;
    if (error == 0)
        return true;
    warn("%s '%s': append failed (%s); %s", what_, path_.c_str(),
         std::strerror(error), degradeNote_);
    ::close(fd_);
    fd_ = -1;
    degraded_ = true;
    return false;
}

void
AppendLog::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    degraded_ = false;
}

} // namespace acr::harness
