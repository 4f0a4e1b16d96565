// Raw descriptor plumbing for the serving layer (see io.hpp; this file and
// its header are the dmc-lint `raw-io` sanctioned zone).
#include "serve/io.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/clock.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace dmc::serve::io {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Blocks until fd is readable or timeout_ms elapsed. 1 = readable,
/// 0 = timeout, -1 = error/hangup with nothing readable.
int wait_readable(int fd, int timeout_ms) {
  struct pollfd p {};
  p.fd = fd;
  p.events = POLLIN;
  const int rc = ::poll(&p, 1, timeout_ms);
  if (rc == 0) return 0;
  if (rc < 0) return errno == EINTR ? 0 : -1;
  // POLLHUP with pending data still reads; let recv decide.
  return (p.revents & (POLLIN | POLLHUP)) ? 1 : -1;
}

}  // namespace

long long now_ms() {
  // The daemon's one legitimate clock: deadlines and queue-latency
  // metrics. Protocol verdicts never depend on it. Delegates to the
  // sanctioned obs clock seam so tests can freeze time and dmc-lint can
  // confine raw chrono reads to src/obs.
  return obs::now_ms();
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::ListenSocket(const std::string& path) : path_(path) {
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sock_ = Socket(fd);
  ::unlink(path.c_str());  // stale path from a crashed daemon
  if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw_errno("bind " + path);
  if (::listen(fd, 64) != 0) throw_errno("listen " + path);
}

ListenSocket::~ListenSocket() {
  if (!path_.empty()) ::unlink(path_.c_str());
}

std::optional<Socket> ListenSocket::accept(int timeout_ms) {
  if (wait_readable(sock_.fd(), timeout_ms) != 1) return std::nullopt;
  const int fd = ::accept(sock_.fd(), nullptr, nullptr);
  if (fd < 0) return std::nullopt;
  return Socket(fd);
}

Connection::ReadStatus Connection::read_line(std::string& out,
                                             int timeout_ms) {
  const long long deadline = now_ms() + timeout_ms;
  while (true) {
    // Bytes before scanned_ hold no newline, so each byte is searched once
    // and consuming a line only moves head_: long or pipelined input stays
    // linear in its length.
    const auto nl = buf_.find('\n', scanned_);
    if (nl != std::string::npos) {
      out.assign(buf_, head_, nl - head_);
      head_ = scanned_ = nl + 1;
      if (!out.empty() && out.back() == '\r') out.pop_back();
      return ReadStatus::kLine;
    }
    scanned_ = buf_.size();
    const long long remaining = deadline - now_ms();
    if (remaining <= 0) return ReadStatus::kTimeout;
    const int ready =
        wait_readable(sock_.fd(), static_cast<int>(remaining));
    if (ready == 0) return ReadStatus::kTimeout;
    if (ready < 0) return ReadStatus::kError;
    char chunk[4096];
    const ssize_t n = ::recv(sock_.fd(), chunk, sizeof(chunk), 0);
    if (n == 0) return ReadStatus::kClosed;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return ReadStatus::kError;
    }
    // Compact once per read: drop the lines already consumed.
    buf_.erase(0, head_);
    scanned_ -= head_;
    head_ = 0;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Connection::write_line(const std::string& line) {
  std::lock_guard lock(write_mu_);
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    // MSG_NOSIGNAL: a departed client must surface as a false return, not
    // a process-killing SIGPIPE.
    const ssize_t n = ::send(sock_.fd(), framed.data() + sent,
                             framed.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

Socket connect_unix(const std::string& path) {
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket sock(fd);
  if (::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
                sizeof(addr)) != 0)
    throw_errno("connect " + path);
  return sock;
}

}  // namespace dmc::serve::io
