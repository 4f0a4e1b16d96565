// serve::io — the only place in the repository allowed to touch raw file
// descriptors, sockets, and the wall clock.
//
// The dmc-lint `raw-io` rule bans ::socket/::read/::write and friends
// outside src/serve/io*, for the same reason raw threads are confined to
// src/par: blocking I/O scattered through protocol or scheduler code is
// invisible to deadlines and shutdown, and untestable. Everything above
// this layer deals in three verbs — accept a connection, read a line,
// write a line — each with an explicit timeout, plus a monotonic
// millisecond clock for deadlines.
//
// Transport is a SOCK_STREAM unix-domain socket: dmcd is a local service
// (same-machine clients; the DMCU cache is per-machine too), which keeps
// the attack surface at filesystem permissions.
#pragma once

#include <mutex>
#include <optional>
#include <string>

namespace dmc::serve::io {

/// Monotonic milliseconds (steady clock) — the sanctioned deadline
/// currency. Not meaningful across processes.
long long now_ms();

/// RAII file-descriptor handle.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

 private:
  int fd_ = -1;
};

/// Bound + listening unix-domain server socket. Unlinks the path on
/// destruction (stale paths from a crashed daemon are unlinked on bind).
class ListenSocket {
 public:
  /// Throws std::runtime_error with errno context on failure.
  explicit ListenSocket(const std::string& path);
  ~ListenSocket();
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Waits up to timeout_ms for a connection; nullopt on timeout.
  std::optional<Socket> accept(int timeout_ms);

  const std::string& path() const { return path_; }

 private:
  Socket sock_;
  std::string path_;
};

/// Line-framed connection: reads accumulate into an internal buffer until
/// '\n'; writes append '\n' and are serialized by an internal mutex so
/// scheduler workers and the connection reader can respond concurrently.
class Connection {
 public:
  explicit Connection(Socket sock) : sock_(std::move(sock)) {}

  enum class ReadStatus { kLine, kTimeout, kClosed, kError };

  /// Next protocol line (newline stripped). kTimeout after timeout_ms with
  /// no complete line; kClosed on orderly EOF with no buffered line.
  ReadStatus read_line(std::string& out, int timeout_ms);

  /// Writes `line` plus '\n' fully. False once the peer is gone (broken
  /// pipe is a normal client departure, not a daemon error).
  bool write_line(const std::string& line);

  bool valid() const { return sock_.valid(); }

 private:
  Socket sock_;
  std::string buf_;         // received bytes; [head_, size) unconsumed
  std::size_t head_ = 0;    // start of the next line
  std::size_t scanned_ = 0; // [head_, scanned_) holds no newline
  std::mutex write_mu_;
};

/// Client side: connects to a daemon's unix socket. Throws
/// std::runtime_error with errno context on failure.
Socket connect_unix(const std::string& path);

}  // namespace dmc::serve::io
