// Thin RAII layer over POSIX TCP sockets (loopback prediction service).
//
// Only what the prediction service needs: an owning fd handle, a listening
// socket bound to 127.0.0.1, connect, and robust full-buffer send/recv that
// handle partial transfers and EINTR. Errors surface as std::system_error
// with the relevant errno.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

namespace cs2p {

/// Owning file-descriptor handle (move-only).
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) noexcept : fd_(fd) {}
  ~FdHandle();

  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  FdHandle(FdHandle&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  FdHandle& operator=(FdHandle&& other) noexcept;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  void reset() noexcept;
  int release() noexcept { return std::exchange(fd_, -1); }

 private:
  int fd_ = -1;
};

/// Creates a TCP socket listening on 127.0.0.1:`port` (0 = ephemeral).
/// Returns the socket and the actual bound port.
std::pair<FdHandle, std::uint16_t> listen_loopback(std::uint16_t port, int backlog = 16);

/// Accepts one connection (blocking). Throws std::system_error on failure;
/// returns an invalid handle if the listener was shut down.
FdHandle accept_connection(const FdHandle& listener);

/// Waits until `fd` is readable or `timeout_ms` elapses. Returns true when
/// readable.
bool wait_readable(const FdHandle& fd, int timeout_ms);

/// Puts the descriptor into non-blocking mode.
void set_nonblocking(const FdHandle& fd);

/// Non-blocking accept: returns an invalid handle when no connection is
/// pending (EAGAIN) or the listener is gone; throws on other errors.
FdHandle try_accept(const FdHandle& listener);

/// Connects to 127.0.0.1:`port` (blocking).
FdHandle connect_loopback(std::uint16_t port);

/// Sends the whole buffer; throws std::system_error on error or peer close.
void send_all(const FdHandle& socket, std::span<const std::byte> data);

/// Receives exactly data.size() bytes. Returns false on clean EOF at a
/// message boundary (0 bytes read so far); throws on errors or mid-buffer
/// EOF.
bool recv_all(const FdHandle& socket, std::span<std::byte> data);

// -- Non-blocking primitives (event-driven serving core) ---------------------

/// Single non-blocking read. Returns the byte count read (> 0), 0 when the
/// socket has no data right now (EAGAIN — poll again), or nullopt on orderly
/// peer shutdown (EOF). Throws std::system_error on hard errors (reset).
std::optional<std::size_t> recv_some(const FdHandle& socket,
                                     std::span<std::byte> data);

/// Single non-blocking write. Returns the byte count the kernel accepted
/// (0 when the send buffer is full — poll for writability). Throws
/// std::system_error on hard errors (EPIPE, reset).
std::size_t send_some(const FdHandle& socket, std::span<const std::byte> data);

/// Self-pipe for waking a poll(2) loop from another thread: returns
/// {read_end, write_end}, both non-blocking. Poll the read end; write one
/// byte to the write end to wake (wake_pipe_signal), drain on wakeup
/// (wake_pipe_drain).
std::pair<FdHandle, FdHandle> make_wake_pipe();

/// Best-effort single-byte write to a wake pipe; a full pipe already means a
/// wakeup is pending, so EAGAIN is silently fine.
void wake_pipe_signal(const FdHandle& write_end) noexcept;

/// Drains every pending wakeup byte.
void wake_pipe_drain(const FdHandle& read_end) noexcept;

}  // namespace cs2p
