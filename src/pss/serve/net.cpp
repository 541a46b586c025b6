#include "pss/serve/net.hpp"

#include <algorithm>
#include <cstring>

#include "pss/common/error.hpp"
#include "pss/obs/metrics.hpp"

#if defined(__linux__) || defined(__APPLE__)
#include <arpa/inet.h>    // pss-lint: allow(raw-socket-syscall)
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>   // pss-lint: allow(raw-socket-syscall)
#include <netinet/tcp.h>  // pss-lint: allow(raw-socket-syscall)
#include <poll.h>
#include <sys/socket.h>   // pss-lint: allow(raw-socket-syscall)
#include <unistd.h>
#define PSS_HAVE_SOCKETS 1
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // macOS: disable_sigpipe() sets SO_NOSIGPIPE per fd
#endif
#endif

namespace pss::serve::net {

#if defined(PSS_HAVE_SOCKETS)

namespace {

/// Platforms without MSG_NOSIGNAL (macOS) deliver SIGPIPE on send() to a
/// disconnected peer, which would kill the whole daemon — suppress it per
/// socket instead. Must run on every fd from socket() AND accept() (accepted
/// sockets do not inherit the option on all BSDs).
void disable_sigpipe(int fd) {
#if defined(__APPLE__)
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);  // pss-lint: allow(raw-socket-syscall)
#else
  (void)fd;  // MSG_NOSIGNAL on send() covers it
#endif
}

/// Remaining budget helper: deadlines are tracked as absolute monotonic
/// nanoseconds so a sequence of polls never exceeds the caller's total.
std::uint64_t deadline_from(int timeout_ms) {
  return obs::monotonic_ns() +
         static_cast<std::uint64_t>(timeout_ms < 0 ? 0 : timeout_ms) *
             1000000ull;
}

/// Frames are request/response messages, each written with one send(), so
/// Nagle's algorithm could only hold a frame back waiting for the peer's
/// delayed ACK (~40 ms on Linux). Set on every connected socket.
void disable_nagle(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);  // pss-lint: allow(raw-socket-syscall)
}

int remaining_ms(std::uint64_t deadline_ns) {
  const std::uint64_t now = obs::monotonic_ns();
  if (now >= deadline_ns) return 0;
  const std::uint64_t ms = (deadline_ns - now) / 1000000ull;
  return ms > 60000 ? 60000 : static_cast<int>(ms);
}

bool wait_fd(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready > 0) return (pfd.revents & (events | POLLHUP | POLLERR)) != 0;
    if (ready == 0) return false;  // timeout
    if (errno == EINTR) continue;
    return false;
  }
}

}  // namespace

bool available() { return true; }

int listen_loopback(std::uint16_t port, int backlog,
                    std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);  // pss-lint: allow(raw-socket-syscall)
  PSS_REQUIRE(fd >= 0, "serve/net: socket() failed");
  disable_sigpipe(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);  // pss-lint: allow(raw-socket-syscall)

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||  // pss-lint: allow(raw-socket-syscall)
      ::listen(fd, backlog) != 0) {  // pss-lint: allow(raw-socket-syscall)
    ::close(fd);
    PSS_REQUIRE(false,
                "serve/net: cannot bind 127.0.0.1:" + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);  // pss-lint: allow(raw-socket-syscall)
  bound_port = ntohs(bound.sin_port);
  return fd;
}

int accept_connection(int listen_fd, int timeout_ms) {
  if (!wait_fd(listen_fd, POLLIN, timeout_ms)) return -1;
  const int fd = ::accept(listen_fd, nullptr, nullptr);  // pss-lint: allow(raw-socket-syscall)
  if (fd >= 0) {
    disable_sigpipe(fd);
    disable_nagle(fd);
  }
  return fd;
}

int connect_loopback(std::uint16_t port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);  // pss-lint: allow(raw-socket-syscall)
  PSS_REQUIRE(fd >= 0, "serve/net: socket() failed");
  disable_sigpipe(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  // Non-blocking connect so the handshake honors the deadline.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),  // pss-lint: allow(raw-socket-syscall)
                           sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    PSS_REQUIRE(false, "serve/net: cannot connect to 127.0.0.1:" +
                           std::to_string(port));
  }
  if (rc != 0) {
    if (!wait_fd(fd, POLLOUT, timeout_ms)) {
      ::close(fd);
      PSS_REQUIRE(false, "serve/net: connect timeout to 127.0.0.1:" +
                             std::to_string(port));
    }
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);  // pss-lint: allow(raw-socket-syscall)
    if (err != 0) {
      ::close(fd);
      PSS_REQUIRE(false, "serve/net: connect to 127.0.0.1:" +
                             std::to_string(port) + " failed: " +
                             std::strerror(err));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  disable_nagle(fd);
  return fd;
}

std::ptrdiff_t read_some(int fd, void* buf, std::size_t cap, int timeout_ms) {
  if (!wait_fd(fd, POLLIN, timeout_ms)) return -1;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, cap, 0);  // pss-lint: allow(raw-socket-syscall)
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    return -1;
  }
}

bool read_exact(int fd, void* buf, std::size_t n, int timeout_ms) {
  const std::uint64_t deadline = deadline_from(timeout_ms);
  std::size_t got = 0;
  auto* out = static_cast<std::uint8_t*>(buf);
  while (got < n) {
    const int budget = remaining_ms(deadline);
    if (budget <= 0) return false;
    const std::ptrdiff_t r = read_some(fd, out + got, n - got, budget);
    if (r <= 0) return false;  // EOF, timeout or error
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n, int timeout_ms) {
  const std::uint64_t deadline = deadline_from(timeout_ms);
  std::size_t sent = 0;
  const auto* src = static_cast<const std::uint8_t*>(buf);
  while (sent < n) {
    const int budget = remaining_ms(deadline);
    if (budget <= 0) return false;
    if (!wait_fd(fd, POLLOUT, budget)) return false;
    const ssize_t w = ::send(fd, src + sent, n - sent, MSG_NOSIGNAL);  // pss-lint: allow(raw-socket-syscall)
    if (w < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

bool read_frame(int fd, std::vector<std::uint8_t>& payload,
                std::uint32_t max_bytes, int timeout_ms) {
  const std::uint64_t deadline = deadline_from(timeout_ms);
  std::uint8_t prefix[4];
  if (!read_exact(fd, prefix, sizeof prefix, timeout_ms)) return false;
  const std::uint32_t size = static_cast<std::uint32_t>(prefix[0]) |
                             (static_cast<std::uint32_t>(prefix[1]) << 8) |
                             (static_cast<std::uint32_t>(prefix[2]) << 16) |
                             (static_cast<std::uint32_t>(prefix[3]) << 24);
  // Bound before allocating: a garbage prefix must not drive a huge resize.
  if (size > max_bytes) return false;
  payload.resize(size);
  if (size == 0) return true;
  return read_exact(fd, payload.data(), size, remaining_ms(deadline));
}

bool write_frame(int fd, std::span<const std::uint8_t> payload,
                 int timeout_ms) {
  // Prefix and payload go out in one buffer, so a frame costs one send():
  // two small writes per frame would stall on Nagle + delayed ACK.
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> frame(4 + payload.size());
  frame[0] = static_cast<std::uint8_t>(size & 0xff);
  frame[1] = static_cast<std::uint8_t>((size >> 8) & 0xff);
  frame[2] = static_cast<std::uint8_t>((size >> 16) & 0xff);
  frame[3] = static_cast<std::uint8_t>((size >> 24) & 0xff);
  std::copy(payload.begin(), payload.end(), frame.begin() + 4);
  return write_all(fd, frame.data(), frame.size(), timeout_ms);
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

void shutdown_read(int fd) {
  if (fd < 0) return;
  ::shutdown(fd, SHUT_RD);  // pss-lint: allow(raw-socket-syscall)
}

void shutdown_and_close(int fd) {
  if (fd < 0) return;
  ::shutdown(fd, SHUT_RDWR);  // pss-lint: allow(raw-socket-syscall)
  ::close(fd);
}

#else  // !PSS_HAVE_SOCKETS

bool available() { return false; }

namespace {
[[noreturn]] void unavailable() {
  PSS_REQUIRE(false, "serve/net: no socket support on this platform");
}
}  // namespace

int listen_loopback(std::uint16_t, int, std::uint16_t&) { unavailable(); }
int accept_connection(int, int) { unavailable(); }
int connect_loopback(std::uint16_t, int) { unavailable(); }
std::ptrdiff_t read_some(int, void*, std::size_t, int) { unavailable(); }
bool read_exact(int, void*, std::size_t, int) { unavailable(); }
bool write_all(int, const void*, std::size_t, int) { unavailable(); }
bool read_frame(int, std::vector<std::uint8_t>&, std::uint32_t, int) {
  unavailable();
}
bool write_frame(int, std::span<const std::uint8_t>, int) { unavailable(); }
void close_fd(int) {}
void shutdown_read(int) {}
void shutdown_and_close(int) {}

#endif  // PSS_HAVE_SOCKETS

}  // namespace pss::serve::net
