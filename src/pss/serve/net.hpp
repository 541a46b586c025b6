// Loopback socket primitives — the ONE translation unit in the tree allowed
// to issue raw socket syscalls (enforced by the pss_lint rule
// `raw-socket-syscall`). Every consumer — the pss_serve daemon, its client, the
// obs metrics exporter — goes through these wrappers, so bind/accept error
// handling, read/write deadlines, and bounded buffering live in a single
// audited place.
//
// Layering note: this is a leaf utility (depends only on pss/common). It
// lives under serve/ because the daemon is its primary consumer, but lower
// layers (obs/exporter.cpp) may use it freely.
//
// Every blocking call takes a millisecond deadline and is poll-driven, so a
// slow or stalled peer can never wedge the calling thread — the property the
// exporter slow-loris regression test pins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pss::serve::net {

/// True when the platform has BSD sockets (Linux/macOS). All other entry
/// points throw pss::Error when this is false.
bool available();

/// Binds + listens on 127.0.0.1:`port` (0 = ephemeral) and returns the
/// listening fd; the bound port lands in `bound_port`. Throws pss::Error on
/// failure (port in use, no socket support).
int listen_loopback(std::uint16_t port, int backlog,
                    std::uint16_t& bound_port);

/// Accepts one pending connection, waiting at most `timeout_ms`. Returns the
/// connection fd, or -1 on timeout / transient accept failure.
int accept_connection(int listen_fd, int timeout_ms);

/// Connects to 127.0.0.1:`port`, waiting at most `timeout_ms` for the
/// handshake. Throws pss::Error on refusal or timeout.
int connect_loopback(std::uint16_t port, int timeout_ms);

/// Reads whatever is available (at most `cap` bytes), waiting up to
/// `timeout_ms` for the first byte. Returns the byte count, 0 on orderly
/// peer shutdown, -1 on timeout or error.
std::ptrdiff_t read_some(int fd, void* buf, std::size_t cap, int timeout_ms);

/// Reads exactly `n` bytes within an overall `timeout_ms` budget. Returns
/// false on EOF/timeout/error (partial data is discarded by the caller).
bool read_exact(int fd, void* buf, std::size_t n, int timeout_ms);

/// Writes all `n` bytes within an overall `timeout_ms` budget (poll-driven;
/// never blocks past it on a stalled reader). Returns false on failure.
bool write_all(int fd, const void* buf, std::size_t n, int timeout_ms);

/// Length-prefixed framing: a frame is a little-endian u32 payload size
/// followed by the payload. `read_frame` rejects frames larger than
/// `max_bytes` (returns false — the caller should drop the connection; an
/// oversized or garbage prefix must not drive allocation). Returns false on
/// EOF/timeout as well; `write_frame` mirrors write_all semantics.
bool read_frame(int fd, std::vector<std::uint8_t>& payload,
                std::uint32_t max_bytes, int timeout_ms);
bool write_frame(int fd, std::span<const std::uint8_t> payload,
                 int timeout_ms);

/// Closes an fd (no-op for fd < 0).
void close_fd(int fd);

/// Half-closes the read side so a read_frame blocked on another thread
/// returns promptly; the write side stays usable for draining responses.
void shutdown_read(int fd);

/// Half-closes + closes a listening fd so a blocked accept_connection poll
/// returns promptly on another thread.
void shutdown_and_close(int fd);

}  // namespace pss::serve::net
