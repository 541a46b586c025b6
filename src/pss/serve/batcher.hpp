// Admission queue + dynamic batching window for pss_serve.
//
// Life of a request: the connection reader decodes it and calls admit() —
// which either assigns the next admission sequence number (used verbatim as
// the replica presentation index, making re-execution after requeue bitwise
// deterministic) or refuses because the queue is at capacity (the caller
// responds kOverloaded: load is shed at admission, not after queueing).
// Workers pull coalesced batches via next_batch(); a batch flushes when it
// reaches `max_batch` requests or when the oldest ready request has waited
// `window_ns` (whichever first), so light load trades a bounded latency bump
// for batching and heavy load batches maximally.
//
// Requeue: when a worker faults, its in-flight requests re-enter through
// requeue() with a not-before timestamp from the shared BackoffPolicy
// (pss/common/backoff.hpp). Requeued work bypasses the capacity bound — it
// was already admitted; shedding it now would turn one worker fault into
// client-visible errors.
//
// Completion is once-only: PendingRequest::complete() swaps an atomic flag,
// so if a "lost" request is requeued and then both the old and new execution
// finish, the second response is dropped. Presentations are pure functions
// of (state, seq, rates), so either execution's answer is the same answer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "pss/common/thread_annotations.hpp"
#include "pss/serve/protocol.hpp"

namespace pss::serve {

/// Per-connection response channel. The connection's writer thread drains
/// it; workers push completions from any thread. Holding only a weak_ptr in
/// PendingRequest lets a connection vanish (client gone) without stranding
/// the worker: completions for a dead connection are dropped.
class Outbox {
 public:
  void push(Response response);
  /// Marks the channel closed and wakes the writer (which then drains what
  /// remains and exits).
  void close();
  /// Blocks for the next response. Returns false when closed and drained.
  bool pop(Response& response);

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Response> queue_ PSS_GUARDED_BY(mutex_);
  bool closed_ PSS_GUARDED_BY(mutex_) = false;
};

struct PendingRequest {
  Request request;
  std::vector<double> rates_hz;   ///< encoded once at admission
  std::uint64_t seq = 0;          ///< admission sequence == presentation index
  std::uint64_t deadline_ns = 0;  ///< absolute monotonic deadline
  std::uint64_t admitted_ns = 0;  ///< for the end-to-end latency histogram
  /// Completed requeue round-trips. Atomic: the heartbeat monitor's
  /// stale-beat requeue can race a hung-but-alive worker's transient-fault
  /// requeue of the same request, and both read it for the backoff delay.
  std::atomic<std::uint32_t> attempts{0};
  std::weak_ptr<Outbox> outbox;

  /// Delivers the response to the owning connection exactly once; later
  /// calls (duplicate execution after a requeue race) are no-ops. Returns
  /// whether this call won. `on_win` runs after the once-only claim but
  /// BEFORE the response becomes visible to the client — callers use it for
  /// metric bumps and a train's model publish, so a client can never
  /// observe a response whose counter or model generation has not landed.
  bool complete(Response response,
                const std::function<void()>& on_win = nullptr);

  bool completed() const { return done_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> done_{false};
};

using PendingPtr = std::shared_ptr<PendingRequest>;

/// Bounded MPMC admission queue with a delayed lane for backoff requeues.
class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Admits under the capacity bound; returns false (shed) when full or
  /// shut down. Stamps seq/admitted_ns on success.
  bool admit(const PendingPtr& request);

  /// Re-enters an already-admitted request after a worker fault; never
  /// sheds. `not_before_ns` (absolute monotonic) holds it in the delayed
  /// lane until the backoff expires.
  void requeue(const PendingPtr& request, std::uint64_t not_before_ns);

  /// Pulls the next coalesced batch (blocking): flushes at `max_batch`
  /// requests or once the oldest ready request has waited `window_ns`.
  /// Expired requests are completed with kDeadlineExceeded internally and
  /// never returned. An empty result means the queue was shut down and fully
  /// drained.
  std::vector<PendingPtr> next_batch(std::size_t max_batch,
                                     std::uint64_t window_ns);

  /// Stops admission and wakes every waiter. Queued requests remain
  /// drainable so a graceful shutdown can answer them.
  void shutdown();

  std::size_t depth() const;
  std::uint64_t admitted() const;

 private:
  struct Delayed {
    std::uint64_t not_before_ns;
    PendingPtr request;
  };

  /// Moves ripe delayed entries into the ready lane; returns the soonest
  /// unripe not-before (or 0 when the delayed lane is empty).
  std::uint64_t promote_ripe(std::uint64_t now_ns) PSS_REQUIRES(mutex_);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<PendingPtr> ready_ PSS_GUARDED_BY(mutex_);
  std::vector<Delayed> delayed_ PSS_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ PSS_GUARDED_BY(mutex_) = 0;
  bool shutdown_ PSS_GUARDED_BY(mutex_) = false;
};

}  // namespace pss::serve
