// Kernel launch API — the heart of the GPU substitution.
//
// A pss "kernel" is a callable invoked once per logical thread index, exactly
// like a CUDA global function over blockIdx*blockDim+threadIdx. The engine
// partitions the index space over a persistent ThreadPool and synchronizes at
// the end of the launch (the simulator's per-step cudaDeviceSynchronize).
//
// Kernels must be data-parallel: thread i may write only to slot i of its
// output arrays. Combined with the counter-based RNG this gives
// bitwise-reproducible results independent of worker count — a property the
// tests assert.
//
// Dispatch cost control: waking the pool costs a mutex + two condvar hops
// (microseconds), which dominates kernels of a few hundred indices — the
// simulator's common case (one conductance row, one small neuron layer). A
// launch whose index space is at most grain() therefore runs inline on the
// calling thread; kernels stay bitwise-identical either way, so the cutoff
// is purely a scheduling decision.
//
// Observability: the engine counts launches and the subset that woke the
// pool (launch_count / dispatch_count); the pool keeps per-worker busy time.
// Where the time goes is attributed by the phase spans around the launches
// (phase.*, graph.l<i>.*), not per launch, so a launch costs no clock reads.
#pragma once

#include <cstdint>
#include <string>

#include "pss/engine/thread_pool.hpp"

namespace pss {

class Engine {
 public:
  /// Default inline cutoff: below this many kernel threads, pool wake-up
  /// overhead exceeds the work for every kernel this simulator launches.
  static constexpr std::size_t kDefaultGrain = 2048;

  /// `worker_count == 0` -> hardware concurrency.
  explicit Engine(std::size_t worker_count = 0);

  std::size_t worker_count() const { return pool_.worker_count(); }

  /// Smallest index space worth waking the pool for. 0 forces every launch
  /// through the pool (benchmarks use this to measure dispatch overhead).
  std::size_t grain() const { return grain_; }
  void set_grain(std::size_t grain) { grain_ = grain; }

  /// Launches `kernel(i)` for every i in [0, thread_count).
  template <typename Kernel>
  void launch(std::size_t thread_count, Kernel&& kernel) {
    if (thread_count == 0) return;
    ++launch_count_;
    if (thread_count <= grain_ || pool_.worker_count() == 1) {
      for (std::size_t i = 0; i < thread_count; ++i) kernel(i);
      return;
    }
    ++dispatch_count_;
    pool_.parallel_for(thread_count,
                       [&kernel](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) kernel(i);
                       });
  }

  /// Launch statistics (counted on the submitting thread; an Engine has one
  /// submitter at a time). dispatch_count() is the subset of launches that
  /// woke the pool — the per-step dispatch budget the benches verify.
  std::uint64_t launch_count() const { return launch_count_; }
  std::uint64_t dispatch_count() const { return dispatch_count_; }

  /// Zeroes the launch/dispatch counters and the pool's busy-time
  /// accounting, so benches and phases can isolate their own launch budget
  /// instead of reading process-lifetime totals.
  void reset_counters() {
    launch_count_ = 0;
    dispatch_count_ = 0;
    pool_.reset_busy_ns();
  }

  /// The worker pool backing this engine (busy-time accounting lives there).
  const ThreadPool& pool() const { return pool_; }

 private:
  ThreadPool pool_;
  std::size_t grain_ = kDefaultGrain;
  std::uint64_t launch_count_ = 0;
  std::uint64_t dispatch_count_ = 0;
};

/// Process-wide default engine (lazily constructed). The simulator and the
/// benches share it so thread creation cost is paid once, as a real CUDA
/// context would be.
Engine& default_engine();

/// Overrides the default engine's worker count. Must be called before the
/// first default_engine() use; throws afterwards. Used by tests that check
/// worker-count independence.
void configure_default_engine(std::size_t worker_count);

/// Mirrors an engine's launch accounting into the global metrics registry as
/// gauges (`<prefix>.workers`, `<prefix>.launches`, `<prefix>.dispatches`
/// and `<prefix>.worker.<i>.busy_ns` from the pool) — called by run drivers
/// just before writing a metrics dump or manifest.
void publish_engine_stats(const Engine& engine, const std::string& prefix);

}  // namespace pss
