// Deterministic fault injection: a process-wide registry of named fault
// points that production code evaluates at failure-prone boundaries (IO
// writes/reads, shard workers, the training loop) and tests/operators arm via
// a spec string or the PSS_FAULTS environment variable.
//
// Determinism contract: every fire decision is a Philox draw indexed by the
// point's hit ordinal — bit-for-bit reproducible for a fixed (seed, spec,
// hit sequence), mirroring the simulator's counter-based RNG discipline. An
// unarmed registry costs one relaxed atomic load per probe, so fault points
// are safe to leave in hot-ish paths (one probe per work item, not per step).
//
// Spec grammar (config key `faults=` or env `PSS_FAULTS`):
//   point[:key=value[,key=value...]][;point2...]
// Keys: rate (fire probability per hit, default 1), after (hits to skip
// before becoming eligible, default 0), count (max fires, default unlimited),
// param (free point-specific number), kind (transient|fatal, default
// transient — decides what fault_point() throws).
//
// Known points (producers in parentheses):
//   io.snapshot.write   save_snapshot / save_checkpoint, before the rename
//   io.snapshot.read    load_snapshot / load_checkpoint, at open
//   snapshot.corrupt    save_checkpoint: flips a payload byte after the CRC
//                       is computed (writes a corrupted-on-disk file)
//   shard.worker        BatchRunner::run, before each work item
//   serve.worker        pss_serve worker, before each presentation
//                       (transient = requeue with backoff; fatal = the
//                       worker dies and the heartbeat monitor recovers it)
//   train.interrupt     GraphTrainer, after each training presentation
//                       (minibatch runs: each batch boundary), any stack
//   synapse.stuck_lo / synapse.stuck_hi / synapse.perturb
//                       rate-only arms read by synaptic_plan_from_injector()
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "pss/common/thread_annotations.hpp"

namespace pss::robust {

struct FaultArm {
  double rate = 1.0;          ///< fire probability per eligible hit
  std::uint64_t after = 0;    ///< hit ordinals [0, after) never fire
  std::uint64_t count = ~0ull;  ///< stop firing after this many fires
  double param = 0.0;         ///< point-specific extra (e.g. perturb sigma)
  bool transient = true;      ///< fault_point() throws TransientError vs Error
};

class FaultInjector {
 public:
  /// Arms (or re-arms) a point; resets its hit/fire counters.
  void arm(const std::string& point, FaultArm arm);

  /// Parses and arms a spec string (see grammar above). Throws pss::Error on
  /// malformed specs, naming the offending clause.
  void arm_from_spec(const std::string& spec);

  void disarm(const std::string& point);

  /// Disarms everything and resets all counters (tests call this).
  void clear();

  /// Seed for the fire-decision Philox stream (default fixed).
  void set_seed(std::uint64_t seed);

  bool armed(const std::string& point) const;

  /// One evaluation of `point`: advances its hit counter and returns whether
  /// the fault fires this time. Always false for unarmed points. Thread-safe;
  /// the unarmed fast path is a single relaxed atomic load.
  bool should_fire(const std::string& point);

  /// The armed `param` for a point (fallback when unarmed).
  double param(const std::string& point, double fallback = 0.0) const;

  /// The armed `rate` for a point (fallback when unarmed).
  double rate(const std::string& point, double fallback = 0.0) const;

  /// Whether the armed point is transient (true when unarmed).
  bool transient(const std::string& point) const;

  /// Total fires of a point since it was armed.
  std::uint64_t fired(const std::string& point) const;

  bool any_armed() const {
    return any_armed_.load(std::memory_order_relaxed);
  }

  /// Names of all armed points (sorted).
  std::vector<std::string> armed_points() const;

 private:
  struct PointState {
    FaultArm arm;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
  };

  mutable std::mutex mutex_;
  /// Armed points plus their hit/fire counters — arm/probe/query all mutate
  /// or read this map, so every access path must hold mutex_. The ordered
  /// map also keeps armed_points() deterministic.
  std::map<std::string, PointState> points_ PSS_GUARDED_BY(mutex_);
  std::uint64_t seed_ PSS_GUARDED_BY(mutex_) = 0xfa017u;
  /// Lock-free fast-path gate: lets should_fire() skip the lock entirely
  /// while nothing is armed (one relaxed load per probe).
  std::atomic<bool> any_armed_{false};
};

/// The process-wide injector. On first use, arms itself from the PSS_FAULTS
/// environment variable if set.
FaultInjector& faults();

/// Probe helper: evaluates `point` and, if it fires, bumps the
/// `fault.<point>.fired` metrics counter and throws TransientError or
/// pss::Error (per the arm's `kind`) with an "injected fault" message.
/// No-op (one relaxed load) while nothing is armed.
void fault_point(const char* point);

}  // namespace pss::robust
