// The unified per-synapse learning step: direction decision (deterministic
// window vs stochastic gates, eq. 6–7), magnitude (eq. 4–5 or the 1/2^n
// low-precision quantum), and precision/rounding handling (Sec. III-C,
// eq. 8). This one class is the paper's core contribution in executable
// form; the WTA network invokes it at the two STDP event types.
//
// Event semantics (Fig. 1b sign convention: Δt = t_post − t_pre):
//  * post-spike event — evaluated for every afferent synapse when the
//    post-neuron fires, with causal gap = t_post − t_pre_last ≥ 0:
//      - deterministic: potentiate iff gap ≤ window, otherwise depress (the
//        Querlioz-style rule of paper ref. [4], the source of eq. 4–5).
//      - stochastic: potentiate with probability P_pot = γ_pot·e^(−gap/τ_pot)
//        (eq. 6). No depression on this event.
//  * pre-spike event — evaluated when an input spike arrives at a synapse
//    whose post-neuron fired `age` ms earlier (anti-causal, Δt = −age ≤ 0):
//      - deterministic: no update (ref. [4] updates only at post spikes).
//      - stochastic: depress with probability P_dep = γ_dep·e^(Δt/τ_dep)
//        (eq. 7 verbatim).
//    Under Poisson inputs this makes potentiation-vs-depression pressure a
//    function of the input rate: high-rate (feature) pixels precede post
//    spikes often and win potentiation; low-rate (background) pixels mostly
//    arrive uncorrelated and slowly depress — the mechanism behind the
//    paper's conductance maps.
//
// Magnitude and precision:
//  * fp32: the float ΔG of eq. 4–5 applied directly.
//  * fixed point, deterministic rule (any width) and stochastic rule at
//    16 bit: the float ΔG is snapped to the 1/2^n grid with the selected
//    rounding option. This is where Table II's baseline spread comes from —
//    at Q0.2/Q0.4 the float ΔG (≈0.005–0.01) is far below one quantum, so
//    truncation and round-to-nearest produce ΔG = 0 (no learning at all,
//    chance accuracy) while stochastic rounding applies a full quantum with
//    probability ΔG·2^n (eq. 8) and rescues a little learning.
//  * fixed point ≤ 8 bit, stochastic rule: "ΔG is set to 1/2^n" verbatim —
//    the eq. 6–7 gates already supply the probabilistic thinning that keeps
//    the *expected* update fine-grained, which is exactly why stochastic
//    STDP survives 2-bit operation (Table II) while the deterministic rule
//    collapses.
//
// All randomness enters through explicit uniform draws so callers can index
// them with the counter-based RNG (reproducibility under any scheduling).
#pragma once

#include <optional>

#include "pss/fixedpoint/quantizer.hpp"
#include "pss/synapse/stdp_deterministic.hpp"
#include "pss/synapse/stdp_stochastic.hpp"

namespace pss {

enum class StdpKind { kDeterministic, kStochastic };

const char* stdp_kind_name(StdpKind kind);

/// Where stochastic depression draws happen. The paper's eq. 7 is written
/// for anti-causal pre-after-post pairs (kPreSpikeEq7); its inspiration,
/// Srinivasan et al. (ref. [14]), additionally depresses synapses whose pre
/// was silent when the post-neuron fired (kStaleAtPost) — the stochastic
/// analogue of the Querlioz LTD branch, and the pathway that actually drives
/// background pixels toward G_min under Poisson input statistics (a
/// rate-linear anti-causal term alone cannot: both its LTP and LTD pressure
/// scale with input rate). kBoth enables the two pathways together. The
/// bench_ablations binary quantifies the choice.
enum class DepressionMode { kStaleAtPost, kPreSpikeEq7, kBoth };

const char* depression_mode_name(DepressionMode mode);

struct StdpUpdaterConfig {
  StdpKind kind = StdpKind::kStochastic;
  StdpMagnitudeParams magnitude;  ///< eq. 4–5 parameters (Table I)
  StochasticGateParams gate;      ///< eq. 6–7 parameters (Table I)
  DepressionMode depression = DepressionMode::kStaleAtPost;
  /// Causal window of the deterministic rule.
  double det_window_ms = 20.0;
  /// Fixed-point storage; nullopt = fp32.
  std::optional<QFormat> format;
  RoundingMode rounding = RoundingMode::kNearest;
};

class StdpUpdater {
 public:
  explicit StdpUpdater(const StdpUpdaterConfig& config);

  const StdpUpdaterConfig& config() const { return config_; }

  /// Post-spike event: new conductance for a synapse currently at `g` whose
  /// pre-neuron last fired `gap_ms` ago (+inf if never). `u_pot` feeds the
  /// eq. 6 draw, `u_dep` the stale-depression draw, `u_round` stochastic
  /// rounding.
  double update_at_post_spike(double g, double gap_ms, double u_pot,
                              double u_dep, double u_round) const;

  /// Stochastic post-spike event with the eq. 6 / stale-depression gate
  /// probabilities supplied by the caller instead of recomputed here.
  /// Bitwise-identical to update_at_post_spike(g, gap, ...) whenever
  /// p_pot == gate().p_pot(gap) and p_dep_stale == gate().p_dep_stale(gap);
  /// exists so bulk kernels (the cpu_sparse lazy-STDP flush) can
  /// hoist/memoize the exp() calls —
  /// e.g. every never-fired pre shares p_pot(∞) = +0 and
  /// p_dep_stale(∞) = γ_dep exactly. Stochastic rule only.
  double update_at_post_spike_gated(double g, double p_pot,
                                    double p_dep_stale, double u_pot,
                                    double u_dep, double u_round) const;

  /// The eq. 6–7 gate evaluator (for callers precomputing probabilities to
  /// feed update_at_post_spike_gated).
  const StochasticGate& gate() const { return gate_; }

  /// Which of the kDrawsPerEvent post-spike draw slots this configuration
  /// can ever read. Counter-indexed draws are independent, so bulk callers
  /// may skip generating unused slots without changing any consumed value:
  ///  * slot 0 (u_pot)   — stochastic rule only;
  ///  * slot 1 (u_dep)   — stochastic rule with a stale-at-post pathway;
  ///  * slot 2 (u_round) — stochastic *rounding* into a fixed-point grid
  ///                       (full-quantum mode and deterministic rounding
  ///                       never consult the draw).
  bool consumes_pot_draw() const {
    return config_.kind == StdpKind::kStochastic;
  }
  bool consumes_dep_draw() const {
    return config_.kind == StdpKind::kStochastic &&
           config_.depression != DepressionMode::kPreSpikeEq7;
  }
  bool consumes_round_draw() const {
    return quantizer_.has_value() && !full_quantum_mode_ &&
           config_.rounding == RoundingMode::kStochastic;
  }

  /// Pre-spike event: new conductance when an input spike arrives
  /// `post_age_ms` after the post-neuron's last spike (+inf if the post
  /// neuron has not fired). No-op unless the depression mode includes the
  /// eq. 7 anti-causal pathway (stochastic rule only).
  double update_at_pre_spike(double g, double post_age_ms, double u_gate,
                             double u_round) const;

  /// True when pre-spike events can ever change conductance (lets callers
  /// skip the anti-causal bookkeeping otherwise).
  bool wants_pre_spike_events() const {
    return config_.kind == StdpKind::kStochastic &&
           config_.depression != DepressionMode::kStaleAtPost;
  }

  /// Upper clamp actually reachable: min(g_max, format max value) — e.g.
  /// Q0.2 caps conductance at 0.75 even though g_max = 1.
  double effective_g_max() const { return effective_g_max_; }

  /// True when α_p, α_d ≥ 0 — apply()'s saturation fast path is then exact:
  /// a synapse at the bound it is moving toward returns that bound bitwise,
  /// for every draw value. Bulk callers build on this to skip entire event
  /// chains of synapses parked at g_min with no pre spikes (gap = ∞ makes
  /// potentiation probability exactly +0), without generating any draws —
  /// see kernels_sparse.cpp's stdp_flush.
  bool nonneg_deltas() const { return nonneg_deltas_; }

  /// Uniform draws each event type consumes (RNG counter bookkeeping).
  static constexpr std::uint64_t kDrawsPerEvent = 3;

 private:
  double apply(double g, bool potentiate, double u_round) const;

  StdpUpdaterConfig config_;
  DeterministicStdp magnitude_rule_;
  StochasticGate gate_;
  std::optional<Quantizer> quantizer_;
  double effective_g_max_;
  bool full_quantum_mode_;  // stochastic rule at <= 8 bits
  bool nonneg_deltas_;      // α_p, α_d ≥ 0 → saturation fast path is exact
};

}  // namespace pss
