// The paper's unsupervised-learning network (Fig. 3).
//
// Input image -> spike-train array (one Poisson train per pixel, rate
// proportional to intensity) -> all-to-all plastic synapses -> layer of LIF
// neurons. When a first-layer neuron spikes, the corresponding second-layer
// neuron inhibits every *other* first-layer neuron for t_inh ms
// (winner-take-all). The second layer has no state beyond this reflex, so it
// is implemented as the inhibit_all_except() call rather than as a separate
// population — its observable behaviour (Fig. 3) is preserved exactly.
//
// Learning happens at post-spike events: the winner's full conductance row is
// updated by the StdpUpdater (deterministic or stochastic, any precision).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "pss/backend/kernels.hpp"
#include "pss/common/rng.hpp"
#include "pss/common/types.hpp"
#include "pss/encoding/poisson_encoder.hpp"
#include "pss/engine/spike_events.hpp"
#include "pss/learning/homeostasis.hpp"
#include "pss/neuron/izhikevich.hpp"
#include "pss/neuron/lif.hpp"
#include "pss/synapse/conductance_matrix.hpp"
#include "pss/synapse/parameter_registry.hpp"
#include "pss/synapse/stdp_updater.hpp"

namespace pss {

/// First-layer neuron model ("support different neuron/synaptic models").
enum class NeuronModelKind { kLif, kIzhikevich };

const char* neuron_model_name(NeuronModelKind kind);

struct WtaConfig {
  /// Compute backend the network's state and kernels live on — a name from
  /// the backend registry ("cpu", "cpu_sparse"; see src/pss/backend/).
  /// Construction throws pss::Error for unknown names.
  std::string backend = "cpu";

  std::size_t input_channels = kImagePixels;
  std::size_t neuron_count = 100;  ///< paper uses 1000; scaled experiments less
  NeuronModelKind neuron_model = NeuronModelKind::kLif;
  LifParameters lif = paper_lif_parameters();
  IzhikevichParameters izhikevich = izhikevich_regular_spiking();
  /// Input-gain multiplier applied when the Izhikevich model drives the
  /// first layer: its quadratic upstroke regenerates spikes much more
  /// readily than the paper's LIF under the same current, so the
  /// weight-to-current conversion must be scaled down to keep WTA dynamics
  /// comparable (calibrated empirically; see bench_ablations, ablation 5).
  double izhikevich_gain = 0.7;
  TimeMs dt = kDefaultDtMs;
  TimeMs t_inh_ms = 20.0;          ///< WTA inhibition duration (Fig. 3)
  double spike_amplitude = 3.0;    ///< v_pre of eq. 3 (paper: tuned to input)
  TimeMs current_decay_ms = 2.5;   ///< synaptic current decay; 0 = eq. 3 verbatim

  /// Fuse the per-step current-decay + accumulate + neuron-update kernels
  /// into a single launch (bitwise-identical results, one dispatch instead
  /// of three). Off = the original three-kernel sequence, kept for A/B
  /// benchmarking. Ignored on event-driven backends (the sparse loop
  /// propagates along CSR rows instead of gathering dense rows).
  bool fused_step = true;

  /// Lazy STDP on event-driven backends (backends registering the sparse
  /// kernel-table slots, e.g. cpu_sparse): post-spike row updates are
  /// recorded as pending events and applied per synapse on demand — when the
  /// synapse's pre fires (catch-up) or at presentation end (bulk flush) —
  /// instead of sweeping the dense row at every post spike. Final
  /// conductances are bitwise-identical to the eager sweep on the same
  /// backend (asserted by tests/test_properties.cpp); off = eager rows, kept
  /// for that A/B. Ignored on dense backends.
  bool lazy_stdp = true;

  /// Amplitude auto-gain — the "tuned based on input spiking frequency and
  /// voltage" part of Sec. II-B made explicit. When > 0, each presentation
  /// scales the per-spike amplitude by (reference / Σ channel rates), so the
  /// expected membrane drive is what `spike_amplitude` delivers at the
  /// reference total input rate. This keeps the network calibrated across
  /// frequency boosts (each spike carries proportionally less charge while
  /// the information rate rises — Sec. IV-C) and across datasets of
  /// different brightness. 0 disables the gain (fixed amplitude).
  double reference_total_rate_hz = 2100.0;

  StdpUpdaterConfig stdp;          ///< rule, precision, rounding (Table I)

  /// Multiplier on α_p/α_d compensating for training runs far shorter than
  /// the paper's 60k images (a learning-rate/epoch trade; Table I values
  /// are used verbatim when running at paper scale with scale = 1).
  double learning_rate_scale = 5.0;

  HomeostasisParams homeostasis;   ///< see learning/homeostasis.hpp

  double init_g_lo = 0.15;         ///< initial conductance range (uniform)
  double init_g_hi = 0.85;
  std::uint64_t seed = 1234;

  /// Readout behaviour (labelling/inference, learn = false). With WTA
  /// inhibition on, an inference score is effectively the vote of a single
  /// winning neuron; turning it off lets every matching neuron respond and
  /// makes the class score a population vote, which is far more robust.
  /// The homeostatic offsets can likewise be frozen-in or ignored.
  bool readout_inhibition = true;
  bool readout_theta = true;
  /// Inhibition duration during readout; learning benefits from a hard WTA
  /// while readout is more robust with a softer one (more neurons get to
  /// vote). Negative = use t_inh_ms.
  TimeMs t_inh_readout_ms = 1.0;

  /// Builds a config from a Table I row: STDP parameters, format, and the
  /// row's frequency range is returned alongside via table1_row(option).
  static WtaConfig from_table1(LearningOption option, StdpKind kind,
                               std::size_t neuron_count = 100);
};

/// Activity summary of one presentation.
struct PresentationResult {
  std::vector<std::uint32_t> spike_counts;  ///< per-neuron spikes
  std::uint64_t total_spikes = 0;
  std::uint64_t input_spikes = 0;

  /// (time-within-presentation, neuron) events; filled only when present()
  /// is called with record_spikes = true.
  std::vector<std::pair<TimeMs, NeuronIndex>> spike_events;

  /// Neuron with the most spikes (first such index); -1 if silent.
  int winner() const;
};

class WtaNetwork {
 public:
  explicit WtaNetwork(const WtaConfig& config, Engine* engine = nullptr);

  ~WtaNetwork();
  WtaNetwork(WtaNetwork&&) noexcept;
  WtaNetwork& operator=(WtaNetwork&&) noexcept;

  const WtaConfig& config() const { return config_; }

  /// The compute backend the network dispatches its kernels through.
  Backend& backend() const { return *backend_; }
  /// The SoA state pool holding the network's per-presentation hot state.
  StatePool& pool() const { return *pool_; }
  std::size_t neuron_count() const { return config_.neuron_count; }
  std::size_t input_channels() const { return config_.input_channels; }

  /// Presents one stimulus: per-channel Poisson rates (Hz) for `duration`
  /// ms. STDP runs only when `learn` is true. Membrane state, synaptic
  /// current and per-image spike timers are reset at the start of each
  /// presentation (the paper presents images independently).
  ///
  /// Determinism contract: every random draw inside a presentation is
  /// counter-indexed by (presentation_index, step), and all dynamic state
  /// resets at the presentation boundary, so the outcome is a pure function
  /// of (config, conductances, theta, presentation_index, rates). A replica
  /// with the same frozen state replays any presentation bit for bit — the
  /// property the batched presentation engine builds on. The index advances
  /// by one per call.
  PresentationResult present(std::span<const double> rates_hz,
                             TimeMs duration_ms, bool learn,
                             bool record_spikes = false);

  /// Index the next present() call will use (== presentations completed so
  /// far unless overridden).
  std::uint64_t presentation_index() const { return presentation_index_; }

  /// Repositions the presentation counter — a replica replays presentation k
  /// of the source network by setting index k before present(). Must be
  /// < 2^32 (the encoder packs it with the step counter).
  void set_presentation_index(std::uint64_t index);

  /// Restores the presentation cursor (counter + biological clock) from a
  /// checkpoint. With the conductances and theta also restored, the next
  /// present() replays exactly what an uninterrupted run would have done —
  /// presentation RNG state is derived from the index alone.
  void restore_cursor(std::uint64_t presentation_index, TimeMs now);

  /// Advances the presentation counter and biological clock as if `count`
  /// presentations of `duration_ms` each had run, without simulating them.
  /// Keeps a network that delegated those presentations to replicas in sync
  /// with the sequential path.
  void skip_presentations(std::uint64_t count, TimeMs duration_ms);

  /// Deep-copies this network onto another engine: same config, current
  /// conductances, homeostatic offsets, clock and presentation index. The
  /// copy replays upcoming presentations bitwise-identically to the source;
  /// batch workers each own one (with a serial Engine — the pool parallelism
  /// is across images, not within a replica).
  WtaNetwork replicate(Engine* engine) const;

  /// Synchronizes a replica with `source` without reconstructing it: copies
  /// conductances, theta, clock and presentation index (configs must match).
  void sync_from(const WtaNetwork& source);

  ConductanceMatrix& conductance() { return conductance_; }
  const ConductanceMatrix& conductance() const { return conductance_; }

  const StdpUpdater& updater() const { return updater_; }

  /// Homeostatic threshold offsets (for diagnostics/tests).
  std::span<const double> theta() const { return threshold_.theta(); }

  /// Restores homeostatic offsets from a snapshot (see pss/io/snapshot.hpp).
  void restore_theta(std::span<const double> values) {
    threshold_.set_theta(values);
  }

  /// Biological time simulated so far (ms).
  TimeMs now() const { return now_; }

  /// Total post-synaptic (layer 1) spikes since construction.
  std::uint64_t total_spikes() const;

 private:
  using Population = std::variant<LifPopulation, IzhikevichPopulation>;

  void apply_stdp_row(NeuronIndex winner, TimeMs t_post);
  void apply_pre_spike_depression(TimeMs now,
                                  std::span<const ChannelIndex> active);

  // --- lazy-STDP machinery (event-driven backends only) --------------------
  /// Records a post-spike row update as pending, reserving the same RNG
  /// counter block the eager path would have consumed.
  void defer_stdp_row(NeuronIndex winner, TimeMs t_post, StepIndex step);
  /// Applies every pending event to the (pending row × active channel)
  /// synapses about to be read this step, keeping their trajectories
  /// bitwise-equal to eager updates.
  void catch_up_synapses(std::span<const ChannelIndex> active);
  /// Presentation-end flush: completes every pending row's event chain via
  /// the backend's stdp_flush kernel and resets the lazy scratch.
  void flush_pending();

  WtaConfig config_;
  std::unique_ptr<Backend> backend_;   ///< from the registry (config.backend)
  std::unique_ptr<StatePool> pool_;    ///< SoA hot state, shared by components
  Population neurons_;
  ConductanceMatrix conductance_;
  StdpUpdater updater_;
  AdaptiveThreshold threshold_;
  PoissonEncoder encoder_;
  CounterRng stdp_rng_;          ///< root stream; forked per presentation
  CounterRng presentation_rng_;  ///< stdp_rng_.fork(presentation) during present()

  TimeMs now_ = 0.0;
  std::uint64_t presentation_index_ = 0;
  std::uint64_t stdp_event_counter_ = 0;  ///< within-presentation draw index

  // Host-side scratch reused across steps (the dense per-step state —
  // currents, pre-spike timers — lives in the pool).
  std::vector<ChannelIndex> active_channels_;
  std::vector<NeuronIndex> spikes_;

  /// True when the backend registers the event-list encode kernels — the
  /// presentation loop then goes event-driven (list-sliced encoding, CSR
  /// propagation, lazy STDP per config_.lazy_stdp).
  bool sparse_ = false;
  /// The presentation's spike events (encoder output + lazy-STDP history).
  SpikeEventList events_;
  /// Per post neuron: deferred post-spike row updates, ascending in time.
  std::vector<std::vector<PendingPostEvent>> pending_;
  /// Post neurons with non-empty pending lists, in first-spike order.
  std::vector<NeuronIndex> rows_with_pending_;

  /// Recent post spikes (neuron, time) inside the eq. 7 horizon — the
  /// candidates for anti-causal depression at pre-spike events.
  std::vector<std::pair<NeuronIndex, TimeMs>> recent_post_spikes_;
  TimeMs dep_horizon_ms_ = 0.0;
};

}  // namespace pss
