// StatePool — the per-presentation hot state as structure-of-arrays
// sections, bound to the Backend whose kernels read them.
//
// Everything the five hot kernels touch lives here:
//
//   per neuron   membrane v, recovery u (Izhikevich), last-spike time,
//                inhibition deadline, spike flag, synaptic current
//   per channel  encoder rate, last pre-spike time
//   per synapse  conductance G (post-major: row(post) is contiguous)
//
// One pool is shared by a WtaNetwork and all its components; standalone
// components (tests, benches) create their own. A layer graph shares one
// pool across its front-end layers: the primary population (handle 0) hosts
// the encoder sections and every conv/pool layer adds a population segment
// via add_population() — per-layer neuron/current/spike sections behind
// stable handles. The pool also owns the ONE
// bounds-checked conductance-row accessor (g_row) and the single clamp /
// bulk-load path — the STDP updaters, checkpoint restore and trainer merge
// all route through it instead of keeping private copies of the bounds
// logic.
#pragma once

#include <span>
#include <vector>

#include "pss/backend/backend.hpp"
#include "pss/common/rng.hpp"
#include "pss/common/types.hpp"
#include "pss/fixedpoint/quantizer.hpp"

namespace pss {

/// Stable identifier of one population segment inside a StatePool. Handle 0
/// is the primary population (the one the no-handle accessors address, and
/// the only one carrying conductance/sparse sections); handles from
/// add_population() stay valid for the pool's lifetime.
using PopulationHandle = std::size_t;

class StatePool {
 public:
  struct Geometry {
    std::size_t neurons = 1;
    std::size_t channels = 0;  ///< 0 = no encoder/synapse sections
  };

  StatePool(Backend* backend, Geometry geometry);

  StatePool(const StatePool&) = delete;
  StatePool& operator=(const StatePool&) = delete;

  Backend& backend() const { return *backend_; }
  Engine& engine() const { return backend_->engine(); }
  std::size_t neurons() const { return geometry_.neurons; }
  std::size_t channels() const { return geometry_.channels; }

  // --- multi-population segments (layer graphs) ---------------------------
  /// Appends a population segment (own membrane/current/spike sections plus a
  /// per-unit spike-count accumulator) and returns its stable handle. The
  /// primary population (handle 0, created by the constructor) is untouched —
  /// single-population consumers keep their exact seed behaviour. Extra
  /// populations carry no conductance/encoder sections; synapses between
  /// graph layers live with the layer that owns them.
  PopulationHandle add_population(Geometry geometry);
  std::size_t population_count() const { return 1 + extra_.size(); }
  Geometry population_geometry(PopulationHandle h) const;

  /// Handle-taking section accessors. Handle 0 aliases the primary sections.
  std::span<double> membrane(PopulationHandle h);
  std::span<double> recovery(PopulationHandle h);
  std::span<TimeMs> last_spike(PopulationHandle h);
  std::span<TimeMs> inhibited_until(PopulationHandle h);
  std::span<std::uint8_t> spiked(PopulationHandle h);
  std::span<double> currents(PopulationHandle h);

  /// Per-unit spike-count accumulator (extra populations only — the primary
  /// population's counts are presentation-local host state in WtaNetwork).
  std::span<std::uint32_t> spike_counts(PopulationHandle h);

  // --- per-neuron sections -------------------------------------------------
  std::span<double> membrane() { return membrane_; }
  std::span<const double> membrane() const { return membrane_; }
  std::span<double> recovery() { return recovery_; }
  std::span<const double> recovery() const { return recovery_; }
  std::span<TimeMs> last_spike() { return last_spike_; }
  std::span<const TimeMs> last_spike() const { return last_spike_; }
  std::span<TimeMs> inhibited_until() { return inhibited_until_; }
  std::span<const TimeMs> inhibited_until() const {
    return inhibited_until_;
  }
  std::span<std::uint8_t> spiked() { return spiked_; }
  std::span<double> currents() { return currents_; }
  std::span<const double> currents() const { return currents_; }

  // --- per-channel sections ------------------------------------------------
  std::span<double> rates() { return rates_; }
  std::span<const double> rates() const { return rates_; }
  std::span<TimeMs> last_pre_spike() { return last_pre_spike_; }
  std::span<const TimeMs> last_pre_spike() const {
    return last_pre_spike_;
  }

  // --- conductance section (neurons × channels, post-major) ---------------
  /// Sets the representable range [g_min, g_max] and resets the learning cap
  /// to g_max. Must be called before any conductance access.
  void set_g_bounds(double g_min, double g_max);

  /// Caps the range learning may reach (min(g_max, cap)) — the quantizer's
  /// max representable value when a fixed-point format is active.
  void set_learn_cap(double cap);

  double g_min() const { return g_min_; }
  double g_max() const { return g_max_; }
  /// The range STDP-learned values are clamped to: [g_min, min(g_max, cap)].
  double learn_lo() const { return g_min_; }
  double learn_hi() const { return learn_hi_; }

  std::span<double> g() { return g_; }
  std::span<const double> g() const { return g_; }

  /// THE conductance-row accessor: bounds-checked contiguous row of one
  /// post-neuron. Every consumer (STDP kernels, checkpoint restore, fused
  /// step, map export) goes through here — do not hand-compute offsets.
  std::span<double> g_row(NeuronIndex post);
  std::span<const double> g_row(NeuronIndex post) const;

  /// Clamps a value to the representable range [g_min, g_max].
  double clamp_g(double value) const;

  /// Bulk conductance load (checkpoint restore / replica sync / snapshot).
  /// `clamp` routes every element through clamp_g — the one place restore
  /// bounds handling lives.
  void load_g(std::span<const double> values, bool clamp);

  /// Uniform-random conductance init, clamped to the range and optionally
  /// snapped to a quantizer grid (low-precision learning starts from
  /// representable state). The single init/quantize site.
  void init_g_uniform(double lo, double hi, SequentialRng& rng,
                      const Quantizer* quantizer);

  // --- sparse-path sections (allocated on demand by build_sparse) ----------
  /// Allocates the CSR channel→neuron connectivity view and the per-synapse
  /// lazy-STDP progress counters. The network is all-to-all (every channel
  /// feeds every neuron, paper Fig. 3), so row c is simply [0, neurons) —
  /// the CSR form is the contract sparse_accumulate propagates along, and
  /// the layout a pruned or topographic connectivity would slot into.
  /// Idempotent; only the event-driven path calls it, so dense pools carry
  /// no extra footprint.
  void build_sparse();
  bool has_sparse() const { return csr_row_ptr_.size() != 0; }

  std::span<const std::uint32_t> csr_row_ptr() const { return csr_row_ptr_; }
  std::span<const NeuronIndex> csr_cols() const { return csr_cols_; }

  /// Per-synapse applied-event counters for the lazy-STDP flush, post-major
  /// like g(): row(post) counts how many of post's pending events each
  /// afferent synapse has absorbed. Presentation scratch (reset each
  /// presentation), pool-resident next to the conductances it tracks.
  std::span<std::uint32_t> stdp_progress_row(NeuronIndex post);

 private:
  /// One extra population's SoA sections (see add_population).
  struct ExtraPopulation {
    Geometry geometry;
    std::vector<double> membrane;
    std::vector<double> recovery;
    std::vector<TimeMs> last_spike;
    std::vector<TimeMs> inhibited_until;
    std::vector<std::uint8_t> spiked;
    std::vector<double> currents;
    std::vector<std::uint32_t> spike_counts;
  };

  ExtraPopulation& extra(PopulationHandle h);

  Backend* backend_;
  Geometry geometry_;

  std::vector<double> membrane_;
  std::vector<double> recovery_;
  std::vector<TimeMs> last_spike_;
  std::vector<TimeMs> inhibited_until_;
  std::vector<std::uint8_t> spiked_;
  std::vector<double> currents_;

  std::vector<double> rates_;
  std::vector<TimeMs> last_pre_spike_;

  std::vector<double> g_;
  double g_min_ = 0.0;
  double g_max_ = 1.0;
  double learn_hi_ = 1.0;

  std::vector<std::uint32_t> csr_row_ptr_;
  std::vector<NeuronIndex> csr_cols_;
  std::vector<std::uint32_t> stdp_progress_;

  std::vector<ExtraPopulation> extra_;
};

}  // namespace pss
