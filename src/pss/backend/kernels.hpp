// Registered kernel descriptors — the five hot loops of the simulator
// (paper Sec. III-A) expressed as backend-dispatchable entry points:
//
//   1. poisson/regular encode      — input spike-train generation
//   2. current decay + accumulate  — eq. 3 (the standalone, unfused form)
//   3. LIF / Izhikevich step       — neuron update, plain and fused variants
//   4. WTA inhibition scan         — Fig. 3's second-layer reflex
//   5. STDP row update             — deterministic/stochastic learning rule
//
// Each kernel is a plain function pointer taking the Engine to launch on and
// an argument struct of spans into StatePool buffers. Argument structs are
// views: they own nothing and must not outlive the pool.
//
// Rule: new hot-path kernels are added HERE (a new table slot + per-backend
// implementations), never as inline Engine::launch lambdas at call sites.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "pss/common/rng.hpp"
#include "pss/common/types.hpp"
#include "pss/engine/launch.hpp"
#include "pss/engine/spike_events.hpp"
#include "pss/neuron/izhikevich.hpp"
#include "pss/neuron/lif.hpp"
#include "pss/synapse/stdp_updater.hpp"

namespace pss {

/// SoA views of one population's per-neuron state (StatePool sections).
struct NeuronStateView {
  std::span<double> v;                ///< membrane potential
  std::span<double> u;                ///< Izhikevich recovery (empty for LIF)
  std::span<TimeMs> last_spike;
  std::span<TimeMs> inhibited_until;
  std::span<std::uint8_t> spiked;     ///< per-neuron spike flag (out)
};

/// Plain neuron step: externally computed input currents, state update only.
struct NeuronStepArgs {
  NeuronStateView state;
  std::span<const double> input_current;
  std::span<const double> threshold_offset;  ///< empty = no homeostasis
  TimeMs now = 0.0;
  TimeMs dt = 0.0;
};

/// Fused presentation step: current decay + synaptic accumulation (eq. 3) +
/// neuron update in one launch. `currents` is updated in place:
///   I[i] = I[i]·decay + amplitude·Σ_{pre ∈ active} G[i·pre_count + pre]
/// (decay_factor == 0 clears instead).
struct FusedStepArgs {
  NeuronStateView state;
  std::span<double> currents;
  double decay_factor = 0.0;
  std::span<const double> conductance;  ///< post-major, size n·pre_count
  std::size_t pre_count = 0;
  std::span<const ChannelIndex> active_pre;
  double amplitude = 0.0;
  std::span<const double> threshold_offset;
  TimeMs now = 0.0;
  TimeMs dt = 0.0;
};

struct LifStepArgs {
  LifParameters params;
  NeuronStepArgs step;
};

struct LifFusedStepArgs {
  LifParameters params;
  FusedStepArgs step;
};

struct IzhikevichStepArgs {
  IzhikevichParameters params;
  NeuronStepArgs step;
};

struct IzhikevichFusedStepArgs {
  IzhikevichParameters params;
  FusedStepArgs step;
};

/// Standalone current-accumulation kernel (eq. 3), used by the unfused path:
///   I[post] += amplitude · Σ_{pre ∈ active} G[post·pre_count + pre].
struct CurrentAccumulateArgs {
  std::span<const double> conductance;
  std::size_t pre_count = 0;
  std::span<const ChannelIndex> active_pre;
  double amplitude = 0.0;
  std::span<double> currents;
};

/// WTA inhibition scan: extend every neuron's inhibition window to `until`,
/// except the winner's (never shortens an existing window).
struct InhibitScanArgs {
  std::span<TimeMs> inhibited_until;
  NeuronIndex winner = 0;
  TimeMs until = 0.0;
};

/// Poisson encode: emit the channels (from the nonzero-rate candidate list)
/// that spike at `step` into *active, cleared first and in ascending channel
/// order. Channel c spikes with p = rates_hz[c]·dt·1e-3, drawn from
/// rng->fork(c) at counter (presentation_base | step).
struct PoissonEncodeArgs {
  const CounterRng* rng = nullptr;
  std::span<const double> rates_hz;
  std::span<const ChannelIndex> channels;  ///< candidates (rate > 0)
  std::uint64_t presentation_base = 0;     ///< presentation_index << 32
  StepIndex step = 0;
  TimeMs dt = 0.0;
  std::vector<ChannelIndex>* active = nullptr;
};

/// Regular (clock-like) encode over all channels; see RegularEncoder.
struct RegularEncodeArgs {
  std::span<const double> rates_hz;
  std::span<const double> phase;  ///< per-channel phase in [0, 1)
  StepIndex step = 0;
  TimeMs dt = 0.0;
  std::vector<ChannelIndex>* active = nullptr;
};

/// STDP row update at a post spike: one logical thread per afferent synapse
/// of the winner's conductance row. Draw indices derive from counter_base so
/// results are schedule-independent (3 draws per synapse).
struct StdpRowArgs {
  const StdpUpdater* updater = nullptr;
  std::span<double> row;                 ///< winner's conductance row
  std::span<const TimeMs> last_pre_spike;
  TimeMs t_post = 0.0;
  const CounterRng* rng = nullptr;
  std::uint64_t counter_base = 0;
};

/// Event-driven Poisson encode: build the whole presentation's spike event
/// list at once via geometric inter-spike sampling. Channel c's gaps between
/// successive spikes are Geometric(p = rates_hz[c]·dt·1e-3) — the exact
/// inter-spike law of the dense per-step Bernoulli process — so the list is
/// statistically identical to the dense encoder's output while costing
/// O(spikes) Philox draws instead of O(channels × steps). Draw k of channel
/// c comes from rng->fork(c) at counter (presentation_base | k): a pure
/// function of (seed, presentation, channel), worker-count invariant, and
/// independent of presentation order — the same determinism contract as the
/// dense path (the *draw indexing* differs, so the two paths produce
/// different, equally-distributed trains; see DESIGN.md "Sparse event path").
struct PoissonEncodeEventsArgs {
  const CounterRng* rng = nullptr;
  std::span<const double> rates_hz;
  std::span<const ChannelIndex> channels;  ///< candidates (rate > 0)
  std::size_t channel_count = 0;           ///< total channels (list geometry)
  std::uint64_t presentation_base = 0;     ///< presentation_index << 32
  StepIndex steps = 0;                     ///< presentation length
  TimeMs dt = 0.0;
  SpikeEventList* out = nullptr;
};

/// Event-driven Regular encode: next-spike-time phase arithmetic. Spike k of
/// channel c lands at (k + phase[c])·period; the builder walks k instead of
/// scanning steps. Bitwise-identical per-step slices to the dense
/// regular_encode kernel (asserted by tests/test_properties.cpp).
struct RegularEncodeEventsArgs {
  std::span<const double> rates_hz;
  std::span<const double> phase;  ///< per-channel phase in [0, 1)
  StepIndex steps = 0;
  TimeMs dt = 0.0;
  SpikeEventList* out = nullptr;
};

/// CSR spike propagation (eq. 3 along fired rows only): for each active
/// channel c, currents[cols[i]] += amplitude · G[cols[i]·pre_count + c] over
/// c's CSR row. One launch per active channel (distinct targets within a row,
/// so partitioned dispatch is race-free); channels accumulate in ascending
/// order. Per-neuron currents sum per-channel contributions one add at a
/// time, a different association than the dense gather's row sum — ULP-level
/// divergence from the cpu backend, identical across worker counts.
struct SparseAccumulateArgs {
  std::span<const std::uint32_t> row_ptr;  ///< channels + 1
  std::span<const NeuronIndex> cols;
  std::span<const double> conductance;  ///< post-major, size n·pre_count
  std::size_t pre_count = 0;
  std::span<const ChannelIndex> active_pre;
  double amplitude = 0.0;
  std::span<double> currents;
};

/// One deferred post-spike row update (lazy STDP): recorded when the post
/// neuron fired, applied when the synapse's pre fires or at presentation end.
/// counter_base is reserved at record time exactly as the eager path would
/// have (row_size · kDrawsPerEvent counters), so deferred application
/// consumes bit-identical draws.
struct PendingPostEvent {
  TimeMs t_post = 0.0;
  std::uint32_t step = 0;  ///< step index of the post spike
  std::uint64_t counter_base = 0;
};

/// Lazy-STDP row flush: apply every not-yet-applied pending post-spike event
/// of one conductance row, per synapse, in event order. progress[pre] counts
/// the events already applied to synapse `pre` (catch-up on pre-spike
/// arrival advances it mid-presentation); the flush completes all rows'
/// chains. Historical pre-spike times are reconstructed from the event
/// list's channel_history — for event at step s, the last pre spike is the
/// latest history step s' ≤ s, giving gap = t_post − (s'+1)·dt, the exact
/// value the eager path read from last_pre_spike[] at the time (spike times
/// are (step+1)·dt in both, so the doubles match bit for bit).
struct StdpFlushArgs {
  const StdpUpdater* updater = nullptr;
  std::span<double> row;                 ///< one post neuron's conductance row
  std::span<std::uint32_t> progress;     ///< per-synapse applied-event count
  std::span<const PendingPostEvent> events;  ///< ascending t_post
  const SpikeEventList* history = nullptr;   ///< channel_history source
  TimeMs dt = 0.0;
  const CounterRng* rng = nullptr;
  /// Optional: incremented by the number of event applications actually
  /// performed (whole-chain and per-event skips excluded). Atomic because
  /// blocks may run on different pool workers; the total is deterministic.
  std::atomic<std::uint64_t>* applied = nullptr;
};

/// Conv-accumulate (layer-graph front-end): gather one step's active input
/// spikes through a fixed filter bank into per-conv-unit synaptic currents.
/// One logical thread per output unit (filter f, output row oy, column ox);
/// unit u covers the input window [oy·stride, oy·stride+kernel) ×
/// [ox·stride, ox·stride+kernel) in every input channel plane:
///
///   I[u] = I[u]·decay + amplitude · Σ_{p ∈ active ∩ window(u)} W_f[tap(p)]
///
/// (decay_factor == 0 clears first). `active_pre` is ascending and each
/// unit's taps accumulate in that order on EVERY backend — a fixed
/// association, so the cpu gather and cpu_sparse's hoisted kernel are
/// bitwise equal (asserted by tests/test_prop_differential.cpp), and
/// worker-count invariant (each unit is written by exactly one thread).
struct ConvAccumulateArgs {
  std::span<const double> filters;  ///< [f][c][ky][kx], f-major
  std::size_t filter_count = 0;
  std::size_t in_channels = 1;
  std::size_t kernel = 0;  ///< square kernel side
  std::size_t stride = 1;
  std::size_t in_width = 0;
  std::size_t in_height = 0;
  std::size_t out_width = 0;
  std::size_t out_height = 0;
  /// Active input units this step, flattened (c·in_height + y)·in_width + x,
  /// ascending — a per-step slice of the inter-layer spike event stream.
  std::span<const ChannelIndex> active_pre;
  double amplitude = 0.0;
  double decay_factor = 0.0;  ///< current decay applied before accumulation
  std::span<double> currents;  ///< conv unit currents, (f, oy, ox)
};

/// Spatial spike pooling (layer-graph front-end): OR-reduce each
/// non-overlapping `window`×`window` block of a spike-flag plane, per
/// channel. One logical thread per pooled unit; edge blocks clip. When
/// `pooled_counts` is non-empty it accumulates fired pooled units
/// (+1 per step a unit's window contained a spike) — the per-presentation
/// activity the next layer's rate recoding reads. Pure integer/flag work:
/// bitwise-identical on every backend and worker count.
struct PoolForwardArgs {
  std::span<const std::uint8_t> spiked;  ///< input flags, (c, y, x)
  std::size_t channels = 0;
  std::size_t in_width = 0;
  std::size_t in_height = 0;
  std::size_t window = 2;  ///< pooling window side == stride
  std::size_t out_width = 0;
  std::size_t out_height = 0;
  std::span<std::uint8_t> pooled;          ///< out flags, (c, py, px)
  std::span<std::uint32_t> pooled_counts;  ///< optional accumulator, same size
};

/// Shared scalar chain applier behind the lazy-STDP path: everything
/// stdp_apply_chain needs hoisted out of the per-synapse loop. Build once
/// per batch with make_stdp_chain_context.
struct StdpChainContext {
  const StdpUpdater* updater = nullptr;
  const StochasticGate* gate = nullptr;
  bool stochastic = false;
  bool need_dep = false;    ///< updater consumes the stale-depression draw
  bool need_round = false;  ///< updater consumes the rounding draw
  /// Whole-chain skip is sound: α_p, α_d ≥ 0 (the apply() saturation fast
  /// path is exact) and, for the stochastic rule, p_pot(∞) is exactly +0.
  bool can_park = false;
  double p_pot_inf = 0.0;
  double p_dep_inf = 0.0;
  double g_floor = 0.0;  ///< G_min — the absorbing bound for silent synapses
  TimeMs dt = 0.0;
};

StdpChainContext make_stdp_chain_context(const StdpUpdater& updater, TimeMs dt);

/// Distance between consecutive events' counter_base when it is the same for
/// every adjacent pair (the common case: nothing else consumed draw counters
/// between the deferred post spikes), 0 otherwise. A uniform stride lets
/// stdp_apply_chain pull a whole chain's draws for one slot with the strided
/// bulk generator instead of scalar calls — bitwise-identical either way.
/// Compute once per row; the stride is a property of the shared event list,
/// not of the synapse.
std::uint64_t stdp_chain_counter_stride(
    std::span<const PendingPostEvent> events);

/// Applies events[from..) of one row's pending chain to the single synapse
/// `pre` holding conductance `g`, reading pre-spike times from the
/// channel's presentation spike history. Bitwise-identical to applying the
/// same events eagerly with update_at_post_spike: draws are counter-indexed
/// off each event's reserved base (so the slots a configuration never reads
/// are simply not generated), gate probabilities are memoized by exact gap
/// bits, and chains pinned at G_min with no pre spikes are skipped whole.
/// `counter_stride` is stdp_chain_counter_stride(events) (0 always works; a
/// nonzero value enables bulk draw generation). Both the stdp.flush kernel
/// and WtaNetwork's catch-up path funnel here. When `applied` is non-null it
/// is incremented by the number of events that reached the updater (skips
/// excluded).
double stdp_apply_chain(const StdpChainContext& ctx, double g,
                        ChannelIndex pre,
                        std::span<const PendingPostEvent> events,
                        std::size_t from,
                        std::span<const std::uint32_t> hist,
                        const CounterRng& rng, std::uint64_t counter_stride,
                        std::uint64_t* applied);

/// The dispatch table: one entry per registered kernel, filled per backend.
struct KernelTable {
  void (*poisson_encode)(Engine&, const PoissonEncodeArgs&) = nullptr;
  void (*regular_encode)(Engine&, const RegularEncodeArgs&) = nullptr;
  void (*current_accumulate)(Engine&, const CurrentAccumulateArgs&) = nullptr;
  void (*lif_step)(Engine&, const LifStepArgs&) = nullptr;
  void (*lif_step_fused)(Engine&, const LifFusedStepArgs&) = nullptr;
  void (*izhikevich_step)(Engine&, const IzhikevichStepArgs&) = nullptr;
  void (*izhikevich_step_fused)(Engine&,
                                const IzhikevichFusedStepArgs&) = nullptr;
  void (*inhibit_scan)(Engine&, const InhibitScanArgs&) = nullptr;
  void (*stdp_row)(Engine&, const StdpRowArgs&) = nullptr;

  // Layer-graph front-end kernels (conv filter-bank accumulate + spatial
  // spike pooling). Registered on every backend; cpu_sparse overrides
  // conv_accumulate with a spatially hoisted variant (same association —
  // bitwise-equal results).
  void (*conv_accumulate)(Engine&, const ConvAccumulateArgs&) = nullptr;
  void (*pool_forward)(Engine&, const PoolForwardArgs&) = nullptr;

  // Event-driven sparse path (kernels_sparse.cpp). Null on backends without
  // a sparse path — WtaNetwork selects the event-driven presentation loop by
  // probing poisson_encode_events, so dense backends need no stubs.
  void (*poisson_encode_events)(Engine&,
                                const PoissonEncodeEventsArgs&) = nullptr;
  void (*regular_encode_events)(Engine&,
                                const RegularEncodeEventsArgs&) = nullptr;
  void (*sparse_accumulate)(Engine&, const SparseAccumulateArgs&) = nullptr;
  void (*stdp_flush)(Engine&, const StdpFlushArgs&) = nullptr;
};

/// Reference table: the pre-backend Engine::launch kernel bodies, moved
/// verbatim (same launch tags, same floating-point operation order —
/// bitwise-identical results, asserted by tests/test_backend.cpp).
const KernelTable& cpu_kernel_table();

/// cpu + the event-driven sparse path: event-list encoders (geometric
/// inter-spike sampling / phase arithmetic), CSR spike propagation, the
/// lazy-STDP row flush, and the spatially hoisted conv (see
/// kernels_sparse.cpp). Every dense slot is bitwise-equal to `cpu`.
const KernelTable& cpu_sparse_kernel_table();

}  // namespace pss
