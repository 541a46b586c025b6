#include "pss/network/wta_network.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <new>
#include <utility>

#include "pss/backend/backend.hpp"
#include "pss/backend/kernels.hpp"
#include "pss/backend/state_pool.hpp"
#include "pss/common/error.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/obs/trace.hpp"

namespace pss {

namespace {

// Phase indices for the per-presentation time breakdown (manifest phases).
enum PresentPhase { kPhEncode = 0, kPhIntegrate, kPhStdp, kPhHomeostasis };
constexpr const char* kPhaseCounter[] = {
    "phase.encode.ns", "phase.integrate.ns", "phase.stdp.ns",
    "phase.homeostasis.ns"};
constexpr const char* kPhaseSpan[] = {"encode", "integrate", "stdp",
                                      "homeostasis"};

/// Catch-up chain depth (pending post events applied per (row, channel)
/// pair) — how far behind the lazy-STDP path lets synapses drift.
obs::FixedHistogram& catchup_depth_histogram() {
  static obs::FixedHistogram& hist = obs::metrics().histogram(
      "sparse.catchup.depth",
      {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0, 64.0});
  return hist;
}

/// Input-spike occupancy per step — the quantity the event-driven path's
/// costs scale with (the dense path's costs don't, which is the point).
obs::FixedHistogram& spikes_per_step_histogram() {
  static obs::FixedHistogram& hist = obs::metrics().histogram(
      "present.spikes_per_step",
      {0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0});
  return hist;
}

}  // namespace

WtaConfig WtaConfig::from_table1(LearningOption option, StdpKind kind,
                                 std::size_t neuron_count) {
  const Table1Row& row = table1_row(option);
  WtaConfig cfg;
  cfg.neuron_count = neuron_count;
  cfg.stdp.kind = kind;
  // Rows <= 8 bit leave alpha/beta blank (delta = 1/2^n); the magnitudes
  // default to the 16-bit row values, which the deterministic rule needs for
  // its pre-rounding float delta.
  cfg.stdp.magnitude = row.magnitude.value_or(
      StdpMagnitudeParams{0.01, 3.0, 0.005, 3.0, 1.0, 0.0});
  cfg.stdp.gate = row.gate;
  cfg.stdp.format = row.format;
  return cfg;
}

int PresentationResult::winner() const {
  if (spike_counts.empty()) return -1;
  const auto it = std::max_element(spike_counts.begin(), spike_counts.end());
  if (*it == 0) return -1;
  return static_cast<int>(it - spike_counts.begin());
}

const char* neuron_model_name(NeuronModelKind kind) {
  switch (kind) {
    case NeuronModelKind::kLif: return "LIF";
    case NeuronModelKind::kIzhikevich: return "Izhikevich";
  }
  return "?";
}

namespace {

/// The updater sees the scaled eq. 4-5 magnitudes (see learning_rate_scale).
StdpUpdaterConfig scaled_stdp(const WtaConfig& config) {
  StdpUpdaterConfig stdp = config.stdp;
  stdp.magnitude.alpha_p *= config.learning_rate_scale;
  stdp.magnitude.alpha_d *= config.learning_rate_scale;
  return stdp;
}

std::variant<LifPopulation, IzhikevichPopulation> make_population(
    const WtaConfig& config, StatePool& pool) {
  if (config.neuron_model == NeuronModelKind::kIzhikevich) {
    return IzhikevichPopulation(pool, config.izhikevich);
  }
  return LifPopulation(pool, config.lif);
}

}  // namespace

WtaNetwork::WtaNetwork(const WtaConfig& config, Engine* engine)
    : config_(config),
      backend_(make_backend(config.backend, engine)),
      pool_(std::make_unique<StatePool>(
          backend_.get(),
          StatePool::Geometry{config.neuron_count, config.input_channels})),
      neurons_(make_population(config, *pool_)),
      conductance_(*pool_, config.stdp.magnitude.g_min,
                   config.stdp.magnitude.g_max),
      updater_(scaled_stdp(config)),
      threshold_(config.neuron_count, config.homeostasis),
      encoder_(*pool_, config.seed),
      stdp_rng_(config.seed, /*stream=*/0x57d9ull) {
  PSS_REQUIRE(config.neuron_count > 0, "network needs neurons");
  PSS_REQUIRE(config.input_channels > 0, "network needs input channels");
  PSS_REQUIRE(config.dt > 0.0, "dt must be positive");
  PSS_REQUIRE(config.spike_amplitude > 0.0, "spike amplitude must be positive");
  PSS_REQUIRE(config.init_g_hi >= config.init_g_lo, "invalid init range");

  // Learned conductances saturate at the quantizer's cap; the pool is the
  // one place the learnable range [learn_lo, learn_hi] is recorded.
  pool_->set_learn_cap(updater_.effective_g_max());

  SequentialRng init_rng(config.seed, /*stream=*/0x1417ull);
  const Quantizer* q = nullptr;
  std::optional<Quantizer> quant;
  if (config.stdp.format) {
    quant.emplace(*config.stdp.format, config.stdp.rounding);
    q = &*quant;
  }
  conductance_.initialize_uniform(
      config.init_g_lo, std::min(config.init_g_hi, updater_.effective_g_max()),
      init_rng, q);
  // Beyond ~5 time constants the eq. 7 probability is negligible.
  dep_horizon_ms_ = 5.0 * config_.stdp.gate.tau_dep;

  // Event-driven path: selected by probing the kernel table, not the backend
  // name, so any backend registering the sparse slots gets it.
  sparse_ = backend_->kernels().poisson_encode_events != nullptr;
  if (sparse_) {
    pool_->build_sparse();
    pending_.resize(config.neuron_count);
  }
}

WtaNetwork::~WtaNetwork() = default;
WtaNetwork::WtaNetwork(WtaNetwork&&) noexcept = default;
WtaNetwork& WtaNetwork::operator=(WtaNetwork&& other) noexcept {
  // Not defaulted: member-wise move assignment replaces backend_ (declared
  // first) before pool_, so the outgoing pool's buffers would be freed
  // through an already-destroyed backend. Tear the whole object down in
  // reverse declaration order instead, then rebuild by move.
  if (this != &other) {
    this->~WtaNetwork();
    ::new (static_cast<void*>(this)) WtaNetwork(std::move(other));
  }
  return *this;
}

PresentationResult WtaNetwork::present(std::span<const double> rates_hz,
                                       TimeMs duration_ms, bool learn,
                                       bool record_spikes) {
  PSS_REQUIRE(rates_hz.size() == config_.input_channels,
              "rate vector size must equal input channel count");
  PSS_REQUIRE(duration_ms > 0.0, "presentation must have positive duration");

  encoder_.set_rates(rates_hz);
  encoder_.set_presentation(presentation_index_);
  // Per-presentation STDP stream: draws depend only on the presentation
  // index and the within-presentation event counter, never on how many
  // learning events earlier presentations produced.
  presentation_rng_ = stdp_rng_.fork(presentation_index_);
  stdp_event_counter_ = 0;

  // Amplitude auto-gain (see WtaConfig::reference_total_rate_hz).
  double amplitude = config_.spike_amplitude;
  if (config_.neuron_model == NeuronModelKind::kIzhikevich) {
    amplitude *= config_.izhikevich_gain;
  }
  if (config_.reference_total_rate_hz > 0.0) {
    double total_rate = 0.0;
    for (double r : rates_hz) total_rate += r;
    if (total_rate > 1e-9) {
      amplitude *= config_.reference_total_rate_hz / total_rate;
    }
  }

  // Images are presented independently: dynamic state resets, while the
  // learned conductances, the homeostatic offsets and the global clock
  // persist across presentations.
  std::visit([](auto& pop) { pop.reset(); }, neurons_);
  const auto currents = pool_->currents();
  const auto last_pre_spike = pool_->last_pre_spike();
  std::fill(currents.begin(), currents.end(), 0.0);
  std::fill(last_pre_spike.begin(), last_pre_spike.end(), kNeverSpiked);
  recent_post_spikes_.clear();

  PresentationResult result;
  result.spike_counts.assign(config_.neuron_count, 0);

  const TimeMs dt = config_.dt;
  const double decay_factor =
      config_.current_decay_ms > 0.0 ? std::exp(-dt / config_.current_decay_ms)
                                     : 0.0;
  const auto steps = static_cast<StepIndex>(std::ceil(duration_ms / dt));

  // Phase accounting (observational only — never touches RNG or any
  // simulated state, so results are bitwise identical with it on or off).
  // Each phase_stop() charges the time since the previous mark to one
  // phase, so the four buckets partition the step loop's wall time exactly.
  const bool observed = obs::metrics_enabled();
  const bool traced = obs::trace_enabled();
  const bool timed = observed || traced;
  std::uint64_t phase_ns[4] = {0, 0, 0, 0};
  const std::uint64_t present_t0 = timed ? obs::monotonic_ns() : 0;
  std::uint64_t mark = present_t0;
  const auto phase_stop = [&](PresentPhase p) {
    if (!timed) return;
    const std::uint64_t now_ns = obs::monotonic_ns();
    phase_ns[p] += now_ns - mark;
    mark = now_ns;
  };

  // Lazy STDP is an event-driven-path feature (pending events key off the
  // presentation's event list); eager rows remain available there for A/B.
  const bool lazy = sparse_ && learn && config_.lazy_stdp;

  // 4. Post-spike processing: STDP (eager row sweep or lazy deferral) + WTA
  //    inhibition + homeostasis. Shared by both step loops.
  const auto process_post_spikes = [&](TimeMs t, StepIndex s) {
    for (NeuronIndex j : spikes_) {
      ++result.spike_counts[j];
      ++result.total_spikes;
      if (record_spikes) result.spike_events.emplace_back(t, j);
      if (learn) {
        phase_stop(kPhHomeostasis);  // loop bookkeeping up to here
        if (lazy) {
          defer_stdp_row(j, t, s);
        } else {
          apply_stdp_row(j, t);
        }
        phase_stop(kPhStdp);
        if (updater_.wants_pre_spike_events()) {
          recent_post_spikes_.emplace_back(j, t);
        }
      }
      // Homeostasis adapts only while learning; during labelling and
      // inference the thresholds are frozen (Diehl & Cook protocol).
      if (learn) threshold_.on_spike(j);
      if (learn) {
        std::visit(
            [&](auto& pop) { pop.inhibit_all_except(j, t + config_.t_inh_ms); },
            neurons_);
      } else if (config_.readout_inhibition) {
        const TimeMs t_inh = config_.t_inh_readout_ms >= 0.0
                                 ? config_.t_inh_readout_ms
                                 : config_.t_inh_ms;
        std::visit(
            [&](auto& pop) { pop.inhibit_all_except(j, t + t_inh); },
            neurons_);
      }
    }
  };

  if (sparse_) {
    // Event-driven presentation: one encode call builds the whole
    // presentation's spike events (geometric inter-spike sampling), then
    // each step consumes its slice — per-step cost scales with spikes
    // (~0.9/step on MNIST-like input), not channels (784).
    encoder_.build_events(steps, dt, events_);
    result.input_spikes = events_.total();
    phase_stop(kPhEncode);

    const auto row_ptr = pool_->csr_row_ptr();
    const auto cols = pool_->csr_cols();
    const KernelTable& kernels = backend_->kernels();
    Engine& engine = backend_->engine();

    for (StepIndex s = 0; s < steps; ++s) {
      const TimeMs t = static_cast<TimeMs>(s + 1) * dt;
      const auto active = events_.at_step(s);
      if (observed) {
        spikes_per_step_histogram().observe(
            static_cast<double>(active.size()));
      }

      // Lazy STDP: every synapse read this step (integration along the
      // active CSR rows, eq. 7 depression at active channels) is first
      // caught up on its row's pending post events, so its trajectory is
      // bitwise-equal to eager updates.
      if (lazy && !active.empty() && !rows_with_pending_.empty()) {
        catch_up_synapses(active);
      }
      if (learn && updater_.wants_pre_spike_events() &&
          !recent_post_spikes_.empty()) {
        apply_pre_spike_depression(t, active);
      }
      // Eager STDP reads the last-pre timers; the lazy path reconstructs
      // pre-spike times from the event list's channel history instead.
      if (learn && !lazy) {
        for (ChannelIndex c : active) last_pre_spike[c] = t;
      }
      phase_stop(kPhStdp);

      // 2. CSR spike propagation: conductance accumulates only along fired
      //    rows. 3. Neuron-update kernel (the unfused form — with ~1 active
      //    row per step there is no dense gather left to fuse).
      if (decay_factor == 0.0) {
        std::fill(currents.begin(), currents.end(), 0.0);
      } else {
        for (double& i : currents) i *= decay_factor;
      }
      if (!active.empty()) {
        SparseAccumulateArgs args{row_ptr,
                                  cols,
                                  conductance_.values(),
                                  config_.input_channels,
                                  active,
                                  amplitude,
                                  currents};
        kernels.sparse_accumulate(engine, args);
      }
      const bool use_theta = learn || config_.readout_theta;
      const std::span<const double> offsets =
          use_theta ? threshold_.theta() : std::span<const double>{};
      std::visit(
          [&](auto& pop) { pop.step(currents, t, dt, spikes_, offsets); },
          neurons_);
      phase_stop(kPhIntegrate);

      process_post_spikes(t, s);
      if (learn) threshold_.decay(dt);
      phase_stop(kPhHomeostasis);
    }

    // Complete every pending row's event chain (the bulk of the lazy work,
    // batched per row with strided draws and memoized gates).
    if (lazy && !rows_with_pending_.empty()) {
      flush_pending();
      phase_stop(kPhStdp);
    }
  } else {
    for (StepIndex s = 0; s < steps; ++s) {
      // Presentation-local clock: every timer that consumes it (membrane
      // dynamics, inhibition, pre/post spike gaps) resets at the
      // presentation boundary, so using local time keeps presentations
      // exactly replayable.
      const TimeMs t = static_cast<TimeMs>(s + 1) * dt;

      // 1. Input spike trains for this step (counter-indexed by
      //    (presentation, step), so trains differ across presentations but
      //    are independent of presentation order).
      encoder_.active_channels(s, dt, active_channels_);
      result.input_spikes += active_channels_.size();
      if (observed) {
        spikes_per_step_histogram().observe(
            static_cast<double>(active_channels_.size()));
      }
      phase_stop(kPhEncode);

      // Anti-causal depression (eq. 7): an input spike arriving shortly
      // after a post spike depresses that synapse with P_dep. Evaluated
      // before the pre-spike timers are refreshed.
      if (learn && updater_.wants_pre_spike_events() &&
          !recent_post_spikes_.empty()) {
        apply_pre_spike_depression(t, active_channels_);
      }
      for (ChannelIndex c : active_channels_) last_pre_spike[c] = t;
      phase_stop(kPhStdp);

      const bool use_theta = learn || config_.readout_theta;
      const std::span<const double> offsets =
          use_theta ? threshold_.theta() : std::span<const double>{};

      if (config_.fused_step) {
        // 2+3 fused: current decay, accumulation (eq. 3) and the neuron
        // update in one kernel launch (one dispatch per step instead of
        // three; bitwise-identical to the unfused branch below).
        std::visit(
            [&](auto& pop) {
              pop.step_fused(currents, decay_factor, conductance_.values(),
                             config_.input_channels, active_channels_,
                             amplitude, t, dt, spikes_, offsets);
            },
            neurons_);
      } else {
        // 2. Current accumulation kernel (eq. 3), with optional exponential
        //    decay standing in for the synaptic current waveform.
        if (decay_factor == 0.0) {
          std::fill(currents.begin(), currents.end(), 0.0);
        } else {
          for (double& i : currents) i *= decay_factor;
        }
        conductance_.accumulate_currents(active_channels_, amplitude,
                                         currents);

        // 3. Neuron-update kernel.
        std::visit(
            [&](auto& pop) { pop.step(currents, t, dt, spikes_, offsets); },
            neurons_);
      }
      phase_stop(kPhIntegrate);

      process_post_spikes(t, s);
      if (learn) threshold_.decay(dt);
      phase_stop(kPhHomeostasis);
    }
  }

  if (timed) {
    const std::uint64_t present_end = obs::monotonic_ns();
    if (observed) {
      auto& reg = obs::metrics();
      for (int p = 0; p < 4; ++p) {
        reg.counter(kPhaseCounter[p]).add(phase_ns[p]);
      }
      reg.counter("present.count").add(1);
      reg.counter("present.steps").add(steps);
      reg.counter("present.input_spikes").add(result.input_spikes);
      reg.counter("present.output_spikes").add(result.total_spikes);
      static obs::FixedHistogram& spikes_hist = reg.histogram(
          "present.spikes_per_image",
          {0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0});
      spikes_hist.observe(static_cast<double>(result.total_spikes));
    }
    if (traced) {
      // One real span for the presentation plus synthetic sequential spans
      // for the four phases, laid out back to back from the presentation
      // start — per-step spans at dt = 0.5 ms would swamp the trace file.
      obs::emit_trace_event("present", learn ? "train" : "readout",
                            present_t0, present_end - present_t0,
                            static_cast<std::int64_t>(presentation_index_));
      std::uint64_t cursor = present_t0;
      for (int p = 0; p < 4; ++p) {
        if (phase_ns[p] == 0) continue;
        obs::emit_trace_event(kPhaseSpan[p], "phase", cursor, phase_ns[p]);
        cursor += phase_ns[p];
      }
    }
  }

  // The biological clock and the presentation counter advance only at the
  // boundary, keeping them equal on networks that split the same workload
  // differently (sequential vs batched).
  now_ += static_cast<TimeMs>(steps) * dt;
  ++presentation_index_;
  return result;
}

void WtaNetwork::set_presentation_index(std::uint64_t index) {
  PSS_REQUIRE(index < (1ull << 32),
              "presentation index must fit in 32 bits (encoder packs it "
              "with the step counter)");
  presentation_index_ = index;
}

void WtaNetwork::restore_cursor(std::uint64_t presentation_index, TimeMs now) {
  PSS_REQUIRE(now >= 0.0, "biological time cannot be negative");
  set_presentation_index(presentation_index);
  now_ = now;
}

void WtaNetwork::skip_presentations(std::uint64_t count, TimeMs duration_ms) {
  PSS_REQUIRE(duration_ms > 0.0, "presentation must have positive duration");
  const auto steps = static_cast<StepIndex>(std::ceil(duration_ms / config_.dt));
  presentation_index_ += count;
  now_ += static_cast<TimeMs>(count) * static_cast<TimeMs>(steps) * config_.dt;
}

WtaNetwork WtaNetwork::replicate(Engine* engine) const {
  WtaNetwork twin(config_, engine);
  twin.sync_from(*this);
  return twin;
}

void WtaNetwork::sync_from(const WtaNetwork& source) {
  PSS_REQUIRE(config_.neuron_count == source.config_.neuron_count &&
                  config_.input_channels == source.config_.input_channels,
              "sync_from requires identically shaped networks");
  conductance_.upload(source.conductance_.values());
  threshold_.set_theta(source.threshold_.theta());
  now_ = source.now_;
  presentation_index_ = source.presentation_index_;
}

std::uint64_t WtaNetwork::total_spikes() const {
  return std::visit([](const auto& pop) { return pop.spike_count(); },
                    neurons_);
}

void WtaNetwork::apply_stdp_row(NeuronIndex winner, TimeMs t_post) {
  auto row = conductance_.row_mut(winner);
  const std::uint64_t base = stdp_event_counter_;
  stdp_event_counter_ += row.size() * StdpUpdater::kDrawsPerEvent;

  // Registered STDP kernel: one logical thread per afferent synapse. Draw
  // indices are derived from the event base so results are
  // schedule-independent.
  StdpRowArgs args{&updater_, row, std::as_const(*pool_).last_pre_spike(),
                   t_post, &presentation_rng_, base};
  backend_->kernels().stdp_row(backend_->engine(), args);
}

void WtaNetwork::apply_pre_spike_depression(
    TimeMs now, std::span<const ChannelIndex> active) {
  // Prune post spikes older than the eq. 7 horizon (sorted by time).
  std::size_t keep = 0;
  while (keep < recent_post_spikes_.size() &&
         now - recent_post_spikes_[keep].second > dep_horizon_ms_) {
    ++keep;
  }
  if (keep > 0) {
    recent_post_spikes_.erase(recent_post_spikes_.begin(),
                              recent_post_spikes_.begin() +
                                  static_cast<std::ptrdiff_t>(keep));
  }

  // Few events on both axes (WTA keeps post spikes sparse), so a serial
  // host loop with counter-indexed draws is cheap and deterministic.
  for (const auto& [j, t_post] : recent_post_spikes_) {
    const double age = now - t_post;
    auto row = conductance_.row_mut(j);
    for (ChannelIndex c : active) {
      const std::uint64_t k = stdp_event_counter_;
      stdp_event_counter_ += StdpUpdater::kDrawsPerEvent;
      row[c] = updater_.update_at_pre_spike(row[c], age,
                                            presentation_rng_.uniform(k),
                                            presentation_rng_.uniform(k + 1));
    }
  }
}

void WtaNetwork::defer_stdp_row(NeuronIndex winner, TimeMs t_post,
                                StepIndex step) {
  // Reserve the exact counter block the eager row sweep would have consumed
  // — deferred application then draws bit-identical uniforms, and the
  // pre-spike depression events interleaved later in the presentation keep
  // their own counters unchanged.
  const std::uint64_t base = stdp_event_counter_;
  stdp_event_counter_ +=
      config_.input_channels * StdpUpdater::kDrawsPerEvent;
  if (pending_[winner].empty()) rows_with_pending_.push_back(winner);
  pending_[winner].push_back(
      PendingPostEvent{t_post, static_cast<std::uint32_t>(step), base});
}

void WtaNetwork::catch_up_synapses(std::span<const ChannelIndex> active) {
  // Serial host loop: WTA keeps both axes small (~1 active channel per step,
  // a handful of rows with pending events), and each (row, channel) pair
  // applies only the events recorded since its last catch-up. The chain
  // walk itself — gap reconstruction from the channel history, draw-slot
  // elision, memoized gate probabilities — is the same stdp_apply_chain the
  // stdp.flush kernel uses, so the serial catch-up and the parallel flush
  // cannot drift apart. Bitwise equals the eager path's order: post events
  // in time order, interleaved with the immediate pre-spike depression.
  std::uint64_t applied = 0;
  const bool observed = obs::metrics_enabled();
  const StdpChainContext ctx = make_stdp_chain_context(updater_, config_.dt);
  for (NeuronIndex j : rows_with_pending_) {
    const auto& events = pending_[j];
    auto row = conductance_.row_mut(j);
    const auto progress = pool_->stdp_progress_row(j);
    const auto n_events = static_cast<std::uint32_t>(events.size());
    const std::uint64_t stride = stdp_chain_counter_stride(events);
    for (ChannelIndex c : active) {
      const std::uint32_t done = progress[c];
      if (done >= n_events) continue;
      if (observed) {
        catchup_depth_histogram().observe(
            static_cast<double>(n_events - done));
      }
      progress[c] = n_events;
      row[c] = stdp_apply_chain(ctx, row[c], c, events, done,
                                events_.channel_history(c),
                                presentation_rng_, stride, &applied);
    }
  }
  if (applied != 0 && obs::metrics_enabled()) {
    static obs::Counter& touched =
        obs::metrics().counter("sparse.synapses_touched");
    touched.add(applied);
  }
}

void WtaNetwork::flush_pending() {
  const bool observed = obs::metrics_enabled();
  std::atomic<std::uint64_t> applied{0};
  for (NeuronIndex j : rows_with_pending_) {
    auto& events = pending_[j];
    const auto progress = pool_->stdp_progress_row(j);
    StdpFlushArgs args{&updater_, conductance_.row_mut(j), progress,
                       events,    &events_,                config_.dt,
                       &presentation_rng_,                 &applied};
    backend_->kernels().stdp_flush(backend_->engine(), args);
    // Reset the lazy scratch for the next presentation.
    std::fill(progress.begin(), progress.end(), 0u);
    events.clear();
  }
  rows_with_pending_.clear();
  const std::uint64_t n = applied.load(std::memory_order_relaxed);
  if (observed && n != 0) {
    // Honest application count: chain skips and gate-elided events are
    // excluded, so the counter tracks work actually done, not work deferred.
    static obs::Counter& touched =
        obs::metrics().counter("sparse.synapses_touched");
    touched.add(n);
    // Flush-only share of the lazy work (the catch-up path contributes the
    // rest of sparse.synapses_touched) — the quantity ROADMAP item 1's
    // "flush walks every synapse" headroom note is about.
    static obs::Counter& flushed =
        obs::metrics().counter("sparse.flush.synapses");
    flushed.add(n);
  }
}

}  // namespace pss
