// Reference (`cpu`) kernel implementations.
//
// These are the pre-backend Engine::launch bodies moved here VERBATIM —
// identical floating-point operation order — so the cpu backend reproduces
// the original code bit for bit at any worker count
// (tests/test_backend.cpp asserts this; the network/worker-invariance suites
// pass unmodified on top of it).
#include <algorithm>
#include <cmath>
#include <limits>

#include "pss/backend/kernels.hpp"

namespace pss {

namespace {

void poisson_encode_cpu(Engine&, const PoissonEncodeArgs& a) {
  // Serial append in ascending channel order (the active list is ordered);
  // each channel's draw is counter-indexed so the result is identical to a
  // parallel evaluation, but the list build itself is the natural serial
  // compaction.
  a.active->clear();
  for (ChannelIndex c : a.channels) {
    const double p = a.rates_hz[c] * a.dt * 1e-3;
    // Draw index couples (presentation, step); fork(c) gives each channel
    // its own stream so neighbouring channels are uncorrelated.
    if (a.rng->fork(c).bernoulli(a.presentation_base | a.step, p)) {
      a.active->push_back(c);
    }
  }
}

void regular_encode_cpu(Engine&, const RegularEncodeArgs& a) {
  a.active->clear();
  for (std::size_t c = 0; c < a.rates_hz.size(); ++c) {
    const double f = a.rates_hz[c];
    if (f <= 0.0) continue;
    const double period_ms = 1000.0 / f;
    const double t0 = static_cast<double>(a.step) * a.dt;
    const double t1 = t0 + a.dt;
    // Spike k occurs at (k + phase)·period; count spikes in [t0, t1).
    const double k0 = std::ceil(t0 / period_ms - a.phase[c]);
    const double spike_time = (k0 + a.phase[c]) * period_ms;
    if (spike_time >= t0 && spike_time < t1) {
      a.active->push_back(static_cast<ChannelIndex>(c));
    }
  }
}

void current_accumulate_cpu(Engine& engine, const CurrentAccumulateArgs& a) {
  if (a.active_pre.empty()) return;
  const auto g = a.conductance;
  const std::size_t pre_count = a.pre_count;
  const auto active_pre = a.active_pre;
  const double amplitude = a.amplitude;
  const auto currents = a.currents;
  engine.launch(currents.size(), [&](std::size_t post) {
    const double* row = g.data() + post * pre_count;
    double acc = 0.0;
    for (ChannelIndex pre : active_pre) acc += row[pre];
    currents[post] += amplitude * acc;
  });
}

void lif_step_cpu(Engine& engine, const LifStepArgs& args) {
  const auto v = args.step.state.v;
  const auto last = args.step.state.last_spike;
  const auto inhibited = args.step.state.inhibited_until;
  const auto flag = args.step.state.spiked;
  const auto input_current = args.step.input_current;
  const auto threshold_offset = args.step.threshold_offset;
  const TimeMs now = args.step.now;
  const TimeMs dt = args.step.dt;
  const LifParameters p = args.params;

  // Neuron-update kernel: one logical thread per neuron (paper Sec. III-A).
  engine.launch(v.size(), [&](std::size_t i) {
    flag[i] = 0;
    if (now <= inhibited[i]) {
      v[i] = p.v_reset;  // WTA inhibition pins the loser at reset
      return;
    }
    if (p.refractory_ms > 0.0 && last[i] != kNeverSpiked &&
        now - last[i] < p.refractory_ms) {
      v[i] = p.v_reset;
      return;
    }
    double vi = lif_integrate(p, v[i], input_current[i], dt);
    const double threshold =
        p.v_threshold + (threshold_offset.empty() ? 0.0 : threshold_offset[i]);
    if (vi > threshold) {
      vi = p.v_reset;
      flag[i] = 1;
      last[i] = now;
    }
    v[i] = vi;
  });
}

void lif_step_fused_cpu(Engine& engine, const LifFusedStepArgs& args) {
  const auto v = args.step.state.v;
  const auto last = args.step.state.last_spike;
  const auto inhibited = args.step.state.inhibited_until;
  const auto flag = args.step.state.spiked;
  const auto currents = args.step.currents;
  const double decay_factor = args.step.decay_factor;
  const auto conductance = args.step.conductance;
  const std::size_t pre_count = args.step.pre_count;
  const auto active_pre = args.step.active_pre;
  const double amplitude = args.step.amplitude;
  const auto threshold_offset = args.step.threshold_offset;
  const TimeMs now = args.step.now;
  const TimeMs dt = args.step.dt;
  const LifParameters p = args.params;

  engine.launch(v.size(), [&](std::size_t i) {
    // Synaptic current update (all neurons, inhibited or not — matches the
    // unfused decay + accumulate_currents sequence bit for bit).
    double ci = decay_factor == 0.0 ? 0.0 : currents[i] * decay_factor;
    if (!active_pre.empty()) {
      const double* row = conductance.data() + i * pre_count;
      double acc = 0.0;
      for (ChannelIndex pre : active_pre) acc += row[pre];
      ci += amplitude * acc;
    }
    currents[i] = ci;

    flag[i] = 0;
    if (now <= inhibited[i]) {
      v[i] = p.v_reset;
      return;
    }
    if (p.refractory_ms > 0.0 && last[i] != kNeverSpiked &&
        now - last[i] < p.refractory_ms) {
      v[i] = p.v_reset;
      return;
    }
    double vi = lif_integrate(p, v[i], ci, dt);
    const double threshold =
        p.v_threshold + (threshold_offset.empty() ? 0.0 : threshold_offset[i]);
    if (vi > threshold) {
      vi = p.v_reset;
      flag[i] = 1;
      last[i] = now;
    }
    v[i] = vi;
  });
}

void izhikevich_step_cpu(Engine& engine, const IzhikevichStepArgs& args) {
  const auto v = args.step.state.v;
  const auto u = args.step.state.u;
  const auto last = args.step.state.last_spike;
  const auto inhibited = args.step.state.inhibited_until;
  const auto flag = args.step.state.spiked;
  const auto input_current = args.step.input_current;
  const auto threshold_offset = args.step.threshold_offset;
  const TimeMs now = args.step.now;
  const TimeMs dt = args.step.dt;
  const IzhikevichParameters base = args.params;

  engine.launch(v.size(), [&](std::size_t i) {
    flag[i] = 0;
    if (now <= inhibited[i]) {
      v[i] = base.c;
      return;
    }
    IzhikevichParameters p = base;
    if (!threshold_offset.empty()) p.v_peak += threshold_offset[i];
    flag[i] = izhikevich_step(p, v[i], u[i], input_current[i], dt) ? 1 : 0;
    if (flag[i]) last[i] = now;
  });
}

void izhikevich_step_fused_cpu(Engine& engine,
                               const IzhikevichFusedStepArgs& args) {
  const auto v = args.step.state.v;
  const auto u = args.step.state.u;
  const auto last = args.step.state.last_spike;
  const auto inhibited = args.step.state.inhibited_until;
  const auto flag = args.step.state.spiked;
  const auto currents = args.step.currents;
  const double decay_factor = args.step.decay_factor;
  const auto conductance = args.step.conductance;
  const std::size_t pre_count = args.step.pre_count;
  const auto active_pre = args.step.active_pre;
  const double amplitude = args.step.amplitude;
  const auto threshold_offset = args.step.threshold_offset;
  const TimeMs now = args.step.now;
  const TimeMs dt = args.step.dt;
  const IzhikevichParameters base = args.params;

  engine.launch(v.size(), [&](std::size_t i) {
    // Matches the unfused decay + accumulate_currents sequence bit for bit.
    double ci = decay_factor == 0.0 ? 0.0 : currents[i] * decay_factor;
    if (!active_pre.empty()) {
      const double* row = conductance.data() + i * pre_count;
      double acc = 0.0;
      for (ChannelIndex pre : active_pre) acc += row[pre];
      ci += amplitude * acc;
    }
    currents[i] = ci;

    flag[i] = 0;
    if (now <= inhibited[i]) {
      v[i] = base.c;
      return;
    }
    IzhikevichParameters p = base;
    if (!threshold_offset.empty()) p.v_peak += threshold_offset[i];
    flag[i] = izhikevich_step(p, v[i], u[i], ci, dt) ? 1 : 0;
    if (flag[i]) last[i] = now;
  });
}

void inhibit_scan_cpu(Engine& engine, const InhibitScanArgs& a) {
  const auto inhibited = a.inhibited_until;
  const NeuronIndex winner = a.winner;
  const TimeMs until = a.until;
  engine.launch(inhibited.size(), [&](std::size_t i) {
    if (i != winner && until > inhibited[i]) inhibited[i] = until;
  });
}

void stdp_row_cpu(Engine& engine, const StdpRowArgs& a) {
  const auto row = a.row;
  const auto last_pre = a.last_pre_spike;
  const StdpUpdater& updater = *a.updater;
  const CounterRng& rng = *a.rng;
  const std::uint64_t base = a.counter_base;
  const TimeMs t_post = a.t_post;

  // STDP kernel: one logical thread per afferent synapse. Draw indices are
  // derived from the event base so results are schedule-independent.
  engine.launch(row.size(), [&](std::size_t pre) {
    const TimeMs t_pre = last_pre[pre];
    const double gap =
        t_pre == kNeverSpiked ? std::numeric_limits<double>::infinity()
                              : t_post - t_pre;
    const std::uint64_t c = base + pre * StdpUpdater::kDrawsPerEvent;
    row[pre] = updater.update_at_post_spike(row[pre], gap, rng.uniform(c),
                                            rng.uniform(c + 1),
                                            rng.uniform(c + 2));
  });
}

void conv_accumulate_cpu(Engine& engine, const ConvAccumulateArgs& a) {
  const auto currents = a.currents;
  const auto active = a.active_pre;
  const auto filters = a.filters;
  const std::size_t kernel = a.kernel;
  const std::size_t stride = a.stride;
  const std::size_t in_w = a.in_width;
  const std::size_t in_plane = a.in_width * a.in_height;
  const std::size_t out_plane = a.out_width * a.out_height;
  const std::size_t taps = a.in_channels * kernel * kernel;
  const double amplitude = a.amplitude;
  const double decay = a.decay_factor;

  // Reference gather: one logical thread per conv unit, scanning the step's
  // active list in ascending order and accumulating the taps that fall in
  // the unit's window. The fixed per-unit association (active order) is the
  // cross-backend bitwise contract.
  engine.launch(a.filter_count * out_plane, [&](std::size_t u) {
    const std::size_t f = u / out_plane;
    const std::size_t rem = u % out_plane;
    const std::size_t y0 = (rem / a.out_width) * stride;
    const std::size_t x0 = (rem % a.out_width) * stride;
    const double* w = filters.data() + f * taps;
    double acc = 0.0;
    for (const ChannelIndex p : active) {
      const std::size_t c = p / in_plane;
      const std::size_t q = p % in_plane;
      const std::size_t y = q / in_w;
      const std::size_t x = q % in_w;
      if (y < y0 || y >= y0 + kernel || x < x0 || x >= x0 + kernel) continue;
      acc += w[(c * kernel + (y - y0)) * kernel + (x - x0)];
    }
    currents[u] = currents[u] * decay + amplitude * acc;
  });
}

void pool_forward_cpu(Engine& engine, const PoolForwardArgs& a) {
  const auto spiked = a.spiked;
  const auto pooled = a.pooled;
  const auto counts = a.pooled_counts;
  const std::size_t window = a.window;
  const std::size_t in_w = a.in_width;
  const std::size_t in_h = a.in_height;
  const std::size_t in_plane = in_w * in_h;
  const std::size_t out_plane = a.out_width * a.out_height;

  engine.launch(a.channels * out_plane, [&](std::size_t u) {
    const std::size_t c = u / out_plane;
    const std::size_t rem = u % out_plane;
    const std::size_t y0 = (rem / a.out_width) * window;
    const std::size_t x0 = (rem % a.out_width) * window;
    const std::size_t y1 = std::min(y0 + window, in_h);
    const std::size_t x1 = std::min(x0 + window, in_w);
    std::uint8_t any = 0;
    for (std::size_t y = y0; y < y1; ++y) {
      const std::uint8_t* row = spiked.data() + c * in_plane + y * in_w;
      for (std::size_t x = x0; x < x1; ++x) any |= row[x];
    }
    pooled[u] = any ? 1 : 0;
    if (!counts.empty() && any) ++counts[u];
  });
}

}  // namespace

const KernelTable& cpu_kernel_table() {
  static const KernelTable table = {
      /*poisson_encode=*/poisson_encode_cpu,
      /*regular_encode=*/regular_encode_cpu,
      /*current_accumulate=*/current_accumulate_cpu,
      /*lif_step=*/lif_step_cpu,
      /*lif_step_fused=*/lif_step_fused_cpu,
      /*izhikevich_step=*/izhikevich_step_cpu,
      /*izhikevich_step_fused=*/izhikevich_step_fused_cpu,
      /*inhibit_scan=*/inhibit_scan_cpu,
      /*stdp_row=*/stdp_row_cpu,
      /*conv_accumulate=*/conv_accumulate_cpu,
      /*pool_forward=*/pool_forward_cpu,
  };
  return table;
}

}  // namespace pss
