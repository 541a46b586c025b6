// `cpu_sparse` kernel implementations: the event-driven sparse path.
//
//  * poisson/regular event-list encoders — build the whole presentation's
//    spike events up front (geometric inter-spike sampling / next-spike-time
//    phase arithmetic) instead of scanning every channel every step;
//  * sparse.accumulate — CSR spike propagation, touching only fired rows;
//  * stdp.flush — the lazy-STDP row flush, applying a row's deferred
//    post-spike updates lane-major: each synapse walks its whole event chain
//    with registers hot, fetching only the counter-indexed draw slots its
//    chain actually consumes (silent channels never need a potentiation
//    draw), with memoized gate probabilities and whole-chain skips for
//    synapses parked at g_min;
//  * graph.conv — the spatially hoisted conv accumulate (one thread per
//    output position, window geometry computed once for the whole filter
//    bank).
//
// Every other dense table slot reuses the reference cpu kernel. The hoisted
// conv sums each unit's taps in the reference order, so every dense slot is
// bitwise-equal to `cpu`; the event-driven kernels have their own contracts
// (see DESIGN.md "Sparse event path"):
//  * regular event lists are BITWISE step-identical to the dense
//    regular_encode kernel (each candidate spike is confirmed against the
//    dense kernel's own comparisons before it is emitted);
//  * poisson event lists follow the same Bernoulli-per-step law as the dense
//    encoder but index their draws by spike ordinal instead of step — the
//    trains are equally distributed, not equal, and remain pure functions of
//    (seed, presentation, channel) at any worker count;
//  * stdp.flush is bitwise-identical to applying the same pending events
//    eagerly with stdp.row: draws are counter-indexed off each event's
//    reserved base, skipped slots are ones the updater config never reads,
//    and the memoized gate probabilities equal the recomputed ones exactly.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "pss/backend/kernels.hpp"

namespace pss {

namespace {

void poisson_encode_events_cpu(Engine&, const PoissonEncodeEventsArgs& a) {
  SpikeEventList& out = *a.out;
  out.clear();
  out.channel_offsets.assign(a.channel_count + 1, 0);
  const double steps_d = static_cast<double>(a.steps);
  for (ChannelIndex c : a.channels) {
    const double p = a.rates_hz[c] * a.dt * 1e-3;
    const auto before = static_cast<std::uint32_t>(out.channel_steps.size());
    if (p >= 1.0) {
      // Certain spike every step (the dense bernoulli clamps p the same way).
      for (StepIndex s = 0; s < a.steps; ++s) {
        out.channel_steps.push_back(static_cast<std::uint32_t>(s));
      }
    } else if (p > 0.0) {
      // Geometric inter-spike sampling: the gap (failure count) before the
      // next success of a Bernoulli(p) per-step process is Geometric(p), so
      // sampling gaps directly reproduces the dense process's law with one
      // Philox draw per spike instead of one per step. Each draw advances
      // the step cursor by at least one, so the per-channel ordinal k is
      // bounded by steps + 1 and never overflows the 32-bit counter slice.
      const CounterRng ch = a.rng->fork(c);
      const double lp = std::log1p(-p);  // log(1-p) < 0
      double s = -1.0;                   // last spike step
      std::uint64_t k = 0;               // draw ordinal within presentation
      while (true) {
        const double u = ch.uniform(a.presentation_base | k);
        ++k;
        s += 1.0 + std::floor(std::log1p(-u) / lp);
        if (!(s < steps_d)) break;
        out.channel_steps.push_back(static_cast<std::uint32_t>(s));
      }
    }
    out.channel_offsets[c + 1] =
        static_cast<std::uint32_t>(out.channel_steps.size()) - before;
  }
  for (std::size_t c = 0; c < a.channel_count; ++c) {
    out.channel_offsets[c + 1] += out.channel_offsets[c];
  }
  out.index_by_step(a.steps);
}

/// The dense regular_encode predicate, verbatim: does channel (f, phase)
/// fire in step s? Evaluated with the identical operations so the event
/// builder's emissions match the dense kernel bit for bit.
inline bool regular_fires_at(double f, double phase, StepIndex s, TimeMs dt) {
  const double period_ms = 1000.0 / f;
  const double t0 = static_cast<double>(s) * dt;
  const double t1 = t0 + dt;
  const double k0 = std::ceil(t0 / period_ms - phase);
  const double spike_time = (k0 + phase) * period_ms;
  return spike_time >= t0 && spike_time < t1;
}

void regular_encode_events_cpu(Engine&, const RegularEncodeEventsArgs& a) {
  SpikeEventList& out = *a.out;
  out.clear();
  const std::size_t channels = a.rates_hz.size();
  out.channel_offsets.assign(channels + 1, 0);
  const double steps_d = static_cast<double>(a.steps);
  for (std::size_t c = 0; c < channels; ++c) {
    const double f = a.rates_hz[c];
    const auto before = static_cast<std::uint32_t>(out.channel_steps.size());
    if (f > 0.0) {
      const double period_ms = 1000.0 / f;
      // Walk spike ordinals k (spike k at (k + phase)·period). Floating
      // point can land a boundary spike one step off the mathematical
      // bucket, so each candidate step near the spike is confirmed against
      // the dense predicate itself — emissions match the dense kernel
      // exactly, including its boundary rounding.
      double last_emitted = -1.0;
      for (std::uint64_t k = 0;; ++k) {
        const double t = (static_cast<double>(k) + a.phase[c]) * period_ms;
        if (t >= (steps_d + 1.0) * a.dt) break;
        const double sd = std::floor(t / a.dt);
        for (double s = std::max(sd - 1.0, 0.0); s <= sd + 1.0; s += 1.0) {
          if (s >= steps_d || s <= last_emitted) continue;
          if (regular_fires_at(f, a.phase[c], static_cast<StepIndex>(s),
                               a.dt)) {
            out.channel_steps.push_back(static_cast<std::uint32_t>(s));
            last_emitted = s;
          }
        }
      }
    }
    out.channel_offsets[c + 1] =
        static_cast<std::uint32_t>(out.channel_steps.size()) - before;
  }
  for (std::size_t c = 0; c < channels; ++c) {
    out.channel_offsets[c + 1] += out.channel_offsets[c];
  }
  out.index_by_step(a.steps);
}

void sparse_accumulate_cpu(Engine& engine, const SparseAccumulateArgs& a) {
  const auto g = a.conductance;
  const std::size_t pre_count = a.pre_count;
  const double amplitude = a.amplitude;
  const auto currents = a.currents;
  // One launch per fired channel, in ascending channel order: targets within
  // a CSR row are distinct neurons, so partitioned dispatch is race-free,
  // and each neuron's current accumulates per-channel contributions in the
  // same (channel-ascending) order at every worker count.
  for (ChannelIndex c : a.active_pre) {
    const std::uint32_t lo = a.row_ptr[c];
    const auto cols = a.cols.subspan(lo, a.row_ptr[c + 1] - lo);
    engine.launch("sparse.accumulate", cols.size(), [&](std::size_t i) {
      const NeuronIndex post = cols[i];
      currents[post] += amplitude * g[post * pre_count + c];
    });
  }
}

/// Gate-probability memo: keyed by the exact gap bits and the gate
/// parameters, so a hit replays bit-identical p_pot/p_dep_stale values.
/// Spike times sit on the dt grid — a flushed event chain sees few distinct
/// gaps, so the two exp() calls per synapse-event mostly become two
/// compares. Thread-local storage keeps partitioned dispatch safe.
struct FlushGateMemoSlot {
  double gap = -1.0;  // gaps are >= 0, so -1 never matches
  double gamma_pot = 0.0;
  double tau_pot = 0.0;
  double gamma_dep = 0.0;
  double tau_stale = 0.0;
  double p_pot = 0.0;
  double p_dep_stale = 0.0;
};
constexpr std::size_t kFlushMemoSlots = 256;  // power of two
thread_local FlushGateMemoSlot g_flush_memo[kFlushMemoSlots];

/// Finite-gap stochastic update with memoized gate probabilities. A hit
/// feeds update_at_post_spike_gated the exact values a recompute would, so
/// the result is bitwise-identical to the unmemoized path.
inline double flush_gated_memo(const StdpUpdater& updater,
                               const StochasticGate& gate,
                               const StdpUpdaterConfig& cfg, double g,
                               double gap, double u_pot, double u_dep,
                               double u_round) {
  const double gamma_pot = cfg.gate.gamma_pot;
  const double tau_pot = cfg.gate.tau_pot;
  const double gamma_dep = cfg.gate.gamma_dep;
  const double tau_stale = cfg.gate.tau_stale;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(gap);
  const std::size_t slot_index =
      static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >> 56) &
      (kFlushMemoSlots - 1);
  FlushGateMemoSlot& slot = g_flush_memo[slot_index];
  if (slot.gap != gap || slot.gamma_pot != gamma_pot ||
      slot.tau_pot != tau_pot || slot.gamma_dep != gamma_dep ||
      slot.tau_stale != tau_stale) {
    slot.gap = gap;
    slot.gamma_pot = gamma_pot;
    slot.tau_pot = tau_pot;
    slot.gamma_dep = gamma_dep;
    slot.tau_stale = tau_stale;
    slot.p_pot = gate.p_pot(gap);
    slot.p_dep_stale = gate.p_dep_stale(gap);
  }
  return updater.update_at_post_spike_gated(g, slot.p_pot, slot.p_dep_stale,
                                            u_pot, u_dep, u_round);
}

}  // namespace

StdpChainContext make_stdp_chain_context(const StdpUpdater& updater,
                                         TimeMs dt) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  StdpChainContext ctx;
  ctx.updater = &updater;
  ctx.gate = &updater.gate();
  const StdpUpdaterConfig& cfg = updater.config();
  ctx.stochastic = cfg.kind == StdpKind::kStochastic;
  ctx.need_dep = updater.consumes_dep_draw();
  ctx.need_round = updater.consumes_round_draw();
  ctx.p_pot_inf = ctx.gate->p_pot(kInf);
  ctx.p_dep_inf = ctx.gate->p_dep_stale(kInf);
  // Parked-synapse chain skip. A synapse whose channel never fired this
  // presentation sees gap = ∞ at every pending event: potentiation is
  // impossible (stochastic: p_pot(∞) is exactly +0 so `u < p` never fires;
  // deterministic: ∞ exceeds any causal window) and the only possible move
  // is depression, which apply()'s saturation fast path pins at g_min when
  // α_p, α_d ≥ 0. So a silent synapse sitting exactly at g_min returns
  // g_min from every event in the chain, for every draw value — the whole
  // chain is a bitwise no-op and is skipped without generating its draws
  // (draws are counter-indexed, so unconsumed slots cost nothing and shift
  // nothing). After training most background synapses are parked (the
  // paper's bimodal conductance maps), which is where lazy plasticity beats
  // the eager sweep asymptotically instead of just deferring it.
  ctx.can_park =
      updater.nonneg_deltas() && (!ctx.stochastic || ctx.p_pot_inf == 0.0);
  ctx.g_floor = cfg.magnitude.g_min;
  ctx.dt = dt;
  return ctx;
}

std::uint64_t stdp_chain_counter_stride(
    std::span<const PendingPostEvent> events) {
  if (events.size() < 2) return 0;
  const std::uint64_t stride = events[1].counter_base - events[0].counter_base;
  for (std::size_t e = 2; e < events.size(); ++e) {
    if (events[e].counter_base - events[e - 1].counter_base != stride)
      return 0;
  }
  return stride;
}

double stdp_apply_chain(const StdpChainContext& ctx, double g,
                        ChannelIndex pre,
                        std::span<const PendingPostEvent> events,
                        std::size_t from,
                        std::span<const std::uint32_t> hist,
                        const CounterRng& rng, std::uint64_t counter_stride,
                        std::uint64_t* applied) {
  constexpr std::uint64_t kDraws = StdpUpdater::kDrawsPerEvent;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Draw-buffer chunk: a whole chunk's worth of one draw slot is generated
  // with the strided bulk generator (~2x cheaper per draw than scalar calls,
  // bitwise-identical by contract) whenever the chain's counter stride is
  // uniform. Chains that end early simply leave generated values unread —
  // indexed draws are independent, so nothing shifts. The bulk generator's
  // setup only amortizes over several draws, so chunks below kBulkMin fall
  // back to scalar calls — the common mid-training case, where rows flush
  // every few post spikes and chains are one or two events long.
  constexpr std::size_t kChunk = 64;
  constexpr std::size_t kBulkMin = 8;
  // Copy every context field into never-escaping locals. The updater/rng
  // calls below are opaque to the optimizer, and `ctx` is a reference it
  // cannot prove unaliased — left as member reads, each field would be
  // reloaded from memory after every call. Locals stay in registers.
  const StdpUpdater& updater = *ctx.updater;
  const StochasticGate& gate = *ctx.gate;
  const bool stochastic = ctx.stochastic;
  const bool need_dep = ctx.need_dep;
  const bool need_round = ctx.need_round;
  const bool can_park = ctx.can_park;
  const double p_pot_inf = ctx.p_pot_inf;
  const double p_dep_inf = ctx.p_dep_inf;
  const double g_floor = ctx.g_floor;
  const TimeMs dt = ctx.dt;
  const std::size_t n_events = events.size();
  std::uint64_t napp = 0;
  if (hist.empty()) {
    // Silent channel: every gap is ∞.
    if (can_park && g == g_floor) return g;  // whole chain no-op
    if (!stochastic) {
      // Deterministic rule: ∞ exceeds the causal window, depress every
      // event; once the floor absorbs the synapse the tail is a no-op.
      for (std::size_t e = from; e < n_events; ++e) {
        const std::uint64_t cl = events[e].counter_base + pre * kDraws;
        const double ur = need_round ? rng.uniform(cl + 2) : 0.0;
        g = updater.update_at_post_spike(g, kInf, 0.0, 0.0, ur);
        ++napp;
        if (can_park && g == g_floor) break;
      }
    } else if (p_pot_inf == 0.0) {
      // Potentiation draws are compared against +0 and can never pass, so
      // their generation is skipped and 0.0 passed in their place —
      // bitwise-identical by the gated contract. The synapse only changes
      // when its depression draw fires, so the updater call is skipped
      // otherwise and the rounding draw fetched lazily.
      if (need_dep) {
        double udbuf[kChunk];
        bool parked = false;
        for (std::size_t e = from; e < n_events && !parked;) {
          const std::size_t m = std::min(kChunk, n_events - e);
          const bool bulk = counter_stride != 0 && m >= kBulkMin;
          if (bulk)
            rng.uniform_many(events[e].counter_base + pre * kDraws + 1,
                             counter_stride, std::span<double>(udbuf, m));
          for (std::size_t i = 0; i < m; ++i) {
            const std::uint64_t cl = events[e + i].counter_base + pre * kDraws;
            const double ud = bulk ? udbuf[i] : rng.uniform(cl + 1);
            if (!(ud < p_dep_inf)) continue;
            const double ur = need_round ? rng.uniform(cl + 2) : 0.0;
            g = updater.update_at_post_spike_gated(g, p_pot_inf, p_dep_inf,
                                                   0.0, ud, ur);
            ++napp;
            if (can_park && g == g_floor) {
              parked = true;
              break;
            }
          }
          e += m;
        }
      }
      // No potentiation and no stale depression: the chain is inert.
    } else {
      for (std::size_t e = from; e < n_events; ++e) {
        const std::uint64_t cl = events[e].counter_base + pre * kDraws;
        const double up = rng.uniform(cl + 0);
        const double ud = need_dep ? rng.uniform(cl + 1) : 0.0;
        const double ur = need_round ? rng.uniform(cl + 2) : 0.0;
        g = updater.update_at_post_spike_gated(g, p_pot_inf, p_dep_inf, up,
                                               ud, ur);
        ++napp;
      }
    }
    if (applied) *applied += napp;
    return g;
  }
  // Channel fired this presentation: walk the chain with a history cursor
  // (index of the first history step beyond the current event's step).
  // Events ascend in step, so one upper_bound seeds the cursor and linear
  // advances keep it current.
  if (from >= n_events) return g;
  const std::uint32_t* const hist_data = hist.data();
  const std::uint32_t hist_size = static_cast<std::uint32_t>(hist.size());
  std::uint32_t hp = static_cast<std::uint32_t>(
      std::upper_bound(hist_data, hist_data + hist_size, events[from].step) -
      hist_data);
  if (!stochastic) {
    for (std::size_t e = from; e < n_events; ++e) {
      const PendingPostEvent& ev = events[e];
      while (hp < hist_size && hist_data[hp] <= ev.step) ++hp;
      const double gap =
          hp == 0
              ? kInf
              : ev.t_post - static_cast<TimeMs>(hist_data[hp - 1] + 1u) * dt;
      const std::uint64_t cl = ev.counter_base + pre * kDraws;
      const double ur = need_round ? rng.uniform(cl + 2) : 0.0;
      g = updater.update_at_post_spike(g, gap, 0.0, 0.0, ur);
      ++napp;
    }
    if (applied) *applied += napp;
    return g;
  }
  const StdpUpdaterConfig& cfg = updater.config();
  double upbuf[kChunk];
  double udbuf[kChunk];
  for (std::size_t e = from; e < n_events;) {
    const std::size_t m = std::min(kChunk, n_events - e);
    // Long chunks bulk-generate both gate slots (p_pot(∞) = +0 means the
    // ∞-gap comparison is decided regardless of the drawn value, so
    // generating it is harmless); short chunks keep the scalar path's lazy
    // per-event draws, which elide the potentiation slot entirely for
    // ∞-gap events when potentiation is dead.
    const bool bulk = counter_stride != 0 && m >= kBulkMin;
    if (bulk) {
      const std::uint64_t cl0 = events[e].counter_base + pre * kDraws;
      rng.uniform_many(cl0 + 0, counter_stride, std::span<double>(upbuf, m));
      if (need_dep)
        rng.uniform_many(cl0 + 1, counter_stride,
                         std::span<double>(udbuf, m));
    }
    for (std::size_t i = 0; i < m; ++i) {
      const PendingPostEvent& ev = events[e + i];
      while (hp < hist_size && hist_data[hp] <= ev.step) ++hp;
      // Reconstructed pre-spike time: the eager path read
      // last_pre_spike[pre] = (s'+1)·dt for the latest pre spike s' ≤ the
      // post step (same-step pre spikes included — the dense loop refreshes
      // timers before post-spike processing). Identical arithmetic,
      // identical doubles.
      const double gap =
          hp == 0
              ? kInf
              : ev.t_post - static_cast<TimeMs>(hist_data[hp - 1] + 1u) * dt;
      const std::uint64_t cl = ev.counter_base + pre * kDraws;
      if (gap == kInf) {
        // Same p_pot(∞) = +0 shortcuts as the silent-channel chain above.
        // The gated compare against +0 ignores the drawn u_pot, so a
        // bulk-generated value substitutes for the scalar path's 0.0
        // placeholder bit-for-bit.
        const bool pot_dead = p_pot_inf == 0.0;
        const double ud =
            need_dep ? (bulk ? udbuf[i] : rng.uniform(cl + 1)) : 0.0;
        if (pot_dead && !(need_dep && ud < p_dep_inf)) continue;
        const double up =
            bulk ? upbuf[i] : (pot_dead ? 0.0 : rng.uniform(cl + 0));
        const double ur = need_round ? rng.uniform(cl + 2) : 0.0;
        g = updater.update_at_post_spike_gated(g, p_pot_inf, p_dep_inf, up,
                                               ud, ur);
        ++napp;
      } else {
        const double up = bulk ? upbuf[i] : rng.uniform(cl + 0);
        const double ud =
            need_dep ? (bulk ? udbuf[i] : rng.uniform(cl + 1)) : 0.0;
        const double ur = need_round ? rng.uniform(cl + 2) : 0.0;
        g = flush_gated_memo(updater, gate, cfg, g, gap, up, ud, ur);
        ++napp;
      }
    }
    e += m;
  }
  if (applied) *applied += napp;
  return g;
}

namespace {

void stdp_flush_cpu(Engine& engine, const StdpFlushArgs& a) {
  const auto row = a.row;
  const auto progress = a.progress;
  const auto events = a.events;
  if (events.empty()) return;
  const CounterRng& rng = *a.rng;
  const SpikeEventList& history = *a.history;
  const StdpChainContext ctx = make_stdp_chain_context(*a.updater, a.dt);
  const std::uint64_t stride = stdp_chain_counter_stride(events);
  constexpr std::size_t kBlock = 64;

  const std::size_t n = row.size();
  const std::size_t n_events = events.size();
  const std::size_t blocks = (n + kBlock - 1) / kBlock;

  // One logical thread per kBlock synapses, iterated LANE-major: each lane
  // walks its whole event chain with its conductance in a register, its
  // history span built once, and its progress mark read once — the
  // event-major layout paid those per (event, lane). The chain walk itself
  // (gap reconstruction, draw-slot elision, parked-chain skip) lives in
  // stdp_apply_chain, shared with the host-side mid-presentation catch-up.
  // Blocks touch disjoint synapses, so partitioned dispatch is
  // deterministic; applied counts are integer sums, so the atomic total is
  // too.
  engine.launch("stdp.flush", blocks, [&](std::size_t b) {
    const std::size_t begin = b * kBlock;
    const std::size_t end = std::min(begin + kBlock, n);
    std::uint64_t napp = 0;
    for (std::size_t pre = begin; pre < end; ++pre) {
      // progress[] lets synapses that were caught up when their pre fired
      // mid-presentation skip the already-applied prefix.
      const std::size_t done = progress[pre];
      progress[pre] = static_cast<std::uint32_t>(n_events);
      if (done >= n_events) continue;
      row[pre] = stdp_apply_chain(
          ctx, row[pre], static_cast<ChannelIndex>(pre), events, done,
          history.channel_history(static_cast<ChannelIndex>(pre)), rng,
          stride, &napp);
    }
    if (a.applied && napp != 0)
      a.applied->fetch_add(napp, std::memory_order_relaxed);
  });
}

/// Spatially-hoisted conv accumulate: one logical thread per OUTPUT POSITION
/// (not per unit). The window-membership test and tap offset of each active
/// input are computed once and reused across the whole filter bank (the
/// reference gather redoes them per filter), with the bank processed in
/// fixed-size register blocks. Per (filter, position) unit the taps still
/// accumulate in ascending active order — the same association as the
/// reference kernel, so results are bitwise equal (tests/test_backend.cpp,
/// tests/test_prop_differential.cpp).
void conv_accumulate_hoisted(Engine& engine, const ConvAccumulateArgs& a) {
  const auto currents = a.currents;
  const auto active = a.active_pre;
  const auto filters = a.filters;
  const std::size_t kernel = a.kernel;
  const std::size_t stride = a.stride;
  const std::size_t in_w = a.in_width;
  const std::size_t in_plane = a.in_width * a.in_height;
  const std::size_t out_plane = a.out_width * a.out_height;
  const std::size_t taps = a.in_channels * kernel * kernel;
  const std::size_t filter_count = a.filter_count;
  const double amplitude = a.amplitude;
  const double decay = a.decay_factor;

  constexpr std::size_t kFilterBlock = 16;  // accumulators held on the stack

  engine.launch("graph.conv", out_plane, [&](std::size_t s) {
    const std::size_t y0 = (s / a.out_width) * stride;
    const std::size_t x0 = (s % a.out_width) * stride;
    // Hoisted geometry: tap index of every in-window active input, computed
    // once for all filters (the reference gather redoes this per filter).
    // Stack slots, no heap; overflow falls back to the reference gather.
    std::size_t hit_tap[64];
    std::size_t hits = 0;
    bool overflow = false;
    for (const ChannelIndex p : active) {
      const std::size_t c = p / in_plane;
      const std::size_t q = p % in_plane;
      const std::size_t y = q / in_w;
      const std::size_t x = q % in_w;
      if (y < y0 || y >= y0 + kernel || x < x0 || x >= x0 + kernel) continue;
      if (hits == 64) {
        overflow = true;
        break;
      }
      hit_tap[hits++] = (c * kernel + (y - y0)) * kernel + (x - x0);
    }

    if (overflow) {
      // Slow path (more than 64 in-window active inputs in one step): the
      // reference per-filter gather, same association.
      for (std::size_t f = 0; f < filter_count; ++f) {
        const double* w = filters.data() + f * taps;
        double acc = 0.0;
        for (const ChannelIndex p : active) {
          const std::size_t c = p / in_plane;
          const std::size_t q = p % in_plane;
          const std::size_t y = q / in_w;
          const std::size_t x = q % in_w;
          if (y < y0 || y >= y0 + kernel || x < x0 || x >= x0 + kernel) {
            continue;
          }
          acc += w[(c * kernel + (y - y0)) * kernel + (x - x0)];
        }
        const std::size_t u = f * out_plane + s;
        currents[u] = currents[u] * decay + amplitude * acc;
      }
      return;
    }

    for (std::size_t f0 = 0; f0 < filter_count; f0 += kFilterBlock) {
      const std::size_t fn = std::min(kFilterBlock, filter_count - f0);
      double acc[kFilterBlock] = {};
      for (std::size_t h = 0; h < hits; ++h) {
        const std::size_t tap = hit_tap[h];
        const double* w = filters.data() + f0 * taps + tap;
        for (std::size_t j = 0; j < fn; ++j) acc[j] += w[j * taps];
      }
      for (std::size_t j = 0; j < fn; ++j) {
        const std::size_t u = (f0 + j) * out_plane + s;
        currents[u] = currents[u] * decay + amplitude * acc[j];
      }
    }
  });
}

}  // namespace

const KernelTable& cpu_sparse_kernel_table() {
  static const KernelTable table = [] {
    KernelTable t = cpu_kernel_table();  // dense slots: reference kernels
    // The layer graph feeds conv_accumulate / pool_forward per-step SLICES
    // of the presentation's SpikeEventList on this backend (inter-layer
    // propagation is event-driven, O(spikes) instead of O(channels×steps)).
    // The hoisted conv keeps the reference per-unit tap association, so
    // conv output is bitwise-equal across backends.
    t.conv_accumulate = conv_accumulate_hoisted;
    t.poisson_encode_events = poisson_encode_events_cpu;
    t.regular_encode_events = regular_encode_events_cpu;
    t.sparse_accumulate = sparse_accumulate_cpu;
    t.stdp_flush = stdp_flush_cpu;
    return t;
  }();
  return table;
}

}  // namespace pss
