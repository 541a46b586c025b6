// Cross-module property and invariant tests: WTA exclusivity, update
// monotonicity, encoder statistics, end-to-end determinism — the invariants
// the paper's mechanisms rest on, checked over parameter sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "pss/backend/backend.hpp"
#include "pss/backend/kernels.hpp"
#include "pss/backend/state_pool.hpp"
#include "pss/common/log.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/encoding/poisson_encoder.hpp"
#include "pss/encoding/regular_encoder.hpp"
#include "pss/engine/spike_events.hpp"
#include "pss/experiment/experiment.hpp"
#include "pss/stats/summary.hpp"
#include "pss/synapse/stdp_updater.hpp"

namespace pss {
namespace {

// ---------------------------------------------------------------------------
// WTA exclusivity: after any spike, no *other* neuron may spike within the
// inhibition window (learning mode).
TEST(WtaInvariant, NoOtherSpikesInsideInhibitionWindow) {
  WtaConfig cfg =
      WtaConfig::from_table1(LearningOption::kFloat32, StdpKind::kStochastic, 25);
  cfg.input_channels = 64;
  cfg.t_inh_ms = 15.0;
  cfg.reference_total_rate_hz = 0.0;
  cfg.seed = 13;
  WtaNetwork net(cfg);
  std::vector<double> rates(64, 30.0);

  const auto r = net.present(rates, 600.0, true, /*record_spikes=*/true);
  ASSERT_GT(r.spike_events.size(), 3u);
  for (std::size_t i = 0; i < r.spike_events.size(); ++i) {
    for (std::size_t k = i + 1; k < r.spike_events.size(); ++k) {
      const auto& [t1, n1] = r.spike_events[i];
      const auto& [t2, n2] = r.spike_events[k];
      if (t2 - t1 > cfg.t_inh_ms) break;
      if (t2 == t1) continue;  // simultaneous threshold crossings allowed
      EXPECT_EQ(n1, n2) << "neuron " << n2 << " fired " << (t2 - t1)
                        << " ms after " << n1
                        << "'s spike, inside the inhibition window";
    }
  }
}

// ---------------------------------------------------------------------------
// Updater monotonicity per event type, over every Table I row.
class UpdaterMonotonicity : public ::testing::TestWithParam<LearningOption> {};

TEST_P(UpdaterMonotonicity, PotentiationNeverDecreasesConductance) {
  const Table1Row& row = table1_row(GetParam());
  StdpUpdaterConfig cfg;
  cfg.kind = StdpKind::kDeterministic;  // always-update inside the window
  cfg.magnitude = row.magnitude.value_or(
      StdpMagnitudeParams{0.01, 3.0, 0.005, 3.0, 1.0, 0.0});
  cfg.gate = row.gate;
  cfg.format = row.format;
  cfg.rounding = RoundingMode::kStochastic;
  const StdpUpdater u(cfg);
  SequentialRng rng(7);
  for (int i = 0; i < 500; ++i) {
    const double g = rng.uniform(0.0, u.effective_g_max());
    // gap inside the window -> potentiation branch.
    const double g2 = u.update_at_post_spike(g, 1.0, rng.uniform(),
                                             rng.uniform(), rng.uniform());
    EXPECT_GE(g2 + 1e-12, g);
    // gap far outside -> depression branch.
    const double g3 = u.update_at_post_spike(g, 1e6, rng.uniform(),
                                             rng.uniform(), rng.uniform());
    EXPECT_LE(g3 - 1e-12, g);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRows, UpdaterMonotonicity,
                         ::testing::Values(LearningOption::k2Bit,
                                           LearningOption::k4Bit,
                                           LearningOption::k8Bit,
                                           LearningOption::k16Bit,
                                           LearningOption::kFloat32));

// ---------------------------------------------------------------------------
// Stochastic gate empirical frequencies match eq. 6 within tolerance.
TEST(StochasticGateStatistics, EmpiricalPotentiationRateMatchesEq6) {
  StdpUpdaterConfig cfg;
  cfg.kind = StdpKind::kStochastic;
  cfg.gate = StochasticGateParams{0.6, 25.0, 0.0, 10.0};  // no depression
  const StdpUpdater u(cfg);
  CounterRng rng(99, 1);
  for (const double gap : {0.0, 10.0, 25.0, 60.0}) {
    int applied = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t c = static_cast<std::uint64_t>(i) * 3;
      if (u.update_at_post_spike(0.5, gap, rng.uniform(c), rng.uniform(c + 1),
                                 rng.uniform(c + 2)) > 0.5) {
        ++applied;
      }
    }
    const double expected = 0.6 * std::exp(-gap / 25.0);
    EXPECT_NEAR(static_cast<double>(applied) / n, expected, 0.01)
        << "gap " << gap;
  }
}

// ---------------------------------------------------------------------------
// Poisson encoder: successive steps are uncorrelated (the memorylessness the
// stochastic STDP analysis assumes).
TEST(EncoderStatistics, StepsAreUncorrelated) {
  PoissonEncoder enc(1, 21);
  enc.set_uniform_rate(300.0);  // p = 0.3 per ms
  const int n = 20000;
  int s_prev = enc.spikes_at(0, 0, 1.0) ? 1 : 0;
  int both = 0;
  int first = 0;
  for (int s = 1; s < n; ++s) {
    const int cur = enc.spikes_at(0, static_cast<StepIndex>(s), 1.0) ? 1 : 0;
    first += s_prev;
    both += s_prev & cur;
    s_prev = cur;
  }
  // P(spike | spike at previous step) should equal the marginal p = 0.3.
  const double conditional = static_cast<double>(both) / first;
  EXPECT_NEAR(conditional, 0.3, 0.02);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: the complete experiment (data generation,
// training, labelling, evaluation) is a pure function of the seeds.
TEST(EndToEndDeterminism, IdenticalRunsProduceIdenticalAccuracy) {
  set_log_level(LogLevel::kWarn);
  auto run_once = [] {
    const LabeledDataset data = make_synthetic_digits(
        {.train_count = 50, .test_count = 60, .seed = 17});
    ExperimentSpec spec;
    spec.neuron_count = 25;
    spec.train_images = 50;
    spec.label_images = 30;
    spec.eval_images = 30;
    spec.t_readout_ms = 150.0;
    spec.seed = 5;
    return run_learning_experiment(spec, data);
  };
  const ExperimentResult a = run_once();
  const ExperimentResult b = run_once();
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.labelled_neurons, b.labelled_neurons);
  EXPECT_DOUBLE_EQ(a.conductance_contrast, b.conductance_contrast);
  EXPECT_DOUBLE_EQ(a.bottom_fraction, b.bottom_fraction);
}

TEST(EndToEndDeterminism, DifferentSeedsProduceDifferentNetworks) {
  set_log_level(LogLevel::kWarn);
  const LabeledDataset data =
      make_synthetic_digits({.train_count = 30, .test_count = 30, .seed = 17});
  auto conductance_for_seed = [&](std::uint64_t seed) {
    ExperimentSpec spec;
    spec.neuron_count = 15;
    spec.train_images = 20;
    spec.seed = seed;
    return train_network(spec, data).block(0).conductance().to_vector();
  };
  EXPECT_NE(conductance_for_seed(1), conductance_for_seed(2));
}

// ---------------------------------------------------------------------------
// Learning monotone-ish in data: more training images should not make the
// final map contrast collapse (regression guard for the depression-runaway
// failure mode found during calibration).
TEST(LearningStability, ContrastSurvivesLongerTraining) {
  set_log_level(LogLevel::kWarn);
  const LabeledDataset data = make_synthetic_digits(
      {.train_count = 160, .test_count = 30, .seed = 23});
  auto contrast_after = [&](std::size_t images) {
    ExperimentSpec spec;
    spec.neuron_count = 20;
    spec.train_images = images;
    spec.seed = 9;
    const graph::NetworkGraph trained = train_network(spec, data);
    const WtaNetwork& net = trained.block(0);
    double total = 0.0;
    for (NeuronIndex j = 0; j < net.neuron_count(); ++j) {
      total += quartile_contrast(net.conductance().row(j));
    }
    return total / static_cast<double>(net.neuron_count());
  };
  const double short_run = contrast_after(40);
  const double long_run = contrast_after(160);
  EXPECT_GT(long_run, 0.5 * short_run)
      << "contrast must not collapse with continued training";
  EXPECT_GT(long_run, 0.05);
}

// ---------------------------------------------------------------------------
// The Table II mechanism, pinned end to end: at Q0.2 with truncation the
// deterministic float ΔG (≈0.01-0.05 after learning-rate scaling) is below
// one 0.25 quantum, so training must leave the conductance matrix bitwise
// unchanged — chance accuracy is structural, not statistical. The stochastic
// rule applies full quanta through its eq. 6/7 gates and must keep learning
// under the identical configuration.
TEST(TableTwoMechanism, DeterministicTruncationFreezesLearning) {
  set_log_level(LogLevel::kWarn);
  const LabeledDataset data =
      make_synthetic_digits({.train_count = 12, .test_count = 4, .seed = 41});
  for (const StdpKind kind :
       {StdpKind::kDeterministic, StdpKind::kStochastic}) {
    WtaConfig cfg = WtaConfig::from_table1(LearningOption::k2Bit, kind, 20);
    cfg.stdp.rounding = RoundingMode::kTruncate;
    cfg.seed = 6;
    graph::NetworkGraph graph(graph::single_wta_graph(cfg));
    const WtaNetwork& net = graph.block(0);
    const auto before = net.conductance().to_vector();
    graph::GraphTrainer trainer(graph, graph::GraphTrainerConfig::from_table1(
                                           LearningOption::k2Bit));
    trainer.train(data.train);
    ASSERT_GT(net.total_spikes(), 0u) << "network must be active";
    if (kind == StdpKind::kDeterministic) {
      EXPECT_EQ(net.conductance().to_vector(), before)
          << "truncated deterministic updates must all round to zero";
    } else {
      EXPECT_NE(net.conductance().to_vector(), before)
          << "stochastic full-quantum updates must keep learning";
    }
  }
}

// ---------------------------------------------------------------------------
// The LIF population cannot exceed one spike per step per neuron: firing
// rate is bounded by 1000/dt Hz regardless of drive.
TEST(RateBounds, LifRateBoundedByStepRate) {
  LifPopulation pop(1, paper_lif_parameters());
  std::vector<double> current(1, 1e9);
  std::vector<NeuronIndex> spikes;
  int count = 0;
  for (int t = 1; t <= 1000; ++t) {
    pop.step(current, t, 1.0, spikes);
    count += static_cast<int>(spikes.size());
  }
  EXPECT_LE(count, 1000);
  EXPECT_GT(count, 400) << "astronomical drive should fire nearly every step";
}

// ---------------------------------------------------------------------------
// Classifier output domain over a random network and arbitrary images.
TEST(ClassifierDomain, PredictionsAlwaysInRange) {
  WtaConfig cfg =
      WtaConfig::from_table1(LearningOption::kFloat32, StdpKind::kStochastic, 20);
  cfg.seed = 31;
  graph::NetworkGraph net(graph::single_wta_graph(cfg));
  std::vector<int> labels(20);
  for (std::size_t j = 0; j < 20; ++j) {
    labels[j] = static_cast<int>(j % 10);
  }
  net.set_neuron_labels(labels);
  const PixelFrequencyMap map(1.0, 22.0);
  std::vector<double> rates;
  SequentialRng rng(3);
  for (int i = 0; i < 5; ++i) {
    const Image img = render_digit(static_cast<Label>(i * 2), 0.05, rng);
    map.frequencies(img.span(), rates);
    const graph::GraphResult r = net.present(rates, 100.0, -1);
    const int p = graph::graph_predict(r.spike_counts, net.neuron_labels(),
                                       net.class_count());
    EXPECT_GE(p, -1);
    EXPECT_LT(p, 10);
  }
}

// ---------------------------------------------------------------------------
// Sparse event path (cpu_sparse). Lazy STDP is a pure *scheduling* change:
// deferring the per-synapse updates (catch-up on pre spike + presentation-end
// flush) must leave the final conductance matrix bitwise-identical to the
// eager per-post-spike row sweep on the same backend — the contract
// documented at WtaConfig::lazy_stdp.
TEST(SparseLazyStdp, DeferredFlushBitwiseMatchesEager) {
  set_log_level(LogLevel::kWarn);
  auto run = [](bool lazy) {
    WtaConfig cfg = WtaConfig::from_table1(LearningOption::kFloat32,
                                           StdpKind::kStochastic, 20);
    cfg.backend = "cpu_sparse";
    cfg.lazy_stdp = lazy;
    cfg.seed = 7;
    WtaNetwork net(cfg);
    const PixelFrequencyMap freq(1.0, 22.0);
    SequentialRng rng(3);
    std::vector<double> rates;
    for (int i = 0; i < 10; ++i) {
      const Image img = render_digit(static_cast<Label>(i % 5), 0.05, rng);
      freq.frequencies(img.pixels, rates);
      net.present(rates, 150.0, /*learn=*/true);
    }
    return net.conductance().to_vector();
  };
  const auto lazy = run(true);
  const auto eager = run(false);
  ASSERT_EQ(lazy.size(), eager.size());
  for (std::size_t i = 0; i < lazy.size(); ++i) {
    ASSERT_EQ(lazy[i], eager[i]) << "synapse " << i << " diverged";
  }
}

// The deferred updates must respect the same clamp domain as the eager path:
// every conductance inside [g_min, effective_g_max] after training, for both
// the fp32 and a quantized Table I row (the quantized row exercises the
// full-quantum flush branch).
TEST(SparseLazyStdp, ConductanceStaysInBounds) {
  set_log_level(LogLevel::kWarn);
  for (const LearningOption option :
       {LearningOption::kFloat32, LearningOption::k2Bit}) {
    WtaConfig cfg =
        WtaConfig::from_table1(option, StdpKind::kStochastic, 15);
    cfg.backend = "cpu_sparse";
    cfg.seed = 11;
    WtaNetwork net(cfg);
    const StdpUpdater updater(cfg.stdp);
    const PixelFrequencyMap freq(1.0, 22.0);
    SequentialRng rng(5);
    std::vector<double> rates;
    for (int i = 0; i < 8; ++i) {
      const Image img = render_digit(static_cast<Label>(i % 4), 0.05, rng);
      freq.frequencies(img.pixels, rates);
      net.present(rates, 150.0, /*learn=*/true);
    }
    ASSERT_GT(net.total_spikes(), 0u) << "network must be active";
    for (const double g : net.conductance().to_vector()) {
      ASSERT_GE(g, cfg.stdp.magnitude.g_min);
      ASSERT_LE(g, updater.effective_g_max());
    }
  }
}

// The regular encoder's event list is documented bitwise-identical to its
// per-step dense queries — phase arithmetic on both paths, same rounding.
TEST(SparseEvents, RegularEventListMatchesDenseStepForStep) {
  auto backend = make_backend("cpu_sparse");
  StatePool pool(backend.get(), StatePool::Geometry{1, 48});
  RegularEncoder enc(pool, /*seed=*/21, /*randomize_phase=*/true);
  std::vector<double> rates(48);
  for (std::size_t c = 0; c < rates.size(); ++c) {
    rates[c] = static_cast<double>(c) * 2.5;  // includes silent channel 0
  }
  enc.set_rates(rates);
  ASSERT_TRUE(enc.supports_events());

  constexpr StepIndex kSteps = 400;
  constexpr TimeMs kDt = 1.0;
  SpikeEventList events;
  enc.build_events(kSteps, kDt, events);
  events.index_by_step(kSteps);

  std::vector<ChannelIndex> dense;
  for (StepIndex s = 0; s < kSteps; ++s) {
    enc.active_channels(s, kDt, dense);
    std::sort(dense.begin(), dense.end());
    const auto sparse = events.at_step(s);
    std::vector<ChannelIndex> sparse_sorted(sparse.begin(), sparse.end());
    std::sort(sparse_sorted.begin(), sparse_sorted.end());
    ASSERT_EQ(sparse_sorted, dense) << "step " << s;
  }
}

// The Poisson event list uses geometric inter-spike sampling with
// presentation-forked counter draws: rebuilding the same presentation must
// reproduce the list exactly, and advancing the presentation index must
// change it (fresh fork, fresh trains).
TEST(SparseEvents, PoissonEventListIsDeterministicPerPresentation) {
  auto backend = make_backend("cpu_sparse");
  StatePool pool(backend.get(), StatePool::Geometry{1, 32});
  PoissonEncoder enc(pool, /*seed=*/9);
  enc.set_uniform_rate(40.0);
  ASSERT_TRUE(enc.supports_events());

  constexpr StepIndex kSteps = 300;
  constexpr TimeMs kDt = 1.0;
  auto history_snapshot = [&](SpikeEventList& ev) {
    std::vector<std::vector<std::uint32_t>> all;
    for (ChannelIndex c = 0; c < 32; ++c) {
      const auto h = ev.channel_history(c);
      all.emplace_back(h.begin(), h.end());
    }
    return all;
  };

  enc.set_presentation(4);
  SpikeEventList first;
  enc.build_events(kSteps, kDt, first);
  ASSERT_GT(first.total(), 0u);
  const auto first_hist = history_snapshot(first);

  enc.set_presentation(4);
  SpikeEventList again;
  enc.build_events(kSteps, kDt, again);
  EXPECT_EQ(first_hist, history_snapshot(again))
      << "same presentation must replay identical trains";

  enc.set_presentation(5);
  SpikeEventList next;
  enc.build_events(kSteps, kDt, next);
  EXPECT_NE(first_hist, history_snapshot(next))
      << "a new presentation must fork fresh trains";
}

// ---------------------------------------------------------------------------
// Layer-graph kernel properties (src/pss/graph/): pool semantics over random
// flag planes, and conv-accumulate equivariance under filter permutation.

TEST(GraphInvariant, PoolFlagSetIffWindowHasSpike) {
  SequentialRng rng(99);
  Engine engine(3);
  auto backend = make_backend("cpu");
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t channels = 1 + rng.below(3);
    const std::size_t in_w = 3 + rng.below(9);
    const std::size_t in_h = 3 + rng.below(9);
    const std::size_t window = 2 + rng.below(2);
    const std::size_t out_w = (in_w + window - 1) / window;
    const std::size_t out_h = (in_h + window - 1) / window;
    const std::size_t steps = 1 + rng.below(4);

    std::vector<std::uint8_t> spiked(channels * in_h * in_w);
    for (auto& s : spiked) s = rng.uniform() < 0.3 ? 1 : 0;
    std::vector<std::uint8_t> pooled(channels * out_h * out_w, 0);
    std::vector<std::uint32_t> counts(pooled.size(), 0);

    PoolForwardArgs args;
    args.spiked = spiked;
    args.channels = channels;
    args.in_width = in_w;
    args.in_height = in_h;
    args.window = window;
    args.out_width = out_w;
    args.out_height = out_h;
    args.pooled = pooled;
    args.pooled_counts = counts;
    for (std::size_t s = 0; s < steps; ++s) {
      backend->kernels().pool_forward(engine, args);
    }

    for (std::size_t c = 0; c < channels; ++c) {
      for (std::size_t py = 0; py < out_h; ++py) {
        for (std::size_t px = 0; px < out_w; ++px) {
          bool any = false;
          for (std::size_t y = py * window;
               y < std::min(in_h, (py + 1) * window); ++y) {
            for (std::size_t x = px * window;
                 x < std::min(in_w, (px + 1) * window); ++x) {
              any = any || spiked[(c * in_h + y) * in_w + x] != 0;
            }
          }
          const std::size_t u = (c * out_h + py) * out_w + px;
          ASSERT_EQ(pooled[u] != 0, any)
              << "trial " << trial << " unit " << u;
          // Counts accumulate once per step the window fired, and never
          // exceed the step count.
          ASSERT_EQ(counts[u], any ? steps : 0u)
              << "trial " << trial << " unit " << u;
        }
      }
    }
  }
}

TEST(GraphInvariant, ConvAccumulateCommutesWithFilterPermutation) {
  // Permuting the filter bank permutes the output planes and nothing else:
  // currents(perm(F))[p(f), y, x] == currents(F)[f, y, x] bitwise, because
  // each output unit reads only its own filter's taps.
  constexpr std::size_t kFilters = 4, kChannels = 2, kKernel = 3, kStride = 1;
  constexpr std::size_t kInW = 9, kInH = 8;
  constexpr std::size_t kOutW = (kInW - kKernel) / kStride + 1;
  constexpr std::size_t kOutH = (kInH - kKernel) / kStride + 1;
  constexpr std::size_t kPlane = kChannels * kKernel * kKernel;

  std::vector<double> filters(kFilters * kPlane);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    filters[i] = static_cast<double>((i * 41 % 19)) / 16.0 - 0.5;
  }
  std::vector<ChannelIndex> active;
  for (std::size_t p = 0; p < kChannels * kInH * kInW; p += 5) {
    active.push_back(static_cast<ChannelIndex>(p));
  }
  const std::size_t perm[kFilters] = {2, 0, 3, 1};
  std::vector<double> permuted(filters.size());
  for (std::size_t f = 0; f < kFilters; ++f) {
    std::copy_n(filters.begin() + static_cast<std::ptrdiff_t>(f * kPlane),
                kPlane,
                permuted.begin() + static_cast<std::ptrdiff_t>(perm[f] * kPlane));
  }

  Engine engine(2);
  auto backend = make_backend("cpu");
  auto run = [&](std::span<const double> bank) {
    std::vector<double> currents(kFilters * kOutH * kOutW, 0.0);
    ConvAccumulateArgs args;
    args.filters = bank;
    args.filter_count = kFilters;
    args.in_channels = kChannels;
    args.kernel = kKernel;
    args.stride = kStride;
    args.in_width = kInW;
    args.in_height = kInH;
    args.out_width = kOutW;
    args.out_height = kOutH;
    args.active_pre = active;
    args.amplitude = 1.5;
    args.decay_factor = 0.0;
    args.currents = currents;
    backend->kernels().conv_accumulate(engine, args);
    return currents;
  };

  const std::vector<double> base = run(filters);
  const std::vector<double> shuffled = run(permuted);
  for (std::size_t f = 0; f < kFilters; ++f) {
    for (std::size_t u = 0; u < kOutH * kOutW; ++u) {
      ASSERT_EQ(shuffled[perm[f] * kOutH * kOutW + u],
                base[f * kOutH * kOutW + u])
          << "filter " << f << " unit " << u;
    }
  }
}

}  // namespace
}  // namespace pss
