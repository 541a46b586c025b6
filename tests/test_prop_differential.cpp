// Randomized cross-backend differential runner: identical generated
// workloads driven through both registered backends (cpu / cpu_sparse) and
// across worker counts, asserting bitwise equality on every dense kernel —
// conv_accumulate, pool_forward, stdp_row, current_accumulate, inhibit_scan,
// regular_encode — plus network-level worker-count invariance per backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "pss/backend/backend.hpp"
#include "pss/backend/kernels.hpp"
#include "pss/network/wta_network.hpp"
#include "pss/prop/check.hpp"
#include "pss/prop/generators.hpp"

namespace pss {
namespace {

using prop::CheckResult;
using prop::Source;

const char* const kBackends[] = {"cpu", "cpu_sparse"};
const std::size_t kWorkerGrid[] = {1, 2, 3};

prop::CheckOptions options_with(std::uint32_t cases) {
  prop::CheckOptions options;
  options.cases = cases;
  return options;
}

void assert_bitwise(const std::vector<double>& reference,
                    const std::vector<double>& candidate, const char* what) {
  PSS_PROP_ASSERT(reference.size() == candidate.size(),
                  std::string(what) + ": size mismatch");
  PSS_PROP_ASSERT(std::memcmp(reference.data(), candidate.data(),
                              reference.size() * sizeof(double)) == 0,
                  std::string(what) + ": backends diverged bitwise");
}

/// Ascending random subset of [0, units), possibly empty.
std::vector<ChannelIndex> gen_active(Source& s, std::size_t units,
                                     double density) {
  std::vector<ChannelIndex> active;
  for (std::size_t u = 0; u < units; ++u) {
    if (s.boolean(density)) active.push_back(static_cast<ChannelIndex>(u));
  }
  return active;
}

// ---------------------------------------------------------------------------
// conv_accumulate: fixed tap-accumulation association on every backend —
// bitwise across the full backend × worker grid, with decay and stride.
// cpu_sparse's hoisted kernel has two branches the generator must reach:
// more than 16 filters spill into a second register block, and more than 64
// active inputs inside one window (kernel 7, 2 channels, dense activity)
// take the per-filter fallback. The property counts both and the test
// asserts that each was compared at least once.

/// Active inputs inside the window of output position (0, 0).
std::size_t first_window_hits(const std::vector<ChannelIndex>& active,
                              std::size_t in_h, std::size_t in_w,
                              std::size_t kernel) {
  std::size_t hits = 0;
  for (const ChannelIndex p : active) {
    const std::size_t q = p % (in_h * in_w);
    if (q / in_w < kernel && q % in_w < kernel) ++hits;
  }
  return hits;
}

TEST(PropDifferential, ConvAccumulateIsBitwiseAcrossBackendsAndWorkers) {
  std::size_t wide_bank_cases = 0;
  std::size_t dense_window_cases = 0;
  const CheckResult r = prop::check(
      "diff_conv_accumulate",
      [&](Source& s) {
        const std::size_t kernel = s.boolean(0.4) ? 7 : s.range(2, 6);
        const std::size_t stride = s.range(1, 2);
        const std::size_t in_h = kernel + s.bits(8);
        const std::size_t in_w = kernel + s.bits(8);
        const std::size_t in_channels = s.range(1, 2);
        const std::size_t filters = s.range(1, 20);
        const double density = s.boolean(0.4) ? 0.9 : s.real(0.05, 0.5);
        const std::size_t out_h = (in_h - kernel) / stride + 1;
        const std::size_t out_w = (in_w - kernel) / stride + 1;
        std::vector<double> taps(filters * in_channels * kernel * kernel);
        for (double& w : taps) w = s.real(-1.5, 1.5);
        const std::vector<ChannelIndex> active =
            gen_active(s, in_channels * in_h * in_w, density);
        const double amplitude = s.real(0.5, 4.0);
        const double decay = s.boolean(0.5) ? s.real(0.1, 0.95) : 0.0;
        std::vector<double> initial(filters * out_h * out_w);
        for (double& i : initial) i = s.real(-2.0, 2.0);
        if (filters > 16) ++wide_bank_cases;
        if (first_window_hits(active, in_h, in_w, kernel) > 64) {
          ++dense_window_cases;
        }

        std::vector<double> reference;
        for (const char* name : kBackends) {
          for (std::size_t workers : kWorkerGrid) {
            Engine engine(workers);
            auto backend = make_backend(name, &engine);
            std::vector<double> currents = initial;
            ConvAccumulateArgs args;
            args.filters = taps;
            args.filter_count = filters;
            args.in_channels = in_channels;
            args.kernel = kernel;
            args.stride = stride;
            args.in_width = in_w;
            args.in_height = in_h;
            args.out_width = out_w;
            args.out_height = out_h;
            args.active_pre = active;
            args.amplitude = amplitude;
            args.decay_factor = decay;
            args.currents = currents;
            backend->kernels().conv_accumulate(engine, args);
            if (reference.empty()) {
              reference = currents;
            } else {
              assert_bitwise(reference, currents, "conv_accumulate");
            }
          }
        }
      },
      options_with(60));
  EXPECT_TRUE(r.ok()) << r.report();
  EXPECT_GT(wide_bank_cases, 0u) << "no case with more than 16 filters";
  EXPECT_GT(dense_window_cases, 0u)
      << "no case with more than 64 active inputs in one window";
}

// ---------------------------------------------------------------------------
// pool_forward: pure flag/integer work — bit-identical pooled planes and
// fired-counts everywhere, including clipped edge blocks.

TEST(PropDifferential, PoolForwardIsBitwiseAcrossBackendsAndWorkers) {
  const CheckResult r = prop::check(
      "diff_pool_forward",
      [](Source& s) {
        const std::size_t window = s.range(2, 3);
        const std::size_t in_h = s.range(2, 11);  // often not window-aligned
        const std::size_t in_w = s.range(2, 11);
        const std::size_t channels = s.range(1, 3);
        const std::size_t out_h = (in_h + window - 1) / window;
        const std::size_t out_w = (in_w + window - 1) / window;
        std::vector<std::uint8_t> spiked(channels * in_h * in_w);
        for (auto& f : spiked) f = s.boolean(0.3) ? 1 : 0;
        std::vector<std::uint32_t> initial_counts(channels * out_h * out_w);
        for (auto& c : initial_counts) c = static_cast<uint32_t>(s.bits(9));

        std::vector<std::uint8_t> ref_pooled;
        std::vector<std::uint32_t> ref_counts;
        for (const char* name : kBackends) {
          for (std::size_t workers : kWorkerGrid) {
            Engine engine(workers);
            auto backend = make_backend(name, &engine);
            std::vector<std::uint8_t> pooled(channels * out_h * out_w);
            std::vector<std::uint32_t> counts = initial_counts;
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
            backend->kernels().pool_forward(engine, args);
            if (ref_pooled.empty() && ref_counts.empty()) {
              ref_pooled = pooled;
              ref_counts = counts;
            } else {
              PSS_PROP_ASSERT(pooled == ref_pooled,
                              "pool_forward flags diverged");
              PSS_PROP_ASSERT(counts == ref_counts,
                              "pool_forward counts diverged");
            }
          }
        }
      },
      options_with(40));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// stdp_row: counter-indexed draws make the row update schedule-independent —
// bitwise across backends and worker counts, for generated
// rules/precisions/roundings.

TEST(PropDifferential, StdpRowIsBitwiseAcrossBackendsAndWorkers) {
  const CheckResult r = prop::check(
      "diff_stdp_row",
      [](Source& s) {
        const StdpUpdaterConfig config = prop::gen_stdp_config(s);
        const StdpUpdater updater(config);
        const std::size_t channels = s.range(4, 100);
        const double t_post = s.real(1.0, 60.0);
        std::vector<double> row(channels);
        for (double& g : row) {
          g = s.real(config.magnitude.g_min, updater.effective_g_max());
        }
        const std::vector<TimeMs> last_pre =
            prop::gen_pre_spike_times(s, channels, t_post,
                                      config.det_window_ms);
        const CounterRng rng(s.bits(0xffffffffull), s.bits(0xffff));
        const std::uint64_t counter_base = s.bits(1u << 20);

        std::vector<double> reference;
        for (const char* name : kBackends) {
          for (std::size_t workers : kWorkerGrid) {
            Engine engine(workers);
            auto backend = make_backend(name, &engine);
            std::vector<double> updated = row;
            StdpRowArgs args;
            args.updater = &updater;
            args.row = updated;
            args.last_pre_spike = last_pre;
            args.t_post = t_post;
            args.rng = &rng;
            args.counter_base = counter_base;
            backend->kernels().stdp_row(engine, args);
            if (reference.empty()) {
              reference = updated;
            } else {
              assert_bitwise(reference, updated, "stdp_row");
            }
          }
        }
      },
      options_with(60));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// current_accumulate + inhibit_scan: the unfused eq. 3 gather and the WTA
// reflex — bitwise everywhere.

TEST(PropDifferential, CurrentAccumulateAndInhibitScanAreBitwise) {
  const CheckResult r = prop::check(
      "diff_accumulate_inhibit",
      [](Source& s) {
        const std::size_t neurons = s.range(2, 40);
        const std::size_t channels = s.range(4, 60);
        std::vector<double> conductance(neurons * channels);
        for (double& g : conductance) g = s.real(0.0, 1.0);
        const std::vector<ChannelIndex> active = gen_active(s, channels, 0.4);
        const double amplitude = s.real(0.5, 4.0);
        std::vector<double> initial(neurons);
        for (double& i : initial) i = s.real(0.0, 3.0);
        std::vector<TimeMs> inhibited_initial(neurons);
        for (TimeMs& t : inhibited_initial) t = s.real(-5.0, 30.0);
        const NeuronIndex winner =
            static_cast<NeuronIndex>(s.bits(neurons - 1));
        const TimeMs until = s.real(0.0, 50.0);

        std::vector<double> ref_currents;
        std::vector<TimeMs> ref_inhibited;
        for (const char* name : kBackends) {
          for (std::size_t workers : kWorkerGrid) {
            Engine engine(workers);
            auto backend = make_backend(name, &engine);
            std::vector<double> currents = initial;
            CurrentAccumulateArgs acc;
            acc.conductance = conductance;
            acc.pre_count = channels;
            acc.active_pre = active;
            acc.amplitude = amplitude;
            acc.currents = currents;
            backend->kernels().current_accumulate(engine, acc);

            std::vector<TimeMs> inhibited = inhibited_initial;
            InhibitScanArgs scan;
            scan.inhibited_until = inhibited;
            scan.winner = winner;
            scan.until = until;
            backend->kernels().inhibit_scan(engine, scan);

            if (ref_currents.empty()) {
              ref_currents = currents;
              ref_inhibited = inhibited;
            } else {
              assert_bitwise(ref_currents, currents, "current_accumulate");
              assert_bitwise(ref_inhibited, inhibited, "inhibit_scan");
            }
          }
        }
      },
      options_with(50));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// regular_encode: phase arithmetic over all channels — identical active
// lists on every backend and worker count, step by step.

TEST(PropDifferential, RegularEncodeEmitsIdenticalActiveLists) {
  const CheckResult r = prop::check(
      "diff_regular_encode",
      [](Source& s) {
        const std::size_t channels = s.range(1, 40);
        const std::vector<double> rates = prop::gen_rates(s, channels, 800.0);
        std::vector<double> phase(channels);
        for (double& p : phase) p = s.unit() * 0.999;
        const TimeMs dt = s.choose({0.5, 1.0});
        const StepIndex steps = static_cast<StepIndex>(s.range(1, 40));

        std::vector<std::vector<ChannelIndex>> reference;
        for (const char* name : kBackends) {
          for (std::size_t workers : kWorkerGrid) {
            Engine engine(workers);
            auto backend = make_backend(name, &engine);
            std::vector<std::vector<ChannelIndex>> emitted;
            for (StepIndex step = 0; step < steps; ++step) {
              std::vector<ChannelIndex> active;
              RegularEncodeArgs args;
              args.rates_hz = rates;
              args.phase = phase;
              args.step = step;
              args.dt = dt;
              args.active = &active;
              backend->kernels().regular_encode(engine, args);
              emitted.push_back(active);
            }
            if (reference.empty()) {
              reference = emitted;
            } else {
              PSS_PROP_ASSERT(emitted == reference,
                              "regular_encode active lists diverged");
            }
          }
        }
      },
      options_with(40));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// Network level: per backend, a full generated presentation is worker-count
// invariant — same spike counts, same conductances, bit for bit.

TEST(PropDifferential, NetworkPresentationIsWorkerCountInvariant) {
  const CheckResult r = prop::check(
      "diff_network_worker_invariance",
      [](Source& s) {
        const std::string backend =
            std::string(s.choose({"cpu", "cpu_sparse"}));
        const WtaConfig config = prop::gen_wta_config(s, backend);
        const std::vector<double> rates =
            prop::gen_rates(s, config.input_channels, 400.0);

        std::vector<double> ref_g;
        std::vector<std::uint32_t> ref_counts;
        for (std::size_t workers : kWorkerGrid) {
          Engine engine(workers);
          WtaNetwork network(config, &engine);
          const PresentationResult result =
              network.present(rates, 60.0, /*learn=*/true);
          const auto values = network.conductance().values();
          const std::vector<double> g(values.begin(), values.end());
          if (ref_g.empty()) {
            ref_g = g;
            ref_counts = result.spike_counts;
          } else {
            PSS_PROP_ASSERT(result.spike_counts == ref_counts,
                            "spike counts changed with the worker count");
            assert_bitwise(ref_g, g, "post-learning conductances");
          }
        }
      },
      options_with(12));
  EXPECT_TRUE(r.ok()) << r.report();
}

}  // namespace
}  // namespace pss
