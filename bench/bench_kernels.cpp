// Engine micro-benchmarks (google-benchmark): the three hot kernels of the
// simulator — neuron update, current accumulation (eq. 3), STDP row update —
// plus the Philox draw and the Poisson encoder. These are the per-step costs
// behind the Fig. 4 performance comparison.
//
// Also measures the observability layer itself: BM_TraceSpanDisabled /
// BM_MetricsCounterDisabled pin the disabled-path cost (one relaxed load +
// branch — the "zero-cost when off" contract), and BM_EngineLaunchInline
// measures the bare launch around a 256-index kernel.
//
// Results are routed through the metrics registry and written to
// out/BENCH_kernels.json in the shared pss.metrics.v1 schema (gauge
// "bench.kernels.<name>.real_ns" per benchmark), the same format every other
// bench emits.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "pss/backend/backend.hpp"
#include "pss/backend/kernels.hpp"
#include "pss/backend/state_pool.hpp"
#include "pss/common/rng.hpp"
#include "pss/encoding/poisson_encoder.hpp"
#include "pss/engine/launch.hpp"
#include "pss/neuron/lif.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/obs/trace.hpp"
#include "pss/synapse/conductance_matrix.hpp"
#include "pss/synapse/stdp_updater.hpp"

namespace pss {
namespace {

void BM_PhiloxDraw(benchmark::State& state) {
  CounterRng rng(42, 7);
  std::uint64_t c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform(c++));
  }
}
BENCHMARK(BM_PhiloxDraw);

void BM_LifPopulationStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  LifPopulation pop(n, paper_lif_parameters());
  std::vector<double> current(n, 3.0);
  std::vector<NeuronIndex> spikes;
  TimeMs t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    pop.step(current, t, 1.0, spikes);
    benchmark::DoNotOptimize(spikes.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_LifPopulationStep)->Arg(100)->Arg(1000)->Arg(10000);

void BM_CurrentAccumulation(benchmark::State& state) {
  const auto posts = static_cast<std::size_t>(state.range(0));
  ConductanceMatrix m(posts, kImagePixels);
  SequentialRng rng(1);
  m.initialize_uniform(0.2, 0.8, rng);
  // Typical active-channel count for a 1-22 Hz encoded digit: a handful.
  std::vector<ChannelIndex> active;
  for (ChannelIndex c = 0; c < 8; ++c) active.push_back(c * 97);
  std::vector<double> currents(posts, 0.0);
  for (auto _ : state) {
    m.accumulate_currents(active, 3.0, currents);
    benchmark::DoNotOptimize(currents.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(posts * active.size()));
}
BENCHMARK(BM_CurrentAccumulation)->Arg(100)->Arg(1000);

void BM_StdpRowUpdate(benchmark::State& state) {
  // One post-spike event: every afferent synapse of the winner updates.
  StdpUpdaterConfig cfg;
  cfg.kind = state.range(0) == 0 ? StdpKind::kDeterministic
                                 : StdpKind::kStochastic;
  const StdpUpdater updater(cfg);
  CounterRng rng(3, 1);
  std::vector<double> row(kImagePixels, 0.5);
  std::uint64_t counter = 0;
  for (auto _ : state) {
    for (std::size_t pre = 0; pre < row.size(); ++pre) {
      const double gap = static_cast<double>((pre * 13) % 200);
      row[pre] = updater.update_at_post_spike(
          row[pre], gap, rng.uniform(counter), rng.uniform(counter + 1),
          rng.uniform(counter + 2));
      counter += 3;
    }
    benchmark::DoNotOptimize(row.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kImagePixels));
  state.SetLabel(state.range(0) == 0 ? "deterministic" : "stochastic");
}
BENCHMARK(BM_StdpRowUpdate)->Arg(0)->Arg(1);

// ---- backend kernel-table dispatch ----------------------------------------
// The same two hot kernels measured through the backend seam (kernel-table
// function pointer) on `cpu`; cpu_sparse dispatches the same reference
// kernels for both. Compare against the direct-call benchmarks above to see
// the dispatch cost (bench_backend holds the cross-backend numbers).

void BM_BackendFusedStep(benchmark::State& state) {
  auto backend = make_backend("cpu");
  StatePool pool(backend.get(), StatePool::Geometry{256, kImagePixels});
  pool.set_g_bounds(0.0, 1.0);
  SequentialRng init(7);
  pool.init_g_uniform(0.2, 0.8, init, nullptr);
  std::vector<ChannelIndex> active;
  for (std::size_t c = 0; c < kImagePixels; c += 3) {
    active.push_back(static_cast<ChannelIndex>(c));
  }

  LifFusedStepArgs args;
  args.params = paper_lif_parameters();
  args.step.state =
      NeuronStateView{pool.membrane(), pool.recovery(), pool.last_spike(),
                      pool.inhibited_until(), pool.spiked()};
  args.step.currents = pool.currents();
  args.step.decay_factor = 0.8;
  args.step.conductance = std::as_const(pool).g();
  args.step.pre_count = pool.channels();
  args.step.active_pre = active;
  args.step.amplitude = 3.0;
  args.step.dt = 0.5;
  TimeMs t = 0.0;
  for (auto _ : state) {
    t += 0.5;
    args.step.now = t;
    backend->kernels().lif_step_fused(backend->engine(), args);
    benchmark::DoNotOptimize(pool.currents().data());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_BackendFusedStep);

void BM_BackendStdpRow(benchmark::State& state) {
  auto backend = make_backend("cpu");
  StatePool pool(backend.get(), StatePool::Geometry{8, kImagePixels});
  pool.set_g_bounds(0.0, 1.0);
  SequentialRng init(7);
  pool.init_g_uniform(0.2, 0.8, init, nullptr);
  auto last_pre = pool.last_pre_spike();
  for (std::size_t c = 0; c < pool.channels(); ++c) {
    last_pre[c] = (c % 2 == 0) ? kNeverSpiked
                               : 0.5 * static_cast<double>((c * 13) % 80);
  }
  const StdpUpdater updater{StdpUpdaterConfig{}};
  CounterRng rng(3, 9);

  StdpRowArgs args;
  args.updater = &updater;
  args.last_pre_spike = std::as_const(pool).last_pre_spike();
  args.rng = &rng;
  std::uint64_t event = 0;
  for (auto _ : state) {
    ++event;
    args.row = pool.g_row(static_cast<NeuronIndex>(event % 8));
    args.t_post = 40.0 + static_cast<double>(event);
    args.counter_base =
        event * static_cast<std::uint64_t>(kImagePixels) *
        StdpUpdater::kDrawsPerEvent;
    backend->kernels().stdp_row(backend->engine(), args);
    benchmark::DoNotOptimize(args.row.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kImagePixels));
}
BENCHMARK(BM_BackendStdpRow);

void BM_PoissonEncoderStep(benchmark::State& state) {
  PoissonEncoder enc(kImagePixels, 5);
  enc.set_uniform_rate(10.0);
  std::vector<ChannelIndex> active;
  StepIndex step = 0;
  for (auto _ : state) {
    enc.active_channels(step++, 1.0, active);
    benchmark::DoNotOptimize(active.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kImagePixels));
}
BENCHMARK(BM_PoissonEncoderStep);

// ---- observability-layer overhead -----------------------------------------

/// Disabled path: what every instrumented call site pays when tracing is off.
void BM_TraceSpanDisabled(benchmark::State& state) {
  obs::set_trace_enabled(false);
  for (auto _ : state) {
    obs::TraceSpan span("bench.span", "bench");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  obs::set_trace_enabled(true);
  obs::reset_trace();
  std::uint64_t emitted = 0;
  for (auto _ : state) {
    obs::TraceSpan span("bench.span", "bench");
    benchmark::DoNotOptimize(&span);
    // Bound buffer growth so long runs measure the append, not allocation.
    if (++emitted % 65536 == 0) {
      state.PauseTiming();
      obs::reset_trace();
      state.ResumeTiming();
    }
  }
  obs::set_trace_enabled(false);
  obs::reset_trace();
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_MetricsCounterDisabled(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  obs::Counter& c = obs::metrics().counter("bench.counter");
  for (auto _ : state) {
    if (obs::metrics_enabled()) c.add(1);  // the gated call-site pattern
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_MetricsCounterDisabled);

void BM_MetricsCounterAdd(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::metrics().counter("bench.counter");
  for (auto _ : state) {
    c.add(1);
    benchmark::DoNotOptimize(&c);
  }
  obs::set_metrics_enabled(false);
}
BENCHMARK(BM_MetricsCounterAdd);

/// Inline engine launch (the common small-network path): the launch itself
/// adds two counter increments and a grain check to the kernel loop, and
/// reads no obs gate, so its cost is the same with metrics on or off.
void BM_EngineLaunchInline(benchmark::State& state) {
  Engine engine(1);
  std::vector<double> v(256, 1.0);
  for (auto _ : state) {
    engine.launch(v.size(),
                  [&](std::size_t i) { v[i] = v[i] * 1.0000001 + 1e-12; });
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(v.size()));
}
BENCHMARK(BM_EngineLaunchInline);

/// Console reporter that mirrors every run into the metrics registry so the
/// machine-readable record shares the pss.metrics.v1 schema with the other
/// benches (gauge "bench.kernels.<name>.real_ns").
class RegistryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      std::string name = run.benchmark_name();
      for (char& ch : name) {
        if (ch == '/' || ch == ':' || ch == ' ') ch = '.';
      }
      obs::metrics()
          .gauge("bench.kernels." + name + ".real_ns")
          .set(run.GetAdjustedRealTime());
      obs::metrics()
          .gauge("bench.kernels." + name + ".iterations")
          .set(static_cast<double>(run.iterations));
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace
}  // namespace pss

// Like BENCHMARK_MAIN(), but routes results through the metrics registry and
// always writes out/BENCH_kernels.json (pss.metrics.v1) so CI and sweep
// scripts get a machine-readable record in the same schema as every other
// bench. google-benchmark's own --benchmark_out still works if passed.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  pss::RegistryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  std::filesystem::create_directories("out");
  pss::obs::write_metrics_json("out/BENCH_kernels.json", "bench_kernels");
  std::printf("wrote out/BENCH_kernels.json\n");
  return 0;
}
