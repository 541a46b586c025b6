// Compute-backend comparison: end-to-end timings of the `cpu` (reference)
// vs `cpu_sparse` (event-driven encode, CSR propagation, lazy STDP) kernel
// tables, published as pss.metrics.v1 gauges.
//
// End-to-end section: the full unsupervised pipeline (train → label → infer)
// through ExperimentSpec with only the backend name swapped, plus the wall
// time each backend charged to the encode / integrate / stdp phases and the
// per-phase speedup of cpu_sparse against cpu. Each backend runs kTrials
// times, interleaved cpu / cpu_sparse so host drift hits both alike; the
// published seconds and phase times are per-field medians over the trials,
// and the speedups are ratios of those medians.
//
// Arguments: e2e=1 out=BENCH_backend.json seed=3
// The committed repo-root BENCH_backend.json is this bench's output, run from
// the repo root with defaults; refresh it when the kernels change and diff
// with tools/bench_summary.py. tools/bench_compare.py gates it against
// bench/baselines/backend.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "pss/common/error.hpp"
#include "pss/common/stopwatch.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/experiment/experiment.hpp"
#include "pss/io/config.hpp"
#include "pss/obs/metrics.hpp"

using namespace pss;

namespace {

/// Timed e2e runs per backend; the published figures are their medians.
constexpr int kTrials = 5;
static_assert(kTrials % 2 == 1, "median() takes the middle trial");

/// Wall time charged to each simulation phase during one e2e run, read as
/// deltas of the global phase.*.ns counters WtaNetwork::present maintains.
struct PhaseBreakdown {
  double encode_ns = 0.0;
  double integrate_ns = 0.0;
  double stdp_ns = 0.0;
  double aggregate() const { return encode_ns + integrate_ns + stdp_ns; }
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Per-field medians of `trials`, each field taken independently.
PhaseBreakdown median_phases(const std::vector<PhaseBreakdown>& trials) {
  const auto field = [&](double PhaseBreakdown::*member) {
    std::vector<double> values;
    for (const PhaseBreakdown& t : trials) values.push_back(t.*member);
    return median(std::move(values));
  };
  return {field(&PhaseBreakdown::encode_ns),
          field(&PhaseBreakdown::integrate_ns),
          field(&PhaseBreakdown::stdp_ns)};
}

double phase_counter(const char* name) {
  return static_cast<double>(obs::metrics().counter(name).value());
}

/// One e2e run of `backend`: returns its wall seconds and fills `accuracy`
/// and `phases`.
double run_e2e(const std::string& backend, const LabeledDataset& data,
               std::uint64_t seed, double& accuracy, PhaseBreakdown& phases) {
  ExperimentSpec spec;
  spec.name = "bench_backend_e2e";
  spec.neuron_count = 50;
  spec.train_images = 120;
  spec.label_images = 120;
  spec.eval_images = 120;
  spec.seed = seed;
  spec.backend = backend;
  const double enc0 = phase_counter("phase.encode.ns");
  const double int0 = phase_counter("phase.integrate.ns");
  const double stdp0 = phase_counter("phase.stdp.ns");
  Stopwatch sw;
  const ExperimentResult result = run_learning_experiment(spec, data);
  const double seconds = sw.seconds();
  accuracy = result.accuracy;
  phases.encode_ns = phase_counter("phase.encode.ns") - enc0;
  phases.integrate_ns = phase_counter("phase.integrate.ns") - int0;
  phases.stdp_ns = phase_counter("phase.stdp.ns") - stdp0;
  return seconds;
}

void publish_e2e(const std::string& backend, double seconds, double accuracy,
                 const PhaseBreakdown& phases) {
  const std::string prefix = "bench.backend.";
  obs::metrics().gauge(prefix + "e2e." + backend + ".seconds").set(seconds);
  obs::metrics().gauge(prefix + "e2e." + backend + ".accuracy").set(accuracy);
  obs::metrics()
      .gauge(prefix + "phase.encode." + backend + ".ns")
      .set(phases.encode_ns);
  obs::metrics()
      .gauge(prefix + "phase.integrate." + backend + ".ns")
      .set(phases.integrate_ns);
  obs::metrics()
      .gauge(prefix + "phase.stdp." + backend + ".ns")
      .set(phases.stdp_ns);
  obs::metrics()
      .gauge(prefix + "phase.aggregate." + backend + ".ns")
      .set(phases.aggregate());
  std::printf("  phases %-10s encode %7.1f ms  integrate %7.1f ms  "
              "stdp %7.1f ms  aggregate %7.1f ms\n",
              backend.c_str(), phases.encode_ns / 1e6,
              phases.integrate_ns / 1e6, phases.stdp_ns / 1e6,
              phases.aggregate() / 1e6);
}

void publish_phase_speedup(const std::string& backend,
                           const PhaseBreakdown& ref,
                           const PhaseBreakdown& other) {
  const std::string prefix = "bench.backend.phase.";
  obs::metrics()
      .gauge(prefix + "encode." + backend + ".speedup")
      .set(ref.encode_ns / other.encode_ns);
  obs::metrics()
      .gauge(prefix + "integrate." + backend + ".speedup")
      .set(ref.integrate_ns / other.integrate_ns);
  obs::metrics()
      .gauge(prefix + "stdp." + backend + ".speedup")
      .set(ref.stdp_ns / other.stdp_ns);
  obs::metrics()
      .gauge(prefix + "aggregate." + backend + ".speedup")
      .set(ref.aggregate() / other.aggregate());
  std::printf("  vs cpu %-10s encode %6.2fx  integrate %6.2fx  "
              "stdp %6.2fx  aggregate %6.2fx\n",
              backend.c_str(), ref.encode_ns / other.encode_ns,
              ref.integrate_ns / other.integrate_ns,
              ref.stdp_ns / other.stdp_ns,
              ref.aggregate() / other.aggregate());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config args = Config::from_args(argc, argv);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.get_int("seed", 3));
    const std::string out = args.get_string("out", "BENCH_backend.json");
    obs::set_metrics_enabled(true);

    SyntheticConfig synth;
    synth.train_count = 240;
    synth.test_count = 240;
    synth.seed = 7;
    const LabeledDataset data = make_synthetic_digits(synth);

    // --- end-to-end -------------------------------------------------------
    if (args.get_bool("e2e", true)) {
      const std::string backends[2] = {"cpu", "cpu_sparse"};
      std::vector<double> seconds[2];
      std::vector<PhaseBreakdown> phases[2];
      double accuracy[2] = {0.0, 0.0};
      for (int trial = 0; trial < kTrials; ++trial) {
        for (int b = 0; b < 2; ++b) {
          double acc = 0.0;
          PhaseBreakdown ph;
          seconds[b].push_back(run_e2e(backends[b], data, seed, acc, ph));
          phases[b].push_back(ph);
          PSS_REQUIRE(trial == 0 || acc == accuracy[b],
                      "bench_backend: " + backends[b] +
                          " accuracy changed between trials");
          accuracy[b] = acc;
        }
      }
      const double sec[2] = {median(seconds[0]), median(seconds[1])};
      const PhaseBreakdown ph[2] = {median_phases(phases[0]),
                                    median_phases(phases[1])};
      std::printf("  e2e pipeline   cpu %9.2f s    cpu_sparse %9.2f s   "
                  "speedup %.2fx  (accuracy %.1f%% vs %.1f%%, median of %d)\n",
                  sec[0], sec[1], sec[0] / sec[1], 100.0 * accuracy[0],
                  100.0 * accuracy[1], kTrials);
      obs::metrics().gauge("bench.backend.trials").set(kTrials);
      obs::metrics()
          .gauge("bench.backend.e2e.cpu_sparse.speedup")
          .set(sec[0] / sec[1]);
      // Per-phase wall time per backend, and cpu_sparse's per-phase speedup
      // against the reference. The sparse backend's acceptance criterion is
      // the encode+integrate+stdp aggregate.
      for (int b = 0; b < 2; ++b) {
        publish_e2e(backends[b], sec[b], accuracy[b], ph[b]);
      }
      publish_phase_speedup("cpu_sparse", ph[0], ph[1]);
    }

    obs::write_metrics_json(out, "bench_backend");
    std::printf("wrote %s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_backend: %s\n", e.what());
    return 1;
  }
}
