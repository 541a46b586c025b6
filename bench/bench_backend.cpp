// Compute-backend comparison: end-to-end timings of the `cpu` (reference)
// vs `cpu_sparse` (event-driven encode, CSR propagation, lazy STDP) kernel
// tables, published as pss.metrics.v1 gauges.
//
// End-to-end section: the full unsupervised pipeline (train → label → infer)
// through ExperimentSpec with only the backend name swapped, plus the wall
// time each backend charged to the encode / integrate / stdp phases and the
// per-phase speedup of cpu_sparse against cpu.
//
// Hardware-counter profile: an untimed cpu_sparse e2e pass re-runs with
// obs::profile_enabled() on, so the per-kernel cycles/IPC/cache-miss tables
// in the `<out>.profile.json` sidecar (pss.profile.v1) come from the same
// code paths without the ~µs counter-group reads distorting the published
// timings. Where perf_event_open is blocked (containers) the sidecar
// reports "available": 0 instead of failing.
//
// Arguments: e2e=1 profile=1 out=BENCH_backend.json seed=3
// The committed repo-root BENCH_backend.json is this bench's output, run from
// the repo root with defaults; refresh it when the kernels change and diff
// with tools/bench_summary.py. tools/bench_compare.py gates it against
// bench/baselines/backend.json.
#include <cstdio>
#include <string>

#include "pss/common/stopwatch.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/experiment/experiment.hpp"
#include "pss/io/config.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/obs/perf.hpp"

using namespace pss;

namespace {

/// Wall time charged to each simulation phase during one e2e run, read as
/// deltas of the global phase.*.ns counters WtaNetwork::present maintains.
struct PhaseBreakdown {
  double encode_ns = 0.0;
  double integrate_ns = 0.0;
  double stdp_ns = 0.0;
  double aggregate() const { return encode_ns + integrate_ns + stdp_ns; }
};

double phase_counter(const char* name) {
  return static_cast<double>(obs::metrics().counter(name).value());
}

double run_e2e(const std::string& backend, const LabeledDataset& data,
               std::uint64_t seed, double* accuracy, PhaseBreakdown* phases) {
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
  if (accuracy) *accuracy = result.accuracy;
  if (phases) {
    phases->encode_ns = phase_counter("phase.encode.ns") - enc0;
    phases->integrate_ns = phase_counter("phase.integrate.ns") - int0;
    phases->stdp_ns = phase_counter("phase.stdp.ns") - stdp0;
  }
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
      double acc_cpu = 0.0, acc_sparse = 0.0;
      PhaseBreakdown ph_cpu, ph_sparse;
      const double e2e_cpu = run_e2e("cpu", data, seed, &acc_cpu, &ph_cpu);
      const double e2e_sparse =
          run_e2e("cpu_sparse", data, seed, &acc_sparse, &ph_sparse);
      std::printf("  e2e pipeline   cpu %9.2f s    cpu_sparse %9.2f s   "
                  "speedup %.2fx  (accuracy %.1f%% vs %.1f%%)\n",
                  e2e_cpu, e2e_sparse, e2e_cpu / e2e_sparse, 100.0 * acc_cpu,
                  100.0 * acc_sparse);
      obs::metrics()
          .gauge("bench.backend.e2e.cpu_sparse.speedup")
          .set(e2e_cpu / e2e_sparse);
      // Per-phase wall time per backend, and cpu_sparse's per-phase speedup
      // against the reference. The sparse backend's acceptance criterion is
      // the encode+integrate+stdp aggregate.
      publish_e2e("cpu", e2e_cpu, acc_cpu, ph_cpu);
      publish_e2e("cpu_sparse", e2e_sparse, acc_sparse, ph_sparse);
      publish_phase_speedup("cpu_sparse", ph_cpu, ph_sparse);
    }

    // --- hardware-counter profile (untimed pass) --------------------------
    if (args.get_bool("profile", true)) {
      obs::set_profile_enabled(true);
      // One sparse e2e run fills the per-phase rows (phase.encode /
      // integrate / stdp / homeostasis) and the sparse kernel tags.
      run_e2e("cpu_sparse", data, seed, nullptr, nullptr);
      obs::set_profile_enabled(false);
      obs::publish_profile_stats();
      std::string profile_out = out;
      const std::string suffix = ".json";
      if (profile_out.size() >= suffix.size() &&
          profile_out.compare(profile_out.size() - suffix.size(),
                              suffix.size(), suffix) == 0) {
        profile_out.resize(profile_out.size() - suffix.size());
      }
      profile_out += ".profile.json";
      obs::write_profile_json(profile_out, "bench_backend");
      std::printf("wrote %s (profile.available=%d)\n", profile_out.c_str(),
                  obs::profile_available() ? 1 : 0);
    }

    obs::write_metrics_json(out, "bench_backend");
    std::printf("wrote %s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_backend: %s\n", e.what());
    return 1;
  }
}
