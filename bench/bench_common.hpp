// Shared plumbing for the per-figure/table bench binaries.
//
// Every bench accepts `key=value` arguments; the universal ones:
//   scale=quick|standard|full   experiment size (default quick, minutes;
//                               full approximates the paper's 60k-image runs
//                               and takes hours on one CPU core)
//   dataset=synthetic|real      real requires PSS_MNIST_DIR / PSS_FASHION_DIR
//   seed=<n>
// Each bench prints the paper's rows/series through TablePrinter so output
// is uniform, and (where useful) writes PGM/CSV artifacts into out/.
#pragma once

#include <cstdio>
#include <filesystem>
#include <string>

#include "pss/common/log.hpp"
#include "pss/data/idx.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/data/synthetic_fashion.hpp"
#include "pss/experiment/experiment.hpp"
#include "pss/io/config.hpp"
#include "pss/io/table.hpp"
#include "pss/obs/metrics.hpp"

namespace pss::bench {

struct Scale {
  std::string name = "quick";
  std::size_t neuron_count = 100;
  std::size_t train_images = 300;
  std::size_t label_images = 250;
  std::size_t eval_images = 250;
  std::size_t dataset_train = 600;
  std::size_t dataset_test = 600;
};

inline Scale parse_scale(const Config& args) {
  const std::string name = args.get_string("scale", "quick");
  Scale s;
  s.name = name;
  if (name == "quick") {
    // defaults above
  } else if (name == "standard") {
    s.neuron_count = 200;
    s.train_images = 1000;
    s.label_images = 500;
    s.eval_images = 500;
    s.dataset_train = 1200;
    s.dataset_test = 1200;
  } else if (name == "full") {
    // The paper's protocol: 1000 neurons, 60k training images, label on the
    // first 1000 test images, infer on the remaining 9000.
    s.neuron_count = 1000;
    s.train_images = 60000;
    s.label_images = 1000;
    s.eval_images = 9000;
    s.dataset_train = 60000;
    s.dataset_test = 10000;
  } else {
    throw Error("unknown scale '" + name + "' (quick|standard|full)");
  }
  return s;
}

/// Loads MNIST(-like) data: real IDX files when requested/available, the
/// synthetic substitute otherwise (substitution documented in DESIGN.md).
inline LabeledDataset load_dataset(const std::string& which, const Scale& scale,
                                   std::uint64_t seed) {
  if (auto real = load_real_dataset_from_env(which)) return std::move(*real);
  SyntheticConfig cfg;
  cfg.train_count = scale.dataset_train;
  cfg.test_count = scale.dataset_test;
  cfg.seed = seed;
  return which == "fashion-mnist" ? make_synthetic_fashion(cfg)
                                  : make_synthetic_digits(cfg);
}

inline ExperimentSpec make_spec(const Scale& scale, StdpKind kind,
                                LearningOption option, std::uint64_t seed) {
  ExperimentSpec spec;
  spec.kind = kind;
  spec.option = option;
  spec.neuron_count = scale.neuron_count;
  spec.train_images = scale.train_images;
  spec.label_images = scale.label_images;
  spec.eval_images = scale.eval_images;
  spec.seed = seed;
  spec.name = std::string(stdp_kind_name(kind)) + " " +
              learning_option_name(option);
  return spec;
}

/// Output directory for PGM/CSV artifacts (created on demand).
inline std::string out_dir() {
  const std::string dir = "out";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Records a scalar bench result as the gauge "bench.<name>". Every bench
/// publishes through the registry so all BENCH_*.json files share one schema
/// (pss.metrics.v1) instead of each bench hand-rolling its own JSON.
inline void record(const std::string& name, double value) {
  obs::metrics().gauge("bench." + name).set(value);
}

/// Times a section and records "bench.<name>.seconds" on stop (or
/// destruction). Replaces the per-bench Stopwatch + manual bookkeeping.
class RecordedTimer {
 public:
  explicit RecordedTimer(std::string name)
      : name_(std::move(name)), t0_(obs::monotonic_ns()) {}

  /// Stops the timer, records the gauge, and returns elapsed seconds.
  double stop() {
    if (!stopped_) {
      seconds_ = static_cast<double>(obs::monotonic_ns() - t0_) * 1e-9;
      record(name_ + ".seconds", seconds_);
      stopped_ = true;
    }
    return seconds_;
  }

  ~RecordedTimer() { stop(); }

  RecordedTimer(const RecordedTimer&) = delete;
  RecordedTimer& operator=(const RecordedTimer&) = delete;

 private:
  std::string name_;
  std::uint64_t t0_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

/// Dumps the registry (counters + gauges + histograms, including every
/// record() call so far) to out/BENCH_<bench_name>.json and returns the path.
inline std::string write_bench_record(const std::string& bench_name) {
  const std::string path = out_dir() + "/BENCH_" + bench_name + ".json";
  obs::write_metrics_json(path, bench_name);
  return path;
}

inline void print_header(const char* figure, const char* claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper claim: %s\n", claim);
  std::printf("================================================================\n");
}

inline int bench_main(int argc, char** argv, const std::string& bench_name,
                      const std::function<void(const Config&)>& body) {
  try {
    const Config args = Config::from_args(argc, argv);
    if (!args.get_bool("verbose", false)) set_log_level(LogLevel::kWarn);
    // Benches publish results through the metrics registry (record() /
    // write_bench_record()), so collection is on by default here.
    obs::set_metrics_enabled(args.get_bool("obs", true));
    body(args);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_%s failed: %s\n", bench_name.c_str(),
                 e.what());
    return 1;
  }
}

}  // namespace pss::bench
