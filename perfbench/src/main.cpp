// perfbench_runner — runs one benchmark workload and writes its raw results
// (timings, spans, per-request records, output checks) as JSON. The metrics
// are derived from that file by perfbench/run.py.
//
//   perfbench_runner --workload <digits_wta|digits_stacked|serve_mixed>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --out <file.json> --workdir <dir>
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "pss/common/error.hpp"
#include "pss/obs/json_writer.hpp"
#include "pss/obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.traced = value == "1";
    } else if (key == "--workdir") {
      o.workdir = value;
    } else if (key != "--out") {
      throw pss::Error("unknown option " + key);
    }
  }
  PSS_REQUIRE(o.seconds > 0.0, "--seconds must be positive");
  return o;
}

std::string out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") return argv[i + 1];
  }
  throw pss::Error("--out <file> is required");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options options = parse(argc, argv);
    const std::string path = out_path(argc, argv);
    pss::obs::set_metrics_enabled(options.traced);
    Recorder recorder(options.traced);

    std::ofstream os(path);
    PSS_REQUIRE(os.good(), "cannot write " + path);
    pss::obs::JsonWriter w(os);
    w.begin_object();
    w.member("workload", options.workload);
    w.member("seed", options.seed);
    w.member("seconds", options.seconds);
    w.member("traced", options.traced);
    w.member("threads", kThreads);
    const std::uint64_t run = recorder.open("run", SpanKind::kGroup);
    if (options.workload == "digits_wta" ||
        options.workload == "digits_stacked") {
      run_digits(options, recorder, w);
    } else if (options.workload == "serve_mixed") {
      run_serve_mixed(options, recorder, w);
    } else {
      throw pss::Error("unknown workload '" + options.workload + "'");
    }
    recorder.close(run);
    w.member("peak_rss_mb", peak_rss_mb());
    w.key("spans");
    recorder.write_json(w);
    w.end_object();
    os << "\n";
    os.close();
    PSS_REQUIRE(!os.fail(), "failed writing " + path);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
