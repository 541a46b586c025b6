#include "tools/run_options.hpp"

#include <algorithm>
#include <vector>

#include "pss/backend/backend.hpp"
#include "pss/common/error.hpp"
#include "pss/common/suggest.hpp"
#include "pss/graph/layer_spec.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/obs/perf.hpp"
#include "pss/obs/trace.hpp"
#include "pss/robust/fault_injection.hpp"

namespace pss::tools {

LearningOption parse_learning_option(const std::string& name) {
  if (name == "fp32") return LearningOption::kFloat32;
  if (name == "16bit") return LearningOption::k16Bit;
  if (name == "8bit") return LearningOption::k8Bit;
  if (name == "4bit") return LearningOption::k4Bit;
  if (name == "2bit") return LearningOption::k2Bit;
  if (name == "highfreq") return LearningOption::kHighFrequency;
  throw Error("unknown option: " + name);
}

StdpKind parse_stdp_kind(const std::string& name) {
  if (name == "stochastic") return StdpKind::kStochastic;
  if (name == "deterministic") return StdpKind::kDeterministic;
  throw Error("unknown kind: " + name);
}

RoundingMode parse_rounding_mode(const std::string& name) {
  if (name == "nearest") return RoundingMode::kNearest;
  if (name == "trunc") return RoundingMode::kTruncate;
  if (name == "stochastic") return RoundingMode::kStochastic;
  throw Error("unknown rounding: " + name);
}

namespace {

std::string require_known_backend(const std::string& name) {
  const std::vector<std::string> names = backend_names();
  std::string known;
  for (const std::string& known_name : names) {
    if (known_name == name) return name;
    if (!known.empty()) known += "|";
    known += known_name;
  }
  throw Error("unknown backend '" + name + "' (known: " + known + ")" +
              suggestion_for(name, names));
}

}  // namespace

const std::vector<std::string>& shared_config_keys() {
  static const std::vector<std::string> keys = {
      "backend",    "batch",   "checkpoint", "checkpoint_every",
      "checkpoints", "eval",   "fault_seed", "faults",
      "frame_ms",   "kind",    "label",      "layers",
      "manifest",   "metrics", "metrics_port", "name",
      "neurons",    "option",  "profile",    "prom",
      "resume",     "rounding", "seed",      "trace",
      "train",      "workers",
  };
  return keys;
}

void require_known_keys(const Config& cfg,
                        const std::vector<std::string>& extra) {
  std::vector<std::string> known = shared_config_keys();
  known.insert(known.end(), extra.begin(), extra.end());
  for (const std::string& key : cfg.keys()) {
    bool found = false;
    for (const std::string& k : known) {
      if (k == key) {
        found = true;
        break;
      }
    }
    if (!found) {
      throw Error("unknown config key '" + key + "'" +
                  suggestion_for(key, known));
    }
  }
}

ExperimentSpec spec_from_config(const Config& cfg,
                                const std::string& default_name) {
  ExperimentSpec spec;
  spec.name = cfg.get_string("name", default_name);
  // `kind=anything-else` used to fall through to stochastic silently
  // (found by the prop grammar fuzzer; corpus token kind=quantum).
  spec.kind = parse_stdp_kind(cfg.get_string("kind", "stochastic"));
  spec.option = parse_learning_option(cfg.get_string("option", "fp32"));
  spec.rounding = parse_rounding_mode(cfg.get_string("rounding", "nearest"));
  // Count-valued keys: a negative long would wrap to a huge size_t via the
  // cast (silent acceptance, found by the prop grammar fuzzer).
  const auto neurons = cfg.get_int("neurons", 100);
  PSS_REQUIRE(neurons >= 1, "neurons must be >= 1");
  spec.neuron_count = static_cast<std::size_t>(neurons);
  const auto train = cfg.get_int("train", 400);
  const auto label = cfg.get_int("label", 250);
  const auto eval = cfg.get_int("eval", 250);
  PSS_REQUIRE(train >= 0, "train must be >= 0");
  PSS_REQUIRE(label >= 0, "label must be >= 0");
  PSS_REQUIRE(eval >= 0, "eval must be >= 0");
  spec.train_images = static_cast<std::size_t>(train);
  spec.label_images = static_cast<std::size_t>(label);
  spec.eval_images = static_cast<std::size_t>(eval);
  const auto checkpoints = cfg.get_int("checkpoints", 0);
  PSS_REQUIRE(checkpoints >= 0, "checkpoints must be >= 0");
  spec.checkpoints = static_cast<std::size_t>(checkpoints);
  const auto workers = cfg.get_int("workers", 1);
  const auto batch = cfg.get_int("batch", 1);
  PSS_REQUIRE(workers >= 0, "workers must be >= 0 (0 = all cores)");
  PSS_REQUIRE(batch >= 1, "batch must be >= 1");
  spec.workers = static_cast<std::size_t>(workers);
  spec.batch_size = static_cast<std::size_t>(batch);
  const auto seed = cfg.get_int("seed", 1);
  PSS_REQUIRE(seed >= 0, "seed must be >= 0");
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.backend = require_known_backend(cfg.get_string("backend", "cpu"));
  const auto checkpoint_every = cfg.get_int("checkpoint_every", 0);
  PSS_REQUIRE(checkpoint_every >= 0, "checkpoint_every must be >= 0");
  spec.train_checkpoint_every = static_cast<std::size_t>(checkpoint_every);
  spec.train_checkpoint_path = cfg.get_string("checkpoint", "");
  spec.resume_path = cfg.get_string("resume", "");
  return spec;
}

graph::GraphConfig graph_config_from_options(const Config& cfg,
                                             const WtaConfig& base) {
  if (cfg.has("layers")) {
    return graph::graph_config_from_spec(cfg.get_string("layers", ""), base);
  }
  return graph::single_wta_graph(base);
}

void arm_faults_from_config(const Config& cfg) {
  if (cfg.has("faults")) {
    robust::faults().arm_from_spec(cfg.get_string("faults", ""));
  }
  if (cfg.has("fault_seed")) {
    const auto fault_seed = cfg.get_int("fault_seed", 0);
    PSS_REQUIRE(fault_seed >= 0, "fault_seed must be >= 0");
    robust::faults().set_seed(static_cast<std::uint64_t>(fault_seed));
  }
}

ObsPaths enable_observability(const Config& cfg) {
  ObsPaths paths;
  paths.metrics = cfg.get_string("metrics", "");
  paths.trace = cfg.get_string("trace", "");
  paths.manifest = cfg.get_string("manifest", "");
  paths.profile = cfg.get_string("profile", "");
  paths.prom = cfg.get_string("prom", "");
  if (cfg.has("metrics_port")) {
    const auto port = cfg.get_int("metrics_port", 0);
    PSS_REQUIRE(port >= 0 && port <= 65535,
                "metrics_port must be in [0, 65535] (0 = ephemeral)");
    paths.metrics_port = static_cast<int>(port);
  }
  if (paths.any()) obs::set_metrics_enabled(true);
  if (!paths.trace.empty()) {
    obs::set_trace_enabled(true);
    obs::reset_trace();
  }
  if (!paths.profile.empty()) obs::set_profile_enabled(true);
  return paths;
}

}  // namespace pss::tools
