// digits_wta / digits_stacked: the paper's protocol (train → label → infer)
// on synthetic digits through the graph path (NetworkGraph + GraphTrainer).
//
// Set-up (data generation + graph construction) is repeated kSetupRepeats
// times and each one is timed; the last graph is the one measured. The
// protocol then runs once over a fixed number of images sized from
// Options::seconds. Training and evaluation present one image per
// GraphTrainer call, each in its own span, so per-image latency percentiles
// and throughput medians come from the same run as the accuracy.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pss/common/error.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/engine/launch.hpp"
#include "pss/graph/graph_trainer.hpp"
#include "pss/graph/layer_spec.hpp"
#include "pss/graph/network_graph.hpp"
#include "pss/obs/json_writer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct DigitsShape {
  const char* spec;     ///< layer stack; "" = one 784×100 WTA layer
  const char* backend;
  double train_per_s;   ///< images sized per requested second
  double label_per_s;
  double eval_per_s;
};

DigitsShape shape_for(const std::string& workload) {
  if (workload == "digits_wta") return {"", "cpu_sparse", 240.0, 60.0, 480.0};
  return {"conv:filters=6,kernel=7,stride=2;pool:window=2;wta:neurons=100",
          "cpu", 12.0, 8.0, 20.0};
}

std::size_t sized(double per_s, double seconds) {
  return std::max<std::size_t>(
      static_cast<std::size_t>(std::llround(per_s * seconds)), 1);
}

pss::graph::GraphConfig graph_config(const DigitsShape& shape) {
  pss::WtaConfig base = pss::WtaConfig::from_table1(
      pss::LearningOption::kFloat32, pss::StdpKind::kStochastic, 100);
  base.backend = shape.backend;
  base.seed = derive_seed(kModelSeed, 2);
  if (std::string(shape.spec).empty()) {
    return pss::graph::single_wta_graph(base);
  }
  return pss::graph::graph_config_from_spec(shape.spec, base);
}

/// One single-image Dataset per image, so each GraphTrainer call — and its
/// span — covers exactly one presentation.
std::vector<pss::Dataset> singles(const pss::Dataset& set) {
  std::vector<pss::Dataset> out;
  out.reserve(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    out.push_back(set.slice(i, i + 1));
  }
  return out;
}

}  // namespace

void run_digits(const Options& options, Recorder& recorder,
                pss::obs::JsonWriter& w) {
  const DigitsShape shape = shape_for(options.workload);
  const std::size_t n_train = sized(shape.train_per_s, options.seconds);
  const std::size_t n_label = sized(shape.label_per_s, options.seconds);
  const std::size_t n_eval = sized(shape.eval_per_s, options.seconds);
  pss::SyntheticConfig model_images;  // training + labelling
  model_images.train_count = n_train;
  model_images.test_count = n_label;
  model_images.seed = derive_seed(kModelSeed, 1);
  pss::SyntheticConfig eval_images_config;
  eval_images_config.train_count = 0;
  eval_images_config.test_count = n_eval;
  eval_images_config.seed = derive_seed(options.seed, 1);
  const pss::graph::GraphConfig config = graph_config(shape);

  pss::Engine engine(kThreads);
  pss::LabeledDataset data;
  pss::Dataset eval_set;
  std::optional<pss::graph::NetworkGraph> graph;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    Scope setup(recorder, "setup", SpanKind::kGroup);
    graph.reset();
    {
      Scope s(recorder, "data.generate", SpanKind::kLayer);
      data = pss::make_synthetic_digits(model_images);
      eval_set = pss::make_synthetic_digits(eval_images_config).test;
    }
    Scope s(recorder, "graph.build", SpanKind::kLayer);
    graph.emplace(config, &engine);
  }

  pss::graph::GraphTrainerConfig tc;
  tc.t_learn_ms = 150.0;
  tc.t_readout_ms = 150.0;
  pss::graph::GraphTrainer trainer(*graph, tc);
  const std::vector<pss::Dataset> train_images = singles(data.train);
  const pss::Dataset& label_set = data.test;
  const std::vector<pss::Dataset> eval_images = singles(eval_set);

  pss::graph::GraphEvaluation total;
  std::size_t labelled = 0;
  std::uint64_t eval_start = 0;
  std::vector<int> outcome;  // per eval image: 1 correct, 0 wrong, -1 abstain
  {
    Scope measure(recorder, "measure", SpanKind::kGroup);
    for (const pss::Dataset& image : train_images) {
      Scope s(recorder, "graph.train", SpanKind::kCompute);
      trainer.train(image);
    }
    {
      Scope s(recorder, "graph.label", SpanKind::kCompute);
      labelled = trainer.label(label_set);
    }
    eval_start = graph->presentation_index();
    for (const pss::Dataset& image : eval_images) {
      Scope s(recorder, "graph.eval", SpanKind::kCompute);
      const pss::graph::GraphEvaluation e = trainer.evaluate(image);
      total.total += e.total;
      total.correct += e.correct;
      total.abstained += e.abstained;
      outcome.push_back(e.abstained != 0 ? -1 : static_cast<int>(e.correct));
    }
  }
  const std::uint64_t presentations = graph->presentation_index();

  // Output check: evaluation replays bit for bit when the presentation
  // counter is rewound to where it started.
  std::size_t replay_mismatch = 0;
  {
    Scope s(recorder, "check.replay", SpanKind::kGroup);
    graph->set_presentation_index(eval_start);
    const std::size_t n = std::min<std::size_t>(eval_images.size(), 20);
    for (std::size_t i = 0; i < n; ++i) {
      const pss::graph::GraphEvaluation e = trainer.evaluate(eval_images[i]);
      if ((e.abstained != 0 ? -1 : static_cast<int>(e.correct)) != outcome[i]) {
        ++replay_mismatch;
      }
    }
  }

  w.key("digits").begin_object();
  const std::string spec = shape.spec;
  w.member("spec", spec.empty() ? std::string("wta:neurons=100") : spec);
  w.member("backend", shape.backend);
  w.member("train_images", n_train);
  w.member("label_images", n_label);
  w.member("eval_images", total.total);
  w.member("correct", total.correct);
  w.member("abstained", total.abstained);
  w.member("accuracy", total.accuracy());
  w.member("labelled_neurons", labelled);
  w.member("presentations", presentations);
  w.member("replay_mismatch", replay_mismatch);
  w.end_object();
}

}  // namespace perfbench
