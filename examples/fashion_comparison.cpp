// Deterministic vs stochastic STDP on the feature-rich apparel dataset —
// the paper's Sec. IV-B scenario ("baseline test fails to gain accuracy...
// stochastic STDP is able to learn the more complex data set").
//
// Prints both confusion matrices with per-class recall using the
// Fashion-MNIST class names, highlighting the overlapping "tops" group
// (t-shirt / pullover / coat / shirt) where the deterministic rule washes
// out.
//
// Usage: fashion_comparison [neurons=100 train=400 label=250 eval=250 seed=1]
#include <cstdio>
#include <filesystem>

#include "pss/common/log.hpp"
#include "pss/data/idx.hpp"
#include "pss/data/synthetic_fashion.hpp"
#include "pss/experiment/experiment.hpp"
#include "pss/io/config.hpp"
#include "pss/io/pgm.hpp"

using namespace pss;

namespace {

struct Outcome {
  double accuracy = 0.0;
  std::vector<double> recall;
};

Outcome run(StdpKind kind, const LabeledDataset& data, const Config& args) {
  ExperimentSpec spec;
  spec.kind = kind;
  spec.option = LearningOption::kFloat32;
  spec.neuron_count = static_cast<std::size_t>(args.get_int("neurons", 100));
  spec.train_images = static_cast<std::size_t>(args.get_int("train", 400));
  spec.label_images = static_cast<std::size_t>(args.get_int("label", 250));
  spec.eval_images = static_cast<std::size_t>(args.get_int("eval", 250));
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  spec.name = std::string("fashion ") + stdp_kind_name(kind);

  // Run the explicit pipeline so we can keep the confusion matrix.
  graph::NetworkGraph net(graph::single_wta_graph(spec.network_config()));
  graph::GraphTrainer trainer(net, spec.trainer_config());
  trainer.train(data.train.head(spec.train_images));
  const auto [label_set, eval_set] = data.labelling_split(spec.label_images);
  trainer.label(label_set);
  const graph::GraphEvaluation eval =
      trainer.evaluate(eval_set.head(spec.eval_images));

  std::filesystem::create_directories("out");
  write_pgm(std::string("out/fashion_maps_") + stdp_kind_name(kind) + ".pgm",
            tile_images(conductance_maps(net.block(0), 25), 5, 5));

  Outcome o;
  o.accuracy = eval.accuracy();
  o.recall = eval.confusion->recall();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config args = Config::from_args(argc, argv);
    if (!args.get_bool("verbose", false)) set_log_level(LogLevel::kWarn);

    LabeledDataset data;
    if (auto real = load_real_dataset_from_env("fashion-mnist")) {
      data = std::move(*real);
    } else {
      SyntheticConfig cfg;
      cfg.train_count =
          static_cast<std::size_t>(args.get_int("train", 400)) + 100;
      cfg.test_count = 600;
      data = make_synthetic_fashion(cfg);
    }
    std::printf("dataset: %s (%zu train / %zu test)\n\n", data.name.c_str(),
                data.train.size(), data.test.size());

    const Outcome det = run(StdpKind::kDeterministic, data, args);
    const Outcome sto = run(StdpKind::kStochastic, data, args);

    std::printf("accuracy: deterministic %.1f%% | stochastic %.1f%%\n\n",
                100 * det.accuracy, 100 * sto.accuracy);
    std::printf("%-12s %14s %14s\n", "class", "det recall", "stoch recall");
    for (Label c = 0; c < 10; ++c) {
      const bool tops = c == 0 || c == 2 || c == 4 || c == 6;
      std::printf("%-12s %13.0f%% %13.0f%%%s\n", fashion_class_name(c),
                  100 * det.recall[c], 100 * sto.recall[c],
                  tops ? "   <- overlapping silhouette group" : "");
    }
    std::printf("\nconductance maps: out/fashion_maps_deterministic.pgm, "
                "out/fashion_maps_stochastic.pgm\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
