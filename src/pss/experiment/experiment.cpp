#include "pss/experiment/experiment.hpp"

#include <algorithm>
#include <cmath>

#include "pss/common/error.hpp"
#include "pss/common/log.hpp"
#include "pss/common/stopwatch.hpp"
#include "pss/io/pgm.hpp"
#include "pss/robust/synaptic_faults.hpp"
#include "pss/stats/summary.hpp"

namespace pss {

WtaConfig ExperimentSpec::network_config() const {
  WtaConfig cfg = WtaConfig::from_table1(option, kind, neuron_count);
  cfg.stdp.rounding = rounding;
  cfg.seed = seed;
  cfg.backend = backend;
  return cfg;
}

graph::GraphTrainerConfig ExperimentSpec::trainer_config() const {
  graph::GraphTrainerConfig cfg =
      graph::GraphTrainerConfig::from_table1(option);
  if (f_min_hz) cfg.f_min_hz = *f_min_hz;
  if (f_max_hz) cfg.f_max_hz = *f_max_hz;
  if (t_learn_ms) cfg.t_learn_ms = *t_learn_ms;
  cfg.t_readout_ms = t_readout_ms;
  cfg.batch_size = batch_size;
  cfg.checkpoint_every = train_checkpoint_every;
  cfg.checkpoint_path = train_checkpoint_path;
  cfg.divergence_checks = true;
  return cfg;
}

ExperimentResult run_learning_experiment(const ExperimentSpec& spec,
                                         const LabeledDataset& data) {
  return run_learning_experiment(spec, data, spec.network_config());
}

ExperimentResult run_learning_experiment(const ExperimentSpec& spec,
                                         const LabeledDataset& data,
                                         const WtaConfig& network) {
  PSS_REQUIRE(spec.train_images > 0, "need training images");
  PSS_REQUIRE(!data.train.empty() && !data.test.empty(),
              "dataset must have train and test splits");

  Stopwatch total_clock;
  graph::NetworkGraph graph(graph::single_wta_graph(network));
  // Image-parallel labelling/evaluation (bitwise the sequential result) and
  // minibatch STDP both run on a BatchRunner.
  std::optional<BatchRunner> runner;
  if (spec.workers != 1 || spec.batch_size > 1) runner.emplace(spec.workers);
  const graph::GraphTrainerConfig tcfg = spec.trainer_config();
  graph::GraphTrainer trainer(graph, tcfg, runner ? &*runner : nullptr);
  if (!spec.resume_path.empty()) {
    trainer.resume_from(robust::load_stacked_checkpoint(spec.resume_path));
  }
  // Companion-paper synaptic faults (armed via `synapse.*` fault points):
  // damage the initial conductances before any training. STDP may later
  // rewrite stuck cells — the model is initial-state damage, not a
  // persistent hardware clamp.
  if (const robust::SynapticFaultPlan fault_plan =
          robust::synaptic_plan_from_injector();
      fault_plan.any()) {
    const robust::SynapticFaultSummary damage = robust::apply_synaptic_faults(
        graph.block(0).conductance(), fault_plan);
    PSS_LOG_INFO << "synaptic faults: " << damage.stuck_lo << " stuck-lo, "
                 << damage.stuck_hi << " stuck-hi, " << damage.perturbed
                 << " perturbed";
  }

  const Dataset train = data.train.head(spec.train_images);
  const auto [label_set_full, eval_set_full] =
      data.labelling_split(spec.label_images);
  const Dataset eval_set = eval_set_full.head(spec.eval_images);
  PSS_REQUIRE(!label_set_full.empty() && !eval_set.empty(),
              "labelling/evaluation splits are empty — test set too small");

  ExperimentResult result;
  result.name = spec.name;
  result.neuron_count = spec.neuron_count;

  // Mid-training checkpoints for error-vs-time curves.
  std::vector<std::size_t> checkpoint_at;
  if (spec.checkpoints > 0) {
    for (std::size_t k = 1; k <= spec.checkpoints; ++k) {
      checkpoint_at.push_back(
          std::max<std::size_t>(1, train.size() * k / (spec.checkpoints + 1)));
    }
  }
  const Dataset cp_label = label_set_full.head(spec.checkpoint_eval_images);
  const Dataset cp_eval = eval_set.head(spec.checkpoint_eval_images);

  Stopwatch train_clock;
  double checkpoint_overhead_s = 0.0;
  const auto on_image = [&](std::size_t index) {
    if (std::find(checkpoint_at.begin(), checkpoint_at.end(), index + 1) ==
        checkpoint_at.end()) {
      return;
    }
    Stopwatch cp_clock;
    trainer.label(cp_label);
    const double acc = trainer.evaluate(cp_eval).accuracy();
    checkpoint_overhead_s += cp_clock.seconds();
    result.error_trace.push_back(
        {index + 1, static_cast<double>(index + 1) * tcfg.t_learn_ms,
         train_clock.seconds() - checkpoint_overhead_s, 1.0 - acc});
  };
  const graph::TrainingStats tstats = trainer.train(train, on_image);
  result.train_wall_seconds = train_clock.seconds() - checkpoint_overhead_s;
  result.simulated_learning_ms = tstats.simulated_ms;
  result.lineage = trainer.lineage();

  result.labelled_neurons = trainer.label(label_set_full);
  result.accuracy = trainer.evaluate(eval_set).accuracy();
  result.error_rate = 1.0 - result.accuracy;
  result.error_trace.push_back({train.size(), tstats.simulated_ms,
                                result.train_wall_seconds,
                                result.error_rate});

  // Conductance-map quality metrics.
  const ConductanceMatrix& g = graph.block(0).conductance();
  double contrast = 0.0;
  for (std::size_t j = 0; j < g.post_count(); ++j) {
    contrast += quartile_contrast(g.row(static_cast<NeuronIndex>(j)));
  }
  result.conductance_contrast = contrast / static_cast<double>(g.post_count());
  const auto [bottom, top] = edge_fractions(g);
  result.bottom_fraction = bottom;
  result.top_fraction = top;

  result.total_wall_seconds = total_clock.seconds();
  PSS_LOG_INFO << spec.name << ": accuracy " << result.accuracy << " ("
               << result.labelled_neurons << "/" << spec.neuron_count
               << " neurons labelled, " << result.train_wall_seconds
               << " s training)";
  return result;
}

graph::NetworkGraph train_network(const ExperimentSpec& spec,
                                  const LabeledDataset& data) {
  graph::NetworkGraph graph(graph::single_wta_graph(spec.network_config()));
  graph::GraphTrainerConfig tcfg = spec.trainer_config();
  tcfg.batch_size = 1;
  tcfg.checkpoint_every = 0;
  tcfg.checkpoint_path.clear();
  graph::GraphTrainer(graph, tcfg).train(data.train.head(spec.train_images));
  return graph;
}

std::vector<Image> conductance_maps(const WtaNetwork& network,
                                    std::size_t max_maps,
                                    std::size_t image_side) {
  PSS_REQUIRE(network.input_channels() == image_side * image_side,
              "input channel count is not a square image");
  const ConductanceMatrix& g = network.conductance();
  const std::size_t count = std::min<std::size_t>(max_maps, g.post_count());
  std::vector<Image> maps;
  maps.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    maps.push_back(conductance_to_image(g.row(static_cast<NeuronIndex>(j)),
                                        image_side, image_side, g.g_min(),
                                        g.g_max()));
  }
  return maps;
}

std::pair<double, double> edge_fractions(const ConductanceMatrix& matrix,
                                         double tolerance) {
  const double range = matrix.g_max() - matrix.g_min();
  const double lo = matrix.g_min() + tolerance * range;
  const double hi = matrix.g_max() - tolerance * range;
  std::uint64_t bottom = 0;
  std::uint64_t top = 0;
  std::uint64_t total = 0;
  for (std::size_t j = 0; j < matrix.post_count(); ++j) {
    for (double v : matrix.row(static_cast<NeuronIndex>(j))) {
      ++total;
      if (v <= lo) ++bottom;
      if (v >= hi) ++top;
    }
  }
  return {static_cast<double>(bottom) / static_cast<double>(total),
          static_cast<double>(top) / static_cast<double>(total)};
}

}  // namespace pss
