// End-to-end learning experiment harness: the paper's protocol (train ->
// label neurons with the first part of the test set -> infer on the rest)
// packaged so each bench configures one table cell / figure point in a few
// lines.
//
// Scale note: the paper trains on all 60k images with 1000 neurons. The
// default spec is scaled down (hundreds of images, ~100 neurons) so a full
// table reproduces in minutes on one CPU core; pass scale=full via each
// bench's command line to run the paper-sized protocol. The qualitative
// shapes (which rule wins, where precision collapses, how frequency trades
// accuracy for time) are preserved at the reduced scale — that is what
// EXPERIMENTS.md records.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "pss/data/dataset.hpp"
#include "pss/learning/classifier.hpp"
#include "pss/learning/labeler.hpp"
#include "pss/learning/trainer.hpp"
#include "pss/network/wta_network.hpp"

namespace pss {

struct ExperimentSpec {
  std::string name = "experiment";
  StdpKind kind = StdpKind::kStochastic;
  LearningOption option = LearningOption::kFloat32;
  RoundingMode rounding = RoundingMode::kNearest;

  std::size_t neuron_count = 100;
  std::size_t train_images = 400;
  std::size_t label_images = 200;
  std::size_t eval_images = 200;

  /// Overrides of the Table I row frequency/time values (Fig. 7 sweeps).
  std::optional<double> f_min_hz;
  std::optional<double> f_max_hz;
  std::optional<TimeMs> t_learn_ms;

  TimeMs t_label_ms = 300.0;
  TimeMs t_infer_ms = 300.0;

  /// Number of evenly spaced mid-training evaluation checkpoints (0 = only
  /// final). Each checkpoint labels + evaluates on small subsets — used for
  /// the Fig. 7b / Fig. 8c error-vs-time curves.
  std::size_t checkpoints = 0;
  std::size_t checkpoint_eval_images = 100;

  /// Batched presentation engine. `workers` != 1 runs labelling and
  /// evaluation image-parallel on a BatchRunner (0 = hardware concurrency;
  /// results are bitwise-identical to the sequential path at any worker
  /// count). `batch_size` > 1 additionally switches training to minibatch
  /// STDP (a different — batched — learning schedule; still worker-count
  /// independent).
  std::size_t workers = 1;
  std::size_t batch_size = 1;

  std::uint64_t seed = 1;

  /// Compute backend name (registry key: cpu | cpu_sparse). The spec
  /// validates the name at network construction time.
  std::string backend = "cpu";

  /// Fault tolerance: write a training checkpoint every N images to
  /// `train_checkpoint_path` (0 = off), and/or resume an interrupted run
  /// from the checkpoint file at `resume_path` before training. A resumed
  /// run continues bitwise-identically to the uninterrupted one (same spec
  /// and seed required; see src/pss/robust/checkpoint.hpp). Distinct from
  /// `checkpoints` above, which configures mid-training *evaluations*.
  std::size_t train_checkpoint_every = 0;
  std::string train_checkpoint_path;
  std::string resume_path;

  /// Full WtaConfig derived from this spec (exposed for tests).
  WtaConfig network_config() const;
  TrainerConfig trainer_config() const;
};

struct ErrorTracePoint {
  std::size_t images_seen = 0;
  TimeMs simulated_ms = 0.0;
  double wall_seconds = 0.0;
  double error_rate = 1.0;
};

struct ExperimentResult {
  std::string name;
  double accuracy = 0.0;
  double error_rate = 1.0;
  std::size_t labelled_neurons = 0;
  std::size_t neuron_count = 0;

  double train_wall_seconds = 0.0;
  double total_wall_seconds = 0.0;
  TimeMs simulated_learning_ms = 0.0;

  /// Conductance-map quality metrics (Fig. 5 / Fig. 6b).
  double conductance_contrast = 0.0;  ///< quartile contrast, per-neuron mean
  double bottom_fraction = 0.0;       ///< synapses at/near G_min
  double top_fraction = 0.0;          ///< synapses at/near G_max

  std::vector<ErrorTracePoint> error_trace;

  /// Run identity / resume ancestry (from the trainer; see obs manifests).
  robust::CheckpointLineage lineage;
};

/// Runs the full protocol on `data`. The dataset's test split is divided
/// into labelling/evaluation parts per the spec.
ExperimentResult run_learning_experiment(const ExperimentSpec& spec,
                                         const LabeledDataset& data);

/// Per-neuron conductance maps as images (Fig. 5 / Fig. 8a visualization).
std::vector<Image> conductance_maps(const WtaNetwork& network,
                                    std::size_t max_maps,
                                    std::size_t image_side = kImageSide);

/// Fraction of conductances within one grid step of the bottom/top of the
/// range (Fig. 6b collapse metric).
std::pair<double, double> edge_fractions(const ConductanceMatrix& matrix,
                                         double tolerance = 0.02);

}  // namespace pss
