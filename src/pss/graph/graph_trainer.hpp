// The one train/label/evaluate driver (paper Sec. III-B protocol; DESIGN.md
// §5b): train with STDP, label the final block's neurons from the first part
// of the test set, infer on the rest — for every model shape, from the
// one-WTA graph (bitwise a standalone WtaNetwork) to conv/pool/WTA stacks.
//
// Deep stacks train greedily, one plastic block at a time (Spyker/SDNN
// style): the training set is swept config().epochs_per_block times per WTA
// block with STDP only in that block — earlier blocks run frozen, later
// blocks are skipped. The schedule is a flat sequence of presentations
// (block-major, then epoch, then image); checkpoints, resume points and
// progress callbacks count positions in it, so a one-block graph counts
// images exactly as the pre-graph trainer did.
//
// Robustness and batching apply to the learning block of every shape:
//   * minibatch STDP (batch_size > 1, Saunders et al. 2019): a batch's images
//     present in parallel on BatchRunner replicas against the frozen
//     batch-start state; their conductance/theta deltas apply at the batch
//     boundary in image order, so results depend on the batch size but never
//     on the worker count;
//   * with a runner, labelling and evaluation present image-parallel on
//     replicas and assemble results in image order — bitwise the sequential
//     result at any worker count;
//   * checkpoint_every/resume_from through StackedCheckpoint (exact v1 bytes
//     for one block, v2 for stacks), a divergence guard before every
//     checkpoint write, the `train.interrupt` fault point after every
//     presentation (sequential) or batch, and lineage for run manifests;
//   * with divergence_checks, a per-step scan of the learning block (guard,
//     and drift gauges while metrics are on).
//
// Every presentation replays from (config, learned state, presentation
// index, input), so the whole schedule is a pure function of (config, data,
// seed) and bitwise worker-count invariant.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pss/common/types.hpp"
#include "pss/data/dataset.hpp"
#include "pss/data/temporal_gestures.hpp"
#include "pss/encoding/pixel_frequency.hpp"
#include "pss/engine/batch_runner.hpp"
#include "pss/graph/network_graph.hpp"
#include "pss/robust/checkpoint.hpp"
#include "pss/stats/confusion.hpp"

namespace pss::graph {

struct GraphTrainerConfig {
  TimeMs t_learn_ms = 200.0;    ///< presentation length while training
  TimeMs t_readout_ms = 200.0;  ///< presentation length for label/eval
  TimeMs frame_ms = 25.0;       ///< per-frame duration for sequences
  std::size_t epochs_per_block = 1;  ///< sweeps of the train set per block

  /// Image encoding. f_max_hz > 0: the Table I pixel→frequency map,
  /// f_min + (f_max − f_min)·p/255 Hz (the paper's single-layer protocol).
  /// f_max_hz == 0: the graph's encode layer, peak·p/255 Hz. The two
  /// formulas are not bitwise interchangeable. Sequences always use the
  /// encode layer.
  double f_min_hz = 0.0;
  double f_max_hz = 0.0;

  /// Minibatch STDP batch size; > 1 needs a BatchRunner. 1 = per-image
  /// updates on the live graph.
  std::size_t batch_size = 1;

  /// Write a StackedCheckpoint to `checkpoint_path` every this many
  /// presentations (0 = never); minibatch runs write at the first batch
  /// boundary at or past each multiple. A failed write logs a warning and
  /// training continues — writes are atomic, so the previous file survives.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path{};

  /// Scan the learning block after every presentation (sequential) or
  /// batch: the NaN/Inf/out-of-range guard and, while metrics are on, the
  /// train.mean_conductance / train.conductance_drift gauges. One pass over
  /// its synapses, so off by default; checkpoint writes are always guarded.
  bool divergence_checks = false;

  /// Table I row operating point: [f_min, f_max] and t_learn.
  static GraphTrainerConfig from_table1(LearningOption option);
};

struct TrainingStats {
  std::size_t images_presented = 0;  ///< presentations across the schedule
  std::uint64_t total_post_spikes = 0;  ///< learning-block spikes
  std::uint64_t total_input_spikes = 0;
  double wall_seconds = 0.0;
  TimeMs simulated_ms = 0.0;  ///< biological time simulated
};

struct GraphEvaluation {
  std::size_t total = 0;
  std::size_t correct = 0;
  std::size_t abstained = 0;  ///< no labelled neuron spiked
  /// Truth × prediction counts, sized over the model's classes and the
  /// data's labels together: a class no neuron was labelled with still
  /// counts, as an error. Set by GraphTrainer::evaluate.
  std::optional<ConfusionMatrix> confusion;

  double accuracy() const {
    return total == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(total);
  }
};

/// The prediction rule (Diehl & Cook averaging): argmax of the mean spike
/// count per class over the labelled neurons; -1 = abstain (no labelled
/// neuron spiked, or no class). Shared with the serving path.
int graph_predict(std::span<const std::uint32_t> spike_counts,
                  std::span<const int> neuron_labels,
                  std::size_t class_count);

class GraphTrainer {
 public:
  /// Invoked after every schedule position (in order; minibatch runs call
  /// it for each image of a batch at the batch boundary).
  using ProgressCallback = std::function<void(std::size_t index)>;

  /// `runner` (optional, not owned) makes labelling/evaluation
  /// image-parallel and is required for batch_size > 1.
  GraphTrainer(NetworkGraph& graph, GraphTrainerConfig config,
               BatchRunner* runner = nullptr);

  const GraphTrainerConfig& config() const { return config_; }

  // --- static image workloads ---------------------------------------------
  TrainingStats train(const Dataset& train,
                      const ProgressCallback& on_image = nullptr);
  /// Labels the final block's neurons from `labelling` (learning off) and
  /// installs them on the graph. Returns the number of labelled neurons.
  std::size_t label(const Dataset& labelling);
  /// Learning-off presentation of `test`, scored against the graph labels.
  GraphEvaluation evaluate(const Dataset& test);

  // --- frame-sequence workloads -------------------------------------------
  TrainingStats train(const std::vector<GestureSequence>& train,
                      const ProgressCallback& on_image = nullptr);
  std::size_t label(const std::vector<GestureSequence>& labelling);
  GraphEvaluation evaluate(const std::vector<GestureSequence>& test);

  /// Restores learned state, cursor, labels and progress from `cp`, so the
  /// next train() skips the first `cp.base.images_done` schedule positions
  /// and continues bitwise like the run that wrote it. The architecture,
  /// block geometry and seed must match the graph (pss::Error otherwise).
  void resume_from(const robust::StackedCheckpoint& cp);

  /// This run's identity and resume ancestry (surfaced in run manifests).
  const robust::CheckpointLineage& lineage() const { return lineage_; }

  /// response[neuron][class]: final-block spikes per true class accumulated
  /// by the last label() call.
  const std::vector<std::vector<std::uint32_t>>& label_response() const {
    return response_;
  }

 private:
  /// A worker's private copy of the graph (BatchRunner serial engine).
  struct Replica {
    NetworkGraph graph;
    std::vector<double> rates;
  };

  template <typename Item>
  TrainingStats train_items(std::span<const Item> items,
                            const ProgressCallback& on_image);
  template <typename Item>
  void train_batch(std::span<const Item> items, int block,
                   TrainingStats& stats);
  template <typename Item>
  std::vector<std::vector<std::uint32_t>> readout_counts(
      std::span<const Item> items);
  template <typename Item>
  std::size_t label_items(std::span<const Item> items);
  template <typename Item>
  GraphEvaluation evaluate_items(std::span<const Item> items);
  template <typename Item>
  void skip(std::span<const Item> items, int learn_block);

  GraphResult present(NetworkGraph& graph, const Image& image, int learn_block,
                      std::vector<double>& rates) const;
  GraphResult present(NetworkGraph& graph, const GestureSequence& seq,
                      int learn_block, std::vector<double>& rates) const;
  TimeMs duration(const Image& image, bool learn) const;
  TimeMs duration(const GestureSequence& seq, bool learn) const;
  /// Worker `w`'s replica, built from the live graph on first use.
  Replica& replica(std::size_t w);
  /// Re-freezes existing replicas onto the live graph before a parallel run.
  void sync_replicas();
  void maybe_checkpoint(std::uint64_t done, const TrainingStats& stats,
                        double wall_seconds);

  NetworkGraph& graph_;
  GraphTrainerConfig config_;
  std::optional<PixelFrequencyMap> frequency_map_;  ///< set iff f_max_hz > 0
  BatchRunner* runner_;
  PerWorker<Replica> workers_;
  std::vector<double> rates_;
  std::vector<std::vector<std::uint32_t>> response_;

  robust::CheckpointLineage lineage_;
  std::uint64_t start_ = 0;  ///< schedule positions done before a resume
  TrainingStats base_stats_;  ///< stats carried over from the parent run
  std::uint64_t last_checkpoint_ = 0;
};

}  // namespace pss::graph
