#include "pss/graph/graph_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "pss/common/error.hpp"
#include "pss/common/log.hpp"
#include "pss/common/stopwatch.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/obs/trace.hpp"
#include "pss/robust/fault_injection.hpp"
#include "pss/robust/guards.hpp"

namespace pss::graph {

namespace {

/// splitmix64 finalizer: derives run ids from seeds / parent ids. Purely a
/// label-mixing function — never feeds back into simulation RNG.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Publishes the learning-progress gauges: mean conductance of the learning
/// block and mean |ΔG| against `prev` (the drift a presentation/batch
/// caused). `prev` is updated to the current values. Purely observational.
void publish_conductance_drift(std::span<const double> g,
                               std::vector<double>& prev) {
  double sum = 0.0;
  double drift = 0.0;
  for (std::size_t s = 0; s < g.size(); ++s) {
    sum += g[s];
    drift += std::abs(g[s] - prev[s]);
  }
  const double n = g.empty() ? 1.0 : static_cast<double>(g.size());
  obs::metrics().gauge("train.mean_conductance").set(sum / n);
  obs::metrics().gauge("train.conductance_drift").set(drift / n);
  prev.assign(g.begin(), g.end());
}

std::uint64_t spike_total(std::span<const std::uint32_t> counts) {
  std::uint64_t total = 0;
  for (const std::uint32_t c : counts) total += c;
  return total;
}

template <typename Item>
std::size_t data_class_count(std::span<const Item> items) {
  Label max_label = 0;
  for (const Item& item : items) max_label = std::max(max_label, item.label);
  return static_cast<std::size_t>(max_label) + 1;
}

}  // namespace

GraphTrainerConfig GraphTrainerConfig::from_table1(LearningOption option) {
  const Table1Row& row = table1_row(option);
  GraphTrainerConfig cfg;
  cfg.t_learn_ms = row.t_learn_ms;
  cfg.f_min_hz = row.f_input_min_hz;
  cfg.f_max_hz = row.f_input_max_hz;
  return cfg;
}

int graph_predict(std::span<const std::uint32_t> spike_counts,
                  std::span<const int> neuron_labels,
                  std::size_t class_count) {
  PSS_REQUIRE(spike_counts.size() == neuron_labels.size(),
              "spike count vector size must equal neuron count");
  if (class_count == 0) return -1;
  std::vector<double> score(class_count, 0.0);
  std::vector<std::size_t> sizes(class_count, 0);
  for (std::size_t j = 0; j < neuron_labels.size(); ++j) {
    const int label = neuron_labels[j];
    if (label < 0) continue;
    PSS_REQUIRE(static_cast<std::size_t>(label) < class_count,
                "neuron label out of class range");
    score[static_cast<std::size_t>(label)] += spike_counts[j];
    ++sizes[static_cast<std::size_t>(label)];
  }
  double best = 0.0;
  int winner = -1;
  for (std::size_t c = 0; c < class_count; ++c) {
    if (sizes[c] == 0) continue;
    const double mean = score[c] / static_cast<double>(sizes[c]);
    if (mean > best) {
      best = mean;
      winner = static_cast<int>(c);
    }
  }
  return winner;
}

GraphTrainer::GraphTrainer(NetworkGraph& graph, GraphTrainerConfig config,
                           BatchRunner* runner)
    : graph_(graph),
      config_(std::move(config)),
      runner_(runner),
      workers_(runner != nullptr ? runner->worker_count() : 0) {
  PSS_REQUIRE(config_.t_learn_ms > 0.0 && config_.t_readout_ms > 0.0 &&
                  config_.frame_ms > 0.0,
              "presentation times must be positive");
  PSS_REQUIRE(config_.epochs_per_block > 0, "epochs_per_block must be >= 1");
  PSS_REQUIRE(config_.checkpoint_every == 0 || !config_.checkpoint_path.empty(),
              "checkpoint_every requires a checkpoint_path");
  PSS_REQUIRE(config_.batch_size <= 1 || runner_ != nullptr,
              "minibatch training (batch_size > 1) needs a BatchRunner");
  if (config_.f_max_hz > 0.0) {
    frequency_map_.emplace(config_.f_min_hz, config_.f_max_hz);
  }
  lineage_.run_id = mix64(graph.block(0).config().seed ^ 0x70737372756e31ull);
}

TimeMs GraphTrainer::duration(const Image& /*image*/, bool learn) const {
  return learn ? config_.t_learn_ms : config_.t_readout_ms;
}

TimeMs GraphTrainer::duration(const GestureSequence& seq,
                              bool /*learn*/) const {
  return config_.frame_ms * static_cast<double>(seq.frames.size());
}

GraphResult GraphTrainer::present(NetworkGraph& graph, const Image& image,
                                  int learn_block,
                                  std::vector<double>& rates) const {
  const TimeMs t = duration(image, learn_block >= 0);
  if (!frequency_map_) return graph.present_image(image, t, learn_block);
  frequency_map_->frequencies(image.span(), rates);
  return graph.present(rates, t, learn_block);
}

GraphResult GraphTrainer::present(NetworkGraph& graph,
                                  const GestureSequence& seq, int learn_block,
                                  std::vector<double>& /*rates*/) const {
  return graph.present_sequence(seq.frames, config_.frame_ms, learn_block);
}

GraphTrainer::Replica& GraphTrainer::replica(std::size_t w) {
  return workers_.get(w, [&] {
    return Replica{graph_.replicate(&runner_->worker_engine(w)), {}};
  });
}

void GraphTrainer::sync_replicas() {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_.slot(w)) workers_.slot(w)->graph.sync_from(graph_);
  }
}

template <typename Item>
void GraphTrainer::skip(std::span<const Item> items, int learn_block) {
  // Runs of equal duration advance in one step (a whole image batch at
  // once, the clock arithmetic every batched path has always used).
  for (std::size_t i = 0; i < items.size();) {
    const TimeMs d = duration(items[i], learn_block >= 0);
    std::size_t j = i + 1;
    while (j < items.size() && duration(items[j], learn_block >= 0) == d) ++j;
    graph_.skip_presentations(j - i, d, learn_block);
    i = j;
  }
}

void GraphTrainer::resume_from(const robust::StackedCheckpoint& cp) {
  const GraphConfig& config = graph_.config();
  const std::string arch =
      config.single_wta() ? std::string() : canonical_layers_spec(config);
  PSS_REQUIRE(cp.arch == arch, "checkpoint architecture '" + cp.arch +
                                   "' does not match the graph ('" + arch +
                                   "')");
  PSS_REQUIRE(cp.blocks.size() + 1 == graph_.block_count(),
              "checkpoint block count does not match the graph");
  cp.base.restore(graph_.block(0));
  for (std::size_t b = 1; b < graph_.block_count(); ++b) {
    const robust::StackedCheckpoint::BlockState& state = cp.blocks[b - 1];
    WtaNetwork& block = graph_.block(b);
    PSS_REQUIRE(block.neuron_count() == state.neuron_count &&
                    block.input_channels() == state.input_channels,
                "checkpoint block geometry does not match the graph");
    block.conductance().upload_clamped(state.conductance);
    block.restore_theta(state.theta);
  }
  graph_.set_presentation_index(cp.base.presentation_cursor);
  if (!cp.labels.empty()) {
    graph_.set_neuron_labels(std::vector<int>(cp.labels.begin(),
                                              cp.labels.end()));
  }
  start_ = cp.base.images_done;
  last_checkpoint_ = cp.base.images_done;
  base_stats_.images_presented =
      static_cast<std::size_t>(cp.base.images_presented);
  base_stats_.total_post_spikes = cp.base.total_post_spikes;
  base_stats_.total_input_spikes = cp.base.total_input_spikes;
  base_stats_.wall_seconds = cp.base.wall_seconds;
  base_stats_.simulated_ms = cp.base.simulated_ms;
  lineage_.resumed = true;
  lineage_.parent_run_id = cp.base.run_id;
  lineage_.run_id = mix64(cp.base.run_id ^ (cp.base.images_done + 1));
  lineage_.checkpoint_count = cp.base.checkpoint_count;
  lineage_.presentation_cursor = cp.base.presentation_cursor;
  PSS_LOG_INFO << "resuming from checkpoint: " << cp.base.images_done
               << " presentations done, presentation cursor "
               << cp.base.presentation_cursor << ", checkpoint #"
               << cp.base.checkpoint_count;
}

void GraphTrainer::maybe_checkpoint(std::uint64_t done,
                                    const TrainingStats& stats,
                                    double wall_seconds) {
  if (config_.checkpoint_every == 0 ||
      done - last_checkpoint_ < config_.checkpoint_every) {
    return;
  }
  // A checkpoint is what a resume trusts: never persist diverged state.
  for (std::size_t b = 0; b < graph_.block_count(); ++b) {
    robust::require_finite_network(
        graph_.block(b), "checkpoint at presentation " + std::to_string(done));
  }
  robust::StackedCheckpoint cp;
  robust::TrainingCheckpoint& base = cp.base;
  base = robust::TrainingCheckpoint::capture(graph_.block(0));
  base.presentation_cursor = graph_.presentation_index();
  base.run_id = lineage_.run_id;
  base.parent_run_id = lineage_.parent_run_id;
  base.checkpoint_count = lineage_.checkpoint_count + 1;
  base.images_done = done;
  base.images_presented = stats.images_presented;
  base.total_post_spikes = stats.total_post_spikes;
  base.total_input_spikes = stats.total_input_spikes;
  base.simulated_ms = stats.simulated_ms;
  base.wall_seconds = wall_seconds;
  const GraphConfig& config = graph_.config();
  if (!config.single_wta()) {
    cp.arch = canonical_layers_spec(config);
    cp.input_channels = static_cast<std::uint32_t>(config.input.channels);
    cp.input_height = static_cast<std::uint32_t>(config.input.height);
    cp.input_width = static_cast<std::uint32_t>(config.input.width);
    for (std::size_t b = 1; b < graph_.block_count(); ++b) {
      const WtaNetwork& block = graph_.block(b);
      cp.blocks.push_back(
          {static_cast<std::uint32_t>(block.neuron_count()),
           static_cast<std::uint32_t>(block.input_channels()),
           block.conductance().g_min(), block.conductance().g_max(),
           block.conductance().to_vector(),
           std::vector<double>(block.theta().begin(), block.theta().end())});
    }
    cp.labels.assign(graph_.neuron_labels().begin(),
                     graph_.neuron_labels().end());
  }
  try {
    robust::save_stacked_checkpoint(config_.checkpoint_path, cp);
  } catch (const std::exception& e) {
    // The write is atomic, so the previous checkpoint file is still valid;
    // losing one checkpoint is strictly better than losing the run.
    obs::metrics().counter("checkpoint.failures").add(1);
    PSS_LOG_WARN << "checkpoint write failed (training continues): "
                 << e.what();
    return;
  }
  ++lineage_.checkpoint_count;
  lineage_.presentation_cursor = base.presentation_cursor;
  last_checkpoint_ = done;
  obs::metrics().counter("checkpoint.writes").add(1);
}

template <typename Item>
TrainingStats GraphTrainer::train_items(std::span<const Item> items,
                                        const ProgressCallback& on_image) {
  PSS_REQUIRE(!items.empty(), "training set is empty");
  const std::size_t n = items.size();
  const std::size_t total = n * config_.epochs_per_block * graph_.block_count();
  const std::size_t batch = std::max<std::size_t>(1, config_.batch_size);
  // Batches are carved from each sweep's first image in fixed strides, so a
  // resume point must sit on a batch boundary for the remaining schedule to
  // be bitwise that of an uninterrupted run. Minibatch runs only checkpoint
  // at boundaries, so this rejects cross-mode resumes only.
  PSS_REQUIRE(start_ >= total || (start_ % n) % batch == 0,
              "resume point must align with the batch size for "
              "bitwise-reproducible batched training");
  TrainingStats stats = base_stats_;
  Stopwatch clock;
  obs::TraceSpan span("train", "pipeline", static_cast<std::int64_t>(n));
  // The drift gauges cost a pass over the learning block like the guard
  // scan, so they ride on the same switch.
  const bool observed = config_.divergence_checks && obs::metrics_enabled();
  std::vector<double> prev_g;
  int drift_block = -1;
  for (std::size_t p = start_; p < total;) {
    const std::size_t i = p % n;
    const auto block = static_cast<int>(p / n / config_.epochs_per_block);
    const WtaNetwork& learner = graph_.block(static_cast<std::size_t>(block));
    if (observed && block != drift_block) {
      const auto g = learner.conductance().values();
      prev_g.assign(g.begin(), g.end());
      drift_block = block;
    }
    const std::size_t count = std::min(batch, n - i);
    if (batch > 1) {
      train_batch(items.subspan(i, count), block, stats);
    } else {
      const GraphResult r = present(graph_, items[i], block, rates_);
      ++stats.images_presented;
      stats.total_post_spikes += spike_total(r.spike_counts);
      stats.total_input_spikes += r.input_spikes;
      stats.simulated_ms += duration(items[i], true);
    }
    p += count;
    if (observed) {
      publish_conductance_drift(learner.conductance().values(), prev_g);
    }
    if (config_.divergence_checks) {
      robust::require_finite_network(
          learner, batch > 1 ? "batch ending at image " + std::to_string(p)
                             : "image " + std::to_string(p - 1));
    }
    // The checkpoint lands after the progress callback so any state the
    // callback touches (e.g. a mid-train evaluation presenting on this
    // graph) is part of the captured cursor.
    if (on_image) {
      for (std::size_t k = p - count; k < p; ++k) on_image(k);
    }
    maybe_checkpoint(p, stats, base_stats_.wall_seconds + clock.seconds());
    robust::fault_point("train.interrupt");
  }
  stats.wall_seconds = base_stats_.wall_seconds + clock.seconds();
  PSS_LOG_DEBUG << "trained " << stats.images_presented << " presentations "
                << "(batch " << batch << "), " << stats.total_post_spikes
                << " post spikes, " << stats.wall_seconds << " s";
  return stats;
}

template <typename Item>
void GraphTrainer::train_batch(std::span<const Item> items, int block,
                               TrainingStats& stats) {
  obs::TraceSpan span("train.batch", "pipeline",
                      static_cast<std::int64_t>(graph_.presentation_index()));
  WtaNetwork& live = graph_.block(static_cast<std::size_t>(block));
  // Deltas clamp to the range the sequential updater itself enforces, so
  // quantized runs stay on the representable grid.
  const double g_lo = live.conductance().learn_lo();
  const double g_hi = live.conductance().learn_hi();
  const double theta_max = live.config().homeostasis.theta_max;

  // Frozen batch-start state every replica presents against.
  const std::vector<double> g0 = live.conductance().to_vector();
  const std::vector<double> theta0(live.theta().begin(), live.theta().end());
  const std::uint64_t pbase = graph_.presentation_index();

  /// Everything one image contributes to the batch-boundary update.
  struct ImageOutcome {
    std::vector<std::pair<std::size_t, double>> g_deltas;  ///< (flat idx, ΔG)
    std::vector<double> theta;  ///< full offsets after the image
    std::uint64_t post_spikes = 0;
    std::uint64_t input_spikes = 0;
  };
  std::vector<ImageOutcome> outcomes(items.size());
  sync_replicas();
  runner_->run(items.size(), [&](std::size_t w, std::size_t k) {
    Replica& r = replica(w);
    r.graph.set_presentation_index(pbase + k);
    const GraphResult res = present(r.graph, items[k], block, r.rates);
    ImageOutcome& out = outcomes[k];
    out.post_spikes = spike_total(res.spike_counts);
    out.input_spikes = res.input_spikes;
    const WtaNetwork& net = r.graph.block(static_cast<std::size_t>(block));
    const auto g = net.conductance().values();
    for (std::size_t s = 0; s < g.size(); ++s) {
      if (g[s] != g0[s]) out.g_deltas.emplace_back(s, g[s] - g0[s]);
    }
    out.theta.assign(net.theta().begin(), net.theta().end());
    // Back to the frozen state for this worker's next image in the batch.
    r.graph.sync_from(graph_);
  });

  // Batch-boundary update, strictly in image order — the result depends on
  // the batch split but never on which worker ran which image.
  std::vector<double> g_acc = g0;
  std::vector<double> theta_acc = theta0;
  for (std::size_t k = 0; k < items.size(); ++k) {
    const ImageOutcome& out = outcomes[k];
    for (const auto& [s, dg] : out.g_deltas) {
      g_acc[s] = std::clamp(g_acc[s] + dg, g_lo, g_hi);
    }
    for (std::size_t j = 0; j < theta_acc.size(); ++j) {
      theta_acc[j] = std::clamp(theta_acc[j] + (out.theta[j] - theta0[j]),
                                0.0, theta_max);
    }
    ++stats.images_presented;
    stats.total_post_spikes += out.post_spikes;
    stats.total_input_spikes += out.input_spikes;
    stats.simulated_ms += duration(items[k], true);
  }
  live.conductance().upload(g_acc);
  live.restore_theta(theta_acc);
  skip(items, block);
}

template <typename Item>
std::vector<std::vector<std::uint32_t>> GraphTrainer::readout_counts(
    std::span<const Item> items) {
  std::vector<std::vector<std::uint32_t>> counts(items.size());
  if (runner_ == nullptr) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      counts[i] = present(graph_, items[i], -1, rates_).spike_counts;
    }
    return counts;
  }
  // Item i replays as presentation base + i on whichever replica gets it —
  // exactly the index the sequential loop would have used.
  const std::uint64_t base = graph_.presentation_index();
  sync_replicas();
  runner_->run(items.size(), [&](std::size_t w, std::size_t i) {
    Replica& r = replica(w);
    r.graph.set_presentation_index(base + i);
    counts[i] = present(r.graph, items[i], -1, r.rates).spike_counts;
  });
  skip(items, -1);
  return counts;
}

template <typename Item>
std::size_t GraphTrainer::label_items(std::span<const Item> items) {
  PSS_REQUIRE(!items.empty(), "labelling set must not be empty");
  obs::TraceSpan span("label", "pipeline",
                      static_cast<std::int64_t>(items.size()));
  const std::size_t classes = data_class_count(items);
  const std::vector<std::vector<std::uint32_t>> counts = readout_counts(items);
  const std::size_t neurons = graph_.output_units();
  response_.assign(neurons, std::vector<std::uint32_t>(classes, 0));
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto cls = static_cast<std::size_t>(items[i].label);
    for (std::size_t j = 0; j < neurons; ++j) {
      response_[j][cls] += counts[i][j];
    }
  }
  // Each neuron takes the class it responded to most (first on ties);
  // neurons that never spiked stay unlabelled (-1).
  std::vector<int> labels(neurons, -1);
  std::size_t labelled = 0;
  for (std::size_t j = 0; j < neurons; ++j) {
    std::uint32_t best = 0;
    for (std::size_t c = 0; c < classes; ++c) {
      if (response_[j][c] > best) {
        best = response_[j][c];
        labels[j] = static_cast<int>(c);
      }
    }
    if (labels[j] >= 0) ++labelled;
  }
  graph_.set_neuron_labels(std::move(labels));
  return labelled;
}

template <typename Item>
GraphEvaluation GraphTrainer::evaluate_items(std::span<const Item> items) {
  PSS_REQUIRE(!items.empty(), "evaluation set must not be empty");
  PSS_REQUIRE(!graph_.neuron_labels().empty(),
              "evaluate needs labelled neurons — call label() first");
  obs::TraceSpan span("evaluate", "pipeline",
                      static_cast<std::int64_t>(items.size()));
  const std::vector<std::vector<std::uint32_t>> counts = readout_counts(items);
  GraphEvaluation eval;
  eval.confusion.emplace(
      std::max(graph_.class_count(), data_class_count(items)));
  for (std::size_t i = 0; i < items.size(); ++i) {
    const int predicted = graph_predict(counts[i], graph_.neuron_labels(),
                                        graph_.class_count());
    eval.confusion->record(items[i].label, predicted);
    ++eval.total;
    if (predicted < 0) {
      ++eval.abstained;
    } else if (predicted == static_cast<int>(items[i].label)) {
      ++eval.correct;
    }
  }
  return eval;
}

TrainingStats GraphTrainer::train(const Dataset& train,
                                  const ProgressCallback& on_image) {
  return train_items(std::span(train.images()), on_image);
}

std::size_t GraphTrainer::label(const Dataset& labelling) {
  return label_items(std::span(labelling.images()));
}

GraphEvaluation GraphTrainer::evaluate(const Dataset& test) {
  return evaluate_items(std::span(test.images()));
}

TrainingStats GraphTrainer::train(const std::vector<GestureSequence>& train,
                                  const ProgressCallback& on_image) {
  return train_items(std::span(train), on_image);
}

std::size_t GraphTrainer::label(const std::vector<GestureSequence>& labelling) {
  return label_items(std::span(labelling));
}

GraphEvaluation GraphTrainer::evaluate(
    const std::vector<GestureSequence>& test) {
  return evaluate_items(std::span(test));
}

}  // namespace pss::graph
