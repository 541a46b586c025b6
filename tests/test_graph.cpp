// Layer-graph tests (src/pss/graph/):
//  * the one-layer contract — a single-WTA NetworkGraph is bitwise the
//    standalone WtaNetwork: same presentation outputs, same captured state,
//    byte-identical legacy snapshot files;
//  * spec grammar — parse ∘ canonical roundtrips, shape computation;
//  * determinism — stacked presentations are worker-count invariant and a
//    pure function of the presentation index (replay);
//  * layer-wise training — conv→pool→WTA beats chance on SyntheticDigits
//    and a Gabor front-end beats chance on the temporal-gesture workload;
//  * serialization — PSSSNAP2 and checkpoint-v2 roundtrips, the unified
//    model reader, and a committed pre-graph v1 checkpoint fixture that
//    must roundtrip bitwise through the stacked reader/writer.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "pss/common/error.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/data/temporal_gestures.hpp"
#include "pss/engine/batch_runner.hpp"
#include "pss/engine/launch.hpp"
#include "pss/graph/filter_bank.hpp"
#include "pss/graph/graph_snapshot.hpp"
#include "pss/graph/graph_trainer.hpp"
#include "pss/graph/layer_spec.hpp"
#include "pss/graph/network_graph.hpp"
#include "pss/io/snapshot.hpp"
#include "pss/network/wta_network.hpp"
#include "pss/robust/checkpoint.hpp"

namespace pss {
namespace {

using graph::GraphConfig;
using graph::GraphModel;
using graph::GraphResult;
using graph::NetworkGraph;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

WtaConfig base_config(std::uint64_t seed = 5) {
  WtaConfig cfg =
      WtaConfig::from_table1(LearningOption::kFloat32, StdpKind::kStochastic,
                             20);
  cfg.input_channels = 36;
  cfg.seed = seed;
  return cfg;
}

std::vector<double> test_rates(std::size_t n, std::uint64_t salt) {
  std::vector<double> rates(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = static_cast<double>((salt * 31 + i * 7) % 23);
  }
  return rates;
}

// ------------------------------------------------- one-layer bitwise contract

TEST(GraphSingleWta, PresentationsMatchStandaloneNetworkBitwise) {
  const WtaConfig cfg = base_config();
  WtaNetwork net(cfg);
  NetworkGraph g(graph::single_wta_graph(cfg));
  ASSERT_EQ(g.block_count(), 1u);
  ASSERT_EQ(g.input_units(), cfg.input_channels);

  for (std::uint64_t k = 0; k < 6; ++k) {
    const std::vector<double> rates = test_rates(cfg.input_channels, k);
    const bool learn = k % 2 == 0;
    const PresentationResult a = net.present(rates, 150.0, learn);
    const GraphResult b = g.present(rates, 150.0, learn ? 0 : -1);
    ASSERT_EQ(a.spike_counts, b.spike_counts) << "presentation " << k;
    ASSERT_EQ(a.input_spikes, b.input_spikes) << "presentation " << k;
  }

  // Learned state is bitwise identical too.
  const NetworkSnapshot sa = NetworkSnapshot::capture(net);
  const NetworkSnapshot sb = NetworkSnapshot::capture(g.block(0));
  EXPECT_EQ(sa.conductance, sb.conductance);
  EXPECT_EQ(sa.theta, sb.theta);
}

TEST(GraphSingleWta, ModelFileIsByteIdenticalToLegacySnapshot) {
  const WtaConfig cfg = base_config(11);
  WtaNetwork net(cfg);
  NetworkGraph g(graph::single_wta_graph(cfg));
  const std::vector<double> rates = test_rates(cfg.input_channels, 3);
  net.present(rates, 100.0, true);
  g.present(rates, 100.0, 0);

  std::vector<int> labels(cfg.neuron_count);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 4);
  }
  g.set_neuron_labels(labels);

  const std::string legacy = temp_path("pss_graph_legacy.bin");
  const std::string via_graph = temp_path("pss_graph_single.bin");
  save_snapshot(legacy, NetworkSnapshot::capture(net, &labels));
  const GraphModel model = GraphModel::capture(g);
  EXPECT_TRUE(model.single_layer());
  graph::save_graph_model(via_graph, model);
  EXPECT_EQ(read_file(legacy), read_file(via_graph));

  // And the unified reader restores it into an equivalent graph.
  const GraphModel back = graph::load_graph_model(via_graph);
  EXPECT_TRUE(back.single_layer());
  EXPECT_EQ(back.blocks.front().conductance,
            model.blocks.front().conductance);
  EXPECT_EQ(back.labels, model.labels);
}

// ----------------------------------------------------------- spec grammar

TEST(GraphSpec, CanonicalSpecRoundTrips) {
  const WtaConfig base = base_config();
  const std::string spec =
      "encode:peak=180,temporal=diff;conv:filters=6,kernel=5,bank=gabor;"
      "pool:window=2;wta:neurons=40,gain=2.5;wta:neurons=20;"
      "readout:inhibition=0";
  const GraphConfig cfg = graph::graph_config_from_spec(spec, base);
  EXPECT_TRUE(cfg.encode.temporal_diff);
  EXPECT_EQ(cfg.layers.size(), 4u);
  EXPECT_FALSE(cfg.readout.inhibition);
  const std::string canon = graph::canonical_layers_spec(cfg);
  const GraphConfig again = graph::graph_config_from_spec(canon, base);
  EXPECT_EQ(graph::canonical_layers_spec(again), canon);
}

TEST(GraphSpec, ComputesStackShapes) {
  const WtaConfig base = base_config();
  GraphConfig cfg = graph::graph_config_from_spec(
      "conv:filters=8,kernel=5;pool:window=2;wta:neurons=50", base);
  cfg.input = graph::LayerShape{1, 28, 28};
  const auto shapes = graph::compute_shapes(cfg);
  ASSERT_EQ(shapes.size(), 4u);
  EXPECT_EQ(shapes[1], (graph::LayerShape{8, 24, 24}));
  EXPECT_EQ(shapes[2], (graph::LayerShape{8, 12, 12}));
  EXPECT_EQ(shapes[3], (graph::LayerShape{1, 1, 50}));
}

TEST(GraphSpec, FilterBanksAreZeroMeanUnitNorm) {
  for (const graph::FilterBank bank :
       {graph::FilterBank::kDog, graph::FilterBank::kGabor}) {
    const std::vector<double> filters = graph::make_filter_bank(bank, 6, 5, 1);
    ASSERT_EQ(filters.size(), 6u * 5u * 5u);
    for (std::size_t f = 0; f < 6; ++f) {
      double sum = 0.0, norm = 0.0;
      for (std::size_t i = 0; i < 5 * 5; ++i) {
        const double w = filters[f * 5 * 5 + i];
        sum += w;
        norm += w * w;
      }
      EXPECT_NEAR(sum, 0.0, 1e-9) << "filter " << f;
      EXPECT_NEAR(norm, 1.0, 1e-9) << "filter " << f;
    }
  }
}

TEST(GraphSpec, TwoChannelFiltersAreOpponentPairs) {
  // Temporal-diff ON/OFF inputs get opponent weighting: the OFF plane is
  // the negated ON plane, so the filter reads the signed change pattern.
  const std::vector<double> filters =
      graph::make_filter_bank(graph::FilterBank::kGabor, 4, 5, 2);
  ASSERT_EQ(filters.size(), 4u * 2u * 5u * 5u);
  for (std::size_t f = 0; f < 4; ++f) {
    const double* on = filters.data() + f * 2 * 25;
    const double* off = on + 25;
    for (std::size_t i = 0; i < 25; ++i) {
      EXPECT_EQ(off[i], -on[i]) << "filter " << f << " tap " << i;
    }
  }
}

// ------------------------------------------------------------- determinism

GraphConfig stacked_config(const std::string& backend, std::uint64_t seed) {
  WtaConfig base = base_config(seed);
  base.backend = backend;
  GraphConfig cfg = graph::graph_config_from_spec(
      "conv:filters=4,kernel=7,stride=3;pool:window=2;wta:neurons=30", base);
  cfg.input = graph::LayerShape{1, 28, 28};
  return cfg;
}

Image test_frame(std::uint64_t salt) {
  Image img;
  img.width = 28;
  img.height = 28;
  img.pixels.resize(28 * 28);
  for (std::size_t i = 0; i < img.pixels.size(); ++i) {
    img.pixels[i] =
        static_cast<std::uint8_t>((salt * 37 + i * 13) % 256);
  }
  return img;
}

TEST(GraphDeterminism, StackedPresentationsAreWorkerCountInvariant) {
  const GraphConfig cfg = stacked_config("cpu", 9);
  Engine serial(1);
  NetworkGraph a(cfg, &serial);
  Engine pooled(4);
  NetworkGraph b(cfg, &pooled);
  for (std::uint64_t k = 0; k < 4; ++k) {
    const GraphResult ra = a.present_image(test_frame(k), 80.0, 0);
    const GraphResult rb = b.present_image(test_frame(k), 80.0, 0);
    ASSERT_EQ(ra.spike_counts, rb.spike_counts) << k;
    ASSERT_EQ(ra.input_spikes, rb.input_spikes) << k;
    ASSERT_EQ(ra.layer_spikes, rb.layer_spikes) << k;
  }
  const NetworkSnapshot sa = NetworkSnapshot::capture(a.block(0));
  const NetworkSnapshot sb = NetworkSnapshot::capture(b.block(0));
  EXPECT_EQ(sa.conductance, sb.conductance);
}

TEST(GraphDeterminism, PresentationIsPureFunctionOfIndex) {
  const GraphConfig cfg = stacked_config("cpu", 13);
  NetworkGraph g(cfg);
  const Image frame = test_frame(5);
  g.set_presentation_index(41);
  const GraphResult first = g.present_image(frame, 60.0, -1);
  g.set_presentation_index(41);
  const GraphResult replay = g.present_image(frame, 60.0, -1);
  EXPECT_EQ(first.spike_counts, replay.spike_counts);
  EXPECT_EQ(first.input_spikes, replay.input_spikes);
  EXPECT_EQ(first.layer_spikes, replay.layer_spikes);
}

TEST(GraphDeterminism, SequencePresentationsReplayBitwise) {
  WtaConfig base = base_config(17);
  GraphConfig cfg = graph::graph_config_from_spec(
      "encode:temporal=diff;conv:filters=4,kernel=7,stride=3;wta:neurons=24",
      base);
  cfg.input = graph::LayerShape{1, 28, 28};
  NetworkGraph g(cfg);
  std::vector<Image> frames;
  for (std::uint64_t f = 0; f < 4; ++f) frames.push_back(test_frame(f));
  g.set_presentation_index(7);
  const GraphResult first = g.present_sequence(frames, 20.0, -1);
  g.set_presentation_index(7);
  const GraphResult replay = g.present_sequence(frames, 20.0, -1);
  EXPECT_EQ(first.spike_counts, replay.spike_counts);
  EXPECT_EQ(first.input_spikes, replay.input_spikes);
}

// -------------------------------------------------------- layer-wise training

TEST(GraphTraining, StackedDigitsBeatChance) {
  SyntheticConfig synth;
  synth.train_count = 120;
  synth.test_count = 120;
  synth.seed = 7;
  const LabeledDataset data = make_synthetic_digits(synth);

  WtaConfig base = base_config(3);
  GraphConfig cfg = graph::graph_config_from_spec(
      "conv:filters=6,kernel=7,stride=2;pool:window=2;wta:neurons=80", base);
  cfg.input = graph::LayerShape{1, 28, 28};
  NetworkGraph g(cfg);
  graph::GraphTrainerConfig tc;
  tc.t_learn_ms = 150.0;
  tc.t_readout_ms = 150.0;
  graph::GraphTrainer trainer(g, tc);
  trainer.train(data.train.head(120));
  const auto [label_set, eval_set] = data.labelling_split(60);
  const std::size_t labelled = trainer.label(label_set);
  EXPECT_GT(labelled, 0u);
  const graph::GraphEvaluation eval = trainer.evaluate(eval_set.head(60));
  ASSERT_EQ(eval.total, 60u);
  // 10 classes — chance is 10%; the stack must be clearly above it.
  EXPECT_GT(eval.accuracy(), 0.15)
      << eval.correct << "/" << eval.total << " correct, " << eval.abstained
      << " abstained";
}

TEST(GraphTraining, TemporalGesturesBeatChance) {
  GestureConfig gc;
  gc.train_count = 96;
  gc.test_count = 96;
  const GestureDataset data = make_temporal_gestures(gc);
  ASSERT_EQ(data.train.size(), 96u);

  WtaConfig base = base_config(21);
  GraphConfig cfg = graph::graph_config_from_spec(
      "encode:temporal=diff;"
      "conv:filters=6,kernel=7,stride=3,bank=gabor;wta:neurons=80",
      base);
  cfg.input = graph::LayerShape{1, 28, 28};
  NetworkGraph g(cfg);
  graph::GraphTrainerConfig tc;
  tc.frame_ms = 20.0;
  graph::GraphTrainer trainer(g, tc);
  trainer.train(data.train);
  const std::vector<GestureSequence> label_set(data.test.begin(),
                                               data.test.begin() + 48);
  const std::vector<GestureSequence> eval_set(data.test.begin() + 48,
                                              data.test.end());
  trainer.label(label_set);
  const graph::GraphEvaluation eval = trainer.evaluate(eval_set);
  ASSERT_EQ(eval.total, 48u);
  // 8 direction classes — chance is 12.5%; the oriented Gabor front-end
  // over ON/OFF temporal-difference planes must be clearly above it.
  EXPECT_GT(eval.accuracy(), 0.25)
      << eval.correct << "/" << eval.total << " correct, " << eval.abstained
      << " abstained";
}

TEST(GraphTraining, LearnBlockSkipsLaterBlocks) {
  WtaConfig base = base_config(29);
  GraphConfig cfg = graph::graph_config_from_spec(
      "conv:filters=4,kernel=7,stride=3;wta:neurons=30;wta:neurons=16", base);
  cfg.input = graph::LayerShape{1, 28, 28};
  NetworkGraph g(cfg);
  ASSERT_EQ(g.block_count(), 2u);
  const GraphResult r = g.present_image(test_frame(1), 60.0, 0);
  // Training block 0: block 1 never ran, so the result reports block 0's
  // counts and the final stack layer records zero spikes.
  EXPECT_EQ(r.spike_counts.size(), 30u);
  EXPECT_EQ(r.layer_spikes.back(), 0u);
  const GraphResult full = g.present_image(test_frame(1), 60.0, -1);
  EXPECT_EQ(full.spike_counts.size(), 16u);
}

/// Labels + evaluates `items` on three replicas of `trained` — sequential,
/// BatchRunner(1), BatchRunner(3) — and asserts the results are bitwise
/// equal: labels, responses, confusion, and the advanced cursor.
template <typename Items>
void expect_batched_readout_matches_sequential(const NetworkGraph& trained,
                                               const Items& label_set,
                                               const Items& eval_set,
                                               graph::GraphTrainerConfig tc) {
  Engine serial(1);
  NetworkGraph seq = trained.replicate(&serial);
  NetworkGraph par1 = trained.replicate(&serial);
  NetworkGraph par3 = trained.replicate(&serial);
  BatchRunner one(1);
  BatchRunner three(3);
  graph::GraphTrainer ta(seq, tc);
  graph::GraphTrainer tb(par1, tc, &one);
  graph::GraphTrainer tc3(par3, tc, &three);
  const std::size_t labelled = ta.label(label_set);
  EXPECT_EQ(labelled, tb.label(label_set));
  EXPECT_EQ(labelled, tc3.label(label_set));
  EXPECT_EQ(ta.label_response(), tb.label_response());
  EXPECT_EQ(ta.label_response(), tc3.label_response());
  EXPECT_EQ(seq.neuron_labels(), par1.neuron_labels());
  EXPECT_EQ(seq.neuron_labels(), par3.neuron_labels());
  const graph::GraphEvaluation ra = ta.evaluate(eval_set);
  const graph::GraphEvaluation rb = tb.evaluate(eval_set);
  const graph::GraphEvaluation rc = tc3.evaluate(eval_set);
  EXPECT_EQ(ra.correct, rb.correct);
  EXPECT_EQ(ra.correct, rc.correct);
  EXPECT_EQ(ra.abstained, rc.abstained);
  EXPECT_EQ(ra.confusion->to_string(), rb.confusion->to_string());
  EXPECT_EQ(ra.confusion->to_string(), rc.confusion->to_string());
  EXPECT_EQ(seq.presentation_index(), par3.presentation_index());
  EXPECT_EQ(seq.block(0).now(), par3.block(0).now());
}

TEST(GraphTraining, BatchedStackedLabelAndEvalMatchSequential) {
  const LabeledDataset data = make_synthetic_digits(
      {.train_count = 6, .test_count = 20, .seed = 9});
  NetworkGraph g(stacked_config("cpu", 19));
  graph::GraphTrainerConfig tc;
  tc.t_learn_ms = 60.0;
  tc.t_readout_ms = 60.0;
  graph::GraphTrainer(g, tc).train(data.train);
  expect_batched_readout_matches_sequential(g, data.test.head(10),
                                            data.test.slice(10, 20), tc);
}

TEST(GraphTraining, BatchedSequenceLabelAndEvalMatchSequential) {
  GestureConfig gc;
  gc.train_count = 4;
  gc.test_count = 12;
  gc.frames = 4;
  const GestureDataset data = make_temporal_gestures(gc);
  WtaConfig base = base_config(23);
  GraphConfig cfg = graph::graph_config_from_spec(
      "encode:temporal=diff;conv:filters=4,kernel=7,stride=3;wta:neurons=16",
      base);
  cfg.input = graph::LayerShape{1, 28, 28};
  NetworkGraph g(cfg);
  graph::GraphTrainerConfig tc;
  tc.frame_ms = 20.0;
  graph::GraphTrainer(g, tc).train(data.train);
  const std::vector<GestureSequence> label_set(data.test.begin(),
                                               data.test.begin() + 6);
  const std::vector<GestureSequence> eval_set(data.test.begin() + 6,
                                              data.test.end());
  expect_batched_readout_matches_sequential(g, label_set, eval_set, tc);
}

TEST(GraphTraining, StackedMinibatchIsWorkerCountInvariant) {
  const LabeledDataset data = make_synthetic_digits(
      {.train_count = 6, .test_count = 1, .seed = 9});
  graph::GraphTrainerConfig tc;
  tc.t_learn_ms = 60.0;
  tc.batch_size = 4;  // 6 images: one full and one partial batch per block
  const GraphConfig cfg = graph::graph_config_from_spec(
      "wta:neurons=10;wta:neurons=6", base_config(31));
  NetworkGraph a(cfg);
  NetworkGraph b(cfg);
  BatchRunner one(1);
  BatchRunner three(3);
  const graph::TrainingStats sa =
      graph::GraphTrainer(a, tc, &one).train(data.train);
  const graph::TrainingStats sb =
      graph::GraphTrainer(b, tc, &three).train(data.train);
  EXPECT_EQ(sa.images_presented, 12u);  // two blocks, one sweep each
  EXPECT_EQ(sa.total_post_spikes, sb.total_post_spikes);
  for (std::size_t k = 0; k < a.block_count(); ++k) {
    EXPECT_EQ(a.block(k).conductance().to_vector(),
              b.block(k).conductance().to_vector())
        << "block " << k;
  }
  EXPECT_EQ(a.presentation_index(), b.presentation_index());
}

// ------------------------------------------------------------- serialization

NetworkGraph trained_stack(std::uint64_t seed) {
  NetworkGraph g(stacked_config("cpu", seed));
  for (std::uint64_t k = 0; k < 3; ++k) {
    g.present_image(test_frame(k), 60.0, 0);
  }
  std::vector<int> labels(g.output_units(), -1);
  for (std::size_t i = 0; i < labels.size(); i += 2) {
    labels[i] = static_cast<int>(i % 5);
  }
  g.set_neuron_labels(labels);
  return g;
}

TEST(GraphSnapshot, StackedModelRoundTripsThroughSnap2) {
  NetworkGraph g = trained_stack(31);
  const GraphModel model = GraphModel::capture(g);
  EXPECT_FALSE(model.single_layer());

  const std::string path = temp_path("pss_graph_stacked.bin");
  graph::save_graph_model(path, model);
  const GraphModel back = graph::load_graph_model(path);
  EXPECT_EQ(back.arch, model.arch);
  ASSERT_EQ(back.blocks.size(), model.blocks.size());
  for (std::size_t b = 0; b < model.blocks.size(); ++b) {
    EXPECT_EQ(back.blocks[b].conductance, model.blocks[b].conductance) << b;
    EXPECT_EQ(back.blocks[b].theta, model.blocks[b].theta) << b;
  }
  EXPECT_EQ(back.labels, model.labels);

  // Restoring into a fresh graph reproduces the source's presentations.
  NetworkGraph fresh(back.to_config(base_config(31)));
  back.restore(fresh);
  g.set_presentation_index(100);
  fresh.set_presentation_index(100);
  const GraphResult want = g.present_image(test_frame(9), 60.0, -1);
  const GraphResult got = fresh.present_image(test_frame(9), 60.0, -1);
  EXPECT_EQ(want.spike_counts, got.spike_counts);
}

TEST(GraphSnapshot, StackedCheckpointRoundTripsV2) {
  WtaConfig base = base_config(37);
  GraphConfig two_block = graph::graph_config_from_spec(
      "conv:filters=4,kernel=7,stride=3;wta:neurons=30;wta:neurons=16", base);
  two_block.input = graph::LayerShape{1, 28, 28};
  NetworkGraph g(two_block);
  for (std::uint64_t k = 0; k < 3; ++k) {
    g.present_image(test_frame(k), 60.0, 0);
  }
  std::vector<int> labels(g.output_units(), -1);
  for (std::size_t i = 0; i < labels.size(); i += 2) {
    labels[i] = static_cast<int>(i % 5);
  }
  g.set_neuron_labels(labels);
  ASSERT_EQ(g.block_count(), 2u);
  robust::StackedCheckpoint cp;
  cp.base = robust::TrainingCheckpoint::capture(g.block(0));
  cp.base.run_id = 77;
  cp.base.seed = 37;
  cp.arch = graph::canonical_layers_spec(g.config());
  cp.input_channels = 1;
  cp.input_height = 28;
  cp.input_width = 28;
  const NetworkSnapshot b1 = NetworkSnapshot::capture(g.block(1));
  robust::StackedCheckpoint::BlockState extra;
  extra.neuron_count = b1.neuron_count;
  extra.input_channels = b1.input_channels;
  extra.g_min = b1.g_min;
  extra.g_max = b1.g_max;
  extra.conductance = b1.conductance;
  extra.theta = b1.theta;
  cp.blocks.push_back(std::move(extra));
  cp.labels.assign(g.neuron_labels().begin(), g.neuron_labels().end());

  const std::string path = temp_path("pss_graph_ckpt_v2.bin");
  robust::save_stacked_checkpoint(path, cp);
  const robust::StackedCheckpoint back = robust::load_stacked_checkpoint(path);
  EXPECT_EQ(back.arch, cp.arch);
  EXPECT_EQ(back.base.run_id, 77u);
  EXPECT_EQ(back.base.conductance, cp.base.conductance);
  ASSERT_EQ(back.blocks.size(), 1u);
  EXPECT_EQ(back.blocks[0].conductance, cp.blocks[0].conductance);
  EXPECT_EQ(back.labels, cp.labels);

  // The unified model reader serves checkpoint v2 files too.
  const GraphModel model = graph::load_graph_model(path);
  EXPECT_EQ(model.arch, cp.arch);
  ASSERT_EQ(model.blocks.size(), 2u);
  EXPECT_EQ(model.blocks[1].conductance, cp.blocks[0].conductance);
}

TEST(GraphSnapshot, SingleLayerStackedCheckpointWritesExactV1Bytes) {
  WtaNetwork net(base_config(41));
  net.present(test_rates(36, 1), 100.0, true);
  robust::TrainingCheckpoint cp = robust::TrainingCheckpoint::capture(net);
  cp.run_id = 5;
  cp.images_done = 9;

  const std::string v1 = temp_path("pss_graph_ckpt_v1a.bin");
  const std::string stacked = temp_path("pss_graph_ckpt_v1b.bin");
  robust::save_checkpoint(v1, cp);
  robust::StackedCheckpoint wrap;
  wrap.base = cp;
  robust::save_stacked_checkpoint(stacked, wrap);
  EXPECT_EQ(read_file(v1), read_file(stacked));

  const robust::StackedCheckpoint back = robust::load_stacked_checkpoint(v1);
  EXPECT_TRUE(back.single_layer());
  EXPECT_EQ(back.base.conductance, cp.conductance);
  EXPECT_TRUE(back.blocks.empty());
}

// A pre-graph v1 checkpoint blob committed before the multi-layer format
// existed: the stacked reader must parse it and the stacked writer must
// reproduce it byte for byte (no silent format drift).
TEST(GraphSnapshot, CommittedV1FixtureRoundTripsBitwise) {
  const std::string fixture =
      std::string(PSS_TEST_DATA_DIR) + "/checkpoint_v1.bin";
  const robust::StackedCheckpoint cp = robust::load_stacked_checkpoint(fixture);
  EXPECT_TRUE(cp.single_layer());
  EXPECT_EQ(cp.base.run_id, 0xC0FFEE01u);
  EXPECT_EQ(cp.base.seed, 424242u);
  EXPECT_EQ(cp.base.images_done, 123u);
  EXPECT_EQ(cp.base.neuron_count, 10u);
  EXPECT_EQ(cp.base.input_channels, 25u);
  ASSERT_EQ(cp.base.conductance.size(), 250u);
  EXPECT_EQ(cp.base.conductance[0], 0.0);
  EXPECT_EQ(cp.base.conductance[1], 1.0 / 16.0);

  const std::string rewrite = temp_path("pss_graph_fixture_rewrite.bin");
  robust::save_stacked_checkpoint(rewrite, cp);
  EXPECT_EQ(read_file(fixture), read_file(rewrite));

  // The legacy v1 loader and the graph model reader agree on the same file.
  const robust::TrainingCheckpoint legacy = robust::load_checkpoint(fixture);
  EXPECT_EQ(legacy.conductance, cp.base.conductance);
  const GraphModel model = graph::load_graph_model(fixture);
  ASSERT_EQ(model.blocks.size(), 1u);
  EXPECT_EQ(model.blocks[0].conductance, cp.base.conductance);
}

TEST(GraphSnapshot, EmptyArchSaveRejectsExtraBlocks) {
  // Defensive: empty-arch saves must refuse to carry extra blocks.
  robust::StackedCheckpoint cp;
  cp.base.neuron_count = 2;
  cp.base.input_channels = 2;
  cp.base.conductance.assign(4, 0.5);
  cp.base.theta.assign(2, 0.0);
  cp.blocks.emplace_back();
  EXPECT_THROW(
      robust::save_stacked_checkpoint(temp_path("pss_graph_bad.bin"), cp),
      Error);
}

}  // namespace
}  // namespace pss
