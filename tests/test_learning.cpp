// Tests for homeostasis and the train/label/evaluate driver
// (graph::GraphTrainer) on the paper's single-layer network, plus a small
// end-to-end unsupervised-learning integration check.
#include <gtest/gtest.h>

#include <cmath>

#include "pss/common/error.hpp"
#include "pss/common/log.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/engine/batch_runner.hpp"
#include "pss/engine/launch.hpp"
#include "pss/graph/graph_trainer.hpp"
#include "pss/learning/homeostasis.hpp"

namespace pss {
namespace {

TEST(AdaptiveThreshold, SpikeRaisesTheta) {
  AdaptiveThreshold theta(3, HomeostasisParams{true, 0.5, 1000.0, 10.0});
  theta.on_spike(1);
  theta.on_spike(1);
  EXPECT_DOUBLE_EQ(theta.theta()[0], 0.0);
  EXPECT_DOUBLE_EQ(theta.theta()[1], 1.0);
}

TEST(AdaptiveThreshold, DecayIsExponential) {
  AdaptiveThreshold theta(1, HomeostasisParams{true, 1.0, 100.0, 10.0});
  theta.on_spike(0);
  theta.decay(100.0);
  EXPECT_NEAR(theta.theta()[0], std::exp(-1.0), 1e-9);
}

TEST(AdaptiveThreshold, CapAtThetaMax) {
  AdaptiveThreshold theta(1, HomeostasisParams{true, 5.0, 1000.0, 7.0});
  for (int i = 0; i < 10; ++i) theta.on_spike(0);
  EXPECT_DOUBLE_EQ(theta.theta()[0], 7.0);
}

TEST(AdaptiveThreshold, DisabledIsInert) {
  AdaptiveThreshold theta(2, HomeostasisParams{false, 1.0, 100.0, 10.0});
  theta.on_spike(0);
  theta.decay(1.0);
  EXPECT_DOUBLE_EQ(theta.theta()[0], 0.0);
}

TEST(AdaptiveThreshold, ResetClears) {
  AdaptiveThreshold theta(1, HomeostasisParams{});
  theta.on_spike(0);
  theta.reset();
  EXPECT_DOUBLE_EQ(theta.theta()[0], 0.0);
}

TEST(AdaptiveThreshold, RejectsBadParams) {
  EXPECT_THROW(AdaptiveThreshold(1, HomeostasisParams{true, -0.1, 100.0, 1.0}),
               Error);
  EXPECT_THROW(AdaptiveThreshold(1, HomeostasisParams{true, 0.1, 0.0, 1.0}),
               Error);
}

using graph::GraphEvaluation;
using graph::GraphTrainer;
using graph::GraphTrainerConfig;
using graph::NetworkGraph;
using graph::TrainingStats;

TEST(GraphTrainerConfig, FromTable1PicksRowOperatingPoint) {
  const GraphTrainerConfig base =
      GraphTrainerConfig::from_table1(LearningOption::kFloat32);
  EXPECT_DOUBLE_EQ(base.f_min_hz, 1.0);
  EXPECT_DOUBLE_EQ(base.f_max_hz, 22.0);
  EXPECT_DOUBLE_EQ(base.t_learn_ms, 500.0);
  const GraphTrainerConfig hf =
      GraphTrainerConfig::from_table1(LearningOption::kHighFrequency);
  EXPECT_DOUBLE_EQ(hf.f_max_hz, 78.0);
  EXPECT_DOUBLE_EQ(hf.t_learn_ms, 100.0);
}

/// Table I baseline encoding (1–22 Hz) with the given presentation times.
GraphTrainerConfig trainer_config(TimeMs t_learn, TimeMs t_readout = 200.0) {
  GraphTrainerConfig tc;
  tc.f_min_hz = 1.0;
  tc.f_max_hz = 22.0;
  tc.t_learn_ms = t_learn;
  tc.t_readout_ms = t_readout;
  return tc;
}

class LearningPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kWarn);
    data_ = new LabeledDataset(make_synthetic_digits(
        {.train_count = 120, .test_count = 160, .seed = 21}));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static WtaConfig config() {
    WtaConfig cfg =
        WtaConfig::from_table1(LearningOption::kFloat32, StdpKind::kStochastic, 40);
    cfg.seed = 5;
    return cfg;
  }

  static NetworkGraph network(const WtaConfig& cfg = config()) {
    return NetworkGraph(graph::single_wta_graph(cfg));
  }

  static LabeledDataset* data_;
};

LabeledDataset* LearningPipeline::data_ = nullptr;

TEST_F(LearningPipeline, TrainerReportsStats) {
  NetworkGraph net = network();
  GraphTrainer trainer(net, trainer_config(200.0));
  std::size_t callbacks = 0;
  const TrainingStats stats =
      trainer.train(data_->train.head(10), [&](std::size_t) { ++callbacks; });
  EXPECT_EQ(stats.images_presented, 10u);
  EXPECT_EQ(callbacks, 10u);
  EXPECT_DOUBLE_EQ(stats.simulated_ms, 2000.0);
  EXPECT_GT(stats.total_input_spikes, 0u);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST_F(LearningPipeline, LabelerAssignsClasses) {
  NetworkGraph net = network();
  GraphTrainer trainer(net, trainer_config(300.0, 250.0));
  trainer.train(data_->train.head(60));
  const std::size_t labelled = trainer.label(data_->test.head(60));
  EXPECT_EQ(net.neuron_labels().size(), 40u);
  EXPECT_EQ(trainer.label_response().front().size(), 10u);  // classes
  EXPECT_GT(labelled, 20u) << "most neurons should respond";
  for (int label : net.neuron_labels()) {
    EXPECT_GE(label, -1);
    EXPECT_LT(label, 10);
  }
}

TEST_F(LearningPipeline, EndToEndBeatsChanceByWideMargin) {
  NetworkGraph net = network();
  GraphTrainer trainer(net, trainer_config(400.0, 300.0));
  trainer.train(data_->train);
  const auto [label_set, eval_set] = data_->labelling_split(80);
  trainer.label(label_set);
  const GraphEvaluation result = trainer.evaluate(eval_set.head(80));
  EXPECT_GT(result.accuracy(), 0.3) << "chance is 0.1";
  EXPECT_EQ(result.confusion->total(), 80u);
}

TEST_F(LearningPipeline, ClassifierValidatesInputs) {
  NetworkGraph net = network();
  std::vector<int> wrong_size(10, 0);
  EXPECT_THROW(net.set_neuron_labels(wrong_size), Error);
  const std::vector<std::uint32_t> counts(40, 1);
  std::vector<int> bad_label(40, 12);
  EXPECT_THROW(graph::graph_predict(counts, bad_label, 10), Error);
  // No class to vote for: the rule abstains instead of guessing.
  std::vector<int> ok(40, -1);
  EXPECT_EQ(graph::graph_predict(counts, ok, 0), -1);
  // Evaluating before labelling is an error, not a silent 0 %.
  GraphTrainer trainer(net, trainer_config(100.0));
  EXPECT_THROW(trainer.evaluate(data_->test.head(2)), Error);
}

TEST_F(LearningPipeline, UntrainedNetworkNearChance) {
  NetworkGraph net = network();
  GraphTrainer trainer(net, trainer_config(200.0, 200.0));
  const auto [label_set, eval_set] = data_->labelling_split(80);
  trainer.label(label_set);
  const GraphEvaluation result = trainer.evaluate(eval_set.head(60));
  EXPECT_LT(result.accuracy(), 0.45)
      << "random initial conductances should not classify well";
}

TEST_F(LearningPipeline, BatchedLabellingAndEvalMatchSequential) {
  // Core acceptance criterion: batched labelling/evaluation is bitwise
  // identical to the sequential path at every worker count.
  NetworkGraph net = network();
  GraphTrainer(net, trainer_config(250.0)).train(data_->train.head(25));

  Engine serial(1);
  NetworkGraph seq = net.replicate(&serial);
  NetworkGraph par1 = net.replicate(&serial);
  NetworkGraph par3 = net.replicate(&serial);

  const auto [label_set_full, eval_set] = data_->labelling_split(60);
  const Dataset label_set = label_set_full.head(30);
  const Dataset eval = eval_set.head(30);

  BatchRunner one(1);
  BatchRunner three(3);
  GraphTrainer ta(seq, trainer_config(250.0, 200.0));
  GraphTrainer tb(par1, trainer_config(250.0, 200.0), &one);
  GraphTrainer tc(par3, trainer_config(250.0, 200.0), &three);
  const std::size_t a = ta.label(label_set);
  const std::size_t b = tb.label(label_set);
  const std::size_t c = tc.label(label_set);
  EXPECT_EQ(seq.neuron_labels(), par1.neuron_labels());
  EXPECT_EQ(seq.neuron_labels(), par3.neuron_labels());
  EXPECT_EQ(ta.label_response(), tb.label_response());
  EXPECT_EQ(ta.label_response(), tc.label_response());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  // The source network's clock/counter advance exactly as sequentially.
  EXPECT_EQ(seq.presentation_index(), par3.presentation_index());
  EXPECT_DOUBLE_EQ(seq.block(0).now(), par3.block(0).now());

  const GraphEvaluation ra = ta.evaluate(eval);
  const GraphEvaluation rb = tb.evaluate(eval);
  const GraphEvaluation rc = tc.evaluate(eval);
  EXPECT_DOUBLE_EQ(ra.accuracy(), rb.accuracy());
  EXPECT_DOUBLE_EQ(ra.accuracy(), rc.accuracy());
  EXPECT_EQ(ra.confusion->to_string(), rb.confusion->to_string());
  EXPECT_EQ(ra.confusion->to_string(), rc.confusion->to_string());
}

TEST_F(LearningPipeline, MinibatchTrainingIsWorkerCountInvariant) {
  // Minibatch STDP changes the update schedule (batch boundaries), but for a
  // fixed batch size the result must not depend on how many workers computed
  // the per-image deltas.
  GraphTrainerConfig tc = trainer_config(250.0);
  tc.batch_size = 5;

  NetworkGraph a = network();
  NetworkGraph b = network();
  BatchRunner one(1);
  BatchRunner four(4);
  GraphTrainer ta(a, tc, &one);
  GraphTrainer tb(b, tc, &four);
  const Dataset train = data_->train.head(18);  // last batch partial (3)
  const TrainingStats sa = ta.train(train);
  const TrainingStats sb = tb.train(train);

  const WtaNetwork& na = a.block(0);
  const WtaNetwork& nb = b.block(0);
  EXPECT_EQ(na.conductance().to_vector(), nb.conductance().to_vector());
  EXPECT_EQ(std::vector<double>(na.theta().begin(), na.theta().end()),
            std::vector<double>(nb.theta().begin(), nb.theta().end()));
  EXPECT_EQ(sa.total_post_spikes, sb.total_post_spikes);
  EXPECT_EQ(sa.total_input_spikes, sb.total_input_spikes);
  EXPECT_EQ(a.presentation_index(), b.presentation_index());
  EXPECT_DOUBLE_EQ(na.now(), nb.now());
}

TEST_F(LearningPipeline, MinibatchTrainingStillLearns) {
  GraphTrainerConfig tc = trainer_config(300.0);
  tc.batch_size = 6;
  NetworkGraph net = network();
  BatchRunner runner(2);
  GraphTrainer trainer(net, tc, &runner);
  const auto before = net.block(0).conductance().to_vector();
  std::size_t callbacks = 0;
  const TrainingStats stats =
      trainer.train(data_->train.head(24), [&](std::size_t index) {
        EXPECT_EQ(index, callbacks);  // in image order, every image
        ++callbacks;
      });
  EXPECT_EQ(stats.images_presented, 24u);
  EXPECT_EQ(callbacks, 24u);
  EXPECT_DOUBLE_EQ(stats.simulated_ms, 24 * 300.0);
  EXPECT_GT(stats.total_post_spikes, 0u);
  EXPECT_NE(net.block(0).conductance().to_vector(), before)
      << "minibatch STDP must still move conductances";
}

TEST_F(LearningPipeline, MinibatchKeepsQuantizedConductanceOnGrid) {
  // Accumulated deltas must respect the low-precision grid: grid values are
  // binary fractions, so delta accumulation is exact.
  WtaConfig cfg =
      WtaConfig::from_table1(LearningOption::k2Bit, StdpKind::kStochastic, 40);
  cfg.seed = 5;
  GraphTrainerConfig tc = trainer_config(250.0);
  tc.batch_size = 4;
  NetworkGraph net = network(cfg);
  BatchRunner runner(3);
  GraphTrainer(net, tc, &runner).train(data_->train.head(12));
  for (double g : net.block(0).conductance().to_vector()) {
    ASSERT_TRUE(q0_2().representable(g)) << g;
  }
}

TEST_F(LearningPipeline, AllAbstainWhenNeuronsUnlabelled) {
  NetworkGraph net = network();
  net.set_neuron_labels(std::vector<int>(40, -1));
  GraphTrainer trainer(net, trainer_config(100.0, 100.0));
  const GraphEvaluation result = trainer.evaluate(data_->test.head(1));
  EXPECT_EQ(result.abstained, 1u);
  EXPECT_EQ(result.confusion->abstentions(), 1u);
}

TEST_F(LearningPipeline, ClassNoNeuronWonCountsAsAnError) {
  // A model whose labels cover classes 0..1, evaluated on data with higher
  // labels: the confusion matrix spans the model's classes and the data's
  // labels together, and every uncovered-class image scores as an error.
  NetworkGraph net = network();
  std::vector<int> labels(40, -1);
  labels[0] = 0;
  labels[1] = 1;
  net.set_neuron_labels(labels);
  ASSERT_EQ(net.class_count(), 2u);
  GraphTrainer trainer(net, trainer_config(100.0, 100.0));
  const Dataset eval = data_->test.head(20);
  const GraphEvaluation result = trainer.evaluate(eval);
  EXPECT_EQ(result.total, 20u);
  EXPECT_EQ(result.confusion->class_count(), eval.class_count());
  std::size_t uncovered = 0;
  for (const Image& image : eval.images()) uncovered += image.label >= 2;
  ASSERT_GT(uncovered, 0u);
  EXPECT_LE(result.correct, eval.size() - uncovered);
}

}  // namespace
}  // namespace pss
