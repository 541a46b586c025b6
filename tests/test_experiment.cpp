// Tests for the experiment harness and sweep utilities.
#include <gtest/gtest.h>

#include "pss/common/error.hpp"
#include "pss/common/log.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/experiment/experiment.hpp"
#include "pss/experiment/sweep.hpp"

namespace pss {
namespace {

class ExperimentHarness : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kWarn);
    data_ = new LabeledDataset(make_synthetic_digits(
        {.train_count = 60, .test_count = 120, .seed = 31}));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static ExperimentSpec tiny_spec() {
    ExperimentSpec spec;
    spec.name = "tiny";
    spec.neuron_count = 30;
    spec.train_images = 40;
    spec.label_images = 60;
    spec.eval_images = 60;
    spec.t_readout_ms = 150.0;
    return spec;
  }

  static LabeledDataset* data_;
};

LabeledDataset* ExperimentHarness::data_ = nullptr;

TEST_F(ExperimentHarness, SpecBuildsConfigsFromTable1) {
  ExperimentSpec spec = tiny_spec();
  spec.option = LearningOption::k8Bit;
  spec.kind = StdpKind::kDeterministic;
  spec.rounding = RoundingMode::kStochastic;
  const WtaConfig net = spec.network_config();
  EXPECT_EQ(net.neuron_count, 30u);
  EXPECT_EQ(net.stdp.kind, StdpKind::kDeterministic);
  EXPECT_EQ(net.stdp.rounding, RoundingMode::kStochastic);
  ASSERT_TRUE(net.stdp.format.has_value());
  EXPECT_EQ(net.stdp.format->name(), "Q1.7");
  const graph::GraphTrainerConfig tc = spec.trainer_config();
  EXPECT_DOUBLE_EQ(tc.f_max_hz, 22.0);
}

TEST_F(ExperimentHarness, SpecOverridesFrequencyAndTime) {
  ExperimentSpec spec = tiny_spec();
  spec.f_min_hz = 5.0;
  spec.f_max_hz = 78.0;
  spec.t_learn_ms = 100.0;
  const graph::GraphTrainerConfig tc = spec.trainer_config();
  EXPECT_DOUBLE_EQ(tc.f_min_hz, 5.0);
  EXPECT_DOUBLE_EQ(tc.f_max_hz, 78.0);
  EXPECT_DOUBLE_EQ(tc.t_learn_ms, 100.0);
}

TEST_F(ExperimentHarness, RunProducesCompleteResult) {
  const ExperimentResult r = run_learning_experiment(tiny_spec(), *data_);
  EXPECT_EQ(r.name, "tiny");
  EXPECT_GE(r.accuracy, 0.0);
  EXPECT_LE(r.accuracy, 1.0);
  EXPECT_NEAR(r.error_rate, 1.0 - r.accuracy, 1e-12);
  EXPECT_GT(r.labelled_neurons, 0u);
  EXPECT_GT(r.train_wall_seconds, 0.0);
  EXPECT_GE(r.total_wall_seconds, r.train_wall_seconds);
  EXPECT_DOUBLE_EQ(r.simulated_learning_ms, 40 * 500.0);
  EXPECT_GT(r.conductance_contrast, 0.0);
  ASSERT_EQ(r.error_trace.size(), 1u) << "no checkpoints -> final point only";
  EXPECT_EQ(r.error_trace[0].images_seen, 40u);
}

TEST_F(ExperimentHarness, CheckpointsProduceErrorTrace) {
  ExperimentSpec spec = tiny_spec();
  spec.checkpoints = 2;
  spec.checkpoint_eval_images = 30;
  const ExperimentResult r = run_learning_experiment(spec, *data_);
  ASSERT_EQ(r.error_trace.size(), 3u);
  EXPECT_LT(r.error_trace[0].images_seen, r.error_trace[1].images_seen);
  EXPECT_LT(r.error_trace[1].images_seen, r.error_trace[2].images_seen);
  for (const auto& p : r.error_trace) {
    EXPECT_GE(p.error_rate, 0.0);
    EXPECT_LE(p.error_rate, 1.0);
  }
}

TEST_F(ExperimentHarness, ConductanceMapsMatchNeuronCount) {
  WtaNetwork net(tiny_spec().network_config());
  const auto maps = conductance_maps(net, 10);
  ASSERT_EQ(maps.size(), 10u);
  EXPECT_EQ(maps[0].width, kImageSide);
  EXPECT_EQ(maps[0].height, kImageSide);
  const auto all = conductance_maps(net, 999);
  EXPECT_EQ(all.size(), 30u);
}

TEST_F(ExperimentHarness, EdgeFractionsDetectCollapse) {
  ConductanceMatrix m(2, 10, 0.0, 1.0);
  for (ChannelIndex c = 0; c < 10; ++c) {
    m.set(0, c, 0.0);
    m.set(1, c, 1.0);
  }
  const auto [bottom, top] = edge_fractions(m);
  EXPECT_DOUBLE_EQ(bottom, 0.5);
  EXPECT_DOUBLE_EQ(top, 0.5);
}

TEST_F(ExperimentHarness, SweepAppliesMutation) {
  const std::vector<double> values = {10.0, 20.0};
  std::vector<double> seen;
  const auto points =
      sweep(tiny_spec(), *data_, values,
            [&](ExperimentSpec& spec, double v) {
              seen.push_back(v);
              spec.train_images = 10;  // keep it cheap
              spec.f_max_hz = v;
            });
  EXPECT_EQ(seen, values);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].parameter, 10.0);
}

TEST_F(ExperimentHarness, FrequencySweepScalesTime) {
  ExperimentSpec base = tiny_spec();
  base.train_images = 8;
  const auto points =
      sweep_input_frequency(base, *data_, {44.0}, /*scale_t_learn=*/true);
  ASSERT_EQ(points.size(), 1u);
  // 44 Hz = 2x baseline 22 Hz -> t_learn halves to 250 ms over 8 images.
  EXPECT_DOUBLE_EQ(points[0].result.simulated_learning_ms, 8 * 250.0);
}

TEST_F(ExperimentHarness, RejectsEmptyInputs) {
  ExperimentSpec spec = tiny_spec();
  spec.train_images = 0;
  EXPECT_THROW(run_learning_experiment(spec, *data_), Error);
  EXPECT_THROW(sweep(tiny_spec(), *data_, {},
                     [](ExperimentSpec&, double) {}),
               Error);
}

}  // namespace
}  // namespace pss
