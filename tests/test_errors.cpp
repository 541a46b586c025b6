// Systematic failure injection: every public API must reject invalid input
// with pss::Error (never UB or silent misbehaviour). Grouped here so the
// error-handling contract is auditable in one place; happy-path behaviour is
// tested in the per-module files.
#include <gtest/gtest.h>

#include "pss/common/error.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/encoding/frequency_control.hpp"
#include "pss/encoding/pixel_frequency.hpp"
#include "pss/experiment/experiment.hpp"
#include "pss/io/pgm.hpp"
#include "pss/graph/graph_trainer.hpp"
#include "pss/neuron/adex.hpp"
#include "pss/neuron/characterize.hpp"
#include "pss/stats/histogram.hpp"
#include "pss/stats/raster.hpp"
#include "pss/stats/spiketrain.hpp"
#include "pss/stats/summary.hpp"

namespace pss {
namespace {

TEST(ErrorContract, RequireMacroThrowsWithLocation) {
  try {
    PSS_REQUIRE(false, "the message");
    FAIL() << "PSS_REQUIRE(false) must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_errors.cpp"), std::string::npos);
    EXPECT_NE(what.find("the message"), std::string::npos);
  }
}

TEST(ErrorContract, NeuronModels) {
  LifParameters lif = paper_lif_parameters();
  lif.v_reset = lif.v_threshold + 1.0;
  EXPECT_THROW(LifPopulation(4, lif), Error);
  EXPECT_THROW(IzhikevichPopulation(0, izhikevich_regular_spiking()), Error);
  AdexParameters adex = adex_regular_spiking();
  adex.tau_w = 0.0;
  EXPECT_THROW(AdexPopulation(4, adex), Error);
}

TEST(ErrorContract, Characterization) {
  EXPECT_THROW(lif_spiking_frequency(paper_lif_parameters(), 5.0,
                                     /*duration=*/100.0, /*settle=*/200.0),
               Error);
  EXPECT_THROW(lif_fi_curve(paper_lif_parameters(), 5.0, 1.0, 10), Error);
  EXPECT_THROW(lif_fi_curve(paper_lif_parameters(), 1.0, 5.0, 1), Error);
  // Rheobase with an upper bound that cannot elicit spiking.
  EXPECT_THROW(lif_rheobase(paper_lif_parameters(), 0.1), Error);
}

TEST(ErrorContract, Encoders) {
  EXPECT_THROW(PixelFrequencyMap(5.0, 1.0), Error);
  EXPECT_THROW(FrequencyControl(-1.0, 22.0, 500.0), Error);
  EXPECT_THROW(FrequencyControl(1.0, 22.0, 0.0), Error);
}

TEST(ErrorContract, NetworkGeometry) {
  WtaConfig cfg;
  cfg.neuron_count = 0;
  EXPECT_THROW(WtaNetwork{cfg}, Error);
  cfg = WtaConfig{};
  cfg.input_channels = 0;
  EXPECT_THROW(WtaNetwork{cfg}, Error);
  cfg = WtaConfig{};
  cfg.dt = 0.0;
  EXPECT_THROW(WtaNetwork{cfg}, Error);
  cfg = WtaConfig{};
  cfg.spike_amplitude = -1.0;
  EXPECT_THROW(WtaNetwork{cfg}, Error);
  cfg = WtaConfig{};
  cfg.init_g_lo = 0.9;
  cfg.init_g_hi = 0.1;
  EXPECT_THROW(WtaNetwork{cfg}, Error);
}

TEST(ErrorContract, LearningPipeline) {
  WtaConfig cfg = WtaConfig::from_table1(LearningOption::kFloat32,
                                         StdpKind::kStochastic, 8);
  cfg.input_channels = 16;
  graph::NetworkGraph net(graph::single_wta_graph(cfg));

  // Trainer rejects images whose pixel count mismatches the network.
  graph::GraphTrainerConfig tc;
  tc.f_min_hz = 1.0;
  tc.f_max_hz = 22.0;
  tc.t_learn_ms = 100.0;
  graph::GraphTrainer trainer(net, tc);
  Dataset wrong;
  wrong.push_back(Image(8, 8));  // 64 pixels vs 16 channels
  EXPECT_THROW(trainer.train(wrong), Error);

  // Zero presentation time.
  tc.t_learn_ms = 0.0;
  EXPECT_THROW(graph::GraphTrainer(net, tc), Error);

  // Labeler rejects an empty labelling set.
  EXPECT_THROW(trainer.label(Dataset{}), Error);
}

TEST(ErrorContract, ExperimentHarness) {
  const LabeledDataset data =
      make_synthetic_digits({.train_count = 10, .test_count = 10, .seed = 1});
  ExperimentSpec spec;
  spec.neuron_count = 5;
  spec.train_images = 5;
  spec.label_images = 10;  // consumes the whole test set...
  spec.eval_images = 5;    // ...leaving nothing to evaluate on
  EXPECT_THROW(run_learning_experiment(spec, data), Error);

  LabeledDataset empty;
  spec.label_images = 5;
  EXPECT_THROW(run_learning_experiment(spec, empty), Error);
}

TEST(ErrorContract, StatsInputs) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
  EXPECT_THROW(SpikeRaster(0, 100.0), Error);
  EXPECT_THROW(SpikeRaster(4, 0.0), Error);
  const std::vector<double> three = {1.0, 2.0, 3.0};
  EXPECT_THROW(quartile_contrast(three), Error);
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(pearson_correlation(a, b), Error);
  EXPECT_THROW(van_rossum_distance(a, b, 0.0), Error);
  EXPECT_THROW(fano_factor(a, 100.0, 100.0), Error);  // < 2 windows
}

TEST(ErrorContract, FileIo) {
  EXPECT_THROW(read_pgm("/nonexistent/file.pgm"), Error);
  EXPECT_THROW(write_pgm("/nonexistent/dir/file.pgm", Image{}), Error);
  std::vector<double> short_row(10, 0.0);
  EXPECT_THROW(conductance_to_image(short_row, 28, 28, 0.0, 1.0), Error);
  EXPECT_THROW(tile_images({}, 2, 2), Error);
}

TEST(ErrorContract, ConductanceAndWindows) {
  ConductanceMatrix m(2, 4);
  EXPECT_THROW(m.row(5), Error);
  EXPECT_THROW(m.row_mut(5), Error);
  StdpUpdaterConfig stdp;
  stdp.det_window_ms = 0.0;
  EXPECT_THROW(StdpUpdater{stdp}, Error);
}

}  // namespace
}  // namespace pss
