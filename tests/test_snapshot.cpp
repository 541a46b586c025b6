// Tests for trained-model serialization (pss/io/snapshot.hpp): capture /
// save / load / restore round-trips and format robustness.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "pss/common/error.hpp"
#include "pss/common/log.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/graph/graph_trainer.hpp"
#include "pss/io/snapshot.hpp"

namespace pss {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

WtaConfig tiny_config() {
  WtaConfig cfg =
      WtaConfig::from_table1(LearningOption::kFloat32, StdpKind::kStochastic, 12);
  cfg.input_channels = 64;
  cfg.seed = 3;
  return cfg;
}

TEST(Snapshot, CaptureReflectsNetworkState) {
  WtaNetwork net(tiny_config());
  const NetworkSnapshot snap = NetworkSnapshot::capture(net);
  EXPECT_EQ(snap.neuron_count, 12u);
  EXPECT_EQ(snap.input_channels, 64u);
  EXPECT_EQ(snap.conductance.size(), 12u * 64u);
  EXPECT_EQ(snap.conductance, net.conductance().to_vector());
  EXPECT_EQ(snap.theta.size(), 12u);
  EXPECT_TRUE(snap.neuron_labels.empty());
}

TEST(Snapshot, CaptureWithLabels) {
  WtaNetwork net(tiny_config());
  const std::vector<int> labels(12, 3);
  const NetworkSnapshot snap = NetworkSnapshot::capture(net, &labels);
  ASSERT_EQ(snap.neuron_labels.size(), 12u);
  EXPECT_EQ(snap.neuron_labels[0], 3);
  const std::vector<int> wrong(5, 0);
  EXPECT_THROW(NetworkSnapshot::capture(net, &wrong), Error);
}

TEST(Snapshot, FileRoundTripIsExact) {
  WtaNetwork net(tiny_config());
  std::vector<double> rates(64, 20.0);
  net.present(rates, 300.0, true);  // learn something non-trivial
  const std::vector<int> labels = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, -1, 0};
  const NetworkSnapshot snap = NetworkSnapshot::capture(net, &labels);

  const std::string path = temp_path("pss_snap.bin");
  save_snapshot(path, snap);
  const NetworkSnapshot back = load_snapshot(path);
  EXPECT_EQ(back.neuron_count, snap.neuron_count);
  EXPECT_EQ(back.input_channels, snap.input_channels);
  EXPECT_EQ(back.conductance, snap.conductance);
  EXPECT_EQ(back.theta, snap.theta);
  EXPECT_EQ(back.neuron_labels, snap.neuron_labels);
  std::remove(path.c_str());
}

TEST(Snapshot, RestoreTransfersLearnedState) {
  WtaNetwork trained(tiny_config());
  std::vector<double> rates(64, 1.0);
  for (int c = 0; c < 16; ++c) rates[c] = 45.0;
  for (int i = 0; i < 6; ++i) trained.present(rates, 300.0, true);
  const NetworkSnapshot snap = NetworkSnapshot::capture(trained);

  WtaConfig cfg = tiny_config();
  cfg.seed = 999;  // different init
  WtaNetwork fresh(cfg);
  ASSERT_NE(fresh.conductance().to_vector(), trained.conductance().to_vector());
  snap.restore(fresh);
  EXPECT_EQ(fresh.conductance().to_vector(),
            trained.conductance().to_vector());
  for (std::size_t j = 0; j < 12; ++j) {
    EXPECT_DOUBLE_EQ(fresh.theta()[j], trained.theta()[j]);
  }
}

TEST(Snapshot, RestoredNetworkClassifiesLikeOriginal) {
  set_log_level(LogLevel::kWarn);
  const LabeledDataset data =
      make_synthetic_digits({.train_count = 60, .test_count = 60, .seed = 4});
  WtaConfig cfg =
      WtaConfig::from_table1(LearningOption::kFloat32, StdpKind::kStochastic, 30);
  cfg.seed = 11;
  graph::NetworkGraph trained(graph::single_wta_graph(cfg));
  graph::GraphTrainerConfig tc;
  tc.f_min_hz = 1.0;
  tc.f_max_hz = 22.0;
  tc.t_learn_ms = 300.0;
  tc.t_readout_ms = 200.0;
  graph::GraphTrainer trainer(trained, tc);
  trainer.train(data.train);
  trainer.label(data.test.head(30));

  const NetworkSnapshot snap =
      NetworkSnapshot::capture(trained.block(0), &trained.neuron_labels());
  const std::string path = temp_path("pss_snap_cls.bin");
  save_snapshot(path, snap);

  // Deploy: fresh network, restore, classify — predictions must match the
  // original network's (identical state, identical counter-based streams
  // are NOT guaranteed because the clock differs, so compare via accuracy
  // on a fixed set instead of per-image equality).
  WtaConfig fresh_cfg = cfg;
  fresh_cfg.seed = 222;
  graph::NetworkGraph deployed(graph::single_wta_graph(fresh_cfg));
  const NetworkSnapshot loaded = load_snapshot(path);
  loaded.restore(deployed.block(0));
  deployed.set_neuron_labels(std::vector<int>(loaded.neuron_labels.begin(),
                                              loaded.neuron_labels.end()));

  graph::GraphTrainer b(deployed, tc);
  const Dataset eval = data.test.slice(30, 60);
  const double acc_a = trainer.evaluate(eval).accuracy();
  const double acc_b = b.evaluate(eval).accuracy();
  EXPECT_NEAR(acc_a, acc_b, 0.25)
      << "restored network must perform like the original";
  std::remove(path.c_str());
}

TEST(Snapshot, RestoreRejectsGeometryMismatch) {
  WtaNetwork net(tiny_config());
  NetworkSnapshot snap = NetworkSnapshot::capture(net);
  snap.neuron_count = 13;
  EXPECT_THROW(snap.restore(net), Error);
}

TEST(Snapshot, LoadRejectsCorruptFiles) {
  const std::string path = temp_path("pss_snap_bad.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a snapshot at all";
  }
  EXPECT_THROW(load_snapshot(path), Error);
  std::remove(path.c_str());
  EXPECT_THROW(load_snapshot("/nonexistent/snap.bin"), Error);
}

TEST(Snapshot, SaveRejectsEmptySnapshot) {
  NetworkSnapshot empty;
  EXPECT_THROW(save_snapshot(temp_path("pss_empty.bin"), empty), Error);
}

TEST(Snapshot, TruncatedFileFailsCleanly) {
  WtaNetwork net(tiny_config());
  const NetworkSnapshot snap = NetworkSnapshot::capture(net);
  const std::string path = temp_path("pss_snap_trunc.bin");
  save_snapshot(path, snap);
  // Chop the file in half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(load_snapshot(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pss
