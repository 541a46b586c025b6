// Fault-tolerance tests (pss/robust/ + hardened engine/IO paths): CRC32,
// fault-injection registry semantics, checkpoint format robustness (golden
// corruption matrix), bitwise checkpoint/resume for the sequential and
// batched trainers, worker-failure surfacing and transient-fault retries in
// BatchRunner/ThreadPool, divergence guards, and the synaptic fault models.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "pss/common/error.hpp"
#include "pss/common/log.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/engine/batch_runner.hpp"
#include "pss/engine/thread_pool.hpp"
#include "pss/io/config.hpp"
#include "pss/io/snapshot.hpp"
#include "pss/graph/graph_trainer.hpp"
#include "pss/network/wta_network.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/robust/checkpoint.hpp"
#include "pss/robust/crc32.hpp"
#include "pss/robust/fault_injection.hpp"
#include "pss/robust/guards.hpp"
#include "pss/robust/synaptic_faults.hpp"

namespace pss {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// XORs one byte of a file in place (corruption-matrix helper).
void flip_byte(const std::string& path, std::uint64_t offset,
               unsigned char mask = 0xFF) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ mask);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

/// Overwrites a little-endian u64 field of a file in place.
void patch_u64(const std::string& path, std::uint64_t offset,
               std::uint64_t value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Every fault-armed test runs against the process-wide injector, so clear
/// it on both sides to keep tests order-independent.
class RobustTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_level(LogLevel::kError);
    robust::faults().clear();
  }
  void TearDown() override { robust::faults().clear(); }
};

using Crc32Test = RobustTest;
using FaultInjectorTest = RobustTest;
using ConfigStrict = RobustTest;
using SnapshotRobust = RobustTest;
using CheckpointTest = RobustTest;
using ResumeTest = RobustTest;
using BatchFaults = RobustTest;
using PoolFaults = RobustTest;
using GuardsTest = RobustTest;
using SynapticFaults = RobustTest;

WtaConfig tiny_config(std::uint64_t seed = 7) {
  WtaConfig cfg =
      WtaConfig::from_table1(LearningOption::kFloat32, StdpKind::kStochastic, 12);
  cfg.seed = seed;
  return cfg;
}

graph::GraphTrainerConfig fast_trainer() {
  graph::GraphTrainerConfig tc;
  tc.t_learn_ms = 150.0;
  tc.f_min_hz = 1.0;
  tc.f_max_hz = 22.0;
  return tc;
}

graph::NetworkGraph tiny_graph(const WtaConfig& cfg = tiny_config()) {
  return graph::NetworkGraph(graph::single_wta_graph(cfg));
}

// ---------------------------------------------------------------------------
// CRC32

TEST_F(Crc32Test, KnownVector) {
  // The standard CRC-32 (IEEE 802.3 / zlib) check value.
  const char* s = "123456789";
  EXPECT_EQ(robust::crc32(s, 9), 0xCBF43926u);
}

TEST_F(Crc32Test, EmptyIsZero) { EXPECT_EQ(robust::crc32(nullptr, 0), 0u); }

TEST_F(Crc32Test, ChainingMatchesOneShot) {
  const char* s = "123456789";
  const std::uint32_t head = robust::crc32(s, 5);
  EXPECT_EQ(robust::crc32(s + 5, 4, head), robust::crc32(s, 9));
}

TEST_F(Crc32Test, DetectsSingleBitFlip) {
  std::vector<unsigned char> buf(64, 0xAB);
  const std::uint32_t clean = robust::crc32(buf.data(), buf.size());
  buf[17] ^= 0x01;
  EXPECT_NE(robust::crc32(buf.data(), buf.size()), clean);
}

// ---------------------------------------------------------------------------
// Fault-injection registry

TEST_F(FaultInjectorTest, UnarmedNeverFires) {
  auto& inj = robust::faults();
  EXPECT_FALSE(inj.any_armed());
  EXPECT_FALSE(inj.should_fire("io.snapshot.write"));
  EXPECT_NO_THROW(robust::fault_point("io.snapshot.write"));
}

TEST_F(FaultInjectorTest, AfterAndCountWindows) {
  auto& inj = robust::faults();
  inj.arm("x", {.rate = 1.0, .after = 2, .count = 2});
  // Hits 0,1 skipped; hits 2,3 fire; then the fire budget is spent.
  EXPECT_FALSE(inj.should_fire("x"));
  EXPECT_FALSE(inj.should_fire("x"));
  EXPECT_TRUE(inj.should_fire("x"));
  EXPECT_TRUE(inj.should_fire("x"));
  EXPECT_FALSE(inj.should_fire("x"));
  EXPECT_EQ(inj.fired("x"), 2u);
}

TEST_F(FaultInjectorTest, SpecParsing) {
  auto& inj = robust::faults();
  inj.arm_from_spec(
      "io.snapshot.read:rate=0.25,after=3,count=2,kind=fatal;"
      "shard.worker;synapse.perturb:rate=0.1,param=0.05");
  EXPECT_TRUE(inj.armed("io.snapshot.read"));
  EXPECT_TRUE(inj.armed("shard.worker"));
  EXPECT_TRUE(inj.armed("synapse.perturb"));
  EXPECT_DOUBLE_EQ(inj.rate("io.snapshot.read"), 0.25);
  EXPECT_FALSE(inj.transient("io.snapshot.read"));
  EXPECT_TRUE(inj.transient("shard.worker"));
  EXPECT_DOUBLE_EQ(inj.param("synapse.perturb"), 0.05);
  EXPECT_EQ(inj.armed_points().size(), 3u);
}

TEST_F(FaultInjectorTest, MalformedSpecsThrow) {
  auto& inj = robust::faults();
  EXPECT_THROW(inj.arm_from_spec("p:rate=abc"), Error);
  EXPECT_THROW(inj.arm_from_spec("p:bogus=1"), Error);
  EXPECT_THROW(inj.arm_from_spec("p:rate=0.5x"), Error);
  EXPECT_THROW(inj.arm_from_spec("p:kind=sometimes"), Error);
  EXPECT_THROW(inj.arm_from_spec(":rate=1"), Error);
}

TEST_F(FaultInjectorTest, RateDecisionsAreDeterministic) {
  auto& inj = robust::faults();
  const auto pattern = [&] {
    inj.clear();
    inj.set_seed(99);
    inj.arm("p", {.rate = 0.5});
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) fires.push_back(inj.should_fire("p"));
    return fires;
  };
  const auto a = pattern();
  const auto b = pattern();
  EXPECT_EQ(a, b);
  const auto fired =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 60u);  // ~100 expected at rate 0.5
  EXPECT_LT(fired, 140u);
}

TEST_F(FaultInjectorTest, FaultPointThrowsPerKind) {
  auto& inj = robust::faults();
  inj.arm("t", {.rate = 1.0, .count = 1});  // transient by default
  EXPECT_THROW(robust::fault_point("t"), TransientError);
  inj.arm("f", {.rate = 1.0, .count = 1, .transient = false});
  try {
    robust::fault_point("f");
    FAIL() << "expected an injected fault";
  } catch (const TransientError&) {
    FAIL() << "fatal arm must not throw TransientError";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected fault"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Satellite (a): strict numeric config parsing

TEST_F(ConfigStrict, RejectsTrailingGarbage) {
  Config cfg;
  cfg.set("workers", "4x");
  cfg.set("rate", "1e");
  try {
    cfg.get_int("workers", 0);
    FAIL() << "expected rejection of 'workers=4x'";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("workers"), std::string::npos);
    EXPECT_NE(what.find("4x"), std::string::npos);
  }
  EXPECT_THROW(cfg.get_double("rate", 0.0), Error);
}

TEST_F(ConfigStrict, AcceptsCompleteNumbers) {
  Config cfg;
  cfg.set("rate", "1e3");
  cfg.set("frac", "-0.25");
  cfg.set("workers", "8");
  EXPECT_DOUBLE_EQ(cfg.get_double("rate", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(cfg.get_double("frac", 0.0), -0.25);
  EXPECT_EQ(cfg.get_int("workers", 0), 8);
}

// ---------------------------------------------------------------------------
// Satellite (b): snapshot declared-size validation + atomic writes

TEST_F(SnapshotRobust, RejectsDeclaredSizeBeyondFile) {
  WtaNetwork net(tiny_config());
  const std::string path = temp_path("pss_robust_snap_huge.bin");
  save_snapshot(path, NetworkSnapshot::capture(net));
  // The conductance element count lives after magic(8) + neuron_count(4) +
  // input_channels(4) + g_min(8) + g_max(8) = offset 32. Declare an absurd
  // element count: the loader must fail with a named-section Error before
  // allocating, never bad_alloc.
  patch_u64(path, 32, 1ull << 60);
  try {
    load_snapshot(path);
    FAIL() << "expected rejection of an implausible element count";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("conductance"), std::string::npos);
  } catch (const std::bad_alloc&) {
    FAIL() << "declared-size validation must reject before allocating";
  }
  // A count that is plausible for the geometry but larger than the bytes
  // actually present must also be caught (truncation-style corruption).
  patch_u64(path, 32, 12 * 784);
  std::filesystem::resize_file(path, 4096);
  EXPECT_THROW(load_snapshot(path), Error);
  std::remove(path.c_str());
}

TEST_F(SnapshotRobust, InjectedWriteFaultLeavesPreviousFileIntact) {
  WtaNetwork net(tiny_config());
  const std::string path = temp_path("pss_robust_snap_atomic.bin");
  const NetworkSnapshot original = NetworkSnapshot::capture(net);
  save_snapshot(path, original);

  std::vector<double> rates(net.input_channels(), 20.0);
  net.present(rates, 150.0, /*learn=*/true);
  robust::faults().arm("io.snapshot.write", {.rate = 1.0, .count = 1});
  EXPECT_THROW(save_snapshot(path, NetworkSnapshot::capture(net)),
               TransientError);
  robust::faults().clear();

  // The failed write must not have clobbered the file or left a temp behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const NetworkSnapshot back = load_snapshot(path);
  EXPECT_EQ(back.conductance, original.conductance);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoint format

robust::TrainingCheckpoint trained_checkpoint(WtaNetwork& net) {
  std::vector<double> rates(net.input_channels(), 1.0);
  for (std::size_t c = 0; c < 100; ++c) rates[c] = 40.0;
  for (int i = 0; i < 3; ++i) net.present(rates, 150.0, /*learn=*/true);
  robust::TrainingCheckpoint cp = robust::TrainingCheckpoint::capture(net);
  cp.run_id = 0x1234;
  cp.parent_run_id = 0x99;
  cp.checkpoint_count = 2;
  cp.images_done = 3;
  cp.images_presented = 3;
  cp.total_post_spikes = 41;
  cp.total_input_spikes = 1234;
  cp.simulated_ms = 450.0;
  cp.wall_seconds = 1.5;
  return cp;
}

TEST_F(CheckpointTest, RoundTripIsBitwise) {
  WtaNetwork net(tiny_config());
  const robust::TrainingCheckpoint cp = trained_checkpoint(net);
  const std::string path = temp_path("pss_ckpt_roundtrip.bin");
  robust::save_checkpoint(path, cp);
  const robust::TrainingCheckpoint back = robust::load_checkpoint(path);
  EXPECT_EQ(back.run_id, cp.run_id);
  EXPECT_EQ(back.parent_run_id, cp.parent_run_id);
  EXPECT_EQ(back.checkpoint_count, cp.checkpoint_count);
  EXPECT_EQ(back.seed, cp.seed);
  EXPECT_EQ(back.images_done, cp.images_done);
  EXPECT_EQ(back.presentation_cursor, cp.presentation_cursor);
  EXPECT_EQ(back.now_ms, cp.now_ms);
  EXPECT_EQ(back.simulated_ms, cp.simulated_ms);
  EXPECT_EQ(back.wall_seconds, cp.wall_seconds);
  EXPECT_EQ(back.images_presented, cp.images_presented);
  EXPECT_EQ(back.total_post_spikes, cp.total_post_spikes);
  EXPECT_EQ(back.total_input_spikes, cp.total_input_spikes);
  EXPECT_EQ(back.neuron_count, cp.neuron_count);
  EXPECT_EQ(back.input_channels, cp.input_channels);
  EXPECT_EQ(back.conductance, cp.conductance);
  EXPECT_EQ(back.theta, cp.theta);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, RejectsImplausibleDeclaredPayloadSize) {
  WtaNetwork net(tiny_config());
  const std::string path = temp_path("pss_ckpt_huge_decl.bin");
  robust::save_checkpoint(path, trained_checkpoint(net));
  // Declared payload size lives at header offset 12. Declare ~5 GiB: the
  // loader must reject the header while the size is still uint64 — before it
  // reaches the size_t allocation (which would wrap on 32-bit) or tries to
  // reconcile it against the file length.
  patch_u64(path, 12, 5ull * 1024 * 1024 * 1024);
  try {
    robust::load_checkpoint(path);
    FAIL() << "expected rejection of a >4 GiB declared payload size";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos)
        << e.what();
  } catch (const std::bad_alloc&) {
    FAIL() << "implausible-size validation must reject before allocating";
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, CorruptionMatrix) {
  WtaNetwork net(tiny_config());
  const robust::TrainingCheckpoint cp = trained_checkpoint(net);
  const std::string good = temp_path("pss_ckpt_good.bin");
  robust::save_checkpoint(good, cp);
  const auto file_size = std::filesystem::file_size(good);
  // Header layout: magic[0,8) · version[8,12) · payload_size[12,20) ·
  // crc[20,24) · payload[24,...).
  struct Case {
    const char* name;
    std::uint64_t offset;
  };
  for (const Case& c : {Case{"magic", 0}, Case{"version", 8},
                        Case{"declared payload size", 12}, Case{"crc", 20},
                        Case{"payload first byte", 24},
                        Case{"payload last byte", file_size - 1},
                        Case{"payload middle", 24 + (file_size - 24) / 2}}) {
    const std::string bad = temp_path("pss_ckpt_bad.bin");
    std::filesystem::copy_file(good, bad,
                               std::filesystem::copy_options::overwrite_existing);
    flip_byte(bad, c.offset);
    EXPECT_THROW(robust::load_checkpoint(bad), Error)
        << "corrupting " << c.name << " must be detected";
    std::remove(bad.c_str());
  }
  // Truncations: below the header, at the header boundary, and mid-payload
  // (the vector-section boundary sits past offset 168 = fixed fields).
  for (const std::uint64_t keep :
       {std::uint64_t{10}, std::uint64_t{24}, std::uint64_t{168},
        file_size - 8}) {
    const std::string bad = temp_path("pss_ckpt_trunc.bin");
    std::filesystem::copy_file(good, bad,
                               std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(bad, keep);
    EXPECT_THROW(robust::load_checkpoint(bad), Error)
        << "truncation to " << keep << " bytes must be detected";
    std::remove(bad.c_str());
  }
  std::remove(good.c_str());
}

TEST_F(CheckpointTest, InjectedCorruptionIsCaughtByCrc) {
  WtaNetwork net(tiny_config());
  const std::string path = temp_path("pss_ckpt_injected.bin");
  robust::faults().arm("snapshot.corrupt", {.rate = 1.0, .count = 1});
  robust::save_checkpoint(path, trained_checkpoint(net));
  robust::faults().clear();
  try {
    robust::load_checkpoint(path);
    FAIL() << "expected the CRC to reject the corrupted payload";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, RestoreRejectsMismatchedNetwork) {
  WtaNetwork net(tiny_config(7));
  robust::TrainingCheckpoint cp = robust::TrainingCheckpoint::capture(net);
  WtaNetwork other_seed(tiny_config(8));
  EXPECT_THROW(cp.restore(other_seed), Error);
  WtaConfig big = tiny_config(7);
  big.neuron_count = 13;
  WtaNetwork other_geometry(big);
  EXPECT_THROW(cp.restore(other_geometry), Error);
}

// ---------------------------------------------------------------------------
// Checkpoint -> kill -> resume, bitwise equality

struct FinalState {
  std::vector<double> conductance;
  std::vector<double> theta;
  std::uint64_t presentation_index = 0;
  double now_ms = 0.0;
  graph::TrainingStats stats;
};

FinalState final_state(const graph::NetworkGraph& g,
                       const graph::TrainingStats& stats) {
  const WtaNetwork& net = g.block(0);
  return {net.conductance().to_vector(),
          {net.theta().begin(), net.theta().end()},
          g.presentation_index(),
          net.now(),
          stats};
}

void expect_bitwise_equal(const FinalState& a, const FinalState& b) {
  EXPECT_EQ(a.conductance, b.conductance);
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.presentation_index, b.presentation_index);
  EXPECT_EQ(a.now_ms, b.now_ms);
  EXPECT_EQ(a.stats.images_presented, b.stats.images_presented);
  EXPECT_EQ(a.stats.total_post_spikes, b.stats.total_post_spikes);
  EXPECT_EQ(a.stats.total_input_spikes, b.stats.total_input_spikes);
  EXPECT_EQ(a.stats.simulated_ms, b.stats.simulated_ms);
}

TEST_F(ResumeTest, SequentialKillAndResumeIsBitwise) {
  const LabeledDataset data =
      make_synthetic_digits({.train_count = 8, .test_count = 1, .seed = 4});
  const Dataset train = data.train.head(8);

  // Reference: one uninterrupted run.
  graph::NetworkGraph ref = tiny_graph();
  graph::GraphTrainer tref(ref, fast_trainer());
  const graph::TrainingStats sref = tref.train(train);

  // Interrupted run: checkpoint every 3 images, killed after image 5 (the
  // train.interrupt probe's hit ordinal equals the image index).
  const std::string path = temp_path("pss_resume_seq.ckpt");
  graph::GraphTrainerConfig tc = fast_trainer();
  tc.checkpoint_every = 3;
  tc.checkpoint_path = path;
  graph::NetworkGraph a = tiny_graph();
  graph::GraphTrainer ta(a, tc);
  robust::faults().arm("train.interrupt",
                       {.rate = 1.0, .after = 4, .count = 1,
                        .transient = false});
  EXPECT_THROW(ta.train(train), Error);
  robust::faults().clear();

  // Resume on a fresh network and finish the run.
  graph::NetworkGraph b = tiny_graph();
  graph::GraphTrainer tb(b, tc);
  const robust::StackedCheckpoint cp = robust::load_stacked_checkpoint(path);
  EXPECT_EQ(cp.base.images_done, 3u);
  tb.resume_from(cp);
  const graph::TrainingStats sb = tb.train(train);

  expect_bitwise_equal(final_state(ref, sref), final_state(b, sb));
  EXPECT_TRUE(tb.lineage().resumed);
  EXPECT_EQ(tb.lineage().parent_run_id, cp.base.run_id);
  EXPECT_NE(tb.lineage().run_id, cp.base.run_id);
  // The resumed run kept checkpointing: images 6 landed on disk.
  const robust::TrainingCheckpoint last = robust::load_checkpoint(path);
  EXPECT_EQ(last.images_done, 6u);
  EXPECT_GT(last.checkpoint_count, cp.base.checkpoint_count);
  std::remove(path.c_str());
}

/// Same kill/resume discipline on the event-driven backend: checkpoints are
/// captured at presentation boundaries, where the lazy-STDP pending lists
/// have just been flushed — so a resume replays the sparse path bitwise, with
/// no deferred updates to lose.
TEST_F(ResumeTest, SparseBackendKillAndResumeIsBitwise) {
  const LabeledDataset data =
      make_synthetic_digits({.train_count = 8, .test_count = 1, .seed = 4});
  const Dataset train = data.train.head(8);
  WtaConfig cfg = tiny_config();
  cfg.backend = "cpu_sparse";

  graph::NetworkGraph ref = tiny_graph(cfg);
  graph::GraphTrainer tref(ref, fast_trainer());
  const graph::TrainingStats sref = tref.train(train);

  const std::string path = temp_path("pss_resume_sparse.ckpt");
  graph::GraphTrainerConfig tc = fast_trainer();
  tc.checkpoint_every = 3;
  tc.checkpoint_path = path;
  graph::NetworkGraph a = tiny_graph(cfg);
  graph::GraphTrainer ta(a, tc);
  robust::faults().arm("train.interrupt",
                       {.rate = 1.0, .after = 4, .count = 1,
                        .transient = false});
  EXPECT_THROW(ta.train(train), Error);
  robust::faults().clear();

  graph::NetworkGraph b = tiny_graph(cfg);
  graph::GraphTrainer tb(b, tc);
  const robust::StackedCheckpoint cp = robust::load_stacked_checkpoint(path);
  EXPECT_EQ(cp.base.images_done, 3u);
  tb.resume_from(cp);
  const graph::TrainingStats sb = tb.train(train);

  expect_bitwise_equal(final_state(ref, sref), final_state(b, sb));
  std::remove(path.c_str());
}

TEST_F(ResumeTest, BatchedKillAndResumeIsBitwiseAcrossWorkerCounts) {
  const LabeledDataset data =
      make_synthetic_digits({.train_count = 8, .test_count = 1, .seed = 4});
  const Dataset train = data.train.head(8);
  graph::GraphTrainerConfig tc = fast_trainer();
  tc.batch_size = 2;

  // Reference: uninterrupted batched run, single worker.
  BatchRunner runner1(1);
  graph::NetworkGraph ref = tiny_graph();
  graph::GraphTrainer tref(ref, tc, &runner1);
  const graph::TrainingStats sref = tref.train(train);

  // Interrupted batched run: checkpoint at every batch boundary, killed
  // after the second batch (hit ordinal counts batch boundaries here).
  const std::string path = temp_path("pss_resume_batch.ckpt");
  graph::GraphTrainerConfig tck = tc;
  tck.checkpoint_every = 2;
  tck.checkpoint_path = path;
  graph::NetworkGraph a = tiny_graph();
  graph::GraphTrainer ta(a, tck, &runner1);
  robust::faults().arm("train.interrupt",
                       {.rate = 1.0, .after = 1, .count = 1,
                        .transient = false});
  EXPECT_THROW(ta.train(train), Error);
  robust::faults().clear();

  // Resume with MORE workers: worker count must not change the result.
  BatchRunner runner3(3);
  graph::NetworkGraph b = tiny_graph();
  graph::GraphTrainer tb(b, tck, &runner3);
  const robust::StackedCheckpoint cp = robust::load_stacked_checkpoint(path);
  EXPECT_EQ(cp.base.images_done, 4u);
  tb.resume_from(cp);
  const graph::TrainingStats sb = tb.train(train);

  expect_bitwise_equal(final_state(ref, sref), final_state(b, sb));
  std::remove(path.c_str());
}

TEST_F(ResumeTest, BatchedResumeRejectsMisalignedCheckpoint) {
  const LabeledDataset data =
      make_synthetic_digits({.train_count = 6, .test_count = 1, .seed = 4});
  const Dataset train = data.train.head(4);
  const std::string path = temp_path("pss_resume_misaligned.ckpt");

  // Sequential run checkpoints at image 3 — not a batch-2 boundary.
  graph::GraphTrainerConfig tc = fast_trainer();
  tc.checkpoint_every = 3;
  tc.checkpoint_path = path;
  graph::NetworkGraph a = tiny_graph();
  graph::GraphTrainer ta(a, tc);
  ta.train(train);
  EXPECT_EQ(robust::load_checkpoint(path).images_done, 3u);

  graph::NetworkGraph b = tiny_graph();
  graph::GraphTrainerConfig tb_cfg = fast_trainer();
  tb_cfg.batch_size = 2;
  BatchRunner runner(2);
  graph::GraphTrainer tb(b, tb_cfg, &runner);
  tb.resume_from(robust::load_stacked_checkpoint(path));
  EXPECT_THROW(tb.train(train), Error);
  std::remove(path.c_str());
}

TEST_F(ResumeTest, CheckpointWriteFailureDoesNotKillTraining) {
  const LabeledDataset data =
      make_synthetic_digits({.train_count = 6, .test_count = 1, .seed = 4});
  const Dataset train = data.train.head(6);
  const std::string path = temp_path("pss_resume_wfail.ckpt");
  graph::GraphTrainerConfig tc = fast_trainer();
  tc.checkpoint_every = 2;
  tc.checkpoint_path = path;
  graph::NetworkGraph net = tiny_graph();
  graph::GraphTrainer trainer(net, tc);

  const std::uint64_t failures_before =
      obs::metrics().counter("checkpoint.failures").value();
  // First checkpoint write fails; training must continue and the later
  // checkpoints must land.
  robust::faults().arm("io.snapshot.write", {.rate = 1.0, .count = 1});
  const graph::TrainingStats stats = trainer.train(train);
  robust::faults().clear();
  EXPECT_EQ(stats.images_presented, 6u);
  EXPECT_EQ(obs::metrics().counter("checkpoint.failures").value(),
            failures_before + 1);
  // The failed write at image 2 is retried at the next image (the overdue
  // interval keeps it eligible), so checkpoints land at 3 and 5.
  const robust::TrainingCheckpoint cp = robust::load_checkpoint(path);
  EXPECT_EQ(cp.images_done, 5u);
  std::remove(path.c_str());
}

TEST_F(ResumeTest, RequiresPathWhenCheckpointingEnabled) {
  graph::NetworkGraph net = tiny_graph();
  graph::GraphTrainerConfig tc = fast_trainer();
  tc.checkpoint_every = 5;  // no path
  EXPECT_THROW(graph::GraphTrainer(net, tc), Error);
}

// ---------------------------------------------------------------------------
// Tentpole (3): worker failure paths

TEST_F(BatchFaults, TransientFaultsSucceedWithinRetryBudget) {
  BatchRunner runner(1);
  // The first two probes fire; both hit item 0, which then succeeds on its
  // third attempt. Every item must complete exactly once.
  robust::faults().arm("shard.worker", {.rate = 1.0, .count = 2});
  const std::uint64_t retries_before =
      obs::metrics().counter("batch.retries").value();
  std::vector<int> done(4, 0);
  runner.run(4, [&](std::size_t, std::size_t i) { ++done[i]; });
  EXPECT_EQ(done, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(obs::metrics().counter("batch.retries").value(),
            retries_before + 2);
  EXPECT_EQ(robust::faults().fired("shard.worker"), 2u);
}

TEST_F(BatchFaults, ExhaustedRetryBudgetSurfacesShardContext) {
  BatchRunner runner(2);
  robust::faults().arm("shard.worker", {.rate = 1.0});  // always fires
  try {
    runner.run(8, [](std::size_t, std::size_t) {});
    FAIL() << "expected the injected fault to surface";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
    EXPECT_NE(what.find("item 0"), std::string::npos) << what;
    EXPECT_NE(what.find("retry budget"), std::string::npos) << what;
  }
  robust::faults().clear();
  // The runner stays usable after a failed run.
  std::atomic<int> ran{0};
  runner.run(8, [&](std::size_t, std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST_F(BatchFaults, WorkerExceptionReportsLowestFailingItem) {
  BatchRunner runner(2);
  // Two shards (0: items 0-3, 1: items 4-7); fail one item in each. The
  // rethrown error must name the lowest item index, deterministically.
  std::atomic<int> completed{0};
  try {
    runner.run(8, [&](std::size_t, std::size_t i) {
      if (i == 2 || i == 5) throw std::runtime_error("boom at " +
                                                     std::to_string(i));
      ++completed;
    });
    FAIL() << "expected the worker exception to surface";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("item 2"), std::string::npos) << what;
    EXPECT_NE(what.find("boom at 2"), std::string::npos) << what;
    EXPECT_NE(what.find("2 item(s) failed"), std::string::npos) << what;
  }
  // Shard 0 abandoned items 3; shard 1 abandoned 6,7 — but both shards'
  // earlier items completed (no shard kills another shard's work).
  EXPECT_EQ(completed.load(), 3);
}

TEST_F(BatchFaults, FailuresCountInMetrics) {
  BatchRunner runner(1);
  const std::uint64_t failures_before =
      obs::metrics().counter("batch.failures").value();
  EXPECT_THROW(runner.run(3,
                          [](std::size_t, std::size_t i) {
                            if (i == 1) throw std::runtime_error("x");
                          }),
               Error);
  EXPECT_EQ(obs::metrics().counter("batch.failures").value(),
            failures_before + 1);
}

TEST_F(PoolFaults, CallerChunkExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t begin, std::size_t) {
                                   if (begin == 0)
                                     throw std::runtime_error("chunk0");
                                 }),
               std::runtime_error);
  // The pool survives and runs the next launch normally.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t b, std::size_t e) {
    sum += e - b;
  });
  EXPECT_EQ(sum.load(), 100u);
}

TEST_F(PoolFaults, LowestChunkIndexWinsDeterministically) {
  ThreadPool pool(4);  // chunks start at 0, 25, 50, 75 for n = 100
  for (int round = 0; round < 5; ++round) {
    try {
      pool.parallel_for(100, [](std::size_t begin, std::size_t) {
        if (begin >= 50) throw std::runtime_error(std::to_string(begin));
      });
      FAIL() << "expected worker chunk exceptions to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "50");
    }
  }
}

// ---------------------------------------------------------------------------
// Divergence guards

TEST_F(GuardsTest, CleanNetworkPasses) {
  WtaNetwork net(tiny_config());
  const robust::DivergenceReport report = robust::scan_network(net, "t0");
  EXPECT_FALSE(report.diverged());
  EXPECT_NO_THROW(robust::require_finite_network(net));
}

TEST_F(GuardsTest, DetectsNaNAndBounds) {
  WtaNetwork net(tiny_config());
  auto row = net.conductance().row_mut(0);
  row[0] = std::numeric_limits<double>::quiet_NaN();
  row[1] = std::numeric_limits<double>::infinity();
  row[2] = net.conductance().g_max() + 1.0;
  const robust::DivergenceReport report = robust::scan_network(net, "poked");
  EXPECT_TRUE(report.diverged());
  EXPECT_EQ(report.nan_count, 1u);
  EXPECT_EQ(report.inf_count, 1u);
  EXPECT_EQ(report.above_max, 1u);
  EXPECT_EQ(report.first_bad_synapse, 0);
  EXPECT_NE(report.to_string().find("poked"), std::string::npos);
  const std::uint64_t divergence_before =
      obs::metrics().counter("train.divergence").value();
  EXPECT_THROW(robust::require_finite_network(net, "poked"), Error);
  EXPECT_EQ(obs::metrics().counter("train.divergence").value(),
            divergence_before + 1);
}

TEST_F(GuardsTest, TrainerRefusesToCheckpointDivergedState) {
  const LabeledDataset data =
      make_synthetic_digits({.train_count = 2, .test_count = 1, .seed = 4});
  graph::NetworkGraph net = tiny_graph();
  net.block(0).conductance().row_mut(0)[0] =
      std::numeric_limits<double>::quiet_NaN();
  const std::string path = temp_path("pss_guard.ckpt");
  graph::GraphTrainerConfig tc = fast_trainer();
  tc.checkpoint_every = 1;
  tc.checkpoint_path = path;
  graph::GraphTrainer trainer(net, tc);
  EXPECT_THROW(trainer.train(data.train.head(2)), Error);
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------------------
// Synaptic fault models (She et al. 2019 companion paper)

TEST_F(SynapticFaults, DeterministicAndRateAccurate) {
  const auto damaged = [](const robust::SynapticFaultPlan& plan) {
    ConductanceMatrix g(40, 100, 0.0, 1.0);
    SequentialRng rng(5);
    g.initialize_uniform(0.2, 0.8, rng);
    const robust::SynapticFaultSummary summary =
        robust::apply_synaptic_faults(g, plan);
    return std::make_pair(g.to_vector(), summary);
  };
  robust::SynapticFaultPlan plan;
  plan.stuck_lo_rate = 0.15;
  plan.stuck_hi_rate = 0.10;
  const auto [va, sa] = damaged(plan);
  const auto [vb, sb] = damaged(plan);
  EXPECT_EQ(va, vb) << "same plan must damage the same cells";
  EXPECT_EQ(sa.stuck_lo, sb.stuck_lo);

  const double n = 40.0 * 100.0;
  EXPECT_NEAR(static_cast<double>(sa.stuck_lo) / n, 0.15, 0.03);
  EXPECT_NEAR(static_cast<double>(sa.stuck_hi) / n, 0.10, 0.03);
  // Stuck cells sit exactly at the rails.
  std::size_t at_lo = 0;
  std::size_t at_hi = 0;
  for (const double v : va) {
    if (v == 0.0) ++at_lo;
    if (v == 1.0) ++at_hi;
  }
  EXPECT_EQ(at_lo, sa.stuck_lo);
  EXPECT_EQ(at_hi, sa.stuck_hi);
}

TEST_F(SynapticFaults, PerturbationStaysInRange) {
  ConductanceMatrix g(20, 50, 0.0, 1.0);
  SequentialRng rng(5);
  g.initialize_uniform(0.1, 0.9, rng);
  const std::vector<double> before = g.to_vector();
  robust::SynapticFaultPlan plan;
  plan.perturb_rate = 0.5;
  plan.perturb_sigma = 0.25;
  const robust::SynapticFaultSummary summary =
      robust::apply_synaptic_faults(g, plan);
  EXPECT_GT(summary.perturbed, 0u);
  EXPECT_EQ(summary.stuck_lo, 0u);
  const std::vector<double> after = g.to_vector();
  std::size_t changed = 0;
  for (std::size_t s = 0; s < after.size(); ++s) {
    EXPECT_GE(after[s], 0.0);
    EXPECT_LE(after[s], 1.0);
    if (after[s] != before[s]) ++changed;
  }
  EXPECT_EQ(changed, summary.perturbed);
}

TEST_F(SynapticFaults, PlanFromInjector) {
  EXPECT_FALSE(robust::synaptic_plan_from_injector().any());
  robust::faults().arm_from_spec(
      "synapse.stuck_lo:rate=0.08;synapse.perturb:rate=0.2,param=0.3");
  const robust::SynapticFaultPlan plan = robust::synaptic_plan_from_injector();
  EXPECT_TRUE(plan.any());
  EXPECT_DOUBLE_EQ(plan.stuck_lo_rate, 0.08);
  EXPECT_DOUBLE_EQ(plan.stuck_hi_rate, 0.0);
  EXPECT_DOUBLE_EQ(plan.perturb_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan.perturb_sigma, 0.3);
}

}  // namespace
}  // namespace pss
