// Fault-schedule explorer (ISSUE consumer 3): property-based exploration of
// the deterministic fault-injection registry. Generated `faults=` plans are
// armed through the same spec parser operators use, and the suite asserts
// the three contracts the robustness layer sells: (a) fire decisions are a
// pure function of (spec, seed, hit sequence); (b) a fatal train.interrupt
// at any generated (checkpoint_every, kill ordinal) resumes bitwise onto the
// uninterrupted trajectory — for the single WTA layer and for conv/pool/WTA
// and WTA/WTA stacks at any worker count and batch size; (c) transient
// shard.worker and io.snapshot.write schedules — whatever items they land
// on — never change the trained state.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "pss/common/error.hpp"
#include "pss/common/log.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/engine/batch_runner.hpp"
#include "pss/graph/graph_trainer.hpp"
#include "pss/graph/layer_spec.hpp"
#include "pss/prop/check.hpp"
#include "pss/prop/generators.hpp"
#include "pss/robust/checkpoint.hpp"
#include "pss/robust/fault_injection.hpp"

namespace pss {
namespace {

using prop::CheckResult;
using prop::Source;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

prop::CheckOptions options_with(std::uint32_t cases) {
  prop::CheckOptions options;
  options.cases = cases;
  return options;
}

/// Clears the process-wide injector on both sides of a property case, so a
/// Failure unwinding out of the middle of a case can't leave a schedule
/// armed for the next case (or the next test).
struct ScopedFaultClear {
  ScopedFaultClear() { robust::faults().clear(); }
  ~ScopedFaultClear() { robust::faults().clear(); }
};

class PropFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_level(LogLevel::kError);
    robust::faults().clear();
  }
  void TearDown() override { robust::faults().clear(); }
};

using graph::GraphTrainer;
using graph::GraphTrainerConfig;
using graph::NetworkGraph;

WtaConfig tiny_config(std::uint64_t seed, const std::string& backend) {
  WtaConfig cfg = WtaConfig::from_table1(LearningOption::kFloat32,
                                         StdpKind::kStochastic, 12);
  cfg.seed = seed;
  cfg.backend = backend;
  return cfg;
}

NetworkGraph tiny_graph(std::uint64_t seed, const std::string& backend) {
  return NetworkGraph(graph::single_wta_graph(tiny_config(seed, backend)));
}

GraphTrainerConfig fast_trainer() {
  GraphTrainerConfig tc;
  tc.t_learn_ms = 150.0;
  tc.f_min_hz = 1.0;
  tc.f_max_hz = 22.0;
  return tc;
}

Dataset training_images() {
  const LabeledDataset data =
      make_synthetic_digits({.train_count = 8, .test_count = 1, .seed = 4});
  return data.train.head(8);
}

/// Every block's learned state, the graph cursor and block 0's clock.
void assert_same_trained_state(const NetworkGraph& a, const NetworkGraph& b,
                               const std::string& what) {
  PSS_PROP_ASSERT(a.block_count() == b.block_count(),
                  what + ": block count differs");
  for (std::size_t k = 0; k < a.block_count(); ++k) {
    const WtaNetwork& x = a.block(k);
    const WtaNetwork& y = b.block(k);
    const std::string block = what + ": block " + std::to_string(k);
    PSS_PROP_ASSERT(x.conductance().to_vector() == y.conductance().to_vector(),
                    block + " conductance diverged");
    PSS_PROP_ASSERT(
        std::vector<double>(x.theta().begin(), x.theta().end()) ==
            std::vector<double>(y.theta().begin(), y.theta().end()),
        block + " theta diverged");
  }
  PSS_PROP_ASSERT(a.presentation_index() == b.presentation_index(),
                  what + ": presentation index diverged");
  PSS_PROP_ASSERT(a.block(0).now() == b.block(0).now(),
                  what + ": simulation clock diverged");
}

// ---------------------------------------------------------------------------
// (a) Fire decisions are deterministic per (spec, seed, hit sequence).

TEST_F(PropFaults, GeneratedSchedulesFireDeterministically) {
  const CheckResult r = prop::check(
      "fault_schedule_determinism",
      [](Source& s) {
        const std::string spec = prop::gen_fault_spec(s);
        const std::uint64_t seed = s.bits(0xffffffffull);
        const std::uint64_t probes = 10 + s.bits(50);

        auto fire_log = [&](robust::FaultInjector& injector) {
          injector.arm_from_spec(spec);
          injector.set_seed(seed);
          std::vector<std::uint8_t> log;
          for (const std::string& point : injector.armed_points()) {
            for (std::uint64_t i = 0; i < probes; ++i) {
              log.push_back(injector.should_fire(point) ? 1 : 0);
            }
            log.push_back(
                static_cast<std::uint8_t>(injector.fired(point) & 0xff));
          }
          return log;
        };

        robust::FaultInjector probe;
        probe.arm_from_spec(spec);
        PSS_PROP_ASSERT(!probe.armed_points().empty(),
                        "generated spec '" + spec + "' armed nothing");

        robust::FaultInjector first;
        robust::FaultInjector second;
        PSS_PROP_ASSERT(fire_log(first) == fire_log(second),
                        "spec '" + spec + "' seed " + std::to_string(seed) +
                            ": fire sequence is not reproducible");
      },
      options_with(40));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// (b) Kill -> resume is bitwise for generated (checkpoint_every, kill
// ordinal, backend) schedules, armed through the spec grammar.

TEST_F(PropFaults, KillAndResumeIsBitwiseUnderGeneratedSchedules) {
  const Dataset train = training_images();
  const CheckResult r = prop::check(
      "fault_kill_resume_bitwise",
      [&](Source& s) {
        ScopedFaultClear guard;
        const std::string backend = s.choose({"cpu", "cpu_sparse"});
        const std::uint64_t net_seed = 1 + s.bits(50);
        const std::uint64_t every = 1 + s.bits(2);       // checkpoint cadence
        // Kill strictly after the first checkpoint boundary so a resume
        // point is guaranteed on disk.
        const std::uint64_t kill_after = every + 1 + s.bits(1);
        const std::string spec = "train.interrupt:rate=1,after=" +
                                 std::to_string(kill_after) +
                                 ",count=1,kind=fatal";

        // Reference: one uninterrupted run.
        NetworkGraph ref = tiny_graph(net_seed, backend);
        GraphTrainer(ref, fast_trainer()).train(train);

        const std::string path =
            temp_path("pss_prop_resume_" + std::to_string(net_seed) + "_" +
                      std::to_string(kill_after) + ".ckpt");
        GraphTrainerConfig tc = fast_trainer();
        tc.checkpoint_every = every;
        tc.checkpoint_path = path;

        NetworkGraph a = tiny_graph(net_seed, backend);
        GraphTrainer ta(a, tc);
        robust::faults().arm_from_spec(spec);
        bool killed = false;
        try {
          ta.train(train);
        } catch (const Error&) {
          killed = true;
        }
        robust::faults().clear();
        PSS_PROP_ASSERT(killed, "schedule '" + spec + "' never interrupted");

        NetworkGraph b = tiny_graph(net_seed, backend);
        GraphTrainer tb(b, tc);
        const robust::StackedCheckpoint cp =
            robust::load_stacked_checkpoint(path);
        PSS_PROP_ASSERT(cp.base.images_done >= every,
                        "no checkpoint boundary before the kill");
        tb.resume_from(cp);
        tb.train(train);
        std::remove(path.c_str());

        assert_same_trained_state(ref, b,
                                  backend + " resume after '" + spec + "'");
      },
      options_with(4));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// (b2) Stacked kill -> resume: the layer-wise schedule (block-major sweeps)
// checkpoints as PSSCKPT1 v2 and resumes bitwise at any worker count and
// batch size, for a conv/pool/WTA stack and a two-block WTA stack, killed
// early (first checkpoint) and late (inside the last block's sweep).

/// One (stack, batch size, killed-run worker count, kill position) cell:
/// `late` kills at the last step before the end (inside the final block's
/// sweep), otherwise at the first step with a checkpoint on disk. The
/// generator picks the seed, checkpoint cadence and resumed workers.
CheckResult check_stacked_resume(const Dataset& train, const std::string& arch,
                                 std::uint64_t batch,
                                 std::uint64_t killed_workers, bool late) {
  return prop::check(
      "fault_stacked_kill_resume_bitwise",
      [&](Source& s) {
        ScopedFaultClear guard;
        const std::uint64_t resumed_workers = 1 + s.bits(2);
        const std::uint64_t every = 1 + s.bits(2);  // presentations
        const WtaConfig base = tiny_config(1 + s.bits(50), "cpu");
        const graph::GraphConfig config =
            graph::graph_config_from_spec(arch, base);

        GraphTrainerConfig tc;
        tc.t_learn_ms = 100.0;
        tc.batch_size = batch;
        // Steps = presentations (sequential) or batches; train.interrupt
        // hits once per step, after that step's checkpoint. Kill at a step
        // at or past the first checkpoint and before the last step.
        const std::uint64_t presentations =
            train.size() * NetworkGraph(config).block_count();
        const std::uint64_t steps = presentations / batch;
        const std::uint64_t first_checkpoint_step = (every + batch - 1) / batch;
        PSS_PROP_ASSERT(first_checkpoint_step < steps,
                        "schedule too short to kill mid-run");
        const std::uint64_t kill_at =
            late ? steps - 2 : first_checkpoint_step - 1;
        const std::string spec = "train.interrupt:rate=1,after=" +
                                 std::to_string(kill_at) +
                                 ",count=1,kind=fatal";
        const std::string what = arch + " batch " + std::to_string(batch) +
                                 " workers " +
                                 std::to_string(killed_workers) + "->" +
                                 std::to_string(resumed_workers) + " '" +
                                 spec + "'";

        BatchRunner ref_runner(1);
        NetworkGraph ref(config);
        GraphTrainer(ref, tc, &ref_runner).train(train);

        const std::string path = temp_path("pss_prop_stacked_resume.ckpt");
        tc.checkpoint_every = every;
        tc.checkpoint_path = path;
        BatchRunner killed_runner(static_cast<std::size_t>(killed_workers));
        NetworkGraph a(config);
        GraphTrainer ta(a, tc, &killed_runner);
        robust::faults().arm_from_spec(spec);
        bool killed = false;
        try {
          ta.train(train);
        } catch (const Error&) {
          killed = true;
        }
        robust::faults().clear();
        PSS_PROP_ASSERT(killed, what + ": never interrupted");

        const robust::StackedCheckpoint cp =
            robust::load_stacked_checkpoint(path);
        PSS_PROP_ASSERT(!cp.single_layer() &&
                            cp.arch == graph::canonical_layers_spec(config),
                        what + ": checkpoint is not a v2 stacked file");
        PSS_PROP_ASSERT(cp.base.images_done >= every &&
                            cp.base.images_done < presentations,
                        what + ": checkpoint outside the schedule");
        BatchRunner resumed_runner(static_cast<std::size_t>(resumed_workers));
        NetworkGraph b(config);
        GraphTrainer tb(b, tc, &resumed_runner);
        tb.resume_from(cp);
        tb.train(train);
        std::remove(path.c_str());

        assert_same_trained_state(ref, b, what);
      },
      options_with(2));
}

TEST_F(PropFaults, StackedKillAndResumeIsBitwise) {
  const Dataset train = training_images();
  for (const std::string arch :
       {"conv:filters=2,kernel=7,stride=3;pool:window=2;wta:neurons=8",
        "wta:neurons=10;wta:neurons=6"}) {
    for (const std::uint64_t batch : {1, 4}) {
      for (const std::uint64_t workers : {1, 2, 3}) {
        for (const bool late : {false, true}) {
          const CheckResult r =
              check_stacked_resume(train, arch, batch, workers, late);
          EXPECT_TRUE(r.ok()) << r.report();
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// (c1) Transient shard.worker schedules requeue deterministically: whatever
// items the fault lands on (the ordinal->item mapping is racy by design),
// the retried batched run converges bitwise onto the fault-free result.

TEST_F(PropFaults, TransientWorkerFaultsRequeueDeterministically) {
  const Dataset train = training_images();
  const CheckResult r = prop::check(
      "fault_requeue_determinism",
      [&](Source& s) {
        ScopedFaultClear guard;
        const std::uint64_t net_seed = 1 + s.bits(50);
        const std::uint64_t workers = 1 + s.bits(2);
        const std::uint64_t after = s.bits(6);
        const std::uint64_t count = 1 + s.bits(1);  // within the retry budget
        const std::string spec = "shard.worker:rate=1,after=" +
                                 std::to_string(after) +
                                 ",count=" + std::to_string(count);

        GraphTrainerConfig tc = fast_trainer();
        tc.batch_size = 2;

        BatchRunner ref_runner(1);
        NetworkGraph ref = tiny_graph(net_seed, "cpu");
        GraphTrainer(ref, tc, &ref_runner).train(train);

        BatchRunner runner(static_cast<std::size_t>(workers));
        NetworkGraph faulted = tiny_graph(net_seed, "cpu");
        GraphTrainer tf(faulted, tc, &runner);
        robust::faults().arm_from_spec(spec);
        tf.train(train);  // transient fires must be absorbed
        const std::uint64_t fired = robust::faults().fired("shard.worker");
        robust::faults().clear();
        PSS_PROP_ASSERT(fired >= 1,
                        "schedule '" + spec + "' never fired (hits exceed " +
                            std::to_string(after) + ")");

        assert_same_trained_state(
            ref, faulted,
            "requeue under '" + spec + "' x" + std::to_string(workers));
      },
      options_with(4));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// (c2) Failed checkpoint writes are isolated: an io.snapshot.write schedule
// degrades durability (counted, retried), never the training trajectory.

TEST_F(PropFaults, SnapshotWriteFaultsLeaveTrainingStateIntact) {
  const Dataset train = training_images();
  const CheckResult r = prop::check(
      "fault_snapshot_write_isolated",
      [&](Source& s) {
        ScopedFaultClear guard;
        const std::uint64_t net_seed = 1 + s.bits(50);
        const std::uint64_t after = s.bits(2);
        const std::uint64_t count = 1 + s.bits(1);
        const std::string spec = "io.snapshot.write:rate=1,after=" +
                                 std::to_string(after) +
                                 ",count=" + std::to_string(count);

        NetworkGraph ref = tiny_graph(net_seed, "cpu");
        GraphTrainer(ref, fast_trainer()).train(train);

        const std::string path = temp_path("pss_prop_snapfault_" +
                                           std::to_string(net_seed) + ".ckpt");
        GraphTrainerConfig tc = fast_trainer();
        tc.checkpoint_every = 2;
        tc.checkpoint_path = path;
        NetworkGraph faulted = tiny_graph(net_seed, "cpu");
        GraphTrainer tf(faulted, tc);
        robust::faults().arm_from_spec(spec);
        tf.train(train);  // write failures are transient; training finishes
        robust::faults().clear();
        std::remove(path.c_str());

        assert_same_trained_state(ref, faulted,
                                  "training under '" + spec + "'");
      },
      options_with(3));
  EXPECT_TRUE(r.ok()) << r.report();
}

}  // namespace
}  // namespace pss
