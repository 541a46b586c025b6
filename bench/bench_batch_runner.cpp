// Batched presentation engine — dispatch-overhead and image-parallel scaling
// measurements behind the launch-fusion / minibatch work (cf. the paper's
// Sec. IV performance analysis; image-level parallelism after Saunders et
// al. 2019).
//
// Sections:
//   1. per-step launch accounting: the fused step must need at most one
//      engine launch per simulated step (three unfused), and with the grain
//      cutoff the common small-network path issues zero pool dispatches;
//   2. fused vs unfused presentation timing, with a bitwise identity check;
//   3. labelling + evaluation, sequential vs BatchRunner at 1/2/4 workers,
//      identity-checked against the sequential confusion matrix;
//   4. minibatch STDP training vs per-image training.
//
// Results land in out/BENCH_batch_runner.json for sweep scripts — published
// through the shared metrics registry (pss.metrics.v1, "bench.*" gauges), the
// same schema every other bench emits.
// Arguments: neurons=50 images=40 t_ms=200 workers=1,2,4 seed=9 scale=...
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pss/engine/batch_runner.hpp"
#include "pss/learning/classifier.hpp"
#include "pss/learning/labeler.hpp"
#include "pss/learning/trainer.hpp"

using namespace pss;

namespace {

std::vector<std::size_t> parse_workers(const Config& args) {
  std::stringstream ss(args.get_string("workers", "1,2,4"));
  std::vector<std::size_t> workers;
  for (std::string item; std::getline(ss, item, ',');) {
    workers.push_back(static_cast<std::size_t>(std::stoul(item)));
  }
  return workers;
}

WtaConfig bench_config(std::size_t neurons, std::uint64_t seed, bool fused,
                       const std::string& backend) {
  WtaConfig cfg = WtaConfig::from_table1(LearningOption::kFloat32,
                                         StdpKind::kStochastic, neurons);
  cfg.seed = seed;
  cfg.fused_step = fused;
  cfg.backend = backend;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "batch_runner", [](const Config& args) {
    bench::print_header(
        "Batched presentation engine — launch overhead & image parallelism",
        "fused stepping cuts per-step kernel launches 3x; independent "
        "presentations scale across cores with bitwise-identical results");

    const std::size_t neurons =
        static_cast<std::size_t>(args.get_int("neurons", 50));
    const std::size_t images =
        static_cast<std::size_t>(args.get_int("images", 40));
    const TimeMs t_ms = args.get_double("t_ms", 200.0);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.get_int("seed", 9));
    const std::vector<std::size_t> worker_counts = parse_workers(args);
    // Compute backend for every network in the sweep (backend=cpu|cpu_sparse).
    const std::string backend = args.get_string("backend", "cpu");

    const LabeledDataset data =
        bench::load_dataset("mnist", bench::Scale{}, seed);
    const PixelFrequencyMap map(1.0, 22.0);
    std::vector<double> rates(kImagePixels);
    map.frequencies(data.train[0].pixels, rates);
    const std::size_t steps = static_cast<std::size_t>(t_ms / kDefaultDtMs);

    // ---- 1. launch accounting per presentation --------------------------
    std::printf("\n[1] engine launches per %.0f ms presentation (%zu steps)\n",
                t_ms, steps);
    TablePrinter launches(
        {"path", "launches", "dispatches", "launch/step", "dispatch/step"});
    struct Accounting {
      const char* name;
      bool fused;
      std::size_t grain;
    };
    double fused_launch_per_step = 0.0;
    double fused_dispatch_per_step = 0.0;
    for (const Accounting& acc :
         {Accounting{"fused + grain cutoff", true, Engine::kDefaultGrain},
          Accounting{"fused, forced dispatch", true, 0},
          Accounting{"unfused + grain cutoff", false, Engine::kDefaultGrain}}) {
      Engine engine(2);
      engine.set_grain(acc.grain);
      WtaNetwork net(bench_config(neurons, seed, acc.fused, backend), &engine);
      net.present(rates, t_ms, true);
      const double per_step =
          static_cast<double>(engine.launch_count()) / static_cast<double>(steps);
      const double disp_per_step =
          static_cast<double>(engine.dispatch_count()) /
          static_cast<double>(steps);
      launches.add_row({acc.name, std::to_string(engine.launch_count()),
                        std::to_string(engine.dispatch_count()),
                        format_fixed(per_step, 2),
                        format_fixed(disp_per_step, 2)});
      if (acc.fused && acc.grain != 0) {
        fused_launch_per_step = per_step;
        fused_dispatch_per_step = disp_per_step;
      }
    }
    launches.print();
    std::printf("common path: %.2f dispatches/step (claim: <= 1)\n",
                fused_dispatch_per_step);

    // ---- 2. fused vs unfused timing + identity --------------------------
    std::printf("\n[2] fused vs unfused stepping (%zu learning images)\n",
                images);
    double fused_s = 0.0;
    double unfused_s = 0.0;
    std::vector<double> g_fused;
    std::vector<double> g_unfused;
    for (bool fused : {true, false}) {
      WtaNetwork net(bench_config(neurons, seed, fused, backend));
      UnsupervisedTrainer trainer(net, TrainerConfig{1.0, 22.0, t_ms});
      const TrainingStats stats = trainer.train(data.train.head(images));
      (fused ? fused_s : unfused_s) = stats.wall_seconds;
      (fused ? g_fused : g_unfused) = net.conductance().to_vector();
    }
    const bool fused_identical = g_fused == g_unfused;
    TablePrinter fusion({"path", "seconds", "speedup", "identical"});
    fusion.add_row({"unfused", format_fixed(unfused_s, 3), "1.00", "-"});
    fusion.add_row({"fused", format_fixed(fused_s, 3),
                    format_fixed(unfused_s / fused_s, 2),
                    fused_identical ? "yes" : "NO"});
    fusion.print();

    // ---- 3. batched labelling + evaluation ------------------------------
    std::printf("\n[3] labelling + evaluation, %zu + %zu images\n", images,
                images);
    WtaNetwork trained(bench_config(neurons, seed, true, backend));
    {
      UnsupervisedTrainer trainer(trained, TrainerConfig{1.0, 22.0, t_ms});
      trainer.train(data.train.head(images));
    }
    const auto [label_full, eval_full] = data.labelling_split(100);
    const Dataset label_set = label_full.head(images);
    const Dataset eval_set = eval_full.head(images);

    Engine serial(1);
    WtaNetwork seq_net = trained.replicate(&serial);
    bench::RecordedTimer seq_clock("batch_runner.sequential_label_eval");
    const LabelingResult seq_labels =
        label_neurons(seq_net, label_set, map, t_ms);
    SnnClassifier seq_classifier(seq_net, seq_labels.neuron_labels,
                                 seq_labels.class_count, map, t_ms);
    const EvaluationResult seq_eval = seq_classifier.evaluate(eval_set);
    const double sequential_s = seq_clock.stop();

    TablePrinter scaling(
        {"workers", "seconds", "speedup", "accuracy", "identical"});
    scaling.add_row({"sequential", format_fixed(sequential_s, 3), "1.00",
                     format_fixed(seq_eval.accuracy, 3), "-"});
    std::vector<std::pair<std::size_t, double>> batched_timings;
    for (std::size_t w : worker_counts) {
      BatchRunner runner(w);
      WtaNetwork net = trained.replicate(&serial);
      bench::RecordedTimer clock("batch_runner.label_eval.w" +
                                 std::to_string(w));
      const LabelingResult labels =
          label_neurons(net, label_set, map, t_ms, runner);
      SnnClassifier classifier(net, labels.neuron_labels, labels.class_count,
                               map, t_ms);
      const EvaluationResult eval = classifier.evaluate(eval_set, runner);
      const double batched_s = clock.stop();
      batched_timings.emplace_back(w, batched_s);
      const bool identical =
          labels.neuron_labels == seq_labels.neuron_labels &&
          eval.confusion.to_string() == seq_eval.confusion.to_string();
      scaling.add_row({std::to_string(runner.worker_count()),
                       format_fixed(batched_s, 3),
                       format_fixed(sequential_s / batched_s, 2),
                       format_fixed(eval.accuracy, 3),
                       identical ? "yes" : "NO"});
    }
    scaling.print();

    // ---- 4. minibatch STDP training -------------------------------------
    std::printf("\n[4] training, per-image vs minibatch STDP (batch=8)\n");
    TablePrinter training({"schedule", "workers", "seconds", "speedup"});
    double per_image_s = 0.0;
    {
      WtaNetwork net(bench_config(neurons, seed, true, backend));
      UnsupervisedTrainer trainer(net, TrainerConfig{1.0, 22.0, t_ms});
      per_image_s = trainer.train(data.train.head(images)).wall_seconds;
      training.add_row(
          {"per-image", "1", format_fixed(per_image_s, 3), "1.00"});
    }
    std::vector<std::pair<std::size_t, double>> minibatch_timings;
    for (std::size_t w : worker_counts) {
      TrainerConfig tc{1.0, 22.0, t_ms};
      tc.batch_size = 8;
      WtaNetwork net(bench_config(neurons, seed, true, backend));
      UnsupervisedTrainer trainer(net, tc);
      BatchRunner runner(w);
      const double s =
          trainer.train(data.train.head(images), runner).wall_seconds;
      minibatch_timings.emplace_back(w, s);
      training.add_row({"minibatch", std::to_string(runner.worker_count()),
                        format_fixed(s, 3), format_fixed(per_image_s / s, 2)});
    }
    training.print();

    // ---- JSON record (shared pss.metrics.v1 schema) ---------------------
    bench::record("batch_runner.neurons", static_cast<double>(neurons));
    bench::record("batch_runner.images", static_cast<double>(images));
    bench::record("batch_runner.t_ms", t_ms);
    bench::record("batch_runner.fused_launches_per_step",
                  fused_launch_per_step);
    bench::record("batch_runner.fused_dispatches_per_step",
                  fused_dispatch_per_step);
    bench::record("batch_runner.fused_identical",
                  fused_identical ? 1.0 : 0.0);
    bench::record("batch_runner.unfused_train_s", unfused_s);
    bench::record("batch_runner.fused_train_s", fused_s);
    bench::record("batch_runner.per_image_train_s", per_image_s);
    // (label_eval.w<N>.seconds gauges were recorded by the RecordedTimers.)
    for (const auto& [w, s_] : minibatch_timings) {
      bench::record("batch_runner.minibatch_train.w" + std::to_string(w) +
                        ".seconds",
                    s_);
    }
    const std::string json_path = bench::write_bench_record("batch_runner");
    std::printf("\nwrote %s\n", json_path.c_str());
  });
}
