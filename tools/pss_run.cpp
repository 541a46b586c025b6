// pss_run — the configuration-file driver (paper Sec. III-A: the CPU
// "constructs the simulation environment with configuration and input data
// file"). One binary covers the three deployment modes:
//
//   train:  run the unsupervised protocol, report accuracy, optionally save
//           a model snapshot.
//   infer:  load a snapshot and classify a test set (no training).
//   both:   train then immediately reload the saved snapshot and verify.
//
// Usage:
//   pss_run <config-file> [key=value overrides...]
//   pss_run mode=train dataset=mnist option=2bit snapshot=model.bin
//
// Recognized keys (all optional; defaults in parentheses):
//   mode=train|infer|both (train)     dataset=mnist|fashion (mnist)
//   kind=stochastic|deterministic     option=fp32|16bit|8bit|4bit|2bit|highfreq
//   rounding=nearest|trunc|stochastic neurons=100 train=400 label=250 eval=250
//   seed=1  snapshot=<path>  maps=<path.pgm>  verbose=0|1
//   backend=cpu|cpu_sparse (cpu)  compute backend (see README "Compute
//   backends"; cpu_sparse is the event-driven, lazy-STDP fast path)
//   workers=1 (0 = all cores; != 1 runs labelling/eval image-parallel with
//   bitwise-identical results)  batch=1 (> 1 = minibatch STDP training)
//
// Deep SNN stacks (see README "Deep SNN stacks" and DESIGN.md §6):
//   layers=<spec>      build a conv/pool/WTA layer graph instead of the
//                      single WTA network and train it layer-wise, e.g.
//                      layers=conv:filters=8,kernel=5;pool:window=2;
//                             wta:neurons=200
//   dataset=gestures   procedural temporal-gesture streams (moving-edge
//                      frame sequences, 8 direction classes) presented
//                      frame-by-frame through the graph
//   frame_ms=25        per-frame presentation duration for sequences
//   snapshot=<path>    stacked models save as "PSSSNAP2" (single-WTA graphs
//                      keep the legacy v1 bytes); infer mode reloads any
//                      model kind through the unified sniffing reader
//
// Observability (all optional; see README "Observability"):
//   metrics=<path.json>   dump the metrics registry (pss.metrics.v1)
//   trace=<path.json>     Chrome trace_event JSON (open in Perfetto)
//   manifest=<path.json>  run manifest: config + phase times + metrics
//                         (pss.manifest.v1)
//   profile=<path.json>   hardware-counter kernel profile (pss.profile.v1;
//                         "available": 0 where perf_event_open is blocked)
//   prom=<path.prom>      Prometheus textfile dump of the final registry
//   metrics_port=<port>   serve the registry live as Prometheus text on
//                         127.0.0.1:<port> (0 = pick an ephemeral port)
//
// Fault tolerance (see README "Fault tolerance & resume"):
//   checkpoint=<path>       training checkpoint file (atomic writes)
//   checkpoint_every=<N>    write it every N trained images (0 = off)
//   resume=<path>           resume an interrupted run from this checkpoint;
//                           continues bitwise-identically (same config/seed)
//   retries=<N>             BatchRunner retry budget for transient faults (2)
//   faults=<spec>           arm deterministic fault injection, e.g.
//                           "io.snapshot.write:count=1" (or env PSS_FAULTS;
//                           see src/pss/robust/fault_injection.hpp)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "pss/common/error.hpp"
#include "pss/common/log.hpp"
#include "pss/data/idx.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/data/synthetic_fashion.hpp"
#include "pss/data/temporal_gestures.hpp"
#include "pss/experiment/experiment.hpp"
#include "pss/graph/graph_snapshot.hpp"
#include "pss/graph/graph_trainer.hpp"
#include "pss/graph/network_graph.hpp"
#include "pss/io/config.hpp"
#include "pss/io/pgm.hpp"
#include "pss/io/snapshot.hpp"
#include "pss/learning/trainer.hpp"
#include "pss/obs/exporter.hpp"
#include "pss/obs/manifest.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/obs/perf.hpp"
#include "pss/obs/trace.hpp"
#include "pss/robust/checkpoint.hpp"
#include "pss/robust/fault_injection.hpp"
#include "pss/robust/synaptic_faults.hpp"
#include "tools/run_options.hpp"

using namespace pss;

namespace {

Config parse_cli(int argc, char** argv) {
  // First positional argument without '=' is a config file; later key=value
  // tokens override it.
  Config config;
  int first_kv = 1;
  if (argc > 1 && std::string(argv[1]).find('=') == std::string::npos) {
    config = Config::from_file(argv[1]);
    first_kv = 2;
  }
  const Config overrides = Config::from_args(argc, argv, first_kv);
  for (const auto& key : overrides.keys()) {
    config.set(key, overrides.get_string(key, ""));
  }
  tools::require_known_keys(
      config, {"mode", "dataset", "snapshot", "maps", "retries", "verbose"});
  return config;
}

LabeledDataset load_data(const Config& cfg, const ExperimentSpec& spec) {
  const std::string which =
      cfg.get_string("dataset", "mnist") == "fashion" ? "fashion-mnist"
                                                      : "mnist";
  if (auto real = load_real_dataset_from_env(which)) return std::move(*real);
  SyntheticConfig synth;
  synth.train_count = spec.train_images + 100;
  synth.test_count = spec.label_images + spec.eval_images;
  synth.seed = 7;
  return which == "fashion-mnist" ? make_synthetic_fashion(synth)
                                  : make_synthetic_digits(synth);
}

ExperimentSpec spec_from_config(const Config& cfg) {
  return tools::spec_from_config(cfg, /*default_name=*/"pss_run");
}

/// Applies companion-paper synaptic faults (stuck-at rails / perturbation)
/// when any `synapse.*` fault point is armed. In train mode this damages the
/// initial conductances (STDP may later rewrite stuck cells — the model is
/// initial-state damage, not a persistent hardware clamp); in infer mode it
/// damages the restored snapshot, matching the bench_fault_sweep protocol.
void maybe_damage_synapses(WtaNetwork& net, const char* when) {
  const robust::SynapticFaultPlan plan = robust::synaptic_plan_from_injector();
  if (!plan.any()) return;
  const robust::SynapticFaultSummary summary =
      robust::apply_synaptic_faults(net.conductance(), plan);
  std::printf("synaptic faults (%s): %llu stuck-lo, %llu stuck-hi, "
              "%llu perturbed\n",
              when, static_cast<unsigned long long>(summary.stuck_lo),
              static_cast<unsigned long long>(summary.stuck_hi),
              static_cast<unsigned long long>(summary.perturbed));
}

/// Emplaces a BatchRunner for the spec (left empty when the run is fully
/// sequential). Out-param because a BatchRunner owns a thread pool and
/// cannot move.
void make_runner(const ExperimentSpec& spec,
                 std::optional<BatchRunner>& runner) {
  if (spec.workers != 1 || spec.batch_size > 1) runner.emplace(spec.workers);
}

int run_train(const Config& cfg, obs::RunManifest* manifest) {
  const ExperimentSpec spec = spec_from_config(cfg);
  const LabeledDataset data = load_data(cfg, spec);
  std::printf("train: %s STDP, %s, %zu neurons, %zu images (%s)\n",
              stdp_kind_name(spec.kind), learning_option_name(spec.option),
              spec.neuron_count, spec.train_images, data.name.c_str());

  // Explicit pipeline so the trained network can be snapshotted.
  WtaNetwork net(spec.network_config());
  UnsupervisedTrainer trainer(net, spec.trainer_config());
  if (!spec.resume_path.empty()) {
    trainer.resume_from(robust::load_checkpoint(spec.resume_path));
    std::printf("resumed from checkpoint: %s\n", spec.resume_path.c_str());
  }
  maybe_damage_synapses(net, "pre-train");
  std::optional<BatchRunner> runner;
  make_runner(spec, runner);
  if (runner && cfg.has("retries")) {
    const auto retries = cfg.get_int("retries", 2);
    PSS_REQUIRE(retries >= 0, "retries must be >= 0");
    runner->set_retry_budget(static_cast<std::size_t>(retries));
  }
  const Dataset train_set = data.train.head(spec.train_images);
  const TrainingStats stats = spec.batch_size > 1
                                  ? trainer.train(train_set, *runner)
                                  : trainer.train(train_set);
  const PixelFrequencyMap map(spec.trainer_config().f_min_hz,
                              spec.trainer_config().f_max_hz);
  const auto [label_set, eval_set] = data.labelling_split(spec.label_images);
  const LabelingResult labels =
      runner ? label_neurons(net, label_set, map, spec.t_label_ms, *runner)
             : label_neurons(net, label_set, map, spec.t_label_ms);
  SnnClassifier classifier(net, labels.neuron_labels, labels.class_count, map,
                           spec.t_infer_ms);
  const EvaluationResult eval =
      runner ? classifier.evaluate(eval_set.head(spec.eval_images), *runner)
             : classifier.evaluate(eval_set.head(spec.eval_images));

  std::printf("accuracy %.1f%% (%llu/%llu) | %zu labelled neurons | %.1f s "
              "training wall\n",
              100.0 * eval.accuracy,
              static_cast<unsigned long long>(eval.confusion.correct()),
              static_cast<unsigned long long>(eval.confusion.total()),
              labels.labelled_neurons, stats.wall_seconds);

  if (manifest) {
    manifest->dataset = data.name;
    manifest->results.emplace_back("accuracy", eval.accuracy);
    manifest->results.emplace_back(
        "labelled_neurons", static_cast<double>(labels.labelled_neurons));
    manifest->results.emplace_back("train_wall_seconds", stats.wall_seconds);
    manifest->results.emplace_back(
        "train_post_spikes", static_cast<double>(stats.total_post_spikes));
    const robust::CheckpointLineage& lin = trainer.lineage();
    if (spec.train_checkpoint_every > 0 || lin.resumed) {
      manifest->has_checkpoint = true;
      manifest->resumed = lin.resumed;
      manifest->checkpoint_run_id = lin.run_id;
      manifest->checkpoint_parent_run_id = lin.parent_run_id;
      manifest->checkpoint_count = lin.checkpoint_count;
      manifest->presentation_cursor = lin.presentation_cursor;
    }
  }
  if (runner && obs::metrics_enabled()) runner->publish_stats("batch");

  if (cfg.has("snapshot")) {
    const std::string path = cfg.get_string("snapshot", "");
    save_snapshot(path, NetworkSnapshot::capture(net, &labels.neuron_labels));
    std::printf("snapshot saved: %s\n", path.c_str());
  }
  if (cfg.has("maps")) {
    const std::string path = cfg.get_string("maps", "");
    write_pgm(path, tile_images(conductance_maps(net, 25), 5, 5));
    std::printf("conductance maps saved: %s\n", path.c_str());
  }
  return 0;
}

int run_infer(const Config& cfg, obs::RunManifest* manifest) {
  PSS_REQUIRE(cfg.has("snapshot"), "infer mode needs snapshot=<path>");
  const ExperimentSpec spec = spec_from_config(cfg);
  const LabeledDataset data = load_data(cfg, spec);
  const NetworkSnapshot snap =
      load_snapshot(cfg.get_string("snapshot", ""));
  PSS_REQUIRE(!snap.neuron_labels.empty(),
              "snapshot carries no neuron labels; retrain with mode=train");

  WtaConfig net_cfg = spec.network_config();
  net_cfg.neuron_count = snap.neuron_count;
  net_cfg.input_channels = snap.input_channels;
  WtaNetwork net(net_cfg);
  snap.restore(net);
  maybe_damage_synapses(net, "post-restore");

  const PixelFrequencyMap map(spec.trainer_config().f_min_hz,
                              spec.trainer_config().f_max_hz);
  std::vector<int> labels(snap.neuron_labels.begin(),
                          snap.neuron_labels.end());
  std::size_t classes = 1;
  for (int l : labels) classes = std::max(classes, static_cast<std::size_t>(l + 1));
  SnnClassifier classifier(net, labels, classes, map, spec.t_infer_ms);
  std::optional<BatchRunner> runner;
  make_runner(spec, runner);
  const EvaluationResult eval =
      runner ? classifier.evaluate(data.test.head(spec.eval_images), *runner)
             : classifier.evaluate(data.test.head(spec.eval_images));
  std::printf("infer: accuracy %.1f%% on %llu images\n",
              100.0 * eval.accuracy,
              static_cast<unsigned long long>(eval.confusion.total()));
  std::printf("%s\n", eval.confusion.to_string().c_str());
  if (manifest) {
    if (manifest->dataset.empty()) manifest->dataset = data.name;
    manifest->results.emplace_back("infer.accuracy", eval.accuracy);
    manifest->results.emplace_back(
        "infer.images", static_cast<double>(eval.confusion.total()));
  }
  if (runner && obs::metrics_enabled()) runner->publish_stats("infer.batch");
  return 0;
}

// ----------------------------------------------------------- graph mode

/// The graph path handles stacked architectures (layers=) and the temporal
/// gesture workload (dataset=gestures); plain single-network runs keep the
/// battle-tested run_train/run_infer paths above.
bool wants_graph(const Config& cfg) {
  return cfg.has("layers") || cfg.get_string("dataset", "") == "gestures";
}

/// True when `path` holds a stacked graph model ("PSSSNAP2").
bool stacked_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  return static_cast<bool>(in) && std::memcmp(magic, "PSSSNAP2", 8) == 0;
}

graph::GraphTrainerConfig graph_trainer_config(const Config& cfg,
                                               const ExperimentSpec& spec) {
  graph::GraphTrainerConfig tc;
  tc.t_learn_ms = spec.trainer_config().t_learn_ms;
  tc.t_readout_ms = spec.t_infer_ms;
  tc.frame_ms = cfg.get_double("frame_ms", 25.0);
  PSS_REQUIRE(tc.frame_ms > 0.0, "frame_ms must be positive");
  return tc;
}

GestureDataset load_gestures(const ExperimentSpec& spec) {
  GestureConfig gc;
  gc.train_count = spec.train_images;
  gc.test_count = spec.label_images + spec.eval_images;
  return make_temporal_gestures(gc);
}

void report_graph(const char* phase, const graph::GraphEvaluation& eval,
                  std::size_t labelled, obs::RunManifest* manifest) {
  std::printf("%s: accuracy %.1f%% (%zu/%zu, %zu abstained) | %zu labelled "
              "neurons\n",
              phase, 100.0 * eval.accuracy(), eval.correct, eval.total,
              eval.abstained, labelled);
  if (manifest) {
    manifest->results.emplace_back(std::string(phase) + ".accuracy",
                                   eval.accuracy());
    manifest->results.emplace_back(
        std::string(phase) + ".labelled_neurons",
        static_cast<double>(labelled));
  }
}

int run_graph_train(const Config& cfg, obs::RunManifest* manifest) {
  const ExperimentSpec spec = spec_from_config(cfg);
  const bool gestures = cfg.get_string("dataset", "mnist") == "gestures";
  graph::GraphConfig gcfg =
      tools::graph_config_from_options(cfg, spec.network_config());
  graph::NetworkGraph net(gcfg);
  graph::GraphTrainer trainer(net, graph_trainer_config(cfg, spec));

  std::printf("graph train: %zu stack layers, %zu WTA blocks, %s\n",
              gcfg.layers.size(), net.block_count(),
              gestures ? "temporal gestures" : "images");
  std::size_t labelled = 0;
  graph::GraphEvaluation eval;
  std::string dataset_name;
  if (gestures) {
    const GestureDataset data = load_gestures(spec);
    dataset_name = data.name;
    trainer.train(data.train);
    const auto label_end =
        data.test.begin() + static_cast<std::ptrdiff_t>(
                                std::min(spec.label_images, data.test.size()));
    labelled = trainer.label({data.test.begin(), label_end});
    eval = trainer.evaluate({label_end, data.test.end()});
  } else {
    const LabeledDataset data = load_data(cfg, spec);
    dataset_name = data.name;
    trainer.train(data.train.head(spec.train_images));
    const auto [label_set, eval_set] = data.labelling_split(spec.label_images);
    labelled = trainer.label(label_set);
    eval = trainer.evaluate(eval_set.head(spec.eval_images));
  }
  report_graph("graph", eval, labelled, manifest);
  if (manifest && manifest->dataset.empty()) manifest->dataset = dataset_name;

  if (cfg.has("snapshot")) {
    const std::string path = cfg.get_string("snapshot", "");
    graph::save_graph_model(path, graph::GraphModel::capture(net));
    std::printf("model saved: %s\n", path.c_str());
  }
  return 0;
}

int run_graph_infer(const Config& cfg, obs::RunManifest* manifest) {
  PSS_REQUIRE(cfg.has("snapshot"), "infer mode needs snapshot=<path>");
  const ExperimentSpec spec = spec_from_config(cfg);
  const bool gestures = cfg.get_string("dataset", "mnist") == "gestures";
  const graph::GraphModel model =
      graph::load_graph_model(cfg.get_string("snapshot", ""));
  graph::NetworkGraph net(model.to_config(spec.network_config()));
  model.restore(net);
  PSS_REQUIRE(!net.neuron_labels().empty(),
              "model carries no neuron labels; retrain with mode=train");
  graph::GraphTrainer trainer(net, graph_trainer_config(cfg, spec));

  graph::GraphEvaluation eval;
  if (gestures) {
    const GestureDataset data = load_gestures(spec);
    const auto eval_begin =
        data.test.begin() + static_cast<std::ptrdiff_t>(
                                std::min(spec.label_images, data.test.size()));
    eval = trainer.evaluate({eval_begin, data.test.end()});
  } else {
    const LabeledDataset data = load_data(cfg, spec);
    const auto [label_set, eval_set] = data.labelling_split(spec.label_images);
    eval = trainer.evaluate(eval_set.head(spec.eval_images));
  }
  std::printf("graph infer: accuracy %.1f%% on %zu presentations\n",
              100.0 * eval.accuracy(), eval.total);
  if (manifest) {
    manifest->results.emplace_back("graph.infer.accuracy", eval.accuracy());
    manifest->results.emplace_back("graph.infer.presentations",
                                   static_cast<double>(eval.total));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = parse_cli(argc, argv);
    if (!cfg.get_bool("verbose", false)) set_log_level(LogLevel::kWarn);

    tools::arm_faults_from_config(cfg);

    const tools::ObsPaths obs_paths = tools::enable_observability(cfg);
    const std::string& trace_path = obs_paths.trace;
    const std::string& metrics_path = obs_paths.metrics;
    const std::string& manifest_path = obs_paths.manifest;
    const bool want_obs = obs_paths.any();

    // Live exposition: scrapers see the registry as it fills during the run
    // (the sidecar files below capture only the final state).
    std::optional<obs::MetricsExporter> exporter;
    if (obs_paths.metrics_port >= 0) {
      exporter.emplace(static_cast<std::uint16_t>(obs_paths.metrics_port));
      std::printf("metrics exporter listening on 127.0.0.1:%u\n",
                  static_cast<unsigned>(exporter->port()));
    }

    obs::RunManifest manifest;
    manifest.tool = "pss_run";
    const ExperimentSpec spec = spec_from_config(cfg);
    manifest.seed = spec.seed;
    manifest.workers = spec.workers;
    manifest.batch_size = spec.batch_size;
    for (const auto& key : cfg.keys()) {
      manifest.config.emplace_back(key, cfg.get_string(key, ""));
    }
    obs::RunManifest* mp = want_obs ? &manifest : nullptr;

    const std::uint64_t wall_t0 = obs::monotonic_ns();
    int rc = 0;
    const std::string mode = cfg.get_string("mode", "train");
    // A stacked snapshot routes infer through the graph path even without
    // layers= — the architecture lives in the model file.
    const auto graph_infer = [&](const Config& c) {
      return wants_graph(c) ||
             stacked_model_file(c.get_string("snapshot", ""));
    };
    if (mode == "train") {
      rc = wants_graph(cfg) ? run_graph_train(cfg, mp) : run_train(cfg, mp);
    } else if (mode == "infer") {
      rc = graph_infer(cfg) ? run_graph_infer(cfg, mp) : run_infer(cfg, mp);
    } else if (mode == "both") {
      Config with_snapshot = cfg;
      if (!cfg.has("snapshot")) {
        with_snapshot.set("snapshot", "out/pss_model.bin");
        std::filesystem::create_directories("out");
      }
      rc = wants_graph(with_snapshot) ? run_graph_train(with_snapshot, mp)
                                      : run_train(with_snapshot, mp);
      if (rc == 0) {
        rc = graph_infer(with_snapshot) ? run_graph_infer(with_snapshot, mp)
                                        : run_infer(with_snapshot, mp);
      }
    } else {
      throw Error("unknown mode: " + mode + " (train|infer|both)");
    }
    manifest.wall_seconds =
        static_cast<double>(obs::monotonic_ns() - wall_t0) * 1e-9;

    if (want_obs) {
      publish_engine_stats(default_engine(), "engine");
      // Mirror profiler rows (and profile.available) into the registry
      // before any dump, so metrics/prom/manifest all carry them.
      obs::publish_profile_stats();
      if (!metrics_path.empty()) {
        obs::write_metrics_json(metrics_path, "pss_run");
        std::printf("metrics saved: %s\n", metrics_path.c_str());
      }
      if (!trace_path.empty()) {
        obs::write_chrome_trace(trace_path);
        std::printf("trace saved: %s\n", trace_path.c_str());
      }
      if (!manifest_path.empty()) {
        obs::write_manifest(manifest_path, manifest);
        std::printf("manifest saved: %s\n", manifest_path.c_str());
      }
      if (!obs_paths.profile.empty()) {
        obs::write_profile_json(obs_paths.profile, "pss_run");
        std::printf("profile saved: %s\n", obs_paths.profile.c_str());
      }
      if (!obs_paths.prom.empty()) {
        obs::write_prometheus_text(obs_paths.prom);
        std::printf("prometheus text saved: %s\n", obs_paths.prom.c_str());
      }
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pss_run: %s\n", e.what());
    return 1;
  }
}
