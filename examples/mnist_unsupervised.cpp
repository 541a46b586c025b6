// Full unsupervised-learning pipeline on MNIST(-like) data — the paper's
// Fig. 2 flow end to end with every stage exposed:
//   dataset -> pixel->frequency encoding -> WTA network with STDP ->
//   neuron labelling -> inference -> confusion matrix + conductance maps.
//
// Usage: mnist_unsupervised [key=value ...]
//   kind=stochastic|deterministic   option=fp32|16bit|8bit|4bit|2bit|highfreq
//   rounding=nearest|trunc|stochastic
//   neurons=100 train=400 label=250 eval=250 seed=1
//   maps=out/mnist_maps.pgm   curve=out/mnist_error.csv  checkpoints=4
//   workers=1 (0 = all cores; image-parallel labelling/eval, identical
//   results)   batch=1 (> 1 = minibatch STDP training)
//   backend=cpu|cpu_sparse (cpu)  compute backend (README "Compute backends")
//   metrics=<path.json>  trace=<path.json>  manifest=<path.json>
//   prom=<path.prom>  metrics_port=<port>
//   (observability sidecars + live exposition — see README "Observability")
//   checkpoint=<path> checkpoint_every=<N> resume=<path> faults=<spec>
//   (fault tolerance — see README "Fault tolerance & resume")
// Real MNIST is used when PSS_MNIST_DIR points at the IDX files.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "pss/common/error.hpp"
#include "pss/common/log.hpp"
#include "pss/data/idx.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/experiment/experiment.hpp"
#include "pss/io/config.hpp"
#include "pss/io/csv.hpp"
#include "pss/io/pgm.hpp"
#include "pss/obs/exporter.hpp"
#include "pss/obs/manifest.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/obs/trace.hpp"
#include "tools/run_options.hpp"

using namespace pss;


int main(int argc, char** argv) {
  try {
    const Config args = Config::from_args(argc, argv);
    tools::require_known_keys(args, {"maps", "curve", "retries", "verbose"});
    if (!args.get_bool("verbose", false)) set_log_level(LogLevel::kWarn);

    tools::arm_faults_from_config(args);

    const tools::ObsPaths obs_paths = tools::enable_observability(args);
    const std::string& trace_path = obs_paths.trace;
    const std::string& metrics_path = obs_paths.metrics;
    const std::string& manifest_path = obs_paths.manifest;
    const bool want_obs = obs_paths.any();
    std::optional<obs::MetricsExporter> exporter;
    if (obs_paths.metrics_port >= 0) {
      exporter.emplace(static_cast<std::uint16_t>(obs_paths.metrics_port));
      std::printf("metrics exporter listening on 127.0.0.1:%u\n",
                  static_cast<unsigned>(exporter->port()));
    }
    const std::uint64_t wall_t0 = obs::monotonic_ns();

    LabeledDataset data;
    if (auto real = load_real_dataset_from_env("mnist")) {
      data = std::move(*real);
    } else {
      SyntheticConfig cfg;
      cfg.train_count =
          static_cast<std::size_t>(args.get_int("train", 400)) + 200;
      cfg.test_count =
          static_cast<std::size_t>(args.get_int("label", 250)) +
          static_cast<std::size_t>(args.get_int("eval", 250));
      data = make_synthetic_digits(cfg);
    }

    ExperimentSpec spec =
        tools::spec_from_config(args, /*default_name=*/"mnist_unsupervised");
    // This demo defaults to four mid-training error-curve checkpoints; the
    // shared parser's default is 0 (final evaluation only).
    if (!args.has("checkpoints")) spec.checkpoints = 4;
    if (const auto parent =
            std::filesystem::path(spec.train_checkpoint_path).parent_path();
        !parent.empty()) {
      std::filesystem::create_directories(parent);
    }

    std::printf("pipeline: %s STDP, %s, rounding %s, %zu neurons, %zu train "
                "images (%s)\n",
                stdp_kind_name(spec.kind), learning_option_name(spec.option),
                rounding_mode_name(spec.rounding), spec.neuron_count,
                spec.train_images, data.name.c_str());

    // Stage 1+2: train / label / infer through the experiment harness.
    const ExperimentResult result = run_learning_experiment(spec, data);

    std::printf("\naccuracy %.1f%% | %zu/%zu neurons labelled | training "
                "%.1f s wall (%.0f s biological)\n",
                100.0 * result.accuracy, result.labelled_neurons,
                result.neuron_count, result.train_wall_seconds,
                result.simulated_learning_ms * 1e-3);
    std::printf("conductance: contrast %.3f, %.0f%% at G_min, %.0f%% at "
                "G_max\n",
                result.conductance_contrast, 100 * result.bottom_fraction,
                100 * result.top_fraction);

    std::printf("\nmoving error rate:\n");
    for (const auto& p : result.error_trace) {
      std::printf("  after %5zu images (%6.1f s bio): error %.1f%%\n",
                  p.images_seen, p.simulated_ms * 1e-3, 100 * p.error_rate);
    }

    // Stage 3: artifacts. Retrain a fresh same-seed network to export maps
    // (same trajectory), and dump the error curve as CSV.
    const std::string maps_path =
        args.get_string("maps", "out/mnist_maps.pgm");
    std::filesystem::create_directories(
        std::filesystem::path(maps_path).parent_path());
    // (train_network writes no checkpoint, so the replay leaves the real
    // run's checkpoint file alone.)
    const auto maps = conductance_maps(train_network(spec, data).block(0), 25);
    write_pgm(maps_path, tile_images(maps, 5, 5));

    const std::string curve_path =
        args.get_string("curve", "out/mnist_error.csv");
    CsvWriter csv(curve_path, {"images", "sim_ms", "error_rate"});
    for (const auto& p : result.error_trace) {
      csv.row({static_cast<double>(p.images_seen), p.simulated_ms,
               p.error_rate});
    }
    std::printf("\nwrote %s (5x5 conductance maps) and %s (error curve)\n",
                maps_path.c_str(), curve_path.c_str());

    if (want_obs) {
      publish_engine_stats(default_engine(), "engine");
      if (!metrics_path.empty()) {
        obs::write_metrics_json(metrics_path, "mnist_unsupervised");
        std::printf("metrics saved: %s\n", metrics_path.c_str());
      }
      if (!trace_path.empty()) {
        obs::write_chrome_trace(trace_path);
        std::printf("trace saved: %s\n", trace_path.c_str());
      }
      if (!manifest_path.empty()) {
        obs::RunManifest manifest;
        manifest.tool = "mnist_unsupervised";
        manifest.dataset = data.name;
        manifest.seed = spec.seed;
        manifest.workers = spec.workers;
        manifest.batch_size = spec.batch_size;
        for (const auto& key : args.keys()) {
          manifest.config.emplace_back(key, args.get_string(key, ""));
        }
        manifest.wall_seconds =
            static_cast<double>(obs::monotonic_ns() - wall_t0) * 1e-9;
        manifest.results.emplace_back("accuracy", result.accuracy);
        manifest.results.emplace_back(
            "labelled_neurons",
            static_cast<double>(result.labelled_neurons));
        manifest.results.emplace_back("train_wall_seconds",
                                      result.train_wall_seconds);
        manifest.results.emplace_back("conductance_contrast",
                                      result.conductance_contrast);
        if (spec.train_checkpoint_every > 0 || result.lineage.resumed) {
          manifest.has_checkpoint = true;
          manifest.resumed = result.lineage.resumed;
          manifest.checkpoint_run_id = result.lineage.run_id;
          manifest.checkpoint_parent_run_id = result.lineage.parent_run_id;
          manifest.checkpoint_count = result.lineage.checkpoint_count;
          manifest.presentation_cursor = result.lineage.presentation_cursor;
        }
        obs::write_manifest(manifest_path, manifest);
        std::printf("manifest saved: %s\n", manifest_path.c_str());
      }
      if (!obs_paths.prom.empty()) {
        obs::write_prometheus_text(obs_paths.prom);
        std::printf("prometheus text saved: %s\n", obs_paths.prom.c_str());
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
