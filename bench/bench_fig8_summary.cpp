// Fig. 8 — summary comparison of learning configurations:
//   (a) conductance maps (PGM sheets, one per configuration),
//   (b) accuracy and run-time per configuration,
//   (c) moving error rate vs simulation time — the high-frequency mode's
//       error drops much faster.
// Also reports the Sec. IV-A anchor: deterministic fp32 accuracy (the
// paper's baseline reproduces Diehl's 91.9% at 92.2%; at reduced scale the
// shape is "baseline det ≈ stochastic on simple data, both well above
// chance").
#include "bench_common.hpp"
#include "pss/io/csv.hpp"
#include "pss/io/pgm.hpp"

using namespace pss;

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "fig8_summary", [](const Config& args) {
    const bench::Scale scale = bench::parse_scale(args);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const LabeledDataset mnist = bench::load_dataset("mnist", scale, 7);
    const LabeledDataset fashion =
        bench::load_dataset("fashion-mnist", scale, 7);

    bench::print_header(
        "Fig. 8 — comparison of learning configurations",
        "stochastic STDP: higher accuracy on the complex set at similar "
        "run-time; high-frequency mode: much lower learning time with "
        "graceful accuracy degradation");

    struct Row {
      std::string label;
      const LabeledDataset* data;
      StdpKind kind;
      LearningOption option;
    };
    const std::vector<Row> rows = {
        {"baseline det fp32 (MNIST)", &mnist, StdpKind::kDeterministic,
         LearningOption::kFloat32},
        {"stochastic fp32 (MNIST)", &mnist, StdpKind::kStochastic,
         LearningOption::kFloat32},
        {"stoch high-freq (MNIST)", &mnist, StdpKind::kStochastic,
         LearningOption::kHighFrequency},
        {"baseline det fp32 (Fashion)", &fashion, StdpKind::kDeterministic,
         LearningOption::kFloat32},
        {"stochastic fp32 (Fashion)", &fashion, StdpKind::kStochastic,
         LearningOption::kFloat32},
    };

    TablePrinter t({"configuration", "accuracy (%)", "error (%)",
                    "train wall (s)", "sim time (s bio)", "map contrast"});
    CsvWriter trace_csv(bench::out_dir() + "/fig8c_error_traces.csv",
                        {"configuration", "images", "sim_minutes",
                         "error_rate"});
    std::vector<std::pair<std::string, ExperimentResult>> results;
    for (const Row& row : rows) {
      ExperimentSpec spec = bench::make_spec(scale, row.kind, row.option, seed);
      spec.name = row.label;
      spec.checkpoints = 4;  // Fig. 8c moving-error curve
      const ExperimentResult r = run_learning_experiment(spec, *row.data);
      t.add_row({row.label, format_fixed(100 * r.accuracy, 1),
                 format_fixed(100 * r.error_rate, 1),
                 format_fixed(r.train_wall_seconds, 1),
                 format_fixed(r.simulated_learning_ms * 1e-3, 0),
                 format_fixed(r.conductance_contrast, 3)});
      for (const auto& p : r.error_trace) {
        trace_csv.row({0.0, static_cast<double>(p.images_seen),
                       p.simulated_ms / 60000.0, p.error_rate});
      }
      results.emplace_back(row.label, r);
    }
    t.print();

    std::printf("\nFig. 8c — moving error rate vs simulation time:\n");
    TablePrinter c({"configuration", "checkpoint sim-minutes : error(%)"});
    for (const auto& [label, r] : results) {
      std::string cells;
      for (const auto& p : r.error_trace) {
        cells += format_fixed(p.simulated_ms / 60000.0, 1) + "m:" +
                 format_fixed(100 * p.error_rate, 0) + "%  ";
      }
      c.add_row({label, cells});
    }
    c.print();

    // Fig. 8a conductance sheets for the MNIST configurations.
    for (const Row& row : rows) {
      if (row.data != &mnist) continue;
      ExperimentSpec spec = bench::make_spec(scale, row.kind, row.option, seed);
      const auto maps =
          conductance_maps(train_network(spec, mnist).block(0), 25);
      std::string file = "fig8a_";
      file += stdp_kind_name(row.kind);
      file += row.option == LearningOption::kHighFrequency ? "_hf" : "";
      write_pgm(bench::out_dir() + "/" + file + ".pgm",
                tile_images(maps, 5, 5));
    }
    std::printf("\nconductance sheets written to out/fig8a_*.pgm\n");
    std::printf("\nSec. IV-A anchor: the baseline deterministic fp32 row above "
                "is this repo's counterpart of the paper's Diehl-level "
                "baseline (92.2%% at full scale on real MNIST).\n");
  });
}
