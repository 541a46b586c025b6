// Fig. 5 — conductance-map visualization:
//   (a) deterministic (baseline) vs stochastic STDP on MNIST and
//       Fashion-MNIST: on the complex set the baseline "learns the
//       overlapping features of all classes" (washed-out maps) while
//       stochastic STDP learns distinct patterns;
//   (b) effect of the input-frequency range on the stochastic maps: beyond
//       a limit the maps degrade toward chaos.
//
// Maps are written as tiled PGM sheets into out/, and the table quantifies
// map quality with the per-neuron quartile contrast plus accuracy.
#include "bench_common.hpp"
#include "pss/io/pgm.hpp"

using namespace pss;

namespace {

struct MapRun {
  std::string label;
  ExperimentResult result;
};

ExperimentResult run_and_dump_maps(const ExperimentSpec& spec,
                                   const LabeledDataset& data,
                                   const std::string& pgm_name) {
  // Re-run the training part manually so we can grab the network's maps.
  const auto maps = conductance_maps(train_network(spec, data).block(0), 25);
  write_pgm(bench::out_dir() + "/" + pgm_name, tile_images(maps, 5, 5));
  // Full protocol (fresh network, same seed -> same trajectory) for the
  // accuracy column.
  return run_learning_experiment(spec, data);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "fig5_conductance_maps", [](const Config& args) {
    const bench::Scale scale = bench::parse_scale(args);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

    bench::print_header(
        "Fig. 5a — conductance maps: baseline vs stochastic STDP",
        "both rules learn digit maps; on Fashion-MNIST the baseline washes "
        "out (low map contrast, low accuracy) while stochastic STDP keeps "
        "class-specific maps");

    const LabeledDataset mnist = bench::load_dataset("mnist", scale, 7);
    const LabeledDataset fashion =
        bench::load_dataset("fashion-mnist", scale, 7);

    std::vector<MapRun> runs;
    for (const auto& [data, dname] :
         {std::pair<const LabeledDataset&, std::string>{mnist, "mnist"},
          {fashion, "fashion"}}) {
      for (const StdpKind kind :
           {StdpKind::kDeterministic, StdpKind::kStochastic}) {
        ExperimentSpec spec =
            bench::make_spec(scale, kind, LearningOption::kFloat32, seed);
        spec.name = dname + " " + stdp_kind_name(kind);
        const std::string pgm = "fig5a_" + dname + "_" +
                                stdp_kind_name(kind) + ".pgm";
        runs.push_back({spec.name, run_and_dump_maps(spec, data, pgm)});
      }
    }

    TablePrinter t({"dataset / rule", "accuracy (%)", "map contrast",
                    "G at bottom", "G at top"});
    for (const auto& r : runs) {
      t.add_row({r.label, format_fixed(100.0 * r.result.accuracy, 1),
                 format_fixed(r.result.conductance_contrast, 3),
                 format_fixed(r.result.bottom_fraction, 2),
                 format_fixed(r.result.top_fraction, 2)});
    }
    t.print();
    std::printf("\nmap sheets written to out/fig5a_*.pgm (25 neurons each)\n");

    bench::print_header(
        "Fig. 5b — stochastic maps vs input spike-train frequency",
        "maps stay clean over a wide f_max range and degrade toward chaotic "
        "state beyond it");

    TablePrinter fb({"f_max (Hz)", "accuracy (%)", "map contrast"});
    for (const double f_max : {22.0, 44.0, 78.0, 140.0}) {
      ExperimentSpec spec = bench::make_spec(scale, StdpKind::kStochastic,
                                             LearningOption::kHighFrequency,
                                             seed);
      spec.f_max_hz = f_max;
      spec.f_min_hz = std::max(1.0, f_max * 5.0 / 78.0);
      spec.t_learn_ms = std::max(40.0, 500.0 * 22.0 / f_max);
      spec.train_images = scale.train_images;
      spec.name = "f_max=" + format_fixed(f_max, 0);
      const std::string pgm =
          "fig5b_fmax" + format_fixed(f_max, 0) + ".pgm";
      const ExperimentResult r = run_and_dump_maps(spec, mnist, pgm);
      fb.add_row({format_fixed(f_max, 0), format_fixed(100.0 * r.accuracy, 1),
                  format_fixed(r.conductance_contrast, 3)});
    }
    fb.print();
    std::printf("\nmap sheets written to out/fig5b_*.pgm\n");
  });
}
