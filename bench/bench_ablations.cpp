// Ablation benches for the design choices DESIGN.md calls out:
//   1. stochastic depression pathway: stale-at-post (Srinivasan-style, the
//      default) vs pre-spike eq. 7 verbatim vs both;
//   2. WTA inhibition duration during learning;
//   3. homeostasis (adaptive threshold) on/off;
//   4. readout inhibition softness (t_inh_readout).
// Each ablation runs the same scaled MNIST protocol and reports accuracy.
#include "bench_common.hpp"
#include "pss/io/csv.hpp"

using namespace pss;

namespace {

ExperimentResult run_with(const bench::Scale& scale,
                          const LabeledDataset& data, std::uint64_t seed,
                          const std::function<void(WtaConfig&)>& patch,
                          const std::string& name) {
  ExperimentSpec spec =
      bench::make_spec(scale, StdpKind::kStochastic, LearningOption::kFloat32,
                       seed);
  spec.name = name;
  WtaConfig cfg = spec.network_config();
  patch(cfg);
  return run_learning_experiment(spec, data, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "ablations", [](const Config& args) {
    bench::Scale scale = bench::parse_scale(args);
    if (scale.name == "quick") scale.train_images = 250;
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const LabeledDataset mnist = bench::load_dataset("mnist", scale, 7);
    CsvWriter csv(bench::out_dir() + "/ablations.csv",
                  {"ablation", "variant", "accuracy"});

    bench::print_header("Ablation 1 — stochastic depression pathway",
                        "stale-at-post drives background synapses down; the "
                        "rate-linear eq.7-only pathway cannot (DESIGN.md)");
    TablePrinter t1({"depression mode", "accuracy (%)", "labelled"});
    for (const DepressionMode mode :
         {DepressionMode::kStaleAtPost, DepressionMode::kPreSpikeEq7,
          DepressionMode::kBoth}) {
      const auto r = run_with(
          scale, mnist, seed,
          [mode](WtaConfig& cfg) { cfg.stdp.depression = mode; },
          depression_mode_name(mode));
      t1.add_row({depression_mode_name(mode),
                  format_fixed(100 * r.accuracy, 1),
                  std::to_string(r.labelled_neurons)});
      csv.row({"depression", depression_mode_name(mode),
               format_fixed(r.accuracy, 4)});
    }
    t1.print();

    bench::print_header("Ablation 2 — WTA inhibition duration (learning)",
                        "too short: winners not isolated; too long: too few "
                        "learning events per presentation");
    TablePrinter t2({"t_inh (ms)", "accuracy (%)"});
    for (const double t_inh : {2.0, 10.0, 20.0, 40.0}) {
      const auto r = run_with(
          scale, mnist, seed,
          [t_inh](WtaConfig& cfg) { cfg.t_inh_ms = t_inh; },
          "t_inh=" + format_fixed(t_inh, 0));
      t2.add_row({format_fixed(t_inh, 0), format_fixed(100 * r.accuracy, 1)});
      csv.row({"t_inh", format_fixed(t_inh, 0), format_fixed(r.accuracy, 4)});
    }
    t2.print();

    bench::print_header("Ablation 3 — adaptive-threshold homeostasis",
                        "without it a few early winners capture every "
                        "pattern");
    TablePrinter t3({"homeostasis", "accuracy (%)", "labelled"});
    for (const bool enabled : {true, false}) {
      const auto r = run_with(
          scale, mnist, seed,
          [enabled](WtaConfig& cfg) { cfg.homeostasis.enabled = enabled; },
          enabled ? "on" : "off");
      t3.add_row({enabled ? "on" : "off", format_fixed(100 * r.accuracy, 1),
                  std::to_string(r.labelled_neurons)});
      csv.row({"homeostasis", enabled ? "on" : "off",
               format_fixed(r.accuracy, 4)});
    }
    t3.print();

    bench::print_header("Ablation 4 — readout inhibition softness",
                        "hard WTA at readout reduces the class score to a "
                        "single neuron's vote; a brief veto works best");
    TablePrinter t4({"t_inh readout (ms)", "accuracy (%)"});
    for (const double t : {0.0, 1.0, 5.0, 20.0}) {
      const auto r = run_with(
          scale, mnist, seed,
          [t](WtaConfig& cfg) {
            cfg.readout_inhibition = t > 0.0;
            cfg.t_inh_readout_ms = t;
          },
          "readout=" + format_fixed(t, 0));
      t4.add_row({format_fixed(t, 0), format_fixed(100 * r.accuracy, 1)});
      csv.row({"readout_inh", format_fixed(t, 0), format_fixed(r.accuracy, 4)});
    }
    t4.print();

    bench::print_header(
        "Ablation 5 — first-layer neuron model",
        "the simulator supports different neuron models: the WTA pipeline "
        "runs unchanged on Izhikevich neurons and learns above chance, but "
        "every network constant (drive, inhibition, homeostasis, STDP "
        "timing) is calibrated for the paper's LIF — the gap quantifies how "
        "model-specific that tuning is");
    TablePrinter t5({"neuron model", "accuracy (%)", "labelled"});
    for (const NeuronModelKind model :
         {NeuronModelKind::kLif, NeuronModelKind::kIzhikevich}) {
      const auto r = run_with(
          scale, mnist, seed,
          [model](WtaConfig& cfg) { cfg.neuron_model = model; },
          neuron_model_name(model));
      t5.add_row({neuron_model_name(model), format_fixed(100 * r.accuracy, 1),
                  std::to_string(r.labelled_neurons)});
      csv.row({"neuron_model", neuron_model_name(model),
               format_fixed(r.accuracy, 4)});
    }
    t5.print();

    bench::print_header("Ablation 6 — amplitude auto-gain",
                        "the 'tuned to input frequency' normalization: "
                        "without it, boosted-frequency input overdrives the "
                        "network (this is what limits the deterministic "
                        "baseline's usable f_max in Fig. 7a)");
    TablePrinter t6({"auto-gain", "f_max (Hz)", "accuracy (%)"});
    for (const bool gain : {true, false}) {
      for (const double f_max : {22.0, 66.0}) {
        ExperimentSpec spec = bench::make_spec(
            scale, StdpKind::kStochastic, LearningOption::kHighFrequency,
            seed);
        spec.f_min_hz = f_max / 22.0;
        spec.f_max_hz = f_max;
        spec.t_learn_ms = 500.0 * 22.0 / f_max;
        spec.train_images = scale.train_images;
        WtaConfig cfg = spec.network_config();
        if (!gain) cfg.reference_total_rate_hz = 0.0;
        const double acc = run_learning_experiment(spec, mnist, cfg).accuracy;
        t6.add_row({gain ? "on" : "off", format_fixed(f_max, 0),
                    format_fixed(100 * acc, 1)});
        csv.row({"auto_gain", (gain ? "on_" : "off_") + format_fixed(f_max, 0),
                 format_fixed(acc, 4)});
      }
    }
    t6.print();
  });
}
