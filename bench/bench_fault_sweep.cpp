// Synaptic-fault robustness sweep — accuracy vs fault rate for deterministic
// vs stochastic STDP, after the authors' companion paper ("Improving
// Robustness of ReRAM-based SNN Accelerator with Stochastic STDP", She et
// al. 2019): ReRAM crossbar cells stuck at G_min/G_max and random conductance
// perturbation.
//
// Protocol: train + label each rule on clean synapses, then damage the
// trained conductance matrix at increasing fault rates (same Philox fault
// pattern for both rules, so they face identical defects) and measure
// inference accuracy with the clean labelling. Expected shape: both rules
// degrade with fault rate, with stochastic STDP holding accuracy better —
// its weight distribution is driven toward the rails anyway, so stuck cells
// disturb the learned patterns less.
#include "bench_common.hpp"
#include "pss/io/csv.hpp"
#include "pss/graph/graph_snapshot.hpp"
#include "pss/robust/synaptic_faults.hpp"

using namespace pss;

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "fault_sweep", [](const Config& args) {
    bench::Scale scale = bench::parse_scale(args);
    if (scale.name == "quick") {
      // 20 evaluation cells: keep each affordable.
      scale.eval_images = 150;
    }
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const LabeledDataset mnist = bench::load_dataset("mnist", scale, 7);

    bench::print_header(
        "Synaptic-fault sweep — accuracy vs stuck/perturbed synapse rate",
        "stochastic STDP degrades more gracefully than deterministic STDP "
        "under ReRAM stuck-at and perturbation faults (companion paper)");

    const std::vector<double> fault_rates = {0.0, 0.05, 0.10, 0.20, 0.30};
    CsvWriter csv(bench::out_dir() + "/fault_sweep.csv",
                  {"rule", "fault", "rate", "accuracy", "damaged_synapses"});

    for (const StdpKind kind :
         {StdpKind::kDeterministic, StdpKind::kStochastic}) {
      ExperimentSpec spec =
          bench::make_spec(scale, kind, LearningOption::kFloat32, seed);
      graph::NetworkGraph net = train_network(spec, mnist);
      graph::GraphTrainer trainer(net, spec.trainer_config());
      const Dataset label_set = mnist.test.head(spec.label_images);
      const Dataset eval_set = mnist.test.slice(
          spec.label_images, spec.label_images + spec.eval_images);
      const std::size_t labelled = trainer.label(label_set);
      const graph::GraphModel clean = graph::GraphModel::capture(net);

      std::printf("\n%s STDP (%zu/%zu neurons labelled)\n",
                  stdp_kind_name(kind), labelled, spec.neuron_count);
      TablePrinter t({"fault rate", "stuck-at acc (%)", "perturb acc (%)"});
      for (const double rate : fault_rates) {
        std::vector<std::string> cells = {format_fixed(rate, 2)};
        for (const char* fault : {"stuck", "perturb"}) {
          // Same fault-pattern seed for both rules and both fault kinds at a
          // given rate: the comparison isolates the learning rule.
          robust::SynapticFaultPlan plan;
          plan.seed = 0xfa571 + static_cast<std::uint64_t>(rate * 1000);
          if (std::string(fault) == "stuck") {
            plan.stuck_lo_rate = rate / 2;
            plan.stuck_hi_rate = rate / 2;
          } else {
            plan.perturb_rate = rate;
            plan.perturb_sigma = 0.2;
          }

          graph::NetworkGraph victim(net.config());
          clean.restore(victim);
          const robust::SynapticFaultSummary damage =
              robust::apply_synaptic_faults(victim.block(0).conductance(),
                                            plan);
          const double accuracy =
              graph::GraphTrainer(victim, spec.trainer_config())
                  .evaluate(eval_set)
                  .accuracy();

          cells.push_back(format_fixed(100.0 * accuracy, 1));
          csv.row({std::string(stdp_kind_name(kind)), fault,
                   format_fixed(rate, 2), format_fixed(accuracy, 4),
                   std::to_string(damage.total())});
          bench::record(std::string("fault_sweep.") + stdp_kind_name(kind) +
                            "." + fault + "." + format_fixed(rate, 2),
                        accuracy);
        }
        t.add_row(cells);
      }
      t.print();
    }

    const std::string record = bench::write_bench_record("fault_sweep");
    std::printf("\nwrote %s/fault_sweep.csv and %s\n", bench::out_dir().c_str(),
                record.c_str());
  });
}
