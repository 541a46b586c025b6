#include "pss/experiment/sweep.hpp"

#include <algorithm>

#include "pss/common/error.hpp"
#include "pss/io/table.hpp"

namespace pss {

std::vector<SweepPoint> sweep(
    const ExperimentSpec& base, const LabeledDataset& data,
    const std::vector<double>& values,
    const std::function<void(ExperimentSpec&, double)>& mutate) {
  PSS_REQUIRE(!values.empty(), "sweep needs at least one value");
  std::vector<SweepPoint> points;
  points.reserve(values.size());
  for (double v : values) {
    ExperimentSpec spec = base;
    mutate(spec, v);
    points.push_back({v, run_learning_experiment(spec, data)});
  }
  return points;
}

std::vector<SweepPoint> sweep_input_frequency(
    const ExperimentSpec& base, const LabeledDataset& data,
    const std::vector<double>& f_max_values, bool scale_t_learn) {
  const graph::GraphTrainerConfig base_cfg = base.trainer_config();
  const double ratio = base_cfg.f_min_hz / base_cfg.f_max_hz;
  return sweep(base, data, f_max_values,
               [&](ExperimentSpec& spec, double f_max) {
                 spec.f_max_hz = f_max;
                 spec.f_min_hz = std::max(0.5, f_max * ratio);
                 if (scale_t_learn) {
                   spec.t_learn_ms = std::max(
                       20.0, base_cfg.t_learn_ms * base_cfg.f_max_hz / f_max);
                 }
                 spec.name = base.name + " f_max=" + format_fixed(f_max, 0);
               });
}

}  // namespace pss
