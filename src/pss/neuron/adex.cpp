#include "pss/neuron/adex.hpp"

#include <algorithm>
#include <cmath>

#include "pss/common/error.hpp"

namespace pss {

AdexParameters adex_regular_spiking() { return AdexParameters{}; }

AdexParameters adex_adapting() {
  AdexParameters p;
  p.b = 300.0;
  p.tau_w = 200.0;
  return p;
}

bool adex_step(const AdexParameters& p, double& v, double& w, double current,
               TimeMs dt) {
  // Clamp the exponent: once V is a few ΔT above V_T the spike is certain
  // and the exact value is irrelevant (it is reset anyway).
  const double exponent = std::min((v - p.v_threshold) / p.delta_t, 20.0);
  const double dv =
      (-p.g_leak * (v - p.e_leak) +
       p.g_leak * p.delta_t * std::exp(exponent) - w + current) /
      p.capacitance;
  const double dw = (p.a * (v - p.e_leak) - w) / p.tau_w;
  v += dt * dv;
  w += dt * dw;
  if (v > p.v_spike) {
    v = p.v_reset;
    w += p.b;
    return true;
  }
  return false;
}

AdexPopulation::AdexPopulation(std::size_t size, AdexParameters params,
                               Engine* engine)
    : params_(params),
      engine_(engine ? engine : &default_engine()),
      v_(size, params.v_init),
      w_(size, 0.0),
      last_spike_(size, kNeverSpiked),
      inhibited_until_(size, -1.0),
      spiked_flag_(size, 0) {
  PSS_REQUIRE(size > 0, "population must not be empty");
  PSS_REQUIRE(params.capacitance > 0.0 && params.tau_w > 0.0 &&
                  params.delta_t > 0.0,
              "AdEx parameters must be positive");
}

void AdexPopulation::reset() {
  v_.fill(params_.v_init);
  w_.fill(0.0);
  last_spike_.fill(kNeverSpiked);
  inhibited_until_.fill(-1.0);
  spiked_flag_.fill(0);
  total_spikes_ = 0;
}

void AdexPopulation::step(std::span<const double> input_current, TimeMs now,
                          TimeMs dt, std::vector<NeuronIndex>& spikes,
                          std::span<const double> threshold_offset) {
  PSS_REQUIRE(input_current.size() == size(),
              "current vector size must equal population size");
  PSS_REQUIRE(threshold_offset.empty() || threshold_offset.size() == size(),
              "threshold offset size must equal population size");
  spikes.clear();

  auto v = v_.span();
  auto w = w_.span();
  auto last = last_spike_.span();
  auto inhibited = inhibited_until_.span();
  auto flag = spiked_flag_.span();
  const AdexParameters base = params_;

  engine_->launch(size(), [&](std::size_t i) {
    flag[i] = 0;
    if (now <= inhibited[i]) {
      v[i] = base.v_reset;
      return;
    }
    AdexParameters p = base;
    if (!threshold_offset.empty()) p.v_threshold += threshold_offset[i];
    flag[i] = adex_step(p, v[i], w[i], input_current[i], dt) ? 1 : 0;
    if (flag[i]) last[i] = now;
  });

  for (std::size_t i = 0; i < size(); ++i) {
    if (flag[i]) {
      spikes.push_back(static_cast<NeuronIndex>(i));
      ++total_spikes_;
    }
  }
}

void AdexPopulation::inhibit(NeuronIndex neuron, TimeMs until) {
  PSS_REQUIRE(neuron < size(), "neuron index out of range");
  inhibited_until_[neuron] = until;
}

void AdexPopulation::inhibit_all_except(NeuronIndex winner, TimeMs until) {
  PSS_REQUIRE(winner < size(), "winner index out of range");
  auto inhibited = inhibited_until_.span();
  for (std::size_t i = 0; i < size(); ++i) {
    if (i != winner && until > inhibited[i]) inhibited[i] = until;
  }
}

double adex_spiking_frequency(const AdexParameters& params, double current,
                              TimeMs duration_ms, TimeMs settle_ms,
                              TimeMs dt) {
  PSS_REQUIRE(duration_ms > settle_ms, "duration must exceed settle time");
  double v = params.v_init;
  double w = 0.0;
  std::uint64_t spikes = 0;
  TimeMs t = 0.0;
  while (t < duration_ms) {
    t += dt;
    if (adex_step(params, v, w, current, dt) && t > settle_ms) ++spikes;
  }
  return static_cast<double>(spikes) / ((duration_ms - settle_ms) * 1e-3);
}

}  // namespace pss
