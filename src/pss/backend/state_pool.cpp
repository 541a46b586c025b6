#include "pss/backend/state_pool.hpp"

#include <algorithm>

#include "pss/common/error.hpp"

namespace pss {

StatePool::StatePool(Backend* backend, Geometry geometry)
    : backend_(backend ? backend : &default_backend()),
      geometry_(geometry),
      membrane_(geometry.neurons, 0.0),
      recovery_(geometry.neurons, 0.0),
      last_spike_(geometry.neurons, kNeverSpiked),
      inhibited_until_(geometry.neurons, -1.0),
      spiked_(geometry.neurons, std::uint8_t{0}),
      currents_(geometry.neurons, 0.0),
      rates_(geometry.channels, 0.0),
      last_pre_spike_(geometry.channels, kNeverSpiked),
      g_(geometry.neurons * geometry.channels, 0.0) {
  PSS_REQUIRE(geometry.neurons > 0, "state pool needs at least one neuron");
}

PopulationHandle StatePool::add_population(Geometry geometry) {
  PSS_REQUIRE(geometry.neurons > 0, "population needs at least one neuron");
  ExtraPopulation p;
  p.geometry = geometry;
  p.membrane.assign(geometry.neurons, 0.0);
  p.recovery.assign(geometry.neurons, 0.0);
  p.last_spike.assign(geometry.neurons, kNeverSpiked);
  p.inhibited_until.assign(geometry.neurons, -1.0);
  p.spiked.assign(geometry.neurons, 0);
  p.currents.assign(geometry.neurons, 0.0);
  p.spike_counts.assign(geometry.neurons, 0);
  extra_.push_back(std::move(p));
  return extra_.size();  // handle 0 is the primary population
}

StatePool::ExtraPopulation& StatePool::extra(PopulationHandle h) {
  PSS_REQUIRE(h >= 1 && h <= extra_.size(), "population handle out of range");
  return extra_[h - 1];
}

StatePool::Geometry StatePool::population_geometry(PopulationHandle h) const {
  if (h == 0) return geometry_;
  PSS_REQUIRE(h <= extra_.size(), "population handle out of range");
  return extra_[h - 1].geometry;
}

std::span<double> StatePool::membrane(PopulationHandle h) {
  return h == 0 ? membrane_ : extra(h).membrane;
}

std::span<double> StatePool::recovery(PopulationHandle h) {
  return h == 0 ? recovery_ : extra(h).recovery;
}

std::span<TimeMs> StatePool::last_spike(PopulationHandle h) {
  return h == 0 ? last_spike_ : extra(h).last_spike;
}

std::span<TimeMs> StatePool::inhibited_until(PopulationHandle h) {
  return h == 0 ? inhibited_until_ : extra(h).inhibited_until;
}

std::span<std::uint8_t> StatePool::spiked(PopulationHandle h) {
  return h == 0 ? spiked_ : extra(h).spiked;
}

std::span<double> StatePool::currents(PopulationHandle h) {
  return h == 0 ? currents_ : extra(h).currents;
}

std::span<std::uint32_t> StatePool::spike_counts(PopulationHandle h) {
  PSS_REQUIRE(h >= 1, "the primary population has no spike-count section");
  return extra(h).spike_counts;
}

void StatePool::set_g_bounds(double g_min, double g_max) {
  PSS_REQUIRE(g_max > g_min, "conductance range must be non-empty");
  g_min_ = g_min;
  g_max_ = g_max;
  learn_hi_ = g_max;
  std::fill(g_.begin(), g_.end(), g_min);
}

void StatePool::set_learn_cap(double cap) {
  learn_hi_ = std::min(g_max_, cap);
}

std::span<double> StatePool::g_row(NeuronIndex post) {
  PSS_REQUIRE(post < geometry_.neurons, "post index out of range");
  return std::span(g_).subspan(
      static_cast<std::size_t>(post) * geometry_.channels, geometry_.channels);
}

std::span<const double> StatePool::g_row(NeuronIndex post) const {
  PSS_REQUIRE(post < geometry_.neurons, "post index out of range");
  return std::span(g_).subspan(
      static_cast<std::size_t>(post) * geometry_.channels, geometry_.channels);
}

double StatePool::clamp_g(double value) const {
  return std::clamp(value, g_min_, g_max_);
}

void StatePool::load_g(std::span<const double> values, bool clamp) {
  PSS_REQUIRE(values.size() == g_.size(),
              "conductance load size must equal synapse count");
  if (clamp) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      g_[i] = clamp_g(values[i]);
    }
  } else {
    std::copy(values.begin(), values.end(), g_.begin());
  }
}

void StatePool::build_sparse() {
  if (has_sparse()) return;
  const std::size_t channels = geometry_.channels;
  const std::size_t neurons = geometry_.neurons;
  PSS_REQUIRE(channels > 0, "sparse sections need an encoder/synapse section");
  csr_row_ptr_.resize(channels + 1);
  csr_cols_.resize(channels * neurons);
  stdp_progress_.assign(neurons * channels, 0);
  for (std::size_t c = 0; c <= channels; ++c) {
    csr_row_ptr_[c] = static_cast<std::uint32_t>(c * neurons);
  }
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t j = 0; j < neurons; ++j) {
      csr_cols_[c * neurons + j] = static_cast<NeuronIndex>(j);
    }
  }
}

std::span<std::uint32_t> StatePool::stdp_progress_row(NeuronIndex post) {
  PSS_REQUIRE(post < geometry_.neurons, "post index out of range");
  PSS_REQUIRE(stdp_progress_.size() != 0,
              "stdp progress requires build_sparse()");
  return std::span(stdp_progress_).subspan(
      static_cast<std::size_t>(post) * geometry_.channels, geometry_.channels);
}

void StatePool::init_g_uniform(double lo, double hi, SequentialRng& rng,
                               const Quantizer* quantizer) {
  PSS_REQUIRE(hi >= lo, "invalid init range");
  for (auto& value : g_) {
    double v = clamp_g(rng.uniform(lo, hi));
    if (quantizer) v = quantizer->quantize(v, rng.uniform());
    value = v;
  }
}

}  // namespace pss
