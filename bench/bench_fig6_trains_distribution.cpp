// Fig. 6 — high-frequency and low-precision operation:
//   (a) input spike trains at low (1-22 Hz / 500 ms) and high (5-78 Hz /
//       100 ms) frequency: the digit's dark region is more distinct in the
//       high-frequency raster;
//   (b) conductance distribution of all synapses after Q1.7 learning:
//       deterministic STDP drops a large portion of synapses to the minimal
//       conductance; stochastic STDP keeps a usable distribution.
#include "bench_common.hpp"
#include "pss/encoding/pixel_frequency.hpp"
#include "pss/encoding/poisson_encoder.hpp"
#include "pss/stats/histogram.hpp"
#include "pss/stats/raster.hpp"

using namespace pss;

namespace {

void show_raster(const Image& img, double f_min, double f_max,
                 TimeMs duration) {
  const PixelFrequencyMap map(f_min, f_max);
  std::vector<double> rates;
  map.frequencies(img.span(), rates);
  PoissonEncoder enc(rates.size(), 77);
  enc.set_rates(rates);
  SpikeRaster raster(rates.size(), duration);
  std::vector<ChannelIndex> active;
  std::uint64_t spikes = 0;
  for (StepIndex s = 0; static_cast<double>(s) * 1.0 < duration; ++s) {
    enc.active_channels(s, 1.0, active);
    for (ChannelIndex c : active) raster.record(c, static_cast<TimeMs>(s));
    spikes += active.size();
  }
  std::printf("%u-%u Hz, %.0f ms, %llu input spikes (rows = pixel channels, "
              "subsampled):\n",
              static_cast<unsigned>(f_min), static_cast<unsigned>(f_max),
              duration, static_cast<unsigned long long>(spikes));
  std::fputs(raster.to_string(72, 20).c_str(), stdout);
}

Histogram conductance_histogram(const ExperimentSpec& spec,
                                const LabeledDataset& data) {
  Histogram h(0.0, 1.0, 16);
  h.add_all(train_network(spec, data).block(0).conductance().to_vector());
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "fig6_trains_distribution", [](const Config& args) {
    const bench::Scale scale = bench::parse_scale(args);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const LabeledDataset mnist = bench::load_dataset("mnist", scale, 7);

    bench::print_header(
        "Fig. 6a — input spike trains at low vs high frequency",
        "the written digit's region is more distinct at high frequency "
        "(more information-carrying spikes per unit time)");

    const Image& sample = mnist.train[0];
    std::printf("sample digit label: %d\n\n", sample.label);
    show_raster(sample, 1.0, 22.0, 500.0);
    std::printf("\n");
    show_raster(sample, 5.0, 78.0, 100.0);

    bench::print_header(
        "Fig. 6b — conductance distribution after Q1.7 learning",
        "deterministic STDP drops a large portion of synapses to minimal "
        "conductance; stochastic STDP retains a broad distribution");

    for (const StdpKind kind :
         {StdpKind::kStochastic, StdpKind::kDeterministic}) {
      ExperimentSpec spec =
          bench::make_spec(scale, kind, LearningOption::k8Bit, seed);
      // Stochastic rounding: the only rounding option under which the
      // deterministic rule's quantized updates keep moving across the whole
      // range (Table II's best deterministic column) — with truncation or
      // nearest it simply stalls where |ΔG| < 1/2^(n+1), which hides the
      // distribution collapse the paper's Fig. 6b shows.
      spec.rounding = RoundingMode::kStochastic;
      const Histogram h = conductance_histogram(spec, mnist);
      std::printf("\n%s STDP, Q1.7 (%llu synapses): bottom-bin %.1f%%, "
                  "top-bin %.1f%%, mean %.3f\n",
                  stdp_kind_name(kind),
                  static_cast<unsigned long long>(h.total()),
                  100.0 * h.bottom_fraction(), 100.0 * h.top_fraction(),
                  h.mean());
      std::fputs(h.to_string(48).c_str(), stdout);
    }
  });
}
