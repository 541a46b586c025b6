#include "pss/graph/network_graph.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <new>
#include <set>
#include <utility>

#include "pss/backend/backend.hpp"
#include "pss/backend/kernels.hpp"
#include "pss/backend/state_pool.hpp"
#include "pss/common/error.hpp"
#include "pss/graph/filter_bank.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/obs/trace.hpp"

namespace pss::graph {

namespace {

/// Sibling WTA blocks draw from decorrelated seed streams; block 0 keeps the
/// base seed verbatim so the single-WTA graph is bitwise-equal to a
/// standalone WtaNetwork.
constexpr std::uint64_t kBlockSeedStride = 0xC0FFEEull;

/// Conv units are plain leak-to-zero integrate-and-fire cells: v rides in
/// [0, threshold), no constant drive, unit current gain (the filter-bank
/// amplitude carries the conv gain), membrane leak on the conv decay scale.
LifParameters conv_lif_parameters(const ConvSpec& conv) {
  LifParameters p;
  p.v_threshold = conv.threshold;
  p.v_reset = 0.0;
  p.v_init = 0.0;
  p.a = 0.0;
  p.b = conv.decay_ms > 0.0 ? -1.0 / conv.decay_ms : -1.0;
  p.c = 1.0;
  p.refractory_ms = 0.0;
  return p;
}

/// Trace events buffer raw `const char*` names until the process-exit dump,
/// which can outlive any NetworkGraph. Layer tags are therefore interned in a
/// process-lifetime pool; the pool is tiny (one entry per distinct
/// "graph.l<i>.<kind>" tag ever constructed) and never shrinks.
const char* intern_trace_tag(const std::string& tag) {
  static std::mutex mutex;
  static std::set<std::string> pool;
  const std::lock_guard<std::mutex> lock(mutex);
  return pool.insert(tag).first->c_str();
}

}  // namespace

int GraphResult::winner() const {
  int best = -1;
  std::uint32_t best_count = 0;
  for (std::size_t i = 0; i < spike_counts.size(); ++i) {
    if (spike_counts[i] > best_count) {
      best_count = spike_counts[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

NetworkGraph::NetworkGraph(const GraphConfig& config, Engine* engine)
    : config_(config),
      shapes_(compute_shapes(config)),
      backend_(make_backend(config.wta_base.backend, engine)),
      pool_(std::make_unique<StatePool>(
          backend_.get(),
          StatePool::Geometry{1, shapes_.front().units()})),
      encoder_(*pool_, config.wta_base.seed) {
  // Front-end layers each own a population segment in the shared pool —
  // the multi-population StatePool growth the graph exercises.
  for (std::size_t i = 0; i < config_.layers.size(); ++i) {
    const LayerSpec& spec = config_.layers[i];
    if (spec.kind == LayerKind::kWta) break;
    FrontLayer layer;
    layer.spec = spec;
    layer.in = shapes_[i];
    layer.out = shapes_[i + 1];
    layer.population =
        pool_->add_population(StatePool::Geometry{layer.out.units(), 0});
    if (spec.kind == LayerKind::kConv) {
      layer.filters = make_filter_bank(spec.conv.bank, spec.conv.filters,
                                       spec.conv.kernel, layer.in.channels);
      layer.decay_factor =
          spec.conv.decay_ms > 0.0
              ? std::exp(-config_.wta_base.dt / spec.conv.decay_ms)
              : 0.0;
      layer.lif = conv_lif_parameters(spec.conv);
    }
    front_.push_back(std::move(layer));
  }

  // WTA blocks: embedded WtaNetworks deriving from the base config. The
  // final block carries the readout flags; every block's input is the
  // previous layer's unit count.
  std::size_t wta_seen = 0;
  for (std::size_t i = 0; i < config_.layers.size(); ++i) {
    if (config_.layers[i].kind == LayerKind::kWta) {
      ++wta_seen;
    }
  }
  blocks_.reserve(wta_seen);
  for (std::size_t i = 0; i < config_.layers.size(); ++i) {
    const LayerSpec& spec = config_.layers[i];
    if (spec.kind != LayerKind::kWta) continue;
    const std::size_t b = block_layer_.size();
    WtaConfig bc = config_.wta_base;
    bc.input_channels = shapes_[i].units();
    bc.neuron_count = spec.wta.neurons;
    bc.seed = config_.wta_base.seed + kBlockSeedStride * b;
    if (b + 1 == wta_seen) {
      bc.readout_inhibition = config_.readout.inhibition;
      bc.readout_theta = config_.readout.theta;
    }
    blocks_.emplace_back(bc, engine);
    block_layer_.push_back(i);
  }

  layer_tag_.reserve(config_.layers.size());
  for (std::size_t i = 0; i < config_.layers.size(); ++i) {
    std::string tag = "graph.l" + std::to_string(i) + "." +
                      layer_kind_name(config_.layers[i].kind);
    layer_ns_name_.push_back(tag + ".ns");
    layer_spikes_name_.push_back("graph.l" + std::to_string(i) + ".spikes");
    layer_tag_.push_back(intern_trace_tag(tag));
  }
}

NetworkGraph::~NetworkGraph() = default;
NetworkGraph::NetworkGraph(NetworkGraph&&) noexcept = default;

NetworkGraph& NetworkGraph::operator=(NetworkGraph&& other) noexcept {
  // Destroy-and-rebuild: member-wise move-assignment would replace backend_
  // before pool_, freeing pool buffers through a dead backend.
  if (this != &other) {
    this->~NetworkGraph();
    new (this) NetworkGraph(std::move(other));
  }
  return *this;
}

void NetworkGraph::set_presentation_index(std::uint64_t index) {
  PSS_REQUIRE(index < (std::uint64_t{1} << 32),
              "presentation index must fit the encoder counter space");
  presentation_index_ = index;
}

void NetworkGraph::skip_presentations(std::uint64_t count, TimeMs duration_ms,
                                      int learn_block) {
  const std::size_t last = learn_block >= 0
                               ? static_cast<std::size_t>(learn_block)
                               : blocks_.size() - 1;
  for (std::size_t b = 0; b <= last; ++b) {
    blocks_.at(b).skip_presentations(count, duration_ms);
  }
  presentation_index_ += count;
}

NetworkGraph NetworkGraph::replicate(Engine* engine) const {
  NetworkGraph twin(config_, engine);
  twin.sync_from(*this);
  return twin;
}

void NetworkGraph::sync_from(const NetworkGraph& source) {
  PSS_REQUIRE(blocks_.size() == source.blocks_.size(),
              "sync_from requires graphs of the same architecture");
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    blocks_[b].sync_from(source.blocks_[b]);
  }
  presentation_index_ = source.presentation_index_;
}

void NetworkGraph::set_neuron_labels(std::vector<int> labels) {
  PSS_REQUIRE(labels.size() == output_units(),
              "label vector size must match the final block");
  int max_label = -1;
  for (int l : labels) max_label = std::max(max_label, l);
  labels_ = std::move(labels);
  class_count_ = static_cast<std::size_t>(max_label + 1);
}

void NetworkGraph::reset_front() {
  for (FrontLayer& layer : front_) {
    const double v0 =
        layer.spec.kind == LayerKind::kConv ? layer.lif.v_init : 0.0;
    std::ranges::fill(pool_->membrane(layer.population), v0);
    std::ranges::fill(pool_->currents(layer.population), 0.0);
    std::ranges::fill(pool_->spiked(layer.population), std::uint8_t{0});
    std::ranges::fill(pool_->last_spike(layer.population), kNeverSpiked);
    std::ranges::fill(pool_->inhibited_until(layer.population), -1.0);
    std::ranges::fill(pool_->spike_counts(layer.population), 0u);
  }
}

void NetworkGraph::encoded_rates_from_frame(const Image& frame,
                                            const Image* previous,
                                            std::vector<double>& rates) const {
  // Encoding is per-pixel, so only the unit count must match — a front-less
  // graph flattens its input shape to {1, 1, units} (single_wta_graph) yet
  // still accepts the original 2-D frames.
  PSS_REQUIRE(frame.pixel_count() == config_.input.units(),
              "frame pixel count must match the graph input units");
  const std::size_t pixels = frame.pixel_count();
  const double peak = config_.encode.peak_hz;
  if (!config_.encode.temporal_diff) {
    rates.resize(pixels);
    for (std::size_t i = 0; i < pixels; ++i) {
      rates[i] = peak * static_cast<double>(frame.pixels[i]) / 255.0;
    }
    return;
  }
  // ON/OFF change planes vs the previous frame (frame 0 diffs vs blank, so a
  // static presentation reduces to intensity→rate on the ON plane).
  rates.assign(2 * pixels, 0.0);
  for (std::size_t i = 0; i < pixels; ++i) {
    const double prev =
        previous != nullptr ? static_cast<double>(previous->pixels[i]) : 0.0;
    const double diff =
        (static_cast<double>(frame.pixels[i]) - prev) / 255.0;
    if (diff > 0.0) {
      rates[i] = peak * diff;
    } else {
      rates[pixels + i] = peak * -diff;
    }
  }
}

void NetworkGraph::run_front_segment(std::span<const double> rates_hz,
                                     StepIndex steps,
                                     std::uint64_t encode_index,
                                     GraphResult& result,
                                     std::span<std::uint64_t> layer_ns) {
  Engine& engine = backend_->engine();
  const KernelTable& kernels = backend_->kernels();
  const TimeMs dt = config_.wta_base.dt;
  const bool timed = obs::metrics_enabled() || obs::trace_enabled();

  encoder_.set_rates(rates_hz);
  encoder_.set_presentation(encode_index);
  // Event-driven backends build the segment's spike events once and slice
  // per step — sparse propagation of the inter-layer event stream.
  const bool events = encoder_.supports_events();
  if (events) {
    encoder_.build_events(steps, dt, events_);
  }

  std::uint64_t mark = timed ? obs::monotonic_ns() : 0;
  const auto charge = [&](std::size_t slot) {
    if (timed) {
      const std::uint64_t now_ns = obs::monotonic_ns();
      layer_ns[slot] += now_ns - mark;
      mark = now_ns;
    }
  };

  for (StepIndex s = 0; s < steps; ++s) {
    const TimeMs t = static_cast<TimeMs>(s + 1) * dt;
    std::span<const ChannelIndex> active;
    if (events) {
      active = events_.at_step(s);
    } else {
      encoder_.active_channels(s, dt, active_in_);
      active = active_in_;
    }
    result.input_spikes += active.size();
    charge(0);

    for (std::size_t li = 0; li < front_.size(); ++li) {
      FrontLayer& layer = front_[li];
      const auto flags = pool_->spiked(layer.population);
      const auto counts = pool_->spike_counts(layer.population);
      if (layer.spec.kind == LayerKind::kConv) {
        ConvAccumulateArgs cargs;
        cargs.filters = layer.filters;
        cargs.filter_count = layer.out.channels;
        cargs.in_channels = layer.in.channels;
        cargs.kernel = layer.spec.conv.kernel;
        cargs.stride = layer.spec.conv.stride;
        cargs.in_width = layer.in.width;
        cargs.in_height = layer.in.height;
        cargs.out_width = layer.out.width;
        cargs.out_height = layer.out.height;
        cargs.active_pre = active;
        cargs.amplitude = layer.spec.conv.gain;
        cargs.decay_factor = layer.decay_factor;
        cargs.currents = pool_->currents(layer.population);
        kernels.conv_accumulate(engine, cargs);

        LifStepArgs largs;
        largs.params = layer.lif;
        largs.step.state =
            NeuronStateView{pool_->membrane(layer.population),
                            {},
                            pool_->last_spike(layer.population),
                            pool_->inhibited_until(layer.population),
                            flags};
        largs.step.input_current = pool_->currents(layer.population);
        largs.step.now = t;
        largs.step.dt = dt;
        kernels.lif_step(engine, largs);
      } else {
        PoolForwardArgs pargs;
        pargs.spiked = pool_->spiked(front_[li - 1].population);
        pargs.channels = layer.in.channels;
        pargs.in_width = layer.in.width;
        pargs.in_height = layer.in.height;
        pargs.window = layer.spec.pool.window;
        pargs.out_width = layer.out.width;
        pargs.out_height = layer.out.height;
        pargs.pooled = flags;
        pargs.pooled_counts = counts;
        kernels.pool_forward(engine, pargs);
      }

      // Compact fired units into the next layer's ascending active list — a
      // host-side serial sweep, deterministic for any worker count. Conv
      // counts accumulate here; pool counts accumulate inside the kernel.
      active_next_.clear();
      const bool count_here = layer.spec.kind == LayerKind::kConv;
      for (std::size_t i = 0; i < flags.size(); ++i) {
        if (flags[i] != 0) {
          active_next_.push_back(static_cast<ChannelIndex>(i));
          if (count_here) {
            ++counts[i];
          }
        }
      }
      result.layer_spikes[li] += active_next_.size();
      std::swap(active_in_, active_next_);
      active = active_in_;
      charge(li + 1);
    }
  }
}

GraphResult NetworkGraph::finish_presentation(
    GraphResult result, TimeMs duration_ms, int learn_block,
    std::span<const double> direct_rates, std::span<std::uint64_t> layer_ns,
    std::uint64_t present_t0) {
  PSS_REQUIRE(learn_block >= -1 &&
                  learn_block < static_cast<int>(blocks_.size()),
              "learn_block out of range");
  const bool timed = obs::metrics_enabled() || obs::trace_enabled();

  // Recode into block 0's input rates: front-end per-presentation counts →
  // Hz over the presentation, or the caller's rates for front-less graphs
  // (gain 1.0 multiplies bitwise-identically — the single-WTA contract).
  const double gain0 =
      config_.layers[block_layer_.front()].wta.gain;
  if (front_.empty()) {
    block_rates_.resize(direct_rates.size());
    for (std::size_t i = 0; i < direct_rates.size(); ++i) {
      block_rates_[i] = direct_rates[i] * gain0;
    }
  } else {
    const auto counts = pool_->spike_counts(front_.back().population);
    const double scale = 1000.0 / duration_ms * gain0;
    block_rates_.resize(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
      block_rates_[i] = static_cast<double>(counts[i]) * scale;
    }
  }

  // Block cascade. A training pass stops at the learning block (later
  // blocks' output would be unused); inference runs the full stack.
  const std::size_t last_block =
      learn_block >= 0 ? static_cast<std::size_t>(learn_block)
                       : blocks_.size() - 1;
  std::uint64_t mark = timed ? obs::monotonic_ns() : 0;
  for (std::size_t b = 0; b <= last_block; ++b) {
    const bool learn = static_cast<int>(b) == learn_block;
    blocks_[b].set_presentation_index(presentation_index_);
    PresentationResult r =
        blocks_[b].present(block_rates_, duration_ms, learn);
    result.layer_spikes[block_layer_[b]] = r.total_spikes;
    // Front-less graphs encode inside block 0; surface its input spikes so
    // the one-layer graph reports exactly what a standalone WtaNetwork does.
    if (front_.empty() && b == 0) result.input_spikes = r.input_spikes;
    if (timed) {
      const std::uint64_t now_ns = obs::monotonic_ns();
      layer_ns[block_layer_[b] + 1] += now_ns - mark;
      mark = now_ns;
    }
    if (b < last_block) {
      const double scale = 1000.0 / duration_ms *
                           config_.layers[block_layer_[b + 1]].wta.gain;
      block_rates_.resize(r.spike_counts.size());
      for (std::size_t i = 0; i < r.spike_counts.size(); ++i) {
        block_rates_[i] = static_cast<double>(r.spike_counts[i]) * scale;
      }
    } else {
      result.spike_counts = std::move(r.spike_counts);
    }
  }
  ++presentation_index_;

  if (obs::metrics_enabled()) {
    auto& reg = obs::metrics();
    reg.counter("graph.presentations").add(1);
    reg.counter("graph.input_spikes").add(result.input_spikes);
    reg.counter("graph.encode.ns").add(layer_ns[0]);
    for (std::size_t i = 0; i < config_.layers.size(); ++i) {
      reg.counter(layer_spikes_name_[i]).add(result.layer_spikes[i]);
      reg.counter(layer_ns_name_[i]).add(layer_ns[i + 1]);
    }
  }
  if (obs::trace_enabled()) {
    const std::uint64_t present_end = obs::monotonic_ns();
    obs::emit_trace_event("graph.present",
                          learn_block >= 0 ? "train" : "readout", present_t0,
                          present_end - present_t0);
    // Per-layer spans laid out back to back from the presentation start —
    // the same synthetic layout WtaNetwork uses for its phase spans.
    std::uint64_t cursor = present_t0;
    if (layer_ns[0] != 0) {
      obs::emit_trace_event("graph.encode", "graph", cursor, layer_ns[0]);
      cursor += layer_ns[0];
    }
    for (std::size_t i = 0; i < config_.layers.size(); ++i) {
      if (layer_ns[i + 1] == 0) continue;
      obs::emit_trace_event(layer_tag_[i], "graph", cursor, layer_ns[i + 1]);
      cursor += layer_ns[i + 1];
    }
  }
  return result;
}

GraphResult NetworkGraph::present(std::span<const double> rates_hz,
                                  TimeMs duration_ms, int learn_block) {
  PSS_REQUIRE(rates_hz.size() == input_units(),
              "rate vector size must match the encoded input");
  const bool timed = obs::metrics_enabled() || obs::trace_enabled();
  const std::uint64_t present_t0 = timed ? obs::monotonic_ns() : 0;
  GraphResult result;
  result.layer_spikes.assign(config_.layers.size(), 0);
  std::vector<std::uint64_t> layer_ns(config_.layers.size() + 1, 0);

  if (front_.empty()) {
    return finish_presentation(std::move(result), duration_ms, learn_block,
                               rates_hz, layer_ns, present_t0);
  }
  PSS_REQUIRE(presentation_index_ < (std::uint64_t{1} << 32) / kMaxFrames,
              "presentation index exhausted the encoder counter space");
  reset_front();
  const TimeMs dt = config_.wta_base.dt;
  const auto steps = static_cast<StepIndex>(std::ceil(duration_ms / dt));
  run_front_segment(rates_hz, steps, presentation_index_ * kMaxFrames, result,
                    layer_ns);
  return finish_presentation(std::move(result), duration_ms, learn_block, {},
                             layer_ns, present_t0);
}

GraphResult NetworkGraph::present_image(const Image& image, TimeMs duration_ms,
                                        int learn_block) {
  encoded_rates_from_frame(image, nullptr, rates_scratch_);
  return present(rates_scratch_, duration_ms, learn_block);
}

GraphResult NetworkGraph::present_sequence(std::span<const Image> frames,
                                           TimeMs frame_ms, int learn_block) {
  PSS_REQUIRE(!frames.empty() && frames.size() <= kMaxFrames,
              "sequence length must be in [1, kMaxFrames]");
  const TimeMs total_ms = frame_ms * static_cast<double>(frames.size());
  const bool timed = obs::metrics_enabled() || obs::trace_enabled();
  const std::uint64_t present_t0 = timed ? obs::monotonic_ns() : 0;
  GraphResult result;
  result.layer_spikes.assign(config_.layers.size(), 0);
  std::vector<std::uint64_t> layer_ns(config_.layers.size() + 1, 0);

  if (!front_.empty()) {
    PSS_REQUIRE(presentation_index_ < (std::uint64_t{1} << 32) / kMaxFrames,
                "presentation index exhausted the encoder counter space");
    reset_front();
    const TimeMs dt = config_.wta_base.dt;
    const auto steps = static_cast<StepIndex>(std::ceil(frame_ms / dt));
    for (std::size_t f = 0; f < frames.size(); ++f) {
      encoded_rates_from_frame(frames[f], f > 0 ? &frames[f - 1] : nullptr,
                               rates_scratch_);
      run_front_segment(rates_scratch_, steps,
                        presentation_index_ * kMaxFrames + f, result,
                        layer_ns);
    }
    return finish_presentation(std::move(result), total_ms, learn_block, {},
                               layer_ns, present_t0);
  }

  // No spatial front-end: the sequence collapses to its mean encoded rates
  // (with temporal-diff encoding still a direction-selective ON/OFF pattern).
  std::vector<double> mean(input_units(), 0.0);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    encoded_rates_from_frame(frames[f], f > 0 ? &frames[f - 1] : nullptr,
                             rates_scratch_);
    for (std::size_t i = 0; i < mean.size(); ++i) {
      mean[i] += rates_scratch_[i];
    }
  }
  for (double& r : mean) r /= static_cast<double>(frames.size());
  return finish_presentation(std::move(result), total_ms, learn_block, mean,
                             layer_ns, present_t0);
}

}  // namespace pss::graph
