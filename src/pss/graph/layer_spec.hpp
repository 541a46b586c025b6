// Typed layer specifications for the composable network graph (DESIGN.md §5b).
//
// A graph is encode → [conv → pool]* → wta+ → readout: a spike encoder over
// the input plane(s), an optional convolutional front-end (fixed DoG/Gabor
// filter banks driving integrate-and-fire units, spatial spike pooling
// between stages — the Spyker-style deep-SNN front half), one or more
// WTA/STDP blocks trained layer-wise with the existing updaters, and a
// classifier readout riding the final block's neuron labels.
//
// The `layers=` spec grammar (tools/run_options → pss_run):
//
//   layers=encode:peak=220,temporal=diff;conv:filters=8,kernel=5,bank=dog;
//          pool:window=2;wta:neurons=200;readout:inhibition=0
//
// Layers are ';'-separated, each `kind:key=value,...`. Unknown kinds and
// keys fail loudly with a "did you mean" suggestion (same tolerance policy
// as the config-key checker); numeric values are parsed strictly (trailing
// garbage rejects). parse → canonical_layers_spec roundtrips, which is what
// the versioned multi-layer checkpoint section serializes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pss/common/types.hpp"
#include "pss/network/wta_network.hpp"

namespace pss::graph {

enum class LayerKind { kEncode, kConv, kPool, kWta, kReadout };

const char* layer_kind_name(LayerKind kind);

/// (channels, height, width) of the spike tensor flowing between layers.
/// WTA blocks flatten: their output shape is {1, 1, neurons}.
struct LayerShape {
  std::size_t channels = 1;
  std::size_t height = 0;
  std::size_t width = 0;

  std::size_t units() const { return channels * height * width; }
  bool operator==(const LayerShape&) const = default;
};

/// Conv filter-bank families (fixed, analytically generated — the front-end
/// is not plastic; plasticity lives in the WTA/STDP blocks).
enum class FilterBank { kDog, kGabor };

struct EncodeSpec {
  double peak_hz = 200.0;  ///< rate of a saturated input unit
  /// Temporal-difference encoding for frame sequences: each frame is encoded
  /// as ON/OFF change planes vs the previous frame (channels double). Static
  /// images use plain intensity→rate.
  bool temporal_diff = false;
};

struct ConvSpec {
  std::size_t filters = 8;
  std::size_t kernel = 5;  ///< square kernel side
  std::size_t stride = 1;
  FilterBank bank = FilterBank::kDog;
  double threshold = 1.0;   ///< conv unit spike threshold (v rides in [0,∞))
  double gain = 1.0;        ///< filter-response → current amplitude
  TimeMs decay_ms = 5.0;    ///< conv current decay time constant
};

struct PoolSpec {
  std::size_t window = 2;  ///< pooling window side == stride
};

struct WtaSpec {
  std::size_t neurons = 100;
  /// Multiplier on the spike-count→rate recode feeding this block (counts
  /// are normalized to Hz over the presentation duration first).
  double gain = 1.0;
};

struct ReadoutSpec {
  bool inhibition = true;  ///< readout_inhibition of the final block
  bool theta = true;       ///< readout_theta of the final block
};

struct LayerSpec {
  LayerKind kind = LayerKind::kWta;
  EncodeSpec encode;
  ConvSpec conv;
  PoolSpec pool;
  WtaSpec wta;
  ReadoutSpec readout;
};

/// Full graph architecture: the input frame shape, the encode front door,
/// the ordered conv/pool/wta stack, and the base WtaConfig every WTA block
/// derives from (backend, dt, STDP rule/precision, seed — block b uses
/// seed + b·0xC0FFEE so sibling blocks draw decorrelated streams, except
/// block 0 of a pure single-WTA graph which keeps the base seed verbatim
/// for bitwise equality with a standalone WtaNetwork).
struct GraphConfig {
  LayerShape input{1, kImageSide, kImageSide};  ///< raw frame shape
  EncodeSpec encode;
  std::vector<LayerSpec> layers;  ///< conv/pool/wta only, front-end order
  ReadoutSpec readout;
  WtaConfig wta_base;

  /// Input shape after encoding (temporal_diff doubles the channel planes).
  LayerShape encoded_input() const;

  /// True when the graph is exactly one WTA layer with no conv/pool
  /// front-end — the configuration that is bitwise-equivalent to a
  /// standalone WtaNetwork and serializes in the legacy v1 formats.
  bool single_wta() const;
};

/// Parses the `layers=` grammar into `base`-derived GraphConfig. Throws
/// pss::Error naming the offending layer kind/key/value, with a "did you
/// mean" suggestion where a known identifier is close.
GraphConfig graph_config_from_spec(const std::string& spec,
                                   const WtaConfig& base);

/// Canonical spec string (parse ∘ canonical == identity); the arch field of
/// the multi-layer checkpoint/snapshot section.
std::string canonical_layers_spec(const GraphConfig& config);

/// Output shape of each layer given the encoded input: shapes[0] is the
/// encoded input itself, shapes[i+1] the output of layers[i]. Validates
/// geometry (kernel fits, WTA blocks after the spatial front-end, at least
/// one WTA block) and throws pss::Error on violations.
std::vector<LayerShape> compute_shapes(const GraphConfig& config);

/// The single-WTA-layer graph equivalent of `config` — NetworkGraph built
/// from this is bitwise-equivalent to WtaNetwork(config)
/// (tests/test_graph.cpp asserts snapshots and presentation outputs equal).
GraphConfig single_wta_graph(const WtaConfig& config);

}  // namespace pss::graph
