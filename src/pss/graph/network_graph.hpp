// NetworkGraph — the composable layer graph (DESIGN.md §6): encode →
// conv/pool front-end → stacked WTA/STDP blocks → readout, executed
// per-timestep over the Engine/KernelTable seam.
//
// Execution model (one presentation):
//   1. The encoder turns input rates into per-step active-channel lists —
//      dense per-step Bernoulli on cpu, a SpikeEventList built once and
//      sliced per step on cpu_sparse (sparse inter-layer propagation).
//   2. Each conv layer gathers the step's active list through its fixed
//      DoG/Gabor filter bank (conv_accumulate kernel) into per-unit currents
//      and advances its integrate-and-fire population (lif_step kernel over
//      a dedicated StatePool population segment); fired units are compacted
//      into the next layer's active list. Pool layers OR-reduce spike flags
//      spatially (pool_forward kernel).
//   3. Per-presentation spike counts of the last front-end layer are recoded
//      to rates (counts → Hz over the presentation duration) and fed to the
//      WTA blocks, each an embedded WtaNetwork presenting in sequence; block
//      b+1 consumes block b's spike counts the same way. STDP runs in at
//      most one block per presentation (`learn_block`) — the layer-wise
//      training schedule.
//
// Determinism: every draw is counter-indexed from the graph presentation
// index (front-end encode uses index·kMaxFrames + frame; each block's
// presentation index is set to the graph index before it presents), all
// dynamic state resets at the presentation boundary, and every kernel
// thread writes only its own slot — results are a pure function of
// (config, learned state, presentation index, input) and are bitwise
// worker-count-invariant.
//
// A graph of exactly one WTA layer with no front-end delegates straight to
// the embedded WtaNetwork — same draws, same state, bitwise-identical
// outputs and snapshots (tests/test_graph.cpp asserts this). WtaNetwork is,
// in this sense, the one-layer instance of the graph.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pss/backend/state_pool.hpp"
#include "pss/common/types.hpp"
#include "pss/data/image.hpp"
#include "pss/encoding/poisson_encoder.hpp"
#include "pss/engine/spike_events.hpp"
#include "pss/graph/layer_spec.hpp"
#include "pss/network/wta_network.hpp"

namespace pss::graph {

/// Activity summary of one graph presentation.
struct GraphResult {
  std::vector<std::uint32_t> spike_counts;  ///< final block, per neuron
  std::uint64_t input_spikes = 0;
  /// Total spikes per stack layer (config().layers order). During a
  /// training pass, blocks after `learn_block` do not run and report 0.
  std::vector<std::uint64_t> layer_spikes;

  /// Neuron with the most spikes (first such index); -1 if silent.
  int winner() const;
};

class NetworkGraph {
 public:
  /// Frames per presentation cap: the front-end encoder packs
  /// (presentation·kMaxFrames + frame) into its 32-bit presentation slot.
  static constexpr std::size_t kMaxFrames = 64;

  explicit NetworkGraph(const GraphConfig& config, Engine* engine = nullptr);

  ~NetworkGraph();
  NetworkGraph(NetworkGraph&&) noexcept;
  NetworkGraph& operator=(NetworkGraph&&) noexcept;

  const GraphConfig& config() const { return config_; }
  /// shapes()[0] = encoded input, shapes()[i+1] = output of layers[i].
  const std::vector<LayerShape>& shapes() const { return shapes_; }
  std::size_t input_units() const { return shapes_.front().units(); }
  std::size_t output_units() const { return shapes_.back().units(); }

  std::size_t block_count() const { return blocks_.size(); }
  WtaNetwork& block(std::size_t b) { return blocks_.at(b); }
  const WtaNetwork& block(std::size_t b) const { return blocks_.at(b); }

  /// The shared pool carrying the encoder + front-end population segments.
  StatePool& pool() const { return *pool_; }

  /// Presents one static stimulus: per-unit Poisson rates (Hz) over the
  /// encoded input shape. `learn_block` selects the WTA block STDP runs in
  /// (-1 = pure inference); during a training pass, blocks after the
  /// learning one are skipped (their output is unused) and the result's
  /// spike counts are the learning block's.
  GraphResult present(std::span<const double> rates_hz, TimeMs duration_ms,
                      int learn_block);

  /// Presents an image: intensity → rate (encode.peak_hz at saturation).
  GraphResult present_image(const Image& image, TimeMs duration_ms,
                            int learn_block);

  /// Presents a frame sequence frame-by-frame (≤ kMaxFrames frames of
  /// `frame_ms` each): conv/pool state persists across frames within the
  /// presentation, spike counts accumulate over all frames, and the WTA
  /// blocks present once on the sequence-total counts. With temporal-diff
  /// encoding each frame is encoded as ON/OFF change planes vs its
  /// predecessor (frame 0 vs blank).
  GraphResult present_sequence(std::span<const Image> frames, TimeMs frame_ms,
                               int learn_block);

  std::uint64_t presentation_index() const { return presentation_index_; }

  /// Repositions the presentation counter — a serve replica replays request
  /// seq k by setting index k before present() (see server.cpp).
  void set_presentation_index(std::uint64_t index);

  /// Classifier-readout labels of the final block's neurons (-1 =
  /// unlabelled). Empty until labelled or restored from a model file.
  const std::vector<int>& neuron_labels() const { return labels_; }
  void set_neuron_labels(std::vector<int> labels);
  std::size_t class_count() const { return class_count_; }

 private:
  /// Runtime state of one conv/pool front-end layer.
  struct FrontLayer {
    LayerSpec spec;
    LayerShape in;
    LayerShape out;
    PopulationHandle population = 0;
    std::vector<double> filters;  ///< conv only, [f][c][ky][kx]
    double decay_factor = 0.0;    ///< conv current decay per step
    LifParameters lif;            ///< conv unit parameters
  };

  void reset_front();
  /// Runs the front-end for one encode segment (a static presentation or
  /// one frame): `steps` steps at encode presentation slot `encode_index`.
  void run_front_segment(std::span<const double> rates_hz, StepIndex steps,
                         std::uint64_t encode_index, GraphResult& result,
                         std::span<std::uint64_t> layer_ns);
  /// Recode + WTA block cascade + obs publish + index advance.
  GraphResult finish_presentation(GraphResult result, TimeMs duration_ms,
                                  int learn_block,
                                  std::span<const double> direct_rates,
                                  std::span<std::uint64_t> layer_ns,
                                  std::uint64_t present_t0);
  void encoded_rates_from_frame(const Image& frame, const Image* previous,
                                std::vector<double>& rates) const;

  GraphConfig config_;
  std::vector<LayerShape> shapes_;
  std::unique_ptr<Backend> backend_;
  std::unique_ptr<StatePool> pool_;  ///< encoder + front-end populations
  PoissonEncoder encoder_;
  std::vector<FrontLayer> front_;
  std::vector<WtaNetwork> blocks_;
  std::vector<std::size_t> block_layer_;  ///< block b → config layer index
  std::vector<int> labels_;
  std::size_t class_count_ = 0;

  // Cached obs identifiers ("graph.l<i>.<kind>" …). Trace events buffer raw
  // name pointers until the process-exit dump, so the trace tags are interned
  // in process-lifetime storage rather than owned by this graph.
  std::vector<const char*> layer_tag_;
  std::vector<std::string> layer_ns_name_;
  std::vector<std::string> layer_spikes_name_;

  std::uint64_t presentation_index_ = 0;

  // Host-side scratch reused across steps/presentations.
  SpikeEventList events_;
  std::vector<ChannelIndex> active_in_;
  std::vector<ChannelIndex> active_next_;
  std::vector<double> rates_scratch_;
  std::vector<double> block_rates_;
};

}  // namespace pss::graph
