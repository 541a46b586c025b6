// Model loading for the serving daemon. A model file is any artifact the
// training side writes: a single-layer snapshot ("PSSSNAP1"), a stacked
// graph model ("PSSSNAP2"), or a training checkpoint ("PSSCKPT1", v1 or
// v2) — all sniffed by magic through graph::load_graph_model and unified
// into one ModelBundle: the GraphConfig the model instantiates plus its
// learned per-block state. A single-layer snapshot serves as a one-block
// graph whose presentations are bitwise those of the standalone WtaNetwork,
// so pre-graph deployments keep their exact replay guarantees.
//
// A checkpoint may carry no neuron labels, in which case a daemon serving
// it accepts only `train` (online learning) and admin verbs; `classify`
// returns kError with an explanatory message rather than guessing.
//
// Hot reload: the server keeps the current bundle behind a mutex with a
// monotonically increasing generation; workers re-instantiate their replica
// between batches when the generation moves, so a reload is torn-free —
// in-flight presentations finish on the old weights, later ones see the new.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pss/graph/graph_snapshot.hpp"
#include "pss/graph/network_graph.hpp"

namespace pss::serve {

struct ModelBundle {
  graph::GraphConfig config;   ///< architecture over the base WtaConfig
  graph::GraphModel model;     ///< learned per-block state + labels
  /// Units of the graph's encoded input — the request body size workers
  /// validate against and present.
  std::size_t input_units = 0;
  std::vector<int> neuron_labels;  ///< final block; empty → no classify
  std::size_t class_count = 0;     ///< 0 when classify is unavailable
  std::uint64_t generation = 0;    ///< set by the server on (re)load
  std::string source_path;

  bool can_classify() const { return class_count > 0; }
};

/// Loads `path` (snapshot, graph model, or checkpoint — detected by magic)
/// and resolves its architecture over `base_config` (backend / timing / STDP
/// template; geometry comes from the file). Honors the fault points of the
/// underlying loaders. Throws pss::Error on unreadable/corrupt files.
ModelBundle load_model(const std::string& path, const WtaConfig& base_config);

/// Builds a graph replica carrying the bundle's learned state on `engine`
/// (serial Engine(1) per serve worker — pool parallelism is across requests,
/// never within a replica, mirroring BatchRunner's discipline).
graph::NetworkGraph instantiate(const ModelBundle& bundle, Engine* engine);

/// Pure scoring: argmax of mean per-class spike counts over the labelled
/// neurons, -1 = abstain. Forwards to graph::graph_predict, the one
/// prediction rule training-side evaluation uses too.
int predict_from_counts(std::span<const std::uint32_t> spike_counts,
                        std::span<const int> neuron_labels,
                        std::size_t class_count);

}  // namespace pss::serve
