#include "pss/serve/model.hpp"

#include <algorithm>

#include "pss/graph/graph_trainer.hpp"

namespace pss::serve {

ModelBundle load_model(const std::string& path, const WtaConfig& base_config) {
  ModelBundle bundle;
  bundle.source_path = path;
  bundle.model = graph::load_graph_model(path);
  bundle.config = bundle.model.to_config(base_config);
  bundle.input_units = graph::compute_shapes(bundle.config).front().units();
  bundle.neuron_labels.assign(bundle.model.labels.begin(),
                              bundle.model.labels.end());
  int max_label = -1;
  for (const int label : bundle.neuron_labels) {
    max_label = std::max(max_label, label);
  }
  bundle.class_count =
      max_label < 0 ? 0 : static_cast<std::size_t>(max_label) + 1;
  return bundle;
}

graph::NetworkGraph instantiate(const ModelBundle& bundle, Engine* engine) {
  graph::NetworkGraph replica(bundle.config, engine);
  bundle.model.restore(replica);
  return replica;
}

int predict_from_counts(std::span<const std::uint32_t> spike_counts,
                        std::span<const int> neuron_labels,
                        std::size_t class_count) {
  return graph::graph_predict(spike_counts, neuron_labels, class_count);
}

}  // namespace pss::serve
