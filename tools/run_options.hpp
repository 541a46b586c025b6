// Shared command-line option handling for the runnable front-ends
// (tools/pss_run, examples/mnist_unsupervised). Every key that configures an
// ExperimentSpec — including the compute-backend selector `backend=` — is
// parsed in exactly one place, so adding a flag here adds it to every tool
// that links pss_tool_options.
#pragma once

#include <string>
#include <vector>

#include "pss/experiment/experiment.hpp"
#include "pss/graph/layer_spec.hpp"
#include "pss/io/config.hpp"

namespace pss::tools {

/// Every key the shared parser understands (spec_from_config +
/// arm_faults_from_config + enable_observability), sorted.
const std::vector<std::string>& shared_config_keys();

/// Rejects any cfg key that is neither a shared key nor in `extra` (the
/// tool's own keys), throwing pss::Error that names the offender and — when
/// a known key is within small edit distance — suggests it ("did you mean
/// 'backend'?"). Call after parsing so typos fail loudly instead of
/// silently running with defaults.
void require_known_keys(const Config& cfg,
                        const std::vector<std::string>& extra = {});

/// fp32|16bit|8bit|4bit|2bit|highfreq -> Table I learning option.
LearningOption parse_learning_option(const std::string& name);

/// nearest|trunc|stochastic -> quantizer rounding mode.
RoundingMode parse_rounding_mode(const std::string& name);

/// stochastic|deterministic -> STDP kind; anything else is an error.
StdpKind parse_stdp_kind(const std::string& name);

/// Builds an ExperimentSpec from the shared keys:
///   kind= option= rounding= neurons= train= label= eval= seed=
///   workers= batch= backend= checkpoints=
///   checkpoint= checkpoint_every= resume=
/// `backend=` is validated against the backend registry (cpu|cpu_sparse, see
/// src/pss/backend/backend.hpp) so a typo fails at parse time.
ExperimentSpec spec_from_config(const Config& cfg,
                                const std::string& default_name);

/// Builds the layer-graph architecture from the `layers=` spec grammar
/// (src/pss/graph/layer_spec.hpp):
///   layers=encode:peak=220,temporal=diff;conv:filters=8,kernel=5,bank=dog;
///          pool:window=2;wta:neurons=200;readout:inhibition=0
/// over `base` (backend / dt / STDP rule from the shared keys). Without a
/// `layers=` key the result is the single-WTA graph of `base` — the
/// configuration bitwise-equivalent to a standalone WtaNetwork. Malformed
/// specs throw pss::Error naming the offending kind/key/value with a "did
/// you mean" suggestion.
graph::GraphConfig graph_config_from_options(const Config& cfg,
                                             const WtaConfig& base);

/// Arms deterministic fault injection from faults= / fault_seed= keys
/// (no-op when neither key is present).
void arm_faults_from_config(const Config& cfg);

/// Observability sidecar paths (empty string = not requested).
struct ObsPaths {
  std::string metrics;
  std::string trace;
  std::string manifest;
  std::string prom;  ///< Prometheus textfile dump of the final registry
  /// metrics_port= value: -1 = no exporter, 0 = ephemeral port, else bind
  /// that loopback TCP port and serve Prometheus text until exit.
  int metrics_port = -1;
  bool any() const {
    return !metrics.empty() || !trace.empty() || !manifest.empty() ||
           !prom.empty() || metrics_port >= 0;
  }
};

/// Reads metrics=/trace=/manifest=/prom=/metrics_port= and switches the
/// metrics registry and tracer on as requested.
ObsPaths enable_observability(const Config& cfg);

}  // namespace pss::tools
