#include "pss/engine/launch.hpp"

#include <memory>
#include <mutex>

#include "pss/common/error.hpp"
#include "pss/obs/metrics.hpp"

namespace pss {

Engine::Engine(std::size_t worker_count) : pool_(worker_count) {}

namespace {
std::mutex g_engine_mutex;
std::size_t g_configured_workers = 0;
bool g_engine_created = false;
}  // namespace

Engine& default_engine() {
  static std::unique_ptr<Engine> engine = [] {
    std::lock_guard<std::mutex> lock(g_engine_mutex);
    g_engine_created = true;
    return std::make_unique<Engine>(g_configured_workers);
  }();
  return *engine;
}

void configure_default_engine(std::size_t worker_count) {
  std::lock_guard<std::mutex> lock(g_engine_mutex);
  PSS_REQUIRE(!g_engine_created,
              "configure_default_engine must run before first use");
  g_configured_workers = worker_count;
}

void publish_engine_stats(const Engine& engine, const std::string& prefix) {
  obs::MetricsRegistry& reg = obs::metrics();
  reg.gauge(prefix + ".workers").set(static_cast<double>(engine.worker_count()));
  reg.gauge(prefix + ".launches").set(static_cast<double>(engine.launch_count()));
  reg.gauge(prefix + ".dispatches")
      .set(static_cast<double>(engine.dispatch_count()));
  for (std::size_t w = 0; w < engine.pool().worker_count(); ++w) {
    reg.gauge(prefix + ".worker." + std::to_string(w) + ".busy_ns")
        .set(static_cast<double>(engine.pool().worker_busy_ns(w)));
  }
}

}  // namespace pss
