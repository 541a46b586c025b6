// Observability-layer tests: metrics registry semantics (bucket edges,
// sharded merges under concurrency), trace JSON well-formedness, log sink
// plumbing, engine launch accounting, the Prometheus exporter, and — the
// load-bearing contract — that enabling metrics/tracing cannot perturb
// bitwise reproducibility (including the worker-count-invariance property
// with tracing on).
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pss/common/log.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/engine/batch_runner.hpp"
#include "pss/engine/launch.hpp"
#include "pss/graph/graph_trainer.hpp"
#include "pss/network/wta_network.hpp"
#include "pss/obs/exporter.hpp"
#include "pss/serve/net.hpp"
#include "pss/obs/json_writer.hpp"
#include "pss/obs/manifest.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/obs/trace.hpp"

namespace pss {
namespace {

/// Restores the global obs gates (and clears run-scoped obs state) so tests
/// cannot leak an enabled gate into each other.
class ObsGuard {
 public:
  ObsGuard() { reset(); }
  ~ObsGuard() { reset(); }

 private:
  static void reset() {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::reset_trace();
    obs::metrics().reset();
  }
};

// ---- minimal JSON validator (well-formedness only) -------------------------

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---- JsonWriter ------------------------------------------------------------

TEST(JsonWriter, EscapesAndNestsCorrectly) {
  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    w.begin_object();
    w.member("plain", 42);
    w.member("text", std::string("a\"b\\c\n\tend"));
    w.key("nested");
    w.begin_array();
    w.value(1.5);
    w.value(-7);
    w.begin_object();
    w.member("inf", std::numeric_limits<double>::infinity());
    w.end_object();
    w.end_array();
    w.end_object();
  }
  const std::string out = os.str();
  EXPECT_TRUE(JsonValidator(out).valid()) << out;
  EXPECT_NE(out.find("\\\"b\\\\c\\n"), std::string::npos) << out;
  EXPECT_NE(out.find("\"inf\": null"), std::string::npos) << out;
}

// ---- metrics registry ------------------------------------------------------

TEST(Metrics, HistogramBucketEdgeSemantics) {
  ObsGuard guard;
  obs::FixedHistogram h({1.0, 10.0, 100.0});
  EXPECT_EQ(h.bucket_count(), 4u);  // 3 edges + overflow

  h.observe(0.5);    // <= 1      -> bucket 0
  h.observe(1.0);    // == edge   -> bucket 0 (edges are inclusive uppers)
  h.observe(1.0001); // > 1, <=10 -> bucket 1
  h.observe(10.0);   // == edge   -> bucket 1
  h.observe(99.0);   //           -> bucket 2
  h.observe(100.5);  // > last    -> overflow
  h.observe(1e9);    //           -> overflow

  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.0 + 100.5 + 1e9, 1e-3);
}

TEST(Metrics, HistogramRejectsBadEdges) {
  EXPECT_THROW(obs::FixedHistogram({}), Error);
  EXPECT_THROW(obs::FixedHistogram({1.0, 1.0}), Error);
  EXPECT_THROW(obs::FixedHistogram({2.0, 1.0}), Error);
}

TEST(Metrics, ShardedCounterMergesUnderConcurrency) {
  ObsGuard guard;
  obs::Counter& c = obs::metrics().counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, ConcurrentHistogramAndGauge) {
  ObsGuard guard;
  obs::FixedHistogram& h =
      obs::metrics().histogram("test.conc_hist", {0.5, 1.5, 2.5});
  obs::Gauge& g = obs::metrics().gauge("test.conc_gauge");
  constexpr int kThreads = 4;
  constexpr int kObs = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kObs; ++i) {
        h.observe(static_cast<double>(t % 3));  // buckets 0, 1, 2
        g.add(0.25);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.total(), static_cast<std::uint64_t>(kThreads) * kObs);
  EXPECT_NEAR(g.value(), kThreads * kObs * 0.25, 1e-6);
}

TEST(Metrics, RegistryResetKeepsReferencesValid) {
  ObsGuard guard;
  obs::Counter& c = obs::metrics().counter("test.reset");
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
  obs::metrics().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);
  EXPECT_EQ(obs::metrics().counter("test.reset").value(), 2u);
  EXPECT_EQ(&obs::metrics().counter("test.reset"), &c);
}

TEST(Metrics, TextAndJsonExports) {
  ObsGuard guard;
  obs::metrics().counter("test.export.count").add(3);
  obs::metrics().gauge("test.export.gauge").set(1.25);
  obs::metrics().histogram("test.export.hist", {1.0, 2.0}).observe(1.5);

  const std::string text = obs::metrics().to_text();
  EXPECT_NE(text.find("counter test.export.count 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gauge test.export.gauge 1.25"), std::string::npos)
      << text;

  std::ostringstream os;
  obs::metrics().write_json(os, "unit-test");
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"pss.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export.hist\""), std::string::npos);
}

// ---- tracing ---------------------------------------------------------------

TEST(Trace, SpansRecordOnlyWhenEnabled) {
  ObsGuard guard;
  { obs::TraceSpan off("never", "test"); }
  EXPECT_TRUE(obs::collect_trace().empty());

  obs::set_trace_enabled(true);
  obs::reset_trace();
  { obs::TraceSpan on("recorded", "test", 7); }
  const auto events = obs::collect_trace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "recorded");
  EXPECT_STREQ(events[0].category, "test");
  EXPECT_EQ(events[0].arg, 7);
}

TEST(Trace, ChromeExportIsWellFormedJson) {
  ObsGuard guard;
  obs::set_trace_enabled(true);
  obs::reset_trace();
  { obs::TraceSpan a("alpha", "test"); }
  std::thread([] { obs::TraceSpan b("beta", "test", 3); }).join();

  const std::string path = temp_path("pss_test_trace.json");
  obs::write_chrome_trace(path);
  const std::string json = read_file(path);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  std::filesystem::remove(path);

  const auto totals = obs::span_totals();
  ASSERT_EQ(totals.size(), 2u);  // sorted by name
  EXPECT_EQ(totals[0].name, "alpha");
  EXPECT_EQ(totals[1].name, "beta");
  EXPECT_EQ(totals[1].count, 1u);
}

// ---- engine accounting -----------------------------------------------------

TEST(Engine, LaunchAndDispatchCounting) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  Engine engine(1);
  std::vector<double> v(64, 0.0);
  for (int rep = 0; rep < 4; ++rep) {
    engine.launch(v.size(), [&](std::size_t i) { v[i] += 1.0; });
  }
  EXPECT_EQ(v[0], 4.0);
  EXPECT_EQ(engine.launch_count(), 4u);
  EXPECT_EQ(engine.dispatch_count(), 0u);  // single-worker engine: all inline

  engine.reset_counters();
  EXPECT_EQ(engine.launch_count(), 0u);
  EXPECT_EQ(engine.dispatch_count(), 0u);
}

TEST(Engine, PublishEngineStatsMirrorsIntoRegistry) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  Engine engine(2);
  engine.set_grain(0);  // force pool dispatch
  std::vector<double> v(128, 0.0);
  engine.launch(v.size(), [&](std::size_t i) { v[i] += 1.0; });
  publish_engine_stats(engine, "test.engine");
  obs::MetricsRegistry& reg = obs::metrics();
  EXPECT_EQ(reg.gauge("test.engine.workers").value(), 2.0);
  EXPECT_EQ(reg.gauge("test.engine.launches").value(), 1.0);
  EXPECT_EQ(reg.gauge("test.engine.dispatches").value(), 1.0);
  bool saw_busy = false;
  for (const obs::MetricSnapshot& m : reg.snapshot()) {
    EXPECT_EQ(m.name.find(".tag."), std::string::npos) << m.name;
    if (m.name == "test.engine.worker.0.busy_ns") saw_busy = true;
  }
  EXPECT_TRUE(saw_busy);
}

// ---- Prometheus exposition -------------------------------------------------

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(obs::prometheus_name("phase.encode.ns"), "pss_phase_encode_ns");
  EXPECT_EQ(obs::prometheus_name("a-b c/d"), "pss_a_b_c_d");
}

TEST(Prometheus, RenderCoversAllMetricKinds) {
  ObsGuard guard;
  obs::metrics().counter("prom.count").add(7);
  obs::metrics().gauge("prom.gauge").set(2.5);
  obs::FixedHistogram& h = obs::metrics().histogram("prom.hist", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);

  const std::string text = obs::render_prometheus(obs::metrics());
  EXPECT_NE(text.find("# TYPE pss_prom_count counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("pss_prom_count 7"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE pss_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("pss_prom_gauge 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pss_prom_hist histogram"), std::string::npos);
  // Buckets are cumulative: 1, 2, and +Inf carrying the full total.
  EXPECT_NE(text.find("pss_prom_hist_bucket{le=\"1\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("pss_prom_hist_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("pss_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("pss_prom_hist_count 3"), std::string::npos);
  EXPECT_NE(text.find("pss_prom_hist_sum"), std::string::npos);
}

namespace {

/// One full scrape via the serve/net wrapper (the only TU allowed raw
/// socket syscalls — lint rule `raw-socket-syscall`).
std::string scrape_once(std::uint16_t port, int timeout_ms = 5000) {
  const int fd = pss::serve::net::connect_loopback(port, timeout_ms);
  const std::string request = "GET /metrics HTTP/1.1\r\n\r\n";
  EXPECT_TRUE(pss::serve::net::write_all(fd, request.data(), request.size(),
                                         timeout_ms));
  std::string response;
  char buf[4096];
  std::ptrdiff_t n;
  while ((n = pss::serve::net::read_some(fd, buf, sizeof buf, timeout_ms)) >
         0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  pss::serve::net::close_fd(fd);
  return response;
}

}  // namespace

TEST(Prometheus, ExporterServesScrapeOverLoopback) {
  ObsGuard guard;
  obs::metrics().counter("prom.scrape.count").add(11);

  obs::MetricsExporter exporter(0);  // ephemeral port
  ASSERT_NE(exporter.port(), 0);

  const std::string response = scrape_once(exporter.port());
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain"), std::string::npos) << response;
  EXPECT_NE(response.find("pss_prom_scrape_count 11"), std::string::npos)
      << response;

  exporter.stop();
  exporter.stop();  // idempotent
}

TEST(Prometheus, ExporterSurvivesSlowLorisClients) {
  ObsGuard guard;
  obs::metrics().counter("prom.loris.count").add(5);

  obs::MetricsExporter exporter(0);
  ASSERT_NE(exporter.port(), 0);

  // A slow-loris client: connects, never sends its request, and idles. The
  // exporter's single acceptor must cut it off at the per-connection read
  // deadline (1 s) instead of wedging behind it forever.
  const int loris = pss::serve::net::connect_loopback(exporter.port(), 5000);
  // A trickler: sends a byte of garbage, then stalls mid-header.
  const int trickler =
      pss::serve::net::connect_loopback(exporter.port(), 5000);
  (void)pss::serve::net::write_all(trickler, "G", 1, 1000);

  // A well-behaved scrape queued behind both must still complete: the two
  // stalled connections cost at most one read deadline each.
  const auto t0 = std::chrono::steady_clock::now();
  const std::string response = scrape_once(exporter.port(), 10000);
  const double waited_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("pss_prom_loris_count 5"), std::string::npos)
      << response;
  // Two stalled clients x 1 s read deadline, plus scheduling slack.
  EXPECT_LT(waited_s, 8.0);

  // The stalled connections were dropped without a response.
  char sink;
  EXPECT_LE(pss::serve::net::read_some(loris, &sink, 1, 100), 0);
  pss::serve::net::close_fd(loris);
  pss::serve::net::close_fd(trickler);
  exporter.stop();
}

// ---- logging ---------------------------------------------------------------

TEST(Log, SinkCapturesIsoTimestampedLines) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&captured](LogLevel level, const std::string& line) {
    captured.emplace_back(level, line);
  });
  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  PSS_LOG_INFO << "observability " << 42;
  PSS_LOG_DEBUG << "fine-grained";
  set_log_level(LogLevel::kWarn);
  PSS_LOG_INFO << "suppressed";
  set_log_level(before);
  set_log_sink({});  // restore stderr default

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kInfo);
  EXPECT_NE(captured[0].second.find("[pss INFO] observability 42"),
            std::string::npos)
      << captured[0].second;
  // ISO-8601 UTC prefix: YYYY-MM-DDTHH:MM:SS.mmmZ
  const std::string& line = captured[0].second;
  ASSERT_GE(line.size(), 24u);
  EXPECT_EQ(line[4], '-');
  EXPECT_EQ(line[7], '-');
  EXPECT_EQ(line[10], 'T');
  EXPECT_EQ(line[13], ':');
  EXPECT_EQ(line[16], ':');
  EXPECT_EQ(line[19], '.');
  EXPECT_EQ(line[23], 'Z');
}

// ---- manifest --------------------------------------------------------------

TEST(Manifest, WritesPhaseBreakdownAndValidJson) {
  ObsGuard guard;
  obs::metrics().counter("phase.encode.ns").add(600'000'000);
  obs::metrics().counter("phase.integrate.ns").add(400'000'000);

  const auto phases = obs::phase_seconds();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].first, "encode");
  EXPECT_NEAR(phases[0].second, 0.6, 1e-9);

  obs::RunManifest m;
  m.tool = "test";
  m.dataset = "synthetic";
  m.seed = 9;
  m.workers = 2;
  m.wall_seconds = 1.25;
  m.config.emplace_back("neurons", "20");
  m.results.emplace_back("accuracy", 0.5);

  const std::string path = temp_path("pss_test_manifest.json");
  obs::write_manifest(path, m);
  const std::string json = read_file(path);
  std::filesystem::remove(path);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"pss.manifest.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"phase_coverage\""), std::string::npos);
  EXPECT_NE(json.find("\"encode\""), std::string::npos);
}

// ---- reproducibility with observability on ---------------------------------

WtaConfig small_config() {
  WtaConfig cfg = WtaConfig::from_table1(LearningOption::kFloat32,
                                         StdpKind::kStochastic, 15);
  cfg.seed = 21;
  return cfg;
}

/// Table I baseline encoding (1–22 Hz), 60 ms presentations.
graph::GraphTrainerConfig trainer_config() {
  graph::GraphTrainerConfig tc;
  tc.f_min_hz = 1.0;
  tc.f_max_hz = 22.0;
  tc.t_learn_ms = 60.0;
  tc.t_readout_ms = 60.0;
  return tc;
}

std::vector<double> train_conductances(bool observe) {
  obs::set_metrics_enabled(observe);
  obs::set_trace_enabled(observe);
  if (observe) obs::reset_trace();
  SyntheticConfig synth;
  synth.train_count = 12;
  synth.test_count = 4;
  LabeledDataset data = make_synthetic_digits(synth);
  graph::NetworkGraph net(graph::single_wta_graph(small_config()));
  graph::GraphTrainer trainer(net, trainer_config());
  trainer.train(data.train.head(10));
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  return net.block(0).conductance().to_vector();
}

TEST(Reproducibility, IdenticalWithObservabilityOnAndOff) {
  ObsGuard guard;
  const std::vector<double> g_plain = train_conductances(false);
  const std::vector<double> g_observed = train_conductances(true);
  EXPECT_EQ(g_plain, g_observed);  // bitwise: double == double
  // And the observed run actually collected something.
  EXPECT_GT(obs::metrics().counter("present.count").value(), 0u);
  EXPECT_FALSE(obs::collect_trace().empty());
}

TEST(Reproducibility, WorkerCountInvarianceHoldsWithTracingOn) {
  ObsGuard guard;
  SyntheticConfig synth;
  synth.train_count = 10;
  synth.test_count = 12;
  LabeledDataset data = make_synthetic_digits(synth);

  graph::NetworkGraph trained(graph::single_wta_graph(small_config()));
  graph::GraphTrainer(trained, trainer_config()).train(data.train.head(8));

  // Sequential labelling, observability off.
  Engine serial(1);
  graph::NetworkGraph seq_net = trained.replicate(&serial);
  graph::GraphTrainer seq(seq_net, trainer_config());
  seq.label(data.test.head(10));

  // Batched labelling across 2 workers with metrics + tracing enabled.
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::reset_trace();
  BatchRunner runner(2);
  graph::NetworkGraph batch_net = trained.replicate(&serial);
  graph::GraphTrainer batched(batch_net, trainer_config(), &runner);
  batched.label(data.test.head(10));
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);

  EXPECT_EQ(seq_net.neuron_labels(), batch_net.neuron_labels());
  EXPECT_EQ(seq.label_response(), batched.label_response());
  // The traced batched run produced per-shard spans.
  bool saw_shard_span = false;
  for (const auto& e : obs::collect_trace()) {
    if (std::string(e.name) == "batch.shard") saw_shard_span = true;
  }
  EXPECT_TRUE(saw_shard_span);
}

}  // namespace
}  // namespace pss
