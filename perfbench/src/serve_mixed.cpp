// serve_mixed: an open-loop, seeded arrival schedule against an in-process
// ServeServer (2 workers, cpu_sparse, the digits_wta model).
//
// Set-up trains the model through the graph path, saves it with
// save_snapshot and starts the server; it is repeated and timed like the
// digits set-up. The measurement then runs three phases over two client
// connections, all from one generator thread:
//
//   warmup     classify only, one request at a time. Each answer is later
//              compared with an offline NetworkGraph replay at the same
//              presentation index (the server uses the admission sequence
//              number, so the k-th admitted request presents at index k).
//   reference  Poisson arrivals at kReferenceRps, mostly classify with a
//              fixed share of train. Every train is a write: it swaps the
//              model generation under the concurrent reads.
//   ladder     the same mix at rates rising geometrically from
//              kLadderStartRps, each rung drained before the next; there is
//              no top rate: climbing stops after two rungs in a row miss the
//              latency limit or leave a backlog (one miss below capacity can
//              be a transient stall of the host). Each rung's pass/miss is
//              written with the results.
//
// Requests are sent when due whatever the server's state (open loop), and
// each one is timed from its due time, so a stalled generator or server
// shows up as latency; how late the generator itself ran is recorded too.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pss/common/error.hpp"
#include "pss/data/synthetic_digits.hpp"
#include "pss/encoding/pixel_frequency.hpp"
#include "pss/engine/launch.hpp"
#include "pss/graph/graph_trainer.hpp"
#include "pss/graph/layer_spec.hpp"
#include "pss/graph/network_graph.hpp"
#include "pss/io/snapshot.hpp"
#include "pss/obs/json_writer.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/serve/client.hpp"
#include "pss/serve/model.hpp"
#include "pss/serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pss::serve::Status;
using pss::serve::Verb;

constexpr double kTrainShare = 0.2;
constexpr double kReferenceRps = 320.0;
constexpr double kLadderStartRps = 1000.0;
constexpr double kLadderStep = 1.07;      ///< rate ratio of adjacent rungs
constexpr double kSloMs = 100.0;          ///< classify p99 limit per rung
constexpr std::size_t kWarmup = 8;        ///< classify-only requests
constexpr double kPresentMs = 150.0;
constexpr std::uint32_t kDeadlineMs = 10000;
constexpr std::uint64_t kSentinel = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kConnections = 2;

/// One scheduled request and what happened to it.
struct Req {
  std::uint32_t phase = 0;
  bool train = false;
  std::uint32_t image = 0;
  std::uint64_t due_ns = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t done_ns = 0;
  std::int64_t value = 0;
  Status status = Status::kError;
  bool answered = false;
  bool malformed = false;
};

struct Phase {
  std::string name;
  double rate = 0.0;  ///< 0 = synchronous warm-up
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t backlog_at_end = 0;  ///< unanswered when the last one was sent
  std::uint64_t generations = 0;   ///< model generations published
  std::uint64_t span = 0;
  bool passed = false;  ///< classify p99 within kSloMs and no growing backlog
};

/// Deterministic uniform doubles in (0, 1) from the workload seed.
class Uniform {
 public:
  explicit Uniform(std::uint64_t seed) : seed_(seed) {}
  double next() {
    const std::uint64_t bits = derive_seed(seed_, counter_++);
    return (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
};

/// Nearest-rank percentile of latencies where a failed request is +inf —
/// the same definition as analysis.percentile().
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::infinity();
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

bool well_formed(const pss::serve::Response& r, const Req& req,
                 std::size_t classes, std::size_t neurons) {
  switch (r.status) {
    case Status::kOk:
      if (req.train) {
        return r.message == "trained" && r.value >= -1 &&
               r.value < static_cast<std::int64_t>(neurons);
      }
      return r.value >= -1 && r.value < static_cast<std::int64_t>(classes);
    case Status::kOverloaded:
    case Status::kDeadlineExceeded:
    case Status::kError:
      return !r.message.empty();
  }
  return false;
}

}  // namespace

void run_serve_mixed(const Options& options, Recorder& recorder,
                     pss::obs::JsonWriter& w) {
  const double seconds = options.seconds;
  pss::SyntheticConfig model_images;  // training + labelling
  model_images.train_count =
      static_cast<std::size_t>(std::llround(12.0 * seconds));
  model_images.test_count =
      static_cast<std::size_t>(std::llround(10.0 * seconds));
  model_images.seed = derive_seed(kModelSeed, 1);
  pss::SyntheticConfig request_images;
  request_images.train_count = 0;
  request_images.test_count = 2000;
  request_images.seed = derive_seed(options.seed, 1);

  pss::WtaConfig base = pss::WtaConfig::from_table1(
      pss::LearningOption::kFloat32, pss::StdpKind::kStochastic, 100);
  base.backend = "cpu_sparse";
  base.seed = derive_seed(kModelSeed, 2);
  const pss::graph::GraphConfig config = pss::graph::single_wta_graph(base);

  std::filesystem::create_directories(options.workdir);
  const std::string model_path =
      (std::filesystem::path(options.workdir) / "model.bin").string();

  pss::serve::ServeOptions so;
  so.model_path = model_path;
  so.base_config = base;
  so.f_min_hz = 0.0;
  so.f_max_hz = config.encode.peak_hz;  // the encoding the model trained on
  so.t_present_ms = kPresentMs;
  so.workers = 2;
  so.queue_capacity = 4096;
  so.default_deadline_ms = kDeadlineMs;

  pss::Engine engine(kThreads);
  pss::LabeledDataset data;
  pss::Dataset pool;  // request images
  std::vector<int> labels;
  std::unique_ptr<pss::serve::ServeServer> server;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    Scope setup(recorder, "setup", SpanKind::kGroup);
    server.reset();
    {
      Scope s(recorder, "data.generate", SpanKind::kLayer);
      data = pss::make_synthetic_digits(model_images);
      pool = pss::make_synthetic_digits(request_images).test;
    }
    std::optional<pss::graph::NetworkGraph> graph;
    {
      Scope s(recorder, "graph.build", SpanKind::kLayer);
      graph.emplace(config, &engine);
    }
    pss::graph::GraphTrainerConfig tc;
    tc.t_learn_ms = kPresentMs;
    tc.t_readout_ms = kPresentMs;
    pss::graph::GraphTrainer trainer(*graph, tc);
    {
      Scope s(recorder, "graph.train", SpanKind::kCompute);
      trainer.train(data.train);
    }
    {
      Scope s(recorder, "graph.label", SpanKind::kCompute);
      trainer.label(data.test);
    }
    labels = graph->neuron_labels();
    {
      Scope s(recorder, "io.snapshot_save", SpanKind::kLayer);
      pss::save_snapshot(model_path, pss::NetworkSnapshot::capture(
                                         graph->block(0), &labels));
    }
    Scope s(recorder, "serve.start", SpanKind::kLayer);
    server = std::make_unique<pss::serve::ServeServer>(so);
  }
  const std::size_t classes =
      static_cast<std::size_t>(
          *std::max_element(labels.begin(), labels.end()) + 1);
  const std::size_t neurons = labels.size();

  // --- schedule ------------------------------------------------------------
  Uniform uniform(derive_seed(options.seed, 3));
  std::vector<Req> reqs;
  const auto add_request = [&](std::uint32_t phase, bool allow_train,
                               std::uint64_t due_ns) {
    Req q;
    q.phase = phase;
    q.train = allow_train && uniform.next() < kTrainShare;
    q.image = static_cast<std::uint32_t>(
        uniform.next() * static_cast<double>(pool.size()));
    q.due_ns = due_ns;
    reqs.push_back(q);
  };
  // Poisson arrivals at `rate` over `duration_s`, offsets from phase start.
  const auto poisson = [&](std::uint32_t phase, double rate,
                           double duration_s) {
    double t = 0.0;
    for (;;) {
      t += -std::log(uniform.next()) / rate;
      if (t >= duration_s) break;
      add_request(phase, true, static_cast<std::uint64_t>(t * 1e9));
    }
  };

  // Warm-up and reference are generated here, each ladder rung when it is
  // reached; the draws come in the same order either way.
  std::vector<Phase> phases;
  const auto add_phase = [&](const char* name, double rate) {
    Phase& phase = phases.emplace_back();
    phase.name = name;
    phase.rate = rate;
    phase.begin = phase.end = reqs.size();
  };
  add_phase("warmup", 0.0);
  for (std::size_t i = 0; i < kWarmup; ++i) add_request(0, false, 0);
  phases[0].end = reqs.size();
  add_phase("reference", kReferenceRps);
  poisson(1, kReferenceRps, 0.45 * seconds);
  phases[1].end = reqs.size();
  const double rung_s = 0.04 * seconds;

  // --- load ----------------------------------------------------------------
  std::vector<std::unique_ptr<pss::serve::ServeClient>> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<pss::serve::ServeClient>(
        server->port(), static_cast<int>(kDeadlineMs) + 5000));
  }
  const auto request_of = [&](std::size_t i) {
    pss::serve::Request request;
    request.verb = reqs[i].train ? Verb::kTrain : Verb::kClassify;
    request.id = i;
    request.deadline_ms = kDeadlineMs;
    const auto& px = pool[reqs[i].image].pixels;
    request.body.assign(px.begin(), px.end());
    return request;
  };
  const auto settle = [&](std::size_t i, const pss::serve::Response& r) {
    Req& q = reqs[i];
    q.done_ns = pss::obs::monotonic_ns();
    q.status = r.status;
    q.value = r.value;
    q.malformed = !well_formed(r, q, classes, neurons);
    q.answered = true;
  };

  std::size_t unknown_responses = 0;
  // Guards the storage of `reqs`: the generator appends ladder rungs while
  // the receivers settle responses.
  std::mutex reqs_mutex;
  {
    Scope measure(recorder, "measure", SpanKind::kGroup);

    // Warm-up: synchronous classify on connection 0.
    {
      Scope s(recorder, "loadgen.warmup", SpanKind::kCompute);
      phases[0].span = s.id();
      for (std::size_t i = phases[0].begin; i < phases[0].end; ++i) {
        reqs[i].due_ns = reqs[i].send_ns = pss::obs::monotonic_ns();
        const pss::serve::Response r = clients[0]->call(request_of(i));
        if (r.id == i) {
          settle(i, r);
        } else {
          ++unknown_responses;
        }
      }
    }

    // Open loop: one receiver thread per connection settles responses.
    std::atomic<std::size_t> received{0};
    std::atomic<std::size_t> unknown{0};
    std::vector<std::exception_ptr> errors(kConnections);
    std::vector<std::thread> receivers;
    for (std::size_t c = 0; c < kConnections; ++c) {
      receivers.emplace_back([&, c] {
        try {
          for (;;) {
            const pss::serve::Response r = clients[c]->receive();
            if (r.id == kSentinel) return;
            {
              const std::lock_guard<std::mutex> lock(reqs_mutex);
              if (r.id < reqs.size() && r.id % kConnections == c &&
                  !reqs[r.id].answered) {
                settle(r.id, r);
              } else {
                unknown.fetch_add(1);
              }
            }
            received.fetch_add(1);
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }

    std::size_t sent = 0;
    bool load_error = false;
    // Sends one open-loop phase on schedule, drains it, and judges it
    // against the latency limit.
    const auto run_phase = [&](std::size_t p) {
      Phase& phase = phases[p];
      Scope s(recorder, p == 1 ? "loadgen.reference" : "loadgen.rung",
              SpanKind::kCompute);
      phase.span = s.id();
      const std::uint64_t generation0 = server->model_generation();
      const std::uint64_t t0 = pss::obs::monotonic_ns() + 1000000;
      for (std::size_t i = phase.begin; i < phase.end; ++i) {
        Req& q = reqs[i];
        q.due_ns += t0;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(q.due_ns)));
        q.send_ns = pss::obs::monotonic_ns();
        clients[i % kConnections]->send(request_of(i));
        ++sent;
      }
      phase.backlog_at_end = sent - received.load();
      // Drain before the next phase so rungs do not overlap.
      const std::uint64_t limit = pss::obs::monotonic_ns() +
                                  (kDeadlineMs + 5000ull) * 1000000ull;
      while (received.load() < sent) {
        if (pss::obs::monotonic_ns() > limit) {
          load_error = true;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      phase.generations = server->model_generation() - generation0;
      std::vector<double> latencies;
      for (std::size_t i = phase.begin; i < phase.end; ++i) {
        const Req& q = reqs[i];
        if (q.train) continue;
        const bool ok = q.answered && q.status == Status::kOk;
        latencies.push_back(ok ? static_cast<double>(q.done_ns - q.due_ns) *
                                     1e-6
                               : std::numeric_limits<double>::infinity());
      }
      const double slack = std::max(8.0, phase.rate * kSloMs * 1e-3);
      phase.passed = percentile(latencies, 99.0) <= kSloMs &&
                     static_cast<double>(phase.backlog_at_end) <= slack;
    };
    const auto run_phases = [&] {
      run_phase(1);
      std::size_t misses = 0;
      for (double rate = kLadderStartRps; misses < 2 && !load_error;
           rate *= kLadderStep) {
        {
          const std::lock_guard<std::mutex> lock(reqs_mutex);
          add_phase("rung", rate);
          poisson(static_cast<std::uint32_t>(phases.size() - 1), rate,
                  rung_s);
          phases.back().end = reqs.size();
        }
        run_phase(phases.size() - 1);
        misses = phases.back().passed ? 0 : misses + 1;
      }
    };
    std::exception_ptr generator_error;
    try {
      run_phases();
    } catch (...) {
      generator_error = std::current_exception();
    }
    // A ping answered after everything else ends each receiver; if the
    // server is gone, the receivers end on their read timeout instead.
    for (std::size_t c = 0; c < kConnections; ++c) {
      pss::serve::Request ping;
      ping.verb = Verb::kPing;
      ping.id = kSentinel;
      try {
        clients[c]->send(ping);
      } catch (const std::exception&) {
        if (!generator_error) generator_error = std::current_exception();
      }
    }
    for (std::thread& t : receivers) t.join();
    unknown_responses += unknown.load();
    if (generator_error) std::rethrow_exception(generator_error);
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    PSS_REQUIRE(!load_error, "serve_mixed: responses missing after drain");
  }
  clients.clear();
  {
    Scope s(recorder, "serve.stop", SpanKind::kLayer);
    server->stop();
  }

  // --- offline replay (output check + compute time) ------------------------
  // A replica of the saved model replays the warm-up at the server's
  // presentation indices (answers must match), then every request of the
  // reference phase in order, train ones learning, to time the compute a
  // request costs without the serving path around it.
  std::size_t warmup_mismatch = 0;
  std::vector<double> classify_ms;
  std::vector<double> train_ms;
  {
    Scope s(recorder, "check.replay", SpanKind::kGroup);
    pss::Engine serial(1);  // a serve worker's engine
    const pss::serve::ModelBundle bundle =
        pss::serve::load_model(model_path, base);
    pss::graph::NetworkGraph replica = pss::serve::instantiate(bundle, &serial);
    const pss::PixelFrequencyMap map(so.f_min_hz, so.f_max_hz);
    std::vector<double> rates;
    for (std::size_t i = 0; i < phases[1].end; ++i) {
      if (i >= kWarmup && i < phases[1].begin) continue;
      map.frequencies(pool[reqs[i].image].pixels, rates);
      replica.set_presentation_index(i);
      const std::uint64_t t0 = pss::obs::monotonic_ns();
      const pss::graph::GraphResult result =
          replica.present(rates, kPresentMs, reqs[i].train ? 0 : -1);
      const double ms =
          static_cast<double>(pss::obs::monotonic_ns() - t0) * 1e-6;
      if (i >= kWarmup) {
        (reqs[i].train ? train_ms : classify_ms).push_back(ms);
        continue;
      }
      const int expected = pss::serve::predict_from_counts(
          result.spike_counts, bundle.neuron_labels, bundle.class_count);
      if (!reqs[i].answered || reqs[i].status != Status::kOk ||
          reqs[i].value != expected) {
        ++warmup_mismatch;
      }
    }
  }

  // Request spans: one tree per request, sharing the request id.
  if (recorder.traced()) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Req& q = reqs[i];
      if (q.send_ns == 0 || !q.answered) continue;
      const std::uint64_t root = recorder.record(
          q.train ? "request.train" : "request.classify", SpanKind::kGroup,
          -1, i, q.due_ns, q.done_ns);
      recorder.record("loadgen.lag", SpanKind::kLayer,
                      static_cast<std::int64_t>(root), i, q.due_ns,
                      q.send_ns);
      recorder.record("serve.rtt", SpanKind::kLayer,
                      static_cast<std::int64_t>(root), i, q.send_ns,
                      q.done_ns);
    }
  }

  w.key("serve").begin_object();
  w.member("slo_ms", kSloMs);
  w.member("train_share", kTrainShare);
  w.member("workers", so.workers);
  w.member("train_images", model_images.train_count);
  w.member("warmup_mismatch", warmup_mismatch);
  w.member("unknown_responses", unknown_responses);
  w.key("classify_compute_ms").begin_array();
  for (const double ms : classify_ms) w.value(ms);
  w.end_array();
  w.key("train_compute_ms").begin_array();
  for (const double ms : train_ms) w.value(ms);
  w.end_array();
  w.key("phases").begin_array();
  for (const Phase& phase : phases) {
    w.begin_object();
    w.member("name", phase.name);
    w.member("rate", phase.rate);
    w.member("begin", phase.begin);
    w.member("end", phase.end);
    w.member("backlog_at_end", phase.backlog_at_end);
    w.member("generations", phase.generations);
    w.member("span", phase.span);
    w.member("passed", phase.passed);
    w.end_object();
  }
  w.end_array();
  // Columns: phase, train, due, send, done (ns), status, value, malformed,
  // true label of the image.
  w.key("requests").begin_array();
  for (const Req& q : reqs) {
    w.begin_array();
    w.value(q.phase);
    w.value(q.train ? 1 : 0);
    w.value(q.due_ns);
    w.value(q.send_ns);
    w.value(q.answered ? q.done_ns : std::uint64_t{0});
    w.value(q.answered ? static_cast<int>(q.status) : -1);
    w.value(q.value);
    w.value(q.malformed ? 1 : 0);
    w.value(static_cast<int>(pool[q.image].label));
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

}  // namespace perfbench
