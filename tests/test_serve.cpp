// pss_serve tests: wire protocol round-trips, the shared backoff policy,
// admission-queue batching/shedding/expiry semantics, once-only completion,
// and end-to-end daemon behaviour over a real loopback socket — including
// the tentpole fault-injection scenario (worker killed mid-batch → heartbeat
// recovery → requeue → responses bitwise-identical to a fault-free run),
// saturation backpressure, deadline shedding, hot reload (torn-free and
// deterministic), and checkpoint-served models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pss/common/backoff.hpp"
#include "pss/common/error.hpp"
#include "pss/common/log.hpp"
#include "pss/encoding/pixel_frequency.hpp"
#include "pss/engine/launch.hpp"
#include "pss/io/snapshot.hpp"
#include "pss/network/wta_network.hpp"
#include "pss/obs/exporter.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/robust/checkpoint.hpp"
#include "pss/robust/fault_injection.hpp"
#include "pss/serve/batcher.hpp"
#include "pss/serve/client.hpp"
#include "pss/serve/model.hpp"
#include "pss/serve/net.hpp"
#include "pss/serve/protocol.hpp"
#include "pss/serve/server.hpp"

namespace pss {
namespace {

constexpr std::size_t kNeurons = 16;
constexpr std::size_t kChannels = 64;
constexpr std::size_t kClasses = 4;
constexpr double kTPresentMs = 60.0;
constexpr double kFMin = 1.0;
constexpr double kFMax = 22.0;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

WtaConfig small_config(std::uint64_t seed = 7) {
  WtaConfig cfg;
  cfg.neuron_count = kNeurons;
  cfg.input_channels = kChannels;
  cfg.seed = seed;
  return cfg;
}

std::vector<int> test_labels() {
  std::vector<int> labels(kNeurons);
  for (std::size_t i = 0; i < kNeurons; ++i) {
    labels[i] = static_cast<int>(i % kClasses);
  }
  return labels;
}

/// Writes an untrained-but-labelled model snapshot (classification accuracy
/// is irrelevant here — determinism is what the tests pin).
std::string write_model(const std::string& name, std::uint64_t seed) {
  WtaConfig cfg = small_config(seed);
  WtaNetwork net(cfg);
  const std::vector<int> labels = test_labels();
  const std::string path = temp_path(name);
  save_snapshot(path, NetworkSnapshot::capture(net, &labels));
  return path;
}

/// Deterministic synthetic image `k`.
std::vector<std::uint8_t> test_image(std::size_t k) {
  std::vector<std::uint8_t> pixels(kChannels);
  for (std::size_t j = 0; j < kChannels; ++j) {
    pixels[j] = static_cast<std::uint8_t>((k * 31 + j * 7) % 256);
  }
  return pixels;
}

/// Ground truth: replays admission sequence `seq` exactly the way a serve
/// worker does (same model, same index, same rates) — present() is a pure
/// function of that tuple, so the daemon must return exactly this.
int expected_prediction(const std::string& model_path,
                        std::span<const std::uint8_t> pixels,
                        std::uint64_t seq) {
  const serve::ModelBundle bundle =
      serve::load_model(model_path, small_config());
  Engine engine(1);
  graph::NetworkGraph net = serve::instantiate(bundle, &engine);
  PixelFrequencyMap map(kFMin, kFMax);
  std::vector<double> rates;
  map.frequencies(pixels, rates);
  net.set_presentation_index(seq);
  const graph::GraphResult r = net.present(rates, kTPresentMs, -1);
  return serve::predict_from_counts(r.spike_counts, bundle.neuron_labels,
                                    bundle.class_count);
}

serve::ServeOptions base_options(const std::string& model_path) {
  serve::ServeOptions opts;
  opts.model_path = model_path;
  opts.base_config = small_config();
  opts.f_min_hz = kFMin;
  opts.f_max_hz = kFMax;
  opts.t_present_ms = kTPresentMs;
  opts.workers = 2;
  opts.window_ms = 2;
  opts.heartbeat_interval_ms = 5;
  opts.heartbeat_timeout_ms = 200;
  opts.backoff.base_ms = 1.0;
  opts.backoff.cap_ms = 8.0;
  return opts;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    robust::faults().clear();
    obs::metrics().reset();
    set_log_level(LogLevel::kError);
  }
  void TearDown() override { robust::faults().clear(); }
};

// ---------------------------------------------------------------- protocol

TEST_F(ServeTest, RequestRoundTrips) {
  serve::Request request;
  request.verb = serve::Verb::kClassify;
  request.id = 0x1122334455667788ull;
  request.deadline_ms = 1500;
  request.body = test_image(3);
  const auto bytes = serve::encode_request(request);
  const serve::Request back = serve::decode_request(bytes);
  EXPECT_EQ(back.verb, request.verb);
  EXPECT_EQ(back.id, request.id);
  EXPECT_EQ(back.deadline_ms, request.deadline_ms);
  EXPECT_EQ(back.body, request.body);
}

TEST_F(ServeTest, ResponseRoundTrips) {
  serve::Response response{serve::Status::kOverloaded, 42, -1, "try later"};
  const auto bytes = serve::encode_response(response);
  const serve::Response back = serve::decode_response(bytes);
  EXPECT_EQ(back.status, response.status);
  EXPECT_EQ(back.id, response.id);
  EXPECT_EQ(back.value, response.value);
  EXPECT_EQ(back.message, response.message);
}

TEST_F(ServeTest, MalformedPayloadsThrow) {
  serve::Request request;
  request.verb = serve::Verb::kPing;
  auto bytes = serve::encode_request(request);
  // Truncated.
  auto truncated = bytes;
  truncated.pop_back();
  truncated.pop_back();
  EXPECT_THROW(serve::decode_request(truncated), Error);
  // Unknown verb.
  auto bad_verb = bytes;
  bad_verb[0] = 0x7f;
  EXPECT_THROW(serve::decode_request(bad_verb), Error);
  // Trailing garbage.
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(serve::decode_request(trailing), Error);
  // Body length pointing past the payload.
  serve::Request with_body;
  with_body.verb = serve::Verb::kClassify;
  with_body.body = {1, 2, 3, 4};
  auto lying = serve::encode_request(with_body);
  lying[13] = 0xff;  // body_size low byte (1 + 8 + 4 offset)
  EXPECT_THROW(serve::decode_request(lying), Error);
  EXPECT_THROW(serve::decode_response({bytes.data(), 2}), Error);
  EXPECT_STREQ(serve::verb_name(serve::Verb::kClassify), "classify");
  EXPECT_STREQ(serve::status_name(serve::Status::kOverloaded), "overloaded");
}

// ----------------------------------------------------------------- backoff

TEST_F(ServeTest, BackoffIsCappedExponentialAndDeterministic) {
  BackoffPolicy policy;
  policy.base_ms = 1.0;
  policy.cap_ms = 16.0;
  policy.multiplier = 2.0;
  EXPECT_DOUBLE_EQ(policy.delay_ms(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(policy.delay_ms(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(policy.delay_ms(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(policy.delay_ms(0, 4), 16.0);
  EXPECT_DOUBLE_EQ(policy.delay_ms(0, 40), 16.0);  // capped, no overflow
  // Stream does not matter without jitter.
  EXPECT_DOUBLE_EQ(policy.delay_ms(5, 3), policy.delay_ms(9, 3));
}

TEST_F(ServeTest, BackoffJitterIsBitwiseReproducible) {
  BackoffPolicy a;
  a.jitter = 0.5;
  BackoffPolicy b = a;
  bool any_spread = false;
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    for (std::uint64_t attempt = 0; attempt < 6; ++attempt) {
      const double da = a.delay_ms(stream, attempt);
      // Bitwise-identical across policy copies (pure function).
      EXPECT_EQ(da, b.delay_ms(stream, attempt));
      // Jitter only shrinks the delay, never below (1 - jitter) of it.
      const double raw = BackoffPolicy{}.delay_ms(stream, attempt);
      EXPECT_LE(da, raw);
      EXPECT_GE(da, raw * (1.0 - a.jitter) - 1e-12);
      if (da != raw) any_spread = true;
    }
  }
  EXPECT_TRUE(any_spread);  // jitter actually does something
  // Different seeds give a different schedule somewhere.
  BackoffPolicy c = a;
  c.seed = a.seed + 1;
  bool differs = false;
  for (std::uint64_t attempt = 0; attempt < 8 && !differs; ++attempt) {
    differs = c.delay_ms(1, attempt) != a.delay_ms(1, attempt);
  }
  EXPECT_TRUE(differs);
}

// ------------------------------------------------------------------ queue

serve::PendingPtr make_pending(std::uint64_t deadline_in_ms = 10000) {
  auto pending = std::make_shared<serve::PendingRequest>();
  pending->request.verb = serve::Verb::kClassify;
  pending->deadline_ns =
      obs::monotonic_ns() + deadline_in_ms * 1000000ull;
  return pending;
}

TEST_F(ServeTest, QueueFlushesOnBatchSize) {
  serve::RequestQueue queue(16);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.admit(make_pending()));
  const auto batch = queue.next_batch(4, 60ull * 1000000000ull);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0]->seq, 0u);  // admission order preserved
  EXPECT_EQ(batch[3]->seq, 3u);
}

TEST_F(ServeTest, QueueFlushesPartialBatchOnWindow) {
  serve::RequestQueue queue(16);
  ASSERT_TRUE(queue.admit(make_pending()));
  const std::uint64_t t0 = obs::monotonic_ns();
  const auto batch = queue.next_batch(8, 5ull * 1000000ull);  // 5 ms window
  const double waited_ms =
      static_cast<double>(obs::monotonic_ns() - t0) / 1e6;
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_LT(waited_ms, 2000.0);  // window, not forever
}

TEST_F(ServeTest, QueueShedsAtCapacityAndAfterShutdown) {
  serve::RequestQueue queue(2);
  EXPECT_TRUE(queue.admit(make_pending()));
  EXPECT_TRUE(queue.admit(make_pending()));
  EXPECT_FALSE(queue.admit(make_pending()));  // full → shed
  EXPECT_EQ(queue.depth(), 2u);
  queue.shutdown();
  EXPECT_FALSE(queue.admit(make_pending()));  // stopped → shed
  // Queued work remains drainable for a graceful shutdown.
  EXPECT_EQ(queue.next_batch(8, 0).size(), 2u);
  EXPECT_TRUE(queue.next_batch(8, 0).empty());
}

TEST_F(ServeTest, QueueCompletesExpiredRequestsWithoutDispatch) {
  serve::RequestQueue queue(8);
  auto outbox = std::make_shared<serve::Outbox>();
  auto expired = make_pending(0);  // deadline already passed
  expired->outbox = outbox;
  auto live = make_pending();
  ASSERT_TRUE(queue.admit(expired));
  ASSERT_TRUE(queue.admit(live));
  const auto batch = queue.next_batch(8, 0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].get(), live.get());
  EXPECT_TRUE(expired->completed());
  serve::Response response;
  ASSERT_TRUE(outbox->pop(response));
  EXPECT_EQ(response.status, serve::Status::kDeadlineExceeded);
}

TEST_F(ServeTest, RequeueJumpsTheLineAndCompletionIsOnceOnly) {
  serve::RequestQueue queue(8);
  auto first = make_pending();
  auto second = make_pending();
  ASSERT_TRUE(queue.admit(first));
  ASSERT_TRUE(queue.admit(second));
  auto drained = queue.next_batch(8, 0);
  ASSERT_EQ(drained.size(), 2u);
  // Requeue `second` with no delay: it must come back before new arrivals.
  queue.requeue(second, 0);
  auto fresh = make_pending();
  ASSERT_TRUE(queue.admit(fresh));
  const auto batch = queue.next_batch(1, 0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].get(), second.get());
  EXPECT_EQ(second->attempts.load(), 1u);

  // Once-only completion: the duplicate answer is dropped.
  auto outbox = std::make_shared<serve::Outbox>();
  second->outbox = outbox;
  EXPECT_TRUE(second->complete({serve::Status::kOk, 0, 1, ""}));
  EXPECT_FALSE(second->complete({serve::Status::kOk, 0, 2, ""}));
  serve::Response response;
  ASSERT_TRUE(outbox->pop(response));
  EXPECT_EQ(response.value, 1);
  outbox->close();
  EXPECT_FALSE(outbox->pop(response));
}

// ------------------------------------------------------------- model files

TEST_F(ServeTest, LoadModelSniffsSnapshotAndCheckpoint) {
  const std::string snap_path = write_model("pss_serve_model_a.bin", 7);
  const serve::ModelBundle snap = serve::load_model(snap_path, small_config());
  EXPECT_TRUE(snap.can_classify());
  EXPECT_EQ(snap.class_count, kClasses);
  ASSERT_TRUE(snap.config.single_wta());
  EXPECT_EQ(snap.model.blocks.front().neuron_count, kNeurons);
  EXPECT_EQ(snap.input_units, kChannels);

  WtaNetwork net(small_config(9));
  robust::TrainingCheckpoint cp = robust::TrainingCheckpoint::capture(net);
  const std::string cp_path = temp_path("pss_serve_model_cp.bin");
  robust::save_checkpoint(cp_path, cp);
  const serve::ModelBundle ckpt = serve::load_model(cp_path, small_config());
  EXPECT_FALSE(ckpt.can_classify());
  EXPECT_TRUE(ckpt.neuron_labels.empty());

  const std::string junk = temp_path("pss_serve_model_junk.bin");
  {
    std::ofstream out(junk, std::ios::binary);
    out << "definitely not a model";
  }
  EXPECT_THROW(serve::load_model(junk, small_config()), Error);
}

// ------------------------------------------------------------- end to end

TEST_F(ServeTest, ClassifyMatchesDirectReplayExactly) {
  const std::string model = write_model("pss_serve_e2e.bin", 7);
  serve::ServeServer server(base_options(model));
  serve::ServeClient client(server.port());

  EXPECT_EQ(client.ping().status, serve::Status::kOk);

  constexpr std::size_t kCount = 6;
  std::vector<serve::Response> responses;
  for (std::size_t i = 0; i < kCount; ++i) {
    responses.push_back(client.classify(test_image(i)));
  }
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(responses[i].status, serve::Status::kOk) << responses[i].message;
    // Serialized calls admit in order → request i has admission seq i.
    EXPECT_EQ(responses[i].value, expected_prediction(model, test_image(i), i))
        << "request " << i;
  }
  const serve::Response stats = client.stats();
  EXPECT_EQ(stats.status, serve::Status::kOk);
  EXPECT_NE(stats.message.find("completed=6"), std::string::npos)
      << stats.message;
}

TEST_F(ServeTest, FatalWorkerFaultIsRecoveredAndAnswersStayExact) {
  const std::string model = write_model("pss_serve_fault.bin", 7);
  // Second presentation attempt kills its worker mid-batch (fatal = the
  // worker thread exits without cleanup, leaving its inflight orphaned).
  robust::faults().arm_from_spec("serve.worker:after=1,count=1,kind=fatal");

  serve::ServeOptions opts = base_options(model);
  opts.heartbeat_interval_ms = 5;  // fast detection for the test
  serve::ServeServer server(opts);
  serve::ServeClient client(server.port());

  // Pipelined burst so one worker has a multi-request batch in flight when
  // it dies.
  constexpr std::size_t kCount = 10;
  for (std::size_t i = 0; i < kCount; ++i) {
    serve::Request request;
    request.verb = serve::Verb::kClassify;
    request.id = 1000 + i;
    request.body = test_image(i);
    client.send(request);
  }
  std::vector<serve::Response> responses;
  for (std::size_t i = 0; i < kCount; ++i) {
    responses.push_back(client.receive());
  }

  // Every admitted request is answered, correctly, despite the crash: the
  // requeued requests replay their admission seq on a healthy replica, and
  // present() is a pure function of (state, seq, rates).
  ASSERT_EQ(responses.size(), kCount);
  for (const serve::Response& response : responses) {
    ASSERT_EQ(response.status, serve::Status::kOk) << response.message;
    const std::size_t i = static_cast<std::size_t>(response.id) - 1000;
    EXPECT_EQ(response.value, expected_prediction(model, test_image(i), i))
        << "request " << i;
  }
  EXPECT_EQ(robust::faults().fired("serve.worker"), 1u);
  EXPECT_GE(obs::metrics().counter("serve.requeue").value(), 1u);
  EXPECT_GE(obs::metrics().counter("serve.worker_restarts").value(), 1u);
  EXPECT_EQ(obs::metrics().counter("serve.completed").value(), kCount);

  // The recovery counters ride the existing Prometheus path unchanged.
  const std::string prom = obs::render_prometheus(obs::metrics());
  EXPECT_NE(prom.find("pss_serve_requeue "), std::string::npos);
  EXPECT_NE(prom.find("pss_serve_worker_restarts "), std::string::npos);
}

TEST_F(ServeTest, TransientFaultsRetryWithBackoffAndStayExact) {
  const std::string model = write_model("pss_serve_transient.bin", 7);
  robust::faults().arm_from_spec("serve.worker:count=3,kind=transient");

  serve::ServeServer server(base_options(model));
  serve::ServeClient client(server.port());
  constexpr std::size_t kCount = 8;
  for (std::size_t i = 0; i < kCount; ++i) {
    serve::Request request;
    request.verb = serve::Verb::kClassify;
    request.id = i + 1;
    request.body = test_image(i);
    client.send(request);
  }
  for (std::size_t i = 0; i < kCount; ++i) {
    const serve::Response response = client.receive();
    ASSERT_EQ(response.status, serve::Status::kOk) << response.message;
    const std::size_t k = static_cast<std::size_t>(response.id) - 1;
    EXPECT_EQ(response.value, expected_prediction(model, test_image(k), k));
  }
  EXPECT_EQ(obs::metrics().counter("serve.requeue").value(), 3u);
  EXPECT_EQ(obs::metrics().counter("serve.worker_restarts").value(), 0u);
}

TEST_F(ServeTest, SaturationShedsWithExplicitOverloadedResponses) {
  const std::string model = write_model("pss_serve_overload.bin", 7);
  serve::ServeOptions opts = base_options(model);
  opts.workers = 1;
  opts.max_batch = 1;
  opts.window_ms = 0;
  opts.queue_capacity = 3;
  opts.t_present_ms = 200.0;  // slower drain than the loopback admit rate
  serve::ServeServer server(opts);
  serve::ServeClient client(server.port());

  constexpr std::size_t kCount = 30;
  for (std::size_t i = 0; i < kCount; ++i) {
    serve::Request request;
    request.verb = serve::Verb::kClassify;
    request.id = i + 1;
    request.body = test_image(i % 4);
    client.send(request);
  }
  std::size_t ok = 0, overloaded = 0;
  for (std::size_t i = 0; i < kCount; ++i) {
    const serve::Response response = client.receive();
    if (response.status == serve::Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(response.status, serve::Status::kOverloaded)
          << response.message;
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kCount);
  EXPECT_GT(overloaded, 0u);  // backpressure was explicit, not silent
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(obs::metrics().counter("serve.shed").value(), overloaded);
  // The queue depth gauge never exceeded the configured bound.
  EXPECT_LE(obs::metrics().gauge("serve.queue_depth").value(), 3.0);
  // Shedding is visible to a Prometheus scrape, not just in-process.
  EXPECT_NE(obs::render_prometheus(obs::metrics()).find("pss_serve_shed "),
            std::string::npos);
}

TEST_F(ServeTest, TightDeadlinesAreShedAsDeadlineExceeded) {
  const std::string model = write_model("pss_serve_deadline.bin", 7);
  serve::ServeOptions opts = base_options(model);
  opts.workers = 1;
  opts.max_batch = 1;
  opts.window_ms = 0;
  opts.queue_capacity = 64;
  opts.t_present_ms = 200.0;
  serve::ServeServer server(opts);
  serve::ServeClient client(server.port());

  constexpr std::size_t kCount = 12;
  for (std::size_t i = 0; i < kCount; ++i) {
    serve::Request request;
    request.verb = serve::Verb::kClassify;
    request.id = i + 1;
    request.deadline_ms = 1;  // nearly everything behind the first expires
    request.body = test_image(i % 4);
    client.send(request);
  }
  std::size_t expired = 0;
  for (std::size_t i = 0; i < kCount; ++i) {
    const serve::Response response = client.receive();
    ASSERT_TRUE(response.status == serve::Status::kOk ||
                response.status == serve::Status::kDeadlineExceeded)
        << static_cast<int>(response.status) << " " << response.message;
    if (response.status == serve::Status::kDeadlineExceeded) ++expired;
  }
  EXPECT_GT(expired, 0u);
  EXPECT_EQ(obs::metrics().counter("serve.expired").value(), expired);
}

TEST_F(ServeTest, HotReloadIsTornFreeAndDeterministic) {
  const std::string model_a = write_model("pss_serve_reload_a.bin", 7);
  const std::string model_b = write_model("pss_serve_reload_b.bin", 1234);
  const std::string live = temp_path("pss_serve_reload_live.bin");

  // Two full passes must produce bitwise-identical response sequences.
  std::vector<std::vector<std::int64_t>> runs;
  for (int run = 0; run < 2; ++run) {
    std::filesystem::copy_file(
        model_a, live, std::filesystem::copy_options::overwrite_existing);
    serve::ServeServer server(base_options(live));
    serve::ServeClient client(server.port());
    std::vector<std::int64_t> values;

    constexpr std::size_t kHalf = 4;
    for (std::size_t i = 0; i < kHalf; ++i) {
      const serve::Response r = client.classify(test_image(i));
      ASSERT_EQ(r.status, serve::Status::kOk) << r.message;
      values.push_back(r.value);
      EXPECT_EQ(r.value, expected_prediction(model_a, test_image(i), i));
    }
    std::filesystem::copy_file(
        model_b, live, std::filesystem::copy_options::overwrite_existing);
    const serve::Response reloaded = client.reload();
    ASSERT_EQ(reloaded.status, serve::Status::kOk) << reloaded.message;
    EXPECT_EQ(reloaded.value, 2);  // generation bumped
    for (std::size_t i = 0; i < kHalf; ++i) {
      const std::uint64_t seq = kHalf + i;
      const serve::Response r = client.classify(test_image(i));
      ASSERT_EQ(r.status, serve::Status::kOk) << r.message;
      values.push_back(r.value);
      // New requests see the new weights — exactly.
      EXPECT_EQ(r.value, expected_prediction(model_b, test_image(i), seq));
    }
    runs.push_back(std::move(values));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST_F(ServeTest, ReloadRacingPipelinedTrafficIsNeverTorn) {
  const std::string model_a = write_model("pss_serve_race_a.bin", 7);
  const std::string model_b = write_model("pss_serve_race_b.bin", 1234);
  const std::string live = temp_path("pss_serve_race_live.bin");
  std::filesystem::copy_file(
      model_a, live, std::filesystem::copy_options::overwrite_existing);

  serve::ServeServer server(base_options(live));
  serve::ServeClient traffic(server.port());
  constexpr std::size_t kCount = 12;
  for (std::size_t i = 0; i < kCount; ++i) {
    serve::Request request;
    request.verb = serve::Verb::kClassify;
    request.id = i + 1;
    request.body = test_image(i % 3);
    traffic.send(request);
  }
  // Swap the file and reload from a second connection mid-burst.
  std::filesystem::copy_file(
      model_b, live, std::filesystem::copy_options::overwrite_existing);
  serve::ServeClient admin(server.port());
  ASSERT_EQ(admin.reload().status, serve::Status::kOk);

  for (std::size_t i = 0; i < kCount; ++i) {
    const serve::Response response = traffic.receive();
    ASSERT_EQ(response.status, serve::Status::kOk) << response.message;
    const std::size_t k = static_cast<std::size_t>(response.id) - 1;
    const int old_expected =
        expected_prediction(model_a, test_image(k % 3), k);
    const int new_expected =
        expected_prediction(model_b, test_image(k % 3), k);
    // Each answer comes wholly from one model generation — never a blend.
    EXPECT_TRUE(response.value == old_expected ||
                response.value == new_expected)
        << "request " << k << ": got " << response.value << ", old "
        << old_expected << ", new " << new_expected;
  }
}

TEST_F(ServeTest, CheckpointModelServesTrainButRefusesClassify) {
  WtaNetwork net(small_config(11));
  robust::TrainingCheckpoint cp = robust::TrainingCheckpoint::capture(net);
  const std::string path = temp_path("pss_serve_ckpt_model.bin");
  robust::save_checkpoint(path, cp);

  serve::ServeServer server(base_options(path));
  serve::ServeClient client(server.port());
  const serve::Response refused = client.classify(test_image(0));
  EXPECT_EQ(refused.status, serve::Status::kError);
  EXPECT_NE(refused.message.find("labels"), std::string::npos);

  serve::Request train;
  train.verb = serve::Verb::kTrain;
  train.id = 9;
  train.body = test_image(0);
  const serve::Response trained = client.call(train);
  EXPECT_EQ(trained.status, serve::Status::kOk) << trained.message;
  // Online learning published a new model generation.
  EXPECT_GE(server.model_generation(), 2u);
}

TEST_F(ServeTest, OversizedFrameDropsConnectionNotServer) {
  const std::string model = write_model("pss_serve_frame.bin", 7);
  serve::ServeServer server(base_options(model));

  const int fd = serve::net::connect_loopback(server.port(), 2000);
  // Hand-crafted frame prefix claiming ~2 GiB: the server must refuse to
  // allocate and drop the connection.
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_TRUE(serve::net::write_all(fd, huge, sizeof huge, 1000));
  std::uint8_t sink = 0;
  // Server closes without a response.
  EXPECT_LE(serve::net::read_some(fd, &sink, 1, 3000), 0);
  serve::net::close_fd(fd);

  // The daemon survived and still serves.
  serve::ServeClient client(server.port());
  EXPECT_EQ(client.ping().status, serve::Status::kOk);
}

// ------------------------------------------------------- stacked models

/// A labelled stacked (conv→wta) model whose raw input is 8×8 = kChannels
/// pixels, so the existing test_image frames drive it unchanged.
std::string write_stacked_model(const std::string& name, std::uint64_t seed) {
  graph::GraphConfig cfg = graph::graph_config_from_spec(
      "conv:filters=4,kernel=3;wta:neurons=" + std::to_string(kNeurons),
      small_config(seed));
  cfg.input = graph::LayerShape{1, 8, 8};
  graph::NetworkGraph net(cfg);
  net.set_neuron_labels(test_labels());
  const std::string path = temp_path(name);
  graph::save_graph_model(path, graph::GraphModel::capture(net));
  return path;
}

TEST_F(ServeTest, StackedModelServesAndMatchesDirectReplay) {
  const std::string model = write_stacked_model("pss_serve_stack.bin", 7);
  serve::ServeServer server(base_options(model));
  serve::ServeClient client(server.port());

  constexpr std::size_t kCount = 4;
  for (std::size_t i = 0; i < kCount; ++i) {
    const serve::Response r = client.classify(test_image(i));
    ASSERT_EQ(r.status, serve::Status::kOk) << r.message;
    // Admission seq i replayed through the full conv→wta stack must agree
    // with the daemon exactly — the purity contract extends to deep models.
    EXPECT_EQ(r.value, expected_prediction(model, test_image(i), i))
        << "request " << i;
  }
}

TEST_F(ServeTest, HotReloadSwapsSingleLayerForStackedModel) {
  const std::string single = write_model("pss_serve_stack_single.bin", 7);
  const std::string stacked =
      write_stacked_model("pss_serve_stack_deep.bin", 1234);
  const std::string live = temp_path("pss_serve_stack_live.bin");
  std::filesystem::copy_file(
      single, live, std::filesystem::copy_options::overwrite_existing);

  serve::ServeServer server(base_options(live));
  serve::ServeClient client(server.port());
  const serve::Response before = client.classify(test_image(0));
  ASSERT_EQ(before.status, serve::Status::kOk) << before.message;
  EXPECT_EQ(before.value, expected_prediction(single, test_image(0), 0));

  // Swap the live file for a stacked model: same raw input size, deeper
  // architecture — reload must publish it atomically.
  std::filesystem::copy_file(
      stacked, live, std::filesystem::copy_options::overwrite_existing);
  const serve::Response reloaded = client.reload();
  ASSERT_EQ(reloaded.status, serve::Status::kOk) << reloaded.message;
  EXPECT_EQ(reloaded.value, 2);  // generation bumped

  const serve::Response after = client.classify(test_image(1));
  ASSERT_EQ(after.status, serve::Status::kOk) << after.message;
  EXPECT_EQ(after.value, expected_prediction(stacked, test_image(1), 1));
}

TEST_F(ServeTest, StackedCheckpointServesTrainAndClassify) {
  // A labelled stacked checkpoint (v2) loads through the same unified
  // reader: classify works (labels present) and train refines the last
  // block, publishing a new generation.
  graph::GraphConfig cfg = graph::graph_config_from_spec(
      "conv:filters=4,kernel=3;wta:neurons=" + std::to_string(kNeurons),
      small_config(21));
  cfg.input = graph::LayerShape{1, 8, 8};
  graph::NetworkGraph net(cfg);
  net.set_neuron_labels(test_labels());
  robust::StackedCheckpoint cp;
  cp.base = robust::TrainingCheckpoint::capture(net.block(0));
  cp.arch = graph::canonical_layers_spec(net.config());
  cp.input_channels = 1;
  cp.input_height = 8;
  cp.input_width = 8;
  cp.labels.assign(net.neuron_labels().begin(), net.neuron_labels().end());
  const std::string path = temp_path("pss_serve_stack_ckpt.bin");
  robust::save_stacked_checkpoint(path, cp);

  serve::ServeServer server(base_options(path));
  serve::ServeClient client(server.port());
  const serve::Response classified = client.classify(test_image(0));
  ASSERT_EQ(classified.status, serve::Status::kOk) << classified.message;

  serve::Request train;
  train.verb = serve::Verb::kTrain;
  train.id = 42;
  train.body = test_image(1);
  const serve::Response trained = client.call(train);
  EXPECT_EQ(trained.status, serve::Status::kOk) << trained.message;
  EXPECT_GE(server.model_generation(), 2u);
}

/// Sequential round trips on one connection are not held back by Nagle's
/// algorithm: each frame leaves in one send() on a TCP_NODELAY socket.
/// Split prefix/payload writes stalled every round trip on the peer's
/// delayed ACK (~40 ms each, seconds for the loop below).
TEST_F(ServeTest, SequentialPingsAreNotDelayedByNagle) {
  const std::string model = write_model("pss_serve_nagle.bin", 7);
  serve::ServeServer server(base_options(model));
  serve::ServeClient client(server.port());
  const std::uint64_t start = obs::monotonic_ns();
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(client.ping().status, serve::Status::kOk) << i;
  }
  const double seconds =
      static_cast<double>(obs::monotonic_ns() - start) / 1e9;
  EXPECT_LT(seconds, 1.0) << "50 sequential pings took " << seconds << " s";
}

TEST_F(ServeTest, ShutdownVerbStopsTheServerGracefully) {
  const std::string model = write_model("pss_serve_shutdown.bin", 7);
  serve::ServeServer server(base_options(model));
  serve::ServeClient client(server.port());
  ASSERT_EQ(client.classify(test_image(0)).status, serve::Status::kOk);
  EXPECT_EQ(client.shutdown_server().status, serve::Status::kOk);
  server.wait();  // returns because the verb requested shutdown
  server.stop();
  EXPECT_TRUE(server.stopping());
}

}  // namespace
}  // namespace pss
