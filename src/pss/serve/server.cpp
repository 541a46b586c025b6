#include "pss/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "pss/common/error.hpp"
#include "pss/engine/launch.hpp"
#include "pss/obs/metrics.hpp"
#include "pss/obs/trace.hpp"
#include "pss/robust/fault_injection.hpp"
#include "pss/serve/net.hpp"

namespace pss::serve {

namespace {

/// Hot-path metric handles, resolved once (registration takes a lock).
struct ServeMetrics {
  obs::Counter& admitted;
  obs::Counter& completed;
  obs::Counter& shed;
  obs::Counter& expired;
  obs::Counter& requeue;
  obs::Counter& faults;
  obs::Counter& worker_restarts;
  obs::Counter& reloads;
  obs::Counter& batches;
  obs::FixedHistogram& latency;
  obs::FixedHistogram& batch_size;
};

ServeMetrics& serve_metrics() {
  static ServeMetrics m{
      obs::metrics().counter("serve.admitted"),
      obs::metrics().counter("serve.completed"),
      obs::metrics().counter("serve.shed"),
      obs::metrics().counter("serve.expired"),
      obs::metrics().counter("serve.requeue"),
      obs::metrics().counter("serve.faults"),
      obs::metrics().counter("serve.worker_restarts"),
      obs::metrics().counter("serve.reloads"),
      obs::metrics().counter("serve.batches"),
      obs::metrics().histogram("serve.latency_seconds",
                               {0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                                0.5, 1.0, 2.5, 5.0, 10.0}),
      obs::metrics().histogram("serve.batch_size",
                               {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}),
  };
  return m;
}

std::uint64_t ms_to_ns(std::uint64_t ms) { return ms * 1000000ull; }

}  // namespace

ServeServer::ServeServer(ServeOptions options)
    : options_(std::move(options)),
      frequency_map_(options_.f_min_hz, options_.f_max_hz),
      queue_(std::make_unique<RequestQueue>(options_.queue_capacity)) {
  PSS_REQUIRE(net::available(), "pss_serve requires socket support");
  PSS_REQUIRE(options_.workers > 0, "serve: need at least one worker");
  PSS_REQUIRE(options_.max_batch > 0, "serve: max_batch must be positive");
  install_model(load_model(options_.model_path, options_.base_config));
  listen_fd_ = net::listen_loopback(options_.port, 64, port_);

  slots_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
  for (std::size_t i = 0; i < options_.workers; ++i) {
    slots_[i]->last_beat_ns.store(obs::monotonic_ns(),
                                  std::memory_order_release);
    slots_[i]->thread = std::thread(&ServeServer::worker_loop, this, i);
  }
  monitor_ = std::thread(&ServeServer::monitor_loop, this);
  acceptor_ = std::thread(&ServeServer::acceptor_loop, this);
}

ServeServer::~ServeServer() { stop(); }

std::shared_ptr<const ModelBundle> ServeServer::current_model() const {
  const std::lock_guard<std::mutex> lock(model_mutex_);
  return model_;
}

void ServeServer::install_model(ModelBundle bundle) {
  const std::lock_guard<std::mutex> lock(model_mutex_);
  bundle.generation = generation_.load(std::memory_order_relaxed) + 1;
  input_units_.store(bundle.input_units, std::memory_order_release);
  model_ = std::make_shared<const ModelBundle>(std::move(bundle));
  generation_.store(model_->generation, std::memory_order_release);
}

void ServeServer::reload() {
  ModelBundle bundle = load_model(options_.model_path, options_.base_config);
  PSS_REQUIRE(bundle.input_units ==
                  input_units_.load(std::memory_order_acquire),
              "serve: reload rejected — input geometry changed");
  install_model(std::move(bundle));
  serve_metrics().reloads.add(1);
}

void ServeServer::absorb_training(const graph::NetworkGraph& replica) {
  const std::lock_guard<std::mutex> lock(model_mutex_);
  ModelBundle updated = *model_;
  for (std::size_t b = 0; b < replica.block_count(); ++b) {
    const WtaNetwork& block = replica.block(b);
    updated.model.blocks[b].conductance = block.conductance().to_vector();
    updated.model.blocks[b].theta.assign(block.theta().begin(),
                                         block.theta().end());
  }
  updated.generation = generation_.load(std::memory_order_relaxed) + 1;
  model_ = std::make_shared<const ModelBundle>(std::move(updated));
  generation_.store(model_->generation, std::memory_order_release);
}

void ServeServer::wait() {
  std::unique_lock<std::mutex> lock(wait_mutex_);
  wait_cv_.wait(lock,
                [&] { return stopping_.load(std::memory_order_acquire); });
}

void ServeServer::request_shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  queue_->shutdown();
  wait_cv_.notify_all();
}

std::string ServeServer::stats_text() const {
  const ServeMetrics& m = serve_metrics();
  std::string text;
  text += "generation=" + std::to_string(model_generation());
  text += " depth=" + std::to_string(queue_->depth());
  text += " admitted=" + std::to_string(m.admitted.value());
  text += " completed=" + std::to_string(m.completed.value());
  text += " shed=" + std::to_string(m.shed.value());
  text += " expired=" + std::to_string(m.expired.value());
  text += " requeue=" + std::to_string(m.requeue.value());
  text += " faults=" + std::to_string(m.faults.value());
  text += " worker_restarts=" + std::to_string(m.worker_restarts.value());
  text += " reloads=" + std::to_string(m.reloads.value());
  return text;
}

Response ServeServer::execute(graph::NetworkGraph& replica,
                              const ModelBundle& bundle,
                              const PendingRequest& pending) {
  obs::TraceSpan span("serve.present", "serve",
                      static_cast<std::int64_t>(pending.seq));
  // The admission sequence number is the presentation index — a requeued
  // request re-executed on any replica replays bit for bit (the graph's
  // front-end encoder packs index·kMaxFrames into 32 bits, hence the wrap).
  replica.set_presentation_index(pending.seq &
                                 (0xffffffffull /
                                  graph::NetworkGraph::kMaxFrames));
  const bool learn = pending.request.verb == Verb::kTrain;
  // Online training refines the readout block; the frozen front-end and
  // earlier blocks are exactly the layer-wise schedule's inference path.
  const int learn_block =
      learn ? static_cast<int>(replica.block_count()) - 1 : -1;
  const graph::GraphResult result =
      replica.present(pending.rates_hz, options_.t_present_ms, learn_block);
  if (learn) {
    return {Status::kOk, pending.request.id, result.winner(), "trained"};
  }
  const int predicted = predict_from_counts(
      result.spike_counts, bundle.neuron_labels, bundle.class_count);
  return {Status::kOk, pending.request.id, predicted, ""};
}

void ServeServer::worker_loop(std::size_t slot_index) {
  WorkerSlot& slot = *slots_[slot_index];
  const std::uint64_t window_ns = ms_to_ns(options_.window_ms);
  const auto beat = [&slot] {
    slot.last_beat_ns.store(obs::monotonic_ns(), std::memory_order_release);
  };
  const auto erase_one = [&slot](const PendingPtr& request) {
    const std::lock_guard<std::mutex> lock(slot.inflight_mutex);
    slot.inflight.erase(
        std::remove(slot.inflight.begin(), slot.inflight.end(), request),
        slot.inflight.end());
  };
  const auto requeue_with_backoff = [this](const PendingPtr& request) {
    const double delay_ms = options_.backoff.delay_ms(
        request->seq, request->attempts.load(std::memory_order_relaxed));
    // Counter first: once the request is back in the queue another worker
    // can answer it, and the client must never observe a response whose
    // requeue has not been counted yet.
    serve_metrics().requeue.add(1);
    queue_->requeue(request, obs::monotonic_ns() +
                                 static_cast<std::uint64_t>(delay_ms * 1e6));
  };

  try {
    Engine engine(1);  // serial: parallelism is across requests, not inside
    std::shared_ptr<const ModelBundle> bundle;
    std::optional<graph::NetworkGraph> replica;

    for (;;) {
      beat();
      std::vector<PendingPtr> batch =
          queue_->next_batch(options_.max_batch, window_ns);
      if (batch.empty()) return;  // shutdown + drained
      beat();
      serve_metrics().batches.add(1);
      serve_metrics().batch_size.observe(static_cast<double>(batch.size()));
      {
        const std::lock_guard<std::mutex> lock(slot.inflight_mutex);
        slot.inflight.insert(slot.inflight.end(), batch.begin(), batch.end());
      }
      // Torn-free hot reload: the generation is only consulted between
      // batches, so every presentation inside a batch runs on one model.
      if (!bundle || bundle->generation !=
                         generation_.load(std::memory_order_acquire)) {
        bundle = current_model();
        replica = instantiate(*bundle, &engine);
      }

      for (const PendingPtr& request : batch) {
        beat();
        if (request->completed()) {  // duplicate after a stale-beat requeue
          erase_one(request);
          continue;
        }
        const std::uint64_t now = obs::monotonic_ns();
        if (request->deadline_ns <= now) {
          request->complete({Status::kDeadlineExceeded, request->request.id,
                             0, "deadline expired before execution"},
                            [] { serve_metrics().expired.add(1); });
          erase_one(request);
          continue;
        }
        try {
          robust::fault_point("serve.worker");
          Response response = execute(*replica, *bundle, *request);
          const bool trained = request->request.verb == Verb::kTrain &&
                               response.status == Status::kOk;
          // The won claim gates absorb_training: after a stale-heartbeat
          // requeue a straggler duplicate can reach here with the request
          // already answered — absorbing its STDP update again would apply
          // the same example twice and break bit-for-bit replay. The
          // absorb runs inside on_win, before the reply is pushed, so a
          // client that sees a train reply always sees its new generation.
          // Concurrent trains are last-write-wins (documented).
          const bool won = request->complete(std::move(response), [&] {
            if (trained) absorb_training(*replica);
            serve_metrics().completed.add(1);
            serve_metrics().latency.observe(
                static_cast<double>(obs::monotonic_ns() -
                                    request->admitted_ns) /
                1e9);
          });
          erase_one(request);
          // Other workers resync between batches; this one moves to the
          // model it just published.
          if (trained && won) bundle = current_model();
        } catch (const TransientError&) {
          // Transient fault: this worker survives; the request retries on
          // any worker after a deterministic backoff. Its deadline is the
          // retry cap — a request that keeps faulting eventually expires.
          serve_metrics().faults.add(1);
          erase_one(request);
          requeue_with_backoff(request);
        }
      }
    }
  } catch (const std::exception&) {
    // Fatal fault — simulate a crash: leave the inflight list as-is and die.
    // The heartbeat monitor joins us, requeues the orphans, and restarts
    // the slot.
    serve_metrics().faults.add(1);
    slot.dead.store(true, std::memory_order_release);
  }
}

void ServeServer::drain_and_requeue(WorkerSlot& slot) {
  std::vector<PendingPtr> orphans;
  {
    const std::lock_guard<std::mutex> lock(slot.inflight_mutex);
    orphans.swap(slot.inflight);
  }
  const std::uint64_t now = obs::monotonic_ns();
  for (const PendingPtr& request : orphans) {
    if (request->completed()) continue;
    const double delay_ms = options_.backoff.delay_ms(
        request->seq, request->attempts.load(std::memory_order_relaxed));
    serve_metrics().requeue.add(1);  // before the queue can hand it out
    queue_->requeue(request,
                    now + static_cast<std::uint64_t>(delay_ms * 1e6));
  }
}

void ServeServer::monitor_loop() {
  const std::uint64_t timeout_ns = ms_to_ns(options_.heartbeat_timeout_ms);
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.heartbeat_interval_ms));
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      WorkerSlot& slot = *slots_[i];
      if (slot.retired) continue;
      if (slot.dead.load(std::memory_order_acquire)) {
        // The thread exited after a fatal fault; its inflight requests are
        // orphaned until we recover them here.
        if (slot.thread.joinable()) slot.thread.join();
        drain_and_requeue(slot);
        serve_metrics().worker_restarts.add(1);
        if (slot.restarts++ >= options_.max_worker_restarts) {
          slot.retired = true;  // capped — slot stays down
          continue;
        }
        slot.dead.store(false, std::memory_order_release);
        slot.last_beat_ns.store(obs::monotonic_ns(),
                                std::memory_order_release);
        slot.thread = std::thread(&ServeServer::worker_loop, this, i);
      } else {
        // Missed-heartbeat path: a worker holding inflight work that has
        // not beaten within the timeout is presumed hung. Requeue its work
        // (once-only completion makes a late answer harmless) but leave the
        // thread alone — it may still come back.
        bool busy = false;
        {
          const std::lock_guard<std::mutex> lock(slot.inflight_mutex);
          busy = !slot.inflight.empty();
        }
        const std::uint64_t beat =
            slot.last_beat_ns.load(std::memory_order_acquire);
        if (busy && obs::monotonic_ns() - beat > timeout_ns) {
          drain_and_requeue(slot);
        }
      }
    }
  }
}

Response ServeServer::handle_inline_or_admit(
    const Request& request, const std::shared_ptr<Outbox>& outbox,
    bool& answered_inline) {
  answered_inline = true;
  switch (request.verb) {
    case Verb::kPing:
      return {Status::kOk, request.id, 0, "pong"};
    case Verb::kStats:
      return {Status::kOk, request.id,
              static_cast<std::int64_t>(queue_->depth()), stats_text()};
    case Verb::kReload:
      try {
        reload();
        return {Status::kOk, request.id,
                static_cast<std::int64_t>(model_generation()), "reloaded"};
      } catch (const std::exception& e) {
        return {Status::kError, request.id, 0, e.what()};
      }
    case Verb::kShutdown:
      return {Status::kOk, request.id, 0, "shutting down"};
    case Verb::kClassify:
    case Verb::kTrain: {
      const std::size_t channels =
          input_units_.load(std::memory_order_acquire);
      if (request.body.size() != channels) {
        return {Status::kError, request.id, 0,
                "body must carry " + std::to_string(channels) +
                    " pixels, got " + std::to_string(request.body.size())};
      }
      if (request.verb == Verb::kClassify && !current_model()->can_classify()) {
        return {Status::kError, request.id, 0,
                "model has no neuron labels (loaded from a training "
                "checkpoint) — classify unavailable"};
      }
      auto pending = std::make_shared<PendingRequest>();
      pending->request = request;
      frequency_map_.frequencies(pending->request.body, pending->rates_hz);
      const std::uint32_t budget_ms = request.deadline_ms != 0
                                          ? request.deadline_ms
                                          : options_.default_deadline_ms;
      pending->deadline_ns = obs::monotonic_ns() + ms_to_ns(budget_ms);
      pending->outbox = outbox;
      if (queue_->admit(pending)) {
        serve_metrics().admitted.add(1);
        answered_inline = false;  // a worker will answer via the outbox
        return {};
      }
      serve_metrics().shed.add(1);
      return {Status::kOverloaded, request.id, 0, "admission queue full"};
    }
  }
  return {Status::kError, request.id, 0, "unreachable verb"};
}

void ServeServer::connection_loop(Connection* connection) {
  // Writer: drains the outbox until it is closed and empty. Responses
  // arrive from workers (queued verbs) and from the reader (inline verbs).
  std::thread writer([this, connection] {
    Response response;
    while (connection->outbox->pop(response)) {
      const std::vector<std::uint8_t> bytes = encode_response(response);
      if (!net::write_frame(connection->fd, bytes,
                            static_cast<int>(options_.io_timeout_ms))) {
        break;  // stalled or vanished client; stop delivering
      }
    }
  });

  std::vector<std::uint8_t> payload;
  for (;;) {
    if (!net::read_frame(connection->fd, payload, kMaxFrameBytes,
                         static_cast<int>(options_.io_timeout_ms))) {
      break;  // EOF, oversized frame, read deadline, or shutdown_read
    }
    Request request;
    try {
      request = decode_request(payload);
    } catch (const std::exception& e) {
      connection->outbox->push({Status::kError, 0, 0, e.what()});
      break;  // protocol error: answer, then drop the connection
    }
    bool answered_inline = false;
    Response response =
        handle_inline_or_admit(request, connection->outbox, answered_inline);
    if (answered_inline) connection->outbox->push(std::move(response));
    if (request.verb == Verb::kShutdown) {
      request_shutdown();
      break;
    }
  }
  connection->outbox->close();
  writer.join();
  // The fd stays open here; the reaper/stop() is its single owner (closing
  // it from this thread would race stop()'s shutdown_read on a reused fd).
  connection->finished.store(true, std::memory_order_release);
}

void ServeServer::acceptor_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = net::accept_connection(listen_fd_, 100);
    // Reap finished connections so a long-lived daemon does not accumulate
    // joinable threads.
    {
      const std::lock_guard<std::mutex> lock(conn_mutex_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if (it->finished.load(std::memory_order_acquire)) {
          it->thread.join();
          net::close_fd(it->fd);
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (fd < 0) continue;
    if (stopping_.load(std::memory_order_acquire)) {
      net::shutdown_and_close(fd);
      return;
    }
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    Connection& connection = connections_.emplace_back();
    connection.fd = fd;
    connection.outbox = std::make_shared<Outbox>();
    connection.thread =
        std::thread(&ServeServer::connection_loop, this, &connection);
  }
}

void ServeServer::stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  request_shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  if (monitor_.joinable()) monitor_.join();
  for (const auto& slot : slots_) {
    if (slot->thread.joinable()) slot->thread.join();
  }
  // Safety net: answer anything still queued or orphaned (possible when
  // every worker slot died past its restart cap).
  for (;;) {
    const std::vector<PendingPtr> leftovers =
        queue_->next_batch(options_.max_batch, 0);
    if (leftovers.empty()) break;
    for (const PendingPtr& request : leftovers) {
      request->complete(
          {Status::kError, request->request.id, 0, "server stopped"});
    }
  }
  for (const auto& slot : slots_) {
    std::vector<PendingPtr> orphans;
    {
      const std::lock_guard<std::mutex> lock(slot->inflight_mutex);
      orphans.swap(slot->inflight);
    }
    for (const PendingPtr& request : orphans) {
      request->complete(
          {Status::kError, request->request.id, 0, "server stopped"});
    }
  }
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (Connection& connection : connections_) {
      net::shutdown_read(connection.fd);  // unblock the reader promptly
    }
  }
  for (;;) {
    Connection* connection = nullptr;
    {
      const std::lock_guard<std::mutex> lock(conn_mutex_);
      if (connections_.empty()) break;
      connection = &connections_.front();
    }
    if (connection->thread.joinable()) connection->thread.join();
    net::close_fd(connection->fd);
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.pop_front();
  }
  net::shutdown_and_close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace pss::serve
