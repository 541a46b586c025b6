// Tests for the GPU-substitute execution engine.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "pss/common/error.hpp"
#include "pss/common/rng.hpp"
#include "pss/engine/batch_runner.hpp"
#include "pss/engine/device_vector.hpp"
#include "pss/engine/launch.hpp"
#include "pss/engine/thread_pool.hpp"

namespace pss {
namespace {

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesEmptyRange) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, HandlesRangeSmallerThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyLaunches) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 100; ++round) {
    pool.parallel_for(64, [&](std::size_t b, std::size_t e) {
      total += static_cast<long>(e - b);
    });
  }
  EXPECT_EQ(total.load(), 6400);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  int sum = 0;
  pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, RawRangeFnForm) {
  // The non-owning dispatch primitive the template adapters build on.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  const ThreadPool::RangeFn fn = [](void* ctx, std::size_t b, std::size_t e) {
    auto* h = static_cast<std::vector<std::atomic<int>>*>(ctx);
    for (std::size_t i = b; i < e; ++i) (*h)[i]++;
  };
  pool.parallel_for(100, fn, &hits);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ShardsPartitionRangeWithStableIds) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  std::vector<std::atomic<int>> shard_of(1000);
  pool.parallel_shards(1000, [&](std::size_t shard, std::size_t b,
                                 std::size_t e) {
    EXPECT_LT(shard, pool.worker_count());
    for (std::size_t i = b; i < e; ++i) {
      hits[i]++;
      shard_of[i] = static_cast<int>(shard);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Contiguous ranges: shard ids must be non-decreasing over the index space.
  for (std::size_t i = 1; i < 1000; ++i) {
    EXPECT_LE(shard_of[i - 1].load(), shard_of[i].load());
  }
}

TEST(Engine, LaunchVisitsEachThreadIndex) {
  Engine engine(4);
  std::vector<std::atomic<int>> hits(257);
  engine.launch(257, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Engine, ResultsIndependentOfWorkerCount) {
  // The reproducibility contract: counter-based draws + data-parallel
  // kernels => identical results for any worker count.
  auto run = [](std::size_t workers) {
    Engine engine(workers);
    CounterRng rng(77, 3);
    device_vector<double> out(512);
    auto span = out.span();
    engine.launch(512, [&](std::size_t i) { span[i] = rng.uniform(i); });
    return out.download();
  };
  const auto one = run(1);
  const auto four = run(4);
  const auto seven = run(7);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, seven);
}

TEST(Engine, GrainCutoffRunsSmallLaunchesInline) {
  Engine engine(4);
  EXPECT_EQ(engine.grain(), Engine::kDefaultGrain);
  std::atomic<int> n{0};
  engine.launch(100, [&](std::size_t) { n++; });  // 100 <= grain -> inline
  EXPECT_EQ(n.load(), 100);
  EXPECT_EQ(engine.launch_count(), 1u);
  EXPECT_EQ(engine.dispatch_count(), 0u);

  engine.launch(Engine::kDefaultGrain + 1, [](std::size_t) {});
  EXPECT_EQ(engine.launch_count(), 2u);
  EXPECT_EQ(engine.dispatch_count(), 1u);

  engine.set_grain(0);  // force dispatch regardless of size
  engine.launch(100, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 200);
  EXPECT_EQ(engine.dispatch_count(), 2u);
}

TEST(Engine, SerialEngineNeverDispatches) {
  Engine engine(1);
  engine.set_grain(0);
  std::atomic<int> n{0};
  engine.launch(5000, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 5000);
  EXPECT_EQ(engine.launch_count(), 1u);
  EXPECT_EQ(engine.dispatch_count(), 0u);
}

TEST(BatchRunner, VisitsEveryIndexOnceWithValidWorkerIds) {
  BatchRunner runner(4);
  EXPECT_EQ(runner.worker_count(), 4u);
  std::vector<std::atomic<int>> hits(333);
  runner.run(333, [&](std::size_t worker, std::size_t i) {
    EXPECT_LT(worker, runner.worker_count());
    hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(BatchRunner, WorkerEnginesAreSerialAndDistinct) {
  BatchRunner runner(3);
  for (std::size_t w = 0; w < runner.worker_count(); ++w) {
    EXPECT_EQ(runner.worker_engine(w).worker_count(), 1u);
    for (std::size_t v = w + 1; v < runner.worker_count(); ++v) {
      EXPECT_NE(&runner.worker_engine(w), &runner.worker_engine(v));
    }
  }
  EXPECT_THROW(runner.worker_engine(3), Error);
}

TEST(BatchRunner, PerWorkerBuildsLazilyOncePerWorker) {
  BatchRunner runner(4);
  PerWorker<int> state(runner.worker_count());
  std::atomic<int> builds{0};
  std::atomic<long> total{0};
  runner.run(100, [&](std::size_t w, std::size_t i) {
    int& slot = state.get(w, [&] {
      builds++;
      return 1000 * static_cast<int>(w);
    });
    total += slot + static_cast<long>(i);
  });
  // At most one construction per worker, and only for workers that ran.
  EXPECT_LE(builds.load(), 4);
  EXPECT_GE(builds.load(), 1);
  std::size_t used = 0;
  for (std::size_t w = 0; w < state.size(); ++w) {
    if (state.slot(w)) ++used;
  }
  EXPECT_EQ(static_cast<int>(used), builds.load());
}

TEST(DeviceVector, UploadDownloadRoundTrip) {
  device_vector<int> v(4);
  const std::vector<int> host = {1, 2, 3, 4};
  v.upload(host);
  EXPECT_EQ(v.download(), host);
}

TEST(DeviceVector, UploadRejectsSizeMismatch) {
  device_vector<int> v(4);
  const std::vector<int> wrong = {1, 2};
  EXPECT_THROW(v.upload(wrong), Error);
}

TEST(DeviceVector, FillSetsEveryElement) {
  device_vector<double> v(10, 1.0);
  v.fill(3.5);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_DOUBLE_EQ(v[i], 3.5);
}

TEST(DeviceVector, ConstructFromHostVector) {
  device_vector<int> v(std::vector<int>{5, 6, 7});
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 7);
}

TEST(DefaultEngine, IsSingletonAndUsable) {
  Engine& a = default_engine();
  Engine& b = default_engine();
  EXPECT_EQ(&a, &b);
  std::atomic<int> n{0};
  a.launch(10, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 10);
}

TEST(DefaultEngine, ConfigureAfterUseThrows) {
  default_engine();  // force creation
  EXPECT_THROW(configure_default_engine(2), Error);
}

}  // namespace
}  // namespace pss
