// The futures-based submission surface of QueryEngine: per-request
// completion, sink ownership and delivery order, callback overloads, and
// identity between the async path and the synchronous wrappers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "engine/engine.h"
#include "test_util.h"

namespace touch {
namespace {

std::vector<IdPair> DistanceOracle(const Dataset& a, const Dataset& b,
                                   float epsilon) {
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(epsilon);
  return OracleJoin(enlarged, b);
}

/// What a RecordingSink saw, owned by the test: the engine destroys the
/// sink itself once the request completes, so observations must outlive it.
struct SinkLog {
  std::vector<IdPair> pairs;
  int completions = 0;
  JoinResult last_result;

  std::vector<IdPair> SortedPairs() const {
    std::vector<IdPair> sorted = pairs;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }
};

/// Materializes pairs and records completion into a test-owned SinkLog, for
/// inspecting the engine's sink protocol after the sink itself is gone.
class RecordingSink : public ResultSink {
 public:
  explicit RecordingSink(SinkLog* log) : log_(*log) {}
  void Emit(uint32_t a_id, uint32_t b_id) override {
    log_.pairs.emplace_back(a_id, b_id);
  }
  void OnComplete(const JoinResult& result) override {
    ++log_.completions;
    log_.last_result = result;
  }

 private:
  SinkLog& log_;
};

class QueryEngineAsyncTest : public ::testing::Test {
 protected:
  Dataset small_ = GenerateSynthetic(Distribution::kClustered, 4000, 51);
  Dataset large_ = GenerateSynthetic(Distribution::kClustered, 8000, 52);
};

TEST_F(QueryEngineAsyncTest, SubmitFutureDeliversSameResultAsExecute) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const JoinRequest request{a, b, 2.0f};

  SinkLog log;
  RequestHandle handle =
      engine.Submit(request, std::make_unique<RecordingSink>(&log));
  const JoinResult async_result = handle.Get();
  ASSERT_TRUE(async_result.error.empty());
  EXPECT_TRUE(async_result.ok());
  EXPECT_EQ(handle.phase(), RequestPhase::kCompleted);

  VectorCollector sync;
  const JoinResult sync_result = engine.Execute(request, sync);
  ASSERT_TRUE(sync_result.error.empty());

  // Async and sync paths are the same execution core: identical pairs,
  // identical plan, identical result counts.
  std::vector<IdPair> sync_pairs = sync.pairs();
  std::sort(sync_pairs.begin(), sync_pairs.end());
  EXPECT_EQ(log.SortedPairs(), sync_pairs);
  EXPECT_EQ(log.SortedPairs(), DistanceOracle(small_, large_, 2.0f));
  EXPECT_EQ(async_result.plan.algorithm, sync_result.plan.algorithm);
  EXPECT_EQ(async_result.stats.results, sync_result.stats.results);

  // The sink saw OnComplete exactly once, before the future completed.
  EXPECT_EQ(log.completions, 1);
  EXPECT_EQ(log.last_result.stats.results, async_result.stats.results);
}

TEST_F(QueryEngineAsyncTest, SlowRequestDoesNotBlockAFastOnesFuture) {
  EngineOptions options;
  options.threads = 2;  // the blocked request must not starve the fast one
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  // A sink that parks its request in OnComplete until released — a
  // deterministic "slow request", no timing assumptions.
  class BlockingSink : public ResultSink {
   public:
    explicit BlockingSink(std::shared_future<void> release)
        : release_(std::move(release)) {}
    void OnComplete(const JoinResult&) override { release_.wait(); }

   private:
    std::shared_future<void> release_;
  };

  std::promise<void> release;
  RequestHandle slow = engine.Submit(
      {a, b, 2.0f},
      std::make_unique<BlockingSink>(release.get_future().share()));

  // The fast request completes while the slow one is still parked.
  RequestHandle fast = engine.Submit({a, a, 0.5f});
  EXPECT_EQ(fast.future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_TRUE(fast.Get().error.empty());
  EXPECT_EQ(slow.future().wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);

  release.set_value();
  EXPECT_TRUE(slow.Get().error.empty());
}

TEST_F(QueryEngineAsyncTest, CallbackOverloadRunsAfterSinkCompletion) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  SinkLog log;
  std::promise<uint64_t> delivered;
  engine.Submit({a, b, 2.0f}, std::make_unique<RecordingSink>(&log),
                [&delivered, &log](const JoinResult& result) {
                  // The sink's OnComplete already ran when the callback fires.
                  EXPECT_EQ(log.completions, 1);
                  delivered.set_value(result.stats.results);
                });
  const uint64_t results = delivered.get_future().get();
  EXPECT_EQ(results, DistanceOracle(small_, large_, 2.0f).size());
}

TEST_F(QueryEngineAsyncTest, SubmitBatchFuturesAreIndexAligned) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const std::vector<JoinRequest> requests = {
      {a, b, 2.0f}, {b, a, 1.0f}, {a, a, 0.5f}, {a, b, 2.0f}};

  std::vector<SinkLog> logs(requests.size());
  BatchHandle batch = engine.SubmitBatch(
      requests,
      [&logs](size_t i) { return std::make_unique<RecordingSink>(&logs[i]); });
  ASSERT_EQ(batch.size(), requests.size());

  QueryEngine reference;
  const DatasetHandle ra = reference.RegisterDataset("small", small_);
  const DatasetHandle rb = reference.RegisterDataset("large", large_);
  const std::vector<JoinRequest> reference_requests = {
      {ra, rb, 2.0f}, {rb, ra, 1.0f}, {ra, ra, 0.5f}, {ra, rb, 2.0f}};
  for (size_t i = 0; i < requests.size(); ++i) {
    const JoinResult result = batch[i].Get();
    ASSERT_TRUE(result.error.empty()) << i;
    CountingCollector expected;
    reference.Execute(reference_requests[i], expected);
    EXPECT_EQ(result.stats.results, expected.count()) << i;
  }
}

TEST_F(QueryEngineAsyncTest, ExecuteBatchOnSubmitKeepsObservableBehavior) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const std::vector<JoinRequest> requests = {
      {a, b, 2.0f}, {b, a, 1.0f}, {a, a, 0.5f}, {a, b, 2.0f}};

  const std::vector<JoinResult> batch = engine.ExecuteBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batch[i].error.empty()) << i;
    CountingCollector expected;
    engine.Execute(requests[i], expected);
    EXPECT_EQ(batch[i].stats.results, expected.count()) << i;
  }
  // The duplicated request shares one index with its twin.
  EXPECT_GE(engine.cache_stats().hits, 1u);
}

TEST_F(QueryEngineAsyncTest, FailedRequestCompletesSinkFutureAndCallback) {
  QueryEngine engine;  // empty catalog: every handle is invalid
  SinkLog log;
  std::atomic<bool> callback_ran{false};
  std::promise<void> done;
  engine.Submit({0, 1, 1.0f}, std::make_unique<RecordingSink>(&log),
                [&](const JoinResult& result) {
                  callback_ran = !result.error.empty();
                  done.set_value();
                });
  done.get_future().wait();
  EXPECT_TRUE(callback_ran);
  EXPECT_EQ(log.completions, 1);
  EXPECT_FALSE(log.last_result.error.empty());
  EXPECT_TRUE(log.pairs.empty());
}

}  // namespace
}  // namespace touch
