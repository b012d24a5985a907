// Differential oracle for the dynamic-dataset subsystem: every assertion
// here compares an *incremental* path against a recompute-from-scratch
// reference after randomized mutation batches.
//
//   - DatasetStats maintained across mutations must equal ComputeDatasetStats
//     over the current geometry bit-for-bit (extent min/max is a multiset
//     reduction, extent sums go through ExactSum, histogram counts are
//     integers — nothing is allowed to drift).
//   - A continuous join's folded delta stream (kAdded inserts, kRemoved
//     erases) must equal a full brute-force re-join of the current snapshots.
//   - A sharded engine fed the same mutation stream as an unsharded one must
//     produce the same result pair set in global id space.
//   - Versioned index-cache keys must prevent any post-mutation query from
//     being served by a stale artifact.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "datagen/distributions.h"
#include "datagen/neuro.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "test_util.h"
#include "util/exact_sum.h"
#include "util/rng.h"

namespace touch {
namespace {

// --- shared generators ------------------------------------------------------

Box RandomBox(Rng& rng, float space, float max_side) {
  // Centers may land slightly outside [0, space] so mutations also exercise
  // the out-of-domain routing/clamping paths.
  const Vec3 center(static_cast<float>(rng.Uniform(-0.05, 1.05)) * space,
                    static_cast<float>(rng.Uniform(-0.05, 1.05)) * space,
                    static_cast<float>(rng.Uniform(-0.05, 1.05)) * space);
  const Vec3 half(rng.NextFloat() * max_side * 0.5f,
                  rng.NextFloat() * max_side * 0.5f,
                  rng.NextFloat() * max_side * 0.5f);
  return Box(center - half, center + half);
}

/// Client-side mirror of a mutating dataset: generates deterministic
/// insert/delete/update batches and tracks which ids are live. Inserts use
/// kInvalidObjectId and rely on the catalog's deterministic id assignment
/// (registration count, then +1 per applied insert in stream order).
class MutationFuzzer {
 public:
  MutationFuzzer(uint64_t seed, size_t initial_count, float space)
      : rng_(seed), space_(space) {
    live_.resize(initial_count);
    for (uint32_t i = 0; i < initial_count; ++i) live_[i] = i;
    next_id_ = static_cast<uint32_t>(initial_count);
  }

  std::vector<Mutation> NextBatch(int ops) {
    std::vector<Mutation> batch;
    batch.reserve(ops);
    for (int k = 0; k < ops; ++k) {
      const uint64_t dice = rng_.UniformInt(10);
      if (live_.empty() || dice < 4) {
        batch.push_back(Mutation{MutationKind::kInsert, kInvalidObjectId,
                                 RandomBox(rng_, space_, 6.0f)});
        live_.push_back(next_id_++);
      } else if (dice < 7) {
        const size_t pick = rng_.UniformInt(live_.size());
        batch.push_back(Mutation{MutationKind::kDelete, live_[pick], Box()});
        live_[pick] = live_.back();
        live_.pop_back();
      } else {
        const size_t pick = rng_.UniformInt(live_.size());
        batch.push_back(Mutation{MutationKind::kUpdate, live_[pick],
                                 RandomBox(rng_, space_, 6.0f)});
      }
    }
    return batch;
  }

 private:
  Rng rng_;
  float space_;
  std::vector<uint32_t> live_;
  uint32_t next_id_ = 0;
};

/// Brute-force epsilon join of two snapshots, in stable id space.
std::set<IdPair> BruteForcePairs(const DatasetSnapshot& a,
                                 const DatasetSnapshot& b, float epsilon) {
  std::set<IdPair> pairs;
  for (size_t i = 0; i < a.boxes.size(); ++i) {
    const Box probe = a.boxes[i].Enlarged(epsilon);
    for (size_t j = 0; j < b.boxes.size(); ++j) {
      if (Intersects(probe, b.boxes[j])) {
        pairs.emplace(a.id_of(i), b.id_of(j));
      }
    }
  }
  return pairs;
}

/// Bit-for-bit comparison of incremental vs recomputed stats. Floating
/// fields are compared with ==, not a tolerance: the incremental path is
/// designed to be exactly order-independent (ExactSum for sums, min/max for
/// extents, integer histogram), so any ULP of drift is a bug.
void ExpectStatsBitEqual(const DatasetStats& incremental,
                         const DatasetStats& recomputed,
                         const std::string& context) {
  EXPECT_EQ(incremental.count, recomputed.count) << context;
  EXPECT_EQ(incremental.extent.lo, recomputed.extent.lo) << context;
  EXPECT_EQ(incremental.extent.hi, recomputed.extent.hi) << context;
  EXPECT_EQ(incremental.avg_object_extent, recomputed.avg_object_extent)
      << context;
  EXPECT_EQ(incremental.density, recomputed.density) << context;
  EXPECT_EQ(incremental.histogram_resolution, recomputed.histogram_resolution)
      << context;
  EXPECT_EQ(incremental.histogram, recomputed.histogram) << context;
}

// --- ExactSum sanity --------------------------------------------------------

TEST(ExactSumTest, SubtractExactlyInvertsAddInAnyOrder) {
  Rng rng(7);
  std::vector<float> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back((rng.NextFloat() - 0.5f) * 1e6f);
  }
  ExactSum forward;
  for (float v : values) forward.Add(v);
  // Remove every value in a different order; the sum must return to an
  // exact zero, not an epsilon-ball around it.
  ExactSum drained = forward;
  std::reverse(values.begin(), values.end());
  for (float v : values) drained.Subtract(v);
  EXPECT_TRUE(drained.IsZero());
  EXPECT_EQ(drained.ToDouble(), 0.0);
  EXPECT_EQ(drained, ExactSum());
}

// --- incremental stats vs recompute-from-scratch ----------------------------

struct StatsCase {
  const char* name;
  Dataset (*make)(uint64_t seed);
};

Dataset MakeUniform(uint64_t seed) {
  return GenerateSynthetic(Distribution::kUniform, 1500, seed);
}
Dataset MakeClustered(uint64_t seed) {
  return GenerateSynthetic(Distribution::kClustered, 1500, seed);
}
Dataset MakeNeuro(uint64_t seed) {
  NeuroOptions options;
  options.neurons = 12;
  const NeuroModel model = GenerateNeuroscience(options, seed);
  return CylinderMbrs(model.axons);
}

class DynamicStatsTest : public ::testing::TestWithParam<StatsCase> {};

TEST_P(DynamicStatsTest, IncrementalStatsMatchRecomputeBitForBit) {
  const StatsCase& test_case = GetParam();
  DatasetCatalog catalog;
  const Dataset initial = test_case.make(11);
  const DatasetHandle handle = catalog.Register(test_case.name, initial);

  MutationFuzzer fuzzer(/*seed=*/101, initial.size(), /*space=*/1000.0f);
  for (int batch = 0; batch < 30; ++batch) {
    const std::vector<Mutation> muts = fuzzer.NextBatch(50);
    catalog.ApplyMutations(handle, muts);
    const DatasetSnapshotPtr snap = catalog.snapshot(handle);
    ASSERT_EQ(snap->version, static_cast<uint64_t>(batch + 1));
    const DatasetStats recomputed = ComputeDatasetStats(
        snap->boxes, std::max(1, snap->stats.histogram_resolution));
    ExpectStatsBitEqual(snap->stats, recomputed,
                        std::string(test_case.name) + " batch " +
                            std::to_string(batch));
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, DynamicStatsTest,
                         ::testing::Values(StatsCase{"uniform", MakeUniform},
                                           StatsCase{"clustered",
                                                     MakeClustered},
                                           StatsCase{"neuro", MakeNeuro}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// --- continuous joins: folded deltas == full re-join ------------------------

/// Folded view of a delta stream. Kept behind a shared_ptr *outside* the
/// sink: the engine owns (and frees) the sink itself when the request
/// delivers, so the test must not read through the sink after Cancel.
struct FoldState {
  std::set<IdPair> pairs;
  uint64_t deltas = 0;
  std::vector<RequestStatus> completions;
};

class FoldingSink : public ResultSink {
 public:
  explicit FoldingSink(std::shared_ptr<FoldState> state)
      : state_(std::move(state)) {}
  void Emit(uint32_t, uint32_t) override {}
  void EmitDelta(DeltaKind kind, uint32_t a_id, uint32_t b_id) override {
    ++state_->deltas;
    if (kind == DeltaKind::kAdded) {
      const bool inserted = state_->pairs.emplace(a_id, b_id).second;
      EXPECT_TRUE(inserted) << "duplicate kAdded for (" << a_id << ", "
                            << b_id << ")";
    } else {
      const bool erased = state_->pairs.erase(IdPair(a_id, b_id)) > 0;
      EXPECT_TRUE(erased) << "kRemoved for absent (" << a_id << ", " << b_id
                          << ")";
    }
  }
  void OnComplete(const JoinResult& result) override {
    state_->completions.push_back(result.status);
  }

 private:
  std::shared_ptr<FoldState> state_;
};

TEST(ContinuousJoinTest, FoldedDeltaStreamEqualsFullRejoin) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 400, 21));
  const DatasetHandle b = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kClustered, 400, 22));
  const float epsilon = 25.0f;

  auto fold = std::make_shared<FoldState>();
  JoinRequest request{a, b, epsilon};
  request.continuous = true;
  RequestHandle handle =
      engine.Submit(request, std::make_unique<FoldingSink>(fold));
  ASSERT_TRUE(handle.valid());

  // The baseline burst must already equal the static join.
  EXPECT_EQ(fold->pairs,
            BruteForcePairs(*engine.catalog().snapshot(a),
                            *engine.catalog().snapshot(b), epsilon));

  MutationFuzzer fuzz_a(/*seed=*/31, 400, /*space=*/1000.0f);
  MutationFuzzer fuzz_b(/*seed=*/32, 400, /*space=*/1000.0f);
  for (int batch = 0; batch < 12; ++batch) {
    // Alternate which side mutates: subscriptions must probe correctly
    // whether the mutated dataset is the request's A or its B.
    if (batch % 2 == 0) {
      engine.ApplyMutations(a, fuzz_a.NextBatch(40));
    } else {
      engine.ApplyMutations(b, fuzz_b.NextBatch(40));
    }
    EXPECT_EQ(fold->pairs,
              BruteForcePairs(*engine.catalog().snapshot(a),
                              *engine.catalog().snapshot(b), epsilon))
        << "batch " << batch;
  }
  EXPECT_GT(fold->deltas, 0u);

  // Cancel unsubscribes: exactly one (cancelled) completion, and further
  // mutations must not reach the sink.
  EXPECT_TRUE(handle.Cancel());
  const JoinResult final_result = handle.Get();
  EXPECT_EQ(final_result.status, RequestStatus::kCancelled);
  ASSERT_EQ(fold->completions.size(), 1u);
  EXPECT_EQ(fold->completions[0], RequestStatus::kCancelled);
  const uint64_t deltas_at_cancel = fold->deltas;
  engine.ApplyMutations(a, fuzz_a.NextBatch(40));
  EXPECT_EQ(fold->deltas, deltas_at_cancel);
}

TEST(ContinuousJoinTest, RejectsMissingSinkAndSelfJoin) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 50, 5));
  JoinRequest request{a, a, 1.0f};
  request.continuous = true;
  JoinResult no_sink = engine.Submit(request).Get();
  EXPECT_EQ(no_sink.status, RequestStatus::kError);
  JoinResult self_join =
      engine
          .Submit(request, std::make_unique<FoldingSink>(
                               std::make_shared<FoldState>()))
          .Get();
  EXPECT_EQ(self_join.status, RequestStatus::kError);
}

// A deadline that passes after the baseline must still complete the
// standing join: the next mutation batch ends it as Cancelled, and later
// batches no longer reach the sink.
TEST(ContinuousJoinTest, DeadlinePassedAfterBaselineEndsAtNextBatch) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 200, 23));
  const DatasetHandle b = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kClustered, 200, 24));
  auto fold = std::make_shared<FoldState>();
  JoinRequest request{a, b, 25.0f};
  request.continuous = true;
  request.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  RequestHandle handle =
      engine.Submit(request, std::make_unique<FoldingSink>(fold));
  ASSERT_TRUE(handle.valid());
  ASSERT_TRUE(fold->completions.empty()) << "baseline outlived the deadline";

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  MutationFuzzer fuzz_a(/*seed=*/41, 200, /*space=*/1000.0f);
  engine.ApplyMutations(a, fuzz_a.NextBatch(20));
  // Delivered synchronously by the batch; reading the future before this
  // holds would block forever.
  ASSERT_EQ(fold->completions.size(), 1u);
  EXPECT_EQ(fold->completions[0], RequestStatus::kCancelled);
  EXPECT_EQ(handle.Get().status, RequestStatus::kCancelled);

  const uint64_t deltas_at_deadline = fold->deltas;
  engine.ApplyMutations(a, fuzz_a.NextBatch(20));
  EXPECT_EQ(fold->deltas, deltas_at_deadline);
  EXPECT_EQ(fold->completions.size(), 1u);
}

// --- sharded vs unsharded under mutation ------------------------------------

std::set<IdPair> CollectPairs(const std::vector<IdPair>& pairs) {
  return std::set<IdPair>(pairs.begin(), pairs.end());
}

TEST(ShardedMutationTest, ShardedEqualsUnshardedUnderMutation) {
  const Dataset initial_a = GenerateSynthetic(Distribution::kClustered, 800, 41);
  const Dataset initial_b = GenerateSynthetic(Distribution::kUniform, 800, 42);
  const float epsilon = 15.0f;

  QueryEngine flat;
  const DatasetHandle flat_a = flat.RegisterDataset("A", initial_a);
  const DatasetHandle flat_b = flat.RegisterDataset("B", initial_b);

  EngineOptions sharded_options;
  sharded_options.shards = 4;
  // A tight drift threshold so the randomized stream actually exercises
  // RepartitionLocked, not just the routing fast path.
  sharded_options.shard_repartition_drift = 1.3;
  ShardedQueryEngine sharded(sharded_options);
  const DatasetHandle shard_a = sharded.RegisterDataset("A", initial_a);
  const DatasetHandle shard_b = sharded.RegisterDataset("B", initial_b);

  // Two identical fuzzers: both engines see the exact same stream, so ids
  // assigned to inserts must line up between them.
  MutationFuzzer flat_fuzz(/*seed=*/77, initial_a.size(), 1000.0f);
  MutationFuzzer shard_fuzz(/*seed=*/77, initial_a.size(), 1000.0f);
  for (int batch = 0; batch < 10; ++batch) {
    const std::vector<Mutation> flat_muts = flat_fuzz.NextBatch(80);
    const std::vector<Mutation> shard_muts = shard_fuzz.NextBatch(80);
    const uint64_t flat_version = flat.ApplyMutations(flat_a, flat_muts);
    const uint64_t shard_version =
        sharded.ApplyMutations(shard_a, shard_muts);
    EXPECT_EQ(flat_version, shard_version) << "batch " << batch;

    const JoinRequest request{flat_a, flat_b, epsilon};
    VectorCollector flat_out;
    const JoinResult flat_result = flat.Execute(request, flat_out);
    ASSERT_EQ(flat_result.status, RequestStatus::kOk) << flat_result.error;

    const JoinRequest shard_request{shard_a, shard_b, epsilon};
    VectorCollector shard_out;
    const ShardedJoinResult shard_result =
        sharded.Execute(shard_request, shard_out);
    ASSERT_EQ(shard_result.merged.status, RequestStatus::kOk)
        << shard_result.merged.error;

    EXPECT_EQ(CollectPairs(flat_out.pairs()), CollectPairs(shard_out.pairs()))
        << "batch " << batch;
    // Both must also agree with the brute-force oracle over the unsharded
    // snapshots.
    EXPECT_EQ(CollectPairs(flat_out.pairs()),
              BruteForcePairs(*flat.catalog().snapshot(flat_a),
                              *flat.catalog().snapshot(flat_b), epsilon))
        << "batch " << batch;
  }
}

// --- delta sequence identity -------------------------------------------------

using Delta = std::tuple<DeltaKind, uint32_t, uint32_t>;

/// Records a subscription's deltas in emission order.
class RecordingSink : public ResultSink {
 public:
  explicit RecordingSink(std::shared_ptr<std::vector<Delta>> out)
      : out_(std::move(out)) {}
  void Emit(uint32_t, uint32_t) override {}
  void EmitDelta(DeltaKind kind, uint32_t a_id, uint32_t b_id) override {
    out_->emplace_back(kind, a_id, b_id);
  }

 private:
  std::shared_ptr<std::vector<Delta>> out_;
};

/// The delta sequence one batch on `mutated` must produce, computed
/// without any tree: fold the batch per object (first old box, last new
/// box, in first-touch order; a net no-op drops out), then for each object
/// scan the partner for its old and new epsilon-windows separately and
/// merge-diff the sorted id lists.
std::vector<Delta> ReferenceDeltas(const DatasetSnapshot& mutated,
                                   const DatasetSnapshot& partner,
                                   std::span<const Mutation> batch,
                                   float epsilon, bool mutated_is_a) {
  std::map<uint32_t, Box> live;
  for (size_t slot = 0; slot < mutated.boxes.size(); ++slot) {
    live.emplace(mutated.id_of(slot), mutated.boxes[slot]);
  }
  struct Net {
    uint32_t id;
    std::optional<Box> old_box;
    std::optional<Box> new_box;
  };
  std::vector<Net> net;
  std::map<uint32_t, size_t> index;
  for (const Mutation& m : batch) {
    const auto it = live.find(m.id);
    const std::optional<Box> before =
        it == live.end() ? std::nullopt : std::optional<Box>(it->second);
    if ((m.kind == MutationKind::kInsert) == before.has_value()) continue;
    std::optional<Box> after;
    if (m.kind == MutationKind::kDelete) {
      live.erase(m.id);
    } else {
      after = m.box;
      live[m.id] = m.box;
    }
    const auto [pos, fresh] = index.emplace(m.id, net.size());
    if (fresh) {
      net.push_back(Net{m.id, before, after});
    } else {
      net[pos->second].new_box = after;
    }
  }
  const auto window_ids = [&](const std::optional<Box>& box) {
    std::vector<uint32_t> ids;
    if (!box) return ids;
    const Box window = box->Enlarged(epsilon);
    for (size_t slot = 0; slot < partner.boxes.size(); ++slot) {
      if (Intersects(partner.boxes[slot], window)) {
        ids.push_back(partner.id_of(slot));
      }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  std::vector<Delta> out;
  const auto emit = [&](DeltaKind kind, uint32_t partner_id, uint32_t id) {
    if (mutated_is_a) {
      out.emplace_back(kind, id, partner_id);
    } else {
      out.emplace_back(kind, partner_id, id);
    }
  };
  for (const Net& n : net) {
    if (!n.old_box && !n.new_box) continue;
    const std::vector<uint32_t> old_ids = window_ids(n.old_box);
    const std::vector<uint32_t> new_ids = window_ids(n.new_box);
    std::vector<uint32_t> left;
    std::vector<uint32_t> entered;
    std::set_difference(old_ids.begin(), old_ids.end(), new_ids.begin(),
                        new_ids.end(), std::back_inserter(left));
    std::set_difference(new_ids.begin(), new_ids.end(), old_ids.begin(),
                        old_ids.end(), std::back_inserter(entered));
    // Interleave by partner id, as one merge pass over both lists would.
    size_t l = 0;
    size_t e = 0;
    while (l < left.size() || e < entered.size()) {
      if (e == entered.size() || (l < left.size() && left[l] < entered[e])) {
        emit(DeltaKind::kRemoved, left[l++], n.id);
      } else {
        emit(DeltaKind::kAdded, entered[e++], n.id);
      }
    }
  }
  return out;
}

TEST(ContinuousJoinTest, DeltaSequenceEqualsTwoWindowReference) {
  const float epsilon = 4.0f;
  SyntheticOptions dense;
  dense.space = 100.0f;
  Dataset moving =
      GenerateSynthetic(Distribution::kClustered, 600, 71, dense);
  Dataset partner =
      GenerateSynthetic(Distribution::kClustered, 900, 72, dense);
  // A partner slab spanning two far-apart spots: an object jumping between
  // them has disjoint windows yet keeps its pair with the slab.
  const uint32_t slab = static_cast<uint32_t>(partner.size());
  partner.push_back(MakeBox(10, 10, 10, 90, 11, 11));
  moving[0] = MakeBox(15, 10, 10, 16, 11, 11);

  QueryEngine engine;
  const DatasetHandle m = engine.RegisterDataset("moving", moving);
  const DatasetHandle p = engine.RegisterDataset("partner", partner);
  // The mutated dataset is the request's A in one subscription and its B
  // in the other.
  auto as_a = std::make_shared<std::vector<Delta>>();
  auto as_b = std::make_shared<std::vector<Delta>>();
  JoinRequest request_a{m, p, epsilon};
  request_a.continuous = true;
  JoinRequest request_b{p, m, epsilon};
  request_b.continuous = true;
  RequestHandle handle_a =
      engine.Submit(request_a, std::make_unique<RecordingSink>(as_a));
  RequestHandle handle_b =
      engine.Submit(request_b, std::make_unique<RecordingSink>(as_b));

  Rng rng(73);
  const uint32_t fresh = static_cast<uint32_t>(moving.size());
  std::vector<Mutation> batch;
  for (uint32_t id = 1; id < 200; ++id) {  // small moves: windows overlap
    const Vec3 d((rng.NextFloat() - 0.5f) * 3, (rng.NextFloat() - 0.5f) * 3,
                 (rng.NextFloat() - 0.5f) * 3);
    batch.push_back({MutationKind::kUpdate, id,
                     Box(moving[id].lo + d, moving[id].hi + d)});
  }
  for (uint32_t id = 200; id < 260; ++id) {  // far jumps: disjoint windows
    batch.push_back({MutationKind::kUpdate, id,
                     RandomBox(rng, 100.0f, 6.0f)});
  }
  batch.push_back({MutationKind::kUpdate, 0,
                   MakeBox(84, 10, 10, 85, 11, 11)});  // along the slab
  for (uint32_t id = 260; id < 290; ++id) {
    batch.push_back({MutationKind::kDelete, id, Box()});
  }
  for (uint32_t k = 0; k < 30; ++k) {
    batch.push_back({MutationKind::kInsert, fresh + k,
                     RandomBox(rng, 100.0f, 6.0f)});
  }
  // Moved twice: one net move from the first old box to the last new one.
  batch.push_back({MutationKind::kUpdate, 1, MakeBox(50, 50, 50, 53, 53, 53)});
  // Inserted and deleted again: nets out, no deltas.
  batch.push_back({MutationKind::kInsert, fresh + 100,
                   MakeBox(50, 50, 50, 60, 60, 60)});
  batch.push_back({MutationKind::kDelete, fresh + 100, Box()});

  const DatasetSnapshotPtr before = engine.catalog().snapshot(m);
  const DatasetSnapshotPtr partner_snap = engine.catalog().snapshot(p);
  as_a->clear();
  as_b->clear();
  engine.ApplyMutations(m, batch);

  const std::vector<Delta> expect_a =
      ReferenceDeltas(*before, *partner_snap, batch, epsilon, true);
  ASSERT_GT(expect_a.size(), 100u);
  EXPECT_EQ(*as_a, expect_a);
  EXPECT_EQ(*as_b,
            ReferenceDeltas(*before, *partner_snap, batch, epsilon, false));
  // The slab pair persisted through the jump: no delta names it.
  for (const auto& [kind, a_id, b_id] : *as_a) {
    EXPECT_FALSE(a_id == 0 && b_id == slab);
  }
  handle_a.Cancel();
  handle_b.Cancel();
}

/// A RecordingSink that, once armed, raises a Cancel from another thread at
/// its `cancel_at`-th recorded delta and waits until the stop is visible,
/// so the cancel lands between two deltas of one burst. (Cancel itself
/// waits for the burst to end, so it cannot run on the emitting thread.)
struct CancelPlan {
  std::atomic<size_t> cancel_at{std::numeric_limits<size_t>::max()};
  RequestHandle* handle = nullptr;
  std::thread canceller;
};

class CancellingSink : public RecordingSink {
 public:
  CancellingSink(std::shared_ptr<std::vector<Delta>> out,
                 std::shared_ptr<CancelPlan> plan)
      : RecordingSink(out), out_(std::move(out)), plan_(std::move(plan)) {}
  void EmitDelta(DeltaKind kind, uint32_t a_id, uint32_t b_id) override {
    RecordingSink::EmitDelta(kind, a_id, b_id);
    if (out_->size() != plan_->cancel_at.load()) return;
    RequestHandle* handle = plan_->handle;
    plan_->canceller = std::thread([handle] { handle->Cancel(); });
    while (!handle->token().stop_requested()) std::this_thread::yield();
  }

 private:
  std::shared_ptr<std::vector<Delta>> out_;
  std::shared_ptr<CancelPlan> plan_;
};

// The delta probe buffers each round of objects' deltas under one lock of
// the partner's tree and emits them afterwards in net order: a batch
// spanning more than one round must give exactly the reference sequence at
// every pool size, the baseline must be the same sequence at every pool
// size, and a cancel raised mid-burst must leave a prefix of the sequence.
TEST(ContinuousJoinTest, BufferedDeltaProbeKeepsOrderAtEveryPoolSize) {
  const float epsilon = 2.0f;
  SyntheticOptions dense;
  dense.space = 200.0f;
  const Dataset moving =
      GenerateSynthetic(Distribution::kClustered, 6000, 81, dense);
  const Dataset partner =
      GenerateSynthetic(Distribution::kClustered, 3000, 82, dense);
  Rng rng(83);
  std::vector<Mutation> batch;
  for (uint32_t id = 0; id < 5000; ++id) {
    const float d = id % 10 == 0 ? 100.0f : 2.0f;  // far jumps and nudges
    const Vec3 shift((rng.NextFloat() - 0.5f) * d,
                     (rng.NextFloat() - 0.5f) * d,
                     (rng.NextFloat() - 0.5f) * d);
    batch.push_back({MutationKind::kUpdate, id,
                     Box(moving[id].lo + shift, moving[id].hi + shift)});
  }
  for (uint32_t id = 5000; id < 5200; ++id) {
    batch.push_back({MutationKind::kDelete, id, Box()});
  }
  for (uint32_t k = 0; k < 200; ++k) {
    batch.push_back({MutationKind::kInsert,
                     static_cast<uint32_t>(moving.size()) + k,
                     RandomBox(rng, 200.0f, 4.0f)});
  }

  std::vector<std::vector<Delta>> baselines;
  std::vector<Delta> expect;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    EngineOptions options;
    options.threads = threads;
    QueryEngine engine(options);
    const DatasetHandle m = engine.RegisterDataset("moving", moving);
    const DatasetHandle p = engine.RegisterDataset("partner", partner);
    auto deltas = std::make_shared<std::vector<Delta>>();
    JoinRequest request{m, p, epsilon};
    request.continuous = true;
    RequestHandle handle =
        engine.Submit(request, std::make_unique<RecordingSink>(deltas));
    baselines.push_back(*deltas);

    const DatasetSnapshotPtr before = engine.catalog().snapshot(m);
    if (expect.empty()) {
      expect = ReferenceDeltas(*before, *engine.catalog().snapshot(p), batch,
                               epsilon, true);
      ASSERT_GT(expect.size(), 10000u);
    }
    deltas->clear();
    engine.ApplyMutations(m, batch);
    EXPECT_EQ(*deltas, expect);
    handle.Cancel();

    // Again, cancelled from the sink: halfway through the burst (in its
    // first round of probes) and at nine tenths (in its last).
    for (const size_t cancel_at :
         {expect.size() / 2, expect.size() * 9 / 10}) {
      SCOPED_TRACE(cancel_at);
      QueryEngine cancelled(options);
      const DatasetHandle cm = cancelled.RegisterDataset("moving", moving);
      const DatasetHandle cp = cancelled.RegisterDataset("partner", partner);
      auto partial = std::make_shared<std::vector<Delta>>();
      auto plan = std::make_shared<CancelPlan>();
      JoinRequest cancel_request{cm, cp, epsilon};
      cancel_request.continuous = true;
      RequestHandle cancel_handle = cancelled.Submit(
          cancel_request, std::make_unique<CancellingSink>(partial, plan));
      plan->handle = &cancel_handle;
      partial->clear();
      plan->cancel_at = cancel_at;
      cancelled.ApplyMutations(cm, batch);
      ASSERT_TRUE(plan->canceller.joinable());
      plan->canceller.join();
      EXPECT_EQ(cancel_handle.Get().status, RequestStatus::kCancelled);
      ASSERT_GE(partial->size(), cancel_at);
      ASSERT_LT(partial->size(), expect.size());
      EXPECT_TRUE(
          std::equal(partial->begin(), partial->end(), expect.begin()));
    }
  }
  ASSERT_GT(baselines[0].size(), 1000u);
  EXPECT_EQ(baselines[0], baselines[1]);
}

// --- invalid mutation boxes --------------------------------------------------

TEST(InvalidBoxTest, NaNOrInvertedBoxMutationIsSkipped) {
  const Dataset initial = GenerateSynthetic(Distribution::kUniform, 1000, 81);
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("A", initial);
  const DatasetHandle b = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 1000, 82));
  auto fold = std::make_shared<FoldState>();
  JoinRequest request{a, b, 30.0f};
  request.continuous = true;
  RequestHandle handle =
      engine.Submit(request, std::make_unique<FoldingSink>(fold));
  const uint64_t baseline_deltas = fold->deltas;

  const float nan = std::numeric_limits<float>::quiet_NaN();
  Box poisoned = initial[7];
  poisoned.lo.x = nan;
  poisoned.hi.x = nan;
  const Box inverted(initial[8].hi, initial[8].lo);
  const std::vector<Mutation> bad = {
      {MutationKind::kUpdate, 7, poisoned},
      {MutationKind::kUpdate, 8, inverted},
      {MutationKind::kInsert, kInvalidObjectId, poisoned},
      {MutationKind::kInsert, 5000, inverted},
  };
  engine.ApplyMutations(a, bad);
  EXPECT_EQ(fold->deltas, baseline_deltas) << "an invalid box was probed";
  const std::optional<Box> kept = engine.catalog().FindObject(a, 7);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(*kept, initial[7]);
  EXPECT_FALSE(engine.catalog().FindObject(a, 5000).has_value());

  // Moving id 7 back and forth must leave the stats exactly a recompute.
  engine.ApplyMutations(a, std::vector<Mutation>{
                               {MutationKind::kUpdate, 7, poisoned},
                               {MutationKind::kUpdate, 7, initial[7]}});
  const DatasetSnapshotPtr snap = engine.catalog().snapshot(a);
  EXPECT_EQ(snap->boxes.size(), initial.size());
  ExpectStatsBitEqual(snap->stats,
                      ComputeDatasetStats(snap->boxes,
                                          snap->stats.histogram_resolution),
                      "after NaN round trip");
  // A skipped insert consumes no id: the next assigned id is the
  // registration count.
  engine.ApplyMutations(a, std::vector<Mutation>{{MutationKind::kInsert,
                                                  kInvalidObjectId,
                                                  initial[0]}});
  const DatasetSnapshotPtr grown = engine.catalog().snapshot(a);
  ASSERT_EQ(grown->boxes.size(), initial.size() + 1);
  EXPECT_EQ(grown->id_of(initial.size()), initial.size());
  handle.Cancel();
}

TEST(InvalidBoxTest, ShardedEngineSkipsTheSameMutations) {
  // The sharded router assigns global ids before the shard catalogs see a
  // box, so it must skip exactly what DatasetCatalog skips.
  const Dataset initial = GenerateSynthetic(Distribution::kUniform, 400, 83);
  EngineOptions options;
  options.shards = 4;
  ShardedQueryEngine sharded(options);
  QueryEngine flat;
  const DatasetHandle sa = sharded.RegisterDataset("A", initial);
  const DatasetHandle fa = flat.RegisterDataset("A", initial);
  const DatasetHandle sb = sharded.RegisterDataset("B", initial);
  const DatasetHandle fb = flat.RegisterDataset("B", initial);

  Box poisoned = initial[3];
  poisoned.lo.y = std::numeric_limits<float>::quiet_NaN();
  const std::vector<Mutation> batch = {
      {MutationKind::kInsert, kInvalidObjectId, poisoned},
      {MutationKind::kUpdate, 3, poisoned},
      {MutationKind::kInsert, kInvalidObjectId, MakeBox(1, 1, 1, 2, 2, 2)},
      {MutationKind::kUpdate, 4, MakeBox(3, 3, 3, 4, 4, 4)},
  };
  sharded.ApplyMutations(sa, batch);
  flat.ApplyMutations(fa, batch);
  VectorCollector flat_out;
  ASSERT_TRUE(flat.Execute(JoinRequest{fa, fb, 2.0f}, flat_out).ok());
  VectorCollector shard_out;
  ASSERT_TRUE(
      sharded.Execute(JoinRequest{sa, sb, 2.0f}, shard_out).merged.ok());
  EXPECT_EQ(CollectPairs(flat_out.pairs()), CollectPairs(shard_out.pairs()));
  EXPECT_EQ(CollectPairs(flat_out.pairs()),
            BruteForcePairs(*flat.catalog().snapshot(fa),
                            *flat.catalog().snapshot(fb), 2.0f));
}

// --- versioned index-cache keys (latent-bug regression) ---------------------

TEST(VersionedCacheTest, MutationInvalidatesStaleArtifactsOnFirstQuery) {
  EngineOptions options;
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 600, 51));
  const DatasetHandle b = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 600, 52));
  const JoinRequest request{a, b, 20.0f};

  // Warm the cache: second identical run must be a full artifact hit.
  VectorCollector cold;
  ASSERT_EQ(engine.ExecuteFixed("touch", request, cold).status,
            RequestStatus::kOk);
  VectorCollector warm;
  const JoinResult warm_result = engine.ExecuteFixed("touch", request, warm);
  EXPECT_TRUE(warm_result.index_cache_hit);

  // Mutate A; the versioned key must make the next query miss (and the
  // stale artifact's eviction must be counted in cache telemetry).
  const IndexCache::Stats before = engine.cache_stats();
  std::vector<Mutation> muts;
  muts.push_back(Mutation{MutationKind::kDelete, 0, Box()});
  muts.push_back(Mutation{MutationKind::kInsert, kInvalidObjectId,
                          Box(Vec3(0, 0, 0), Vec3(3, 3, 3))});
  engine.ApplyMutations(a, muts);
  const IndexCache::Stats after_invalidate = engine.cache_stats();
  EXPECT_GT(after_invalidate.evictions, before.evictions)
      << "stale artifact was not evicted on mutation";

  VectorCollector post;
  const JoinResult post_result = engine.ExecuteFixed("touch", request, post);
  ASSERT_EQ(post_result.status, RequestStatus::kOk) << post_result.error;
  EXPECT_FALSE(post_result.index_cache_hit)
      << "post-mutation query was served by a stale artifact";
  EXPECT_EQ(CollectPairs(post.pairs()),
            BruteForcePairs(*engine.catalog().snapshot(a),
                            *engine.catalog().snapshot(b), request.epsilon));
}

// --- 10k-mutation randomized acceptance run ---------------------------------

TEST(DynamicAcceptanceTest, TenThousandMutationsStayConsistent) {
  QueryEngine engine;
  const Dataset initial_a = GenerateSynthetic(Distribution::kClustered, 1200, 61);
  const Dataset initial_b = GenerateSynthetic(Distribution::kUniform, 1200, 62);
  const DatasetHandle a = engine.RegisterDataset("A", initial_a);
  const DatasetHandle b = engine.RegisterDataset("B", initial_b);
  const float epsilon = 10.0f;

  MutationFuzzer fuzz_a(/*seed=*/91, initial_a.size(), 1000.0f);
  MutationFuzzer fuzz_b(/*seed=*/92, initial_b.size(), 1000.0f);
  constexpr int kBatches = 100;
  constexpr int kOpsPerBatch = 100;  // 10k mutations total, split over A and B
  for (int batch = 0; batch < kBatches; ++batch) {
    if (batch % 2 == 0) {
      engine.ApplyMutations(a, fuzz_a.NextBatch(kOpsPerBatch));
    } else {
      engine.ApplyMutations(b, fuzz_b.NextBatch(kOpsPerBatch));
    }
    // Stats oracle on the mutated side, every batch.
    const DatasetHandle mutated = batch % 2 == 0 ? a : b;
    const DatasetSnapshotPtr snap = engine.catalog().snapshot(mutated);
    const DatasetStats recomputed = ComputeDatasetStats(
        snap->boxes, std::max(1, snap->stats.histogram_resolution));
    ExpectStatsBitEqual(snap->stats, recomputed,
                        "batch " + std::to_string(batch));
    if (::testing::Test::HasFailure()) break;
    // Join oracle sampled every 10th batch (the planner is free to pick any
    // algorithm; whatever it picks must match brute force in id space).
    if (batch % 10 == 9) {
      VectorCollector out;
      const JoinResult result =
          engine.Execute(JoinRequest{a, b, epsilon}, out);
      ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
      EXPECT_EQ(CollectPairs(out.pairs()),
                BruteForcePairs(*engine.catalog().snapshot(a),
                                *engine.catalog().snapshot(b), epsilon))
          << "batch " << batch;
    }
  }
}

}  // namespace
}  // namespace touch
