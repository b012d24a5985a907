// Planner benchmark: what does cost-based auto-planning buy (or cost) versus
// committing to one fixed algorithm for every workload?
//
// Three workload shapes with different best algorithms. For each, "auto_cold"
// pays planning plus a cold index build, "auto_warm" shows the steady state
// of a serving engine (index cache populated), and the fixed algorithms
// bracket them between the best and worst static choice. The benchmark label
// of the auto runs records which algorithm the planner picked.

#include <algorithm>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/overlap_kernel.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"

namespace touch::bench {
namespace {

// TOUCH_BENCH_TRACE=1 runs every engine benchmark with tracing + metrics
// attached (one process-wide tracer, never exported): the CI overhead gate
// compares this run against a default run of the same binary to bound the
// cost of leaving observability on in production. The auto_* benchmarks are
// the interesting rows — they exercise the span-per-phase engine path.
EngineOptions TracedOptions() {
  EngineOptions options;
  if (std::getenv("TOUCH_BENCH_TRACE") != nullptr) {
    static const auto tracer = std::make_shared<Tracer>();
    static const auto metrics = std::make_shared<MetricsRegistry>();
    options.tracer = tracer;
    options.metrics = metrics;
  }
  return options;
}

struct Workload {
  std::string name;
  Distribution dist_a;
  size_t size_a;
  Distribution dist_b;
  size_t size_b;
  float epsilon;
};

void RegisterWorkload(const Workload& workload) {
  const SyntheticOptions opt = DensityMatchedOptions(
      std::max(workload.size_a, workload.size_b), 1'600'000);
  const Dataset& a =
      CachedDataset(workload.dist_a, workload.size_a, 71, opt);
  const Dataset& b =
      CachedDataset(workload.dist_b, workload.size_b, 72, opt);
  const std::string prefix = "engine_planner/" + workload.name + "/";

  benchmark::RegisterBenchmark(
      (prefix + "auto_cold").c_str(),
      [=](benchmark::State& state) {
        QueryEngine engine(TracedOptions());
        const DatasetHandle ha = engine.RegisterDataset("A", a);
        const DatasetHandle hb = engine.RegisterDataset("B", b);
        const JoinRequest request{ha, hb, workload.epsilon};
        JoinResult last;
        for (auto _ : state) {
          engine.ClearIndexCache();
          CountingCollector out;
          last = engine.Execute(request, out);
        }
        state.SetLabel(last.plan.algorithm);
        state.counters["results"] = static_cast<double>(last.stats.results);
      })
      ->Unit(benchmark::kMillisecond)->Iterations(1);

  benchmark::RegisterBenchmark(
      (prefix + "auto_warm").c_str(),
      [=](benchmark::State& state) {
        QueryEngine engine(TracedOptions());
        const DatasetHandle ha = engine.RegisterDataset("A", a);
        const DatasetHandle hb = engine.RegisterDataset("B", b);
        const JoinRequest request{ha, hb, workload.epsilon};
        {
          CountingCollector warmup;
          engine.Execute(request, warmup);
        }
        JoinResult last;
        for (auto _ : state) {
          CountingCollector out;
          last = engine.Execute(request, out);
        }
        state.SetLabel(last.plan.algorithm +
                       (last.index_cache_hit ? " cached" : ""));
        state.counters["results"] = static_cast<double>(last.stats.results);
      })
      ->Unit(benchmark::kMillisecond)->Iterations(1);

  benchmark::RegisterBenchmark(
      (prefix + "auto_tight_memory").c_str(),
      [=](benchmark::State& state) {
        EngineOptions options = TracedOptions();
        options.planner.memory_budget_bytes = 2 << 20;
        QueryEngine engine(options);
        const DatasetHandle ha = engine.RegisterDataset("A", a);
        const DatasetHandle hb = engine.RegisterDataset("B", b);
        const JoinRequest request{ha, hb, workload.epsilon};
        JoinResult last;
        for (auto _ : state) {
          engine.ClearIndexCache();
          CountingCollector out;
          last = engine.Execute(request, out);
        }
        state.SetLabel(last.plan.algorithm);
        state.counters["results"] = static_cast<double>(last.stats.results);
        state.counters["memMB"] =
            static_cast<double>(last.stats.memory_bytes) / (1024.0 * 1024.0);
      })
      ->Unit(benchmark::kMillisecond)->Iterations(1);

  // Sharded scatter-gather: the same request fanned out over 4 spatial
  // shards per dataset (up to 16 shard-pair plans, pruned by the
  // epsilon-inflated MBR test) on a warm index cache — the steady state of
  // the distribution-ready engine versus auto_warm's single-catalog run.
  // The label records the fan-out that actually executed.
  benchmark::RegisterBenchmark(
      (prefix + "auto_sharded").c_str(),
      [=](benchmark::State& state) {
        EngineOptions options = TracedOptions();
        options.shards = 4;
        ShardedQueryEngine engine(options);
        const DatasetHandle ha = engine.RegisterDataset("A", a);
        const DatasetHandle hb = engine.RegisterDataset("B", b);
        const JoinRequest request{ha, hb, workload.epsilon};
        {
          CountingCollector warmup;
          engine.Execute(request, warmup);
        }
        ShardedJoinResult last;
        for (auto _ : state) {
          CountingCollector out;
          last = engine.Execute(request, out);
        }
        state.SetLabel("pairs=" + std::to_string(last.pairs.size()) + "/" +
                       std::to_string(last.shard_pairs_total) +
                       (last.merged.index_cache_hit ? " cached" : ""));
        state.counters["results"] =
            static_cast<double>(last.merged.stats.results);
      })
      ->Unit(benchmark::kMillisecond)->Iterations(1);

  // Self-calibrating planning: the engine first *measures* every candidate
  // family cold (ExecuteFixed runs are recorded as feedback, cache cleared
  // between runs so each one pays its build), then plans the same request
  // with the fitted cost models. The label shows whether the measured
  // evidence overrode the static rule — the paper's "no single algorithm
  // wins everywhere" claim, closed into a feedback loop. Compare against
  // auto_cold (static rules, same cold execution).
  benchmark::RegisterBenchmark(
      (prefix + "auto_calibrated").c_str(),
      [=](benchmark::State& state) {
        // Calibration enabled by default.
        QueryEngine engine(TracedOptions());
        const DatasetHandle ha = engine.RegisterDataset("A", a);
        const DatasetHandle hb = engine.RegisterDataset("B", b);
        const JoinRequest request{ha, hb, workload.epsilon};
        const size_t seeds = engine.options().calibration.min_samples;
        for (const std::string fixed : {"touch", "pbsm-100", "inl", "ps"}) {
          for (size_t i = 0; i < seeds; ++i) {
            engine.ClearIndexCache();
            CountingCollector out;
            engine.ExecuteFixed(fixed, request, out);
          }
        }
        JoinResult last;
        for (auto _ : state) {
          engine.ClearIndexCache();
          CountingCollector out;
          last = engine.Execute(request, out);
        }
        std::string label =
            (last.plan.calibrated ? "calibrated:" : "static:") +
            last.plan.algorithm;
        if (last.plan.calibrated &&
            last.plan.static_algorithm != last.plan.algorithm) {
          label += " (static rule: " + last.plan.static_algorithm + ")";
        }
        state.SetLabel(label);
        state.counters["results"] = static_cast<double>(last.stats.results);
        state.counters["predicted_ms"] = last.plan.predicted_seconds * 1e3;
      })
      ->Unit(benchmark::kMillisecond)->Iterations(1);

  // Async submission throughput: a warm engine answering a burst of
  // repeated requests through per-request futures (the serving steady
  // state) versus the same burst through the blocking wrapper one by one.
  benchmark::RegisterBenchmark(
      (prefix + "submit_burst").c_str(),
      [=](benchmark::State& state) {
        QueryEngine engine(TracedOptions());
        const DatasetHandle ha = engine.RegisterDataset("A", a);
        const DatasetHandle hb = engine.RegisterDataset("B", b);
        const std::vector<JoinRequest> burst(16,
                                             JoinRequest{ha, hb,
                                                         workload.epsilon});
        {
          CountingCollector warmup;
          engine.Execute(burst[0], warmup);
        }
        uint64_t results = 0;
        for (auto _ : state) {
          BatchHandle handles = engine.SubmitBatch(burst);
          for (RequestHandle& handle : handles.requests()) {
            results = handle.Get().stats.results;
          }
        }
        state.counters["results"] = static_cast<double>(results);
        state.counters["requests"] = static_cast<double>(burst.size());
      })
      ->Unit(benchmark::kMillisecond)->Iterations(1);

  for (const std::string fixed : {"touch", "pbsm-100", "inl", "ps"}) {
    benchmark::RegisterBenchmark(
        (prefix + "fixed_" + fixed).c_str(),
        [=](benchmark::State& state) {
          RunDistanceJoin(state, fixed, a, b, workload.epsilon);
        })
        ->Unit(benchmark::kMillisecond)->Iterations(1);
  }
}

// --- per-kernel microbenches -------------------------------------------------
//
// The epsilon-overlap kernels of core/overlap_kernel.h, each measured in the
// shape its consumer uses it — with one row per runtime-available dispatch
// level (scalar, sse2, avx2 / neon), all produced in ONE run of this binary
// by forcing each level around the timing loop. The <level>/scalar ratio is
// the direct speedup of that instruction set; the differential tests hold
// every level to bit-identical results, so the ratios compare equal work.

/// Runs `body` (the timing loop) with the dispatch level forced to `level`,
/// restoring the entry level after so later benches see auto dispatch.
template <typename Body>
void WithForcedLevel(benchmark::State& state, simd::Level level, Body&& body) {
  const simd::Level entry = ActiveSimdLevel();
  std::string error;
  if (!ForceSimdLevel(level, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  body();
  state.SetLabel(SimdLevelName());
  ForceSimdLevel(entry);
}

void RegisterKernelBenches() {
  const size_t slab_size = Scaled(60'000);
  const SyntheticOptions opt = DensityMatchedOptions(slab_size, 1'600'000);
  const Dataset* data =
      &CachedDataset(Distribution::kClustered, slab_size, 91, opt);
  const Dataset* queries =
      &CachedDataset(Distribution::kClustered, Scaled(4'000), 92, opt);
  const float epsilon = 5.0f;

  // Full-range scans: the INL leaf visit / nested-loop inner loop shape.
  const auto register_collect = [=](const std::string& name,
                                    simd::Level level) {
    benchmark::RegisterBenchmark(name.c_str(), [=](benchmark::State& state) {
      BoxSlab slab;
      slab.Assign(*data, epsilon);
      std::vector<uint32_t> hits;
      uint64_t found = 0;
      WithForcedLevel(state, level, [&] {
        for (auto _ : state) {
          found = 0;
          for (const Box& query : *queries) {
            hits.clear();
            CollectOverlaps(slab, 0, slab.size(), query, hits);
            found += hits.size();
          }
        }
      });
      state.counters["hits"] = static_cast<double>(found);
    })->Unit(benchmark::kMillisecond)->Iterations(1);
  };

  // Early-exit scans from a sorted slab: the plane-sweep inner loop. Every
  // box sweeps the candidates after it until lo_x passes its hi_x.
  const auto register_sweep = [=](const std::string& name, simd::Level level) {
    benchmark::RegisterBenchmark(name.c_str(), [=](benchmark::State& state) {
      Dataset sorted = *data;
      std::sort(sorted.begin(), sorted.end(),
                [](const Box& a, const Box& b) { return a.lo.x < b.lo.x; });
      BoxSlab slab;
      slab.Assign(sorted, epsilon);
      std::vector<uint32_t> hits;
      uint64_t found = 0;
      WithForcedLevel(state, level, [&] {
        for (auto _ : state) {
          found = 0;
          for (size_t i = 0; i < sorted.size(); ++i) {
            hits.clear();
            CollectOverlapsUntilBeyondX(slab, i + 1, slab.size(),
                                        sorted[i].Enlarged(epsilon), hits);
            found += hits.size();
          }
        }
      });
      state.counters["hits"] = static_cast<double>(found);
    })->Unit(benchmark::kMillisecond)->Iterations(1);
  };

  // Fanout-sized windows with a stop-at-second-hit: the TOUCH assignment
  // descent (Algorithm 3) classifying a box against a node's children.
  const auto register_classify = [=](const std::string& name,
                                     simd::Level level) {
    benchmark::RegisterBenchmark(name.c_str(), [=](benchmark::State& state) {
      constexpr size_t kFanout = 64;
      BoxSlab slab;
      slab.Assign(*data, epsilon);
      const size_t query_count = std::min<size_t>(queries->size(), 256);
      uint64_t examined = 0;
      uint64_t classified = 0;
      WithForcedLevel(state, level, [&] {
        for (auto _ : state) {
          examined = 0;
          classified = 0;
          for (size_t q = 0; q < query_count; ++q) {
            for (size_t base = 0; base + kFanout <= slab.size();
                 base += kFanout) {
              size_t first = 0;
              classified += static_cast<uint64_t>(
                  ClassifyOverlaps(slab, base, base + kFanout, (*queries)[q],
                                   &first, &examined));
            }
          }
        }
      });
      state.counters["classified"] = static_cast<double>(classified);
    })->Unit(benchmark::kMillisecond)->Iterations(1);
  };

  // Position-list gathers: the TOUCH grid local join testing a build box
  // against a row of cells' occupant list (shuffled, non-contiguous
  // positions). Hits are indices into the list; only their count is used.
  const auto register_gather = [=](const std::string& name,
                                   simd::Level level) {
    benchmark::RegisterBenchmark(name.c_str(), [=](benchmark::State& state) {
      BoxSlab slab;
      slab.Assign(*data, epsilon);
      std::vector<uint32_t> positions(slab.size());
      for (uint32_t i = 0; i < positions.size(); ++i) positions[i] = i;
      // Deterministic shuffle: cell occupants arrive in scatter order, not
      // slab order, so the gather pays non-contiguous loads here too.
      for (size_t i = positions.size(); i > 1; --i) {
        std::swap(positions[i - 1], positions[(i * 2654435761u) % i]);
      }
      std::vector<uint32_t> hits;
      uint64_t found = 0;
      WithForcedLevel(state, level, [&] {
        for (auto _ : state) {
          found = 0;
          for (const Box& query : *queries) {
            hits.clear();
            CollectOverlapsGather(slab, positions, query, hits);
            found += hits.size();
          }
        }
      });
      state.counters["hits"] = static_cast<double>(found);
    })->Unit(benchmark::kMillisecond)->Iterations(1);
  };

  for (const simd::Level level : simd::RuntimeAvailableLevels()) {
    const std::string suffix = simd::LevelName(level);
    register_collect("overlap_kernel/collect/" + suffix, level);
    register_sweep("overlap_kernel/sweep/" + suffix, level);
    register_classify("overlap_kernel/classify/" + suffix, level);
    register_gather("overlap_kernel/gather/" + suffix, level);
  }
}

void RegisterAll() {
  const std::vector<Workload> workloads = {
      // Near-uniform mid-size pair: PBSM territory.
      {"uniform", Distribution::kUniform, Scaled(30'000),
       Distribution::kUniform, Scaled(40'000), 5.0f},
      // Skewed data: TOUCH territory.
      {"clustered", Distribution::kClustered, Scaled(50'000),
       Distribution::kClustered, Scaled(100'000), 5.0f},
      // Skewed extreme cardinality asymmetry: INL territory (uniform
      // asymmetric pairs go to PBSM instead).
      {"asymmetric", Distribution::kClustered, Scaled(2'000),
       Distribution::kClustered, Scaled(200'000), 2.0f},
  };
  for (const Workload& workload : workloads) RegisterWorkload(workload);
  RegisterKernelBenches();
}

}  // namespace
}  // namespace touch::bench

int main(int argc, char** argv) {
  touch::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
