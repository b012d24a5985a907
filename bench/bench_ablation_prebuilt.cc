// Ablation: the section-4.3 build-skip — how much of TOUCH's total time the
// tree-building phase costs, and what reusing a prebuilt index saves when
// the same dataset A is joined repeatedly against fresh B batches. Reported
// per join-against-one-batch; `build_ms` is the phase the prebuilt path
// eliminates. The prebuilt RTree is the TOUCH tree as is, so `convert_ms`
// (the conversion step the paper allows for) is zero; `index_ms` is the
// one-off build of that index, paid by the wider system.

#include <string>

#include "bench_common.h"
#include "core/touch.h"
#include "index/rtree.h"
#include "util/timer.h"

namespace touch::bench {
namespace {

void RegisterAll() {
  const size_t size_a = Scaled(100'000);
  const size_t size_b = 2 * size_a;
  const SyntheticOptions opt = DensityMatchedOptions(size_a, 1'600'000);
  constexpr float kEpsilon = 5.0f;
  constexpr int kBatches = 4;

  benchmark::RegisterBenchmark(
      "ablation_prebuilt/build_every_join",
      [=](benchmark::State& state) {
        const Dataset& a =
            CachedDataset(Distribution::kGaussian, size_a, 61, opt);
        Dataset enlarged = a;
        for (Box& box : enlarged) box = box.Enlarged(kEpsilon);
        TouchOptions touch_opt;
        touch_opt.join_order = TouchOptions::JoinOrder::kBuildOnA;
        TouchJoin join(touch_opt);
        JoinStats last;
        double build_seconds = 0;
        for (auto _ : state) {
          for (int batch = 0; batch < kBatches; ++batch) {
            const Dataset& b = CachedDataset(Distribution::kGaussian, size_b,
                                             62 + batch, opt);
            CountingCollector out;
            last = join.Join(enlarged, b, out);
            build_seconds += last.build_seconds;
          }
        }
        state.counters["build_ms"] = build_seconds * 1e3 / kBatches;
        state.counters["results"] = static_cast<double>(last.results);
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);

  benchmark::RegisterBenchmark(
      "ablation_prebuilt/prebuilt_once_join_many",
      [=](benchmark::State& state) {
        const Dataset& a =
            CachedDataset(Distribution::kGaussian, size_a, 61, opt);
        Dataset enlarged = a;
        for (Box& box : enlarged) box = box.Enlarged(kEpsilon);
        TouchJoin join;
        JoinStats last;
        double index_seconds = 0;
        for (auto _ : state) {
          Timer index_timer;
          // The pre-existing index (already paid for by the wider system);
          // it replaces all four per-batch builds with no conversion.
          const RTree index(enlarged, 128, 2);
          index_seconds += index_timer.Seconds();
          for (int batch = 0; batch < kBatches; ++batch) {
            const Dataset& b = CachedDataset(Distribution::kGaussian, size_b,
                                             62 + batch, opt);
            CountingCollector out;
            last = join.JoinWithPrebuiltTree(index, enlarged, b, out);
          }
        }
        state.counters["index_ms"] = index_seconds * 1e3;
        state.counters["convert_ms"] = 0;
        state.counters["results"] = static_cast<double>(last.results);
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
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
