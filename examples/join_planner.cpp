// Planning a join before paying for it: selectivity estimation, join-order
// choice, and persistence.
//
// A downstream system that runs many joins wants to (a) predict how large a
// result set will be before committing memory to it, (b) let the library
// pick the cheaper join order, and (c) cache datasets on disk between runs.
// This example walks those three steps with the engine's planner (which
// estimates from the histograms computed at registration), TOUCH's
// join-order knob, and the binary dataset format.
//
// Build & run:  ./build/examples/join_planner

#include <cstdio>
#include <cstdlib>

#include "core/touch.h"
#include "datagen/distributions.h"
#include "engine/engine.h"
#include "io/dataset_io.h"

int main() {
  using namespace touch;

  // A skewed workload: a small set of facilities, a large set of parcels.
  SyntheticOptions gen;
  gen.space = 800.0f;
  QueryEngine engine;
  const DatasetHandle facilities_handle = engine.RegisterDataset(
      "facilities",
      GenerateSynthetic(Distribution::kClustered, 30'000, /*seed=*/3, gen));
  const DatasetHandle parcels_handle = engine.RegisterDataset(
      "parcels",
      GenerateSynthetic(Distribution::kClustered, 150'000, /*seed=*/4, gen));
  const Dataset& facilities = engine.catalog().boxes(facilities_handle);
  const Dataset& parcels = engine.catalog().boxes(parcels_handle);
  constexpr float kEpsilon = 4.0f;

  // --- (a) Estimate before running: the plan reads only the stats. ---
  const JoinPlan plan =
      engine.Plan(JoinRequest{facilities_handle, parcels_handle, kEpsilon});
  std::printf("plan: %s\n", plan.ToString().c_str());
  std::printf("estimated results:  %.0f  (selectivity %.2fe-6)\n",
              plan.expected_results, plan.expected_selectivity * 1e6);

  // --- (b) Join with the order the planner chose. ---
  TouchOptions options;
  options.join_order = plan.build_on_a ? TouchOptions::JoinOrder::kBuildOnA
                                       : TouchOptions::JoinOrder::kBuildOnB;
  TouchJoin join(options);
  CountingCollector out;
  const JoinStats stats =
      DistanceJoin(join, facilities, parcels, kEpsilon, out);
  std::printf("measured results:   %llu  in %.1f ms  [%s]\n",
              static_cast<unsigned long long>(stats.results),
              stats.total_seconds * 1e3, stats.ToString().c_str());

  // The histogram model assumes objects spread uniformly within a cell;
  // clustered data breaks that, so expect the order of magnitude only.
  std::printf("estimate / measured = %.2fx\n",
              plan.expected_results / static_cast<double>(stats.results));

  // --- (c) Persist the datasets for the next run. ---
  const std::string path = "/tmp/join_planner_facilities.bin";
  if (const IoStatus status = WriteBoxesBinary(path, facilities); !status) {
    std::printf("write failed: %s\n", status.message.c_str());
    return 1;
  }
  Dataset reloaded;
  if (const IoStatus status = ReadBoxesBinary(path, &reloaded); !status) {
    std::printf("read failed: %s\n", status.message.c_str());
    return 1;
  }
  std::printf("persisted and reloaded %zu facility boxes via %s\n",
              reloaded.size(), path.c_str());
  std::remove(path.c_str());
  return 0;
}
