#include "core/factory.h"

#include <cstdlib>

#include "join/nested_loop.h"
#include "join/plane_sweep.h"
#include "join/rtree_join.h"

namespace touch {

std::unique_ptr<SpatialJoinAlgorithm> MakeAlgorithm(
    const std::string& name, const AlgorithmConfig& config) {
  if (name == "nl") return std::make_unique<NestedLoopJoin>();
  if (name == "ps") return std::make_unique<PlaneSweepJoin>();
  if (int resolution = 0; ParsePbsmResolution(name, &resolution)) {
    PbsmOptions options = config.pbsm;
    if (name != "pbsm") options.resolution = resolution;
    return std::make_unique<PbsmJoin>(options);
  }
  if (name.rfind("pbsm-", 0) == 0) return nullptr;  // bad <res>
  if (name == "s3") return std::make_unique<S3Join>(config.s3);
  if (name == "rtree") return std::make_unique<RTreeSyncJoin>(config.rtree);
  if (name == "rtree-hilbert") {
    RTreeJoinOptions options = config.rtree;
    options.bulkload = BulkLoadMethod::kHilbert;
    return std::make_unique<RTreeSyncJoin>(options);
  }
  if (name == "rtree-guttman" || name == "rtree-rstar") {
    InsertionRTreeJoinOptions options = config.insertion_rtree;
    options.variant = name == "rtree-rstar" ? RTreeVariant::kRStar
                                            : RTreeVariant::kGuttman;
    return std::make_unique<InsertionRTreeJoin>(options);
  }
  if (name == "rtree-tgs") {
    RTreeJoinOptions options = config.rtree;
    options.bulkload = BulkLoadMethod::kTgs;
    return std::make_unique<RTreeSyncJoin>(options);
  }
  if (name == "inl") {
    return std::make_unique<IndexedNestedLoopJoin>(config.rtree);
  }
  if (name == "touch") return std::make_unique<TouchJoin>(config.touch);
  return nullptr;
}

bool ParsePbsmResolution(const std::string& name, int* resolution) {
  if (name == "pbsm") {
    *resolution = PbsmOptions{}.resolution;
    return true;
  }
  if (name.rfind("pbsm-", 0) != 0) return false;
  const int parsed = std::atoi(name.c_str() + 5);
  if (parsed <= 0) return false;
  *resolution = parsed;
  return true;
}

std::vector<std::string> AllAlgorithmNames() {
  return {"nl",        "ps",        "pbsm-500",      "pbsm-100",
          "s3",        "inl",       "rtree",         "rtree-hilbert",
          "rtree-tgs", "rtree-guttman", "rtree-rstar", "touch"};
}

std::string AlgorithmNamesHelp() {
  std::string help;
  for (const std::string& name : AllAlgorithmNames()) {
    if (!help.empty()) help += ", ";
    help += name;
  }
  help += ", pbsm-<res>";
  return help;
}

std::string UnknownAlgorithmMessage(const std::string& name) {
  return "unknown algorithm '" + name + "' (accepted: " + AlgorithmNamesHelp() +
         ")";
}

}  // namespace touch
