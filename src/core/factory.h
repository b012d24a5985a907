#ifndef TOUCH_CORE_FACTORY_H_
#define TOUCH_CORE_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/touch.h"
#include "join/indexed_nested_loop.h"
#include "join/insertion_rtree_join.h"
#include "join/pbsm.h"
#include "join/s3.h"

namespace touch {

/// Configurations for all algorithm families, used by the factory. Defaults
/// are the paper's evaluated settings (section 6.1).
struct AlgorithmConfig {
  PbsmOptions pbsm;           // resolution overridden by pbsm-<res> names
  S3Options s3;               // fanout 3, 5 levels
  InsertionRTreeJoinOptions insertion_rtree;  // Guttman/R*, M=16 m=6
  RTreeJoinOptions rtree;     // fanout 2, 2KB (64-entry) leaves
  TouchOptions touch;         // fanout 2, 1024 partitions, grid 500
};

/// Builds a join algorithm by name:
///   "nl" | "ps" | "pbsm" | "pbsm-<res>" | "s3" | "inl" | "rtree" |
///   "rtree-hilbert" | "rtree-tgs" | "rtree-guttman" | "rtree-rstar" |
///   "touch"
/// ("pbsm-500" and "pbsm-100" are the paper's two configurations). Returns
/// nullptr for unknown names.
std::unique_ptr<SpatialJoinAlgorithm> MakeAlgorithm(
    const std::string& name, const AlgorithmConfig& config = {});

/// Parses a "pbsm"/"pbsm-<res>" algorithm name into its grid resolution
/// ("pbsm" alone means the default). Returns false for every other name.
/// The single source of truth for the PBSM name grammar, shared by
/// MakeAlgorithm and the engine's cached-PBSM dispatch so the two paths
/// can never disagree on what counts as a PBSM plan.
bool ParsePbsmResolution(const std::string& name, int* resolution);

/// Names accepted by MakeAlgorithm, in the paper's presentation order.
std::vector<std::string> AllAlgorithmNames();

/// Comma-separated accepted names (including the parameterized forms), for
/// usage text and error messages.
std::string AlgorithmNamesHelp();

/// Error message for a name MakeAlgorithm rejected: quotes the bad name and
/// lists every accepted one, so callers can report it and exit instead of
/// dereferencing the nullptr.
std::string UnknownAlgorithmMessage(const std::string& name);

}  // namespace touch

#endif  // TOUCH_CORE_FACTORY_H_
