#include "engine/catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "datagen/distributions.h"
#include "engine/engine.h"
#include "engine/planner.h"
#include "join/nested_loop.h"
#include "test_util.h"

namespace touch {
namespace {

TEST(DatasetStatsTest, ComputesCountExtentAndAverages) {
  Dataset boxes;
  boxes.push_back(MakeBox(0, 0, 0, 2, 2, 2));
  boxes.push_back(MakeBox(8, 8, 8, 12, 12, 12));

  const DatasetStats stats = ComputeDatasetStats(boxes);
  EXPECT_EQ(stats.count, 2u);
  EXPECT_EQ(stats.extent, MakeBox(0, 0, 0, 12, 12, 12));
  EXPECT_FLOAT_EQ(stats.avg_object_extent.x, 3.0f);  // (2 + 4) / 2
  EXPECT_GT(stats.density, 0);
}

TEST(DatasetStatsTest, HistogramCountsEveryObjectOnce) {
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 5000, 11);
  const DatasetStats stats = ComputeDatasetStats(boxes);
  const uint64_t total = std::accumulate(stats.histogram.begin(),
                                         stats.histogram.end(), uint64_t{0});
  EXPECT_EQ(total, boxes.size());
  EXPECT_EQ(stats.histogram.size(),
            static_cast<size_t>(stats.histogram_resolution) *
                stats.histogram_resolution * stats.histogram_resolution);
}

TEST(DatasetStatsTest, SkewSeparatesUniformFromClustered) {
  const DatasetStats uniform = ComputeDatasetStats(
      GenerateSynthetic(Distribution::kUniform, 20000, 12));
  const DatasetStats clustered = ComputeDatasetStats(
      GenerateSynthetic(Distribution::kClustered, 20000, 13));
  EXPECT_GT(clustered.HistogramSkew(), uniform.HistogramSkew());
  EXPECT_LT(uniform.HistogramSkew(), 3.0);
}

TEST(DatasetStatsTest, EmptyDatasetIsWellDefined) {
  const DatasetStats stats = ComputeDatasetStats(Dataset{});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.HistogramSkew(), 0);
}

// --- Histogram pair-combination (the planner's plan-time estimate) ---------

/// Brute-force result count of the epsilon-distance join (ground truth).
uint64_t MeasuredResults(const Dataset& a, const Dataset& b, float epsilon) {
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(epsilon);
  NestedLoopJoin join;
  CountingCollector out;
  join.Join(enlarged, b, out);
  return out.count();
}

class PairEstimateAccuracyTest
    : public ::testing::TestWithParam<std::tuple<Distribution, float>> {};

// The combination of two *independently computed* per-dataset histograms
// must track brute-force overlap counts within a factor of 3.
TEST_P(PairEstimateAccuracyTest, WithinFactorThreeOfBruteForce) {
  const auto [distribution, epsilon] = GetParam();
  const Dataset a = GenerateSynthetic(distribution, 4000, 121);
  const Dataset b = GenerateSynthetic(distribution, 8000, 122);
  const uint64_t measured = MeasuredResults(a, b, epsilon);
  ASSERT_GT(measured, 0u);

  const PairEstimate estimate = CombineHistograms(
      ComputeDatasetStats(a), ComputeDatasetStats(b), epsilon);
  EXPECT_GT(estimate.expected_results, static_cast<double>(measured) / 3.0)
      << "measured " << measured;
  EXPECT_LT(estimate.expected_results, static_cast<double>(measured) * 3.0)
      << "measured " << measured;
  EXPECT_NEAR(estimate.selectivity,
              estimate.expected_results / (4000.0 * 8000.0), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsAndEpsilons, PairEstimateAccuracyTest,
    ::testing::Combine(::testing::Values(Distribution::kUniform,
                                         Distribution::kGaussian),
                       ::testing::Values(5.0f, 10.0f)),
    [](const auto& info) {
      return std::string(DistributionName(std::get<0>(info.param))) + "_eps" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

// Clustered data is the model's hard case: the generator clamps cluster
// mass onto the workload cube's boundary planes, which within-cell
// uniformity underestimates at the combine resolution (0.21x of the
// measured count at epsilon 5). This bound tracks that accuracy at an order
// of magnitude so regressions are caught without overstating the model.
TEST(PairEstimateTest, ClusteredWithinFactorTenOfBruteForce) {
  const Dataset a = GenerateSynthetic(Distribution::kClustered, 4000, 121);
  const Dataset b = GenerateSynthetic(Distribution::kClustered, 8000, 122);
  for (const float epsilon : {5.0f, 10.0f}) {
    const uint64_t measured = MeasuredResults(a, b, epsilon);
    ASSERT_GT(measured, 0u);
    const PairEstimate estimate = CombineHistograms(
        ComputeDatasetStats(a), ComputeDatasetStats(b), epsilon);
    EXPECT_GT(estimate.expected_results, static_cast<double>(measured) / 10.0)
        << "epsilon " << epsilon << ", measured " << measured;
    EXPECT_LT(estimate.expected_results, static_cast<double>(measured) * 10.0)
        << "epsilon " << epsilon << ", measured " << measured;
  }
}

TEST(PairEstimateTest, MonotonicInEpsilon) {
  const DatasetStats a =
      ComputeDatasetStats(GenerateSynthetic(Distribution::kUniform, 3000, 123));
  const DatasetStats b =
      ComputeDatasetStats(GenerateSynthetic(Distribution::kUniform, 3000, 124));
  double previous = -1;
  for (const float epsilon : {0.0f, 2.0f, 5.0f, 10.0f, 20.0f}) {
    const double expected =
        CombineHistograms(a, b, epsilon).expected_results;
    EXPECT_GT(expected, previous) << "epsilon=" << epsilon;
    previous = expected;
  }
}

// Table 1's ordering: Gaussian > clustered > uniform at equal sizes. The
// estimate must reproduce at least Gaussian > uniform.
TEST(PairEstimateTest, SkewRaisesSelectivity) {
  const size_t n = 5000;
  const PairEstimate uniform = CombineHistograms(
      ComputeDatasetStats(GenerateSynthetic(Distribution::kUniform, n, 125)),
      ComputeDatasetStats(GenerateSynthetic(Distribution::kUniform, n, 126)),
      5.0f);
  const PairEstimate gaussian = CombineHistograms(
      ComputeDatasetStats(GenerateSynthetic(Distribution::kGaussian, n, 125)),
      ComputeDatasetStats(GenerateSynthetic(Distribution::kGaussian, n, 126)),
      5.0f);
  EXPECT_GT(gaussian.selectivity, uniform.selectivity);
}

// Datasets whose extents do not even touch expect (next to) nothing —
// resampling onto the joint grid keeps their mass in disjoint cells.
TEST(PairEstimateTest, DisjointDatasetsEstimateNearZero) {
  Dataset near;
  Dataset far;
  for (int i = 0; i < 500; ++i) {
    const float offset = static_cast<float>(i % 10);
    near.push_back(CenteredBox(offset, offset, offset));
    far.push_back(CenteredBox(1000 + offset, 1000 + offset, 1000 + offset));
  }
  const PairEstimate estimate = CombineHistograms(
      ComputeDatasetStats(near), ComputeDatasetStats(far), 1.0f);
  EXPECT_LT(estimate.expected_results, 1.0);
}

TEST(PairEstimateTest, EmptyInputsAreSafe) {
  const DatasetStats empty = ComputeDatasetStats(Dataset{});
  const DatasetStats full =
      ComputeDatasetStats(GenerateSynthetic(Distribution::kUniform, 1000, 5));
  EXPECT_EQ(CombineHistograms(empty, full, 1.0f).expected_results, 0);
  EXPECT_EQ(CombineHistograms(full, empty, 1.0f).expected_results, 0);
  EXPECT_EQ(CombineHistograms(empty, empty, 1.0f).expected_results, 0);
}

// Clustering concentrates the expected output into hotspot cells, which the
// combined per-cell contribution skew must expose (the planner's rationale
// signal for "the result set is not spread evenly").
TEST(PairEstimateTest, ClusteringRaisesPairSkew) {
  const PairEstimate uniform = CombineHistograms(
      ComputeDatasetStats(GenerateSynthetic(Distribution::kUniform, 20000, 31)),
      ComputeDatasetStats(GenerateSynthetic(Distribution::kUniform, 20000, 32)),
      2.0f);
  const PairEstimate clustered = CombineHistograms(
      ComputeDatasetStats(
          GenerateSynthetic(Distribution::kClustered, 20000, 33)),
      ComputeDatasetStats(
          GenerateSynthetic(Distribution::kClustered, 20000, 34)),
      2.0f);
  EXPECT_GT(clustered.pair_skew, uniform.pair_skew);
}

// --- Reference: the estimate as a direct 27-offset stencil ------------------

/// The per-cell resample and 27-offset stencil CombineHistograms computes by
/// separable passes, written out directly: every source cell is split over
/// the joint cells it overlaps, and every A cell sums its 27 neighbours of B
/// weighted by the product of per-axis overlap probabilities.
struct ReferenceSplit {
  int first_target = 0;
  std::vector<double> fractions;
};

std::vector<ReferenceSplit> ReferenceSplitAxis(float src_lo, float src_hi,
                                               int src_res, float dst_lo,
                                               float dst_hi, int dst_res) {
  std::vector<ReferenceSplit> splits(static_cast<size_t>(src_res));
  const double src_w =
      (static_cast<double>(src_hi) - src_lo) / static_cast<double>(src_res);
  const double dst_w =
      (static_cast<double>(dst_hi) - dst_lo) / static_cast<double>(dst_res);
  const auto dst_cell_of = [&](double x) {
    if (dst_w <= 0) return 0;
    return std::clamp(static_cast<int>((x - dst_lo) / dst_w), 0, dst_res - 1);
  };
  for (int i = 0; i < src_res; ++i) {
    ReferenceSplit& split = splits[static_cast<size_t>(i)];
    const double s0 = src_lo + i * src_w;
    const double s1 = s0 + src_w;
    split.first_target = dst_cell_of(s0);
    split.fractions.assign(1, 1.0);
    if (src_w <= 0 || dst_w <= 0) continue;
    const int j0 = split.first_target;
    const int j1 = std::max(j0, dst_cell_of(s1));
    std::vector<double> fractions(static_cast<size_t>(j1 - j0 + 1), 0.0);
    double total = 0;
    for (int j = j0; j <= j1; ++j) {
      const double t0 = dst_lo + j * dst_w;
      const double overlap = std::min(s1, t0 + dst_w) - std::max(s0, t0);
      if (overlap > 0) fractions[static_cast<size_t>(j - j0)] = overlap;
      total += std::max(0.0, overlap);
    }
    if (total <= 0) continue;
    for (double& fraction : fractions) fraction /= total;
    split.fractions = std::move(fractions);
  }
  return splits;
}

std::vector<double> ReferenceResample(const DatasetStats& stats,
                                      const Box& domain, int res) {
  std::vector<double> out(static_cast<size_t>(res) * res * res, 0.0);
  const int src = stats.histogram_resolution;
  const auto sx = ReferenceSplitAxis(stats.extent.lo.x, stats.extent.hi.x,
                                     src, domain.lo.x, domain.hi.x, res);
  const auto sy = ReferenceSplitAxis(stats.extent.lo.y, stats.extent.hi.y,
                                     src, domain.lo.y, domain.hi.y, res);
  const auto sz = ReferenceSplitAxis(stats.extent.lo.z, stats.extent.hi.z,
                                     src, domain.lo.z, domain.hi.z, res);
  for (int x = 0; x < src; ++x) {
    for (int y = 0; y < src; ++y) {
      for (int z = 0; z < src; ++z) {
        const uint32_t count =
            stats.histogram[(static_cast<size_t>(x) * src + y) * src + z];
        if (count == 0) continue;
        for (size_t ix = 0; ix < sx[x].fractions.size(); ++ix) {
          const size_t jx = sx[x].first_target + ix;
          for (size_t iy = 0; iy < sy[y].fractions.size(); ++iy) {
            const size_t jy = sy[y].first_target + iy;
            for (size_t iz = 0; iz < sz[z].fractions.size(); ++iz) {
              const size_t jz = sz[z].first_target + iz;
              out[(jx * res + jy) * res + jz] += count * sx[x].fractions[ix] *
                                                 sy[y].fractions[iy] *
                                                 sz[z].fractions[iz];
            }
          }
        }
      }
    }
  }
  return out;
}

PairEstimate ReferenceCombine(const DatasetStats& a, const DatasetStats& b,
                              float epsilon) {
  PairEstimate estimate;
  if (a.count == 0 || b.count == 0) return estimate;
  Box domain = a.extent;
  domain.ExpandToContain(b.extent);
  const Vec3 extent = domain.Extent();
  const float max_avg =
      std::max({a.avg_object_extent.x, a.avg_object_extent.y,
                a.avg_object_extent.z, b.avg_object_extent.x,
                b.avg_object_extent.y, b.avg_object_extent.z});
  const int res =
      CellSizeCappedResolution(std::min({extent.x, extent.y, extent.z}),
                               max_avg, kHistogramResolution);
  const std::vector<double> ha = ReferenceResample(a, domain, res);
  const std::vector<double> hb = ReferenceResample(b, domain, res);
  const float ext[3] = {extent.x, extent.y, extent.z};
  const float avg_a[3] = {a.avg_object_extent.x, a.avg_object_extent.y,
                          a.avg_object_extent.z};
  const float avg_b[3] = {b.avg_object_extent.x, b.avg_object_extent.y,
                          b.avg_object_extent.z};
  double same[3];
  double adjacent[3];
  for (int axis = 0; axis < 3; ++axis) {
    const double cell_edge = ext[axis] / static_cast<double>(res);
    same[axis] = 1.0;
    adjacent[axis] = 0.0;
    if (cell_edge <= 0) continue;
    const double s =
        std::min(1.0, (avg_a[axis] + 2.0 * epsilon + avg_b[axis]) /
                          (2.0 * cell_edge));
    same[axis] = 2.0 * s - s * s;
    adjacent[axis] = s * s / 2.0;
  }
  const auto b_at = [&](int x, int y, int z) -> double {
    if (x < 0 || y < 0 || z < 0 || x >= res || y >= res || z >= res) return 0;
    return hb[(static_cast<size_t>(x) * res + y) * res + z];
  };
  double expected = 0;
  double peak = 0;
  size_t occupied = 0;
  for (int x = 0; x < res; ++x) {
    for (int y = 0; y < res; ++y) {
      for (int z = 0; z < res; ++z) {
        const double a_count =
            ha[(static_cast<size_t>(x) * res + y) * res + z];
        if (a_count <= 0) continue;
        double b_weighted = 0;
        for (int dx = -1; dx <= 1; ++dx) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dz = -1; dz <= 1; ++dz) {
              b_weighted += (dx == 0 ? same[0] : adjacent[0]) *
                            (dy == 0 ? same[1] : adjacent[1]) *
                            (dz == 0 ? same[2] : adjacent[2]) *
                            b_at(x + dx, y + dy, z + dz);
            }
          }
        }
        const double contribution = a_count * b_weighted;
        if (contribution <= 0) continue;
        expected += contribution;
        peak = std::max(peak, contribution);
        ++occupied;
      }
    }
  }
  estimate.expected_results = expected;
  estimate.selectivity =
      expected / (static_cast<double>(a.count) * static_cast<double>(b.count));
  if (occupied > 0 && expected > 0) {
    estimate.pair_skew = peak / (expected / static_cast<double>(occupied));
  }
  return estimate;
}

void ExpectMatchesReference(const DatasetStats& a, const DatasetStats& b,
                            float epsilon) {
  const PairEstimate got = CombineHistograms(a, b, epsilon);
  const PairEstimate want = ReferenceCombine(a, b, epsilon);
  const auto expect_close = [](double actual, double reference,
                               const char* what) {
    if (reference == 0) {
      EXPECT_EQ(actual, 0) << what;
      return;
    }
    EXPECT_LE(std::abs(actual - reference) / std::abs(reference), 1e-12)
        << what << ": " << actual << " vs reference " << reference;
  };
  expect_close(got.expected_results, want.expected_results,
               "expected_results");
  expect_close(got.pair_skew, want.pair_skew, "pair_skew");
  expect_close(got.selectivity, want.selectivity, "selectivity");
}

TEST(PairEstimateTest, SeparableMatchesStencilReference) {
  const auto stats = [](Distribution distribution, size_t n, uint64_t seed,
                        const SyntheticOptions& options = {}) {
    return ComputeDatasetStats(GenerateSynthetic(distribution, n, seed, options));
  };
  for (const Distribution distribution :
       {Distribution::kUniform, Distribution::kClustered,
        Distribution::kGaussian}) {
    SCOPED_TRACE(DistributionName(distribution));
    const DatasetStats a = stats(distribution, 6000, 201);
    const DatasetStats b = stats(distribution, 9000, 202);
    for (const float epsilon : {0.0f, 2.0f, 10.0f}) {
      SCOPED_TRACE(epsilon);
      ExpectMatchesReference(a, b, epsilon);
    }
  }
  {
    SCOPED_TRACE("uniform x clustered, different extents");
    SyntheticOptions small_space;
    small_space.space = 600.0f;
    ExpectMatchesReference(stats(Distribution::kUniform, 5000, 203, small_space),
                           stats(Distribution::kClustered, 7000, 204), 3.0f);
  }
  {
    // Boxes large against the domain cap the joint grid below 32 cells per
    // axis (1000 / (4 * ~20) = 12).
    SCOPED_TRACE("cell-capped joint resolution");
    SyntheticOptions big_boxes;
    big_boxes.max_side = 40.0f;
    const DatasetStats sa = stats(Distribution::kUniform, 3000, 205, big_boxes);
    const DatasetStats sb = stats(Distribution::kGaussian, 4000, 206, big_boxes);
    Box domain = sa.extent;
    domain.ExpandToContain(sb.extent);
    const Vec3 extent = domain.Extent();
    const float max_avg = std::max(
        {sa.avg_object_extent.x, sa.avg_object_extent.y,
         sa.avg_object_extent.z, sb.avg_object_extent.x,
         sb.avg_object_extent.y, sb.avg_object_extent.z});
    ASSERT_LT(CellSizeCappedResolution(
                  std::min({extent.x, extent.y, extent.z}), max_avg,
                  kHistogramResolution),
              kHistogramResolution);
    ExpectMatchesReference(sa, sb, 1.0f);
  }
  {
    // Flat data: every z is 5, so one axis has zero extent.
    SCOPED_TRACE("zero-extent axis");
    Dataset a = GenerateSynthetic(Distribution::kClustered, 4000, 207);
    Dataset b = GenerateSynthetic(Distribution::kUniform, 5000, 208);
    for (Dataset* boxes : {&a, &b}) {
      for (Box& box : *boxes) {
        box.lo.z = 5.0f;
        box.hi.z = 5.0f;
      }
    }
    ExpectMatchesReference(ComputeDatasetStats(a), ComputeDatasetStats(b),
                           1.0f);
  }
  for (const int src_res : {20, 48}) {
    // Stats histogrammed at another resolution, as a peer may ship them.
    SCOPED_TRACE(src_res);
    const auto remote = [src_res](const Dataset& boxes) {
      DatasetStats decoded;
      EXPECT_TRUE(DeserializeDatasetStats(
          SerializeDatasetStats(ComputeDatasetStats(boxes, src_res)),
          &decoded));
      return decoded;
    };
    const DatasetStats a =
        remote(GenerateSynthetic(Distribution::kClustered, 6000, 209));
    const DatasetStats b =
        remote(GenerateSynthetic(Distribution::kGaussian, 8000, 210));
    ASSERT_EQ(a.histogram_resolution, src_res);
    ExpectMatchesReference(a, b, 2.0f);
    ExpectMatchesReference(a, stats(Distribution::kUniform, 5000, 211), 2.0f);
  }
  {
    SCOPED_TRACE("one empty side");
    const DatasetStats full = stats(Distribution::kUniform, 1000, 212);
    const DatasetStats empty = ComputeDatasetStats(Dataset{});
    ExpectMatchesReference(full, empty, 1.0f);
    ExpectMatchesReference(empty, full, 1.0f);
  }
}

// --- DatasetStats serialization (round-trip without geometry) --------------

TEST(DatasetStatsSerializationTest, RoundTripsExactly) {
  const DatasetStats stats = ComputeDatasetStats(
      GenerateSynthetic(Distribution::kClustered, 5000, 77));
  const std::vector<uint8_t> bytes = SerializeDatasetStats(stats);
  DatasetStats decoded;
  ASSERT_TRUE(DeserializeDatasetStats(bytes, &decoded));
  EXPECT_EQ(decoded.count, stats.count);
  EXPECT_EQ(decoded.extent, stats.extent);
  EXPECT_FLOAT_EQ(decoded.avg_object_extent.x, stats.avg_object_extent.x);
  EXPECT_FLOAT_EQ(decoded.avg_object_extent.y, stats.avg_object_extent.y);
  EXPECT_FLOAT_EQ(decoded.avg_object_extent.z, stats.avg_object_extent.z);
  EXPECT_EQ(decoded.density, stats.density);
  EXPECT_EQ(decoded.histogram_resolution, stats.histogram_resolution);
  EXPECT_EQ(decoded.histogram, stats.histogram);
  EXPECT_EQ(decoded.HistogramSkew(), stats.HistogramSkew());
}

TEST(DatasetStatsSerializationTest, EmptyStatsRoundTrip) {
  const DatasetStats stats = ComputeDatasetStats(Dataset{});
  DatasetStats decoded;
  ASSERT_TRUE(DeserializeDatasetStats(SerializeDatasetStats(stats), &decoded));
  EXPECT_EQ(decoded.count, 0u);
  EXPECT_TRUE(decoded.histogram.empty());
}

TEST(DatasetStatsSerializationTest, RejectsCorruptedInput) {
  const DatasetStats stats = ComputeDatasetStats(
      GenerateSynthetic(Distribution::kUniform, 200, 9));
  const std::vector<uint8_t> bytes = SerializeDatasetStats(stats);
  DatasetStats decoded;
  // Truncated at every prefix length, wrong version, and trailing garbage.
  for (const size_t cut : {size_t{0}, size_t{3}, size_t{20}, bytes.size() - 1}) {
    EXPECT_FALSE(DeserializeDatasetStats(
        std::span<const uint8_t>(bytes.data(), cut), &decoded))
        << "cut=" << cut;
  }
  std::vector<uint8_t> wrong_version = bytes;
  wrong_version[0] ^= 0xff;
  EXPECT_FALSE(DeserializeDatasetStats(wrong_version, &decoded));
  std::vector<uint8_t> overlong = bytes;
  overlong.push_back(0);
  EXPECT_FALSE(DeserializeDatasetStats(overlong, &decoded));
}

// Stats may arrive from untrusted peers: a header claiming 2^21 cells/axis
// with a histogram size whose byte count wraps uint64 to zero must be
// rejected up front, never allocated.
TEST(DatasetStatsSerializationTest, RejectsResolutionBomb) {
  std::vector<uint8_t> bomb =
      SerializeDatasetStats(ComputeDatasetStats(Dataset{}));
  // Layout: version(4) count(8) extents+avg floats(36) density(8)
  // resolution(4) histogram_size(8).
  const size_t resolution_offset = 4 + 8 + 36 + 8;
  ASSERT_EQ(bomb.size(), resolution_offset + 4 + 8);
  const int32_t huge_resolution = 1 << 21;
  const uint64_t wrapping_cells = uint64_t{1} << 63;  // * 4 wraps to 0 bytes
  std::memcpy(bomb.data() + resolution_offset, &huge_resolution, 4);
  std::memcpy(bomb.data() + resolution_offset + 4, &wrapping_cells, 8);
  DatasetStats decoded;
  EXPECT_FALSE(DeserializeDatasetStats(bomb, &decoded));
}

// Stats that traveled without their geometry plan identically — the sharded
// catalog's contract: shipping DatasetStats is all planning ever needs.
TEST(DatasetStatsSerializationTest, DeserializedStatsPlanIdentically) {
  const DatasetStats a = ComputeDatasetStats(
      GenerateSynthetic(Distribution::kClustered, 30000, 10));
  const DatasetStats b = ComputeDatasetStats(
      GenerateSynthetic(Distribution::kClustered, 60000, 11));
  DatasetStats remote_a;
  DatasetStats remote_b;
  ASSERT_TRUE(DeserializeDatasetStats(SerializeDatasetStats(a), &remote_a));
  ASSERT_TRUE(DeserializeDatasetStats(SerializeDatasetStats(b), &remote_b));

  const Planner planner;
  const JoinPlan local = planner.Plan(a, b, 1.0f);
  const JoinPlan remote = planner.Plan(remote_a, remote_b, 1.0f);
  EXPECT_EQ(local.algorithm, remote.algorithm);
  EXPECT_EQ(local.build_on_a, remote.build_on_a);
  EXPECT_EQ(local.rationale, remote.rationale);
  EXPECT_DOUBLE_EQ(local.expected_results, remote.expected_results);
}

TEST(DatasetCatalogTest, RegisterAndLookup) {
  DatasetCatalog catalog;
  const DatasetHandle parcels = catalog.Register(
      "parcels", GenerateSynthetic(Distribution::kUniform, 100, 1));
  const DatasetHandle roads = catalog.Register(
      "roads", GenerateSynthetic(Distribution::kUniform, 200, 2));

  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_TRUE(catalog.Contains(parcels));
  EXPECT_FALSE(catalog.Contains(99));
  EXPECT_EQ(catalog.name(parcels), "parcels");
  EXPECT_EQ(catalog.boxes(roads).size(), 200u);
  EXPECT_EQ(catalog.stats(parcels).count, 100u);
  EXPECT_EQ(catalog.Find("roads"), roads);
  EXPECT_EQ(catalog.Find("missing"), std::nullopt);
}

TEST(DatasetCatalogTest, ReferencesStayStableAcrossRegistrations) {
  DatasetCatalog catalog;
  const DatasetHandle first = catalog.Register(
      "first", GenerateSynthetic(Distribution::kUniform, 50, 3));
  const Dataset* boxes = &catalog.boxes(first);
  const DatasetStats* stats = &catalog.stats(first);
  for (int i = 0; i < 20; ++i) {
    catalog.Register("other", GenerateSynthetic(Distribution::kUniform, 50, i));
  }
  EXPECT_EQ(boxes, &catalog.boxes(first));
  EXPECT_EQ(stats, &catalog.stats(first));
}

TEST(DatasetCatalogTest, DuplicateNamesResolveToLatest) {
  DatasetCatalog catalog;
  catalog.Register("data", GenerateSynthetic(Distribution::kUniform, 10, 4));
  const DatasetHandle second = catalog.Register(
      "data", GenerateSynthetic(Distribution::kUniform, 20, 5));
  EXPECT_EQ(catalog.Find("data"), second);
}

TEST(DatasetCatalogTest, EngineRejectsNanAndInvertedBoxesAtRegistration) {
  // IsApplicableBox's policy holds at the engine's front door: the first
  // bad box is named, and nothing reaches the catalog (or its stats).
  Dataset nan_box(4, Box(Vec3(0, 0, 0), Vec3(1, 1, 1)));
  nan_box[1].lo.y = std::numeric_limits<float>::quiet_NaN();
  Dataset inverted(4, Box(Vec3(0, 0, 0), Vec3(1, 1, 1)));
  inverted[2].lo.z = 2.0f;
  inverted[3].lo.x = 2.0f;
  QueryEngine engine;
  try {
    engine.RegisterDataset("nan", nan_box);
    ADD_FAILURE() << "NaN box accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'nan' box 1"), std::string::npos)
        << e.what();
  }
  try {
    engine.RegisterDataset("inverted", inverted, DatasetStats{});
    ADD_FAILURE() << "inverted box accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'inverted' box 2"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine.catalog().size(), 0u);
}

TEST(DatasetCatalogTest, CatalogRejectsNanAndInvertedBoxesAtRegistration) {
  // The catalog is the choke point: registering straight into it (no
  // engine in front) rejects the same boxes, with or without given stats.
  Dataset nan_box(3, Box(Vec3(0, 0, 0), Vec3(1, 1, 1)));
  nan_box[2].hi.x = std::numeric_limits<float>::quiet_NaN();
  Dataset inverted(3, Box(Vec3(0, 0, 0), Vec3(1, 1, 1)));
  inverted[1].lo.y = 2.0f;
  DatasetCatalog catalog;
  try {
    catalog.Register("nan", nan_box);
    ADD_FAILURE() << "NaN box accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'nan' box 2"), std::string::npos)
        << e.what();
  }
  try {
    catalog.Register("inverted", inverted, DatasetStats{});
    ADD_FAILURE() << "inverted box accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'inverted' box 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(catalog.size(), 0u);
}

}  // namespace
}  // namespace touch
