// Adversarial-geometry suite: every algorithm x every nasty input shape must
// still match the nested-loop oracle exactly. These scenarios target the
// assumptions spatial partitioning schemes like to make (non-degenerate
// extents, bounded overlap, positive coordinates, balanced aspect ratios).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/factory.h"
#include "test_util.h"
#include "util/rng.h"

namespace touch {
namespace {

using ScenarioFn = void (*)(Dataset* a, Dataset* b);

void AllIdentical(Dataset* a, Dataset* b) {
  *a = Dataset(80, MakeBox(5, 5, 5, 6, 6, 6));
  *b = Dataset(80, MakeBox(5.5f, 5.5f, 5.5f, 6.5f, 6.5f, 6.5f));
}

void ZeroExtentPoints(Dataset* a, Dataset* b) {
  Rng rng(1);
  for (int i = 0; i < 150; ++i) {
    const float x = static_cast<float>(rng.UniformInt(10));
    const float y = static_cast<float>(rng.UniformInt(10));
    const float z = static_cast<float>(rng.UniformInt(10));
    a->push_back(MakeBox(x, y, z, x, y, z));  // points on a lattice: many
    const float u = static_cast<float>(rng.UniformInt(10));
    b->push_back(MakeBox(u, y, z, u, y, z));  // exact coordinate collisions
  }
}

void CollinearOnOneAxis(Dataset* a, Dataset* b) {
  // Everything on the x-axis: the plane sweep's worst case and a degenerate
  // (flat) domain for every grid.
  for (int i = 0; i < 120; ++i) {
    a->push_back(MakeBox(static_cast<float>(i), 0, 0,
                         static_cast<float>(i) + 1.5f, 0, 0));
    b->push_back(MakeBox(static_cast<float>(i) + 0.7f, 0, 0,
                         static_cast<float>(i) + 2.0f, 0, 0));
  }
}

void DisjointExtents(Dataset* a, Dataset* b) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    a->push_back(CenteredBox(static_cast<float>(rng.Uniform(0, 100)),
                             static_cast<float>(rng.Uniform(0, 100)),
                             static_cast<float>(rng.Uniform(0, 100)), 2));
    b->push_back(CenteredBox(static_cast<float>(rng.Uniform(5000, 5100)),
                             static_cast<float>(rng.Uniform(0, 100)),
                             static_cast<float>(rng.Uniform(0, 100)), 2));
  }
}

void NestedContainmentChain(Dataset* a, Dataset* b) {
  // Concentric boxes: heavy overlap at every level of any hierarchy.
  for (int i = 0; i < 60; ++i) {
    const float h = 1.0f + static_cast<float>(i);
    a->push_back(CenteredBox(0, 0, 0, h));
    b->push_back(CenteredBox(0.5f, 0.5f, 0.5f, h));
  }
}

void OneGiantManyTiny(Dataset* a, Dataset* b) {
  Rng rng(3);
  a->push_back(MakeBox(-1000, -1000, -1000, 1000, 1000, 1000));
  for (int i = 0; i < 100; ++i) {
    a->push_back(CenteredBox(static_cast<float>(rng.Uniform(-50, 50)),
                             static_cast<float>(rng.Uniform(-50, 50)),
                             static_cast<float>(rng.Uniform(-50, 50)), 0.5f));
    b->push_back(CenteredBox(static_cast<float>(rng.Uniform(-900, 900)),
                             static_cast<float>(rng.Uniform(-900, 900)),
                             static_cast<float>(rng.Uniform(-900, 900)), 0.5f));
  }
}

void NegativeCoordinates(Dataset* a, Dataset* b) {
  Rng rng(4);
  for (int i = 0; i < 150; ++i) {
    a->push_back(CenteredBox(static_cast<float>(rng.Uniform(-200, -100)),
                             static_cast<float>(rng.Uniform(-200, -100)),
                             static_cast<float>(rng.Uniform(-200, -100)), 3));
    b->push_back(CenteredBox(static_cast<float>(rng.Uniform(-210, -90)),
                             static_cast<float>(rng.Uniform(-210, -90)),
                             static_cast<float>(rng.Uniform(-210, -90)), 3));
  }
}

void ExtremeAspectRatio(Dataset* a, Dataset* b) {
  // Needle boxes (GIS road segments): 1000x1x1 against compact boxes.
  Rng rng(5);
  for (int i = 0; i < 80; ++i) {
    const float y = static_cast<float>(rng.Uniform(0, 500));
    const float z = static_cast<float>(rng.Uniform(0, 500));
    a->push_back(MakeBox(0, y, z, 1000, y + 1, z + 1));
  }
  for (int i = 0; i < 200; ++i) {
    b->push_back(CenteredBox(static_cast<float>(rng.Uniform(0, 1000)),
                             static_cast<float>(rng.Uniform(0, 500)),
                             static_cast<float>(rng.Uniform(0, 500)), 2));
  }
}

void FlatPlane(Dataset* a, Dataset* b) {
  // All boxes in the z = 7 plane: a zero-extent axis for the whole domain.
  Rng rng(6);
  for (int i = 0; i < 150; ++i) {
    Box box = CenteredBox(static_cast<float>(rng.Uniform(0, 100)),
                          static_cast<float>(rng.Uniform(0, 100)), 7, 2);
    box.lo.z = box.hi.z = 7;
    a->push_back(box);
    Box other = CenteredBox(static_cast<float>(rng.Uniform(0, 100)),
                            static_cast<float>(rng.Uniform(0, 100)), 7, 2);
    other.lo.z = other.hi.z = 7;
    b->push_back(other);
  }
}

void SingleObjectEach(Dataset* a, Dataset* b) {
  a->push_back(MakeBox(0, 0, 0, 10, 10, 10));
  b->push_back(MakeBox(5, 5, 5, 15, 15, 15));
}

struct AdversarialCase {
  std::string algorithm;
  std::string scenario;
  ScenarioFn make;
};

std::string CaseName(const ::testing::TestParamInfo<AdversarialCase>& info) {
  std::string name = info.param.algorithm + "_" + info.param.scenario;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class AdversarialTest : public ::testing::TestWithParam<AdversarialCase> {};

TEST_P(AdversarialTest, MatchesNestedLoopOracle) {
  Dataset a;
  Dataset b;
  GetParam().make(&a, &b);
  const auto algorithm = MakeAlgorithm(GetParam().algorithm);
  ASSERT_NE(algorithm, nullptr);
  JoinStats stats;
  const auto pairs = RunJoinSorted(*algorithm, a, b, &stats);
  EXPECT_EQ(pairs, OracleJoin(a, b));
  EXPECT_TRUE(HasNoDuplicates(pairs));
}

std::vector<AdversarialCase> AllCases() {
  const std::vector<std::pair<std::string, ScenarioFn>> scenarios = {
      {"all_identical", AllIdentical},
      {"zero_extent_points", ZeroExtentPoints},
      {"collinear_one_axis", CollinearOnOneAxis},
      {"disjoint_extents", DisjointExtents},
      {"nested_containment", NestedContainmentChain},
      {"one_giant_many_tiny", OneGiantManyTiny},
      {"negative_coordinates", NegativeCoordinates},
      {"extreme_aspect_ratio", ExtremeAspectRatio},
      {"flat_plane", FlatPlane},
      {"single_object_each", SingleObjectEach},
  };
  const std::vector<std::string> algorithms = {
      "ps",        "pbsm-20",       "s3",          "inl",
      "rtree",     "rtree-hilbert", "rtree-tgs",   "rtree-guttman",
      "rtree-rstar", "touch"};
  std::vector<AdversarialCase> cases;
  for (const auto& algorithm : algorithms) {
    for (const auto& [name, fn] : scenarios) {
      cases.push_back(AdversarialCase{algorithm, name, fn});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AdversarialTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace touch
