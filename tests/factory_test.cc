#include "core/factory.h"

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "test_util.h"

namespace touch {
namespace {

// Every accepted name must round-trip: construct, report a name, and produce
// exactly the oracle's result set on a dense input.
TEST(FactoryTest, EveryNameConstructsAndJoinsCorrectly) {
  Dataset a = GenerateSynthetic(Distribution::kClustered, 150, 31);
  for (Box& box : a) box = box.Enlarged(8.0f);
  const Dataset b = GenerateSynthetic(Distribution::kClustered, 250, 32);
  const auto oracle = OracleJoin(a, b);
  ASSERT_FALSE(oracle.empty());

  for (const std::string& name : AllAlgorithmNames()) {
    const std::unique_ptr<SpatialJoinAlgorithm> algorithm = MakeAlgorithm(name);
    ASSERT_NE(algorithm, nullptr) << name;
    EXPECT_FALSE(algorithm->name().empty()) << name;
    EXPECT_EQ(RunJoinSorted(*algorithm, a, b), oracle) << name;
  }
}

TEST(FactoryTest, ParameterizedNamesApplyTheirResolution) {
  const std::unique_ptr<SpatialJoinAlgorithm> algorithm =
      MakeAlgorithm("pbsm-123");
  ASSERT_NE(algorithm, nullptr);
  EXPECT_EQ(static_cast<const PbsmJoin*>(algorithm.get())
                ->options()
                .resolution,
            123);
}

TEST(FactoryTest, UnknownNamesReturnNull) {
  EXPECT_EQ(MakeAlgorithm(""), nullptr);
  EXPECT_EQ(MakeAlgorithm("bogus"), nullptr);
  EXPECT_EQ(MakeAlgorithm("TOUCH"), nullptr);
  EXPECT_EQ(MakeAlgorithm("pbsm-0"), nullptr);
  EXPECT_EQ(MakeAlgorithm("pbsm--5"), nullptr);
  EXPECT_EQ(MakeAlgorithm("pbsm-abc"), nullptr);
}

TEST(FactoryTest, UnknownAlgorithmMessageNamesCulpritAndAcceptedList) {
  const std::string message = UnknownAlgorithmMessage("bogus");
  EXPECT_NE(message.find("'bogus'"), std::string::npos);
  for (const std::string& name : AllAlgorithmNames()) {
    EXPECT_NE(message.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace touch
