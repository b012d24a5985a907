#include "io/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "datagen/distributions.h"
#include "test_util.h"

namespace touch {
namespace {

/// Unique temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + "/touch_io_" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(BoxBinaryIoTest, RoundTripsExactly) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 2000, 7);
  TempFile file("boxes.bin");
  ASSERT_TRUE(WriteBoxesBinary(file.path(), boxes).ok);
  Dataset loaded;
  ASSERT_TRUE(ReadBoxesBinary(file.path(), &loaded).ok);
  ASSERT_EQ(loaded.size(), boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(loaded[i], boxes[i]) << i;
  }
}

TEST(BoxBinaryIoTest, EmptyDatasetRoundTrips) {
  TempFile file("empty.bin");
  ASSERT_TRUE(WriteBoxesBinary(file.path(), {}).ok);
  Dataset loaded = {CenteredBox(1, 1, 1)};  // must be cleared by the read
  ASSERT_TRUE(ReadBoxesBinary(file.path(), &loaded).ok);
  EXPECT_TRUE(loaded.empty());
}

TEST(BoxBinaryIoTest, MissingFileFails) {
  Dataset loaded;
  const IoStatus status = ReadBoxesBinary("/nonexistent/nowhere.bin", &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("cannot open"), std::string::npos);
}

TEST(BoxBinaryIoTest, WrongMagicFails) {
  TempFile file("notboxes.bin");
  std::ofstream(file.path()) << "definitely not a TSJB file at all";
  Dataset loaded;
  const IoStatus status = ReadBoxesBinary(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("magic"), std::string::npos);
}

TEST(BoxBinaryIoTest, TruncatedPayloadFails) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 100, 8);
  TempFile file("trunc.bin");
  ASSERT_TRUE(WriteBoxesBinary(file.path(), boxes).ok);
  // Chop the file to half its size.
  std::ifstream in(file.path(), std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(file.path(), std::ios::binary)
      << contents.substr(0, contents.size() / 2);
  Dataset loaded;
  const IoStatus status = ReadBoxesBinary(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("truncated"), std::string::npos);
  EXPECT_TRUE(loaded.empty());  // no partial results
}

/// Writes a binary header (magic, format version 1) followed by the given
/// 64-bit counts and `payload_bytes` zero bytes: the shape of a corrupt
/// file whose counts promise far more than it holds.
void WriteCountsOnly(const std::string& path, const char magic[4],
                     std::initializer_list<uint64_t> counts,
                     size_t payload_bytes = 0) {
  std::ofstream out(path, std::ios::binary);
  const uint32_t version = 1;
  out.write(magic, 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  for (const uint64_t count : counts) {
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  out << std::string(payload_bytes, '\0');
}

TEST(BoxBinaryIoTest, HugeDeclaredCountFailsWithoutAllocating) {
  TempFile file("huge.bin");
  WriteCountsOnly(file.path(), "TSJB", {uint64_t{1} << 40});
  Dataset loaded;
  const IoStatus status = ReadBoxesBinary(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("truncated"), std::string::npos);
  EXPECT_TRUE(loaded.empty());
}

TEST(BoxBinaryIoTest, CountWhoseByteSizeOverflowsFails) {
  // count * sizeof(Box) wraps around 2^64 to a handful of bytes, which the
  // payload does hold: only a division-based bound rejects it.
  const uint64_t count = UINT64_MAX / sizeof(Box) + 1;
  TempFile file("wrap.bin");
  WriteCountsOnly(file.path(), "TSJB", {count},
                  static_cast<size_t>(count * sizeof(Box)));
  Dataset loaded;
  const IoStatus status = ReadBoxesBinary(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_TRUE(loaded.empty());
}

TEST(BoxCsvIoTest, RoundTripsWithFloatFidelity) {
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 500, 9);
  TempFile file("boxes.csv");
  ASSERT_TRUE(WriteBoxesCsv(file.path(), boxes).ok);
  Dataset loaded;
  ASSERT_TRUE(ReadBoxesCsv(file.path(), &loaded).ok);
  ASSERT_EQ(loaded.size(), boxes.size());
  // %.9g prints floats exactly; the round trip must be bit-faithful.
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(loaded[i], boxes[i]) << i;
  }
}

TEST(BoxCsvIoTest, MalformedLineReportsLineNumber) {
  TempFile file("bad.csv");
  std::ofstream(file.path()) << "lo_x,lo_y,lo_z,hi_x,hi_y,hi_z\n"
                             << "1,2,3,4,5,6\n"
                             << "1,2,three,4,5,6\n";
  Dataset loaded;
  const IoStatus status = ReadBoxesCsv(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("line 3"), std::string::npos);
}

TEST(BoxCsvIoTest, HeaderlessFileStillParses) {
  TempFile file("raw.csv");
  std::ofstream(file.path()) << "0,0,0,1,1,1\n2,2,2,3,3,3\n";
  Dataset loaded;
  ASSERT_TRUE(ReadBoxesCsv(file.path(), &loaded).ok);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1], MakeBox(2, 2, 2, 3, 3, 3));
}

TEST(BoxCsvIoTest, NanCoordinateIsRejectedWithItsLine) {
  TempFile file("nan.csv");
  std::ofstream(file.path()) << "lo_x,lo_y,lo_z,hi_x,hi_y,hi_z\n"
                             << "0,0,0,1,1,1\n"
                             << "nan,0,0,1,1,1\n";
  Dataset loaded;
  const IoStatus status = ReadBoxesCsv(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find(file.path()), std::string::npos);
  EXPECT_NE(status.message.find("line 3"), std::string::npos);
  EXPECT_TRUE(loaded.empty());
}

TEST(BoxCsvIoTest, InvertedBoxIsRejectedWithItsLine) {
  TempFile file("inverted.csv");
  std::ofstream(file.path()) << "0,0,0,1,1,1\n"
                             << "5,5,5,4,6,6\n";
  Dataset loaded;
  const IoStatus status = ReadBoxesCsv(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("line 2"), std::string::npos);
  EXPECT_TRUE(loaded.empty());
}

TEST(BoxBinaryIoTest, NanInPayloadIsRejectedWithItsIndex) {
  Dataset boxes = GenerateSynthetic(Distribution::kUniform, 10, 12);
  boxes[7].hi.y = std::numeric_limits<float>::quiet_NaN();
  TempFile file("nan.bin");
  ASSERT_TRUE(WriteBoxesBinary(file.path(), boxes).ok);
  Dataset loaded;
  const IoStatus status = ReadBoxesBinary(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find(file.path()), std::string::npos);
  EXPECT_NE(status.message.find("box 7"), std::string::npos);
  EXPECT_TRUE(loaded.empty());
}

TEST(NeuroIoTest, RoundTripsModel) {
  NeuroModel model;
  for (int i = 0; i < 50; ++i) {
    const float f = static_cast<float>(i);
    model.axons.emplace_back(Vec3(f, 0, 0), Vec3(f + 1, 1, 0), 0.5f);
    model.dendrites.emplace_back(Vec3(0, f, 0), Vec3(1, f + 1, 0), 0.25f);
    model.dendrites.emplace_back(Vec3(0, f, 5), Vec3(1, f + 1, 5), 0.25f);
  }
  TempFile file("model.bin");
  ASSERT_TRUE(WriteNeuroModelBinary(file.path(), model).ok);
  NeuroModel loaded;
  ASSERT_TRUE(ReadNeuroModelBinary(file.path(), &loaded).ok);
  ASSERT_EQ(loaded.axons.size(), model.axons.size());
  ASSERT_EQ(loaded.dendrites.size(), model.dendrites.size());
  for (size_t i = 0; i < model.axons.size(); ++i) {
    EXPECT_EQ(loaded.axons[i].Mbr(), model.axons[i].Mbr());
    EXPECT_EQ(loaded.axons[i].radius, model.axons[i].radius);
  }
}

TEST(NeuroIoTest, HugeDeclaredCountsFailWithoutAllocating) {
  // Each count alone, and two counts that fit one at a time but not
  // together.
  const uint64_t huge = uint64_t{1} << 40;
  const uint64_t wraps = UINT64_MAX / sizeof(Cylinder) + 1;
  const std::vector<std::vector<uint64_t>> cases = {
      {huge, 0}, {0, huge}, {wraps, 0}, {1, 1}};
  for (const std::vector<uint64_t>& counts : cases) {
    TempFile file("huge_model.bin");
    WriteCountsOnly(file.path(), "TSJC", {counts[0], counts[1]},
                    sizeof(Cylinder));
    NeuroModel loaded;
    const IoStatus status = ReadNeuroModelBinary(file.path(), &loaded);
    EXPECT_FALSE(status.ok) << counts[0] << " x " << counts[1];
    EXPECT_NE(status.message.find("truncated"), std::string::npos);
    EXPECT_TRUE(loaded.axons.empty());
    EXPECT_TRUE(loaded.dendrites.empty());
  }
}

TEST(NeuroIoTest, BoxFileRejectedAsNeuroModel) {
  TempFile file("boxes_as_model.bin");
  ASSERT_TRUE(WriteBoxesBinary(file.path(), {CenteredBox(1, 2, 3)}).ok);
  NeuroModel loaded;
  const IoStatus status = ReadNeuroModelBinary(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("magic"), std::string::npos);
}

}  // namespace
}  // namespace touch
