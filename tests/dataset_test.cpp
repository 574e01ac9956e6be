#include "workload/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "workload/generator.h"

namespace rcj {
namespace {

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += "/";
  path += name;
  return path;
}

TEST(DatasetTest, CsvRoundtrip) {
  const std::string path = TempPath("ringjoin_dataset.csv");
  Dataset original{"test", GenerateUniform(200, 5)};
  ASSERT_TRUE(SaveCsv(original, path).ok());
  Result<Dataset> loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().points.size(), original.points.size());
  for (size_t i = 0; i < original.points.size(); ++i) {
    EXPECT_EQ(loaded.value().points[i].id, original.points[i].id);
    // %.17g roundtrips doubles exactly.
    EXPECT_DOUBLE_EQ(loaded.value().points[i].pt.x, original.points[i].pt.x);
    EXPECT_DOUBLE_EQ(loaded.value().points[i].pt.y, original.points[i].pt.y);
  }
  std::remove(path.c_str());
}

TEST(DatasetTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadCsv(TempPath("ringjoin_nope.csv")).ok());
}

TEST(DatasetTest, LoadMalformedCsvFails) {
  const std::string path = TempPath("ringjoin_malformed.csv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "id,x,y\n1,2.0,3.0\nnot-a-number,x,y\n");
    std::fclose(f);
  }
  Result<Dataset> loaded = LoadCsv(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rcj
