#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/rng.h"
#include "core/ipo_tree.h"
#include "datagen/generator.h"

namespace nomsky {
namespace {

std::vector<RowId> Sorted(std::vector<RowId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/nomsky_ipo_" + name + ".bin";
}

struct SerializeParam {
  bool use_bitmaps;
  size_t topk;
};

class IpoSerializeTest : public ::testing::TestWithParam<SerializeParam> {};

TEST_P(IpoSerializeTest, SaveLoadRoundTrip) {
  const auto& param = GetParam();
  gen::GenConfig config;
  config.num_rows = 300;
  config.cardinality = 6;
  config.seed = 11;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);

  IpoTreeEngine::Options opts;
  opts.use_bitmaps = param.use_bitmaps;
  opts.max_values_per_dim = param.topk;
  IpoTreeEngine original(data, tmpl, opts);

  std::string path = TempPath(param.use_bitmaps ? "bm" : "vec");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = IpoTreeEngine::Load(data, tmpl, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->template_skyline(), original.template_skyline());
  EXPECT_EQ((*loaded)->build_stats().num_nodes,
            original.build_stats().num_nodes);
  EXPECT_EQ((*loaded)->build_stats().total_disqualified,
            original.build_stats().total_disqualified);

  Rng rng(12);
  for (int rep = 0; rep < 10; ++rep) {
    PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 3, &rng);
    auto a = original.Query(query);
    auto b = (*loaded)->Query(query);
    ASSERT_EQ(a.ok(), b.ok()) << "rep " << rep;
    if (a.ok()) {
      EXPECT_EQ(Sorted(*a), Sorted(*b)) << "rep " << rep;
    } else {
      EXPECT_EQ(a.status().code(), b.status().code());
    }
  }
  std::remove(path.c_str());
}

// gtest prints each parameter as a byte dump, padding included, and that
// dump is part of the discovered ctest name. A static array is
// zero-initialized before its values are set, so its padding bytes are zero
// and the names stay the same from run to run.
constexpr SerializeParam kSerializeParams[] = {
    {false, SIZE_MAX}, {true, SIZE_MAX}, {false, 3}, {true, 3}};

INSTANTIATE_TEST_SUITE_P(
    Variants, IpoSerializeTest, ::testing::ValuesIn(kSerializeParams),
    [](const ::testing::TestParamInfo<SerializeParam>& info) {
      std::string name = info.param.use_bitmaps ? "bitmap" : "vector";
      name += info.param.topk == SIZE_MAX ? "_full" : "_topk";
      return name;
    });

TEST(IpoSerializeErrorsTest, MissingFile) {
  gen::GenConfig config;
  config.num_rows = 50;
  config.seed = 13;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl(data.schema());
  EXPECT_TRUE(
      IpoTreeEngine::Load(data, tmpl, "/no/such/file").status().IsNotFound());
}

TEST(IpoSerializeErrorsTest, GarbageFileRejected) {
  gen::GenConfig config;
  config.num_rows = 50;
  config.seed = 14;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl(data.schema());
  std::string path = TempPath("garbage");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not an ipo tree";
  }
  EXPECT_TRUE(
      IpoTreeEngine::Load(data, tmpl, path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(IpoSerializeErrorsTest, VersionMismatchRejected) {
  gen::GenConfig config;
  config.num_rows = 60;
  config.cardinality = 4;
  config.seed = 18;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  IpoTreeEngine tree(data, tmpl);
  std::string path = TempPath("version");
  ASSERT_TRUE(tree.Save(path).ok());
  {
    // Layout: magic "NIPO" (4 bytes), then version u32 at offset 4. A
    // future version behind the right magic must be refused, not parsed.
    std::fstream patch(path,
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(4);
    const uint32_t future = 99;
    patch.write(reinterpret_cast<const char*>(&future), sizeof(future));
  }
  EXPECT_TRUE(
      IpoTreeEngine::Load(data, tmpl, path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(IpoSerializeErrorsTest, TruncatedFileRejected) {
  gen::GenConfig config;
  config.num_rows = 100;
  config.cardinality = 4;
  config.seed = 15;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  IpoTreeEngine tree(data, tmpl);
  std::string path = TempPath("trunc");
  ASSERT_TRUE(tree.Save(path).ok());
  // Truncate the file to half.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  auto size = in.tellg();
  in.seekg(0);
  std::vector<char> bytes(static_cast<size_t>(size) / 2);
  in.read(bytes.data(), bytes.size());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), bytes.size());
  }
  EXPECT_FALSE(IpoTreeEngine::Load(data, tmpl, path).ok());
  std::remove(path.c_str());
}

TEST(IpoSerializeErrorsTest, DatasetMismatchRejected) {
  gen::GenConfig config;
  config.num_rows = 100;
  config.seed = 16;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  IpoTreeEngine tree(data, tmpl);
  std::string path = TempPath("mismatch");
  ASSERT_TRUE(tree.Save(path).ok());

  config.num_rows = 101;  // different dataset
  Dataset other = gen::Generate(config);
  PreferenceProfile other_tmpl = gen::MostFrequentTemplate(other);
  EXPECT_TRUE(IpoTreeEngine::Load(other, other_tmpl, path)
                  .status()
                  .IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(IpoSerializeErrorsTest, TemplateMismatchRejected) {
  gen::GenConfig config;
  config.num_rows = 100;
  config.cardinality = 4;
  config.seed = 17;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  IpoTreeEngine tree(data, tmpl);
  std::string path = TempPath("tmpl_mismatch");
  ASSERT_TRUE(tree.Save(path).ok());
  PreferenceProfile empty(data.schema());
  EXPECT_TRUE(
      IpoTreeEngine::Load(data, empty, path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nomsky
