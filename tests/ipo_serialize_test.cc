#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

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

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Byte offset of the A-set flag (see the layout in ipo_serialize.cc): magic
// and version, the fingerprint, then one u64-counted u32 choice list per
// nominal dimension of the template.
size_t AsetFlagOffset(const PreferenceProfile& tmpl) {
  size_t offset = 4 + 4 + 8 + 4 + 4 * tmpl.num_nominal();
  for (size_t j = 0; j < tmpl.num_nominal(); ++j) {
    offset += 8 + 4 * tmpl.pref(j).choices().size();
  }
  return offset;
}

// Byte offset of the first node's A-set record: after the flag,
// max_values_per_dim, the skyline list and the allowed-value lists.
size_t FirstNodeOffset(const IpoTreeEngine& tree,
                       const PreferenceProfile& tmpl) {
  size_t offset =
      AsetFlagOffset(tmpl) + 1 + 8 + 8 + 4 * tree.template_skyline().size();
  for (size_t j = 0; j < tmpl.num_nominal(); ++j) {
    offset += 8 + 4 * tree.allowed_values(j).size();
  }
  return offset;
}

// Parameter: max_values_per_dim (the full tree, or IPO-Tree-3).
class IpoSerializeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IpoSerializeTest, SaveLoadRoundTrip) {
  gen::GenConfig config;
  config.num_rows = 300;
  config.cardinality = 6;
  config.seed = 11;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);

  IpoTreeEngine::Options opts;
  opts.max_values_per_dim = GetParam();
  IpoTreeEngine original(data, tmpl, opts);

  // One file per parameter: ctest may run the instances concurrently.
  std::string path = TempPath(GetParam() == SIZE_MAX ? "full" : "topk");
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

constexpr size_t kSerializeParams[] = {SIZE_MAX, 3};

INSTANTIATE_TEST_SUITE_P(
    Variants, IpoSerializeTest, ::testing::ValuesIn(kSerializeParams),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(info.param == SIZE_MAX ? "bitmap_full"
                                                : "bitmap_topk");
    });

// The A-set flag byte once chose sorted-vector A-sets; both modes stored
// the same row-id lists, so an image written with 0 must load into the
// same tree and answer identically. Any other flag value is malformed.
TEST(IpoSerializeFormatTest, AsetFlagZeroLoadsTheSameTree) {
  gen::GenConfig config;
  config.num_rows = 300;
  config.cardinality = 5;
  config.seed = 19;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  IpoTreeEngine original(data, tmpl);
  std::string path = TempPath("flag");
  ASSERT_TRUE(original.Save(path).ok());
  std::vector<char> bytes = ReadBytes(path);
  const size_t flag = AsetFlagOffset(tmpl);
  ASSERT_LT(flag, bytes.size());
  ASSERT_EQ(bytes[flag], 1);

  bytes[flag] = 0;
  WriteBytes(path, bytes);
  auto loaded = IpoTreeEngine::Load(data, tmpl, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->build_stats().total_disqualified,
            original.build_stats().total_disqualified);
  Rng rng(20);
  for (int rep = 0; rep < 200; ++rep) {
    PreferenceProfile query =
        gen::RandomImplicitQuery(data, tmpl, 1 + rep % 3, &rng);
    EXPECT_EQ((*loaded)->Query(query).ValueOrDie(),
              original.Query(query).ValueOrDie())
        << "rep " << rep;
  }

  bytes[flag] = 2;
  WriteBytes(path, bytes);
  EXPECT_TRUE(
      IpoTreeEngine::Load(data, tmpl, path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

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

// Every A-set row must be a skyline row. A row outside S has no position
// in the bitmap; accepting it would silently disqualify S[0] instead.
TEST(IpoSerializeErrorsTest, ASetRowOutsideTheSkylineRejected) {
  gen::GenConfig config;
  config.num_rows = 300;
  config.cardinality = 5;
  config.seed = 21;
  Dataset data = gen::Generate(config);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  IpoTreeEngine tree(data, tmpl);
  ASSERT_GT(tree.build_stats().total_disqualified, 0u);
  const std::vector<RowId>& sky = tree.template_skyline();
  RowId outside = 0;
  while (std::binary_search(sky.begin(), sky.end(), outside)) ++outside;
  ASSERT_LT(outside, data.num_rows());

  std::string path = TempPath("outside");
  ASSERT_TRUE(tree.Save(path).ok());
  std::vector<char> bytes = ReadBytes(path);
  // Walk the node records (u64 count + u32 rows each) to the first
  // non-empty A-set and point its first row outside the skyline.
  size_t offset = FirstNodeOffset(tree, tmpl);
  uint64_t count = 0;
  for (;;) {
    ASSERT_LE(offset + 8, bytes.size());
    std::memcpy(&count, bytes.data() + offset, 8);
    if (count > 0) break;
    offset += 8;
  }
  ASSERT_LE(offset + 12, bytes.size());
  const uint32_t bad_row = outside;
  std::memcpy(bytes.data() + offset + 8, &bad_row, sizeof(bad_row));
  WriteBytes(path, bytes);
  EXPECT_TRUE(
      IpoTreeEngine::Load(data, tmpl, path).status().IsInvalidArgument());
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
