// The host-speed reference. One unit has two parts of about equal cost, one for
// each kind of work a read does. The compute part is a skyline (sort by a
// monotone score, then a block-nested-loop window of dominance tests, as SFS
// does) over a fixed 2,048-row table with four numeric dimensions: like a miss.
// The small-operations part builds, hashes and looks up short query texts and
// copies a 2,048-id answer, 1,600 times: like a cache hit. Between a calm and a
// busy hour on a shared host the CPU time of served misses and batch queries
// grew 2.1-2.3x and that of cache hits 1.7x, so one kind of work alone would
// track one kind of read only. The unit belongs to the benchmark, not to the
// program, so no change to the program moves it.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "perfbench.h"

namespace perfbench {

namespace {

constexpr size_t kReferenceRows = 2048;
constexpr size_t kDims = 4;
constexpr size_t kSmallOps = 1600;
constexpr size_t kTexts = 1024;

std::vector<float> ReferenceTable() {
  std::vector<float> v(kReferenceRows * kDims);
  uint64_t state = 12345;
  auto uniform = [&] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<float>((state >> 40) & 0xFFFFFF) / 16777216.0f;
  };
  for (size_t i = 0; i < kReferenceRows; ++i) {
    const float a = uniform(), b = uniform();
    float* row = &v[i * kDims];
    row[0] = a;
    row[1] = 1 - a + 0.3f * b;  // anti-correlated with row[0]
    row[2] = uniform();
    row[3] = 0.5f * (a + uniform());
  }
  return v;
}

size_t ReferenceSkyline(const std::vector<float>& v) {
  std::vector<float> score(kReferenceRows);
  for (size_t i = 0; i < kReferenceRows; ++i) {
    score[i] = v[i * kDims] + v[i * kDims + 1] + v[i * kDims + 2] +
               v[i * kDims + 3];
  }
  std::vector<uint32_t> order(kReferenceRows);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return score[a] < score[b]; });
  std::vector<uint32_t> window;
  for (uint32_t i : order) {
    const float* p = &v[i * kDims];
    bool dominated = false;
    for (uint32_t w : window) {
      const float* q = &v[w * kDims];
      if (q[0] <= p[0] && q[1] <= p[1] && q[2] <= p[2] && q[3] <= p[3]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) window.push_back(i);
  }
  return window.size();
}

std::string Text(size_t k) {
  return "price:min stars:max group: T<M<* " + std::to_string(k * 7919);
}

struct SmallOpsInputs {
  std::unordered_map<std::string, uint32_t> texts;
  std::vector<uint32_t> answer;
};

SmallOpsInputs MakeSmallOpsInputs() {
  SmallOpsInputs in;
  for (size_t k = 0; k < kTexts; ++k) {
    in.texts.emplace(Text(k), static_cast<uint32_t>(k));
  }
  in.answer.resize(kReferenceRows);
  for (size_t i = 0; i < in.answer.size(); ++i) {
    in.answer[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  return in;
}

// Looks up kSmallOps texts, of which the first kTexts are found; returns a
// checksum of what it saw.
uint64_t ReferenceSmallOps(const SmallOpsInputs& in) {
  uint64_t sum = 0;
  for (size_t k = 0; k < kSmallOps; ++k) {
    const std::string text = Text(k % (2 * kTexts));
    auto it = in.texts.find(text);
    sum += it == in.texts.end() ? 1 : it->second;
    sum ^= std::hash<std::string>{}(text);
    const std::vector<uint32_t> copy(in.answer.begin(), in.answer.end());
    sum += copy[k % copy.size()];
  }
  return sum;
}

}  // namespace

ReferenceUnit TimeReferenceUnit() {
  static const std::vector<float> table = ReferenceTable();
  static const size_t skyline = ReferenceSkyline(table);
  static const SmallOpsInputs small = MakeSmallOpsInputs();
  static const uint64_t checksum = ReferenceSmallOps(small);
  ReferenceUnit unit;
  double start = ThreadCpuMicros();
  const size_t size = ReferenceSkyline(table);
  unit.compute_us = ThreadCpuMicros() - start;
  start = ThreadCpuMicros();
  const uint64_t sum = ReferenceSmallOps(small);
  unit.small_ops_us = ThreadCpuMicros() - start;
  NOMSKY_CHECK(size == skyline && sum == checksum);
  return unit;
}

}  // namespace perfbench
