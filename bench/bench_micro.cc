// Micro-benchmarks (google-benchmark) of the hot kernels: dominance
// comparison, rank scoring, bitset algebra, skip-list updates, and the
// IPO-tree set operations.

#include <benchmark/benchmark.h>

#include <numeric>

#include "common/bitset.h"
#include "common/rng.h"
#include "core/ipo_tree.h"
#include "core/sorted_list.h"
#include "datagen/generator.h"
#include "dominance/dominance.h"
#include "order/ranking.h"
#include "skyline/sfs.h"

namespace nomsky {
namespace {

Dataset MakeData(size_t rows, size_t nominal = 2, size_t cardinality = 20) {
  gen::GenConfig config;
  config.num_rows = rows;
  config.num_nominal = nominal;
  config.cardinality = cardinality;
  config.distribution = gen::Distribution::kAnticorrelated;
  config.seed = 42;
  return gen::Generate(config);
}

void BM_DominanceCompare(benchmark::State& state) {
  Dataset data = MakeData(10000);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  Rng rng(1);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 3, &rng);
  DominanceComparator cmp(data, query);
  RowId p = 0, q = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cmp.Compare(p, q));
    p = (p + 7) % 10000;
    q = (q + 13) % 10000;
  }
}
BENCHMARK(BM_DominanceCompare);

void BM_RankScore(benchmark::State& state) {
  Dataset data = MakeData(10000);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  RankTable ranks(data.schema(), tmpl);
  RowId r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ranks.Score(data, r));
    r = (r + 7) % 10000;
  }
}
BENCHMARK(BM_RankScore);

void BM_Presort(benchmark::State& state) {
  const size_t n = state.range(0);
  Dataset data = MakeData(n);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  RankTable ranks(data.schema(), tmpl);
  std::vector<RowId> rows(n);
  std::iota(rows.begin(), rows.end(), RowId{0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(PresortByScore(data, ranks, rows));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Presort)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BitsetAnd(benchmark::State& state) {
  const size_t bits = state.range(0);
  Rng rng(2);
  DynamicBitset a(bits), b(bits);
  for (size_t i = 0; i < bits; i += 3) a.set(i);
  for (size_t i = 0; i < bits; i += 5) b.set(i);
  for (auto _ : state) {
    DynamicBitset x = a;
    x &= b;
    benchmark::DoNotOptimize(x.count());
  }
  state.SetItemsProcessed(state.iterations() * bits);
}
BENCHMARK(BM_BitsetAnd)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_SortedListInsertErase(benchmark::State& state) {
  SortedList list;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    list.Insert({rng.UniformDouble(), static_cast<RowId>(i)});
  }
  RowId next = 10000;
  for (auto _ : state) {
    ScoreKey key{rng.UniformDouble(), next++};
    list.Insert(key);
    list.Erase(key);
  }
}
BENCHMARK(BM_SortedListInsertErase);

void BM_IpoQuery(benchmark::State& state) {
  Dataset data = MakeData(5000);
  PreferenceProfile tmpl = gen::MostFrequentTemplate(data);
  IpoTreeEngine tree(data, tmpl);
  Rng rng(4);
  PreferenceProfile query = gen::RandomImplicitQuery(data, tmpl, 3, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Query(query).ValueOrDie());
  }
}
BENCHMARK(BM_IpoQuery);

}  // namespace
}  // namespace nomsky

BENCHMARK_MAIN();
