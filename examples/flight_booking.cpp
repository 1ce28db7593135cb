// Flight booking: the paper's second motivating application — "airline and
// transition airport are examples of nominal attributes".
//
// Compares the engines' latency profiles on the same query stream: the
// IPO-Tree answers from materialized first-order results, Adaptive SFS
// re-sorts only affected points, SFS-D rebuilds from scratch. The shape of
// the numbers mirrors the paper's Section 5.3 findings.
//
//   $ ./build/examples/flight_booking

#include <cstdio>

#include "common/rng.h"
#include "common/timer.h"
#include "core/adaptive_sfs.h"
#include "core/ipo_tree.h"
#include "datagen/generator.h"
#include "skyline/sfs_direct.h"

using namespace nomsky;

int main() {
  const std::vector<std::string> airlines = {
      "gonna_air", "redish", "wings",   "polaris", "cumulus",
      "zephyr",    "aurora", "pacific", "meridian", "atlas"};
  const std::vector<std::string> hubs = {"FRA", "AMS", "IST", "DXB", "KEF",
                                         "JFK", "SIN", "DOH"};

  Schema schema;
  if (!schema.AddNumeric("fare").ok() ||
      !schema.AddNumeric("duration_hours").ok() ||
      !schema.AddNumeric("stops").ok() ||
      !schema.AddNominal("airline", airlines).ok() ||
      !schema.AddNominal("via_hub", hubs).ok()) {
    return 1;
  }

  Dataset data(schema);
  Rng rng(777);
  ZipfDistribution airline_pop(airlines.size(), 1.0);
  ZipfDistribution hub_pop(hubs.size(), 0.8);
  data.Reserve(15000);
  for (int i = 0; i < 15000; ++i) {
    double stops = static_cast<double>(rng.UniformInt(3));
    double duration = rng.UniformDouble(6, 11) + 3.0 * stops;
    // Cheap fares correlate with more stops / longer flights.
    double fare = std::max(
        79.0, rng.UniformDouble(350, 1400) - 90.0 * stops -
                  20.0 * (duration - 8.0) + rng.Gaussian(0, 40));
    RowValues row;
    row.numeric = {fare, duration, stops};
    row.nominal = {airline_pop.Sample(&rng), hub_pop.Sample(&rng)};
    if (!data.Append(row).ok()) return 1;
  }

  PreferenceProfile tmpl(schema);  // no universal airline/hub order

  WallTimer t_tree;
  IpoTreeEngine::Options tree_opts;
  tree_opts.max_values_per_dim = 6;  // materialize the 6 most popular
  IpoTreeEngine tree(data, tmpl, tree_opts);
  double tree_build = t_tree.ElapsedSeconds();

  WallTimer t_asfs;
  AdaptiveSfsEngine asfs(data, tmpl);
  double asfs_build = t_asfs.ElapsedSeconds();

  SfsDirect sfsd(data, tmpl);

  std::printf("flights: %zu itineraries\n", data.num_rows());
  std::printf("IPO-Tree-6 build: %.2f s (%.1f MB), SFS-A build: %.2f s "
              "(%.1f MB), SFS-D: none\n\n",
              tree_build, tree.MemoryUsage() / (1024.0 * 1024.0), asfs_build,
              asfs.MemoryUsage() / (1024.0 * 1024.0));

  // A stream of traveller preferences over popular airlines/hubs.
  const std::vector<std::pair<std::string, std::string>> travellers[] = {
      {{"airline", "gonna_air<redish<*"}},
      {{"airline", "redish<*"}, {"via_hub", "FRA<AMS<*"}},
      {{"airline", "wings<gonna_air<polaris<*"}, {"via_hub", "AMS<*"}},
      {{"via_hub", "IST<DXB<*"}},
  };

  std::printf("%-44s %10s %10s %10s   %s\n", "preference", "tree", "SFS-A",
              "SFS-D", "skyline");
  for (const auto& prefs : travellers) {
    auto query = PreferenceProfile::Parse(schema, prefs).ValueOrDie();

    WallTimer t1;
    auto r1 = tree.Query(query);
    double tree_ms = t1.ElapsedMillis();
    WallTimer t2;
    auto r2 = asfs.Query(query);
    double asfs_ms = t2.ElapsedMillis();
    WallTimer t3;
    auto r3 = sfsd.Query(query);
    double sfsd_ms = t3.ElapsedMillis();

    if (!r1.ok() || !r2.ok() || !r3.ok() || r1->size() != r2->size() ||
        r2->size() != r3->size()) {
      std::printf("engine disagreement / error!\n");
      return 1;
    }
    std::printf("%-44s %8.2fms %8.2fms %8.2fms   %zu flights\n",
                query.ToString(schema).c_str(), tree_ms, asfs_ms, sfsd_ms,
                r2->size());
  }

  std::printf("\ncheapest skyline itineraries for the last traveller:\n");
  auto query = PreferenceProfile::Parse(schema, travellers[3]).ValueOrDie();
  std::vector<RowId> rows = asfs.Query(query).ValueOrDie();
  std::sort(rows.begin(), rows.end(), [&](RowId a, RowId b) {
    return data.numeric(0, a) < data.numeric(0, b);
  });
  for (size_t i = 0; i < rows.size() && i < 5; ++i) {
    RowId r = rows[i];
    std::printf("  $%-7.0f %4.1f h, %.0f stops, %-10s via %s\n",
                data.numeric(0, r), data.numeric(1, r), data.numeric(2, r),
                airlines[data.nominal(3, r)].c_str(),
                hubs[data.nominal(4, r)].c_str());
  }
  return 0;
}
