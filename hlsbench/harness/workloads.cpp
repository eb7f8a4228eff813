#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

#include "benchmarks/random_dfg.hpp"
#include "benchmarks/suite.hpp"
#include "core/bounds.hpp"
#include "core/palette.hpp"
#include "core/rules.hpp"
#include "dfg/analysis.hpp"
#include "util/rng.hpp"
#include "vendor/catalogs.hpp"

namespace hlsbench {

namespace {

using ht::core::SearchLimits;

SearchLimits limits_of(long max_combos, long csp_node_limit) {
  SearchLimits limits;
  limits.max_combos = max_combos;
  limits.csp_node_limit = csp_node_limit;
  limits.time_limit_seconds = 120.0;
  return limits;
}

// serve_mixed pool layout: 36 cells (paper DFG x detection slack 0-2 x
// instance cap 1-2), each with 4 area levels x 5 variants (variant 0 is a
// plain minimize, variants 1-4 reoptimize with one banned license).
constexpr int kServeSlacks = 3;
constexpr int kServeCaps = 2;
constexpr int kServeAreas = 4;
constexpr int kServeVariants = 5;
constexpr int kServePerCell = kServeAreas * kServeVariants;
constexpr int kServeCells = 6 * kServeSlacks * kServeCaps;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t salt_of(const std::string& name) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h;
}

/// True when the cheapest license set lies below the global cost floor:
/// the search must pop a sub-floor band of sets before it can dispatch
/// anything (the population ROADMAP item 3 targets).
bool has_subfloor_band(const ht::core::ProblemSpec& spec) {
  const ht::core::LowerBounds bounds(spec);
  ht::core::ComboQueue queue(ht::core::enumerate_palettes(
      spec, ht::core::min_vendors_per_class(spec)));
  long long cheapest = 0;
  return queue.peek(cheapest) && cheapest < bounds.global_cost_lb();
}

/// Random DFG family of the cold workloads: section5 market, recovery on,
/// a roomy area bound, `slack` extra detection cycles.
ht::core::ProblemSpec random_spec(ht::util::Rng& rng, int n, int slack,
                                  int max_instances) {
  ht::benchmarks::RandomDfgConfig config;
  config.num_ops = n;
  config.max_depth = 5;
  ht::core::ProblemSpec spec;
  spec.graph = ht::benchmarks::random_dfg(config, rng);
  spec.catalog = ht::vendor::section5();
  const int critical_path =
      ht::dfg::critical_path_length(spec.graph, spec.op_latencies());
  spec.lambda_detection = critical_path + slack;
  spec.lambda_recovery = critical_path + std::max(0, slack - 1);
  spec.with_recovery = true;
  spec.area_limit = 400000;
  spec.max_instances_per_offer = max_instances;
  return spec;
}

PoolEntry cold_entry(const Workload& workload, int index) {
  const bool enumeration = workload.name == "synth_cold_enum";
  ht::util::Rng rng(mix(salt_of(workload.name), static_cast<std::uint64_t>(index)));
  for (int draw = 0;; ++draw) {
    const int n = static_cast<int>(enumeration ? rng.uniform_int(10, 40)
                                               : rng.uniform_int(20, 40));
    const int slack = static_cast<int>(enumeration ? rng.uniform_int(0, 2)
                                                   : rng.uniform_int(1, 2));
    PoolEntry entry;
    entry.request.spec = random_spec(rng, n, slack, enumeration ? 1 : 2);
    // synth_cold_enum keeps draws that start inside a sub-floor band;
    // synth_cold_csp keeps the others, whose first set goes to the CSP.
    if (has_subfloor_band(entry.request.spec) != enumeration) continue;
    entry.request.limits = workload.limits;
    char label[64];
    std::snprintf(label, sizeof label, "random n=%d slack=%d draw=%d", n,
                  slack, draw);
    entry.label = label;
    return entry;
  }
}

/// The four cheapest licenses of the classes `graph` uses (ties by
/// vendor), the quarantine candidates of serve_mixed.
std::vector<ht::core::LicenseKey> ban_candidates(
    const ht::dfg::Dfg& graph, const ht::vendor::Catalog& catalog) {
  const auto per_class = graph.ops_per_class();
  std::vector<std::pair<int, ht::core::LicenseKey>> offers;
  for (int rc = 0; rc < ht::dfg::kNumResourceClasses; ++rc) {
    if (per_class[rc] == 0) continue;
    const auto cls = static_cast<ht::dfg::ResourceClass>(rc);
    for (int v = 0; v < catalog.num_vendors(); ++v) {
      if (catalog.offers(v, cls)) {
        offers.push_back({catalog.offer(v, cls).cost,
                          ht::core::LicenseKey{v, cls}});
      }
    }
  }
  std::sort(offers.begin(), offers.end());
  std::vector<ht::core::LicenseKey> out;
  for (std::size_t i = 0; i < offers.size() && i < 4; ++i) {
    out.push_back(offers[i].second);
  }
  return out;
}

PoolEntry serve_entry(const Workload& workload, int index) {
  const int cell = index / kServePerCell;
  const int variant = index % kServePerCell;
  const int area_level = variant / kServeVariants;
  const int ban_slot = variant % kServeVariants;
  const auto& bench =
      ht::benchmarks::paper_suite()[static_cast<std::size_t>(
          cell / (kServeSlacks * kServeCaps))];
  const int slack = (cell / kServeCaps) % kServeSlacks;
  const int max_instances = cell % kServeCaps + 1;

  PoolEntry entry;
  ht::core::SynthesisRequest& request = entry.request;
  request.spec.graph = bench.factory();
  request.spec.catalog = ht::vendor::section5();
  const int critical_path = ht::dfg::critical_path_length(
      request.spec.graph, request.spec.op_latencies());
  request.spec.lambda_detection = critical_path + slack;
  request.spec.lambda_recovery = critical_path + std::max(0, slack - 1);
  request.spec.with_recovery = true;
  const long long areas[kServeAreas] = {
      bench.table4[1].area, bench.table4[0].area, 2 * bench.table4[0].area,
      400000};
  request.spec.area_limit = areas[area_level];
  request.spec.max_instances_per_offer = max_instances;
  request.limits = workload.limits;
  if (ban_slot > 0) {
    const auto candidates =
        ban_candidates(request.spec.graph, request.spec.catalog);
    request.kind = ht::core::RequestKind::kReoptimize;
    request.banned.insert(
        candidates[static_cast<std::size_t>(ban_slot - 1) % candidates.size()]);
  }
  char label[96];
  std::snprintf(label, sizeof label, "%s slack=%d cap=%d area=%lld %s%d",
                bench.name.c_str(), slack, max_instances,
                request.spec.area_limit, ban_slot > 0 ? "ban#" : "minimize",
                ban_slot);
  entry.label = label;
  return entry;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"synth_cold_enum", WorkloadKind::kCold, limits_of(8000, 100), 1200, 1000},
      {"synth_cold_csp", WorkloadKind::kCold, limits_of(4, 10000), 1600, 1200},
      {"serve_mixed", WorkloadKind::kServe, limits_of(32, 2000),
       kServeCells * kServePerCell, kServeCells * kServeAreas * 5 / 4},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

double worst_case_seconds(const SearchLimits& limits) {
  constexpr double kSetOverheadSeconds = 2e-3;
  constexpr double kNodeSeconds = 10e-6;
  return static_cast<double>(limits.max_combos + 1) *
         (kSetOverheadSeconds +
          static_cast<double>(limits.csp_node_limit) * kNodeSeconds);
}

bool budget_guard_ok(const SearchLimits& limits) {
  return worst_case_seconds(limits) <= limits.time_limit_seconds / 4.0;
}

bool clock_stopped(const SearchLimits& limits, double seconds) {
  return seconds >= 0.9 * limits.time_limit_seconds;
}

std::string budget_text(const Workload& workload) {
  return "max_combos=" + std::to_string(workload.limits.max_combos) +
         " csp_node_limit=" + std::to_string(workload.limits.csp_node_limit) +
         " pool=" + std::to_string(workload.pool_size);
}

PoolEntry pool_entry(const Workload& workload, int index) {
  return workload.kind == WorkloadKind::kServe ? serve_entry(workload, index)
                                               : cold_entry(workload, index);
}

bool is_reoptimize_entry(const Workload& workload, int index) {
  return workload.kind == WorkloadKind::kServe &&
         index % kServeVariants != 0;
}

std::vector<int> run_indices(const Workload& workload, std::uint64_t seed) {
  ht::util::Rng rng(mix(salt_of(workload.name) ^ 0x5eedull, seed));
  std::vector<int> indices;
  if (workload.kind == WorkloadKind::kServe) {
    // Every cell contributes its four minimize variants plus one seeded
    // reoptimize variant: one request in five is a quarantine re-synthesis.
    for (int cell = 0; cell < kServeCells; ++cell) {
      for (int area = 0; area < kServeAreas; ++area) {
        indices.push_back(cell * kServePerCell + area * kServeVariants);
      }
      const int area = static_cast<int>(rng.uniform_int(0, kServeAreas - 1));
      const int ban = static_cast<int>(rng.uniform_int(1, kServeVariants - 1));
      indices.push_back(cell * kServePerCell + area * kServeVariants + ban);
    }
    rng.shuffle(indices);
    return indices;
  }
  indices.resize(static_cast<std::size_t>(workload.pool_size));
  for (int i = 0; i < workload.pool_size; ++i) indices[static_cast<std::size_t>(i)] = i;
  rng.shuffle(indices);
  indices.resize(static_cast<std::size_t>(workload.run_size));
  return indices;
}

}  // namespace hlsbench
