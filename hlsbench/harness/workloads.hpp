// The benchmark's workloads and their seeded inputs.
//
// Every workload draws its requests from a finite, deterministic *pool*:
// pool entry i is a pure function of (workload, i), so the committed
// expected-answers file (hlsbench/expected/<workload>.json) covers every
// request any seed can produce. The workload seed picks which entries a
// run uses and in what order; the program receives only the generated
// requests. Why each workload exists is recorded in hlsbench/NOTES.md.
//
// Budgets. Every solve is bounded by node and set budgets, never by the
// clock: the wall-clock limit is a safety net the budget guard keeps far
// out of reach, so every status and cost is a pure function of the input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace hlsbench {

enum class WorkloadKind { kCold, kServe };

struct Workload {
  std::string name;
  WorkloadKind kind = WorkloadKind::kCold;
  ht::core::SearchLimits limits;
  int pool_size = 0;  ///< entries in the pool (and the expected file)
  int run_size = 0;   ///< distinct entries one run uses
};

/// All workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// Conservative worst-case wall time of one solve under `limits`, from a
/// per-dispatched-set overhead and a per-node cost measured at the slow
/// end of this engine (2 ms and 10 us). The full-market probe counts as
/// one more set.
double worst_case_seconds(const ht::core::SearchLimits& limits);

/// The budget guard: the worst case stays below a quarter of the
/// wall-clock limit, so no request can reach the clock.
bool budget_guard_ok(const ht::core::SearchLimits& limits);

/// A solve that used this much of its wall-clock limit is counted as
/// clock-stopped: its answer may depend on timing.
bool clock_stopped(const ht::core::SearchLimits& limits, double seconds);

/// Budget fingerprint stored in the expected file.
std::string budget_text(const Workload& workload);

/// One pool entry: the request plus a short human-readable label.
struct PoolEntry {
  ht::core::SynthesisRequest request;
  std::string label;
};

/// Pool entry `index` of `workload` (0 <= index < pool_size).
PoolEntry pool_entry(const Workload& workload, int index);

/// The pool indices one run uses, in request order. Deterministic in
/// (workload, seed).
std::vector<int> run_indices(const Workload& workload, std::uint64_t seed);

/// serve_mixed only: true for pool entries that are reoptimize requests.
bool is_reoptimize_entry(const Workload& workload, int index);

}  // namespace hlsbench
