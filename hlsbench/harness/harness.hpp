// Shared pieces of the benchmark harness: options, the result record, and
// the per-workload runners (cold.cpp, serve.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace hlsbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the trace JSON and thlsd's socket and log.
  std::string work_dir = ".bench_build/runs";
  std::string expected_dir = "hlsbench/expected";
  std::string thlsd = ".bench_build/thlsd";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured and checked.
struct RunResult {
  OutcomeCounts outcomes;
  /// Wrong answers (oracle mismatches), one line each.
  std::vector<std::string> wrong;
  /// Accepted status upgrades (see oracle.hpp), one line each.
  std::vector<std::string> upgrades;
  /// Fatal harness problems (too few samples, daemon failed to start...).
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  /// Layer split of the traced run: self time per layer in ms per request.
  std::vector<Metric> layer_split;
  std::string trace_path;

  bool correct() const {
    return wrong.empty() && problems.empty() && outcomes.errors() == 0;
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// The committed expected answers of `workload`; adds a problem to
/// `result` and returns false when the file is missing or stale.
bool load_expected(const Options& options, const Workload& workload,
                   ExpectedFile* out, RunResult* result);

/// Checks one answer against its expected entry and its own design;
/// records a wrong answer or an upgrade in `result`. Returns false on a
/// wrong answer.
bool check_against(const ExpectedFile& expected, int index,
                   const PoolEntry& entry,
                   const ht::core::OptimizeResult& got, RunResult* result);

/// Peak resident set of a process in MiB (VmHWM); "self" for this one.
double peak_rss_mb(const std::string& pid = "self");

/// Fills the end-to-end metrics shared by every workload.
void add_end_to_end(RunResult* result, double throughput_rps,
                    const std::vector<std::vector<double>>& latency_ms,
                    const std::vector<ht::core::OptimizeResult>& answers,
                    double peak_rss, double setup_s);

/// License sets a solve enumerated: tried plus every kind of skip.
long sets_enumerated(const ht::core::OptimizeStats& stats);

/// Adds share.<layer> (self time over request wall time) for `layers`,
/// the per-request layer split, and trace.request_ms.
void add_layer_split(const TraceRecorder& trace,
                     const std::vector<std::string>& layers, RunResult* result);

/// Fills the per-layer metrics that a workload does not touch with 0, so
/// every workload reports the same names.
void fill_missing_layer_metrics(RunResult* result);

RunResult run_cold(const Options& options, const Workload& workload);
RunResult run_serve(const Options& options, const Workload& workload);

}  // namespace hlsbench
