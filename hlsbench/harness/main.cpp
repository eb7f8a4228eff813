// hlsbench — the repository benchmark harness.
//
//   hlsbench --workload NAME --seed N --seconds S --trace 0|1
//            [--commit SHA] [--work-dir DIR] [--expected-dir DIR]
//            [--thlsd PATH]
//   hlsbench --write-expected NAME [--expected-dir DIR]
//
// A run prints a human-readable report and, as its last line,
// "HLSBENCH_RESULT <json>": correctness, attempt counts, every metric by
// name and unit, the traced run's layer split, and the host stamp.
// hlsbench/run.py turns that into the benchmark's result line.
//
// --write-expected regenerates hlsbench/expected/NAME.json: a cold solve
// of every pool entry, each design checked by the oracle, and each
// optimal entry small enough for the faithful ILP handed to it.
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/ilp_formulation.hpp"
#include "harness.hpp"
#include "service/json.hpp"

namespace hlsbench {

namespace {

using ht::service::json_quote;

/// Per-layer metric names, in report order (BENCHMARK.json per_layer).
const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"engine.sets_enumerated", "count"}, {"engine.sets_dispatched", "count"},
      {"engine.lb_prunes", "count"},       {"engine.screen_skips", "count"},
      {"engine.ns_per_set", "ns"},         {"bounds.build_us", "us"},
      {"validate.us", "us"},               {"csp.nodes_total", "count"},
      {"csp.backjumps", "count"},          {"csp.nogoods_learned", "count"},
      {"csp.ns_per_node", "ns"},           {"service.queue_ms", "ms"},
      {"service.solve_ms", "ms"},          {"service.transport_ms", "ms"},
      {"service.rejects", "count"},        {"wire.request_bytes", "bytes"},
      {"wire.response_bytes", "bytes"},    {"wire.parse_request_us", "us"},
      {"wire.serialize_response_us", "us"}, {"warm.cache_skip_ratio", "ratio"},
      {"warm.merge_us", "us"},             {"warm.adopt_us", "us"},
      {"warm.export_us", "us"},            {"warm.snapshot_bytes", "bytes"},
      {"share.bounds", "ratio"},           {"share.engine", "ratio"},
      {"share.csp", "ratio"},              {"share.validate", "ratio"},
      {"share.wire", "ratio"},             {"share.transport", "ratio"},
      {"share.queue", "ratio"},            {"share.solve", "ratio"},
      {"share.other", "ratio"},            {"trace.request_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return names;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  *ok = static_cast<bool>(in);
  return text.str();
}

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "hlsbench: %s\nusage: hlsbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--commit SHA] [--work-dir DIR]\n"
               "                [--expected-dir DIR] [--thlsd PATH]\n"
               "       hlsbench --write-expected NAME [--expected-dir DIR]\n",
               error.c_str());
  std::exit(2);
}

// ---- expected-answers file -----------------------------------------------

/// Largest DFG handed to the faithful ILP, and its node budget. On the
/// section5 market even the 5-op polynom does not finish within 20 s, so
/// only the smallest entries are attempted.
constexpr int kIlpMaxOps = 5;
constexpr long kIlpNodes = 20;

int write_expected(const Options& options, const Workload& workload) {
  ExpectedFile file;
  file.workload = workload.name;
  file.budgets = budget_text(workload);
  std::mutex mutex;
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  double slowest = 0.0;
  int slowest_index = -1;
  std::vector<std::thread> threads;
  const int lanes = std::max(1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  for (int lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&] {
      for (int i = next++; i < workload.pool_size; i = next++) {
        const PoolEntry entry = pool_entry(workload, i);
        const ht::core::OptimizeResult result =
            ht::core::synthesize(entry.request).result;
        ExpectedEntry expected;
        expected.answer = answer_of(result);
        const std::string problem =
            check_binding(entry.request.spec, entry.request.banned, result);
        if (result.status == ht::core::OptStatus::kOptimal &&
            entry.request.kind == ht::core::RequestKind::kMinimize &&
            entry.request.spec.graph.num_ops() <= kIlpMaxOps) {
          ht::ilp::BnbOptions ilp;
          ilp.max_nodes = kIlpNodes;
          ilp.time_limit_seconds = 10.0;
          const ht::core::OptimizeResult exact = ht::core::minimize_cost_ilp_warm(
              entry.request.spec, result.solution, ilp);
          expected.ilp = exact.status != ht::core::OptStatus::kOptimal ? "unfinished"
                         : exact.cost == result.cost                   ? "confirmed"
                                                                       : "disagrees";
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (!problem.empty() || expected.ilp == "disagrees" ||
            clock_stopped(workload.limits, result.stats.seconds)) {
          std::fprintf(stderr, "hlsbench: entry %d (%s): %s\n", i,
                       entry.label.c_str(),
                       problem.empty() ? "ILP disagrees or clock stop" : problem.c_str());
          failed = true;
        }
        if (result.stats.seconds > slowest) {
          slowest = result.stats.seconds;
          slowest_index = i;
        }
        file.entries[i] = expected;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (failed) return 1;
  const std::string path = options.expected_dir + "/" + workload.name + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << expected_to_text(file);
  if (!out) {
    std::fprintf(stderr, "hlsbench: cannot write %s\n", path.c_str());
    return 1;
  }
  int counts[4] = {0, 0, 0, 0};
  std::map<std::string, int> ilp;
  for (const auto& [id, entry] : file.entries) {
    ++counts[static_cast<int>(entry.answer.status)];
    ++ilp[entry.ilp];
  }
  std::printf("hlsbench: wrote %s: %d entries (optimal %d, feasible %d, "
              "infeasible %d, unknown %d); slowest solve %.3f s (entry %d)\n",
              path.c_str(), workload.pool_size, counts[0], counts[1], counts[2],
              counts[3], slowest, slowest_index);
  for (const auto& [state, count] : ilp) {
    std::printf("hlsbench:   ilp %s: %d\n", state.c_str(), count);
  }
  return 0;
}

// ---- layer-split check (traced runs) ------------------------------------

double metric_value(const RunResult& result, const std::string& name) {
  for (const Metric& metric : result.metrics) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

/// Whether the traced run loads the layer its workload was chosen for
/// (hlsbench/NOTES.md), and whether the layer self times add up to the
/// request wall time. Reported, not enforced: an optimization may
/// legitimately shift a workload's balance.
std::vector<std::pair<std::string, bool>> layer_checks(const Workload& workload,
                                                       const RunResult& result) {
  const auto v = [&](const char* name) { return metric_value(result, name); };
  std::vector<std::pair<std::string, bool>> checks;
  double shares = 0.0;
  for (const Metric& metric : result.metrics) {
    if (metric.name.rfind("share.", 0) == 0) shares += metric.value;
  }
  checks.push_back({"self times add up to request wall time",
                    std::fabs(shares - 1.0) < 1e-6 && v("share.other") >= 0.0});
  if (workload.name == "synth_cold_enum") {
    checks.push_back({"sets enumerated >= 10x CSP nodes",
                      v("engine.sets_enumerated") >= 10 * v("csp.nodes_total")});
    checks.push_back({"engine self time > CSP self time",
                      v("share.engine") > v("share.csp")});
  } else if (workload.name == "synth_cold_csp") {
    checks.push_back({"CSP nodes >= 10x sets enumerated",
                      v("csp.nodes_total") >= 10 * v("engine.sets_enumerated")});
    checks.push_back({"CSP self time > engine self time",
                      v("share.csp") > v("share.engine")});
  } else {
    checks.push_back({"queue + transport >= 10% of request wall time",
                      v("share.queue") + v("share.transport") >= 0.10});
    checks.push_back({"warm cache skips observed", v("warm.cache_skip_ratio") > 0});
  }
  return checks;
}

// ---- result document -----------------------------------------------------

std::string result_json(const Options& options, const Workload& workload,
                        const RunResult& result, const std::string& commit) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct() ? "true" : "false")
      << ", \"attempted\": " << result.outcomes.attempted
      << ", \"failed\": " << result.outcomes.errors() << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : result.metrics) {
    out << (first ? "" : ", ") << json_quote(metric.name) << ": {\"value\": "
        << number(metric.value) << ", \"unit\": " << json_quote(metric.unit) << "}";
    first = false;
  }
  out << "}, \"layer_split_ms\": {";
  first = true;
  for (const Metric& metric : result.layer_split) {
    out << (first ? "" : ", ") << json_quote(metric.name) << ": " << number(metric.value);
    first = false;
  }
  const auto list = [&](const std::vector<std::string>& lines) {
    std::string text = "[";
    for (std::size_t i = 0; i < lines.size() && i < 20; ++i) {
      text += (i ? ", " : "") + json_quote(lines[i]);
    }
    return text + "]";
  };
  out << "}, \"outcomes\": {\"refused\": " << result.outcomes.refused
      << ", \"transport\": " << result.outcomes.transport
      << ", \"clock_stopped\": " << result.outcomes.clock_stopped
      << ", \"failed\": " << result.outcomes.failed << "}"
      << ", \"wrong_answers\": " << result.wrong.size()
      << ", \"wrong\": " << list(result.wrong)
      << ", \"upgrades\": " << result.upgrades.size()
      << ", \"upgrade_examples\": " << list(result.upgrades)
      << ", \"problems\": " << list(result.problems)
      << ", \"trace_file\": " << json_quote(result.trace_path)
      << ", \"layer_checks\": {";
  if (options.trace) {
    first = true;
    for (const auto& [check, pass] : layer_checks(workload, result)) {
      out << (first ? "" : ", ") << json_quote(check) << ": " << (pass ? "true" : "false");
      first = false;
    }
  }
  out << "}";
  out << ", \"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"compiler\": " << json_quote(HLSBENCH_COMPILER)
      << ", \"build_type\": " << json_quote(HLSBENCH_BUILD_TYPE)
      << ", \"commit\": " << json_quote(commit)
      << ", \"workload\": " << json_quote(workload.name)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << number(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"budgets\": " << json_quote(budget_text(workload))
      << ", \"worst_case_solve_s\": " << number(worst_case_seconds(workload.limits))
      << "}}";
  return out.str();
}

void print_report(const Options& options, const Workload& workload,
                  const RunResult& result) {
  std::printf("hlsbench: %s: attempted %ld, errors %ld (refused %ld, "
              "transport %ld, clock-stopped %ld), wrong answers %zu, "
              "upgrades %zu\n",
              workload.name.c_str(), result.outcomes.attempted,
              result.outcomes.errors(), result.outcomes.refused,
              result.outcomes.transport, result.outcomes.clock_stopped,
              result.wrong.size(), result.upgrades.size());
  for (const std::string& line : result.problems) std::printf("  PROBLEM %s\n", line.c_str());
  for (std::size_t i = 0; i < result.wrong.size() && i < 10; ++i) {
    std::printf("  WRONG %s\n", result.wrong[i].c_str());
  }
  for (std::size_t i = 0; i < result.upgrades.size() && i < 5; ++i) {
    std::printf("  upgrade %s\n", result.upgrades[i].c_str());
  }
  for (const Metric& metric : result.metrics) {
    std::printf("  %-28s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (!result.layer_split.empty()) {
    std::printf("  layer self time per request:");
    for (const Metric& metric : result.layer_split) {
      std::printf(" %s %.4g ms", metric.name.c_str(), metric.value);
    }
    std::printf("\n");
  }
  if (options.trace) {
    for (const auto& [check, pass] : layer_checks(workload, result)) {
      std::printf("  layer check %s: %s\n", pass ? "PASS" : "FAIL", check.c_str());
    }
  }
}

}  // namespace

// ---- shared helpers (harness.hpp) -------------------------------------

bool load_expected(const Options& options, const Workload& workload,
                   ExpectedFile* out, RunResult* result) {
  const std::string path = options.expected_dir + "/" + workload.name + ".json";
  bool ok = false;
  const std::string text = read_file(path, &ok);
  std::string error;
  if (!ok || !expected_from_text(text, out, &error)) {
    result->problems.push_back("cannot read " + path + (error.empty() ? "" : ": " + error));
    return false;
  }
  if (out->workload != workload.name || out->budgets != budget_text(workload) ||
      static_cast<int>(out->entries.size()) != workload.pool_size) {
    result->problems.push_back(path + " was written for other budgets or pool; "
                               "regenerate it with --write-expected");
    return false;
  }
  return true;
}

bool check_against(const ExpectedFile& expected, int index, const PoolEntry& entry,
                   const ht::core::OptimizeResult& got, RunResult* result) {
  const std::string problem =
      check_binding(entry.request.spec, entry.request.banned, got);
  if (!problem.empty()) {
    result->wrong.push_back(entry.label + ": " + problem);
    return false;
  }
  const auto it = expected.entries.find(index);
  if (it == expected.entries.end()) {
    result->wrong.push_back(entry.label + ": no expected answer");
    return false;
  }
  const Answer want = it->second.answer;
  const Answer have = answer_of(got);
  const std::string line = entry.label + ": got " + status_name(have.status) + "/" +
                           std::to_string(have.cost) + ", expected " +
                           status_name(want.status) + "/" + std::to_string(want.cost);
  switch (compare_answer(want, have)) {
    case Verdict::kMatch: return true;
    case Verdict::kUpgrade: result->upgrades.push_back(line); return true;
    case Verdict::kMismatch: result->wrong.push_back(line); return false;
  }
  return false;
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void add_end_to_end(RunResult* result, double throughput_rps,
                    const std::vector<std::vector<double>>& latency_ms,
                    const std::vector<ht::core::OptimizeResult>& answers,
                    double peak_rss, double setup_s) {
  const std::vector<double> medians = per_request_medians(latency_ms);
  if (!percentile_reportable(medians.size(), 0.90)) {
    result->problems.push_back("only " + std::to_string(medians.size()) +
                               " requests completed; p90 needs 100");
  }
  const auto pct = [&](double p) {
    return medians.empty() ? 0.0 : percentile(medians, p);
  };
  double proved = 0, cost = 0, feasible = 0;
  for (const ht::core::OptimizeResult& answer : answers) {
    proved += is_proved(answer.status);
    if (answer.has_solution()) {
      cost += static_cast<double>(answer.cost);
      ++feasible;
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(answers.size()));
  result->add("throughput_rps", throughput_rps, "1/s");
  result->add("latency_p50_ms", pct(0.50), "ms");
  result->add("latency_p90_ms", pct(0.90), "ms");
  result->add("error_frac", result->outcomes.error_frac(), "ratio");
  result->add("proved_frac", proved / n, "ratio");
  result->add("mean_cost_usd", feasible > 0 ? cost / feasible : 0.0, "usd");
  result->add("peak_rss_mb", peak_rss, "MiB");
  result->add("setup_s", setup_s, "s");
  result->add("requests_sampled", static_cast<double>(medians.size()), "count");
}

long sets_enumerated(const ht::core::OptimizeStats& stats) {
  return stats.combos_tried + stats.combos_skipped_screen +
         stats.combos_skipped_cache + stats.lb_prunes;
}

void add_layer_split(const TraceRecorder& trace,
                     const std::vector<std::string>& layers, RunResult* result) {
  const double requests = std::max<double>(1.0, static_cast<double>(trace.requests()));
  const double root_ns = static_cast<double>(trace.root_total_ns());
  for (const std::string& layer : layers) {
    const double self_ns = trace.self_time_ns(layer);
    result->add("share." + layer, root_ns > 0 ? self_ns / root_ns : 0.0, "ratio");
    result->layer_split.push_back({layer, self_ns / requests / 1e6, "ms"});
  }
  result->add("trace.request_ms", root_ns / requests / 1e6, "ms");
}

void fill_missing_layer_metrics(RunResult* result) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : layer_metric_names()) {
    double value = 0.0;
    for (const Metric& metric : result->metrics) {
      if (metric.name == name) value = metric.value;
    }
    ordered.push_back({name, value, unit});
  }
  for (const Metric& metric : result->metrics) {
    bool listed = false;
    for (const auto& entry : layer_metric_names()) listed |= entry.first == metric.name;
    if (!listed) ordered.push_back(metric);
  }
  result->metrics = std::move(ordered);
}

}  // namespace hlsbench

int main(int argc, char** argv) {
  using namespace hlsbench;
  Options options;
  std::string commit = "unknown";
  std::string write_name;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--expected-dir") {
      options.expected_dir = value;
    } else if (flag == "--thlsd") {
      options.thlsd = value;
    } else if (flag == "--write-expected") {
      write_name = value;
    } else {
      usage("unknown flag " + flag);
    }
  }

  if (!write_name.empty()) {
    const Workload* workload = find_workload(write_name);
    if (workload == nullptr) usage("unknown workload " + write_name);
    return write_expected(options, *workload);
  }
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) usage("unknown workload '" + options.workload + "'");
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (!budget_guard_ok(workload->limits)) {
    std::fprintf(stderr, "hlsbench: %s fails the budget guard (worst case %.1f s)\n",
                 workload->name.c_str(), worst_case_seconds(workload->limits));
    return 1;
  }

  std::error_code ignored;
  std::filesystem::create_directories(options.work_dir, ignored);
  RunResult result = workload->kind == WorkloadKind::kServe
                         ? run_serve(options, *workload)
                         : run_cold(options, *workload);
  if (options.trace) fill_missing_layer_metrics(&result);
  print_report(options, *workload, result);
  std::printf("HLSBENCH_RESULT %s\n",
              result_json(options, *workload, result, commit).c_str());
  return result.problems.empty() ? 0 : 1;
}
