// Cold single-thread synthesis workloads (synth_cold_enum, synth_cold_csp).
//
// Closed loop, one caller: the benchmark calls core::synthesize on each
// request of the run in order, pass after pass, until the run's time is
// up. A request's latency is the core::synthesize call alone; the oracle
// checks run outside the timed call.
#include <cstdio>
#include <optional>

#include "core/bounds.hpp"
#include "harness.hpp"
#include "trace.hpp"

namespace hlsbench {

namespace {

constexpr int kSetups = 3;
constexpr int kWarmupRequests = 10;

std::vector<PoolEntry> build_inputs(const Workload& workload,
                                    const std::vector<int>& indices) {
  std::vector<PoolEntry> entries;
  entries.reserve(indices.size());
  for (int index : indices) entries.push_back(pool_entry(workload, index));
  return entries;
}

/// Builds the inputs and runs the warm-up requests kSetups times; returns
/// the median set-up time and keeps the last inputs.
double set_up(const Workload& workload, const std::vector<int>& indices,
              std::vector<PoolEntry>* entries) {
  std::vector<double> seconds;
  for (int round = 0; round < kSetups; ++round) {
    const std::int64_t start = now_ns();
    *entries = build_inputs(workload, indices);
    for (int i = 0; i < kWarmupRequests && i < static_cast<int>(entries->size()); ++i) {
      ht::core::synthesize((*entries)[static_cast<std::size_t>(i)].request);
    }
    seconds.push_back(ms_since(start) / 1e3);
  }
  return median(seconds);
}

struct Pass {
  /// Per request: latency samples (ms) and the first answer.
  std::vector<std::vector<double>> latency_ms;
  std::vector<std::optional<ht::core::OptimizeResult>> first;
  long completed = 0;
  double elapsed_s = 0.0;
};

/// One timed phase: requests in order, pass after pass, until `seconds`
/// are up. `trace` (traced runs) wraps each request in spans.
void timed_phase(const Workload& workload, const std::vector<PoolEntry>& entries,
                 double seconds, TraceRecorder* trace, Pass* pass,
                 RunResult* result) {
  const std::size_t n = entries.size();
  pass->latency_ms.assign(n, {});
  pass->first.assign(n, std::nullopt);
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t request_id = 0;
  for (std::size_t i = 0; now_ns() < deadline; i = (i + 1) % n) {
    ht::core::OptimizeResult got;
    if (trace == nullptr) {
      const std::int64_t t0 = now_ns();
      got = ht::core::synthesize(entries[i].request).result;
      pass->latency_ms[i].push_back(ms_since(t0));
    } else {
      ht::core::SynthesisRequest request = entries[i].request;
      request.observability.metrics = true;
      RequestTrace spans(++request_id, 0);
      const int root = spans.open("request");
      const int bounds = spans.open("bounds");
      { const ht::core::LowerBounds lower(request.spec); }
      spans.close(bounds);
      const int engine = spans.open("engine");
      const std::int64_t t0 = now_ns();
      got = ht::core::synthesize(request).result;
      pass->latency_ms[i].push_back(ms_since(t0));
      spans.close(engine);
      // The engine's own csp_dispatch stage timer splits the synthesize
      // call into CSP search and everything else (enumeration, screens,
      // bounds, cache probes); drawn as one block at the call's start.
      spans.add_child(engine, "csp", t0,
                      got.metrics.stage(ht::obs::Stage::kCspDispatch).total_ns);
      const int validate = spans.open("validate");
      check_binding(request.spec, request.banned, got);
      spans.close(validate);
      spans.close(root);
      trace->add(spans);
    }
    ++pass->completed;
    const bool stopped = clock_stopped(workload.limits, got.stats.seconds);
    result->outcomes.add(stopped ? Outcome::kClockStopped : Outcome::kOk);
    if (!pass->first[i]) {
      pass->first[i] = std::move(got);
    } else if (answer_of(got) != answer_of(*pass->first[i]) ||
               !same_design(got.solution, pass->first[i]->solution)) {
      result->wrong.push_back(entries[i].label + ": answer changed between passes");
    }
  }
  pass->elapsed_s = ms_since(start) / 1e3;
}

/// Oracle over the first answer of every request that completed.
std::vector<ht::core::OptimizeResult> check_answers(
    const Options& options, const Workload& workload,
    const std::vector<int>& indices, const std::vector<PoolEntry>& entries,
    const Pass& pass, RunResult* result) {
  std::vector<ht::core::OptimizeResult> answers;
  ExpectedFile expected;
  if (!load_expected(options, workload, &expected, result)) return answers;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!pass.first[i]) continue;
    check_against(expected, indices[i], entries[i], *pass.first[i], result);
    answers.push_back(*pass.first[i]);
  }
  return answers;
}

std::size_t covered(const Pass& pass) {
  std::size_t count = 0;
  while (count < pass.latency_ms.size() && !pass.latency_ms[count].empty()) ++count;
  return count;
}

void add_layer_metrics(const TraceRecorder& trace,
                       const std::vector<ht::core::OptimizeResult>& answers,
                       const Pass& untraced, const Pass& traced,
                       RunResult* result) {
  double sets = 0, dispatched = 0, lb = 0, screen = 0, nodes = 0,
         backjumps = 0, nogoods = 0;
  for (const ht::core::OptimizeResult& r : answers) {
    const auto& s = r.stats;
    sets += static_cast<double>(sets_enumerated(s));
    dispatched += static_cast<double>(s.combos_tried);
    lb += static_cast<double>(s.lb_prunes);
    screen += static_cast<double>(s.combos_skipped_screen);
    nodes += static_cast<double>(s.nodes_total);
    backjumps += static_cast<double>(s.backjumps);
    nogoods += static_cast<double>(s.nogoods_learned);
  }
  const double n = std::max<double>(1.0, static_cast<double>(answers.size()));
  const double requests = std::max<double>(1.0, static_cast<double>(trace.requests()));
  // Counts are per request, from each request's first traced answer; the
  // per-set and per-node times divide self time by the work of every
  // traced request (a request counted once per pass).
  double traced_sets = 0, traced_nodes = 0;
  for (std::size_t i = 0; i < traced.latency_ms.size(); ++i) {
    if (!traced.first[i]) continue;
    const auto& s = traced.first[i]->stats;
    const double passes = static_cast<double>(traced.latency_ms[i].size());
    traced_sets += passes * static_cast<double>(sets_enumerated(s));
    traced_nodes += passes * static_cast<double>(s.nodes_total);
  }
  result->add("engine.sets_enumerated", sets / n, "count");
  result->add("engine.sets_dispatched", dispatched / n, "count");
  result->add("engine.lb_prunes", lb / n, "count");
  result->add("engine.screen_skips", screen / n, "count");
  result->add("engine.ns_per_set",
              traced_sets > 0 ? trace.self_time_ns("engine") / traced_sets : 0.0, "ns");
  result->add("bounds.build_us", trace.self_time_ns("bounds") / requests / 1e3, "us");
  result->add("validate.us", trace.self_time_ns("validate") / requests / 1e3, "us");
  result->add("csp.nodes_total", nodes / n, "count");
  result->add("csp.backjumps", backjumps / n, "count");
  result->add("csp.nogoods_learned", nogoods / n, "count");
  result->add("csp.ns_per_node",
              traced_nodes > 0 ? trace.self_time_ns("csp") / traced_nodes : 0.0, "ns");
  add_layer_split(trace, {"bounds", "engine", "csp", "validate", "other"}, result);
  // Tracing overhead: the synthesize call traced (metrics collection on)
  // against untraced, over the requests both phases completed.
  const std::size_t common = std::min(covered(untraced), covered(traced));
  result->add("trace.overhead_ms",
              mean_of_medians(traced.latency_ms, common) -
                  mean_of_medians(untraced.latency_ms, common),
              "ms");
}

}  // namespace

RunResult run_cold(const Options& options, const Workload& workload) {
  RunResult result;
  const std::vector<int> indices = run_indices(workload, options.seed);
  std::vector<PoolEntry> entries;
  const double setup_s = set_up(workload, indices, &entries);
  std::printf("hlsbench: %s: %zu requests, set-up %.3f s\n",
              workload.name.c_str(), entries.size(), setup_s);

  if (!options.trace) {
    Pass pass;
    timed_phase(workload, entries, options.seconds, nullptr, &pass, &result);
    const auto answers =
        check_answers(options, workload, indices, entries, pass, &result);
    add_end_to_end(&result,
                   static_cast<double>(pass.completed) / pass.elapsed_s,
                   pass.latency_ms, answers, peak_rss_mb(), setup_s);
    return result;
  }

  // Traced run: an untraced phase for the overhead baseline, then the
  // traced phase whose spans give the layer split.
  Pass untraced, traced;
  timed_phase(workload, entries, options.seconds / 2, nullptr, &untraced, &result);
  TraceRecorder trace;
  timed_phase(workload, entries, options.seconds / 2, &trace, &traced, &result);
  const auto answers =
      check_answers(options, workload, indices, entries, traced, &result);
  add_layer_metrics(trace, answers, untraced, traced, &result);
  result.trace_path = options.work_dir + "/trace-" + workload.name + "-" +
                      std::to_string(options.seed) + ".json";
  if (!trace.write_chrome_json(result.trace_path)) {
    result.problems.push_back("cannot write " + result.trace_path);
  }
  return result;
}

}  // namespace hlsbench
