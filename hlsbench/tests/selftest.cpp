// Self-tests of the benchmark harness: percentile and sample-count rules,
// error_frac counting, the layer self-time split, and the expected-answer
// comparison with its upgrade rule.
//
//   cmake --build .bench_build --target hlsbench_selftest
//   .bench_build/hlsbench_selftest
#include <cmath>
#include <cstdio>
#include <string>

#include "oracle.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool condition, const char* what, int line) {
  if (!condition) {
    ++g_failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}

#define EXPECT(condition) expect((condition), #condition, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  using namespace hlsbench;
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT(near(percentile(values, 0.50), 50));
  EXPECT(near(percentile(values, 0.90), 90));
  EXPECT(near(percentile(values, 1.00), 100));
  EXPECT(near(percentile({7.0}, 0.9), 7.0));
  EXPECT(near(median({3, 1, 2}), 2));
  EXPECT(near(median({4, 1, 2, 3}), 2.5));
  // p90 needs ten samples beyond it: 100 samples leave exactly 10.
  EXPECT(samples_beyond(100, 0.90) == 10);
  EXPECT(percentile_reportable(100, 0.90));
  EXPECT(!percentile_reportable(99, 0.90));
  EXPECT(percentile_reportable(20, 0.50));
  EXPECT(!percentile_reportable(19, 0.50));
  // Several passes: each request contributes its own median.
  const auto medians = per_request_medians({{1, 9, 5}, {}, {2, 4}});
  EXPECT(medians.size() == 2);
  EXPECT(near(medians[0], 5) && near(medians[1], 3));
  EXPECT(near(mean_of_medians({{1, 9, 5}, {}, {2, 4}}), 4));
  EXPECT(near(mean_of_medians({{1, 9, 5}, {}, {2, 4}}, 2), 5));
}

void test_error_frac() {
  using namespace hlsbench;
  OutcomeCounts counts;
  EXPECT(near(counts.error_frac(), 0));
  for (int i = 0; i < 6; ++i) counts.add(Outcome::kOk);
  counts.add(Outcome::kFailed);
  counts.add(Outcome::kRefused);
  counts.add(Outcome::kTransport);
  counts.add(Outcome::kClockStopped);
  EXPECT(counts.attempted == 10);
  EXPECT(counts.errors() == 4);
  EXPECT(near(counts.error_frac(), 0.4));
  OutcomeCounts more;
  more.add(Outcome::kOk);
  counts.merge(more);
  EXPECT(counts.attempted == 11 && counts.errors() == 4);
}

void test_upgrade_rule() {
  using namespace hlsbench;
  using ht::core::OptStatus;
  const Answer optimal{OptStatus::kOptimal, 100};
  const Answer feasible{OptStatus::kFeasible, 120};
  const Answer infeasible{OptStatus::kInfeasible, 0};
  const Answer unknown{OptStatus::kUnknown, 0};
  EXPECT(compare_answer(optimal, optimal) == Verdict::kMatch);
  EXPECT(compare_answer(unknown, feasible) == Verdict::kUpgrade);
  EXPECT(compare_answer(unknown, infeasible) == Verdict::kUpgrade);
  EXPECT(compare_answer(feasible, Answer{OptStatus::kOptimal, 120}) == Verdict::kUpgrade);
  EXPECT(compare_answer(feasible, Answer{OptStatus::kOptimal, 110}) == Verdict::kUpgrade);
  EXPECT(compare_answer(feasible, Answer{OptStatus::kFeasible, 110}) == Verdict::kUpgrade);
  // Downgrades, contradictions and worse costs are mismatches.
  EXPECT(compare_answer(feasible, Answer{OptStatus::kOptimal, 130}) == Verdict::kMismatch);
  EXPECT(compare_answer(feasible, Answer{OptStatus::kFeasible, 130}) == Verdict::kMismatch);
  EXPECT(compare_answer(feasible, unknown) == Verdict::kMismatch);
  EXPECT(compare_answer(feasible, infeasible) == Verdict::kMismatch);
  EXPECT(compare_answer(optimal, Answer{OptStatus::kOptimal, 90}) == Verdict::kMismatch);
  EXPECT(compare_answer(optimal, feasible) == Verdict::kMismatch);
  EXPECT(compare_answer(infeasible, feasible) == Verdict::kMismatch);
}

void test_same_design() {
  using namespace hlsbench;
  ht::core::Solution a(2, true), b(2, true);
  EXPECT(same_design(a, b));
  a.at(ht::core::CopyKind::kRecovery, 1) = ht::core::Binding{3, 2, 0};
  EXPECT(!same_design(a, b));
  b.at(ht::core::CopyKind::kRecovery, 1) = ht::core::Binding{3, 2, 0};
  EXPECT(same_design(a, b));
  EXPECT(!same_design(a, ht::core::Solution(2, false)));
}

void test_expected_file() {
  using namespace hlsbench;
  ExpectedFile file;
  file.workload = "w";
  file.budgets = "max_combos=1";
  file.entries[0] = {Answer{ht::core::OptStatus::kOptimal, 4675}, "confirmed"};
  file.entries[3] = {Answer{ht::core::OptStatus::kUnknown, 0}, "skipped"};
  ExpectedFile back;
  std::string error;
  EXPECT(expected_from_text(expected_to_text(file), &back, &error));
  EXPECT(back.workload == "w" && back.budgets == "max_combos=1");
  EXPECT(back.entries.size() == 2);
  EXPECT(back.entries[0].answer == file.entries[0].answer);
  EXPECT(back.entries[0].ilp == "confirmed");
  EXPECT(back.entries[3].answer.status == ht::core::OptStatus::kUnknown);
  EXPECT(!expected_from_text("{\"entries\": [{\"id\": 1, \"status\": \"bogus\"}]}",
                             &back, &error));
}

void test_self_time() {
  using namespace hlsbench;
  // root [0,100) with children a [10,40) and b [30,70) (overlapping by
  // 10) and a grandchild c [50,60) inside b.
  std::vector<Span> spans(4);
  spans[0] = {"request", 1, -1, 0, 100, 0};
  spans[1] = {"a", 1, 0, 10, 30, 0};
  spans[2] = {"b", 1, 0, 30, 40, 0};
  spans[3] = {"c", 1, 2, 50, 10, 0};
  const auto self = self_time_by_layer(spans);
  EXPECT(self.at("other") == 40);  // 100 - union([10,70)) = 40
  EXPECT(self.at("a") == 30);
  EXPECT(self.at("b") == 30);
  EXPECT(self.at("c") == 10);
  std::int64_t total = 0;
  for (const auto& [layer, ns] : self) total += ns;
  // Overlapping siblings make the sum exceed the wall time; the harness
  // never opens overlapping siblings, so its splits add up exactly.
  EXPECT(total == 110);
  RequestTrace trace(7, 0);
  const int root = trace.open("request");
  trace.close(root);
  const int child = trace.add_child(root, "queue", trace.spans()[0].start_ns - 5, 1'000'000'000);
  EXPECT(trace.spans()[child].start_ns == trace.spans()[0].start_ns);
  EXPECT(trace.spans()[child].duration_ns == trace.spans()[0].duration_ns);
}

void test_workloads() {
  using namespace hlsbench;
  for (const Workload& workload : workloads()) {
    EXPECT(budget_guard_ok(workload.limits));
    const auto a = run_indices(workload, 1), b = run_indices(workload, 1);
    const auto c = run_indices(workload, 2);
    EXPECT(a == b);
    EXPECT(a != c);
    EXPECT(static_cast<int>(a.size()) == workload.run_size);
    EXPECT(a.size() >= 100);
  }
  ht::core::SearchLimits runaway;
  runaway.max_combos = 20'000;
  runaway.csp_node_limit = 200'000;
  runaway.time_limit_seconds = 300;
  EXPECT(!budget_guard_ok(runaway));
}

}  // namespace

int main() {
  test_percentiles();
  test_error_frac();
  test_upgrade_rule();
  test_same_design();
  test_expected_file();
  test_self_time();
  test_workloads();
  if (g_failures == 0) std::printf("hlsbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
