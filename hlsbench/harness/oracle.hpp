// Correctness oracle: every answer the benchmark receives is checked here.
//
// Three independent checks, in order of strength:
//   1. check_binding: the returned design passes core::validate_solution,
//      uses no banned license, and its license cost, re-priced here from
//      the bindings and the catalog, equals the reported cost.
//   2. compare_answer: the (status, cost) pair matches a reference answer
//      (the committed expected-answers file, or a cold in-process solve of
//      the same request), allowing only a *status upgrade*.
//   3. The expected-answers file records, per instance, whether the
//      faithful ILP (core::minimize_cost_ilp) confirmed an `optimal` entry.
//
// Upgrade rule. A reply may be stronger than its reference without being
// wrong: warm state or a better engine can finish a proof the reference
// truncated, or find a design where it found none. Accepted upgrades:
//   reference unknown  -> feasible, optimal or infeasible
//   reference feasible -> optimal at a cost <= the reference cost, or
//                         feasible at a strictly lower cost
// Everything else that differs is a mismatch. A binding must still pass
// check_binding, so an upgrade can never smuggle in an invalid design.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>

#include "core/engine.hpp"

namespace hlsbench {

/// One reference answer.
struct Answer {
  ht::core::OptStatus status = ht::core::OptStatus::kUnknown;
  long long cost = 0;

  bool operator==(const Answer&) const = default;
};

Answer answer_of(const ht::core::OptimizeResult& result);

/// True for optimal and infeasible: the answer carries a proof.
bool is_proved(ht::core::OptStatus status);

/// License cost of `solution`, priced from its bindings and the catalog
/// without going through Solution::license_cost.
long long reprice(const ht::core::ProblemSpec& spec,
                  const ht::core::Solution& solution);

/// Empty when the result's design is valid for `spec`, avoids `banned`
/// and re-prices to the reported cost; otherwise the first problem found.
/// Results without a design pass trivially.
std::string check_binding(const ht::core::ProblemSpec& spec,
                          const std::set<ht::core::LicenseKey>& banned,
                          const ht::core::OptimizeResult& result);

/// True when both designs place every copy identically. A cold run
/// validates each request's first design with check_binding and requires
/// every later pass to return the same one.
bool same_design(const ht::core::Solution& a, const ht::core::Solution& b);

enum class Verdict { kMatch, kUpgrade, kMismatch };

Verdict compare_answer(const Answer& reference, const Answer& got);

/// Committed reference answers of one workload's instance pool.
struct ExpectedEntry {
  Answer answer;
  /// "confirmed": the faithful ILP proved the same optimum; "unfinished":
  /// the ILP stopped on its node budget; "skipped": not attempted (the
  /// entry is not optimal, or the instance exceeds the ILP size limit);
  /// "disagrees" never appears in a committed file.
  std::string ilp = "skipped";
};

struct ExpectedFile {
  std::string workload;
  /// Budget fingerprint the answers were produced under; a file written
  /// with other budgets is refused.
  std::string budgets;
  std::map<int, ExpectedEntry> entries;
};

std::string status_name(ht::core::OptStatus status);
bool parse_status(const std::string& name, ht::core::OptStatus* out);

/// JSON text (one entry per line, so diffs stay readable).
std::string expected_to_text(const ExpectedFile& file);
bool expected_from_text(const std::string& text, ExpectedFile* out,
                        std::string* error);

}  // namespace hlsbench
