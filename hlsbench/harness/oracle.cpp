#include "oracle.hpp"

#include <sstream>

#include "core/validate.hpp"
#include "service/json.hpp"

namespace hlsbench {

using ht::core::OptStatus;

Answer answer_of(const ht::core::OptimizeResult& result) {
  return Answer{result.status, result.has_solution() ? result.cost : 0};
}

bool is_proved(OptStatus status) {
  return status == OptStatus::kOptimal || status == OptStatus::kInfeasible;
}

long long reprice(const ht::core::ProblemSpec& spec,
                  const ht::core::Solution& solution) {
  std::set<std::pair<int, int>> licenses;  // (vendor, resource class)
  for (const ht::core::CopyRef& ref : solution.all_copies()) {
    const ht::core::Binding& binding = solution.at(ref);
    if (!binding.is_set()) continue;
    const auto rc = ht::dfg::resource_class_of(spec.graph.op(ref.op).type);
    licenses.emplace(binding.vendor, static_cast<int>(rc));
  }
  long long total = 0;
  for (const auto& [vendor, rc] : licenses) {
    total += spec.catalog
                 .offer(vendor, static_cast<ht::dfg::ResourceClass>(rc))
                 .cost;
  }
  return total;
}

std::string check_binding(const ht::core::ProblemSpec& spec,
                          const std::set<ht::core::LicenseKey>& banned,
                          const ht::core::OptimizeResult& result) {
  if (!result.has_solution()) return "";
  const ht::core::ValidationReport report =
      ht::core::validate_solution(spec, result.solution);
  if (!report.ok()) return "invalid design: " + report.violations.front();
  for (const ht::core::LicenseKey& license :
       result.solution.licenses_used(spec)) {
    if (banned.count(license) > 0) {
      return "design uses banned license of vendor " +
             std::to_string(license.vendor + 1);
    }
  }
  const long long priced = reprice(spec, result.solution);
  if (priced != result.cost) {
    return "reported cost " + std::to_string(result.cost) +
           " but the design prices at " + std::to_string(priced);
  }
  return "";
}

bool same_design(const ht::core::Solution& a, const ht::core::Solution& b) {
  if (a.num_ops() != b.num_ops() || a.with_recovery() != b.with_recovery()) {
    return false;
  }
  for (const ht::core::CopyRef& ref : a.all_copies()) {
    if (!(a.at(ref) == b.at(ref))) return false;
  }
  return true;
}

Verdict compare_answer(const Answer& reference, const Answer& got) {
  if (reference == got) return Verdict::kMatch;
  switch (reference.status) {
    case OptStatus::kUnknown:
      return Verdict::kUpgrade;
    case OptStatus::kFeasible:
      if (got.status == OptStatus::kOptimal && got.cost <= reference.cost) {
        return Verdict::kUpgrade;
      }
      if (got.status == OptStatus::kFeasible && got.cost < reference.cost) {
        return Verdict::kUpgrade;
      }
      return Verdict::kMismatch;
    case OptStatus::kOptimal:
    case OptStatus::kInfeasible:
      return Verdict::kMismatch;
  }
  return Verdict::kMismatch;
}

std::string status_name(OptStatus status) {
  return ht::core::to_string(status);
}

bool parse_status(const std::string& name, OptStatus* out) {
  for (OptStatus status : {OptStatus::kOptimal, OptStatus::kFeasible,
                           OptStatus::kInfeasible, OptStatus::kUnknown}) {
    if (ht::core::to_string(status) == name) {
      *out = status;
      return true;
    }
  }
  return false;
}

std::string expected_to_text(const ExpectedFile& file) {
  using ht::service::json_quote;
  std::ostringstream out;
  out << "{\"workload\": " << json_quote(file.workload)
      << ",\n \"budgets\": " << json_quote(file.budgets)
      << ",\n \"entries\": [";
  bool first = true;
  for (const auto& [id, entry] : file.entries) {
    out << (first ? "\n  " : ",\n  ") << "{\"id\": " << id
        << ", \"status\": " << json_quote(status_name(entry.answer.status))
        << ", \"cost\": " << entry.answer.cost
        << ", \"ilp\": " << json_quote(entry.ilp) << "}";
    first = false;
  }
  out << "\n]}\n";
  return out.str();
}

bool expected_from_text(const std::string& text, ExpectedFile* out,
                        std::string* error) {
  ht::service::Json doc;
  if (!ht::service::Json::parse(text, &doc, error)) return false;
  ExpectedFile file;
  file.workload = doc.get("workload").as_string("");
  file.budgets = doc.get("budgets").as_string("");
  for (const ht::service::Json& item : doc.get("entries").items()) {
    ExpectedEntry entry;
    const int id = static_cast<int>(item.get("id").as_int(-1));
    if (id < 0 || !parse_status(item.get("status").as_string(""),
                                &entry.answer.status)) {
      *error = "malformed expected entry";
      return false;
    }
    entry.answer.cost = item.get("cost").as_int(0);
    entry.ilp = item.get("ilp").as_string("skipped");
    if (!file.entries.emplace(id, entry).second) {
      *error = "duplicate expected entry " + std::to_string(id);
      return false;
    }
  }
  *out = std::move(file);
  return true;
}

}  // namespace hlsbench
