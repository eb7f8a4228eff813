#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hlsbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

bool percentile_reportable(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinTail;
}

std::vector<double> per_request_medians(
    const std::vector<std::vector<double>>& samples) {
  std::vector<double> medians;
  for (const std::vector<double>& request : samples) {
    if (!request.empty()) medians.push_back(median(request));
  }
  return medians;
}

double mean_of_medians(const std::vector<std::vector<double>>& samples,
                       std::size_t limit) {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < samples.size() && i < limit; ++i) {
    if (samples[i].empty()) continue;
    sum += median(samples[i]);
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

void OutcomeCounts::add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk: break;
    case Outcome::kFailed: ++failed; break;
    case Outcome::kRefused: ++refused; break;
    case Outcome::kTransport: ++transport; break;
    case Outcome::kClockStopped: ++clock_stopped; break;
  }
}

void OutcomeCounts::merge(const OutcomeCounts& other) {
  attempted += other.attempted;
  failed += other.failed;
  refused += other.refused;
  transport += other.transport;
  clock_stopped += other.clock_stopped;
}

double OutcomeCounts::error_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(errors()) /
                              static_cast<double>(attempted);
}

}  // namespace hlsbench
