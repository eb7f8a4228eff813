// Sample statistics and failure accounting for the benchmark harness.
//
// Percentiles use the nearest-rank rule: the p-th percentile of n sorted
// samples is the ceil(p * n)-th smallest. A percentile is reported only
// when at least kMinTail samples lie strictly beyond its rank, so p90
// needs n >= 100. When a run makes several passes over its requests, each
// request contributes the median of its own samples, and percentiles are
// taken over those per-request medians.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hlsbench {

/// Samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinTail = 10;

/// Median of `values` (mean of the two middle values for even sizes).
/// Requires a non-empty vector.
double median(std::vector<double> values);

/// Nearest-rank percentile, p in (0, 1]. Requires a non-empty vector.
double percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// True when `n` samples are enough to report the p-th percentile.
bool percentile_reportable(std::size_t n, double p);

/// One median per request over the requests that have any samples.
std::vector<double> per_request_medians(
    const std::vector<std::vector<double>>& samples);

/// Mean of the per-request medians of the first `limit` requests.
double mean_of_medians(const std::vector<std::vector<double>>& samples,
                       std::size_t limit = static_cast<std::size_t>(-1));

/// How a request attempt ended. Every kind but kOk counts in error_frac.
enum class Outcome {
  kOk,
  kFailed,        ///< the program answered with an error
  kRefused,       ///< admission refused (queue_full)
  kTransport,     ///< connection or framing failure
  kClockStopped,  ///< the solve ran into its wall-clock limit
};

/// Attempt counts per outcome.
struct OutcomeCounts {
  long attempted = 0;
  long failed = 0;
  long refused = 0;
  long transport = 0;
  long clock_stopped = 0;

  void add(Outcome outcome);
  void merge(const OutcomeCounts& other);
  long errors() const { return failed + refused + transport + clock_stopped; }
  /// errors() / attempted; 0 when nothing was attempted.
  double error_frac() const;
};

}  // namespace hlsbench
