// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// layer (the program is not instrumented). Each span has a layer name, a
// request id shared by the spans of one request, and an optional parent.
// Spans are kept in memory and written once, at the end, as Chrome trace
// JSON (load it in chrome://tracing or Perfetto).
//
// Self time. A span's self time is its duration minus the time its child
// spans cover. Summing self time by layer over a request's span tree
// gives a split that adds up to the root span's wall time exactly; the
// root's own self time is reported as the `other` residual.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hlsbench {

std::int64_t now_ns();

/// Milliseconds elapsed since `start_ns` (a now_ns() reading).
double ms_since(std::int64_t start_ns);

struct Span {
  std::string layer;
  std::uint64_t request = 0;
  int parent = -1;  ///< index into the owning request's span list, or -1
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
  int thread = 0;
};

/// Self time per layer of one request's spans; the root's self time is
/// filed under "other". The values sum to the root's duration.
std::map<std::string, std::int64_t> self_time_by_layer(
    const std::vector<Span>& spans);

/// Spans of one request, built on one thread, then handed to the recorder.
class RequestTrace {
 public:
  RequestTrace(std::uint64_t request, int thread);

  /// Opens a span starting now under the innermost open span; returns its
  /// index.
  int open(const std::string& layer);
  /// Closes span `index` now.
  void close(int index);
  /// Adds a closed child of `parent` with a duration measured by the
  /// program (queue and solve times, engine stage timers). The child is
  /// placed at `start_ns` and clamped to fit inside its parent.
  int add_child(int parent, const std::string& layer, std::int64_t start_ns,
                std::int64_t duration_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t request_;
  int thread_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Collects finished requests from any thread.
class TraceRecorder {
 public:
  void add(const RequestTrace& trace);

  /// Self time of `layer` summed over requests (ns), and the summed root
  /// durations.
  double self_time_ns(const std::string& layer) const;
  std::int64_t root_total_ns() const;
  long requests() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<Span>> requests_;
};

}  // namespace hlsbench
