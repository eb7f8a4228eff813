#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "service/json.hpp"

namespace hlsbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

std::map<std::string, std::int64_t> self_time_by_layer(
    const std::vector<Span>& spans) {
  // Children of each span, as [start, end) clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.start_ns + span.duration_ns,
                                     parent.start_ns + parent.duration_ns);
    if (hi > lo) covered[static_cast<std::size_t>(span.parent)].push_back({lo, hi});
  }
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t union_ns = 0, reach = INT64_MIN;
    for (const auto& [lo, hi] : intervals) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    const std::string& layer = spans[i].parent < 0 ? "other" : spans[i].layer;
    self[layer] += spans[i].duration_ns - union_ns;
  }
  return self;
}

RequestTrace::RequestTrace(std::uint64_t request, int thread)
    : request_(request), thread_(thread) {}

int RequestTrace::open(const std::string& layer) {
  Span span;
  span.layer = layer;
  span.request = request_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  span.thread = thread_;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void RequestTrace::close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.duration_ns = now_ns() - span.start_ns;
  open_.erase(std::remove(open_.begin(), open_.end(), index), open_.end());
}

int RequestTrace::add_child(int parent, const std::string& layer,
                            std::int64_t start_ns, std::int64_t duration_ns) {
  const Span& outer = spans_[static_cast<std::size_t>(parent)];
  Span span;
  span.layer = layer;
  span.request = request_;
  span.parent = parent;
  span.thread = thread_;
  const std::int64_t end = outer.start_ns + outer.duration_ns;
  span.start_ns = std::clamp(start_ns, outer.start_ns, end);
  span.duration_ns = std::clamp<std::int64_t>(duration_ns, 0, end - span.start_ns);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void TraceRecorder::add(const RequestTrace& trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  requests_.push_back(trace.spans());
}

double TraceRecorder::self_time_ns(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const auto& spans : requests_) {
    const auto self = self_time_by_layer(spans);
    const auto it = self.find(layer);
    if (it != self.end()) total += it->second;
  }
  return static_cast<double>(total);
}

std::int64_t TraceRecorder::root_total_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const auto& spans : requests_) {
    for (const Span& span : spans) {
      if (span.parent < 0) total += span.duration_ns;
    }
  }
  return total;
}

long TraceRecorder::requests() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<long>(requests_.size());
}

bool TraceRecorder::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out.setf(std::ios::fixed);
  out.precision(3);
  std::int64_t origin = INT64_MAX;
  for (const auto& spans : requests_) {
    for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& spans : requests_) {
    for (const Span& span : spans) {
      out << (first ? "\n" : ",\n") << "{\"name\":"
          << ht::service::json_quote(span.layer)
          << ",\"cat\":\"hlsbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << span.thread << ",\"ts\":"
          << static_cast<double>(span.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(span.duration_ns) / 1e3
          << ",\"args\":{\"request\":" << span.request << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace hlsbench
