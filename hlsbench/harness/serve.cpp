// serve_mixed: thlsd over a Unix socket, 4 client connections in a
// closed loop (each client sends its next request only after the reply to
// the previous one is read), the daemon at its default 2 workers.
//
// A request's latency runs from the client's send until the reply line is
// read. The daemon reports its queue wait and solve time in every reply's
// "service" block; the rest of the round trip (framing, parse, serialize,
// socket) is the transport share.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "core/bounds.hpp"
#include "harness.hpp"
#include "service/client.hpp"
#include "service/wire.hpp"
#include "trace.hpp"

namespace hlsbench {

namespace {

using ht::service::Client;
using ht::service::Json;

constexpr int kClients = 4;
constexpr int kSetups = 3;

/// One thlsd child process. The destructor stops it and reaps it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket,
         const std::string& log) : socket_(socket) {
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the harness
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execl(binary.c_str(), binary.c_str(), "--socket", socket.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits until the daemon answers a ping; false if it died or took
  /// longer than 30 s.
  bool ready() {
    if (pid_ <= 0) return false;
    const std::int64_t deadline = now_ns() + 30'000'000'000LL;
    while (now_ns() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::string error;
      if (auto client = Client::connect_unix(socket_, &error)) {
        if (client->ping()) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  std::string pid() const { return std::to_string(pid_); }

  /// Asks for a clean shutdown, then escalates to signals; always reaps.
  void stop() {
    if (pid_ <= 0) return;
    std::string error;
    if (auto client = Client::connect_unix(socket_, &error)) {
      client->shutdown_server();
    }
    for (int sig : {0, SIGTERM, SIGKILL}) {
      if (sig != 0) ::kill(pid_, sig);
      for (int i = 0; i < 500; ++i) {
        if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
          pid_ = -1;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

std::string envelope_line(const ht::core::SynthesisRequest& request,
                          std::size_t slot) {
  Json envelope = Json::object();
  envelope.set("schema_version", ht::service::kSchemaVersion);
  envelope.set("op", "synthesize");
  envelope.set("id", "r" + std::to_string(slot));
  envelope.set("request", ht::service::request_to_json(request));
  return envelope.dump();
}

/// What one client saw for one request.
struct Record {
  std::size_t slot = 0;
  Outcome outcome = Outcome::kOk;
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  Answer answer;
  ht::core::OptimizeStats stats;
  std::string problem;  ///< oracle failure of the binding, if any
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  double parse_request_us = 0.0;
  double serialize_response_us = 0.0;
};

struct Inputs {
  std::vector<int> indices;
  std::vector<PoolEntry> entries;
  std::vector<std::string> lines;
};

class Clients {
 public:
  Clients(const Workload& workload, const Inputs& inputs)
      : workload_(workload), inputs_(inputs) {}

  /// Sends requests through kClients connections until `deadline_ns`
  /// (or, with `warmup`, through the minimize requests once).
  void run(std::int64_t deadline_ns, bool warmup, TraceRecorder* trace,
           std::vector<Record>* records, RunResult* result) {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < inputs_.entries.size(); ++i) {
      if (!warmup || !is_reoptimize_entry(workload_, inputs_.indices[i])) {
        order.push_back(i);
      }
    }
    std::atomic<std::size_t> cursor{0};
    std::mutex mutex;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<Record> mine;
        std::string error;
        auto client = Client::connect_unix(socket_, &error);
        std::uint64_t next_id = static_cast<std::uint64_t>(c) << 32;
        while (true) {
          const std::size_t k = cursor.fetch_add(1);
          if (warmup ? k >= order.size() : now_ns() >= deadline_ns) break;
          const std::size_t slot = order[k % order.size()];
          Record record;
          if (client == nullptr) {
            record.slot = slot;
            record.outcome = Outcome::kTransport;
            record.problem = error;
          } else {
            record = exchange(*client, slot, trace, ++next_id, c);
          }
          if (!warmup) mine.push_back(std::move(record));
        }
        std::lock_guard<std::mutex> lock(mutex);
        for (Record& record : mine) {
          result->outcomes.add(record.outcome);
          records->push_back(std::move(record));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  void set_socket(const std::string& socket) { socket_ = socket; }

 private:
  Record exchange(Client& client, std::size_t slot, TraceRecorder* trace,
                  std::uint64_t request_id, int thread) {
    Record record;
    record.slot = slot;
    const PoolEntry& entry = inputs_.entries[slot];
    std::optional<RequestTrace> spans;
    int root = -1;
    std::string built;
    const std::string* line = &inputs_.lines[slot];
    if (trace != nullptr) {
      spans.emplace(request_id, thread);
      root = spans->open("request");
      const int wire = spans->open("wire");
      built = envelope_line(entry.request, slot);
      line = &built;
      spans->close(wire);
    }
    std::string reply, error;
    const int transport = spans ? spans->open("transport") : -1;
    const std::int64_t sent = now_ns();
    const bool ok = client.send_line(*line, &error) && client.read_line(&reply, &error);
    record.latency_ms = ms_since(sent);
    if (spans) spans->close(transport);
    record.request_bytes = line->size() + 1;
    record.response_bytes = reply.size() + 1;
    if (!ok) {
      record.outcome = Outcome::kTransport;
      record.problem = error;
      return record;
    }

    const int wire = spans ? spans->open("wire") : -1;
    Json envelope;
    ht::core::SynthesisResponse response;
    const bool parsed = Json::parse(reply, &envelope, &error);
    const bool answered = parsed && envelope.get("ok").as_bool(false) &&
                          ht::service::response_from_json(
                              envelope.get("response"), &response, &error);
    if (spans) spans->close(wire);
    record.queue_ms = envelope.get("service").get("queue_ms").as_double(0.0);
    record.solve_ms = envelope.get("service").get("solve_ms").as_double(0.0);
    if (spans) {
      const auto queue_ns = static_cast<std::int64_t>(record.queue_ms * 1e6);
      spans->add_child(transport, "queue", sent, queue_ns);
      spans->add_child(transport, "solve", sent + queue_ns,
                       static_cast<std::int64_t>(record.solve_ms * 1e6));
    }
    if (!parsed) {
      record.outcome = Outcome::kTransport;
      record.problem = "malformed reply: " + error;
    } else if (!answered) {
      const std::string code = envelope.get("error").get("code").as_string("");
      record.outcome = code == "queue_full" ? Outcome::kRefused : Outcome::kFailed;
      record.problem = code.empty() ? error : code;
    } else {
      const ht::core::OptimizeResult& result = response.result;
      record.answer = answer_of(result);
      record.stats = result.stats;
      if (clock_stopped(workload_.limits, record.solve_ms / 1e3)) {
        record.outcome = Outcome::kClockStopped;
      }
      const int validate = spans ? spans->open("validate") : -1;
      record.problem = check_binding(entry.request.spec, entry.request.banned, result);
      if (spans) spans->close(validate);
    }
    if (spans) {
      spans->close(root);
      trace->add(*spans);
      // The daemon's own wire work, replayed here through the same public
      // functions: parse the request document, serialize the response.
      const std::string document = ht::service::serialize_request(entry.request);
      ht::core::SynthesisRequest reparsed;
      std::int64_t t0 = now_ns();
      ht::service::parse_request(document, &reparsed, &error);
      record.parse_request_us = ms_since(t0) * 1e3;
      t0 = now_ns();
      const std::string text = ht::service::serialize_response(response);
      record.serialize_response_us = ms_since(t0) * 1e3;
    }
    return record;
  }

  const Workload& workload_;
  const Inputs& inputs_;
  std::string socket_;
};

struct Timed {
  std::vector<Record> records;
  double elapsed_s = 0.0;
};

void timed(Clients& clients, double seconds, TraceRecorder* trace,
           Timed* out, RunResult* result) {
  const std::int64_t start = now_ns();
  clients.run(start + static_cast<std::int64_t>(seconds * 1e9), false, trace,
              &out->records, result);
  out->elapsed_s = ms_since(start) / 1e3;
}

std::vector<std::vector<double>> latencies(const Timed& phase, std::size_t n) {
  std::vector<std::vector<double>> samples(n);
  for (const Record& record : phase.records) {
    if (record.outcome == Outcome::kOk) samples[record.slot].push_back(record.latency_ms);
  }
  return samples;
}

/// The oracle: every binding was validated by the client; here every
/// answer is compared with a cold in-process solve of the same request,
/// and each cold solve with the expected file. Returns one answer per
/// request (its cold-checked first reply) for the quality metrics.
std::vector<ht::core::OptimizeResult> check_replies(
    const Options& options, const Workload& workload, const Inputs& inputs,
    const Timed& phase, RunResult* result) {
  std::vector<ht::core::OptimizeResult> answers;
  ExpectedFile expected;
  if (!load_expected(options, workload, &expected, result)) return answers;
  std::vector<std::set<std::pair<int, long long>>> seen(inputs.entries.size());
  std::vector<std::optional<Answer>> first(inputs.entries.size());
  for (const Record& record : phase.records) {
    if (record.outcome != Outcome::kOk && record.outcome != Outcome::kClockStopped) continue;
    if (!record.problem.empty()) {
      result->wrong.push_back(inputs.entries[record.slot].label + ": " + record.problem);
    }
    seen[record.slot].insert({static_cast<int>(record.answer.status), record.answer.cost});
    if (!first[record.slot]) first[record.slot] = record.answer;
  }
  for (std::size_t i = 0; i < inputs.entries.size(); ++i) {
    if (seen[i].empty()) continue;
    const PoolEntry& entry = inputs.entries[i];
    const ht::core::OptimizeResult cold = ht::core::synthesize(entry.request).result;
    check_against(expected, inputs.indices[i], entry, cold, result);
    for (const auto& [status, cost] : seen[i]) {
      const Answer got{static_cast<ht::core::OptStatus>(status), cost};
      const Verdict verdict = compare_answer(answer_of(cold), got);
      const std::string line = entry.label + ": daemon " + status_name(got.status) +
                               "/" + std::to_string(got.cost) + " vs cold " +
                               status_name(cold.status) + "/" +
                               std::to_string(cold.cost);
      if (verdict == Verdict::kMismatch) result->wrong.push_back(line);
      if (verdict == Verdict::kUpgrade) result->upgrades.push_back(line);
    }
    ht::core::OptimizeResult answer;
    answer.status = first[i]->status;
    answer.cost = first[i]->cost;
    answers.push_back(answer);
  }
  return answers;
}

/// Replays the daemon's warm-state path in process, per market: adopt the
/// published snapshot, solve, export the delta, merge it. Two passes over
/// the run's requests; the second reads what the first wrote.
void warm_metrics(const Inputs& inputs, RunResult* result) {
  struct Market {
    ht::core::SynthesisEngine engine;
    ht::core::WarmSnapshotPtr snapshot;
  };
  std::map<std::uint64_t, std::unique_ptr<Market>> markets;
  double adopt_us = 0, export_us = 0, merge_us = 0;
  long calls = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const PoolEntry& entry : inputs.entries) {
      const std::uint64_t key = ht::core::spec_family_fingerprint(entry.request.spec);
      auto& market = markets[key];
      if (!market) market = std::make_unique<Market>();
      std::int64_t t0 = now_ns();
      market->engine.adopt_warm(market->snapshot);
      adopt_us += ms_since(t0) * 1e3;
      market->engine.run(entry.request);
      t0 = now_ns();
      const ht::core::WarmDelta delta = market->engine.export_warm_delta();
      export_us += ms_since(t0) * 1e3;
      t0 = now_ns();
      market->snapshot = ht::core::merge_warm(market->snapshot, key, delta);
      merge_us += ms_since(t0) * 1e3;
      ++calls;
    }
  }
  double bytes = 0;
  for (const auto& [key, market] : markets) {
    if (market->snapshot) {
      bytes += static_cast<double>(ht::service::serialize_warm_snapshot(*market->snapshot).size());
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(calls));
  result->add("warm.merge_us", merge_us / n, "us");
  result->add("warm.adopt_us", adopt_us / n, "us");
  result->add("warm.export_us", export_us / n, "us");
  result->add("warm.snapshot_bytes", bytes, "bytes");
}

void layer_metrics(const Inputs& inputs, const Timed& untraced, const Timed& traced,
                   const TraceRecorder& trace, long rejects, RunResult* result) {
  double sets = 0, dispatched = 0, lb = 0, screen = 0, cache = 0, nodes = 0,
         backjumps = 0, nogoods = 0, queue = 0, solve = 0, latency = 0,
         request_bytes = 0, response_bytes = 0, parse_us = 0, serialize_us = 0;
  double answered = 0, exchanged = 0;
  for (const Record& record : traced.records) {
    if (record.outcome == Outcome::kTransport) continue;
    ++exchanged;
    request_bytes += static_cast<double>(record.request_bytes);
    response_bytes += static_cast<double>(record.response_bytes);
    latency += record.latency_ms;
    queue += record.queue_ms;
    solve += record.solve_ms;
    if (record.outcome != Outcome::kOk) continue;
    ++answered;
    const auto& s = record.stats;
    sets += static_cast<double>(sets_enumerated(s));
    dispatched += static_cast<double>(s.combos_tried);
    lb += static_cast<double>(s.lb_prunes);
    screen += static_cast<double>(s.combos_skipped_screen);
    cache += static_cast<double>(s.combos_skipped_cache);
    nodes += static_cast<double>(s.nodes_total);
    backjumps += static_cast<double>(s.backjumps);
    nogoods += static_cast<double>(s.nogoods_learned);
    parse_us += record.parse_request_us;
    serialize_us += record.serialize_response_us;
  }
  const double a = std::max(1.0, answered), e = std::max(1.0, exchanged);
  result->add("engine.sets_enumerated", sets / a, "count");
  result->add("engine.sets_dispatched", dispatched / a, "count");
  result->add("engine.lb_prunes", lb / a, "count");
  result->add("engine.screen_skips", screen / a, "count");
  result->add("csp.nodes_total", nodes / a, "count");
  result->add("csp.backjumps", backjumps / a, "count");
  result->add("csp.nogoods_learned", nogoods / a, "count");
  result->add("service.queue_ms", queue / e, "ms");
  result->add("service.solve_ms", solve / e, "ms");
  result->add("service.transport_ms", (latency - queue - solve) / e, "ms");
  result->add("service.rejects", static_cast<double>(rejects), "count");
  result->add("wire.request_bytes", request_bytes / e, "bytes");
  result->add("wire.response_bytes", response_bytes / e, "bytes");
  result->add("wire.parse_request_us", parse_us / a, "us");
  result->add("wire.serialize_response_us", serialize_us / a, "us");
  result->add("warm.cache_skip_ratio", sets > 0 ? cache / sets : 0.0, "ratio");

  // Bounds and validation, timed in process on the run's requests.
  double bounds_us = 0;
  for (const PoolEntry& entry : inputs.entries) {
    const std::int64_t t0 = now_ns();
    { const ht::core::LowerBounds lower(entry.request.spec); }
    bounds_us += ms_since(t0) * 1e3;
  }
  result->add("bounds.build_us",
              bounds_us / std::max<double>(1.0, static_cast<double>(inputs.entries.size())),
              "us");

  const double requests = std::max<double>(1.0, static_cast<double>(trace.requests()));
  result->add("validate.us", trace.self_time_ns("validate") / requests / 1e3, "us");
  add_layer_split(trace, {"wire", "transport", "queue", "solve", "validate", "other"},
                  result);
  const std::size_t n = inputs.entries.size();
  result->add("trace.overhead_ms",
              mean_of_medians(latencies(traced, n)) - mean_of_medians(latencies(untraced, n)),
              "ms");
}

}  // namespace

RunResult run_serve(const Options& options, const Workload& workload) {
  RunResult result;
  Inputs inputs;
  Clients clients(workload, inputs);
  const std::string base = options.work_dir + "/thlsd-" + std::to_string(::getpid());
  const std::string socket = base + ".sock";
  clients.set_socket(socket);

  // Set-up, kSetups times: build the inputs, start thlsd, ping it, and
  // send the run's minimize requests once (the warm-up pass). Only the
  // last daemon stays up for the timed phase.
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setup_seconds;
  for (int round = 0; round < kSetups; ++round) {
    daemon.reset();
    const std::int64_t start = now_ns();
    inputs.indices = run_indices(workload, options.seed);
    inputs.entries.clear();
    inputs.lines.clear();
    for (int index : inputs.indices) {
      inputs.entries.push_back(pool_entry(workload, index));
      inputs.lines.push_back(envelope_line(inputs.entries.back().request,
                                           inputs.lines.size()));
    }
    daemon = std::make_unique<Daemon>(options.thlsd, socket, base + ".log");
    if (!daemon->ready()) {
      result.problems.push_back("thlsd did not start (see " + base + ".log)");
      return result;
    }
    std::vector<Record> ignored;
    clients.run(0, true, nullptr, &ignored, &result);
    setup_seconds.push_back(ms_since(start) / 1e3);
  }
  const double setup_s = median(setup_seconds);
  std::printf("hlsbench: %s: %zu requests, set-up %.3f s\n",
              workload.name.c_str(), inputs.entries.size(), setup_s);

  Timed untraced, traced;
  TraceRecorder trace;
  timed(clients, options.trace ? options.seconds / 2 : options.seconds, nullptr,
        &untraced, &result);
  if (options.trace) timed(clients, options.seconds / 2, &trace, &traced, &result);

  long rejects = 0;
  {
    std::string error;
    auto client = Client::connect_unix(socket, &error);
    if (const auto stats = client ? client->stats(&error) : std::nullopt) {
      rejects = stats->get("service").get("rejected").as_int(0);
    }
  }
  const double daemon_rss = peak_rss_mb(daemon->pid());
  daemon.reset();

  // Every reply of both phases goes through the oracle.
  Timed checked = untraced;
  checked.records.insert(checked.records.end(), traced.records.begin(),
                         traced.records.end());
  const auto answers = check_replies(options, workload, inputs, checked, &result);
  if (!options.trace) {
    long completed = 0;
    for (const Record& record : untraced.records) completed += record.outcome == Outcome::kOk;
    add_end_to_end(&result, static_cast<double>(completed) / untraced.elapsed_s,
                   latencies(untraced, inputs.entries.size()), answers, daemon_rss,
                   setup_s);
    return result;
  }
  layer_metrics(inputs, untraced, traced, trace, rejects, &result);
  warm_metrics(inputs, &result);
  result.trace_path = options.work_dir + "/trace-" + workload.name + "-" +
                      std::to_string(options.seed) + ".json";
  if (!trace.write_chrome_json(result.trace_path)) {
    result.problems.push_back("cannot write " + result.trace_path);
  }
  return result;
}

}  // namespace hlsbench
