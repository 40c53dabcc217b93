// Workload "endpoint": templated SPARQL-endpoint traffic over HTTP. An
// in-process server::SparqlServer (fixed 2-worker pool, result cache on
// at a capacity below the distinct-request working set) answers two
// closed-loop keep-alive clients that replay the pre-generated request
// sequence. Time goes to the server, admission, results serialisation,
// parse/plan on plan-cache misses and the engine caches; exec is small.
#include <iostream>
#include <map>
#include <thread>
#include <unordered_map>

#include "common/thread_pool.h"
#include "harness/harness.h"
#include "harness/inputs.h"
#include "harness/stats.h"
#include "results/writer.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

namespace {

using hsparql::engine::Engine;

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kResultCacheEntries = 256;
/// One response body in kSampleEvery is checked byte for byte.
constexpr std::uint64_t kSampleEvery = 16;
/// Distinct texts replayed in-process for the per-layer figures.
constexpr std::size_t kReplayTexts = 400;

struct Stack {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<hsparql::ThreadPool> pool;
  std::unique_ptr<hsparql::server::SparqlServer> server;

  ~Stack() {
    if (server != nullptr) server->Shutdown();
    server.reset();
    pool.reset();
  }
};

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

std::string Hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A request as the client issued it.
struct Issued {
  std::size_t index = 0;  // into the request sequence
  double ms = 0.0;
  int status = 0;
  bool transport_error = false;
  std::uint64_t body_hash = 0;
  std::size_t body_size = 0;
  bool sampled = false;
  bool verified = false;
  // Traced run only.
  std::string id;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t unix_micros = 0;
};

std::int64_t UnixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

struct WindowResult {
  std::vector<Issued> issued;
  double seconds = 0.0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

WindowResult RunWindow(std::uint16_t port,
                       const std::vector<Request>& requests,
                       std::uint64_t seed, double seconds, bool traced,
                       std::atomic<std::size_t>* next) {
  std::vector<std::vector<Issued>> per_client(kClients);
  std::vector<hsparql::server::HttpClient> clients(kClients);
  for (auto& c : clients) {
    if (!c.Connect("127.0.0.1", port).ok()) return {};
  }
  const std::int64_t start = NowNanos();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      hsparql::server::HttpClient& client = clients[c];
      std::vector<Issued>& out = per_client[c];
      std::vector<std::pair<std::string, std::string>> headers;
      while (NowNanos() < deadline) {
        Issued r;
        r.index = next->fetch_add(1, std::memory_order_relaxed);
        r.sampled = Mix(r.index ^ seed) % kSampleEvery == 0;
        headers.clear();
        if (traced) {
          r.id = Hex16(Mix(r.index + 1) | 1);
          headers.emplace_back(
              "traceparent", "00-" + Hex16(seed + 1) + Hex16(r.index + 1) +
                                 "-" + r.id + "-01");
          r.unix_micros = UnixMicros();
        }
        const Request& req = requests[r.index % requests.size()];
        const std::string target =
            "/sparql?query=" + hsparql::server::HttpClient::UrlEncode(req.text) +
            "&format=" + req.format;
        r.start_ns = NowNanos();
        auto response = client.Get(target, headers);
        r.end_ns = NowNanos();
        r.ms = NanosToMillis(r.end_ns - r.start_ns);
        if (!response.ok()) {
          r.transport_error = true;
          out.push_back(std::move(r));
          if (!client.Connect("127.0.0.1", port).ok()) return;
          continue;
        }
        r.status = response->status;
        if (r.sampled) {
          r.body_hash = HashBytes(response->body);
          r.body_size = response->body.size();
        }
        out.push_back(std::move(r));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  WindowResult w;
  w.start_ns = start;
  w.end_ns = NowNanos();
  w.seconds = static_cast<double>(w.end_ns - start) / 1e9;
  for (auto& v : per_client) {
    for (Issued& r : v) w.issued.push_back(std::move(r));
  }
  return w;
}

/// Marks failures (transport errors, non-200s, sampled bodies that differ
/// from results::WriteString over the in-process answer) and flags the
/// verified successes; returns their number.
std::uint64_t Verify(WindowResult* w, const std::vector<Request>& requests,
                     const Engine& engine, Report* report) {
  std::map<std::pair<std::string, std::string>,
           std::pair<std::uint64_t, std::size_t>>
      expected;
  std::uint64_t ok = 0;
  for (Issued& r : w->issued) {
    report->Attempt();
    const Request& req = requests[r.index % requests.size()];
    if (r.transport_error) {
      report->Fail("transport error on request " + std::to_string(r.index));
      continue;
    }
    if (r.status != 200) {
      report->Fail("HTTP " + std::to_string(r.status) + " on request " +
                   std::to_string(r.index));
      continue;
    }
    if (r.sampled) {
      auto key = std::make_pair(req.text, req.format);
      auto it = expected.find(key);
      if (it == expected.end()) {
        auto response = engine.Query(req.text);
        std::pair<std::uint64_t, std::size_t> value{0, SIZE_MAX};
        if (response.ok()) {
          hsparql::engine::StoreView view = engine.read_view();
          const std::string body = hsparql::results::WriteString(
              *hsparql::results::FormatFromName(req.format),
              response->result->table, response->planned->planned.query,
              view.dictionary());
          value = {HashBytes(body), body.size()};
        }
        it = expected.emplace(key, value).first;
      }
      const std::string what = "request " + std::to_string(r.index) +
                               " body vs results::WriteString";
      if (!CheckEqual(r.body_size, it->second.second, what + " (bytes)",
                      report) ||
          !CheckEqual(r.body_hash, it->second.first, what + " (hash)",
                      report)) {
        continue;
      }
    }
    r.verified = true;
    ++ok;
  }
  return ok;
}

void ReportEndToEnd(const WindowResult& w, const std::vector<Request>& requests,
                    std::uint64_t ok, Report* report) {
  std::vector<double> all;
  std::vector<std::vector<double>> per_template(EndpointTemplateNames().size());
  std::vector<std::int64_t> done_ns;
  for (const Issued& r : w.issued) {
    if (!r.verified) continue;
    all.push_back(r.ms);
    per_template[requests[r.index % requests.size()].template_id].push_back(
        r.ms);
    done_ns.push_back(r.end_ns);
  }
  ReportLatencies(all, per_template, MedianRate(done_ns, w.start_ns, w.end_ns),
                  ok, report);
  // Each template's share of client time: no template should dominate.
  std::vector<double> total(per_template.size());
  double sum = 0.0;
  for (std::size_t t = 0; t < per_template.size(); ++t) {
    for (double ms : per_template[t]) total[t] += ms;
    sum += total[t];
  }
  std::string shares = "{";
  for (std::size_t t = 0; t < total.size(); ++t) {
    if (t > 0) shares += ',';
    shares += JsonString(EndpointTemplateNames()[t]) + ":" +
              std::to_string(sum > 0 ? total[t] / sum : 0.0);
  }
  report->AddContext("template_time_share", shares + "}");
}

}  // namespace

int RunEndpoint(const RunArgs& args, Report* report) {
  std::vector<Request> requests;
  if (auto st = ReadRequests(args.data_dir + "/requests.tsv", &requests);
      !st.ok()) {
    std::cerr << "perfbench: " << st << "\n";
    return 1;
  }

  std::vector<double> setup_seconds;
  std::vector<SetupTimes> times;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack.reset();
    stack = std::make_unique<Stack>();
    SetupTimes t;
    PinToCpu(static_cast<std::size_t>(rep));
    const std::int64_t t0 = NowNanos();
    auto store = LoadStore(args.data_dir + "/sp2b.nt", &t);
    if (!store.ok()) {
      std::cerr << "perfbench: " << store.status() << "\n";
      return 1;
    }
    hsparql::engine::EngineOptions engine_options;
    engine_options.result_cache_capacity = kResultCacheEntries;
    stack->engine = MakeEngine(std::move(*store), engine_options, &t);
    Unpin();  // the pool and server threads must not inherit the pin
    stack->pool = std::make_unique<hsparql::ThreadPool>(kWorkers);
    hsparql::server::ServerOptions options;
    options.pool = stack->pool.get();
    options.admission.max_concurrent = kWorkers;
    // The traced run joins every request to its server-side trace, so the
    // recorder must hold a whole window's worth.
    if (args.trace) options.recorder.recent_capacity = 1 << 15;
    stack->server = std::make_unique<hsparql::server::SparqlServer>(
        stack->engine.get(), options);
    if (auto st = stack->server->Start(); !st.ok()) {
      std::cerr << "perfbench: server start: " << st << "\n";
      return 1;
    }
    setup_seconds.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    times.push_back(t);
  }
  ReportSetup(setup_seconds, times, report);

  std::atomic<std::size_t> next{0};
  WindowResult plain = RunWindow(stack->server->port(), requests,
                                       args.seed, args.seconds, false, &next);
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  if (plain.issued.empty()) {
    std::cerr << "perfbench: no request completed\n";
    return 1;
  }
  const std::uint64_t ok = Verify(&plain, requests, *stack->engine, report);
  ReportEndToEnd(plain, requests, ok, report);
  if (!args.trace) return 0;

  // Traced run: the same traffic, continuing the sequence, with each
  // client span parenting the server's phase spans (joined on the
  // request id the server adopts from the traceparent header).
  const hsparql::engine::EngineStats before = stack->engine->stats();
  WindowResult traced = RunWindow(stack->server->port(), requests,
                                        args.seed, args.seconds, true, &next);
  ReportCacheRatios(before, stack->engine->stats(), report);
  const std::uint64_t traced_ok =
      Verify(&traced, requests, *stack->engine, report);

  std::unordered_map<std::string, std::shared_ptr<const hsparql::obs::RequestTrace>>
      server_traces;
  for (auto& trace : stack->server->recorder().Snapshot()) {
    server_traces[trace->id] = trace;
  }
  SpanLog log;
  std::map<std::string, std::vector<double>> phase_ms;
  std::vector<double> transport_ms;
  double covered = 0.0;
  double request_total = 0.0;
  std::uint64_t joined = 0;
  std::uint64_t shed = 0;
  for (const Issued& r : traced.issued) {
    if (r.status == 503 || r.status == 429) ++shed;
    const std::uint64_t root = log.Add(0, r.id, "client.request", "client",
                                       r.start_ns, r.end_ns);
    auto it = server_traces.find(r.id);
    if (it == server_traces.end()) continue;
    const hsparql::obs::RequestTrace& st = *it->second;
    ++joined;
    // Server offsets are relative to its request start, stamped on the
    // wall clock; place them on this run's monotonic clock.
    const std::int64_t server_start =
        r.start_ns + (st.unix_micros - r.unix_micros) * 1000;
    std::vector<Interval> children;
    for (const hsparql::obs::RequestSpan& span : st.spans) {
      const auto begin =
          server_start + static_cast<std::int64_t>(span.start_millis * 1e6);
      const auto end = begin + static_cast<std::int64_t>(span.millis * 1e6);
      log.Add(root, r.id, "server." + span.name, "server", begin, end);
      phase_ms[span.name].push_back(span.millis);
      children.push_back({begin, end});
    }
    // What the server's phases leave of the round trip is transport
    // (sockets, the client's own work): the client span's self time.
    const std::int64_t self = SelfNanos({r.start_ns, r.end_ns}, children);
    covered += r.ms - NanosToMillis(self);
    request_total += r.ms;
    transport_ms.push_back(NanosToMillis(self));
  }
  auto phase = [&](const std::string& name) {
    return std::make_pair(Median(phase_ms[name]), phase_ms[name].size());
  };
  const auto queue = phase("queue");
  report->Set("server.queue_ms.p50", queue.first, "ms", queue.second);
  const TailValue queue_tail = TailPercentile(phase_ms["queue"], 0.99);
  report->Set("server.queue_ms.p99", queue_tail.value, "ms", queue.second);
  for (const char* name : {"parse_http", "serialize", "flush"}) {
    const auto p = phase(name);
    report->Set(std::string("server.") + name + "_ms", p.first, "ms", p.second);
  }
  report->Set("server.transport_ms", Median(transport_ms), "ms",
              transport_ms.size());
  report->Set("server.shed", static_cast<double>(shed), "count");
  report->AddContext("trace.joined_requests",
                     "{\"joined\":" + std::to_string(joined) + ",\"issued\":" +
                         std::to_string(traced.issued.size()) + "}");

  // In-process decomposed replay of the distinct texts, for the sparql,
  // plan, exec, engine and results layers.
  std::vector<std::string> distinct;
  {
    std::unordered_map<std::string, bool> seen;
    for (const Request& r : requests) {
      if (distinct.size() >= kReplayTexts) break;
      if (seen.emplace(r.text, true).second) distinct.push_back(r.text);
    }
  }
  ReplayStats replay;
  std::vector<std::pair<const Engine*, std::string>> responses;
  for (const std::string& text : distinct) {
    const std::int64_t t0 = NowNanos();
    auto response = stack->engine->Query(text);
    const std::int64_t t1 = NowNanos();
    if (!response.ok()) {
      report->Fail("in-process replay: " + response.status().ToString());
      continue;
    }
    auto outcome = TraceQuery(*stack->engine, text,
                              "replay" + std::to_string(responses.size()), t0,
                              t1, *response, &log, &replay);
    if (!outcome.ok()) {
      report->Fail("replay: " + outcome.status().ToString());
    } else {
      CheckEqual(outcome->rows, response->rows(), "replay rows", report);
    }
    responses.emplace_back(stack->engine.get(), text);
  }
  ReportReplay(replay, report);
  ReportSerialization(responses, report);

  // Coverage here is the share of each client round trip that the
  // server's own phase spans account for.
  const hsparql::Status st = ReportTracing(
      covered, request_total, static_cast<double>(ok) / plain.seconds, ok,
      static_cast<double>(traced_ok) / traced.seconds, traced_ok, log.spans(),
      args.spans_path, report);
  if (!st.ok()) {
    std::cerr << "perfbench: " << st << "\n";
    return 1;
  }
  return 0;
}

}  // namespace perfbench
