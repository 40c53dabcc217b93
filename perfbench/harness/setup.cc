#include <sched.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/hash.h"
#include "exec/executor.h"
#include "harness/harness.h"
#include "harness/stats.h"
#include "plan/planner.h"
#include "rdf/ntriples.h"
#include "results/writer.h"
#include "sparql/parser.h"
#include "workload/queries.h"

namespace perfbench {

using hsparql::Result;
using hsparql::Status;

std::int64_t NowNanos() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

cpu_set_t StartingCpus() {
  static const cpu_set_t mask = [] {
    cpu_set_t m;
    CPU_ZERO(&m);
    if (sched_getaffinity(0, sizeof(m), &m) != 0) CPU_SET(0, &m);
    return m;
  }();
  return mask;
}

}  // namespace

void PinToCpu(std::size_t step) {
  cpu_set_t all = StartingCpus();
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) cpus.push_back(c);
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[step % cpus.size()], &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

void Unpin() {
  cpu_set_t all = StartingCpus();
  (void)sched_setaffinity(0, sizeof(all), &all);
}

void ReportSetup(const std::vector<double>& setup_seconds,
                 const std::vector<SetupTimes>& times, Report* report) {
  const std::size_t n = setup_seconds.size();
  report->Set("setup_s", Median(setup_seconds), "s", n);
  std::vector<double> load, build, construct;
  for (const SetupTimes& t : times) {
    load.push_back(t.load_ms);
    build.push_back(t.build_ms);
    construct.push_back(t.construct_ms);
  }
  report->Set("rdf.load_ms", Median(load), "ms", n);
  report->Set("rdf.terms", static_cast<double>(times.back().terms), "count");
  report->Set("storage.build_ms", Median(build), "ms", n);
  report->Set("engine.construct_ms", Median(construct), "ms", n);
  std::ostringstream spread;
  spread << "{\"min\":" << *std::min_element(setup_seconds.begin(),
                                              setup_seconds.end())
         << ",\"max\":"
         << *std::max_element(setup_seconds.begin(), setup_seconds.end())
         << ",\"repeats\":" << n << "}";
  report->AddContext("setup_s.spread", spread.str());
}

void ReportLatencies(const std::vector<double>& all_ms,
                     const std::vector<std::vector<double>>& per_query_ms,
                     double throughput_qps, std::uint64_t successes,
                     Report* report) {
  report->Set("throughput_qps", throughput_qps, "1/s", successes);
  std::vector<double> medians;
  std::string listed = "[";
  for (const std::vector<double>& samples : per_query_ms) {
    if (!samples.empty()) medians.push_back(Median(samples));
    if (listed.size() > 1) listed += ',';
    listed += std::to_string(samples.empty() ? 0.0 : Median(samples));
  }
  report->Set("query_geomean_ms", GeoMean(medians), "ms", medians.size());
  report->AddContext("query_medians_ms", listed + "]");
  report->Set("latency_p50_ms", Median(all_ms), "ms", all_ms.size());
  const TailValue tail = TailPercentile(all_ms, 0.99);
  report->Set("latency_p99_ms", tail.value, "ms", all_ms.size());
  report->AddContext("latency_p99_ms.quantile", std::to_string(tail.reported_q));
}

Result<hsparql::storage::TripleStore> LoadStore(const std::string& path,
                                                SetupTimes* times) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  hsparql::rdf::Graph graph;
  std::int64_t t0 = NowNanos();
  HSPARQL_ASSIGN_OR_RETURN(std::size_t triples,
                           hsparql::rdf::ReadNTriples(in, &graph));
  (void)triples;
  std::int64_t t1 = NowNanos();
  times->terms += graph.dictionary().size();
  hsparql::storage::TripleStore store =
      hsparql::storage::TripleStore::Build(std::move(graph));
  std::int64_t t2 = NowNanos();
  times->load_ms += NanosToMillis(t1 - t0);
  times->build_ms += NanosToMillis(t2 - t1);
  return store;
}

std::unique_ptr<hsparql::engine::Engine> MakeEngine(
    hsparql::storage::TripleStore&& store,
    const hsparql::engine::EngineOptions& options, SetupTimes* times) {
  const std::int64_t t0 = NowNanos();
  auto engine =
      std::make_unique<hsparql::engine::Engine>(std::move(store), options);
  times->construct_ms += NanosToMillis(NowNanos() - t0);
  return engine;
}

Result<std::vector<std::array<hsparql::rdf::Term, 3>>> ReadTermTriples(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  hsparql::rdf::Graph graph;
  HSPARQL_RETURN_IF_ERROR(hsparql::rdf::ReadNTriples(in, &graph).status());
  const auto& dict = graph.dictionary();
  std::vector<std::array<hsparql::rdf::Term, 3>> out;
  out.reserve(graph.size());
  for (const hsparql::rdf::Triple& t : graph.triples()) {
    out.push_back({dict.Get(t.s), dict.Get(t.p), dict.Get(t.o)});
  }
  return out;
}

std::uint64_t HashBytes(std::string_view bytes) {
  return hsparql::Hash64(std::span(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

std::vector<std::uint64_t> StoreFingerprint(
    const hsparql::storage::TripleStore& store) {
  const auto& dict = store.dictionary();
  std::vector<std::uint64_t> out;
  out.reserve(store.size());
  std::string key;
  for (const hsparql::rdf::Triple& t :
       store.Scan(hsparql::storage::Ordering::kSpo)) {
    key.clear();
    for (hsparql::rdf::TermId id : {t.s, t.p, t.o}) {
      const hsparql::rdf::Term& term = dict.Get(id);
      key += term.is_literal() ? 'L' : 'I';
      key += term.lexical;
      key += '\x1f';
    }
    out.push_back(HashBytes(key));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string_view OperatorKind(std::string_view label) {
  const std::size_t end = label.find_first_of(" ([");
  std::string_view head = label.substr(0, end);
  if (head == "leftouterhashjoin") head = "hashjoin";
  for (std::string_view kind : kOperatorKinds) {
    if (head == kind) return kind;
  }
  return "other";
}

Result<ReplayOutcome> DecomposedReplay(const hsparql::engine::Engine& engine,
                                       std::string_view text,
                                       const std::string& request,
                                       std::uint64_t parent, SpanLog* log,
                                       ReplayStats* stats) {
  hsparql::engine::StoreView view = engine.read_view();
  const hsparql::storage::TripleStore& store = view.store();
  HSPARQL_ASSIGN_OR_RETURN(
      std::unique_ptr<hsparql::plan::Planner> planner,
      hsparql::plan::MakePlanner(hsparql::plan::PlannerKind::kHsp, &store));

  const std::int64_t t0 = NowNanos();
  HSPARQL_ASSIGN_OR_RETURN(hsparql::sparql::Query query,
                           hsparql::sparql::Parse(text));
  const std::int64_t t1 = NowNanos();
  const hsparql::plan::AnalyzedQuery analyzed =
      hsparql::plan::AnalyzedQuery::From(std::move(query));
  HSPARQL_ASSIGN_OR_RETURN(hsparql::plan::PlannedQuery planned,
                           planner->Plan(analyzed));
  const std::int64_t t2 = NowNanos();
  const hsparql::exec::Executor executor(&store);
  HSPARQL_ASSIGN_OR_RETURN(hsparql::exec::ExecResult result,
                           executor.Execute(planned.query, planned.plan));
  const std::int64_t t3 = NowNanos();

  log->Add(parent, request, "sparql.parse", "sparql", t0, t1);
  log->Add(parent, request, "plan.hsp", "plan", t1, t2);
  log->Add(parent, request, "exec.execute", "exec", t2, t3);
  stats->parse_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  stats->plan_us.push_back(static_cast<double>(t2 - t1) / 1e3);
  stats->executed++;
  stats->scanned_rows += result.total_scanned_rows;
  for (const hsparql::exec::OperatorStat& op : result.stats) {
    const std::string_view kind = OperatorKind(op.label);
    for (std::size_t k = 0; k < std::size(kOperatorKinds); ++k) {
      if (kOperatorKinds[k] == kind) stats->self_ms[k] += op.millis;
    }
  }
  ReplayOutcome outcome;
  outcome.rows = result.table.rows;
  outcome.intermediate_rows = result.total_intermediate_rows;
  outcome.exec_ms = NanosToMillis(t3 - t2);
  outcome.decomposed_ms = NanosToMillis(t3 - t0);
  return outcome;
}

void ReplayStats::Merge(const ReplayStats& other) {
  parse_us.insert(parse_us.end(), other.parse_us.begin(), other.parse_us.end());
  plan_us.insert(plan_us.end(), other.plan_us.begin(), other.plan_us.end());
  executed += other.executed;
  scanned_rows += other.scanned_rows;
  for (std::size_t k = 0; k < self_ms.size(); ++k) {
    self_ms[k] += other.self_ms[k];
  }
  overhead_ms.insert(overhead_ms.end(), other.overhead_ms.begin(),
                     other.overhead_ms.end());
  covered_ms += other.covered_ms;
  request_ms += other.request_ms;
  replay_seconds += other.replay_seconds;
}

Result<ReplayOutcome> TraceQuery(const hsparql::engine::Engine& engine,
                                 std::string_view text,
                                 const std::string& request, std::int64_t t0,
                                 std::int64_t t1,
                                 const hsparql::engine::QueryResponse& response,
                                 SpanLog* log, ReplayStats* stats) {
  const std::uint64_t root = SpanLog::NewId();
  log->Add(root, request, "engine.query", "engine", t0, t1);
  stats->overhead_ms.push_back(response.total_millis - response.parse_millis -
                               response.plan_millis - response.exec_millis);
  auto outcome = DecomposedReplay(engine, text, request, root, log, stats);
  const std::int64_t t2 = NowNanos();
  log->Add(0, request, "request", "client", t0, t2, root);
  stats->replay_seconds += static_cast<double>(t2 - t1) / 1e9;
  if (outcome.ok()) {
    stats->covered_ms += outcome->decomposed_ms;
    stats->request_ms += NanosToMillis(t1 - t0);
  }
  return outcome;
}

Status ReportTracing(double covered_ms, double request_ms,
                     double untraced_qps, std::uint64_t untraced_ok,
                     double traced_qps, std::uint64_t traced_ok,
                     const std::vector<Span>& spans, const std::string& path,
                     Report* report) {
  report->Set("trace.covered_ms", covered_ms, "ms");
  report->Set("trace.request_ms", request_ms, "ms");
  report->Set("trace.coverage", request_ms > 0 ? covered_ms / request_ms : 0,
              "ratio");
  report->Set("trace.untraced_qps", untraced_qps, "1/s", untraced_ok);
  report->Set("trace.traced_qps", traced_qps, "1/s", traced_ok);
  report->Set("trace.overhead_ratio",
              untraced_qps > 0 ? traced_qps / untraced_qps : 0, "ratio");
  report->Set("trace.spans", static_cast<double>(spans.size()), "count");
  return path.empty() ? Status::OK() : WriteSpans(spans, path);
}

void ReportReplay(const ReplayStats& stats, Report* report) {
  if (stats.executed == 0) return;
  report->Set("engine.overhead_ms.p50", Median(stats.overhead_ms), "ms",
              stats.overhead_ms.size());
  const TailValue tail = TailPercentile(stats.overhead_ms, 0.99);
  report->Set("engine.overhead_ms.p99", tail.value, "ms",
              stats.overhead_ms.size());
  report->AddContext("engine.overhead_ms.p99.quantile",
                     std::to_string(tail.reported_q));
  report->Set("sparql.parse_us", Median(stats.parse_us), "us",
              stats.parse_us.size());
  report->Set("plan.hsp_us", Median(stats.plan_us), "us",
              stats.plan_us.size());
  const double n = static_cast<double>(stats.executed);
  report->Set("exec.scanned_rows",
              static_cast<double>(stats.scanned_rows) / n, "count",
              stats.executed);
  for (std::size_t k = 0; k < std::size(kOperatorKinds); ++k) {
    report->Set("exec.self_ms." + std::string(kOperatorKinds[k]),
                stats.self_ms[k] / n, "ms", stats.executed);
  }
}

void ReportSerialization(
    const std::vector<std::pair<const hsparql::engine::Engine*, std::string>>&
        distinct_queries,
    Report* report) {
  using hsparql::results::Format;
  constexpr std::pair<Format, const char*> kFormats[] = {
      {Format::kJson, "json"}, {Format::kCsv, "csv"}, {Format::kTsv, "tsv"}};
  std::vector<double> millis[3];
  std::vector<double> json_bytes;
  double json_ns = 0.0;
  std::uint64_t cells = 0;
  hsparql::engine::QueryOptions options;
  options.use_result_cache = false;
  for (const auto& [engine, text] : distinct_queries) {
    auto response = engine->Query(text, options);
    if (!response.ok()) continue;
    hsparql::engine::StoreView view = engine->read_view();
    const auto& table = response->result->table;
    for (std::size_t f = 0; f < 3; ++f) {
      const std::int64_t t0 = NowNanos();
      const std::string body = hsparql::results::WriteString(
          kFormats[f].first, table, response->planned->planned.query,
          view.dictionary());
      const std::int64_t t1 = NowNanos();
      millis[f].push_back(NanosToMillis(t1 - t0));
      if (f == 0) {
        json_bytes.push_back(static_cast<double>(body.size()));
        json_ns += static_cast<double>(t1 - t0);
        cells += table.rows * std::max<std::size_t>(1, table.vars.size());
      }
    }
  }
  for (std::size_t f = 0; f < 3; ++f) {
    report->Set(std::string("results.serialize_ms.") + kFormats[f].second,
                Median(millis[f]), "ms", millis[f].size());
  }
  report->Set("results.ns_per_cell.json",
              cells == 0 ? 0.0 : json_ns / static_cast<double>(cells), "ns",
              cells);
  report->Set("results.cells", static_cast<double>(cells), "count");
  report->Set("results.bytes_p50", Median(json_bytes), "bytes",
              json_bytes.size());
}

void ReportCacheRatios(const hsparql::engine::EngineStats& before,
                       const hsparql::engine::EngineStats& after,
                       Report* report) {
  auto put = [&](const std::string& prefix,
                 const hsparql::engine::CacheCounters& b,
                 const hsparql::engine::CacheCounters& a) {
    const double hits = static_cast<double>(a.hits - b.hits);
    const double attempts =
        hits + static_cast<double>(a.misses - b.misses);
    report->Set(prefix + ".hit_ratio", attempts == 0 ? 0.0 : hits / attempts,
                "ratio", static_cast<std::size_t>(attempts));
    report->Set(prefix + ".hits", hits, "count");
    report->Set(prefix + ".attempts", attempts, "count");
  };
  put("engine.plan_cache", before.plan_cache, after.plan_cache);
  put("engine.result_cache", before.result_cache, after.result_cache);
}

void ReportPerLayerDefaults(Report* report) {
  static const std::pair<const char*, const char*> kFixed[] = {
      {"rdf.load_ms", "ms"},
      {"rdf.terms", "count"},
      {"storage.build_ms", "ms"},
      {"engine.construct_ms", "ms"},
      {"storage.snapshot_save_ms", "ms"},
      {"storage.snapshot_open_ms", "ms"},
      {"storage.mapped_mb.start", "MB"},
      {"storage.mapped_mb.end", "MB"},
      {"storage.heap_mb.start", "MB"},
      {"storage.heap_mb.end", "MB"},
      {"storage.compactions", "count"},
      {"storage.delta_triples_max", "count"},
      {"storage.write_batches", "count"},
      {"engine.add_ms.plain", "ms"},
      {"engine.add_ms.compacting", "ms"},
      {"write_latency_p50_ms", "ms"},
      {"write_total_s", "s"},
      {"client.lateness_ms.max", "ms"},
      {"sparql.parse_us", "us"},
      {"plan.hsp_us", "us"},
      {"exec.scanned_rows", "count"},
      {"engine.plan_cache.hit_ratio", "ratio"},
      {"engine.plan_cache.hits", "count"},
      {"engine.plan_cache.attempts", "count"},
      {"engine.result_cache.hit_ratio", "ratio"},
      {"engine.result_cache.hits", "count"},
      {"engine.result_cache.attempts", "count"},
      {"engine.overhead_ms.p50", "ms"},
      {"engine.overhead_ms.p99", "ms"},
      {"results.serialize_ms.json", "ms"},
      {"results.serialize_ms.csv", "ms"},
      {"results.serialize_ms.tsv", "ms"},
      {"results.ns_per_cell.json", "ns"},
      {"results.cells", "count"},
      {"results.bytes_p50", "bytes"},
      {"server.queue_ms.p50", "ms"},
      {"server.queue_ms.p99", "ms"},
      {"server.parse_http_ms", "ms"},
      {"server.serialize_ms", "ms"},
      {"server.flush_ms", "ms"},
      {"server.transport_ms", "ms"},
      {"server.shed", "count"},
      {"trace.coverage", "ratio"},
      {"trace.covered_ms", "ms"},
      {"trace.request_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.traced_qps", "1/s"},
      {"trace.untraced_qps", "1/s"},
      {"trace.spans", "count"},
  };
  for (const auto& [name, unit] : kFixed) report->Set(name, 0.0, unit, 0);
  for (const auto& q : hsparql::workload::AllQueries()) {
    report->Set("exec.ms." + q.id, 0.0, "ms", 0);
    report->Set("exec.intermediate_rows." + q.id, 0.0, "count", 0);
  }
  for (std::string_view kind : kOperatorKinds) {
    report->Set("exec.self_ms." + std::string(kind), 0.0, "ms", 0);
  }
}

}  // namespace perfbench
