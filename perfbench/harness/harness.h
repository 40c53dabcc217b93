// Shared pieces of the three workload drivers: run arguments, the result
// report, the benchmark's span log, and set-up helpers over the public
// APIs of rdf, storage and engine.
#ifndef PERFBENCH_HARNESS_HARNESS_H_
#define PERFBENCH_HARNESS_HARNESS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "rdf/term.h"
#include "storage/triple_store.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::string data_dir;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string spans_path;
};

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// Monotonic nanoseconds since an arbitrary process-wide epoch.
std::int64_t NowNanos();
inline double NanosToMillis(std::int64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

/// VmHWM (peak resident set) of this process, in MB.
double PeakRssMb();

/// Moves the calling thread onto CPU `step` modulo the CPUs it started
/// with. Single-threaded phases (set-up, the paper client) step through
/// the CPUs so that one run samples every core's share of contention from
/// other tenants of the host, which differs from core to core; Unpin()
/// restores the original mask. Never call it around code that starts
/// threads: they would inherit the single-CPU mask.
void PinToCpu(std::size_t step);
void Unpin();

/// One workload's outcome. Metrics keep insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, std::string_view unit,
           std::size_t samples = 1);
  /// Records a failed operation with a short reason (the first few
  /// reasons are kept for the context block).
  void Fail(const std::string& reason);
  void Attempt(std::uint64_t n = 1) { attempted_ += n; }
  void AddContext(const std::string& key, const std::string& json_value);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..},
  ///  "samples":{..},"context":{..}}
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string JsonString(std::string_view text);

/// The correctness checks every workload applies to an operation's
/// answer: a mismatch is recorded as a failed operation. Return whether
/// the answer passed.
bool CheckEqual(std::uint64_t got, std::uint64_t expected,
                const std::string& what, Report* report);
bool CheckWithin(std::uint64_t got, std::uint64_t lo, std::uint64_t hi,
                 const std::string& what, Report* report);

/// One span of the traced run: a timed call into one layer.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::string request;       // spans of one request share this id
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double millis() const { return NanosToMillis(end_ns - start_ns); }
};

/// Per-thread span buffer; merged and written once the run ends.
class SpanLog {
 public:
  /// A fresh span id, for a parent recorded after its children.
  static std::uint64_t NewId();
  /// Records a span (with a fresh id unless `id` is given); returns its id.
  std::uint64_t Add(std::uint64_t parent, const std::string& request,
                    std::string name, std::string layer, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t id = 0);
  std::vector<Span>& spans() { return spans_; }
  void Append(SpanLog&& other);

 private:
  static std::atomic<std::uint64_t> next_id_;
  std::vector<Span> spans_;
};

hsparql::Status WriteSpans(const std::vector<Span>& spans,
                           const std::string& path);

/// Per-layer set-up timings of one store.
struct SetupTimes {
  double load_ms = 0.0;       // rdf::ReadNTriples
  double build_ms = 0.0;      // storage::TripleStore::Build
  double construct_ms = 0.0;  // engine::Engine construction (statistics)
  std::size_t terms = 0;
};

/// N-Triples file -> graph -> store.
hsparql::Result<hsparql::storage::TripleStore> LoadStore(
    const std::string& path, SetupTimes* times);

/// Store -> engine, timing the construction.
std::unique_ptr<hsparql::engine::Engine> MakeEngine(
    hsparql::storage::TripleStore&& store,
    const hsparql::engine::EngineOptions& options, SetupTimes* times);

/// An N-Triples file as term triples (the form Engine::AddTriples takes).
hsparql::Result<std::vector<std::array<hsparql::rdf::Term, 3>>>
ReadTermTriples(const std::string& path);

/// Order-independent fingerprint of a store's triples by term text (the
/// sorted per-triple hashes): equal for two stores holding the same
/// triples whatever their term ids.
std::vector<std::uint64_t> StoreFingerprint(
    const hsparql::storage::TripleStore& store);

/// common/hash.h's Hash64 over a string (response-body identity checks).
std::uint64_t HashBytes(std::string_view bytes);

/// Operator kind of an exec::OperatorStat label ("mergejoin ?x" ->
/// "mergejoin"), folded onto the fixed set exec.self_ms.<kind> reports.
std::string_view OperatorKind(std::string_view label);
inline constexpr std::string_view kOperatorKinds[] = {
    "scan", "select", "mergejoin", "hashjoin", "filter",
    "project", "sort", "limit", "other"};

/// Per-layer figures every workload's traced run reports the same way:
/// the decomposed replay (sparql.parse -> plan.hsp -> exec.execute) and
/// the results serialisation of each distinct response.
struct ReplayStats {
  std::vector<double> parse_us;
  std::vector<double> plan_us;
  std::uint64_t executed = 0;
  std::uint64_t scanned_rows = 0;
  std::array<double, std::size(kOperatorKinds)> self_ms{};
  /// Engine::Query wall minus its parse, plan and exec timers.
  std::vector<double> overhead_ms;
  /// Replayed parse + plan + exec, and the engine.query wall it explains.
  double covered_ms = 0.0;
  double request_ms = 0.0;
  /// Time the tracing itself spent replaying.
  double replay_seconds = 0.0;

  void Merge(const ReplayStats& other);
};

struct ReplayOutcome {
  std::uint64_t rows = 0;
  std::uint64_t intermediate_rows = 0;
  double exec_ms = 0.0;
  /// parse + plan + exec: the part of a query the replay accounts for.
  double decomposed_ms = 0.0;
};

/// Parses, plans (HSP, the engine's default planner) and executes `text`
/// against `engine`'s store through the sparql, plan and exec public
/// functions, recording one span per stage under `parent`.
hsparql::Result<ReplayOutcome> DecomposedReplay(
    const hsparql::engine::Engine& engine, std::string_view text,
    const std::string& request, std::uint64_t parent, SpanLog* log,
    ReplayStats* stats);

/// Traces one answered query: an engine.query span over [t0, t1] (the
/// caller's own Engine::Query call, which produced `response`), then the
/// decomposed replay of the same text, both under one request root span.
hsparql::Result<ReplayOutcome> TraceQuery(
    const hsparql::engine::Engine& engine, std::string_view text,
    const std::string& request, std::int64_t t0, std::int64_t t1,
    const hsparql::engine::QueryResponse& response, SpanLog* log,
    ReplayStats* stats);

/// Serialises each distinct query's engine result with results::WriteString
/// in all three formats and reports results.* per-layer metrics. Each
/// entry pairs a query text with the engine it runs on.
void ReportSerialization(
    const std::vector<std::pair<const hsparql::engine::Engine*, std::string>>&
        distinct_queries,
    Report* report);

/// sparql/plan/exec figures of the replay plus engine.overhead_ms.
void ReportReplay(const ReplayStats& stats, Report* report);

/// trace.*: coverage (covered over request time), the tracing overhead
/// (traced over untraced throughput), each with its base, and the span
/// count; writes the spans file when `path` is set.
hsparql::Status ReportTracing(double covered_ms, double request_ms,
                              double untraced_qps, std::uint64_t untraced_ok,
                              double traced_qps, std::uint64_t traced_ok,
                              const std::vector<Span>& spans,
                              const std::string& path, Report* report);

/// Reports every per-layer metric as 0 first, so each workload prints the
/// full list; workloads then overwrite what their layers exercise.
void ReportPerLayerDefaults(Report* report);

/// Engine cache counters as ratio + base counts.
void ReportCacheRatios(const hsparql::engine::EngineStats& before,
                       const hsparql::engine::EngineStats& after,
                       Report* report);

/// setup_s (median over the repeats, with its spread in the context) and
/// the rdf/storage/engine set-up layers.
void ReportSetup(const std::vector<double>& setup_seconds,
                 const std::vector<SetupTimes>& times, Report* report);

/// The end-to-end request metrics shared by every workload: throughput
/// (computed by the workload from its verified answers), p50 and tail
/// latency over all requests, and the geometric mean of each query's (or
/// template's) median latency.
void ReportLatencies(const std::vector<double>& all_ms,
                     const std::vector<std::vector<double>>& per_query_ms,
                     double throughput_qps, std::uint64_t successes,
                     Report* report);

int RunPaper(const RunArgs& args, Report* report);
int RunEndpoint(const RunArgs& args, Report* report);
int RunReadWrite(const RunArgs& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HARNESS_H_
