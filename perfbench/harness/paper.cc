// Workload "paper": the paper's own evaluation on the serving API. The 14
// workload queries run sequentially from one in-process client through
// engine::Engine::Query with default EngineOptions (HSP, plan cache warm
// after one pass, result cache off, serial execution), so time goes to the
// exec operators and storage scans — no HTTP, no serialisation, no
// planning after warm-up.
#include <iostream>

#include "harness/harness.h"
#include "harness/stats.h"
#include "plan/planner.h"
#include "workload/queries.h"

namespace perfbench {

namespace {

using hsparql::engine::Engine;
using hsparql::workload::AllQueries;
using hsparql::workload::Dataset;
using hsparql::workload::WorkloadQuery;

struct Stores {
  std::unique_ptr<Engine> sp2b;
  std::unique_ptr<Engine> yago;

  const Engine& For(const WorkloadQuery& q) const {
    return q.dataset == Dataset::kSp2Bench ? *sp2b : *yago;
  }
};

/// One measured window: loops over the 14 queries until `seconds` have
/// passed. With `log` set, each call is traced (engine.query span plus
/// the decomposed replay) and the per-layer figures are collected.
struct Window {
  std::vector<double> all_ms;
  std::vector<std::vector<double>> per_query_ms;
  std::uint64_t ok = 0;
  double seconds = 0.0;
  /// Verified answers per second of each pass over the 14 queries.
  std::vector<double> pass_qps;
  // Traced run only.
  std::vector<std::vector<double>> exec_ms;
  std::vector<std::uint64_t> intermediate_rows;
  ReplayStats replay;
};

Window RunWindow(const Stores& stores, const std::vector<std::uint64_t>& expected,
                 double seconds, SpanLog* log, Report* report) {
  const auto& queries = AllQueries();
  Window w;
  w.per_query_ms.resize(queries.size());
  w.exec_ms.resize(queries.size());
  w.intermediate_rows.resize(queries.size());
  const std::int64_t start = NowNanos();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t call = 0;
  for (std::size_t pass = 0; NowNanos() - start < budget; ++pass) {
    PinToCpu(pass);
    const std::int64_t pass_start = NowNanos();
    const std::uint64_t ok_before = w.ok;
    for (std::size_t i = 0; i < queries.size(); ++i, ++call) {
      const WorkloadQuery& q = queries[i];
      const Engine& engine = stores.For(q);
      const std::int64_t t0 = NowNanos();
      auto response = engine.Query(q.sparql);
      const std::int64_t t1 = NowNanos();
      report->Attempt();
      if (!response.ok()) {
        report->Fail(q.id + ": " + response.status().ToString());
        continue;
      }
      if (!CheckEqual(response->rows(), expected[i],
                      q.id + " rows vs the left-deep plan", report)) {
        continue;
      }
      const double ms = NanosToMillis(t1 - t0);
      w.all_ms.push_back(ms);
      w.per_query_ms[i].push_back(ms);
      w.ok++;
      if (log == nullptr) continue;

      auto replay = TraceQuery(engine, q.sparql, 'p' + std::to_string(call),
                               t0, t1, *response, log, &w.replay);
      if (!replay.ok()) {
        report->Fail(q.id + " replay: " + replay.status().ToString());
        continue;
      }
      if (!CheckEqual(replay->rows, expected[i], q.id + " replay rows",
                      report)) {
        continue;
      }
      w.exec_ms[i].push_back(replay->exec_ms);
      w.intermediate_rows[i] = replay->intermediate_rows;
    }
    const std::int64_t pass_end = NowNanos();
    w.pass_qps.push_back(static_cast<double>(w.ok - ok_before) * 1e9 /
                         static_cast<double>(pass_end - pass_start));
  }
  w.seconds = static_cast<double>(NowNanos() - start) / 1e9;
  Unpin();
  return w;
}

}  // namespace

int RunPaper(const RunArgs& args, Report* report) {
  const auto& queries = AllQueries();
  std::vector<double> setup_seconds;
  std::vector<SetupTimes> times;
  Stores stores;
  for (int r = 0; r < kSetupRepeats; ++r) {
    stores = Stores();  // release the previous repeat before loading again
    PinToCpu(static_cast<std::size_t>(r));
    SetupTimes t;
    const std::int64_t t0 = NowNanos();
    auto sp2b = LoadStore(args.data_dir + "/sp2b.nt", &t);
    if (!sp2b.ok()) {
      std::cerr << "perfbench: " << sp2b.status() << "\n";
      return 1;
    }
    stores.sp2b = MakeEngine(std::move(*sp2b), {}, &t);
    auto yago = LoadStore(args.data_dir + "/yago.nt", &t);
    if (!yago.ok()) {
      std::cerr << "perfbench: " << yago.status() << "\n";
      return 1;
    }
    stores.yago = MakeEngine(std::move(*yago), {}, &t);
    setup_seconds.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    times.push_back(t);
  }
  Unpin();
  ReportSetup(setup_seconds, times, report);

  // Reference answers from a second planner (left-deep, the SQL-style
  // baseline), computed outside the timed window.
  std::vector<std::uint64_t> expected;
  for (const WorkloadQuery& q : queries) {
    hsparql::engine::QueryOptions options;
    options.planner = hsparql::plan::PlannerKind::kLeftDeep;
    auto response = stores.For(q).Query(q.sparql, options);
    if (!response.ok()) {
      std::cerr << "perfbench: reference " << q.id << ": "
                << response.status() << "\n";
      return 1;
    }
    expected.push_back(response->rows());
  }
  // Warm-up pass: fills the plan cache, as a serving process would be.
  for (const WorkloadQuery& q : queries) (void)stores.For(q).Query(q.sparql);

  const Window plain = RunWindow(stores, expected, args.seconds, nullptr, report);
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  // One pass is a fixed unit of work (each query once), so the median
  // pass rate is the workload's throughput.
  ReportLatencies(plain.all_ms, plain.per_query_ms, Median(plain.pass_qps),
                  plain.ok, report);
  if (!args.trace) return 0;

  // Both engines' cache counters, summed.
  auto both = [&stores] {
    hsparql::engine::EngineStats sum = stores.sp2b->stats();
    const hsparql::engine::EngineStats yago = stores.yago->stats();
    sum.plan_cache.hits += yago.plan_cache.hits;
    sum.plan_cache.misses += yago.plan_cache.misses;
    sum.result_cache.hits += yago.result_cache.hits;
    sum.result_cache.misses += yago.result_cache.misses;
    return sum;
  };
  const hsparql::engine::EngineStats before = both();
  SpanLog log;
  const Window traced = RunWindow(stores, expected, args.seconds, &log, report);
  ReportCacheRatios(before, both(), report);
  ReportReplay(traced.replay, report);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    report->Set("exec.ms." + queries[i].id, Median(traced.exec_ms[i]), "ms",
                traced.exec_ms[i].size());
    report->Set("exec.intermediate_rows." + queries[i].id,
                static_cast<double>(traced.intermediate_rows[i]), "count");
  }
  std::vector<std::pair<const Engine*, std::string>> responses;
  for (const WorkloadQuery& q : queries) {
    responses.emplace_back(&stores.For(q), q.sparql);
  }
  ReportSerialization(responses, report);

  // The traced window's own rate leaves out the time spent replaying.
  const hsparql::Status st = ReportTracing(
      traced.replay.covered_ms, traced.replay.request_ms,
      static_cast<double>(plain.ok) / plain.seconds, plain.ok,
      static_cast<double>(traced.ok) /
          (traced.seconds - traced.replay.replay_seconds),
      traced.ok, log.spans(), args.spans_path, report);
  if (!st.ok()) {
    std::cerr << "perfbench: " << st << "\n";
    return 1;
  }
  return 0;
}

}  // namespace perfbench
