// Workload "read-write": a YAGO-like base is loaded, saved with
// TripleStore::SaveSnapshot and reopened mmap'd (the serve
// --save-snapshot then --store= path). Two closed-loop readers issue
// constant-bound multi-pattern joins while one open-loop writer applies a
// fixed stream of new triples in fixed-size batches on a fixed schedule
// through Engine::AddTriples. The stream crosses two compactions, so the
// run exercises delta merge-on-read, compaction, migration off the mmap
// base and result-cache invalidation on every write — paths the other
// workloads never touch. Writes are work-based: the final store is the
// same on every run.
#include <fstream>
#include <iostream>
#include <thread>
#include <unordered_map>

#include "harness/harness.h"
#include "harness/inputs.h"
#include "harness/stats.h"
#include "rdf/ntriples.h"
#include "storage/snapshot.h"

namespace perfbench {

namespace {

using hsparql::engine::Engine;
using TermTriple = std::array<hsparql::rdf::Term, 3>;

constexpr std::size_t kReaders = 2;
constexpr std::size_t kResultCacheEntries = 256;
/// The write schedule spans this share of the run, leaving the rest of
/// the window to read the final store.
constexpr double kWriteSpanShare = 0.6;
/// Readers pause between a response and their next request. Without it
/// two back-to-back readers always hold the store's reader-preferring
/// shared lock between them, and the writer starves (AddTriples then takes
/// hundreds of milliseconds and the fixed stream never finishes on time).
constexpr auto kReaderThink = std::chrono::milliseconds(2);

hsparql::engine::EngineOptions RwEngineOptions() {
  hsparql::engine::EngineOptions options;
  options.result_cache_capacity = kResultCacheEntries;
  return options;
}

hsparql::Result<std::unique_ptr<Engine>> OpenEngine(const std::string& path,
                                                    SetupTimes* t,
                                                    double* open_ms) {
  const std::int64_t t0 = NowNanos();
  HSPARQL_ASSIGN_OR_RETURN(hsparql::storage::TripleStore store,
                           hsparql::storage::TripleStore::OpenSnapshot(path));
  *open_ms = NanosToMillis(NowNanos() - t0);
  return MakeEngine(std::move(store), RwEngineOptions(), t);
}

struct ReadRecord {
  std::size_t index = 0;
  double ms = 0.0;
  std::int64_t end_ns = 0;
  std::uint64_t rows = 0;
  bool ok = false;
  bool verified = false;
};

struct WriteRecord {
  double lateness_ms = 0.0;   // start - due
  double add_ms = 0.0;        // wall time inside AddTriples
  double from_due_ms = 0.0;   // end - due
  bool compacting = false;
  std::size_t delta_after = 0;
  bool ok = false;
};

struct Window {
  std::vector<ReadRecord> reads;
  std::vector<WriteRecord> writes;
  double seconds = 0.0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  // Traced run only.
  ReplayStats replay;
  SpanLog log;
  std::vector<std::string> replay_failures;
};

Window RunWindow(const Engine& engine_ref, Engine* engine,
                 const std::vector<Request>& reads,
                 const std::vector<std::vector<TermTriple>>& batches,
                 double seconds, bool traced, Report* report) {
  Window w;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> writer_done{false};
  const std::int64_t start = NowNanos();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  const auto period = static_cast<std::int64_t>(
      seconds * kWriteSpanShare * 1e9 / static_cast<double>(batches.size()));

  std::thread writer([&] {
    std::size_t base_before = engine_ref.read_view().store().base_size();
    for (std::size_t i = 0; i < batches.size(); ++i) {
      const std::int64_t due = start + static_cast<std::int64_t>(i) * period;
      const std::int64_t now = NowNanos();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      WriteRecord rec;
      const std::int64_t t0 = NowNanos();
      const hsparql::Status st = engine->AddTriples(batches[i]);
      const std::int64_t t1 = NowNanos();
      rec.ok = st.ok();
      rec.lateness_ms = NanosToMillis(t0 - due);
      rec.add_ms = NanosToMillis(t1 - t0);
      rec.from_due_ms = NanosToMillis(t1 - due);
      {
        hsparql::engine::StoreView view = engine_ref.read_view();
        rec.delta_after = view.store().delta_size();
        rec.compacting = view.store().base_size() != base_before;
        base_before = view.store().base_size();
      }
      if (traced) {
        w.log.Add(0, 'w' + std::to_string(i), "engine.add_triples", "storage",
                  t0, t1);
      }
      w.writes.push_back(rec);
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<Window> per_reader(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Window& out = per_reader[r];
      while (NowNanos() < deadline ||
             !writer_done.load(std::memory_order_acquire)) {
        ReadRecord rec;
        rec.index = next.fetch_add(1, std::memory_order_relaxed);
        const std::string& text = reads[rec.index % reads.size()].text;
        const std::int64_t t0 = NowNanos();
        auto response = engine_ref.Query(text);
        const std::int64_t t1 = NowNanos();
        rec.ms = NanosToMillis(t1 - t0);
        rec.end_ns = t1;
        rec.ok = response.ok();
        if (rec.ok) rec.rows = response->rows();
        out.reads.push_back(rec);
        std::this_thread::sleep_for(kReaderThink);
        if (!traced || !rec.ok) continue;
        auto replay = TraceQuery(engine_ref, text, 'r' + std::to_string(rec.index),
                                 t0, t1, *response, &out.log, &out.replay);
        if (!replay.ok()) {
          out.replay_failures.push_back(replay.status().ToString());
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  w.start_ns = start;
  w.end_ns = NowNanos();
  w.seconds = static_cast<double>(w.end_ns - start) / 1e9;
  for (Window& part : per_reader) {
    w.reads.insert(w.reads.end(), part.reads.begin(), part.reads.end());
    w.replay.Merge(part.replay);
    w.log.Append(std::move(part.log));
    for (const std::string& failure : part.replay_failures) {
      report->Fail("replay: " + failure);
    }
  }
  for (const WriteRecord& rec : w.writes) {
    if (!rec.ok) report->Fail("AddTriples failed");
  }
  return w;
}

/// Row counts of each text on `engine` (result cache bypassed), in order.
/// The check runs after the timed window, so it uses every CPU.
std::vector<std::uint64_t> Answers(const Engine& engine,
                                   const std::vector<std::string>& texts) {
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::uint64_t> out(texts.size());
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      hsparql::engine::QueryOptions options;
      options.use_result_cache = false;
      for (std::size_t i = t; i < texts.size(); i += threads) {
        auto response = engine.Query(texts[i], options);
        out[i] = response.ok() ? response->rows() : UINT64_MAX;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return out;
}

/// The correctness checks: each read lies between its answer on the base
/// and its answer on the final store (the templates only grow under
/// insertion), and the final store equals a fresh build of base ∪ stream.
/// Flags the reads that passed and returns their number.
std::uint64_t Verify(Window* w, const std::vector<Request>& reads,
                     const Engine& final_engine, const Engine& base_engine,
                     const std::vector<std::uint64_t>& expected_fingerprint,
                     Report* report) {
  std::vector<std::string> distinct;
  std::unordered_map<std::string, std::size_t> slot;
  for (const ReadRecord& r : w->reads) {
    const std::string& text = reads[r.index % reads.size()].text;
    if (slot.emplace(text, distinct.size()).second) distinct.push_back(text);
  }
  const std::vector<std::uint64_t> base = Answers(base_engine, distinct);
  const std::vector<std::uint64_t> final_answers =
      Answers(final_engine, distinct);
  std::uint64_t ok = 0;
  for (ReadRecord& r : w->reads) {
    report->Attempt();
    const std::string& text = reads[r.index % reads.size()].text;
    if (!r.ok) {
      report->Fail("read " + std::to_string(r.index) + " failed");
      continue;
    }
    const std::size_t i = slot.at(text);
    if (CheckWithin(r.rows, base[i], final_answers[i],
                    "read " + std::to_string(r.index) + " rows", report)) {
      r.verified = true;
      ++ok;
    }
  }
  report->Attempt(w->writes.size());
  report->Attempt();
  const std::vector<std::uint64_t> got =
      StoreFingerprint(final_engine.read_view().store());
  if (CheckEqual(got.size(), expected_fingerprint.size(),
                 "final store triples vs base + stream", report) &&
      got != expected_fingerprint) {
    report->Fail("final store differs from a fresh build of base + stream");
  }
  return ok;
}

}  // namespace

int RunReadWrite(const RunArgs& args, Report* report) {
  std::vector<Request> reads;
  if (auto st = ReadRequests(args.data_dir + "/reads.tsv", &reads); !st.ok()) {
    std::cerr << "perfbench: " << st << "\n";
    return 1;
  }
  auto stream = ReadTermTriples(args.data_dir + "/stream.nt");
  if (!stream.ok()) {
    std::cerr << "perfbench: " << stream.status() << "\n";
    return 1;
  }
  std::vector<std::vector<TermTriple>> batches;
  for (std::size_t i = 0; i < stream->size(); i += kStreamBatch) {
    batches.emplace_back(
        stream->begin() + static_cast<std::ptrdiff_t>(i),
        stream->begin() +
            static_cast<std::ptrdiff_t>(std::min(i + kStreamBatch, stream->size())));
  }
  const std::string snapshot = args.data_dir + "/base.snap";

  std::vector<double> setup_seconds, save_ms, open_ms;
  std::vector<SetupTimes> times;
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    PinToCpu(static_cast<std::size_t>(rep));
    SetupTimes t;
    const std::int64_t t0 = NowNanos();
    {
      auto store = LoadStore(args.data_dir + "/base.nt", &t);
      if (!store.ok()) {
        std::cerr << "perfbench: " << store.status() << "\n";
        return 1;
      }
      const std::int64_t s0 = NowNanos();
      if (auto st = store->SaveSnapshot(snapshot); !st.ok()) {
        std::cerr << "perfbench: " << st << "\n";
        return 1;
      }
      save_ms.push_back(NanosToMillis(NowNanos() - s0));
    }
    double opened = 0.0;
    auto opened_engine = OpenEngine(snapshot, &t, &opened);
    if (!opened_engine.ok()) {
      std::cerr << "perfbench: " << opened_engine.status() << "\n";
      return 1;
    }
    engine = std::move(*opened_engine);
    open_ms.push_back(opened);
    setup_seconds.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    times.push_back(t);
  }
  Unpin();
  ReportSetup(setup_seconds, times, report);
  report->Set("storage.snapshot_save_ms", Median(save_ms), "ms", save_ms.size());
  report->Set("storage.snapshot_open_ms", Median(open_ms), "ms", open_ms.size());
  const hsparql::storage::StorageFootprint start_fp = engine->stats().footprint;

  Window plain =
      RunWindow(*engine, engine.get(), reads, batches, args.seconds, false, report);
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  const hsparql::storage::StorageFootprint end_fp = engine->stats().footprint;

  // Reference state, outside the timed window: the base reopened from the
  // snapshot, and a fresh build of base + stream.
  SetupTimes scratch;
  double scratch_ms = 0.0;
  auto base_engine = OpenEngine(snapshot, &scratch, &scratch_ms);
  if (!base_engine.ok()) {
    std::cerr << "perfbench: " << base_engine.status() << "\n";
    return 1;
  }
  std::vector<std::uint64_t> expected_fingerprint;
  {
    hsparql::rdf::Graph graph;
    for (const char* file : {"/base.nt", "/stream.nt"}) {
      std::ifstream in(args.data_dir + file, std::ios::binary);
      if (!hsparql::rdf::ReadNTriples(in, &graph).ok()) {
        std::cerr << "perfbench: cannot re-read " << file << "\n";
        return 1;
      }
    }
    expected_fingerprint = StoreFingerprint(
        hsparql::storage::TripleStore::Build(std::move(graph)));
  }

  const std::uint64_t ok = Verify(&plain, reads, *engine, **base_engine,
                                  expected_fingerprint, report);
  std::vector<double> all;
  std::vector<std::vector<double>> per_template(ReadTemplateNames().size());
  std::vector<std::int64_t> done_ns;
  for (const ReadRecord& r : plain.reads) {
    if (!r.verified) continue;
    all.push_back(r.ms);
    per_template[reads[r.index % reads.size()].template_id].push_back(r.ms);
    done_ns.push_back(r.end_ns);
  }
  ReportLatencies(all, per_template,
                  MedianRate(done_ns, plain.start_ns, plain.end_ns), ok,
                  report);
  if (!args.trace) return 0;

  // Storage-layer figures, from the writer's own timers in the plain run.
  constexpr double kMb = 1024.0 * 1024.0;
  report->Set("storage.mapped_mb.start",
              static_cast<double>(start_fp.mapped_triple_bytes) / kMb, "MB");
  report->Set("storage.mapped_mb.end",
              static_cast<double>(end_fp.mapped_triple_bytes) / kMb, "MB");
  report->Set("storage.heap_mb.start",
              static_cast<double>(start_fp.heap_triple_bytes) / kMb, "MB");
  report->Set("storage.heap_mb.end",
              static_cast<double>(end_fp.heap_triple_bytes) / kMb, "MB");
  std::vector<double> plain_add, compacting_add, from_due;
  double total_add_ms = 0.0;
  double max_late = 0.0;
  std::size_t compactions = 0;
  std::size_t delta_max = 0;
  for (const WriteRecord& rec : plain.writes) {
    (rec.compacting ? compacting_add : plain_add).push_back(rec.add_ms);
    compactions += rec.compacting ? 1 : 0;
    from_due.push_back(rec.from_due_ms);
    total_add_ms += rec.add_ms;
    max_late = std::max(max_late, rec.lateness_ms);
    delta_max = std::max(delta_max, rec.delta_after);
  }
  double compacting_mean = 0.0;
  for (double ms : compacting_add) compacting_mean += ms;
  if (!compacting_add.empty()) {
    compacting_mean /= static_cast<double>(compacting_add.size());
  }
  report->Set("storage.write_batches", static_cast<double>(plain.writes.size()),
              "count");
  report->Set("storage.compactions", static_cast<double>(compactions), "count");
  report->Set("storage.delta_triples_max", static_cast<double>(delta_max),
              "count");
  report->Set("engine.add_ms.plain", Median(plain_add), "ms", plain_add.size());
  report->Set("engine.add_ms.compacting", compacting_mean, "ms",
              compacting_add.size());
  report->Set("write_latency_p50_ms", Median(from_due), "ms", from_due.size());
  report->Set("write_total_s", total_add_ms / 1e3, "s", plain.writes.size());
  report->Set("client.lateness_ms.max", max_late, "ms", plain.writes.size());

  // Traced run: a fresh engine over the same snapshot, the same traffic.
  SetupTimes traced_setup;
  double traced_open_ms = 0.0;
  auto traced_engine = OpenEngine(snapshot, &traced_setup, &traced_open_ms);
  if (!traced_engine.ok()) {
    std::cerr << "perfbench: " << traced_engine.status() << "\n";
    return 1;
  }
  const hsparql::engine::EngineStats before = (*traced_engine)->stats();
  Window traced = RunWindow(**traced_engine, traced_engine->get(), reads,
                            batches, args.seconds, true, report);
  ReportCacheRatios(before, (*traced_engine)->stats(), report);
  const std::uint64_t traced_ok =
      Verify(&traced, reads, **traced_engine, **base_engine,
             expected_fingerprint, report);
  ReportReplay(traced.replay, report);
  std::vector<std::pair<const Engine*, std::string>> responses;
  {
    std::unordered_map<std::string, bool> seen;
    for (const Request& r : reads) {
      if (responses.size() >= 400) break;
      if (seen.emplace(r.text, true).second) {
        responses.emplace_back(traced_engine->get(), r.text);
      }
    }
  }
  ReportSerialization(responses, report);

  // Readers spend part of the traced window replaying; that time is the
  // tracing's own work, not the system's.
  const hsparql::Status st = ReportTracing(
      traced.replay.covered_ms, traced.replay.request_ms,
      static_cast<double>(ok) / plain.seconds, ok,
      static_cast<double>(traced_ok) /
          (traced.seconds -
           traced.replay.replay_seconds / static_cast<double>(kReaders)),
      traced_ok, traced.log.spans(), args.spans_path, report);
  if (!st.ok()) {
    std::cerr << "perfbench: " << st << "\n";
    return 1;
  }
  return 0;
}

}  // namespace perfbench
