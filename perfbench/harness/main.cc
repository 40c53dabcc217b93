// perfbench — the benchmark driver binary.
//
//   perfbench gen --workload W --seed N --out DIR
//       writes the workload's inputs (datasets, request sequence, write
//       stream) for seed N into DIR;
//   perfbench run --workload W --seed N --data DIR --seconds S
//                 --trace 0|1 --result FILE [--spans FILE]
//       measures the workload on those inputs and writes one JSON report.
//
// perfbench/run.py builds this binary, runs both steps in separate
// processes (so generator memory never counts towards peak_rss_mb) and
// prints the result.
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "harness/harness.h"
#include "harness/inputs.h"

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

int Usage() {
  std::cerr << "usage: perfbench gen --workload W --seed N --out DIR\n"
               "       perfbench run --workload W --seed N --data DIR "
               "--seconds S --trace 0|1 --result FILE [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  auto flags = ParseFlags(argc, argv);
  if (!flags.contains("workload") || !flags.contains("seed")) return Usage();
  const std::string workload = flags["workload"];
  const std::uint64_t seed = std::stoull(flags["seed"]);

  if (command == "gen") {
    if (!flags.contains("out")) return Usage();
    const hsparql::Status st = perfbench::Generate(workload, seed, flags["out"]);
    if (!st.ok()) {
      std::cerr << "perfbench gen: " << st << "\n";
      return 1;
    }
    return 0;
  }
  if (command != "run" || !flags.contains("data") ||
      !flags.contains("result")) {
    return Usage();
  }

  perfbench::RunArgs args;
  args.workload = workload;
  args.seed = seed;
  args.data_dir = flags["data"];
  args.seconds = flags.contains("seconds") ? std::stod(flags["seconds"]) : 10.0;
  args.trace = flags["trace"] == "1";
  args.spans_path = flags["spans"];

  perfbench::Report report;
  if (args.trace) perfbench::ReportPerLayerDefaults(&report);
  int rc = 0;
  if (workload == "paper") {
    rc = perfbench::RunPaper(args, &report);
  } else if (workload == "endpoint") {
    rc = perfbench::RunEndpoint(args, &report);
  } else if (workload == "read-write") {
    rc = perfbench::RunReadWrite(args, &report);
  } else {
    std::cerr << "perfbench: unknown workload " << workload << "\n";
    return 2;
  }
  if (rc != 0) return rc;

  report.AddContext("workload", perfbench::JsonString(workload));
  report.AddContext("seed", std::to_string(seed));
  report.AddContext("seconds", std::to_string(args.seconds));
  report.AddContext("trace", args.trace ? "true" : "false");
  report.AddContext("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.AddContext("hardware_concurrency",
                    std::to_string(std::thread::hardware_concurrency()));
  report.AddContext("compiler", perfbench::JsonString(
#if defined(__clang__)
                                    "clang " __clang_version__
#elif defined(__GNUC__)
                                    "g++ " __VERSION__
#else
                                    "unknown"
#endif
                                    ));
  report.AddContext("build_type", perfbench::JsonString(PERFBENCH_BUILD_TYPE));

  std::ofstream out(flags["result"]);
  out << report.ToJson() << "\n";
  out.close();
  if (!out) {
    std::cerr << "perfbench: cannot write " << flags["result"] << "\n";
    return 1;
  }
  return 0;
}
