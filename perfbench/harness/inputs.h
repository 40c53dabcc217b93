// Benchmark inputs: the seeded generator (`perfbench gen`) and the readers
// the measured run uses. The run never generates anything itself; it only
// reads the files written here, so generator memory and time never count.
//
// Files per workload directory:
//   paper:      sp2b.nt, yago.nt
//   endpoint:   sp2b.nt, requests.tsv
//   read-write: base.nt, stream.nt, reads.tsv
//   every one:  inputs.json (seed, workload and sizes)
#ifndef PERFBENCH_HARNESS_INPUTS_H_
#define PERFBENCH_HARNESS_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Dataset sizes. The paper and endpoint stores are about 200k triples
/// each; the read-write stream is sized so that the 1:4 compaction rule of
/// storage::TripleStore fires twice over a ~200k base (first at +50k, then
/// at +62.5k more).
inline constexpr std::uint64_t kDatasetTriples = 200'000;
inline constexpr std::size_t kStreamTriples = 120'000;
inline constexpr std::size_t kStreamBatch = 1'000;
/// Pre-generated request sequences; a run that consumes one wraps around.
inline constexpr std::size_t kEndpointRequests = 30'000;
inline constexpr std::size_t kReadWriteReads = 40'000;

/// One pre-generated request: the template it came from, the result
/// format ("json", "csv", "tsv"; always "json" for in-process reads) and
/// the SPARQL text.
struct Request {
  std::size_t template_id = 0;
  std::string format;
  std::string text;
};

/// Template names, indexed by Request::template_id.
const std::vector<std::string>& EndpointTemplateNames();
const std::vector<std::string>& ReadTemplateNames();

/// Writes the inputs of `workload` for `seed` into `dir` (created if
/// missing).
hsparql::Status Generate(std::string_view workload, std::uint64_t seed,
                         const std::string& dir);

/// Deterministic request sequences, exposed for the self-test: the same
/// seed and data give the same sequence.
struct EndpointConstants {
  std::vector<std::string> journals;        // IRIs
  std::vector<std::string> journal_years;   // "1940", ... (same order)
  std::vector<std::string> authors;         // IRIs with 2..60 papers
  std::vector<std::string> proceedings;     // IRIs
  std::vector<std::string> booktitles;      // literal values
  std::vector<std::string> article_links;   // rdfs:seeAlso IRIs
};
std::vector<Request> MakeEndpointRequests(const EndpointConstants& constants,
                                          std::uint64_t seed,
                                          std::size_t count);

struct ReadConstants {
  std::vector<std::string> actors;
  std::vector<std::string> villages;
  std::vector<std::string> movies;
  std::vector<std::string> regions;
  std::vector<std::string> cities;
};
std::vector<Request> MakeReadRequests(const ReadConstants& constants,
                                      std::uint64_t seed, std::size_t count);

/// requests.tsv / reads.tsv: "template_id \t format \t text" per line
/// (texts are single-line by construction).
hsparql::Status WriteRequests(const std::vector<Request>& requests,
                              const std::string& path);
hsparql::Status ReadRequests(const std::string& path,
                             std::vector<Request>* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_INPUTS_H_
