#include "harness/inputs.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <unordered_map>

#include "common/rng.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "workload/sp2bench_gen.h"
#include "workload/vocab.h"
#include "workload/yago_gen.h"

namespace perfbench {

namespace v = hsparql::workload::vocab;
using hsparql::SplitMix64;
using hsparql::Status;
using hsparql::ZipfSampler;

namespace {

constexpr std::string_view kSp2bPrefixes =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
    "PREFIX bench: <http://localhost/vocabulary/bench/> "
    "PREFIX dc: <http://purl.org/dc/elements/1.1/> "
    "PREFIX dcterms: <http://purl.org/dc/terms/> "
    "PREFIX swrc: <http://swrc.ontoware.org/ontology#> "
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> ";

constexpr std::string_view kYagoPrefixes =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX y: <http://yago-knowledge.org/resource/> ";

/// Constant pools a template draws from.
enum class Pool {
  kJournal,
  kJournalTitle,
  kYear,
  kAuthor,
  kProceedings,
  kBooktitle,
  kArticleLink,
  kActor,
  kVillage,
  kMovie,
  kRegion,
  kCity,
};

/// A query shape with one constant slot ("$"): the projection, the
/// variable ORDER BY sorts on, the WHERE body, and the pool the constant
/// comes from. `weight` sets its share of the request mix.
struct Template {
  std::string name;
  std::string projection;
  std::string order_var;
  std::string body;
  Pool pool;
  bool literal;
  double weight;
};

// Endpoint templates: typical bibliography-endpoint lookups plus the
// paper's SP1/SP2b/SP4b shapes each bound to one constant.
const std::vector<Template>& EndpointTemplates() {
  static const std::vector<Template> kTemplates = {
      {"journal_articles", "?article ?title", "?title",
       "?article swrc:journal $ . ?article dc:title ?title .", Pool::kJournal,
       false, 1.0},
      {"author_papers", "?paper ?title", "?title",
       "?paper dc:creator $ . ?paper dc:title ?title .", Pool::kAuthor, false,
       1.0},
      {"proceedings_authors", "?inproc ?name", "?name",
       "?inproc dcterms:partOf $ . ?inproc dc:creator ?author . "
       "?author foaf:name ?name .",
       Pool::kProceedings, false, 1.0},
      {"sp1_journal", "?yr ?jrnl", "?yr",
       "?jrnl rdf:type bench:Journal . ?jrnl dc:title $ . "
       "?jrnl dcterms:issued ?yr .",
       Pool::kJournalTitle, true, 1.0},
      {"sp2b_proceedings", "?inproc ?title ?page", "?page",
       "?inproc rdf:type bench:Inproceedings . ?inproc dc:creator ?author . "
       "?inproc bench:booktitle ?booktitle . ?inproc dc:title ?title . "
       "?inproc dcterms:partOf $ . ?inproc rdfs:seeAlso ?ee . "
       "?inproc swrc:pages ?page . ?inproc dcterms:issued ?yr .",
       Pool::kProceedings, false, 1.0},
      {"sp4b_author", "?article ?title", "?title",
       "?article dc:creator $ . ?article swrc:journal ?journal . "
       "?article rdf:type bench:Article . ?journal dc:title ?title .",
       Pool::kAuthor, false, 0.4},
      {"year_article_pages", "?article ?pages", "?pages",
       "?journal dcterms:issued $ . ?journal rdf:type bench:Journal . "
       "?article swrc:journal ?journal . ?article swrc:pages ?pages .",
       Pool::kYear, true, 0.6},
      {"booktitle_papers", "?inproc ?title ?pages", "?title",
       "?inproc bench:booktitle $ . ?inproc dc:title ?title . "
       "?inproc swrc:pages ?pages .",
       Pool::kBooktitle, true, 1.0},
      {"article_detail", "?article ?name ?journal", "?name",
       "?article rdfs:seeAlso $ . ?article dc:creator ?author . "
       "?author foaf:name ?name . ?article swrc:journal ?journal .",
       Pool::kArticleLink, false, 1.0},
      {"author_journal_peers", "?other ?article", "?other",
       "?mine dc:creator $ . ?mine swrc:journal ?journal . "
       "?article swrc:journal ?journal . ?article dc:creator ?other .",
       Pool::kAuthor, false, 0.5},
  };
  return kTemplates;
}

// Read-write reader templates: constant-bound multi-pattern joins whose
// answers only grow under insertion (plain BGPs, no modifiers), so a read
// racing the writer must return between its base and its final count.
const std::vector<Template>& ReadTemplates() {
  static const std::vector<Template> kTemplates = {
      {"actor_coactors", "?m ?co", "",
       "$ y:actedIn ?m . ?co y:actedIn ?m . ?co rdf:type y:wordnet_actor .",
       Pool::kActor, false, 1.0},
      {"village_scientists", "?s ?site ?r", "",
       "?s y:bornIn $ . ?s rdf:type y:wordnet_scientist . "
       "?s y:worksAt ?site . ?site y:locatedIn ?r .",
       Pool::kVillage, false, 1.0},
      {"movie_cast_homes", "?a ?c ?country", "",
       "?a y:actedIn $ . ?a y:livesIn ?c . ?c y:locatedIn ?country . "
       "?a rdf:type y:wordnet_actor .",
       Pool::kMovie, false, 1.0},
      {"region_site_scientists", "?site ?s ?v", "",
       "?site y:locatedIn $ . ?s y:worksAt ?site . ?s y:bornIn ?v . "
       "?v rdf:type y:wordnet_village .",
       Pool::kRegion, false, 1.0},
      {"city_resident_movies", "?a ?m", "",
       "?a y:livesIn $ . ?a y:actedIn ?m . ?m rdf:type y:wordnet_movie .",
       Pool::kCity, false, 1.0},
  };
  return kTemplates;
}

std::vector<std::string> NamesOf(const std::vector<Template>& templates) {
  std::vector<std::string> names;
  for (const Template& t : templates) names.push_back(t.name);
  return names;
}

std::string Bracket(const std::string& value, bool literal) {
  return literal ? "\"" + value + "\"" : "<" + value + ">";
}

std::string Fill(const std::string& body, const std::string& constant) {
  std::string out = body;
  const std::size_t at = out.find('$');
  out.replace(at, 1, constant);
  return out;
}

/// Fisher-Yates with the benchmark's own generator, so the shuffle (and
/// with it which constants are popular) is fixed by the seed alone.
void Shuffle(std::vector<std::string>* values, SplitMix64* rng) {
  for (std::size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1], (*values)[rng->NextBounded(i)]);
  }
}

std::size_t PickWeighted(const std::vector<double>& cumulative,
                         SplitMix64* rng) {
  const double x = rng->NextDouble() * cumulative.back();
  return static_cast<std::size_t>(
      std::upper_bound(cumulative.begin(), cumulative.end(), x) -
      cumulative.begin());
}

/// Draws requests: template by weight, constant Zipf(1.0)-skewed over a
/// seed-shuffled pool (cut to `max_pool` constants when non-zero), so the
/// popular constants differ per seed while the popularity curve does not.
class RequestSampler {
 public:
  RequestSampler(const std::vector<Template>& templates,
                 const std::map<Pool, std::vector<std::string>>& pools,
                 std::uint64_t seed, std::size_t max_pool)
      : templates_(templates), rng_(seed) {
    double total = 0.0;
    for (const Template& t : templates_) {
      total += t.weight;
      cumulative_.push_back(total);
    }
    for (const auto& [pool, values] : pools) {
      std::vector<std::string> shuffled = values;
      std::sort(shuffled.begin(), shuffled.end());
      Shuffle(&shuffled, &rng_);
      if (max_pool != 0 && shuffled.size() > max_pool) shuffled.resize(max_pool);
      pools_[pool] = std::move(shuffled);
    }
    for (std::size_t i = 0; i < templates_.size(); ++i) {
      const std::size_t n = pools_.at(templates_[i].pool).size();
      samplers_.emplace_back(n, 1.0, seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    }
  }

  std::size_t NextTemplate() { return PickWeighted(cumulative_, &rng_); }

  std::string NextConstant(std::size_t template_id) {
    const Template& t = templates_[template_id];
    const std::vector<std::string>& pool = pools_.at(t.pool);
    return Bracket(pool[samplers_[template_id].Next()], t.literal);
  }

  SplitMix64& rng() { return rng_; }

 private:
  const std::vector<Template>& templates_;
  SplitMix64 rng_;
  std::vector<double> cumulative_;
  std::map<Pool, std::vector<std::string>> pools_;
  std::vector<ZipfSampler> samplers_;
};

Status WriteGraph(const hsparql::rdf::Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  hsparql::rdf::WriteNTriples(graph, out);
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

/// Term strings of every triple, decoded once for pool extraction.
struct DecodedTriple {
  std::string_view s, p, o;
};

std::vector<DecodedTriple> Decode(const hsparql::rdf::Graph& graph) {
  std::vector<DecodedTriple> out;
  out.reserve(graph.size());
  const auto& dict = graph.dictionary();
  for (const hsparql::rdf::Triple& t : graph.triples()) {
    out.push_back({dict.Get(t.s).lexical, dict.Get(t.p).lexical,
                   dict.Get(t.o).lexical});
  }
  return out;
}

std::vector<std::string> Keys(
    const std::unordered_map<std::string, std::size_t>& counts,
    std::size_t min_count, std::size_t max_count) {
  std::vector<std::string> out;
  for (const auto& [key, n] : counts) {
    if (n >= min_count && n <= max_count) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

EndpointConstants EndpointPools(const hsparql::rdf::Graph& graph) {
  EndpointConstants c;
  std::unordered_map<std::string, std::size_t> papers_per_author;
  std::map<std::string, std::string> journal_year;
  std::vector<std::string> booktitles;
  for (const DecodedTriple& t : Decode(graph)) {
    if (t.p == v::kDcCreator) papers_per_author[std::string(t.o)]++;
    if (t.p == v::kRdfType && t.o == v::kBenchProceedings) {
      c.proceedings.emplace_back(t.s);
    }
    if (t.p == v::kDctermsIssued && t.s.find("/Journal1/") !=
                                        std::string_view::npos) {
      journal_year[std::string(t.s)] = std::string(t.o);
    }
    if (t.p == v::kBenchBooktitle) booktitles.emplace_back(t.o);
    if (t.p == v::kRdfsSeeAlso &&
        t.o.find("/article/") != std::string_view::npos) {
      c.article_links.emplace_back(t.o);
    }
  }
  for (const auto& [journal, year] : journal_year) {
    c.journals.push_back(journal);
    c.journal_years.push_back(year);
  }
  // Authors with a handful to a few dozen papers: the Zipf-productive head
  // (thousands of papers each) would make one constant dominate a
  // template's cost and the cost depend on which author the seed favours.
  c.authors = Keys(papers_per_author, 2, 60);
  std::sort(booktitles.begin(), booktitles.end());
  booktitles.erase(std::unique(booktitles.begin(), booktitles.end()),
                   booktitles.end());
  c.booktitles = std::move(booktitles);
  std::sort(c.proceedings.begin(), c.proceedings.end());
  std::sort(c.article_links.begin(), c.article_links.end());
  return c;
}

struct YagoPools {
  ReadConstants reads;
  std::vector<std::string> all_cities;
  std::vector<std::string> sites;
};

YagoPools ReadPools(const hsparql::rdf::Graph& graph) {
  YagoPools out;
  std::unordered_map<std::string, std::size_t> roles_per_actor;
  std::unordered_map<std::string, std::size_t> cast_per_movie;
  std::unordered_map<std::string, std::size_t> scientists_per_village;
  std::unordered_map<std::string, std::size_t> residents_per_city;
  std::unordered_map<std::string, std::size_t> sites_per_region;
  std::vector<DecodedTriple> triples = Decode(graph);
  std::unordered_map<std::string_view, bool> is_site;
  for (const DecodedTriple& t : triples) {
    if (t.p == v::kRdfType && t.o == v::kWordnetSite) is_site[t.s] = true;
    if (t.p == v::kRdfType && t.o == v::kWordnetCity) {
      out.all_cities.emplace_back(t.s);
    }
  }
  for (const DecodedTriple& t : triples) {
    if (t.p == v::kYagoActedIn) {
      roles_per_actor[std::string(t.s)]++;
      cast_per_movie[std::string(t.o)]++;
    } else if (t.p == v::kYagoBornIn) {
      scientists_per_village[std::string(t.o)]++;
    } else if (t.p == v::kYagoLivesIn) {
      residents_per_city[std::string(t.o)]++;
    } else if (t.p == v::kYagoLocatedIn && is_site.contains(t.s)) {
      sites_per_region[std::string(t.o)]++;
    }
  }
  for (const auto& [site, flag] : is_site) out.sites.emplace_back(site);
  std::sort(out.sites.begin(), out.sites.end());
  std::sort(out.all_cities.begin(), out.all_cities.end());
  out.reads.actors = Keys(roles_per_actor, 1, SIZE_MAX);
  out.reads.movies = Keys(cast_per_movie, 1, SIZE_MAX);
  out.reads.villages = Keys(scientists_per_village, 1, SIZE_MAX);
  out.reads.regions = Keys(sites_per_region, 1, SIZE_MAX);
  // Cities outside the Zipf head: a head city has thousands of residents
  // and would make one constant decide the template's cost.
  out.reads.cities = Keys(residents_per_city, 20, 600);
  return out;
}

/// The read-write stream: new actors (type, home, three roles in existing
/// movies) and new scientists (type, birthplace, workplace), all with
/// fresh subjects — every triple is new to the base and to the stream, so
/// each batch adds exactly kStreamBatch triples and the compaction points
/// are the same on every run.
hsparql::rdf::Graph MakeStream(const YagoPools& pools, std::uint64_t seed) {
  SplitMix64 rng(seed ^ 0x57a3ULL);
  std::vector<std::string> movies = pools.reads.movies;
  Shuffle(&movies, &rng);
  ZipfSampler movie_pick(movies.size(), 0.8, seed ^ 0x30f1eULL);
  hsparql::rdf::Graph stream;
  const std::string yago(v::kYago);
  std::size_t actor = 0;
  std::size_t scientist = 0;
  while (stream.size() < kStreamTriples) {
    if ((actor + scientist) % 3 != 2) {
      const std::string s = yago + "NewActor" + std::to_string(actor++);
      stream.AddIri(s, v::kRdfType, v::kWordnetActor);
      stream.AddIri(
          s, v::kYagoLivesIn,
          pools.all_cities[rng.NextBounded(pools.all_cities.size())]);
      std::vector<std::size_t> picked;
      while (picked.size() < 3) {
        const std::size_t m = movie_pick.Next();
        if (std::find(picked.begin(), picked.end(), m) != picked.end()) {
          continue;
        }
        picked.push_back(m);
        stream.AddIri(s, v::kYagoActedIn, movies[m]);
      }
    } else {
      const std::string s = yago + "NewScientist" + std::to_string(scientist++);
      stream.AddIri(s, v::kRdfType, v::kWordnetScientist);
      stream.AddIri(
          s, v::kYagoBornIn,
          pools.reads.villages[rng.NextBounded(pools.reads.villages.size())]);
      stream.AddIri(s, v::kYagoWorksAt,
                    pools.sites[rng.NextBounded(pools.sites.size())]);
    }
  }
  // Cut to exactly kStreamTriples (a partial last entity is still new).
  hsparql::rdf::Graph exact;
  const auto& dict = stream.dictionary();
  for (std::size_t i = 0; i < kStreamTriples; ++i) {
    const hsparql::rdf::Triple& t = stream.triples()[i];
    exact.AddIri(dict.Get(t.s).lexical, dict.Get(t.p).lexical,
                 dict.Get(t.o).lexical);
  }
  return exact;
}

Status WriteMeta(const std::string& dir, std::string_view workload,
                 std::uint64_t seed, const std::string& sizes) {
  std::ofstream out(dir + "/inputs.json");
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"sizes\":{" << sizes << "}}\n";
  out.close();
  if (!out) return Status::IoError("cannot write " + dir + "/inputs.json");
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& EndpointTemplateNames() {
  static const std::vector<std::string> names = NamesOf(EndpointTemplates());
  return names;
}

const std::vector<std::string>& ReadTemplateNames() {
  static const std::vector<std::string> names = NamesOf(ReadTemplates());
  return names;
}

std::vector<Request> MakeEndpointRequests(const EndpointConstants& constants,
                                          std::uint64_t seed,
                                          std::size_t count) {
  std::vector<std::string> titles;
  for (const std::string& year : constants.journal_years) {
    titles.push_back("Journal 1 (" + year + ")");
  }
  const std::map<Pool, std::vector<std::string>> pools = {
      {Pool::kJournal, constants.journals},
      {Pool::kJournalTitle, titles},
      {Pool::kYear, constants.journal_years},
      {Pool::kAuthor, constants.authors},
      {Pool::kProceedings, constants.proceedings},
      {Pool::kBooktitle, constants.booktitles},
      {Pool::kArticleLink, constants.article_links},
  };
  const std::vector<Template>& templates = EndpointTemplates();
  RequestSampler sampler(templates, pools, seed ^ 0xe4d90147ULL, 0);
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request r;
    r.template_id = sampler.NextTemplate();
    const Template& t = templates[r.template_id];
    const std::string where =
        "WHERE { " + Fill(t.body, sampler.NextConstant(r.template_id)) + " }";
    // One request in five carries a solution modifier.
    std::string text(kSp2bPrefixes);
    if (sampler.rng().NextDouble() < 0.2) {
      switch (sampler.rng().NextBounded(3)) {
        case 0:
          text += "SELECT " + t.projection + " " + where + " LIMIT 10";
          break;
        case 1:
          text += "ASK " + where;
          break;
        default:
          text += "SELECT " + t.projection + " " + where + " ORDER BY " +
                  t.order_var + " LIMIT 10";
          break;
      }
    } else {
      text += "SELECT " + t.projection + " " + where;
    }
    const double f = sampler.rng().NextDouble();
    r.format = f < 0.8 ? "json" : f < 0.9 ? "csv" : "tsv";
    r.text = std::move(text);
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Request> MakeReadRequests(const ReadConstants& constants,
                                      std::uint64_t seed, std::size_t count) {
  const std::map<Pool, std::vector<std::string>> pools = {
      {Pool::kActor, constants.actors},     {Pool::kVillage, constants.villages},
      {Pool::kMovie, constants.movies},     {Pool::kRegion, constants.regions},
      {Pool::kCity, constants.cities},
  };
  const std::vector<Template>& templates = ReadTemplates();
  // A few hundred constants per template bound the distinct reads the
  // correctness check must answer twice (on the base and the final store).
  RequestSampler sampler(templates, pools, seed ^ 0x4ead5ULL, 300);
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request r;
    r.template_id = sampler.NextTemplate();
    const Template& t = templates[r.template_id];
    r.format = "json";
    r.text = std::string(kYagoPrefixes) + "SELECT " + t.projection +
             " WHERE { " + Fill(t.body, sampler.NextConstant(r.template_id)) +
             " }";
    out.push_back(std::move(r));
  }
  return out;
}

Status WriteRequests(const std::vector<Request>& requests,
                     const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  for (const Request& r : requests) {
    out << r.template_id << '\t' << r.format << '\t' << r.text << '\n';
  }
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

Status ReadRequests(const std::string& path, std::vector<Request>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t a = line.find('\t');
    const std::size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
    if (b == std::string::npos) {
      return Status::ParseError(path + ":" + std::to_string(line_no) +
                                ": expected 3 tab-separated fields");
    }
    Request r;
    r.template_id = std::stoul(line.substr(0, a));
    r.format = line.substr(a + 1, b - a - 1);
    r.text = line.substr(b + 1);
    out->push_back(std::move(r));
  }
  if (out->empty()) return Status::ParseError(path + ": no requests");
  return Status::OK();
}

Status Generate(std::string_view workload, std::uint64_t seed,
                const std::string& dir) {
  namespace wl = hsparql::workload;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir);
  if (workload == "paper") {
    hsparql::rdf::Graph sp2b =
        wl::GenerateSp2b(wl::Sp2bConfig::FromTargetTriples(kDatasetTriples, seed));
    HSPARQL_RETURN_IF_ERROR(WriteGraph(sp2b, dir + "/sp2b.nt"));
    hsparql::rdf::Graph yago =
        wl::GenerateYago(wl::YagoConfig::FromTargetTriples(kDatasetTriples, seed));
    HSPARQL_RETURN_IF_ERROR(WriteGraph(yago, dir + "/yago.nt"));
    return WriteMeta(dir, workload, seed,
                     "\"sp2b_triples\":" + std::to_string(sp2b.size()) +
                         ",\"yago_triples\":" + std::to_string(yago.size()));
  }
  if (workload == "endpoint") {
    hsparql::rdf::Graph sp2b =
        wl::GenerateSp2b(wl::Sp2bConfig::FromTargetTriples(kDatasetTriples, seed));
    HSPARQL_RETURN_IF_ERROR(WriteGraph(sp2b, dir + "/sp2b.nt"));
    const std::vector<Request> requests =
        MakeEndpointRequests(EndpointPools(sp2b), seed, kEndpointRequests);
    HSPARQL_RETURN_IF_ERROR(WriteRequests(requests, dir + "/requests.tsv"));
    return WriteMeta(dir, workload, seed,
                     "\"sp2b_triples\":" + std::to_string(sp2b.size()) +
                         ",\"requests\":" + std::to_string(requests.size()));
  }
  if (workload == "read-write") {
    hsparql::rdf::Graph base =
        wl::GenerateYago(wl::YagoConfig::FromTargetTriples(kDatasetTriples, seed));
    HSPARQL_RETURN_IF_ERROR(WriteGraph(base, dir + "/base.nt"));
    const YagoPools pools = ReadPools(base);
    const hsparql::rdf::Graph stream = MakeStream(pools, seed);
    HSPARQL_RETURN_IF_ERROR(WriteGraph(stream, dir + "/stream.nt"));
    const std::vector<Request> reads =
        MakeReadRequests(pools.reads, seed, kReadWriteReads);
    HSPARQL_RETURN_IF_ERROR(WriteRequests(reads, dir + "/reads.tsv"));
    return WriteMeta(dir, workload, seed,
                     "\"base_triples\":" + std::to_string(base.size()) +
                         ",\"stream_triples\":" +
                         std::to_string(stream.size()) + ",\"reads\":" +
                         std::to_string(reads.size()));
  }
  return Status::InvalidArgument("unknown workload: " + std::string(workload));
}

}  // namespace perfbench
