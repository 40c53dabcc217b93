// Tests of the benchmark's own arithmetic and checks: the percentile rule,
// the geometric mean, determinism of the seeded request sequences, span
// self-time, and that a wrong answer counts as a failed operation.
#include <gtest/gtest.h>

#include <numeric>

#include "harness/harness.h"
#include "harness/inputs.h"
#include "harness/stats.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, SupportedOnlyWithTenSamplesBeyond) {
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
}

TEST(Percentile, ReportsTheRequestedQuantileWhenSupported) {
  const TailValue tail = TailPercentile(Ramp(1001), 0.99);
  EXPECT_DOUBLE_EQ(tail.reported_q, 0.99);
  EXPECT_DOUBLE_EQ(tail.value, 991.0);
}

TEST(Percentile, FallsBackToTheHighestSupportedQuantile) {
  // 100 samples cannot support a p99; the value reported has exactly ten
  // samples above it.
  const TailValue tail = TailPercentile(Ramp(100), 0.99);
  EXPECT_DOUBLE_EQ(tail.value, 90.0);
  EXPECT_NEAR(tail.reported_q, 89.0 / 99.0, 1e-12);
  std::vector<double> v = Ramp(100);
  EXPECT_EQ(std::count_if(v.begin(), v.end(),
                          [&](double x) { return x > tail.value; }),
            10);
}

TEST(Percentile, TooFewSamplesReportNoTail) {
  const TailValue tail = TailPercentile(Ramp(10), 0.99);
  EXPECT_DOUBLE_EQ(tail.value, 10.0);
  EXPECT_DOUBLE_EQ(tail.reported_q, 0.0);
}

TEST(Percentile, MedianInterpolates) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(GeoMean, OfPositiveValues) {
  EXPECT_DOUBLE_EQ(GeoMean({1.0, 100.0}), 10.0);
  EXPECT_NEAR(GeoMean({2.0, 8.0, 4.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(GeoMean({5.0}), 5.0);
}

TEST(GeoMean, RejectsNonPositiveAndEmpty) {
  EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
  EXPECT_DOUBLE_EQ(GeoMean({1.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(GeoMean({1.0, -2.0}), 0.0);
}

TEST(MedianRate, IsTheMedianOverWholeBuckets) {
  constexpr std::int64_t kSec = 1'000'000'000;
  // 10, 2 and 10 events in three whole seconds; the half second after
  // them is not a whole bucket and is ignored.
  std::vector<std::int64_t> events;
  for (int i = 0; i < 10; ++i) events.push_back(i * kSec / 10);
  events.push_back(kSec + 1);
  events.push_back(kSec + 2);
  for (int i = 0; i < 10; ++i) events.push_back(2 * kSec + i * kSec / 10);
  events.push_back(3 * kSec + 1);
  EXPECT_DOUBLE_EQ(MedianRate(events, 0, 3 * kSec + kSec / 2), 10.0);
  // Shorter than one bucket: count over duration.
  EXPECT_DOUBLE_EQ(MedianRate({1, 2, 3}, 0, kSec / 2), 6.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // Children [10,30) and [20,40) overlap: together they cover 30 ns.
  EXPECT_EQ(SelfNanos({0, 100}, {{10, 30}, {20, 40}}), 70);
  // A child reaching past the parent only counts inside it.
  EXPECT_EQ(SelfNanos({0, 100}, {{90, 120}}), 90);
  EXPECT_EQ(SelfNanos({0, 100}, {{150, 200}}), 100);
  EXPECT_EQ(SelfNanos({0, 100}, {}), 100);
  EXPECT_EQ(SelfNanos({0, 100}, {{0, 100}, {10, 20}}), 0);
}

EndpointConstants SampleEndpointConstants() {
  EndpointConstants c;
  for (int i = 0; i < 50; ++i) {
    const std::string n = std::to_string(i);
    c.journals.push_back("http://x/Journal1/" + n);
    c.journal_years.push_back(std::to_string(1940 + i));
    c.authors.push_back("http://x/Person" + n);
    c.proceedings.push_back("http://x/Proceeding" + n);
    c.booktitles.push_back("Conference 0 (" + n + ")");
    c.article_links.push_back("http://x/article/" + n);
  }
  return c;
}

bool SameRequests(const std::vector<Request>& a,
                  const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].template_id != b[i].template_id || a[i].format != b[i].format ||
        a[i].text != b[i].text) {
      return false;
    }
  }
  return true;
}

TEST(RequestSequence, SameSeedSameSequence) {
  const EndpointConstants c = SampleEndpointConstants();
  const auto a = MakeEndpointRequests(c, 7, 2000);
  const auto b = MakeEndpointRequests(c, 7, 2000);
  EXPECT_TRUE(SameRequests(a, b));
  EXPECT_FALSE(SameRequests(a, MakeEndpointRequests(c, 8, 2000)));
}

TEST(RequestSequence, MixMatchesItsSpecification) {
  const auto requests = MakeEndpointRequests(SampleEndpointConstants(), 3, 20000);
  std::size_t modified = 0, json = 0;
  std::vector<std::size_t> per_template(EndpointTemplateNames().size());
  for (const Request& r : requests) {
    ASSERT_LT(r.template_id, per_template.size());
    per_template[r.template_id]++;
    if (r.text.find("LIMIT 10") != std::string::npos ||
        r.text.find("ASK ") != std::string::npos) {
      ++modified;
    }
    if (r.format == "json") ++json;
    EXPECT_EQ(r.text.find('\n'), std::string::npos);
    EXPECT_EQ(r.text.find('\t'), std::string::npos);
  }
  EXPECT_NEAR(static_cast<double>(modified) / 20000.0, 0.2, 0.02);
  EXPECT_NEAR(static_cast<double>(json) / 20000.0, 0.8, 0.02);
  for (std::size_t n : per_template) EXPECT_GT(n, 0u);
}

TEST(RequestSequence, ConstantsAreZipfSkewed) {
  // The most requested constant of a template is requested far more
  // often than the median one.
  const auto requests = MakeEndpointRequests(SampleEndpointConstants(), 5, 20000);
  std::map<std::string, std::size_t> counts;
  for (const Request& r : requests) {
    if (r.template_id == 0) counts[r.text]++;
  }
  std::vector<std::size_t> sorted;
  for (const auto& [text, n] : counts) sorted.push_back(n);
  std::sort(sorted.rbegin(), sorted.rend());
  ASSERT_GT(sorted.size(), 10u);
  EXPECT_GT(sorted.front(), 5 * sorted[sorted.size() / 2]);
}

TEST(RequestSequence, ReadSequenceIsDeterministic) {
  ReadConstants c;
  for (int i = 0; i < 40; ++i) {
    const std::string n = std::to_string(i);
    c.actors.push_back("http://y/Actor" + n);
    c.villages.push_back("http://y/Village" + n);
    c.movies.push_back("http://y/Movie" + n);
    c.regions.push_back("http://y/Region" + n);
    c.cities.push_back("http://y/City" + n);
  }
  EXPECT_TRUE(SameRequests(MakeReadRequests(c, 11, 500),
                           MakeReadRequests(c, 11, 500)));
  EXPECT_FALSE(SameRequests(MakeReadRequests(c, 11, 500),
                            MakeReadRequests(c, 12, 500)));
}

TEST(Checks, WrongExpectedAnswerFailsTheOperation) {
  Report report;
  report.Attempt(2);
  EXPECT_TRUE(CheckEqual(5, 5, "rows", &report));
  EXPECT_FALSE(CheckEqual(5, 6, "rows", &report));
  EXPECT_EQ(report.failed(), 1u);
  EXPECT_NE(report.ToJson().find("\"correct\":false"), std::string::npos);
}

TEST(Checks, WithinBoundsIsInclusive) {
  Report report;
  report.Attempt(4);
  EXPECT_TRUE(CheckWithin(3, 3, 9, "rows", &report));
  EXPECT_TRUE(CheckWithin(9, 3, 9, "rows", &report));
  EXPECT_FALSE(CheckWithin(2, 3, 9, "rows", &report));
  EXPECT_FALSE(CheckWithin(10, 3, 9, "rows", &report));
  EXPECT_EQ(report.failed(), 2u);
}

TEST(Checks, CleanRunIsCorrect) {
  Report report;
  report.Attempt();
  EXPECT_NE(report.ToJson().find("\"correct\":true"), std::string::npos);
}

TEST(OperatorKinds, FoldLabels) {
  EXPECT_EQ(OperatorKind("mergejoin ?x"), "mergejoin");
  EXPECT_EQ(OperatorKind("leftouterhashjoin ?y"), "hashjoin");
  EXPECT_EQ(OperatorKind("select(pos) tp2"), "select");
  EXPECT_EQ(OperatorKind("scan(spo) tp0"), "scan");
  EXPECT_EQ(OperatorKind("leapfrogjoin [?a ?b]"), "other");
  EXPECT_EQ(OperatorKind("sort"), "sort");
}

}  // namespace
}  // namespace perfbench
