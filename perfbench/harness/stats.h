// The benchmark's own arithmetic: percentiles under the "ten samples
// beyond" rule, medians, geometric means, and span self-time. Header-only
// so the self-test exercises exactly what the driver computes.
#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Samples a percentile needs so that at least `kTailSamples` lie beyond
/// it: a p99 is only reported from 1000 samples upward.
inline constexpr std::size_t kTailSamples = 10;

inline bool PercentileSupported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >=
         static_cast<double>(kTailSamples) - 1e-9;
}

/// A tail percentile that honours the ten-samples-beyond rule. When the
/// sample is too small for `q`, it reports the highest percentile the
/// sample does support — the value with exactly kTailSamples samples above
/// it — and says so through `reported_q`. Fewer than kTailSamples + 1
/// samples support no tail at all: returns the maximum with reported_q 0.
struct TailValue {
  double value = 0.0;
  double reported_q = 0.0;
};

inline TailValue TailPercentile(std::vector<double> values, double q) {
  TailValue out;
  if (values.empty()) return out;
  const std::size_t n = values.size();
  if (PercentileSupported(n, q)) {
    out.value = Quantile(std::move(values), q);
    out.reported_q = q;
    return out;
  }
  std::sort(values.begin(), values.end());
  if (n <= kTailSamples) {
    out.value = values.back();
    return out;
  }
  const std::size_t idx = n - 1 - kTailSamples;
  out.value = values[idx];
  out.reported_q = static_cast<double>(idx) / static_cast<double>(n - 1);
  return out;
}

/// Geometric mean of strictly positive values; 0 when empty or when any
/// value is not positive (a zero latency is a measurement bug, not data).
inline double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Events per second as the median over the whole `bucket_ns` buckets of
/// [start, end) — robust to a slow stretch of the window, unlike
/// count / duration, which it falls back to when no whole bucket fits.
inline double MedianRate(const std::vector<std::int64_t>& event_ns,
                         std::int64_t start, std::int64_t end,
                         std::int64_t bucket_ns = 1'000'000'000) {
  const std::int64_t buckets = (end - start) / bucket_ns;
  if (buckets < 1) {
    return end > start ? static_cast<double>(event_ns.size()) * 1e9 /
                             static_cast<double>(end - start)
                       : 0.0;
  }
  std::vector<double> counts(static_cast<std::size_t>(buckets), 0.0);
  for (std::int64_t t : event_ns) {
    if (t < start) continue;
    const std::int64_t b = (t - start) / bucket_ns;
    if (b < buckets) counts[static_cast<std::size_t>(b)] += 1.0;
  }
  return Median(std::move(counts)) * 1e9 / static_cast<double>(bucket_ns);
}

/// A half-open time interval in nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Length of the union of `intervals` after clipping each to `window`.
inline std::int64_t CoveredNanos(std::vector<Interval> intervals,
                                 Interval window) {
  for (Interval& i : intervals) {
    i.begin = std::max(i.begin, window.begin);
    i.end = std::min(i.end, window.end);
  }
  std::erase_if(intervals, [](const Interval& i) { return i.end <= i.begin; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::int64_t covered = 0;
  std::int64_t run_begin = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const Interval& i : intervals) {
    if (open && i.begin <= run_end) {
      run_end = std::max(run_end, i.end);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = i.begin;
    run_end = i.end;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return covered;
}

/// A span's self time: its duration minus the part of it that the union
/// of its children covers (overlapping children are not double-counted,
/// children sticking out of the parent only count inside it).
inline std::int64_t SelfNanos(Interval span,
                              const std::vector<Interval>& children) {
  return (span.end - span.begin) - CoveredNanos(children, span);
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
