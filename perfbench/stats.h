// Summary statistics the benchmark reports: medians, quartiles, the tail
// percentile a sample supports, and the tracing-overhead difference.
// Header-only and free of emba dependencies so stats_test can pin them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Python's statistics.quantiles(values, n=4) ("exclusive" method): the
/// q-th quartile sits at position q*(n+1)/4 in the 1-based sorted order,
/// interpolated linearly and clamped to the sample range. Median is q=2.
inline double Quartile(std::vector<double> values, int q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 1) return values[0];
  const double pos = static_cast<double>(q) * static_cast<double>(n + 1) / 4.0;
  const double lo_pos = std::floor(pos);
  if (lo_pos < 1.0) return values.front();
  if (lo_pos >= static_cast<double>(n)) return values.back();
  const size_t j = static_cast<size_t>(lo_pos);  // 1-based index of lower
  const double frac = pos - lo_pos;
  return values[j - 1] + frac * (values[j] - values[j - 1]);
}

inline double Median(const std::vector<double>& values) {
  return Quartile(values, 2);
}

/// (Q3 - Q1) / median: the run-to-run spread the benchmark's bounds use.
inline double RelativeIqr(const std::vector<double>& values) {
  const double median = Median(values);
  if (median == 0.0) return 0.0;
  return (Quartile(values, 3) - Quartile(values, 1)) / std::fabs(median);
}

/// The highest percentile of a sample that still has at least `min_beyond`
/// samples above it, capped at `cap`, and the value there (nearest rank).
/// With n samples, percentile p leaves floor(n*(1-p/100)) beyond it, so the
/// supported percentile is 100*(1 - min_beyond/n). A sample with fewer than
/// min_beyond+1 entries supports no tail: percentile 0, value = median.
struct TailPercentile {
  double percentile = 0.0;  ///< in [0, cap]
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;  ///< samples strictly after the reported rank
};

inline TailPercentile HighestSupportedPercentile(std::vector<double> values,
                                                 double cap = 99.0,
                                                 size_t min_beyond = 10) {
  TailPercentile tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= min_beyond) {
    tail.value = Median(values);
    tail.beyond = n / 2;
    return tail;
  }
  double pct = 100.0 * (1.0 - static_cast<double>(min_beyond) /
                                  static_cast<double>(n));
  pct = std::min(pct, cap);
  // Nearest rank: the smallest 1-based rank r with r >= p/100 * n.
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 *
                                              static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  tail.percentile = pct;
  tail.value = values[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// Indices, in increasing order, of the ceil(k/parts) non-empty windows
/// whose own p-th percentile is lowest (ties keep the earlier window): the
/// quietest 1/parts of a phase cut into k windows. Empty windows are never
/// chosen.
inline std::vector<size_t> QuietestWindows(
    const std::vector<std::vector<double>>& windows, double p, size_t parts) {
  std::vector<size_t> order;
  for (size_t k = 0; k < windows.size(); ++k) {
    if (!windows[k].empty()) order.push_back(k);
  }
  std::vector<double> tail(windows.size(), 0.0);
  for (size_t k : order) tail[k] = Percentile(windows[k], p);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return tail[a] < tail[b]; });
  order.resize(std::min(order.size(), (windows.size() + parts - 1) / parts));
  std::sort(order.begin(), order.end());
  return order;
}

/// The samples of the chosen windows, pooled.
inline std::vector<double> Pool(const std::vector<std::vector<double>>& windows,
                                const std::vector<size_t>& chosen) {
  std::vector<double> pooled;
  for (size_t k : chosen) {
    pooled.insert(pooled.end(), windows[k].begin(), windows[k].end());
  }
  return pooled;
}

/// Tracing overhead of one metric as a share of its untraced value,
/// signed so that a positive share always means the traced run did worse:
/// for a higher-is-better metric (throughput) it is (untraced - traced) /
/// untraced, for a lower-is-better metric (latency) (traced - untraced) /
/// untraced. 0 when the untraced value is 0.
inline double TracingOverheadShare(double untraced, double traced,
                                   bool higher_is_better) {
  if (untraced == 0.0) return 0.0;
  const double worse = higher_is_better ? untraced - traced : traced - untraced;
  return worse / std::fabs(untraced);
}

}  // namespace perfbench
