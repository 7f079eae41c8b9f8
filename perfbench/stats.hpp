// The benchmark's own arithmetic: percentiles under the tail-sample rule, the
// Zipf catalogue draw and span self time. Header-only so the self-test
// (selftest.cpp) checks exactly what the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// A percentile is reported only when at least this many samples lie above
/// it; with fewer, the figure would be set by a handful of outliers.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile (`q` in (0, 1)): the smallest sample with at least
/// q*n samples at or below it. std::nullopt unless kTailSamples samples are
/// strictly beyond its rank, e.g. p50 needs 20 samples, p99 needs 1000.
inline std::optional<double> percentile(std::vector<double> values, double q) {
  const std::size_t n = values.size();
  if (n == 0) return std::nullopt;
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (n - 1 - index < kTailSamples) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

/// Indices of the fastest ceil(n / share) of n slices, fastest first, given
/// each slice's completed operations per second. The timing figures pool
/// these slices, so a slice the host stalled does not move them.
inline std::vector<std::size_t> fastest_share(const std::vector<double>& rates,
                                              std::size_t share) {
  std::vector<std::size_t> order(rates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return rates[a] > rates[b]; });
  order.resize((order.size() + share - 1) / share);
  return order;
}

/// Draws catalogue ranks 0..n-1 with P(rank r) proportional to 1/(r+1)^s.
class ZipfDraw {
 public:
  ZipfDraw(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t operator()(cnn2fpga::util::Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1 : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// A closed time interval in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Self time of `span`: its duration minus the part of it that the union of
/// `children` covers. Children may overlap each other (time covered twice is
/// subtracted once) and may stick out of the span (only the inside counts).
inline std::int64_t self_time(Interval span, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t cursor = span.start;  // everything before cursor is accounted
  for (const Interval& child : children) {
    const std::int64_t lo = std::max(child.start, cursor);
    const std::int64_t hi = std::min(child.end, span.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (span.end - span.start) - covered;
}

}  // namespace perfbench
