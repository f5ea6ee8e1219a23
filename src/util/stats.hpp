// Small statistics helpers used by metrics collection and benchmarks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace spider {

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

  /// Memberwise equality (exact double compare — identity checks, not
  /// statistics).
  [[nodiscard]] bool operator==(const RunningStats&) const = default;

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// q-quantile (q in [0,1]) by linear interpolation between order statistics.
/// Selects with std::nth_element — O(n) per call, no copy, no full sort —
/// and PARTIALLY REORDERS `values` in place (quantile values themselves are
/// unaffected by the reordering, so repeated calls on the same span are
/// fine). Returns 0 for empty.
[[nodiscard]] double quantile(std::span<double> values, double q);

/// Fixed-size log-linear histogram of non-negative integer samples (the
/// simulator feeds it microsecond waits), HdrHistogram-style: values below
/// 2^kSubBits get one bucket each, and every octave [2^m, 2^(m+1)) above
/// splits into 2^(kSubBits-1) equal buckets, up to 2^kTopBits (~19 h in
/// µs); larger values share the top bucket. Count, sum and max are exact,
/// and the storage is one fixed array, so its size does not depend on how
/// many samples were added.
class LogHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kTopBits = 36;
  /// Bound on |quantile(q) - exact| / exact for samples below 2^kTopBits,
  /// where exact is quantile() over the same samples.
  static constexpr double kRelativeError = 1.0 / 128;

  void add(std::int64_t value);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t max() const { return max_; }
  /// q-quantile (q in [0,1]) with quantile()'s interpolation between order
  /// statistics, each read as its bucket's midpoint (the exact max for the
  /// largest). 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] bool operator==(const LogHistogram&) const = default;

 private:
  static constexpr std::size_t kExact = std::size_t{1} << kSubBits;
  static constexpr std::size_t kHalf = kExact / 2;
  static constexpr std::size_t kBuckets =
      kExact + static_cast<std::size_t>(kTopBits - kSubBits) * kHalf;

  static std::size_t bucket_of(std::int64_t value);
  /// Midpoint of the integers bucket `b` holds.
  static double bucket_mid(std::size_t b);
  /// Estimate of the 0-based `rank`-th smallest sample.
  [[nodiscard]] double value_at(std::int64_t rank) const;

  std::array<std::int64_t, kBuckets> counts_{};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace spider
