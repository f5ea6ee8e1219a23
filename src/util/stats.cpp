#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/assert.hpp"

namespace spider {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ > 0 ? min_ : 0.0; }

double RunningStats::max() const { return count_ > 0 ? max_ : 0.0; }

double quantile(std::span<double> values, double q) {
  if (values.empty()) return 0.0;
  SPIDER_ASSERT(q >= 0.0 && q <= 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double lo_value = *lo_it;
  if (frac <= 0.0 || lo + 1 >= values.size()) return lo_value;
  // After nth_element the (lo+1)-th order statistic is the minimum of the
  // upper partition — one linear scan instead of a second selection.
  const double hi_value = *std::min_element(lo_it + 1, values.end());
  return lo_value * (1.0 - frac) + hi_value * frac;
}

void LogHistogram::add(std::int64_t value) {
  SPIDER_ASSERT(value >= 0);
  ++counts_[bucket_of(value)];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

std::size_t LogHistogram::bucket_of(std::int64_t value) {
  const auto v = static_cast<std::uint64_t>(value);
  if (v < kExact) return static_cast<std::size_t>(v);
  // v >> shift lands in [kHalf, kExact): the octave's sub-bucket.
  const int shift = static_cast<int>(std::bit_width(v)) - kSubBits;
  const std::size_t b = kExact +
                        static_cast<std::size_t>(shift - 1) * kHalf +
                        static_cast<std::size_t>(v >> shift) - kHalf;
  return std::min(b, kBuckets - 1);
}

double LogHistogram::bucket_mid(std::size_t b) {
  if (b < kExact) return static_cast<double>(b);
  const std::size_t shift = (b - kExact) / kHalf + 1;
  const std::uint64_t low = (kHalf + (b - kExact) % kHalf) << shift;
  const std::uint64_t width = std::uint64_t{1} << shift;
  return static_cast<double>(low) + static_cast<double>(width - 1) / 2.0;
}

double LogHistogram::value_at(std::int64_t rank) const {
  if (rank >= count_ - 1) return static_cast<double>(max_);
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen > rank)
      return std::min(bucket_mid(b), static_cast<double>(max_));
  }
  return static_cast<double>(max_);
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  SPIDER_ASSERT(q >= 0.0 && q <= 1.0);
  const double pos = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::int64_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const double lo_value = value_at(lo);
  if (frac <= 0.0) return lo_value;
  return lo_value * (1.0 - frac) + value_at(lo + 1) * frac;
}

}  // namespace spider
