#include "transport/rate_controller.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spider {

namespace {

constexpr std::size_t kMinIndex = 16;

}  // namespace

void PathRateController::reserve(std::size_t paths) {
  states_.reserve(paths);
  std::size_t capacity = kMinIndex;
  while (capacity < 2 * paths) capacity *= 2;
  if (capacity > index_.size()) rehash(capacity);
}

std::size_t PathRateController::probe(std::uint64_t key) const {
  const std::size_t mask = index_.size() - 1;
  // Multiplicative (Fibonacci) hashing: FNV-1a's low bits depend only on
  // the edge ids' low bits, while the product's middle bits mix them all.
  std::size_t i =
      static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
  const std::uint32_t tag = tag_of(key);
  for (;; i = (i + 1) & mask) {
    const IndexEntry& entry = index_[i];
    if (entry.slot == kEmpty) return i;
    if (entry.tag == tag && states_[entry.slot].key == key) return i;
  }
}

void PathRateController::rehash(std::size_t capacity) {
  index_.assign(capacity, IndexEntry{});
  for (std::uint32_t s = 0; s < states_.size(); ++s)
    index_[probe(states_[s].key)] = {tag_of(states_[s].key), s};
}

PathRateController::PathState& PathRateController::state(const Path& path,
                                                         TimePoint now) {
  const std::uint64_t key = path_hash(path);
  if (index_.empty()) rehash(kMinIndex);
  std::size_t i = probe(key);
  if (index_[i].slot != kEmpty) return states_[index_[i].slot];
  // Load factor <= 1/2 keeps probe runs short.
  if (2 * (states_.size() + 1) > index_.size()) {
    rehash(2 * index_.size());
    i = probe(key);
  }
  SPIDER_ASSERT(states_.size() < kEmpty);
  index_[i] = {tag_of(key), static_cast<std::uint32_t>(states_.size())};
  return states_.emplace_back(config_, key, path.length(), now);
}

Amount PathRateController::admissible(const Path& path, TimePoint now) {
  PathState& s = state(path, now);
  Amount window = s.window.window();
  Amount headroom = window - s.inflight;
  if (headroom <= 0) return 0;
  Amount pace =
      s.pacer.allowance(window, s.rtt.rtt(config_.initial_rtt), now);
  return std::min(headroom, pace);
}

void PathRateController::on_send(const Path& path, Amount amount,
                                 TimePoint now) {
  PathState& s = state(path, now);
  s.inflight += amount;
  total_inflight_ += amount;
  s.pacer.spend(amount);
}

void PathRateController::on_ack(const Path& path, Amount amount, bool marked,
                                Duration rtt, TimePoint now) {
  PathState& s = state(path, now);
  SPIDER_ASSERT(s.inflight >= amount && total_inflight_ >= amount);
  s.inflight -= amount;
  total_inflight_ -= amount;
  s.delivered += amount;
  s.acks += 1;
  s.rtt.update(rtt);
  if (marked) {
    s.marked_acks += 1;
    s.window.on_negative(amount, config_);
  } else {
    s.window.on_positive(amount, config_);
  }
}

void PathRateController::on_loss(const Path& path, Amount amount,
                                 TimePoint now) {
  PathState& s = state(path, now);
  SPIDER_ASSERT(s.inflight >= amount && total_inflight_ >= amount);
  s.inflight -= amount;
  total_inflight_ -= amount;
  s.losses += 1;
  s.window.on_negative(amount, config_);
}

std::vector<PathRateController::PathView> PathRateController::snapshot()
    const {
  std::vector<PathView> out;
  out.reserve(states_.size());
  for (const PathState& s : states_) {
    PathView v;
    v.key = s.key;
    v.hops = s.hops;
    v.window = s.window.window();
    v.inflight = s.inflight;
    double rtt_s = to_seconds(s.rtt.rtt(config_.initial_rtt));
    v.rate_xrp_per_s = rtt_s > 0.0 ? to_xrp(v.window) / rtt_s : 0.0;
    v.delivered = s.delivered;
    v.acks = s.acks;
    v.marked_acks = s.marked_acks;
    v.losses = s.losses;
    out.push_back(v);
  }
  std::sort(out.begin(), out.end(),
            [](const PathView& a, const PathView& b) { return a.key < b.key; });
  return out;
}

Amount PathRateController::window_for(const Path& path) const {
  if (index_.empty()) return config_.initial_window;
  const IndexEntry& entry = index_[probe(path_hash(path))];
  return entry.slot == kEmpty ? config_.initial_window
                              : states_[entry.slot].window.window();
}

}  // namespace spider
