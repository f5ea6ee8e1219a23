#include "transport/rate_controller.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spider {

void PathRateController::reserve(std::size_t paths) {
  states_.reserve(paths);
  index_.reserve(paths);
}

PathRateController::PathState& PathRateController::state(const Path& path,
                                                         TimePoint now) {
  const std::uint64_t key = path_hash(path);
  const std::uint32_t slot = index_.find_or_insert(
      key, [this](std::uint32_t s) { return states_[s].key; });
  if (slot < states_.size()) return states_[slot];
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
  const std::uint32_t slot = index_.find(
      path_hash(path), [this](std::uint32_t s) { return states_[s].key; });
  return slot == FlatIndex::kAbsent ? config_.initial_window
                                    : states_[slot].window.window();
}

}  // namespace spider
