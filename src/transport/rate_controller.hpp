// Transport layer, part 2 of 2: per-path sender state (§5.2.2).
//
// The paper's sender runs a DCTCP-style windowed controller per path: every
// acknowledged unit of value grows the path's window additively; every unit
// that comes back carrying the router queues' one-bit delay mark (or is
// lost) shrinks it multiplicatively. The window caps in-flight value on the
// path, and a pacer meters releases at window/RTT so chunks leave smoothly
// instead of bursting a whole window at each poll round.
//
// The module mirrors the estimator / pacer / controller split of WebRTC's
// congestion stack (modules/congestion_controller feeds an estimate to
// modules/pacing, which meters the send path): RttEstimator smooths ack
// round-trips, TokenPacer turns (window, rtt) into a release allowance, and
// AimdController owns the window update rule. PathRateController composes
// the three per path, keyed by path_hash (graph/graph.hpp).
//
// The per-path states are dense: one vector in first-seen order behind a
// FlatIndex (util/flat_index.hpp) from key to slot. The key is the path's
// stamped Path::key — stored candidate paths and the engine's chunk copies
// carry it — so a lookup on the plan and ack hot paths is one multiply and
// a short probe, with no edge walk, no node allocation and no regrowth
// once reserve() has sized the table.
//
// Everything here is integer arithmetic over the engine's microsecond clock
// and milli-XRP amounts — no floating-point state, no randomness — so the
// controller is bit-deterministic and safe inside the streamed==batch
// identity contract.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "transport/router_queue.hpp"
#include "util/amount.hpp"
#include "util/flat_index.hpp"
#include "util/time.hpp"

namespace spider {

/// Smoothed round-trip estimate from acks (classic 7/8 EWMA).
class RttEstimator {
 public:
  void update(Duration sample) {
    if (sample <= 0) return;
    srtt_ = srtt_ == 0 ? sample : (7 * srtt_ + sample) / 8;
  }
  /// Smoothed RTT, or `fallback` before the first ack.
  [[nodiscard]] Duration rtt(Duration fallback) const {
    return srtt_ > 0 ? srtt_ : fallback;
  }

 private:
  Duration srtt_ = 0;
};

/// Token-bucket pacer: credit accrues at window/rtt and is capped at one
/// window (a path idle for an RTT may burst at most its window).
class TokenPacer {
 public:
  explicit TokenPacer(Amount window, TimePoint now)
      : credit_(window), updated_(now) {}

  /// Value the path may release right now.
  [[nodiscard]] Amount allowance(Amount window, Duration rtt, TimePoint now) {
    refill(window, rtt, now);
    return credit_;
  }
  void spend(Amount amount) {
    credit_ -= amount < credit_ ? amount : credit_;
  }

 private:
  void refill(Amount window, Duration rtt, TimePoint now) {
    Duration elapsed = now - updated_;
    updated_ = now;
    if (elapsed <= 0 || rtt <= 0) return;
    // A full RTT of idleness refills the whole window, so clamping elapsed
    // to rtt both caps the burst and keeps window * elapsed within int64.
    if (elapsed >= rtt) {
      credit_ = window;
      return;
    }
    credit_ += window * elapsed / rtt;
    if (credit_ > window) credit_ = window;
  }

  Amount credit_ = 0;
  TimePoint updated_ = 0;
};

/// The AIMD window rule, in value units: an unmarked ack of value `a` grows
/// the window by step·a/w (≈ one additive step per fully-acked window); a
/// marked or lost `a` shrinks it by β·a (a fully-marked window's worth of
/// feedback scales w by 1-β).
class AimdController {
 public:
  explicit AimdController(Amount initial) : window_(initial) {}

  void on_positive(Amount acked, const TransportConfig& config) {
    Amount grow = config.additive_step * acked / (window_ > 0 ? window_ : 1);
    window_ += grow > 0 ? grow : 1;
  }
  void on_negative(Amount acked, const TransportConfig& config) {
    // Exact integer multiplicative decrease; acked is a chunk-sized value,
    // so acked * beta_ppm stays far inside int64.
    window_ -= acked * config.beta_ppm / 1'000'000;
    if (window_ < config.min_window) window_ = config.min_window;
  }

  [[nodiscard]] Amount window() const { return window_; }

 private:
  Amount window_ = 0;
};

/// Per-path composition of the three pieces, plus in-flight accounting.
/// Routers consult admissible() while planning, report sends, and feed acks
/// and losses back; the simulator drives those hooks (Router::on_transport_*)
/// in event order, so state here follows the engine's
/// deterministic schedule.
class PathRateController {
 public:
  explicit PathRateController(const TransportConfig& config)
      : config_(config) {}

  /// Sizes the state table for `paths` distinct paths (the router passes
  /// the shared store's path_count()), so a run that sees no more than
  /// that never reallocates or regrows it. The table still grows past it.
  void reserve(std::size_t paths);

  /// New value the path may carry now: min(window − inflight, pacer credit).
  [[nodiscard]] Amount admissible(const Path& path, TimePoint now);

  void on_send(const Path& path, Amount amount, TimePoint now);
  void on_ack(const Path& path, Amount amount, bool marked, Duration rtt,
              TimePoint now);
  void on_loss(const Path& path, Amount amount, TimePoint now);

  /// Introspection for tests and the live dashboard.
  struct PathView {
    std::uint64_t key = 0;  // path_hash of the path
    std::size_t hops = 0;
    Amount window = 0;
    Amount inflight = 0;
    double rate_xrp_per_s = 0.0;  // window / srtt
    Amount delivered = 0;
    std::int64_t acks = 0;
    std::int64_t marked_acks = 0;
    std::int64_t losses = 0;
  };
  /// Every path ever seen, sorted by key (deterministic order).
  [[nodiscard]] std::vector<PathView> snapshot() const;
  /// Current window of `path` (the initial window if never seen).
  [[nodiscard]] Amount window_for(const Path& path) const;
  [[nodiscard]] Amount total_inflight() const { return total_inflight_; }
  [[nodiscard]] std::size_t num_paths() const { return states_.size(); }
  [[nodiscard]] const TransportConfig& config() const { return config_; }

 private:
  struct PathState {
    PathState(const TransportConfig& config, std::uint64_t path_key,
              std::size_t path_hops, TimePoint now)
        : key(path_key),
          window(config.initial_window),
          pacer(config.initial_window, now),
          hops(path_hops) {}
    std::uint64_t key;
    AimdController window;
    TokenPacer pacer;
    RttEstimator rtt;
    Amount inflight = 0;
    Amount delivered = 0;
    std::int64_t acks = 0;
    std::int64_t marked_acks = 0;
    std::int64_t losses = 0;
    std::size_t hops = 0;
  };

  PathState& state(const Path& path, TimePoint now);

  TransportConfig config_;
  std::vector<PathState> states_;  // first-seen order
  FlatIndex index_;                // path key -> states_ slot
  Amount total_inflight_ = 0;
};

}  // namespace spider
