// Built-in observers for the session API (sim/observer.hpp).
//
// WindowedMetrics is the paper's actual measurement: §6.1 evaluates success
// ratio/volume in *steady state*, over a window after the network has
// warmed up, and Figs. 11–12 are per-window time series. The lifetime
// aggregates in SimMetrics conflate ramp-up with steady state;
// WindowedMetrics splits the run into fixed windows (anchored at t = 0,
// length set by the session's metrics window) and reports both the series
// and a warmup-excluded steady-state aggregate.
//
// ChannelImbalanceProbe and QueueDepthProbe are the two §5/§4 state probes
// dashboards want: how skewed channels are drifting, and how deep the
// pending queue runs between polls.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/observer.hpp"
#include "util/amount.hpp"
#include "util/stats.hpp"

namespace spider {

/// Per-window counters. Attribution is by event time: a payment counts as
/// attempted in the window it ARRIVES in and as completed/failed in the
/// window it FINISHES in, so a window's ratios compare arrival and
/// completion *rates* over the same span — the steady-state reading; in
/// steady state the two rates coincide.
struct WindowStats {
  std::size_t index = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  bool partial = false;  // trailing drain-time snapshot (shorter window)

  std::int64_t attempted = 0;
  Amount attempted_volume = 0;
  std::int64_t completed = 0;
  Amount completed_volume = 0;
  std::int64_t failed = 0;  // expired + rejected in the window
  Amount delivered_volume = 0;
  std::int64_t chunks_locked = 0;

  /// Payments completed per payment arrived within the window (0 when the
  /// window saw no arrivals).
  [[nodiscard]] double success_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(completed) /
                                static_cast<double>(attempted);
  }
  /// Value delivered per value requested within the window.
  [[nodiscard]] double success_volume() const {
    return attempted_volume == 0
               ? 0.0
               : static_cast<double>(delivered_volume) /
                     static_cast<double>(attempted_volume);
  }
};

/// Rolls SimMetrics-style counters per metrics window and aggregates the
/// post-warmup windows into steady-state statistics. Attach to a session
/// whose metrics window is set; without a window no hooks fire beyond the
/// accumulation of the (never-rolled) first window.
class WindowedMetrics final : public SimObserver {
 public:
  /// Complete windows that START before `warmup` are excluded from
  /// steady_state() — the paper's warmup exclusion. 0 keeps every window.
  explicit WindowedMetrics(Duration warmup = 0) : warmup_(warmup) {}

  /// Complete windows, in order. The open trailing window is in tail().
  [[nodiscard]] const std::vector<WindowStats>& windows() const {
    return windows_;
  }
  /// Drain-time snapshot of the unfinished trailing window; valid while
  /// has_tail(). Superseded (and re-emitted) if the session resumes.
  [[nodiscard]] const WindowStats& tail() const { return tail_; }
  [[nodiscard]] bool has_tail() const { return has_tail_; }

  struct SteadyState {
    int windows = 0;  // complete windows past warmup
    std::int64_t attempted = 0;  // payments that arrived in those windows
    /// Of those payments, the ones completed so far, whenever they
    /// completed. A payment that arrived during warmup never counts, so
    /// the aggregate success_ratio lies in [0, 1].
    std::int64_t completed = 0;
    Amount attempted_volume = 0;
    /// Of the same cohort, the value each payment finally delivered,
    /// counted when it retires (on_payment_retired), so the aggregate
    /// success_volume lies in [0, 1]. Unlike the per-window
    /// WindowStats::delivered_volume, this is by arrival window, not by
    /// settle time.
    Amount delivered_volume = 0;
    /// Aggregate ratios over the steady span (0 when it saw no arrivals).
    double success_ratio = 0.0;
    double success_volume = 0.0;
    /// Dispersion of per-window success ratios (windows with arrivals).
    RunningStats per_window_success_ratio;
  };
  /// Aggregates the complete windows with start_s * 1e6 >= warmup (the
  /// steady span). The partial tail is never included (its span is
  /// shorter).
  [[nodiscard]] SteadyState steady_state() const;

  void on_payment_arrival(const Payment& payment, TimePoint now) override;
  void on_payment_complete(const Payment& payment, TimePoint now) override;
  void on_payment_failed(const Payment& payment, TimePoint now) override;
  void on_payment_retired(const Payment& payment, TimePoint now) override;
  void on_chunk_locked(const Path& path, Amount amount,
                       TimePoint now) override;
  void on_chunk_settled(const Path& path, Amount amount,
                        TimePoint now) override;
  void on_window_roll(const WindowInfo& window,
                      const Network& network) override;

 private:
  Duration warmup_;
  Duration length_ = 0;  // window length, known from the first complete roll
  // Completions indexed by the window their payment ARRIVED in (before the
  // first complete roll, every payment arrived in window 0): the steady
  // aggregate's numerator.
  std::vector<std::int64_t> completed_by_arrival_;
  // Final delivered value indexed the same way (by arrival window).
  std::vector<Amount> delivered_by_arrival_;
  WindowStats current_;  // open-window accumulator (boundaries unset)
  WindowStats tail_;
  bool has_tail_ = false;
  std::vector<WindowStats> windows_;
};

/// Samples channel imbalance at every window roll: a mean-imbalance time
/// series plus the latest top-k most imbalanced channels (what a live
/// dashboard shows and what §5.2.3 rebalancing would target first).
class ChannelImbalanceProbe final : public SimObserver {
 public:
  struct ChannelSample {
    EdgeId edge = kInvalidEdge;
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;
    double imbalance_xrp = 0.0;
  };
  struct Sample {
    double t_s = 0.0;
    double mean_imbalance_xrp = 0.0;
  };

  explicit ChannelImbalanceProbe(int top_k = 5) : top_k_(top_k) {}

  /// Mean |balance(a) - balance(b)| per window roll, in roll order.
  [[nodiscard]] const std::vector<Sample>& series() const { return series_; }
  /// The k most imbalanced channels as of the latest roll, descending.
  [[nodiscard]] const std::vector<ChannelSample>& top_imbalanced() const {
    return top_;
  }

  void on_window_roll(const WindowInfo& window,
                      const Network& network) override;

 private:
  int top_k_;
  std::vector<Sample> series_;
  std::vector<ChannelSample> top_;
  std::vector<ChannelSample> scratch_;  // reused per roll
};

/// Queue-dynamics probe. Two data sources, sampled at every poll round:
///
///  - the sender-side pending-payment count (on_poll_round), kept for
///    backwards compatibility as depth()/series();
///  - the REAL per-channel router queues (on_queue_depths, router-queue
///    mode only): aggregate depth in value AND in chunks, plus the
///    per-channel lifetime high-water marks straight from the
///    RouterQueueBank — the queue-dynamics-over-time view that
///    throughput-optimal routing work measures.
///
/// In source-queue mode the bank hook never fires and the channel series
/// stays empty; the pending series still works.
class QueueDepthProbe final : public SimObserver {
 public:
  struct Sample {
    double t_s = 0.0;
    std::size_t depth = 0;
  };
  /// Aggregate in-channel queue occupancy at one poll round.
  struct ChannelSample {
    double t_s = 0.0;
    double value_xrp = 0.0;      // Σ queued value across all channel sides
    std::uint64_t chunks = 0;    // Σ queued units across all channel sides
  };
  struct HighWater {
    std::size_t edge = 0;
    int side = 0;
    double value_xrp = 0.0;      // peak queued value on this (edge, side)
    std::uint32_t chunks = 0;    // chunk count at that peak
  };

  /// Pending-payment counts per poll round (sender-side queue).
  [[nodiscard]] const RunningStats& depth() const { return depth_; }
  [[nodiscard]] const std::vector<Sample>& series() const { return series_; }

  /// Aggregate router-queue value per poll round, XRP (router-queue mode).
  [[nodiscard]] const RunningStats& channel_value_xrp() const {
    return channel_value_xrp_;
  }
  /// Aggregate router-queue occupancy in chunks per poll round.
  [[nodiscard]] const RunningStats& channel_chunks() const {
    return channel_chunks_;
  }
  /// (t, value, chunks) series of the aggregate router-queue occupancy.
  [[nodiscard]] const std::vector<ChannelSample>& channel_series() const {
    return channel_series_;
  }
  /// Per-(edge, side) lifetime high-water marks as of the latest sample,
  /// (edge, side)-sorted; only sides that ever queued a unit appear.
  [[nodiscard]] const std::vector<HighWater>& high_water() const {
    return high_water_;
  }

  void on_poll_round(std::size_t pending, TimePoint now) override;
  void on_queue_depths(const RouterQueueBank& queues, TimePoint now) override;

 private:
  RunningStats depth_;
  std::vector<Sample> series_;
  RunningStats channel_value_xrp_;
  RunningStats channel_chunks_;
  std::vector<ChannelSample> channel_series_;
  std::vector<HighWater> high_water_;
};

/// Asserts escrow conservation throughout a run — the financial safety net
/// under fault injection. The conserved quantity is
///
///     total_funds() + escrow_returned() - onchain_inflow()
///
/// a constant for a network's lifetime: locks, settles, refunds, and
/// fault/churn aborts move value between channel sides but never create or
/// destroy it, while channel opens/deposits and closes move value on/off
/// chain and are cancelled by the onchain_inflow / escrow_returned terms.
/// The baseline is captured at construction; every poll round, topology
/// change, fault application, and window roll re-audits. A violation trips
/// SPIDER_ASSERT immediately (naming the drift) and is also counted, so
/// release builds with asserts off can still inspect violations().
class ConservationAuditor final : public SimObserver {
 public:
  /// Captures the baseline from `network` as it is NOW — attach before
  /// advancing the session.
  explicit ConservationAuditor(const Network& network);

  /// How many times the invariant was checked.
  [[nodiscard]] std::int64_t checks() const { return checks_; }
  /// How many checks found drift (0 on a healthy run).
  [[nodiscard]] std::int64_t violations() const { return violations_; }

  void on_poll_round(std::size_t pending, TimePoint now) override;
  void on_topology_change(const TopologyChange& change, const Network& network,
                          TimePoint now) override;
  void on_fault(const FaultEvent& fault, const Network& network,
                TimePoint now) override;
  void on_window_roll(const WindowInfo& window,
                      const Network& network) override;

 private:
  void audit(TimePoint now);

  const Network* network_;
  Amount baseline_ = 0;
  std::int64_t checks_ = 0;
  std::int64_t violations_ = 0;
};

}  // namespace spider
