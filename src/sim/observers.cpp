#include "sim/observers.hpp"

#include <algorithm>

#include "sim/network.hpp"
#include "transport/router_queue.hpp"

namespace spider {

void WindowedMetrics::on_payment_arrival(const Payment& payment, TimePoint) {
  current_.attempted += 1;
  current_.attempted_volume += payment.total;
}

namespace {

/// The slot of `series` for the window `payment` arrived in, grown on
/// demand. Before the first complete roll the window length is unknown and
/// every payment arrived in window 0.
template <typename T>
T& by_arrival(std::vector<T>& series, const Payment& payment,
              Duration length) {
  const auto arrived_in =
      static_cast<std::size_t>(length > 0 ? payment.arrival / length : 0);
  if (arrived_in >= series.size()) series.resize(arrived_in + 1, 0);
  return series[arrived_in];
}

}  // namespace

void WindowedMetrics::on_payment_complete(const Payment& payment, TimePoint) {
  current_.completed += 1;
  current_.completed_volume += payment.total;
  by_arrival(completed_by_arrival_, payment, length_) += 1;
}

void WindowedMetrics::on_payment_failed(const Payment&, TimePoint) {
  current_.failed += 1;
}

void WindowedMetrics::on_payment_retired(const Payment& payment, TimePoint) {
  by_arrival(delivered_by_arrival_, payment, length_) += payment.delivered;
}

void WindowedMetrics::on_chunk_locked(const Path&, Amount, TimePoint) {
  current_.chunks_locked += 1;
}

void WindowedMetrics::on_chunk_settled(const Path&, Amount amount,
                                       TimePoint) {
  current_.delivered_volume += amount;
}

void WindowedMetrics::on_window_roll(const WindowInfo& window,
                                     const Network&) {
  WindowStats stats = current_;
  stats.index = window.index;
  stats.start_s = to_seconds(window.start);
  stats.end_s = to_seconds(window.end);
  stats.partial = window.partial;
  if (window.partial) {
    // Drain-time snapshot: the window stays open (the session may resume),
    // so the accumulator is NOT reset and a later complete roll of this
    // index supersedes the tail.
    tail_ = stats;
    has_tail_ = true;
    return;
  }
  if (window.index == 0) length_ = window.end - window.start;
  windows_.push_back(stats);
  current_ = WindowStats{};
  has_tail_ = false;
}

WindowedMetrics::SteadyState WindowedMetrics::steady_state() const {
  SteadyState steady;
  for (const WindowStats& w : windows_) {
    if (seconds(w.start_s) < warmup_) continue;
    steady.windows += 1;
    steady.attempted += w.attempted;
    if (w.index < completed_by_arrival_.size())
      steady.completed += completed_by_arrival_[w.index];
    steady.attempted_volume += w.attempted_volume;
    if (w.index < delivered_by_arrival_.size())
      steady.delivered_volume += delivered_by_arrival_[w.index];
    if (w.attempted > 0)
      steady.per_window_success_ratio.add(w.success_ratio());
  }
  if (steady.attempted > 0)
    steady.success_ratio = static_cast<double>(steady.completed) /
                           static_cast<double>(steady.attempted);
  if (steady.attempted_volume > 0)
    steady.success_volume = static_cast<double>(steady.delivered_volume) /
                            static_cast<double>(steady.attempted_volume);
  return steady;
}

void ChannelImbalanceProbe::on_window_roll(const WindowInfo& window,
                                           const Network& network) {
  series_.push_back(Sample{to_seconds(window.end),
                           network.mean_imbalance_xrp()});

  const auto num_channels = network.num_channels();
  scratch_.clear();
  scratch_.reserve(num_channels);
  for (std::size_t e = 0; e < num_channels; ++e) {
    const Channel& ch = network.channel(static_cast<EdgeId>(e));
    scratch_.push_back(ChannelSample{ch.id(), ch.endpoint(0), ch.endpoint(1),
                                     to_xrp(ch.imbalance())});
  }
  const auto k = std::min<std::size_t>(
      scratch_.size(), static_cast<std::size_t>(std::max(top_k_, 0)));
  std::partial_sort(scratch_.begin(),
                    scratch_.begin() + static_cast<std::ptrdiff_t>(k),
                    scratch_.end(),
                    [](const ChannelSample& x, const ChannelSample& y) {
                      // Descending imbalance; edge id breaks ties so the
                      // top-k list is deterministic.
                      if (x.imbalance_xrp != y.imbalance_xrp)
                        return x.imbalance_xrp > y.imbalance_xrp;
                      return x.edge < y.edge;
                    });
  top_.assign(scratch_.begin(),
              scratch_.begin() + static_cast<std::ptrdiff_t>(k));
}

void QueueDepthProbe::on_poll_round(std::size_t pending, TimePoint now) {
  depth_.add(static_cast<double>(pending));
  series_.push_back(Sample{to_seconds(now), pending});
}

void QueueDepthProbe::on_queue_depths(const RouterQueueBank& queues,
                                      TimePoint now) {
  const double value_xrp = to_xrp(queues.total_value());
  const std::uint64_t chunks = queues.total_chunks();
  channel_value_xrp_.add(value_xrp);
  channel_chunks_.add(static_cast<double>(chunks));
  channel_series_.push_back(ChannelSample{to_seconds(now), value_xrp, chunks});

  high_water_.clear();
  for (const RouterQueueBank::ChannelHighWater& hw : queues.high_water())
    high_water_.push_back(
        HighWater{hw.edge, hw.side, to_xrp(hw.value), hw.chunks});
}

ConservationAuditor::ConservationAuditor(const Network& network)
    : network_(&network),
      baseline_(network.total_funds() + network.escrow_returned() -
                network.onchain_inflow()) {}

void ConservationAuditor::audit(TimePoint now) {
  checks_ += 1;
  const Amount held = network_->total_funds() + network_->escrow_returned() -
                      network_->onchain_inflow();
  if (held != baseline_) {
    violations_ += 1;
    SPIDER_ASSERT_MSG(held == baseline_,
                      "conservation violated at t=" << now << "us: "
                          << held << " != baseline " << baseline_
                          << " (drift " << (held - baseline_) << " millis)");
  }
}

void ConservationAuditor::on_poll_round(std::size_t, TimePoint now) {
  audit(now);
}

void ConservationAuditor::on_topology_change(const TopologyChange&,
                                             const Network&, TimePoint now) {
  audit(now);
}

void ConservationAuditor::on_fault(const FaultEvent&, const Network&,
                                   TimePoint now) {
  audit(now);
}

void ConservationAuditor::on_window_roll(const WindowInfo& window,
                                         const Network&) {
  audit(window.end);
}

}  // namespace spider
