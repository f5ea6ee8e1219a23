// Experiment metrics (§6.1): success ratio — payments fully completed over
// payments attempted; success volume — value delivered over value attempted
// (partial deliveries of non-atomic payments count what they delivered,
// which is exactly what the sender's keys released).
#pragma once

#include <cstdint>

#include "util/amount.hpp"
#include "util/stats.hpp"

namespace spider {

struct SimMetrics {
  std::int64_t attempted_count = 0;
  Amount attempted_volume = 0;

  std::int64_t completed_count = 0;
  Amount completed_volume = 0;  // Σ totals of fully completed payments
  Amount delivered_volume = 0;  // Σ delivered across all payments

  std::int64_t expired_count = 0;   // non-atomic, deadline hit
  std::int64_t rejected_count = 0;  // atomic failure or admission refusal
  std::int64_t admission_refused = 0;  // of rejected: refused at admission

  std::int64_t chunks_sent = 0;   // path-level transfers locked
  std::int64_t retry_rounds = 0;  // pending-queue service rounds

  // Engine-rate counters (bench_throughput denominators): total events the
  // queue popped during the run, and total router plan() invocations.
  std::uint64_t events_processed = 0;
  std::int64_t plans_requested = 0;

  // Router-queue mode (§4.2): in-network queueing behaviour.
  std::int64_t chunks_queued = 0;    // units that waited inside a channel
  std::int64_t queue_timeouts = 0;   // units rolled back after waiting
  // Waits, in µs, of units served out of a channel queue. A timed-out
  // unit waited exactly queue_timeout and is counted by queue_timeouts;
  // units failed while queued are counted by chunks_churned/chunks_faulted.
  LogHistogram served_queue_wait_us;

  // Transport layer (src/transport/): units whose ack carried the one-bit
  // delay mark (dequeued past the marking threshold), and pace-tick rounds
  // served. Both zero with the transport off.
  std::int64_t chunks_marked = 0;
  std::int64_t pace_rounds = 0;

  // On-chain rebalancing extension (§5.2.3) plus explicit topology deposit
  // events: total deposited.
  Amount onchain_deposited = 0;

  // Dynamic topology (channel churn): scheduled changes applied, channels
  // opened/closed, chunks failed by a close (funds refunded), and escrow
  // swept back on-chain by closes. All zero in a static run.
  std::int64_t topology_changes = 0;
  std::int64_t channels_opened = 0;
  std::int64_t channels_closed = 0;
  std::int64_t chunks_churned = 0;
  Amount escrow_returned = 0;

  // Fault injection: scheduled FaultEvents applied, messages dropped by
  // lossy channels, and chunks refunded because a fault (crash, stall,
  // drop, grief hold) killed them. All zero in a fault-free run.
  std::int64_t faults_injected = 0;
  std::int64_t messages_dropped = 0;
  std::int64_t chunks_faulted = 0;

  // Sender-side resilience: re-attempts after the first (non-atomic polls
  // and atomic re-plans alike), payments that expired at their deadline
  // with value still undelivered, and completions that needed more than
  // one attempt.
  std::int64_t retries = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t completion_after_retry = 0;

  // Failure counts split by cause. Every expired/rejected payment (minus
  // admission refusals, which keep admission_refused) lands in exactly one
  // bucket, by precedence: a fault killed one of its chunks -> failed_fault;
  // churn did -> failed_churn; it never locked a single chunk ->
  // failed_no_path; otherwise it simply ran out of time -> failed_timeout.
  // Invariant: failed_timeout + failed_churn + failed_fault +
  // failed_no_path + admission_refused == expired_count + rejected_count.
  std::int64_t failed_timeout = 0;
  std::int64_t failed_churn = 0;
  std::int64_t failed_fault = 0;
  std::int64_t failed_no_path = 0;

  // Routing-fee accounting (per-intermediary, on settled units).
  Amount fees_accrued = 0;

  RunningStats completion_latency_s;  // arrival -> full completion
  RunningStats chunk_hops;            // path length of sent chunks

  double final_mean_imbalance_xrp = 0.0;
  double sim_duration_s = 0.0;

  /// Memberwise equality over every counter and derived double — the
  /// "byte-identical metrics" predicate the replay/session identity gates
  /// compare with. Defaulted so a new field can never be forgotten.
  [[nodiscard]] bool operator==(const SimMetrics&) const = default;

  [[nodiscard]] double success_ratio() const {
    return attempted_count == 0
               ? 0.0
               : static_cast<double>(completed_count) /
                     static_cast<double>(attempted_count);
  }
  [[nodiscard]] double success_volume() const {
    return attempted_volume == 0
               ? 0.0
               : static_cast<double>(delivered_volume) /
                     static_cast<double>(attempted_volume);
  }
  /// Completion ratio among payments that passed admission control — the
  /// quantity a §7 admission policy optimizes (equals success_ratio() when
  /// admission control is off).
  [[nodiscard]] double admitted_success_ratio() const {
    const std::int64_t admitted = attempted_count - admission_refused;
    return admitted <= 0 ? 0.0
                         : static_cast<double>(completed_count) /
                               static_cast<double>(admitted);
  }
  /// p99 of the served channel-queue waits, seconds (0 when no unit was
  /// served from a queue).
  [[nodiscard]] double served_queue_delay_p99_s() const {
    return served_queue_wait_us.quantile(0.99) / 1e6;
  }
  /// Delivered value per second of simulated time (XRP/s).
  [[nodiscard]] double throughput_xrp_per_s() const {
    return sim_duration_s <= 0 ? 0.0
                               : to_xrp(delivered_volume) / sim_duration_s;
  }
  /// Routing cost: XRP of fees accrued per 1000 XRP delivered.
  [[nodiscard]] double fee_per_kilo_delivered() const {
    return delivered_volume <= 0
               ? 0.0
               : to_xrp(fees_accrued) * 1000.0 / to_xrp(delivered_volume);
  }
};

}  // namespace spider
