// Payment state tracked by the simulator.
#pragma once

#include <cstdint>
#include <limits>

#include "graph/graph.hpp"
#include "util/amount.hpp"
#include "util/time.hpp"

namespace spider {

using PaymentId = std::int64_t;

enum class PaymentStatus {
  kPending,    // partially delivered / queued for further attempts
  kCompleted,  // fully delivered
  kExpired,    // deadline hit with funds still outstanding (non-atomic)
  kRejected,   // atomic payment that could not be routed in full
};

struct Payment {
  PaymentId id = -1;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Amount total = 0;
  Amount delivered = 0;  // settled end-to-end
  Amount inflight = 0;   // locked, awaiting settlement
  TimePoint arrival = 0;
  TimePoint deadline = std::numeric_limits<TimePoint>::max();
  bool atomic = false;
  PaymentStatus status = PaymentStatus::kPending;
  int attempts = 0;         // plan() invocations
  TimePoint completed_at = -1;

  // Sender-side resilience state (all inert unless the matching SimConfig
  // knob or a fault schedule is active).
  TimePoint next_retry_at = 0;  // exponential-backoff gate for re-attempts
  bool refused = false;         // failed at admission (kept out of the
                                // per-cause failure split)
  bool ever_locked = false;     // at least one chunk ever committed funds
  bool fault_hit = false;       // a fault killed one of its chunks/paths
  bool churn_hit = false;       // a channel close killed one of its chunks
  // Engine bookkeeping: the payment has an entry in the simulator's pending
  // queue (which may outlive its kPending status until the next poll).
  bool in_pending = false;

  /// Funds not yet delivered nor inflight — what the next attempt may send.
  [[nodiscard]] Amount remaining() const {
    return total - delivered - inflight;
  }
};

}  // namespace spider
