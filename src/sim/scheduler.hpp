// Pending-payment scheduling policies.
//
// §6.1: "All non-atomic payments are scheduled in order of increasing
// incomplete payment amount, i.e. according to the shortest remaining
// processing time (SRPT) policy." FIFO/LIFO/EDF are included for the
// scheduling ablation (bench_scheduling_ablation), mirroring the service-
// class discussion in §4.2.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/payment.hpp"

namespace spider {

enum class SchedulerPolicy { kFifo, kLifo, kSrpt, kEdf };

[[nodiscard]] std::string scheduler_policy_name(SchedulerPolicy policy);

/// Key of a pending entry that has not been ordered yet.
inline constexpr std::int64_t kNeverOrdered =
    std::numeric_limits<std::int64_t>::min();

/// One slot of the simulator's pending queue: a payment index and the key
/// it was last ordered by.
struct PendingEntry {
  std::size_t index = 0;
  std::int64_t key = kNeverOrdered;
};

/// Orders `pending` for the next service round, incrementally, by
/// (key, arrival, payment id), where the key is
///   SRPT — remaining amount;  FIFO — arrival;
///   LIFO — negated arrival;   EDF  — deadline.
/// That is a strict total order, so every run is deterministic.
///
/// Contract: every entry whose key is not kNeverOrdered must hold the key it
/// was given by an earlier order_pending call, and those entries must still
/// stand in the relative order that call left them in (removing entries or
/// appending new kNeverOrdered ones keeps this). Then the entries whose
/// recomputed key still equals the stored one form an already-sorted run,
/// because arrival and id never change; only the other entries are sorted
/// (in `scratch`, reused across calls) and merged into that run. Afterwards
/// `pending` holds the full (key, arrival, id) order with fresh keys — the
/// same order a from-scratch sort gives.
///
/// Entry indices are absolute: `payments[0]` holds index `base` (the
/// simulator's payment window, whose retired prefix is gone).
void order_pending(SchedulerPolicy policy,
                   const std::vector<Payment>& payments,
                   std::vector<PendingEntry>& pending,
                   std::vector<PendingEntry>& scratch, std::size_t base = 0);

/// Orders `pending` (indices into `payments`) from scratch: order_pending
/// with every entry unordered.
[[nodiscard]] std::vector<std::size_t> schedule_order(
    SchedulerPolicy policy, const std::vector<Payment>& payments,
    const std::vector<std::size_t>& pending);

}  // namespace spider
