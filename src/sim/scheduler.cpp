#include "sim/scheduler.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spider {

namespace {

std::int64_t order_key(SchedulerPolicy policy, const Payment& payment) {
  switch (policy) {
    case SchedulerPolicy::kSrpt: return payment.remaining();
    case SchedulerPolicy::kFifo: return payment.arrival;
    case SchedulerPolicy::kLifo: return -payment.arrival;
    case SchedulerPolicy::kEdf: return payment.deadline;
  }
  return 0;
}

}  // namespace

std::string scheduler_policy_name(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFifo: return "FIFO";
    case SchedulerPolicy::kLifo: return "LIFO";
    case SchedulerPolicy::kSrpt: return "SRPT";
    case SchedulerPolicy::kEdf: return "EDF";
  }
  return "?";
}

void order_pending(SchedulerPolicy policy,
                   const std::vector<Payment>& payments,
                   std::vector<PendingEntry>& pending,
                   std::vector<PendingEntry>& scratch, std::size_t base) {
  // The key pass below checks every entry's index once; the comparator
  // then reads through the base unchecked.
  const auto less = [&](const PendingEntry& a, const PendingEntry& b) {
    if (a.key != b.key) return a.key < b.key;
    const Payment& pa = payments[a.index - base];
    const Payment& pb = payments[b.index - base];
    if (pa.arrival != pb.arrival) return pa.arrival < pb.arrival;
    return pa.id < pb.id;
  };
  // Unchanged entries compact to the front, still sorted; the rest move to
  // `scratch` with their fresh keys.
  scratch.clear();
  std::size_t kept = 0;
  for (std::size_t read = 0; read < pending.size(); ++read) {
    const PendingEntry entry = pending[read];
    SPIDER_ASSERT_MSG(entry.index >= base &&
                          entry.index - base < payments.size(),
                      "pending entry outside the payment window");
    const std::int64_t key =
        order_key(policy, payments[entry.index - base]);
    if (entry.key == key && entry.key != kNeverOrdered)
      pending[kept++] = entry;
    else
      scratch.push_back(PendingEntry{entry.index, key});
  }
  std::sort(scratch.begin(), scratch.end(), less);
  // Merge the two sorted runs from the back, in place.
  std::size_t out = kept + scratch.size();
  std::size_t left = kept;
  std::size_t right = scratch.size();
  pending.resize(out);
  while (right > 0) {
    if (left > 0 && less(scratch[right - 1], pending[left - 1]))
      pending[--out] = pending[--left];
    else
      pending[--out] = scratch[--right];
  }
}

std::vector<std::size_t> schedule_order(
    SchedulerPolicy policy, const std::vector<Payment>& payments,
    const std::vector<std::size_t>& pending) {
  std::vector<PendingEntry> entries;
  entries.reserve(pending.size());
  for (const std::size_t index : pending)
    entries.push_back(PendingEntry{index, kNeverOrdered});
  std::vector<PendingEntry> scratch;
  order_pending(policy, payments, entries, scratch);
  std::vector<std::size_t> order;
  order.reserve(entries.size());
  for (const PendingEntry& entry : entries) order.push_back(entry.index);
  return order;
}

}  // namespace spider
