// Tests for pending-queue scheduling policies (§6.1 SRPT + ablation peers).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "sim/scheduler.hpp"

namespace spider {
namespace {

std::vector<Payment> sample_payments() {
  // id, total, delivered, arrival, deadline
  std::vector<Payment> payments(4);
  payments[0].id = 0;
  payments[0].total = xrp(100);
  payments[0].delivered = xrp(90);  // remaining 10
  payments[0].arrival = seconds(3);
  payments[0].deadline = seconds(30);

  payments[1].id = 1;
  payments[1].total = xrp(50);  // remaining 50
  payments[1].arrival = seconds(1);
  payments[1].deadline = seconds(10);

  payments[2].id = 2;
  payments[2].total = xrp(5);  // remaining 5
  payments[2].arrival = seconds(2);
  payments[2].deadline = seconds(40);

  payments[3].id = 3;
  payments[3].total = xrp(5);  // remaining 5, later arrival than 2
  payments[3].arrival = seconds(4);
  payments[3].deadline = seconds(20);
  return payments;
}

const std::vector<std::size_t> kAll{0, 1, 2, 3};

TEST(Scheduler, SrptOrdersByRemaining) {
  const auto payments = sample_payments();
  const auto order = schedule_order(SchedulerPolicy::kSrpt, payments, kAll);
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 3, 0, 1}));
}

TEST(Scheduler, SrptUsesArrivalAsTieBreak) {
  const auto payments = sample_payments();
  const auto order = schedule_order(SchedulerPolicy::kSrpt, payments, kAll);
  // Payments 2 and 3 both have 5 remaining; 2 arrived earlier.
  EXPECT_LT(std::find(order.begin(), order.end(), 2u),
            std::find(order.begin(), order.end(), 3u));
}

TEST(Scheduler, SrptAccountsForInflight) {
  auto payments = sample_payments();
  payments[1].inflight = xrp(49);  // remaining drops to 1
  const auto order = schedule_order(SchedulerPolicy::kSrpt, payments, kAll);
  EXPECT_EQ(order.front(), 1u);
}

TEST(Scheduler, FifoOrdersByArrival) {
  const auto payments = sample_payments();
  const auto order = schedule_order(SchedulerPolicy::kFifo, payments, kAll);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0, 3}));
}

TEST(Scheduler, LifoReversesFifo) {
  const auto payments = sample_payments();
  const auto order = schedule_order(SchedulerPolicy::kLifo, payments, kAll);
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 0, 2, 1}));
}

TEST(Scheduler, EdfOrdersByDeadline) {
  const auto payments = sample_payments();
  const auto order = schedule_order(SchedulerPolicy::kEdf, payments, kAll);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 3, 0, 2}));
}

TEST(Scheduler, EmptyPendingIsFine) {
  const auto payments = sample_payments();
  EXPECT_TRUE(schedule_order(SchedulerPolicy::kSrpt, payments, {}).empty());
}

TEST(Scheduler, SubsetOnlyReordersSubset) {
  const auto payments = sample_payments();
  const auto order =
      schedule_order(SchedulerPolicy::kSrpt, payments, {1, 0});
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
}

TEST(Scheduler, PolicyNames) {
  EXPECT_EQ(scheduler_policy_name(SchedulerPolicy::kSrpt), "SRPT");
  EXPECT_EQ(scheduler_policy_name(SchedulerPolicy::kFifo), "FIFO");
  EXPECT_EQ(scheduler_policy_name(SchedulerPolicy::kLifo), "LIFO");
  EXPECT_EQ(scheduler_policy_name(SchedulerPolicy::kEdf), "EDF");
}

// ---- Incremental pending order ----

// Reference order written independently of order_pending: a plain sort by
// (key, arrival, id).
std::int64_t reference_key(SchedulerPolicy policy, const Payment& p) {
  switch (policy) {
    case SchedulerPolicy::kSrpt: return p.total - p.delivered - p.inflight;
    case SchedulerPolicy::kFifo: return p.arrival;
    case SchedulerPolicy::kLifo: return -p.arrival;
    case SchedulerPolicy::kEdf: return p.deadline;
  }
  return 0;
}

std::vector<std::size_t> reference_order(SchedulerPolicy policy,
                                         const std::vector<Payment>& payments,
                                         std::vector<std::size_t> pending) {
  std::sort(pending.begin(), pending.end(),
            [&](std::size_t a, std::size_t b) {
              const Payment& pa = payments[a];
              const Payment& pb = payments[b];
              const std::int64_t ka = reference_key(policy, pa);
              const std::int64_t kb = reference_key(policy, pb);
              if (ka != kb) return ka < kb;
              if (pa.arrival != pb.arrival) return pa.arrival < pb.arrival;
              return pa.id < pb.id;
            });
  return pending;
}

std::vector<std::size_t> indices_of(const std::vector<PendingEntry>& pending) {
  std::vector<std::size_t> out;
  for (const PendingEntry& entry : pending) out.push_back(entry.index);
  return out;
}

// A pending queue driven the way the simulator drives it: between polls,
// payments arrive (append), finish (order-preserving removal), leave and
// re-enter, and lock (SRPT key down) or get refunds (SRPT key up). Small
// value ranges make key and arrival ties common.
class PendingOrderOracle : public ::testing::TestWithParam<SchedulerPolicy> {
 protected:
  std::mt19937_64 rng_{0x5eed};
  std::vector<Payment> payments_;
  std::vector<char> in_pending_;
  std::vector<PendingEntry> pending_;
  std::vector<PendingEntry> scratch_;

  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng_);
  }
  void arrive() {
    Payment p;
    p.id = static_cast<PaymentId>(payments_.size());
    p.total = uniform(1, 40);
    p.arrival = uniform(0, 30);
    p.deadline = p.arrival + uniform(1, 30);
    payments_.push_back(p);
    in_pending_.push_back(0);
    enter(payments_.size() - 1);
  }
  void enter(std::size_t index) {
    if (in_pending_[index]) return;
    in_pending_[index] = 1;
    pending_.push_back(PendingEntry{index, kNeverOrdered});
  }
  void leave_at(std::size_t position) {
    in_pending_[pending_[position].index] = 0;
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(position));
  }
  Payment& random_pending() {
    const auto position =
        static_cast<std::size_t>(uniform(0, std::ssize(pending_) - 1));
    return payments_[pending_[position].index];
  }
  void mutate_once() {
    switch (uniform(0, 5)) {
      case 0:
      case 1: arrive(); break;
      case 2:
        if (!pending_.empty())
          leave_at(static_cast<std::size_t>(
              uniform(0, std::ssize(pending_) - 1)));
        break;
      case 3:
        if (!payments_.empty())
          enter(static_cast<std::size_t>(
              uniform(0, std::ssize(payments_) - 1)));
        break;
      case 4:  // lock: remaining (the SRPT key) moves down
        if (!pending_.empty()) {
          Payment& p = random_pending();
          if (p.remaining() > 0) p.inflight += uniform(1, p.remaining());
        }
        break;
      case 5:  // refund: remaining moves up
        if (!pending_.empty()) {
          Payment& p = random_pending();
          if (p.inflight > 0) p.inflight -= uniform(1, p.inflight);
        }
        break;
    }
  }
  // Orders incrementally and checks the result against both from-scratch
  // orders over the same indices.
  void poll_and_check(int round) {
    order_pending(GetParam(), payments_, pending_, scratch_);
    const std::vector<std::size_t> order = indices_of(pending_);
    ASSERT_EQ(order, schedule_order(GetParam(), payments_, order))
        << "round " << round;
    ASSERT_EQ(order, reference_order(GetParam(), payments_, order))
        << "round " << round;
    for (const PendingEntry& entry : pending_)
      ASSERT_EQ(entry.key, reference_key(GetParam(), payments_[entry.index]));
  }
};

TEST_P(PendingOrderOracle, RandomPollsMatchFromScratchOrder) {
  for (int i = 0; i < 40; ++i) arrive();
  for (int round = 0; round < 300; ++round) {
    const auto changes = uniform(0, 12);
    for (std::int64_t c = 0; c < changes; ++c) mutate_once();
    ASSERT_NO_FATAL_FAILURE(poll_and_check(round));
  }
  EXPECT_GT(payments_.size(), 300u);
}

TEST_P(PendingOrderOracle, NothingChangedSortsNothing) {
  for (int i = 0; i < 60; ++i) arrive();
  ASSERT_NO_FATAL_FAILURE(poll_and_check(0));
  const std::vector<std::size_t> before = indices_of(pending_);
  ASSERT_NO_FATAL_FAILURE(poll_and_check(1));
  EXPECT_EQ(indices_of(pending_), before);
  EXPECT_TRUE(scratch_.empty());  // every entry stayed in the sorted run
}

TEST_P(PendingOrderOracle, EverythingChangedMatches) {
  for (int i = 0; i < 60; ++i) arrive();
  ASSERT_NO_FATAL_FAILURE(poll_and_check(0));
  for (int round = 1; round <= 20; ++round) {
    if (GetParam() == SchedulerPolicy::kSrpt) {
      // Every key moves: lock into payments with room, refund the rest.
      for (const PendingEntry& entry : pending_) {
        Payment& p = payments_[entry.index];
        if (p.remaining() > 0)
          p.inflight += uniform(1, p.remaining());
        else
          p.inflight -= uniform(1, p.inflight);
      }
    } else {
      // Keys are fixed by arrival or deadline: the whole set leaves and
      // re-enters in a shuffled order, so every entry is unordered.
      std::vector<std::size_t> members = indices_of(pending_);
      std::shuffle(members.begin(), members.end(), rng_);
      while (!pending_.empty()) leave_at(pending_.size() - 1);
      for (const std::size_t index : members) enter(index);
    }
    ASSERT_NO_FATAL_FAILURE(poll_and_check(round));
    EXPECT_EQ(scratch_.size(), pending_.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PendingOrderOracle,
    ::testing::Values(SchedulerPolicy::kSrpt, SchedulerPolicy::kFifo,
                      SchedulerPolicy::kLifo, SchedulerPolicy::kEdf),
    [](const ::testing::TestParamInfo<SchedulerPolicy>& param) {
      return scheduler_policy_name(param.param);
    });

}  // namespace
}  // namespace spider
