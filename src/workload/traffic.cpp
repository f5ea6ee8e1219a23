#include "workload/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/flat_index.hpp"

namespace spider {

void check_payment_amount(const PaymentSpec& spec) {
  SPIDER_ASSERT_MSG(spec.amount > 0,
                    "non-positive amount_millis " << spec.amount);
}

TrafficGenerator::TrafficGenerator(NodeId num_nodes, TrafficConfig config,
                                   const SizeDistribution& sizes)
    : num_nodes_(num_nodes),
      config_(config),
      sizes_(&sizes),
      rng_(config.seed) {
  SPIDER_ASSERT(num_nodes >= 2);
  SPIDER_ASSERT(config.tx_per_second > 0);
  sender_weights_.resize(static_cast<std::size_t>(num_nodes));
  switch (config_.sender_skew) {
    case SenderSkew::kUniform:
      std::fill(sender_weights_.begin(), sender_weights_.end(), 1.0);
      break;
    case SenderSkew::kExponentialRank: {
      SPIDER_ASSERT(config.sender_scale_fraction > 0);
      const double scale =
          static_cast<double>(num_nodes) * config_.sender_scale_fraction;
      for (NodeId i = 0; i < num_nodes; ++i)
        sender_weights_[static_cast<std::size_t>(i)] =
            std::exp(-static_cast<double>(i) / scale);
      break;
    }
  }
}

std::vector<PaymentSpec> TrafficGenerator::generate(int count) {
  SPIDER_ASSERT(count >= 0);
  std::vector<PaymentSpec> trace;
  trace.reserve(static_cast<std::size_t>(count));
  double now_seconds = 0.0;
  const double mean_gap = 1.0 / config_.tx_per_second;
  for (int i = 0; i < count; ++i) {
    now_seconds += rng_.exponential(mean_gap);
    PaymentSpec spec;
    spec.arrival = seconds(now_seconds);
    spec.src = static_cast<NodeId>(rng_.weighted_index(sender_weights_));
    do {
      spec.dst = static_cast<NodeId>(rng_.uniform_int(0, num_nodes_ - 1));
    } while (spec.dst == spec.src);
    spec.amount = sizes_->sample(rng_);
    spec.deadline = config_.deadline;
    trace.push_back(spec);
  }
  return trace;
}

PaymentGraph estimate_demand_matrix(NodeId num_nodes,
                                    const std::vector<PaymentSpec>& trace,
                                    Duration duration) {
  PaymentGraph pg(num_nodes);
  if (trace.empty()) return pg;
  Duration span = duration;
  if (span <= 0) {
    TimePoint last = 0;
    for (const PaymentSpec& spec : trace) last = std::max(last, spec.arrival);
    span = std::max<Duration>(last, kMicrosPerSecond);
  }
  const double span_seconds = to_seconds(span);

  // One hashed probe per payment instead of one ordered-map insert: each
  // pair's rates are summed in trace order (so every sum has the bits the
  // map gave), one record per pair behind a FlatIndex; the pairs then enter
  // the graph in (src, dst) order.
  struct PairSum {
    std::uint64_t key;
    double rate;
  };
  std::vector<PairSum> sums;
  FlatIndex index;
  for (const PaymentSpec& spec : trace) {
    // Tolerate degenerate self-pairs (hand-built or external traces): they
    // carry no routable demand. Our TrafficGenerator never emits them.
    if (spec.src == spec.dst) continue;
    SPIDER_ASSERT(spec.src >= 0 && spec.src < num_nodes);
    SPIDER_ASSERT(spec.dst >= 0 && spec.dst < num_nodes);
    SPIDER_ASSERT(spec.amount >= 0);
    const std::uint64_t key = pair_key(spec.src, spec.dst);
    const std::uint32_t slot = index.find_or_insert(
        key, [&sums](std::uint32_t s) { return sums[s].key; });
    if (slot == sums.size()) sums.push_back({key, 0.0});
    sums[slot].rate += to_xrp(spec.amount) / span_seconds;
  }
  std::sort(sums.begin(), sums.end(),
            [](const PairSum& a, const PairSum& b) { return a.key < b.key; });
  for (const PairSum& s : sums)
    pg.add_demand(static_cast<NodeId>(s.key >> 32),
                  static_cast<NodeId>(static_cast<std::uint32_t>(s.key)),
                  s.rate);
  return pg;
}

}  // namespace spider
