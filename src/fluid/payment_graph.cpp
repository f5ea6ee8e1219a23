#include "fluid/payment_graph.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <tuple>

namespace spider {

PaymentGraph::PaymentGraph(NodeId num_nodes) : num_nodes_(num_nodes) {
  SPIDER_ASSERT(num_nodes >= 0);
}

void PaymentGraph::add_demand(NodeId src, NodeId dst, double rate) {
  SPIDER_ASSERT(src >= 0 && src < num_nodes_);
  SPIDER_ASSERT(dst >= 0 && dst < num_nodes_);
  SPIDER_ASSERT(src != dst);
  SPIDER_ASSERT(rate >= 0);
  if (rate == 0) return;
  demands_[{src, dst}] += rate;
}

double PaymentGraph::demand(NodeId src, NodeId dst) const {
  const auto it = demands_.find({src, dst});
  return it == demands_.end() ? 0.0 : it->second;
}

double PaymentGraph::total_demand() const {
  double total = 0;
  for (const auto& [key, rate] : demands_) total += rate;
  return total;
}

std::vector<DemandEdge> PaymentGraph::edges() const {
  std::vector<DemandEdge> out;
  out.reserve(demands_.size());
  for (const auto& [key, rate] : demands_)
    if (rate > 0) out.push_back(DemandEdge{key.first, key.second, rate});
  return out;
}

std::vector<double> PaymentGraph::out_rates() const {
  std::vector<double> rates(static_cast<std::size_t>(num_nodes_), 0.0);
  for (const auto& [key, rate] : demands_)
    rates[static_cast<std::size_t>(key.first)] += rate;
  return rates;
}

std::vector<double> PaymentGraph::in_rates() const {
  std::vector<double> rates(static_cast<std::size_t>(num_nodes_), 0.0);
  for (const auto& [key, rate] : demands_)
    rates[static_cast<std::size_t>(key.second)] += rate;
  return rates;
}

bool PaymentGraph::is_circulation(double eps) const {
  const auto in = in_rates();
  const auto out = out_rates();
  for (std::size_t i = 0; i < in.size(); ++i)
    if (std::abs(in[i] - out[i]) > eps) return false;
  return true;
}

bool PaymentGraph::is_acyclic(double eps) const {
  // Iterative three-colour DFS over positive-rate edges.
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(num_nodes_));
  for (const auto& [key, rate] : demands_)
    if (rate > eps) adj[static_cast<std::size_t>(key.first)].push_back(
        key.second);
  enum : char { kWhite = 0, kGray = 1, kBlack = 2 };
  std::vector<char> colour(static_cast<std::size_t>(num_nodes_), kWhite);
  for (NodeId start = 0; start < num_nodes_; ++start) {
    if (colour[static_cast<std::size_t>(start)] != kWhite) continue;
    // Stack of (node, next-child-index).
    std::vector<std::pair<NodeId, std::size_t>> stack{{start, 0}};
    colour[static_cast<std::size_t>(start)] = kGray;
    while (!stack.empty()) {
      auto& [node, idx] = stack.back();
      const auto& next = adj[static_cast<std::size_t>(node)];
      if (idx < next.size()) {
        const NodeId child = next[idx++];
        const char c = colour[static_cast<std::size_t>(child)];
        if (c == kGray) return false;  // back edge: cycle
        if (c == kWhite) {
          colour[static_cast<std::size_t>(child)] = kGray;
          stack.emplace_back(child, 0);
        }
      } else {
        colour[static_cast<std::size_t>(node)] = kBlack;
        stack.pop_back();
      }
    }
  }
  return true;
}

PaymentGraph largest_demands(const PaymentGraph& demands, int max_pairs) {
  SPIDER_ASSERT(max_pairs >= 0);
  std::vector<DemandEdge> edges = demands.edges();
  if (static_cast<int>(edges.size()) <= max_pairs) return demands;
  std::sort(edges.begin(), edges.end(),
            [](const DemandEdge& a, const DemandEdge& b) {
              if (a.rate != b.rate) return a.rate > b.rate;
              return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
            });
  edges.resize(static_cast<std::size_t>(max_pairs));
  PaymentGraph truncated(demands.num_nodes());
  for (const DemandEdge& e : edges) truncated.add_demand(e.src, e.dst, e.rate);
  return truncated;
}

}  // namespace spider
