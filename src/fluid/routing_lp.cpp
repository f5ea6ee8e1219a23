#include "fluid/routing_lp.hpp"

#include <algorithm>

#include <functional>

#include "graph/ksp.hpp"
#include "util/amount.hpp"

namespace spider {

std::vector<Path> enumerate_simple_paths(const Graph& g, NodeId src,
                                         NodeId dst, int max_hops) {
  SPIDER_ASSERT(src >= 0 && src < g.num_nodes());
  SPIDER_ASSERT(dst >= 0 && dst < g.num_nodes());
  std::vector<Path> result;
  std::vector<NodeId> nodes{src};
  std::vector<EdgeId> edges;
  std::vector<char> on_path(static_cast<std::size_t>(g.num_nodes()), 0);
  on_path[static_cast<std::size_t>(src)] = 1;

  std::function<void(NodeId)> dfs = [&](NodeId u) {
    if (u == dst) {
      result.push_back(Path{nodes, edges});
      return;
    }
    if (static_cast<int>(edges.size()) >= max_hops) return;
    for (const Graph::Adjacency& adj : g.neighbors(u)) {
      if (on_path[static_cast<std::size_t>(adj.peer)]) continue;
      on_path[static_cast<std::size_t>(adj.peer)] = 1;
      nodes.push_back(adj.peer);
      edges.push_back(adj.edge);
      dfs(adj.peer);
      edges.pop_back();
      nodes.pop_back();
      on_path[static_cast<std::size_t>(adj.peer)] = 0;
    }
  };
  dfs(src);
  // Deterministic order: shorter paths first, then lexicographic.
  std::sort(result.begin(), result.end(), [](const Path& a, const Path& b) {
    if (a.length() != b.length()) return a.length() < b.length();
    return a.nodes < b.nodes;
  });
  return result;
}

RoutingLp::RoutingLp(const Graph& graph, std::vector<PairPaths> pairs,
                     double delta)
    : graph_(&graph), pairs_(std::move(pairs)), delta_(delta) {
  SPIDER_ASSERT(delta > 0);
  for (const PairPaths& pp : pairs_) {
    SPIDER_ASSERT(pp.demand >= 0);
    for (const Path& p : pp.paths) {
      SPIDER_ASSERT(!p.empty());
      SPIDER_ASSERT(p.source() == pp.src && p.destination() == pp.dst);
      SPIDER_ASSERT(is_valid_trail(graph, p));
    }
  }
}

RoutingLp RoutingLp::with_disjoint_paths(const Graph& graph,
                                         const PaymentGraph& demands,
                                         double delta, int k) {
  std::vector<PairPaths> pairs;
  for (const DemandEdge& d : demands.edges()) {
    PairPaths pp;
    pp.src = d.src;
    pp.dst = d.dst;
    pp.demand = d.rate;
    pp.paths = edge_disjoint_paths(graph, d.src, d.dst, k);
    pairs.push_back(std::move(pp));
  }
  return RoutingLp(graph, std::move(pairs), delta);
}

RoutingLp RoutingLp::with_all_paths(const Graph& graph,
                                    const PaymentGraph& demands, double delta,
                                    int max_hops) {
  std::vector<PairPaths> pairs;
  for (const DemandEdge& d : demands.edges()) {
    PairPaths pp;
    pp.src = d.src;
    pp.dst = d.dst;
    pp.demand = d.rate;
    pp.paths = enumerate_simple_paths(graph, d.src, d.dst, max_hops);
    pairs.push_back(std::move(pp));
  }
  return RoutingLp(graph, std::move(pairs), delta);
}

namespace {

/// The balanced-routing variables, grouped as the solvers read them back.
struct BalancedVars {
  std::vector<std::vector<int>> pair_vars;  // x_p ids, grouped by pair
  std::vector<int> b_vars;  // b_(u,v) ids at 2*edge + dir (0: a->b), or empty
};

/// Adds the shared balanced-routing structure: one x_p >= 0 variable per
/// path (objective 1), then — with rebalancing — one b_(u,v) >= 0 per
/// directed edge (objective -γ); demand rows (2)/(7)/(13) Σ_p x_p <= d_ij;
/// and per edge a capacity row (3)/(8)/(14) over both directions <= c_e/Δ
/// followed by the two balance rows (4)/(9)/(15): direction flow − reverse
/// flow <= b_(u,v) (or <= 0).
BalancedVars add_balanced_structure(LpModel& model, const Graph& graph,
                                    const std::vector<PairPaths>& pairs,
                                    double delta, bool with_rebalancing,
                                    double gamma) {
  BalancedVars vars;
  vars.pair_vars.reserve(pairs.size());
  for (const PairPaths& pp : pairs) {
    std::vector<int> ids;
    ids.reserve(pp.paths.size());
    for (std::size_t i = 0; i < pp.paths.size(); ++i)
      ids.push_back(model.add_variable(1.0));
    vars.pair_vars.push_back(std::move(ids));
  }
  if (with_rebalancing) {
    vars.b_vars.reserve(static_cast<std::size_t>(graph.num_edges()) * 2);
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      vars.b_vars.push_back(model.add_variable(-gamma));
      vars.b_vars.push_back(model.add_variable(-gamma));
    }
  }

  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    std::vector<LpTerm> terms;
    for (int v : vars.pair_vars[pi]) terms.push_back({v, 1.0});
    if (!terms.empty())
      model.add_constraint(std::move(terms), RowSense::kLeq,
                           pairs[pi].demand);
  }

  // Which path variables traverse each directed edge.
  const auto ne = static_cast<std::size_t>(graph.num_edges());
  std::vector<std::vector<LpTerm>> dir_flow(ne * 2);
  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    const PairPaths& pp = pairs[pi];
    for (std::size_t qi = 0; qi < pp.paths.size(); ++qi) {
      const Path& path = pp.paths[qi];
      const int var = vars.pair_vars[pi][qi];
      for (std::size_t h = 0; h < path.edges.size(); ++h) {
        const EdgeId e = path.edges[h];
        const int dir = graph.side_of(e, path.nodes[h]);
        dir_flow[static_cast<std::size_t>(e) * 2 +
                 static_cast<std::size_t>(dir)]
            .push_back({var, 1.0});
      }
    }
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const auto fwd = static_cast<std::size_t>(e) * 2;
    const auto rev = fwd + 1;
    const double cap_rate = to_xrp(graph.edge(e).capacity) / delta;
    std::vector<LpTerm> cap_terms = dir_flow[fwd];
    cap_terms.insert(cap_terms.end(), dir_flow[rev].begin(),
                     dir_flow[rev].end());
    if (!cap_terms.empty())
      model.add_constraint(std::move(cap_terms), RowSense::kLeq, cap_rate);
    for (int dir = 0; dir < 2; ++dir) {
      const auto mine = dir == 0 ? fwd : rev;
      const auto theirs = dir == 0 ? rev : fwd;
      std::vector<LpTerm> bal = dir_flow[mine];
      for (LpTerm t : dir_flow[theirs]) {
        t.coeff = -t.coeff;
        bal.push_back(t);
      }
      if (with_rebalancing) bal.push_back({vars.b_vars[mine], -1.0});
      if (!bal.empty())
        model.add_constraint(std::move(bal), RowSense::kLeq, 0.0);
    }
  }
  return vars;
}

}  // namespace

struct RoutingLp::Built {
  LpModel model;
  BalancedVars vars;
  int t_var = -1;  // max-min only: the served fraction t
};

RoutingLp::Built RoutingLp::build(bool with_rebalancing, double gamma,
                                  double bound) const {
  Built built;
  built.vars = add_balanced_structure(built.model, *graph_, pairs_, delta_,
                                      with_rebalancing, gamma);
  // Total rebalancing bound (16), when requested.
  if (with_rebalancing && bound >= 0) {
    std::vector<LpTerm> terms;
    for (int v : built.vars.b_vars) terms.push_back({v, 1.0});
    built.model.add_constraint(std::move(terms), RowSense::kLeq, bound);
  }
  return built;
}

RoutingLp::Built RoutingLp::build_max_min() const {
  // Weighted-lexicographic single solve: maximize W·t + Σx with
  // Σ_p x_p >= t·d_ij for every pair that has at least one candidate path.
  // W exceeds any achievable throughput by 100×, so the optimizer first
  // pushes the fairness floor t, then throughput — one LP whose rows are
  // all <= with non-negative rhs (slack basis feasible, no phase 1). A true
  // two-stage lexicographic solve is equivalent up to O(1/W) in t but far
  // more fragile numerically (the fixed-t second stage is heavily
  // degenerate).
  double total_demand = 0;
  for (const PairPaths& pp : pairs_) total_demand += pp.demand;
  const double fairness_weight = 100.0 * std::max(1.0, total_demand);

  Built built = build(/*with_rebalancing=*/false, 0.0, 0.0);
  built.t_var = built.model.add_variable(fairness_weight);
  built.model.add_constraint({{built.t_var, 1.0}}, RowSense::kLeq,
                             1.0);  // t <= 1
  for (std::size_t pi = 0; pi < pairs_.size(); ++pi) {
    if (pairs_[pi].demand <= 0 || pairs_[pi].paths.empty()) continue;
    // d_ij·t − Σ x_p <= 0.
    std::vector<LpTerm> terms{{built.t_var, pairs_[pi].demand}};
    for (int v : built.vars.pair_vars[pi]) terms.push_back({v, -1.0});
    built.model.add_constraint(std::move(terms), RowSense::kLeq, 0.0);
  }
  return built;
}

FluidSolution RoutingLp::solve(const Built& built) {
  const LpSolution sol = solve_lp(built.model);
  FluidSolution out;
  out.status = sol.status;
  if (sol.status != LpStatus::kOptimal) return out;
  out.objective = sol.objective;
  // The clamped x_p rates per pair, summed into the throughput.
  for (const std::vector<int>& ids : built.vars.pair_vars) {
    std::vector<double> rates;
    rates.reserve(ids.size());
    for (int v : ids) {
      const double x = std::max(0.0, sol.x[static_cast<std::size_t>(v)]);
      rates.push_back(x);
      out.throughput += x;
    }
    out.path_rates.push_back(std::move(rates));
  }
  for (int v : built.vars.b_vars)
    out.rebalancing_rate += std::max(0.0, sol.x[static_cast<std::size_t>(v)]);
  if (built.t_var >= 0)
    out.min_fraction =
        std::max(0.0, sol.x[static_cast<std::size_t>(built.t_var)]);
  return out;
}

FluidSolution RoutingLp::solve_balanced() const {
  return solve(build(/*with_rebalancing=*/false, /*gamma=*/0.0,
                     /*bound=*/0.0));
}

FluidSolution RoutingLp::solve_rebalancing(double gamma) const {
  SPIDER_ASSERT(gamma >= 0);
  return solve(build(/*with_rebalancing=*/true, gamma,
                     /*bound=*/-1.0));  // -1: unbounded total
}

FluidSolution RoutingLp::solve_bounded_rebalancing(double bound) const {
  SPIDER_ASSERT(bound >= 0);
  return solve(build(/*with_rebalancing=*/true, /*gamma=*/0.0, bound));
}

FluidSolution RoutingLp::solve_max_min_balanced() const {
  return solve(build_max_min());
}

LpModel RoutingLp::balanced_model() const {
  return build(/*with_rebalancing=*/false, 0.0, 0.0).model;
}

LpModel RoutingLp::bounded_rebalancing_model(double bound) const {
  SPIDER_ASSERT(bound >= 0);
  return build(/*with_rebalancing=*/true, 0.0, bound).model;
}

LpModel RoutingLp::max_min_model() const { return build_max_min().model; }

}  // namespace spider
