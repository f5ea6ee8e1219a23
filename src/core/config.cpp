#include "core/config.hpp"

#include <cctype>
#include <stdexcept>

#include "routing/atomic_adapter.hpp"
#include "routing/landmark_router.hpp"
#include "routing/lp_router.hpp"
#include "routing/maxflow_router.hpp"
#include "routing/shortest_path_router.hpp"
#include "routing/speedy_router.hpp"
#include "routing/waterfilling_router.hpp"
#include "transport/backpressure_router.hpp"
#include "transport/dctcp_router.hpp"

namespace spider {

std::string scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSpiderWaterfilling: return "Spider (Waterfilling)";
    case Scheme::kSpiderLp: return "Spider (LP)";
    case Scheme::kMaxFlow: return "Max-flow";
    case Scheme::kShortestPath: return "Shortest Path";
    case Scheme::kSilentWhispers: return "SilentWhispers";
    case Scheme::kSpeedyMurmurs: return "SpeedyMurmurs";
    case Scheme::kSpiderPrimalDual: return "Spider (Primal-Dual)";
    case Scheme::kSpiderDctcp: return "spider-dctcp";
    case Scheme::kBackpressure: return "backpressure";
  }
  return "?";
}

namespace {

/// Kebab-case key for env/bench lookup: lower-cased, spaces and
/// parentheses folded to single dashes ("Spider (Waterfilling)" ->
/// "spider-waterfilling").
std::string scheme_key(const std::string& name) {
  std::string key;
  key.reserve(name.size());
  for (char c : name) {
    if (c == '(' || c == ')') continue;
    if (c == ' ' || c == '-') {
      if (!key.empty() && key.back() != '-') key.push_back('-');
      continue;
    }
    key.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  while (!key.empty() && key.back() == '-') key.pop_back();
  return key;
}

}  // namespace

Scheme scheme_from_name(const std::string& name) {
  const std::string wanted = scheme_key(name);
  for (Scheme scheme : all_schemes())
    if (scheme_key(scheme_name(scheme)) == wanted) return scheme;
  throw std::invalid_argument("scheme_from_name: unknown scheme '" + name +
                              "'");
}

std::vector<Scheme> paper_schemes() {
  return {Scheme::kSpiderLp,        Scheme::kSpiderWaterfilling,
          Scheme::kMaxFlow,         Scheme::kShortestPath,
          Scheme::kSilentWhispers,  Scheme::kSpeedyMurmurs};
}

std::vector<Scheme> all_schemes() {
  std::vector<Scheme> schemes = paper_schemes();
  schemes.push_back(Scheme::kSpiderPrimalDual);
  schemes.push_back(Scheme::kSpiderDctcp);
  schemes.push_back(Scheme::kBackpressure);
  return schemes;
}

bool scheme_uses_path_store(Scheme scheme) {
  return scheme == Scheme::kSpiderWaterfilling ||
         scheme == Scheme::kShortestPath ||
         scheme == Scheme::kSpiderDctcp ||
         scheme == Scheme::kBackpressure;
}

bool scheme_requires_transport(Scheme scheme) {
  return scheme == Scheme::kSpiderDctcp;
}

void SpiderConfig::validate() const {
  if (sim.delta <= 0)
    throw std::invalid_argument("SpiderConfig: delta must be positive");
  if (sim.poll_interval <= 0)
    throw std::invalid_argument(
        "SpiderConfig: poll_interval must be positive");
  if (sim.mtu < 0)
    throw std::invalid_argument("SpiderConfig: mtu must be >= 0");
  if (sim.default_deadline <= 0)
    throw std::invalid_argument(
        "SpiderConfig: default_deadline must be positive");
  if (sim.hop_delay <= 0)
    throw std::invalid_argument("SpiderConfig: hop_delay must be positive");
  if (sim.queue_timeout <= 0)
    throw std::invalid_argument(
        "SpiderConfig: queue_timeout must be positive");
  if (sim.rebalance_interval < 0 || sim.rebalance_rate_xrp_per_s < 0)
    throw std::invalid_argument(
        "SpiderConfig: rebalancing settings must be non-negative");
  if (sim.admission_cap < 0)
    throw std::invalid_argument(
        "SpiderConfig: admission_cap must be non-negative");
  if (sim.retry_limit < 0)
    throw std::invalid_argument(
        "SpiderConfig: retry_limit must be non-negative (0 = unlimited)");
  if (sim.retry_backoff < 0)
    throw std::invalid_argument(
        "SpiderConfig: retry_backoff must be non-negative");
  if (num_paths < 1)
    throw std::invalid_argument("SpiderConfig: num_paths must be >= 1");
  if (num_landmarks < 1)
    throw std::invalid_argument("SpiderConfig: num_landmarks must be >= 1");
  if (num_trees < 1)
    throw std::invalid_argument("SpiderConfig: num_trees must be >= 1");
  if (lp_max_pairs < 0)
    throw std::invalid_argument("SpiderConfig: lp_max_pairs must be >= 0");
  if (primal_dual.steps_per_tick < 1 || primal_dual.warmup_steps < 0 ||
      primal_dual.bucket_depth <= 0)
    throw std::invalid_argument("SpiderConfig: bad primal-dual settings");
  if (sim.transport.mark_threshold <= 0)
    throw std::invalid_argument(
        "SpiderConfig: transport.mark_threshold must be positive");
  if (sim.transport.pace_interval < 0)
    throw std::invalid_argument(
        "SpiderConfig: transport.pace_interval must be non-negative");
  if (sim.transport.initial_window <= 0 || sim.transport.min_window <= 0 ||
      sim.transport.min_window > sim.transport.initial_window)
    throw std::invalid_argument(
        "SpiderConfig: transport windows must satisfy 0 < min <= initial");
  if (sim.transport.additive_step < 0)
    throw std::invalid_argument(
        "SpiderConfig: transport.additive_step must be non-negative");
  if (sim.transport.beta_ppm < 0 || sim.transport.beta_ppm > 1'000'000)
    throw std::invalid_argument(
        "SpiderConfig: transport.beta_ppm must be in [0, 1000000]");
  if (sim.transport.initial_rtt <= 0)
    throw std::invalid_argument(
        "SpiderConfig: transport.initial_rtt must be positive");
}

namespace {

std::unique_ptr<Router> make_base_router(Scheme scheme,
                                         const SpiderConfig& config) {
  switch (scheme) {
    case Scheme::kSpiderWaterfilling:
      return std::make_unique<WaterfillingRouter>(config.num_paths,
                                                  config.path_selection);
    case Scheme::kSpiderLp:
      return std::make_unique<LpRouter>(config.num_paths,
                                        config.lp_max_pairs,
                                        config.lp_objective);
    case Scheme::kMaxFlow:
      return std::make_unique<MaxFlowRouter>();
    case Scheme::kShortestPath:
      return std::make_unique<ShortestPathRouter>();
    case Scheme::kSilentWhispers:
      return std::make_unique<LandmarkRouter>(config.num_landmarks);
    case Scheme::kSpeedyMurmurs:
      return std::make_unique<SpeedyMurmursRouter>(config.num_trees,
                                                   config.sim.seed ^ 0x5eedULL);
    case Scheme::kSpiderPrimalDual:
      return std::make_unique<PrimalDualRouter>(config.num_paths,
                                                config.primal_dual);
    case Scheme::kSpiderDctcp:
      return std::make_unique<SpiderDctcpRouter>(config.num_paths,
                                                 config.path_selection,
                                                 config.sim.transport);
    case Scheme::kBackpressure:
      return std::make_unique<BackpressureRouter>(config.num_paths,
                                                  config.path_selection);
  }
  throw std::invalid_argument("make_router: unknown scheme");
}

}  // namespace

std::unique_ptr<Router> make_router(Scheme scheme,
                                    const SpiderConfig& config) {
  std::unique_ptr<Router> router = make_base_router(scheme, config);
  if (config.amp_atomic && !router->is_atomic())
    router = std::make_unique<AtomicAdapter>(std::move(router));
  return router;
}

}  // namespace spider
