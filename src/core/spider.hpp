// Public façade of the Spider library.
//
// Quickstart:
//
//   #include "core/spider.hpp"
//
//   spider::Graph topology = spider::isp_topology(spider::xrp(30000));
//   spider::SpiderNetwork net(topology);
//   auto trace = net.synthesize_workload(20'000);
//   spider::SimMetrics m = net.run(spider::Scheme::kSpiderWaterfilling,
//                                  trace);
//   std::cout << m.success_ratio() << "\n";
//
// A SpiderNetwork owns a topology and an experiment configuration and runs
// any routing scheme over any transaction trace — the network state is
// rebuilt fresh per run, so runs are independent and reproducible.
#pragma once

#include "core/config.hpp"
#include "core/session.hpp"
#include "fluid/circulation.hpp"
#include "sim/observers.hpp"
#include "workload/traffic.hpp"

namespace spider {

/// One finished batch run: the lifetime metrics plus, when the run had a
/// positive metrics window, the per-window series and the warmup-excluded
/// steady-state aggregate (empty and zero otherwise).
struct RunResult {
  SimMetrics metrics;
  std::vector<WindowStats> windows;
  WindowedMetrics::SteadyState steady;
};

class SpiderNetwork {
 public:
  /// Validates the configuration (throws std::invalid_argument).
  explicit SpiderNetwork(Graph topology, SpiderConfig config = {});

  [[nodiscard]] const Graph& topology() const { return topology_; }
  [[nodiscard]] const SpiderConfig& config() const { return config_; }

  /// Generates the §6.1-style workload for this topology: Poisson arrivals,
  /// exponential-rank senders, uniform receivers, Ripple-shaped sizes.
  [[nodiscard]] std::vector<PaymentSpec> synthesize_workload(
      int count, const TrafficConfig& traffic = {}) const;

  /// Opens a streaming run: a fresh network instance plus the scheme's
  /// router behind a resumable simulator (see core/session.hpp). The
  /// session must not outlive this SpiderNetwork. Thread-safe the same way
  /// run() is: sessions share nothing mutable, so many may live at once.
  [[nodiscard]] SimSession session(Scheme scheme, std::uint64_t seed,
                                   const SessionOptions& options = {}) const;

  /// session() with the configured simulation seed.
  [[nodiscard]] SimSession session(Scheme scheme) const;

  /// Runs `scheme` over `trace` on a fresh network instance and returns the
  /// final metrics: run_streams(...).metrics with no window. The two-argument
  /// form uses the configured simulation seed.
  [[nodiscard]] SimMetrics run(Scheme scheme,
                               const std::vector<PaymentSpec>& trace) const;
  [[nodiscard]] SimMetrics run(
      Scheme scheme, const std::vector<PaymentSpec>& trace,
      std::uint64_t seed, const std::vector<TopologyChange>& churn = {},
      const std::vector<FaultEvent>& faults = {}) const;

  /// The one batch run body behind run(), run_schemes, the ExperimentRunner
  /// grid and bench_throughput: opens a session with `seed` as the
  /// simulation seed (the seed axis of a grid), submits the three input
  /// streams in the canonical order (DESIGN.md "Input chains"), and drains.
  /// A positive `metrics_window` attaches a WindowedMetrics observer that
  /// excludes `warmup`; the lifetime metrics are the same bytes either way.
  /// Thread-safe: runs share nothing mutable, so independent runs may
  /// execute concurrently on one SpiderNetwork.
  [[nodiscard]] RunResult run_streams(
      Scheme scheme, const std::vector<PaymentSpec>& trace,
      std::uint64_t seed, const std::vector<TopologyChange>& churn = {},
      const std::vector<FaultEvent>& faults = {}, Duration metrics_window = 0,
      Duration warmup = 0) const;

  /// ν(C*) / total demand for the trace's estimated demand matrix — the
  /// Prop. 1 ceiling on balanced-routing success volume.
  [[nodiscard]] double workload_circulation_fraction(
      const std::vector<PaymentSpec>& trace) const;

  /// Precomputes the shared candidate-path store (k = config.num_paths,
  /// config.path_selection) for every (src, dst) pair in `trace`.
  /// Idempotent and cheap once warmed; run() calls it automatically, so a
  /// grid of runs over one trace computes each pair's paths exactly once
  /// instead of once per run. The missing pairs are computed on the
  /// thread_budget() workers (SPIDER_THREADS); the stored paths are the
  /// same for any thread count. Thread-safe under the ExperimentRunner
  /// pattern (concurrent run()s over the SAME trace); concurrently warming
  /// DIFFERENT traces while other runs are in flight is not supported.
  void warm_paths(const std::vector<PaymentSpec>& trace) const;

  /// The shared store (nullptr before the first warm_paths()/run()).
  [[nodiscard]] const PathCache* path_store() const;

 private:
  struct SharedPathState;  // mutex + lazily-built PathCache

  Graph topology_;
  SpiderConfig config_;
  // shared_ptr so SpiderNetwork stays copyable/movable (copies share the
  // store — they share the same immutable topology and config, so the
  // cached paths are valid for every copy).
  std::shared_ptr<SharedPathState> paths_;
};

}  // namespace spider
