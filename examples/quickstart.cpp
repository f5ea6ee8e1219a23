// Quickstart: materialize a named scenario, route its workload with Spider,
// and read the metrics. This is the README example.
#include <iostream>

#include "spider.hpp"

int main() {
  using namespace spider;

  // 1. A scenario from the registry: the paper's 32-node ISP graph with its
  //    §6.1 workload (Poisson arrivals, skewed senders, uniform receivers,
  //    Ripple-shaped payment sizes) and the paper's defaults — Δ = 0.5 s
  //    confirmation delay, 4 edge-disjoint paths, SRPT queueing, 5 s
  //    deadlines. ScenarioParams override any knob; everything else about
  //    the topology and trace is the scenario's job.
  ScenarioParams params;
  params.payments = 5000;
  const ScenarioInstance scenario = build_scenario("isp", params);

  // 2. A network over the scenario's topology and configuration.
  const SpiderNetwork network(scenario.graph, scenario.config);

  // 3. Route the workload with Spider's waterfilling algorithm, then with a
  //    baseline.
  const SimMetrics spider =
      network.run(Scheme::kSpiderWaterfilling, scenario.trace);
  const SimMetrics baseline =
      network.run(Scheme::kSpeedyMurmurs, scenario.trace);

  std::cout << "Spider (Waterfilling): "
            << Table::pct(spider.success_ratio()) << " of payments, "
            << Table::pct(spider.success_volume()) << " of volume, mean "
            << Table::num(spider.completion_latency_s.mean(), 2)
            << " s to complete\n";
  std::cout << "SpeedyMurmurs:         "
            << Table::pct(baseline.success_ratio()) << " of payments, "
            << Table::pct(baseline.success_volume()) << " of volume\n";

  // 4. The theory: no balanced scheme can deliver more volume than the
  //    circulation fraction of the demand (Proposition 1).
  std::cout << "Circulation fraction of this workload's demand: "
            << Table::pct(network.workload_circulation_fraction(scenario.trace))
            << '\n';

  // 5. The paper's real transport on the Ripple-like topology: spider-dctcp
  //    auto-enables router queues, one-bit delay marking, and per-path AIMD
  //    windows — the §5.2 control loop instead of the fluid approximation.
  const ScenarioInstance ripple = build_scenario("ripple-like", params);
  const SpiderNetwork rnet(ripple.graph, ripple.config);
  const SimMetrics transport = rnet.run(Scheme::kSpiderDctcp, ripple.trace);
  std::cout << "spider-dctcp on ripple-like: "
            << Table::pct(transport.success_ratio()) << " of payments, "
            << transport.chunks_marked
            << " chunks marked, p99 served queue delay "
            << Table::num(transport.served_queue_delay_p99_s(), 3) << " s\n";
  return 0;
}
