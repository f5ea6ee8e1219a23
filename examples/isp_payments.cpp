// ISP scenario: the paper's primary evaluation setting, runnable end to end
// with adjustable parameters:
//
//   ./isp_payments [txns] [tx_per_second] [capacity_xrp] [scheme]
//
// scheme ∈ {waterfilling, lp, maxflow, shortest, silentwhispers,
//           speedymurmurs, primaldual, all}; default: all.
// The run is fully determined by its arguments, so it writes no files;
// `tools/spider_trace_gen --scenario isp` writes an ISP trace to disk for
// inspection or replay.
#include <iostream>
#include <string>

#include "spider.hpp"

namespace {

std::optional<spider::Scheme> parse_scheme(const std::string& name) {
  using spider::Scheme;
  if (name == "waterfilling") return Scheme::kSpiderWaterfilling;
  if (name == "lp") return Scheme::kSpiderLp;
  if (name == "maxflow") return Scheme::kMaxFlow;
  if (name == "shortest") return Scheme::kShortestPath;
  if (name == "silentwhispers") return Scheme::kSilentWhispers;
  if (name == "speedymurmurs") return Scheme::kSpeedyMurmurs;
  if (name == "primaldual") return Scheme::kSpiderPrimalDual;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spider;
  const int txns = argc > 1 ? std::stoi(argv[1]) : 6000;
  const double rate = argc > 2 ? std::stod(argv[2]) : 400.0;
  const int capacity = argc > 3 ? std::stoi(argv[3]) : 3000;
  const std::string scheme_arg = argc > 4 ? argv[4] : "all";

  std::vector<Scheme> schemes;
  if (scheme_arg == "all") {
    schemes = paper_schemes();
  } else if (const auto parsed = parse_scheme(scheme_arg)) {
    schemes = {*parsed};
  } else {
    std::cerr << "unknown scheme '" << scheme_arg << "'\n";
    return 1;
  }

  const SpiderNetwork network(isp_topology(xrp(capacity)));
  TrafficConfig traffic;
  traffic.tx_per_second = rate;
  const auto trace = network.synthesize_workload(txns, traffic);

  std::cout << "ISP topology: 32 nodes / 76 channels, " << capacity
            << " XRP per channel, " << txns << " payments at " << rate
            << " tx/s\n\n";
  const auto results = run_schemes(network, trace, schemes);
  std::cout << results_table(results, network.config().num_paths).render();
  return 0;
}
