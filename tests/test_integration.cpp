// Integration tests: scaled-down versions of the paper's experiments whose
// QUALITATIVE outcomes (who beats whom, where ceilings sit) must already
// hold at small scale. The bench harnesses run the full-size versions.
#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "core/experiment.hpp"
#include "fluid/circulation.hpp"
#include "topology/topology.hpp"
#include "test_support.hpp"
#include "workload/trace_io.hpp"

namespace spider {
namespace {

struct MiniFig6 {
  std::map<Scheme, SimMetrics> by_scheme;
  double circulation_fraction = 0.0;
};

/// One scaled-down Fig. 6 run on the ISP topology (shared across tests).
const MiniFig6& mini_fig6() {
  static const MiniFig6 result = [] {
    // Parameters scaled from the paper's (30k XRP, 1000 tx/s, 200 s) run so
    // that the network is comparably LOADED: less escrow per channel, the
    // same ~15 s of traffic. In the paper's saturated regime imbalance
    // drains channels; an under-loaded run would let every scheme succeed
    // and differentiate nothing.
    MiniFig6 out;
    SpiderConfig config;
    const SpiderNetwork net(isp_topology(xrp(3000)), config);
    TrafficConfig traffic;
    traffic.tx_per_second = 400;
    traffic.seed = 1;
    const auto trace = net.synthesize_workload(6000, traffic);
    out.circulation_fraction = net.workload_circulation_fraction(trace);
    for (Scheme scheme : paper_schemes())
      out.by_scheme[scheme] = net.run(scheme, trace);
    return out;
  }();
  return result;
}

TEST(MiniFig6, EverySchemeDeliversSomething) {
  for (const auto& [scheme, metrics] : mini_fig6().by_scheme) {
    EXPECT_GT(metrics.success_volume(), 0.02) << scheme_name(scheme);
    EXPECT_GT(metrics.success_ratio(), 0.02) << scheme_name(scheme);
  }
}

TEST(MiniFig6, SpiderWaterfillingBeatsAtomicBaselines) {
  // The paper's headline: Spider completes more payments and more volume
  // than SpeedyMurmurs and SilentWhispers.
  const auto& r = mini_fig6().by_scheme;
  const SimMetrics& spider = r.at(Scheme::kSpiderWaterfilling);
  for (Scheme baseline :
       {Scheme::kSilentWhispers, Scheme::kSpeedyMurmurs}) {
    EXPECT_GT(spider.success_ratio(),
              r.at(baseline).success_ratio())
        << scheme_name(baseline);
    EXPECT_GT(spider.success_volume(),
              r.at(baseline).success_volume())
        << scheme_name(baseline);
  }
}

TEST(MiniFig6, PacketSwitchingBeatsAtomicShortestPathStyleRouting) {
  // §6.2: splitting + SRPT already lifts even plain shortest-path routing
  // above the atomic single-shot baselines' success ratio.
  const auto& r = mini_fig6().by_scheme;
  EXPECT_GT(r.at(Scheme::kShortestPath).success_ratio(),
            r.at(Scheme::kSpeedyMurmurs).success_ratio());
}

TEST(MiniFig6, WaterfillingWithinFewPointsOfMaxFlow) {
  // §6.2: waterfilling performs within ~5% of max-flow despite using only
  // 4 paths. Allow slack for the scaled-down run (and allow waterfilling to
  // win outright).
  const auto& r = mini_fig6().by_scheme;
  EXPECT_GE(r.at(Scheme::kSpiderWaterfilling).success_volume(),
            r.at(Scheme::kMaxFlow).success_volume() - 0.10);
}

TEST(MiniFig6, LpSuccessVolumeTracksCirculationFraction) {
  // §6.2: Spider (LP) routes (at most, and for stationary demand ≈) the
  // circulation component of the demand.
  const MiniFig6& mini = mini_fig6();
  const double lp_volume =
      mini.by_scheme.at(Scheme::kSpiderLp).success_volume();
  EXPECT_LE(lp_volume, mini.circulation_fraction + 0.08);
  EXPECT_GT(lp_volume, mini.circulation_fraction * 0.5);
}

TEST(MiniFig6, NoSchemeExceedsTheoreticalCeilings) {
  for (const auto& [scheme, metrics] : mini_fig6().by_scheme) {
    EXPECT_LE(metrics.success_volume(), 1.0) << scheme_name(scheme);
    EXPECT_LE(metrics.success_ratio(), 1.0) << scheme_name(scheme);
  }
}

TEST(MiniFig7, CapacitySweepIsMonotoneForWaterfilling) {
  // Fig. 7's shape at three points: success grows with per-channel escrow.
  SpiderConfig config;
  TrafficConfig traffic;
  traffic.tx_per_second = 200;
  traffic.seed = 2;
  std::vector<double> ratios;
  for (Amount cap : {xrp(1000), xrp(10000), xrp(100000)}) {
    const SpiderNetwork net(isp_topology(cap), config);
    const auto trace = net.synthesize_workload(1500, traffic);
    ratios.push_back(
        net.run(Scheme::kSpiderWaterfilling, trace).success_ratio());
  }
  EXPECT_LT(ratios.front(), ratios.back());
  EXPECT_GT(ratios.back(), 0.8);  // ample capacity ⇒ nearly everything lands
}

TEST(MiniSrpt, SrptBeatsFifoOnSuccessRatio) {
  // The §6.1/§6.2 scheduling claim, at small scale, on a congested network:
  // SRPT completes at least as many payments as FIFO.
  TrafficConfig traffic;
  traffic.tx_per_second = 300;
  traffic.seed = 4;
  SpiderConfig srpt;
  srpt.sim.scheduler = SchedulerPolicy::kSrpt;
  SpiderConfig fifo;
  fifo.sim.scheduler = SchedulerPolicy::kFifo;
  const Graph g = isp_topology(xrp(2000));
  const SpiderNetwork srpt_net(g, srpt);
  const SpiderNetwork fifo_net(g, fifo);
  const auto trace = srpt_net.synthesize_workload(2500, traffic);
  const double srpt_ratio =
      srpt_net.run(Scheme::kSpiderWaterfilling, trace).success_ratio();
  const double fifo_ratio =
      fifo_net.run(Scheme::kSpiderWaterfilling, trace).success_ratio();
  EXPECT_GE(srpt_ratio, fifo_ratio - 0.01);
}

TEST(Integration, TraceFileDrivesIdenticalRun) {
  // Write a trace to disk, read it back, and verify the run is identical —
  // the reproducibility workflow DESIGN.md documents.
  const SpiderNetwork net(isp_topology(xrp(5000)));
  TrafficConfig traffic;
  traffic.tx_per_second = 100;
  const auto trace = net.synthesize_workload(400, traffic);
  const ScopedTempFile file("spider_integration.csv");
  write_trace_csv(file.path(), trace);
  const auto loaded = read_trace_csv(file.path());
  const SimMetrics direct = net.run(Scheme::kSpiderWaterfilling, trace);
  const SimMetrics from_file = net.run(Scheme::kSpiderWaterfilling, loaded);
  EXPECT_EQ(direct.delivered_volume, from_file.delivered_volume);
  EXPECT_EQ(direct.completed_count, from_file.completed_count);
}

TEST(Integration, PrimalDualExtensionRunsEndToEnd) {
  SpiderConfig config;
  config.primal_dual.solver.alpha = 0.05;
  config.primal_dual.solver.kappa = 0.05;
  const SpiderNetwork net(isp_topology(xrp(30000)), config);
  TrafficConfig traffic;
  traffic.tx_per_second = 150;
  const auto trace = net.synthesize_workload(800, traffic);
  const SimMetrics m = net.run(Scheme::kSpiderPrimalDual, trace);
  EXPECT_EQ(m.attempted_count, 800);
  EXPECT_GT(m.success_volume(), 0.05);
}

}  // namespace
}  // namespace spider
