// E12 — Transport-parameter ablation (§5.2 marking threshold × window).
//
// This harness originally ablated source- vs router-queueing; the real
// transport layer (src/transport/) supersedes that knob — spider-dctcp
// always runs router queues, and the interesting parameters are now the
// one-bit marking threshold and the initial per-path AIMD window. It
// sweeps the shared bench_common grid (threshold {10,40,160} ms × window
// {50,200,800} XRP) over the §6.1 ISP workload and reports, per point, how
// the control loop reacted: marks raised, pace rounds, p99 queueing delay,
// and the success ratio the sender-side windows bought.
//
// The same grid's rows join BENCH_throughput.json (schema v5) through
// bench_throughput's SPIDER_BENCH_TRANSPORT section — this bench is the
// human-readable rendering, that JSON is the machine-readable baseline;
// both draw the grid from bench_common::transport_sweep_grid() so they
// cannot drift apart.
//
// A source-queue baseline row (transport off, the pre-transport engine)
// leads the table so the ablation is read against what the §6.1 fluid
// evaluation measured.
#include "bench_common.hpp"

int main() {
  using namespace spider;
  bench::banner("E12", "§5.2 transport ablation: marking threshold × "
                       "initial AIMD window (spider-dctcp)",
                "small thresholds mark aggressively (smaller windows, "
                "lower delay); large windows overrun slow hops until "
                "marks pull them back");

  const ScenarioInstance setup = bench::isp_setup(/*traffic_seed=*/7);

  Table table({"config", "success_ratio", "success_volume", "mean_latency_s",
               "chunks_marked", "pace_rounds", "served_queue_delay_p99_s",
               "queued_units"});
  const auto add_row = [&](const std::string& tag, const SimMetrics& m) {
    table.add_row({tag, Table::pct(m.success_ratio()),
                   Table::pct(m.success_volume()),
                   Table::num(m.completion_latency_s.mean(), 3),
                   std::to_string(m.chunks_marked),
                   std::to_string(m.pace_rounds),
                   Table::num(m.served_queue_delay_p99_s(), 4),
                   std::to_string(m.chunks_queued)});
  };

  // Baseline: the pre-transport engine (source queues, no windows) under
  // the same workload and scheme family's fluid ancestor.
  {
    SpiderConfig config = setup.config;
    config.sim.queueing = QueueingMode::kSourceQueue;
    const SpiderNetwork net(setup.graph, config);
    add_row("baseline (waterfilling, no transport)",
            net.run(Scheme::kSpiderWaterfilling, setup.trace));
  }

  for (const bench::TransportSweepPoint& point :
       bench::transport_sweep_grid()) {
    const SpiderNetwork net(setup.graph,
                            bench::transport_point_config(setup, point));
    add_row(bench::transport_point_tag(point),
            net.run(Scheme::kSpiderDctcp, setup.trace));
  }

  std::cout << table.render();
  maybe_write_csv("queueing_ablation", table);
  return 0;
}
