// Trace-driven workloads end to end: capture a scenario's workload to disk
// (the spider_trace_gen tool does the same at paper scale), then replay the
// files through the streaming pipeline — TraceReader chunks feeding a
// SimSession via replay_trace — and verify the replayed metrics match the
// in-memory run byte for byte while the resident payment buffer stays
// bounded by the chunk size, not the trace length. The same workload is
// then written as packed binary (.sptr/.sptp) and replayed through the
// mmap'd zero-copy reader — CI's sanitize job runs this example, so both
// replay paths get ASan/UBSan coverage and either diverging is a failure.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "spider.hpp"

int main() {
  using namespace spider;

  // 1. Generate a workload and write it in the import schemas: the trace
  //    CSV (arrival_us,src,dst,amount_millis,deadline_us) and the
  //    channel-list topology CSV (node_a,node_b,capacity_millis). An
  //    externally captured Ripple/Lightning workload enters here instead.
  ScenarioParams params;
  params.payments = 4000;
  const ScenarioInstance scenario = build_scenario("isp", params);
  // File names carry the process id so concurrent runs never share a file.
  const auto tmp = std::filesystem::temp_directory_path();
  const auto scratch = [&](const char* name, const char* ext) {
    return (tmp / (std::string(name) + "_" + std::to_string(::getpid()) +
                   ext))
        .string();
  };
  const std::string trace_path = scratch("spider_example_trace", ".csv");
  const std::string topo_path = scratch("spider_example_topology", ".csv");
  write_trace_csv(trace_path, scenario.trace);
  write_topology_csv(scenario.graph, topo_path);
  std::cout << "wrote " << scenario.trace.size() << " payments + "
            << scenario.graph.num_edges() << " channels to "
            << tmp.string() << "\n";

  // 2. Import the topology back and replay the trace from disk in 256-
  //    payment chunks. WindowedMetrics rides along to show the observer
  //    pipeline composes with streaming replay.
  const Graph imported = read_topology_csv(topo_path);
  const SpiderNetwork network(imported, scenario.config);
  TraceReader reader(trace_path, TraceReaderOptions{256});
  WindowedMetrics windows(/*warmup=*/seconds(2.0));
  ReplayOptions options;
  options.metrics_window = seconds(2.0);
  options.observers = {&windows};
  const ReplayResult replayed = replay_trace(
      network, Scheme::kSpiderWaterfilling, network.config().sim.seed,
      reader, options);

  // 3. The determinism contract: the replay equals the in-memory run.
  //    (Demand-driven schemes would additionally need the same demand
  //    hint; waterfilling does not read one.)
  const SimMetrics in_memory =
      network.run(Scheme::kSpiderWaterfilling, scenario.trace);
  const bool identical = replayed.metrics == in_memory;
  std::cout << "replayed " << replayed.payments << " payments in "
            << (reader.payments_read() + reader.chunk_size() - 1) /
                   reader.chunk_size()
            << " chunks; peak resident buffer " << replayed.peak_buffered
            << " payment specs (chunk size " << reader.chunk_size()
            << ")\n";
  std::cout << "success ratio: replayed "
            << Table::pct(replayed.metrics.success_ratio()) << " vs in-memory "
            << Table::pct(in_memory.success_ratio())
            << (identical ? " (identical event sequence)"
                          : " (DIVERGED — bug!)")
            << "\n";
  std::cout << "steady-state success over "
            << windows.steady_state().windows << " windows: "
            << Table::pct(windows.steady_state().success_ratio) << "\n";

  // 4. Format v1: the same workload as packed binary, replayed through the
  //    mmap'd zero-copy reader. The extension-dispatch helpers pick the
  //    binary path, and the metrics must again equal the in-memory run.
  const std::string bin_trace = scratch("spider_example_trace", ".sptr");
  const std::string bin_topo = scratch("spider_example_topology", ".sptp");
  write_trace_binary(bin_trace, scenario.trace);
  write_topology_binary(scenario.graph, bin_topo);
  const Graph bin_imported = read_topology_any(bin_topo);
  const SpiderNetwork bin_network(bin_imported, scenario.config);
  const std::unique_ptr<TraceSource> bin_reader =
      open_trace_source(bin_trace, TraceReaderOptions{256});
  const ReplayResult bin_replayed = replay_trace(
      bin_network, Scheme::kSpiderWaterfilling,
      bin_network.config().sim.seed, *bin_reader);
  const bool bin_identical = bin_replayed.metrics == in_memory;
  std::cout << "binary replay (" << bin_replayed.payments
            << " payments via mmap): "
            << (bin_identical ? "identical event sequence"
                              : "DIVERGED — bug!")
            << "\n";

  std::remove(trace_path.c_str());
  std::remove(topo_path.c_str());
  std::remove(bin_trace.c_str());
  std::remove(bin_topo.c_str());
  // CI's sanitize job runs this example; a divergence on either format is
  // a real failure, not just a log line.
  return identical && bin_identical ? 0 : 1;
}
