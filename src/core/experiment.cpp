#include "core/experiment.hpp"

#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "core/runner.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"

namespace spider {

std::vector<SchemeResult> run_schemes(const SpiderNetwork& network,
                                      const std::vector<PaymentSpec>& trace,
                                      const std::vector<Scheme>& schemes,
                                      Duration metrics_window,
                                      Duration warmup) {
  // Scheme runs are independent (fresh network per run), so fan them out on
  // the pool; each worker writes only its own slot, which keeps the result
  // order — and every metric byte — identical to the old serial loop. The
  // pool is shared across calls so per-data-point sweeps don't pay thread
  // spawn/teardown each time; the mutex keeps this entry point callable
  // from concurrent threads (as the old serial loop was) by serializing
  // them onto the one pool.
  static std::mutex runner_mutex;
  static ExperimentRunner runner;
  const std::lock_guard<std::mutex> lock(runner_mutex);
  std::vector<SchemeResult> results(schemes.size());
  runner.for_each(schemes.size(), [&](std::size_t i) {
    SPIDER_INFO("running " << scheme_name(schemes[i]) << " over "
                           << trace.size() << " payments");
    results[i] = SchemeResult{
        network.run_streams(schemes[i], trace, network.config().sim.seed, {},
                            {}, metrics_window, warmup),
        schemes[i]};
  });
  return results;
}

Table results_table(const std::vector<SchemeResult>& results, int paths_k) {
  const std::string scheme_header =
      paths_k > 0 ? "scheme (k=" + std::to_string(paths_k) + ")" : "scheme";
  Table table({scheme_header, "success_ratio", "success_volume",
               "p50_latency_s", "chunks/payment", "delivered_xrp"});
  for (const SchemeResult& r : results) {
    const SimMetrics& m = r.metrics;
    const double chunks_per_payment =
        m.attempted_count == 0
            ? 0.0
            : static_cast<double>(m.chunks_sent) /
                  static_cast<double>(m.attempted_count);
    table.add_row({scheme_name(r.scheme), Table::pct(m.success_ratio()),
                   Table::pct(m.success_volume()),
                   Table::num(m.completion_latency_s.mean(), 3),
                   Table::num(chunks_per_payment, 2),
                   Table::num(to_xrp(m.delivered_volume), 0)});
  }
  return table;
}

Table steady_state_table(const std::vector<SchemeResult>& results,
                         Duration metrics_window, Duration warmup) {
  Table table({"scheme", "lifetime_sr",
               "steady_sr (warmup " + Table::num(to_seconds(warmup), 2) +
                   " s, window " + Table::num(to_seconds(metrics_window), 2) +
                   " s)",
               "steady_sv", "windows", "sr_stddev"});
  for (const SchemeResult& r : results)
    table.add_row({scheme_name(r.scheme), Table::pct(r.metrics.success_ratio()),
                   Table::pct(r.steady.success_ratio),
                   Table::pct(r.steady.success_volume),
                   std::to_string(r.steady.windows),
                   Table::num(r.steady.per_window_success_ratio.stddev(), 3)});
  return table;
}

void maybe_write_windows_csv(const std::string& bench_name,
                             const std::vector<SchemeResult>& results) {
  const char* dir = std::getenv("SPIDER_BENCH_CSV_DIR");
  if (dir == nullptr) return;
  CsvWriter writer(std::string(dir) + "/" + bench_name + "_windows.csv");
  writer.write_row({"scheme", "window", "start_s", "end_s", "attempted",
                    "completed", "failed", "attempted_xrp", "completed_xrp",
                    "delivered_xrp", "success_ratio", "success_volume"});
  for (const SchemeResult& r : results)
    for (const WindowStats& w : r.windows)
      writer.write_row({scheme_name(r.scheme), std::to_string(w.index),
                        Table::num(w.start_s, 3), Table::num(w.end_s, 3),
                        std::to_string(w.attempted),
                        std::to_string(w.completed), std::to_string(w.failed),
                        Table::num(to_xrp(w.attempted_volume), 1),
                        Table::num(to_xrp(w.completed_volume), 1),
                        Table::num(to_xrp(w.delivered_volume), 1),
                        Table::num(w.success_ratio(), 4),
                        Table::num(w.success_volume(), 4)});
}

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  try {
    return std::stoi(value);
  } catch (const std::exception&) {
    return fallback;
  }
}

unsigned thread_budget(unsigned requested) {
  if (requested > 0) return requested;
  const int from_env = env_int("SPIDER_THREADS", 0);
  if (from_env > 0) return static_cast<unsigned>(from_env);
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  try {
    return std::stod(value);
  } catch (const std::exception&) {
    return fallback;
  }
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::string(value);
}

void maybe_write_csv(const std::string& bench_name, const Table& table) {
  const char* dir = std::getenv("SPIDER_BENCH_CSV_DIR");
  if (dir == nullptr) return;
  CsvWriter writer(std::string(dir) + "/" + bench_name + ".csv");
  writer.write_row(table.headers());
  for (const auto& row : table.rows()) writer.write_row(row);
}

}  // namespace spider
