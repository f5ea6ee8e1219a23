// Shared experiment driver for the bench harnesses (one per figure/table;
// see DESIGN.md experiment index). Handles scheme iteration, paper-style
// table rendering, optional CSV dumps, and env-var scaling so the default
// argument-free run finishes quickly while SPIDER_* variables reproduce
// paper-scale runs.
#pragma once

#include <string>
#include <vector>

#include "core/spider.hpp"
#include "util/table.hpp"

namespace spider {

/// One scheme's run over a shared trace.
struct SchemeResult : RunResult {
  Scheme scheme = Scheme::kShortestPath;
};

/// Runs every scheme in `schemes` over the same trace on fresh copies of the
/// network, at the configured seed, through SpiderNetwork::run_streams. A
/// positive `metrics_window` also collects each scheme's per-window series
/// and steady-state aggregate excluding `warmup`. Logs progress at info
/// level.
[[nodiscard]] std::vector<SchemeResult> run_schemes(
    const SpiderNetwork& network, const std::vector<PaymentSpec>& trace,
    const std::vector<Scheme>& schemes, Duration metrics_window = 0,
    Duration warmup = 0);

/// Paper-style summary table: scheme, success ratio, success volume, plus
/// completion-latency and overhead columns. A positive `paths_k` reports
/// the active candidate-path count in the scheme column header, e.g.
/// "scheme (k=4)" — benches pass their scenario's config.num_paths so
/// SPIDER_PATHS_K overrides are visible in every table.
[[nodiscard]] Table results_table(const std::vector<SchemeResult>& results,
                                  int paths_k = 0);

/// Steady-state companion to results_table (windowed results only): the
/// paper's actual measurement — success ratio/volume over the post-warmup
/// windows — next to the lifetime ratio, with the per-window dispersion.
[[nodiscard]] Table steady_state_table(
    const std::vector<SchemeResult>& results, Duration metrics_window,
    Duration warmup);

/// If SPIDER_BENCH_CSV_DIR is set, writes the per-window time series of
/// every windowed result (long format: one row per scheme × window) to
/// <dir>/<bench_name>_windows.csv; otherwise does nothing.
void maybe_write_windows_csv(const std::string& bench_name,
                             const std::vector<SchemeResult>& results);

/// Integer/double/string environment overrides for bench scaling, e.g.
/// env_int("SPIDER_TXNS", 20000). Malformed values fall back to the default.
[[nodiscard]] int env_int(const char* name, int fallback);
[[nodiscard]] double env_double(const char* name, double fallback);
[[nodiscard]] std::string env_string(const char* name,
                                     const std::string& fallback);

/// The process-wide worker budget: `requested` when nonzero, else
/// SPIDER_THREADS when set, else the hardware concurrency, else 1. The
/// ExperimentRunner pool and path warm-up size themselves from it.
[[nodiscard]] unsigned thread_budget(unsigned requested = 0);

/// If SPIDER_BENCH_CSV_DIR is set, writes `table` to
/// <dir>/<bench_name>.csv; otherwise does nothing.
void maybe_write_csv(const std::string& bench_name, const Table& table);

}  // namespace spider
