// Small numeric and process helpers the benchmark reports through. Kept
// apart from the workloads so tests/test_helpers.cpp can pin them alone.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] double seconds_since(Clock::time_point start);

/// num / den, or 0 when den is 0 (a layer that did no work reports 0, not
/// NaN).
[[nodiscard]] double ratio(double num, double den);

/// Linear-interpolation percentile (the "type 7" estimator numpy and
/// Python's statistics.quantiles(method="inclusive") use): q in [0, 100].
/// 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// percentile(values, 50).
[[nodiscard]] double median(std::vector<double> values);

/// The VmHWM (peak resident set) line of a /proc/<pid>/status text, in kB;
/// nullopt when the text has no well-formed VmHWM line.
[[nodiscard]] std::optional<long long> parse_vm_hwm_kb(std::string_view status);

/// This process's peak resident set in MB (2^20 bytes), from
/// /proc/self/status. Throws std::runtime_error when it cannot be read.
[[nodiscard]] double peak_rss_mb();

/// Resets this process's peak resident set to its current resident set
/// (writes 5 to /proc/self/clear_refs). Returns false where the kernel
/// refuses, in which case peak_rss_mb() stays a process-lifetime peak.
bool reset_peak_rss();

}  // namespace perfbench
