// The benchmark's workloads and the runs that measure them.
//
// One benchmark run measures one workload in one process (so the peak
// resident set belongs to that workload alone):
//  - untraced (--trace 0): repeated full runs from generated inputs to
//    drain for the requested time, reporting the end-to-end metrics from
//    the repetitions (the median set-up, the fastest sim phase);
//  - traced (--trace 1): untraced runs alternating with runs through the
//    decorators of traced.hpp for the requested time, reporting the
//    per-layer split. Each pair's SimMetrics must be ==.
// Every run also checks the program's outputs (conservation, the
// failure-cause partition, determinism); a simulation run that throws or
// fails a check counts as a failed operation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;  // simulation runs started (plus input checks)
  std::int64_t failed = 0;     // of those: threw or failed a check
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// The per-repetition values the timed metrics are taken from.
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  [[nodiscard]] bool correct() const { return attempted > 0 && failed == 0; }
};

enum class Scale {
  kFull,  // the sizes the benchmark measures
  kTiny,  // a few thousand payments: the smoke test's scale
};

struct RunRequest {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;   // how long the untraced repetitions run
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string workdir;   // where the replay workload writes its trace files
};

/// The workload names, in the order `--workload all` runs them.
[[nodiscard]] std::vector<std::string> workload_names();

/// Runs one workload. Throws std::invalid_argument on an unknown name.
[[nodiscard]] Outcome run_workload(const RunRequest& request);

}  // namespace perfbench
