// spider_perfbench — measures one workload and prints its metrics.
//
//   spider_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--scale full|tiny] [--workdir DIR]
//
// Prints one "metric <workload> <name> = <value> <unit>" line per metric,
// any check failures on stderr, and as the last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. perfbench/run.py builds
// this binary and is the documented entry point.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << value;
  return os.str();
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "spider_perfbench: " << problem << "\n"
            << "usage: spider_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--scale full|tiny] "
               "[--workdir DIR]\nworkloads:";
  for (const std::string& name : perfbench::workload_names())
    std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

perfbench::RunRequest parse(int argc, char** argv) {
  perfbench::RunRequest request;
  request.workdir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        request.workload = value;
      } else if (flag == "--seed") {
        request.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        request.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        request.trace = value == "1";
      } else if (flag == "--scale") {
        if (value != "full" && value != "tiny")
          usage("--scale takes full or tiny");
        request.scale = value == "tiny" ? perfbench::Scale::kTiny
                                        : perfbench::Scale::kFull;
      } else if (flag == "--workdir") {
        request.workdir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  const std::vector<std::string> names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), request.workload) == names.end())
    usage("unknown workload '" + request.workload + "'");
  if (!(request.seconds > 0)) usage("--seconds must be positive");
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunRequest request = parse(argc, argv);
  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(request);
  } catch (const std::exception& e) {
    // Input generation or file I/O failed outside any measured operation.
    ++out.attempted;
    ++out.failed;
    out.errors.push_back(std::string("run aborted: ") + e.what());
  }
  bool finite = true;
  for (const perfbench::Metric& m : out.metrics) {
    std::cout << "metric " << request.workload << " " << m.name << " = "
              << number(m.value) << " " << m.unit << "\n";
    finite = finite && std::isfinite(m.value);
  }
  for (const auto& [name, values] : out.samples) {
    std::cerr << "samples " << request.workload << " " << name << ":";
    for (const double v : values) std::cerr << " " << number(v);
    std::cerr << "\n";
  }
  for (const std::string& error : out.errors)
    std::cerr << "check failed: " << error << "\n";
  if (!finite) std::cerr << "check failed: a metric is not a finite number\n";

  std::cout << "{\"correct\": " << (out.correct() && finite ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const perfbench::Metric& m : out.metrics) {
    std::cout << sep << json_string(m.name) << ": {\"value\": "
              << (std::isfinite(m.value) ? number(m.value) : "null")
              << ", \"unit\": " << json_string(m.unit) << "}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
