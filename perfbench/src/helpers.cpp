#include "helpers.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::optional<long long> parse_vm_hwm_kb(std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  std::size_t pos = 0;
  while (pos < status.size()) {
    const std::size_t eol = std::min(status.find('\n', pos), status.size());
    std::string_view line = status.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.starts_with(kKey)) continue;
    line.remove_prefix(kKey.size());
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t'))
      line.remove_prefix(1);
    long long kb = 0;
    const auto [end, ec] =
        std::from_chars(line.data(), line.data() + line.size(), kb);
    if (ec != std::errc() || end == line.data() || kb < 0) return std::nullopt;
    const std::string_view unit(end, line.data() + line.size());
    if (unit.find("kB") == std::string_view::npos) return std::nullopt;
    return kb;
  }
  return std::nullopt;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::ostringstream text;
  text << in.rdbuf();
  const std::optional<long long> kb = parse_vm_hwm_kb(text.str());
  if (!kb) throw std::runtime_error("cannot read VmHWM from /proc/self/status");
  return static_cast<double>(*kb) / 1024.0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
