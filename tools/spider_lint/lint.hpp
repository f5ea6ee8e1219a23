// spider_lint — project-specific determinism & conservation static analysis.
//
// The engine's headline contracts (fixed-seed byte-identity, streamed ==
// batch, integer-exact money conservation) are enforced
// dynamically by golden tests; this tool makes the *sources* of those bugs
// fail the build before a test ever runs. It is a token-aware scanner over
// plain source text — no libclang, so it builds wherever CI does — with a
// small, named rule catalogue (DESIGN.md "Static analysis & determinism
// contracts") and a per-site suppression syntax:
//
//   // spider-lint: allow(<rule>) <justification>
//
// placed on the offending line or the line directly above it. Suppressions
// must name a real rule, carry a non-empty justification, and actually match
// a finding — anything else is itself a violation, so the tree can't
// accumulate dead or vague waivers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace spider_lint {

/// One diagnostic. `rule` is the catalogue name (see kRuleNames).
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct Options {
  /// Files or directories to scan (directories recurse over C++ sources).
  std::vector<std::string> roots;
  /// Where README.md / DESIGN.md / tests/test_support.hpp are resolved for
  /// the env-registry and metric-registry rules. Defaults to the CWD.
  std::string repo_root = ".";
};

struct Report {
  std::vector<Finding> findings;  // sorted by (file, line, rule)
  std::size_t files_scanned = 0;
  [[nodiscard]] bool clean() const { return findings.empty(); }
};

/// The rule catalogue, in documentation order.
inline constexpr const char* kRuleNames[] = {
    "determinism-surface",  // wall clocks, ambient PRNGs, unordered iteration
    "integer-money",        // float/double arithmetic on money identifiers
    "metric-registry",      // SimMetrics fields vs expect_identical_metrics
    "env-registry",         // SPIDER_* env vars must be documented
    "assert-hygiene",       // no side effects inside SPIDER_ASSERT macros
};

/// Runs every rule over every source under `options.roots`. Throws
/// std::runtime_error only on environmental failures (unreadable root);
/// malformed *source* never throws — it just scans token-best-effort.
[[nodiscard]] Report run_lint(const Options& options);

/// Machine-readable report (stable key order, sorted findings).
[[nodiscard]] std::string to_json(const Report& report);

/// Human-readable "file:line: [rule] message" lines, one per finding.
[[nodiscard]] std::string to_text(const Report& report);

}  // namespace spider_lint
