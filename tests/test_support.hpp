// Shared helpers for tests that sweep the scenario registry or assert
// byte-identity of SimMetrics, the paper's Fig. 4 demand matrix, and the
// LP strong-duality certificate.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "core/spider.hpp"
#include "fluid/payment_graph.hpp"
#include "lp/simplex.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "topology/topology.hpp"
#include "workload/trace_io.hpp"

namespace spider {

/// Field-by-field equality of two SimMetrics — "byte-identical" for every
/// counter and for the derived doubles (same op order -> same bits).
inline void expect_identical_metrics(const SimMetrics& a,
                                     const SimMetrics& b) {
  EXPECT_EQ(a.attempted_count, b.attempted_count);
  EXPECT_EQ(a.attempted_volume, b.attempted_volume);
  EXPECT_EQ(a.completed_count, b.completed_count);
  EXPECT_EQ(a.completed_volume, b.completed_volume);
  EXPECT_EQ(a.delivered_volume, b.delivered_volume);
  EXPECT_EQ(a.expired_count, b.expired_count);
  EXPECT_EQ(a.rejected_count, b.rejected_count);
  EXPECT_EQ(a.admission_refused, b.admission_refused);
  EXPECT_EQ(a.chunks_sent, b.chunks_sent);
  EXPECT_EQ(a.retry_rounds, b.retry_rounds);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.plans_requested, b.plans_requested);
  EXPECT_EQ(a.chunks_queued, b.chunks_queued);
  EXPECT_EQ(a.queue_timeouts, b.queue_timeouts);
  EXPECT_EQ(a.onchain_deposited, b.onchain_deposited);
  EXPECT_EQ(a.topology_changes, b.topology_changes);
  EXPECT_EQ(a.channels_opened, b.channels_opened);
  EXPECT_EQ(a.channels_closed, b.channels_closed);
  EXPECT_EQ(a.escrow_returned, b.escrow_returned);
  EXPECT_EQ(a.fees_accrued, b.fees_accrued);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.chunks_faulted, b.chunks_faulted);
  EXPECT_EQ(a.chunks_churned, b.chunks_churned);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.completion_after_retry, b.completion_after_retry);
  EXPECT_EQ(a.failed_timeout, b.failed_timeout);
  EXPECT_EQ(a.failed_churn, b.failed_churn);
  EXPECT_EQ(a.failed_fault, b.failed_fault);
  EXPECT_EQ(a.failed_no_path, b.failed_no_path);
  EXPECT_EQ(a.completion_latency_s.count(), b.completion_latency_s.count());
  EXPECT_DOUBLE_EQ(a.completion_latency_s.mean(),
                   b.completion_latency_s.mean());
  EXPECT_DOUBLE_EQ(a.completion_latency_s.sum(),
                   b.completion_latency_s.sum());
  EXPECT_EQ(a.chunk_hops.count(), b.chunk_hops.count());
  EXPECT_DOUBLE_EQ(a.chunk_hops.mean(), b.chunk_hops.mean());
  EXPECT_TRUE(a.served_queue_wait_us == b.served_queue_wait_us)
      << "served waits " << a.served_queue_wait_us.count() << "/"
      << a.served_queue_wait_us.sum() << " us vs "
      << b.served_queue_wait_us.count() << "/"
      << b.served_queue_wait_us.sum() << " us";
  EXPECT_EQ(a.chunks_marked, b.chunks_marked);
  EXPECT_EQ(a.pace_rounds, b.pace_rounds);
  EXPECT_DOUBLE_EQ(a.final_mean_imbalance_xrp, b.final_mean_imbalance_xrp);
  EXPECT_DOUBLE_EQ(a.sim_duration_s, b.sim_duration_s);
  // Catch-all via the defaulted operator==: a SimMetrics field added
  // without a matching EXPECT above still fails here instead of slipping
  // through a stale hand-maintained list.
  EXPECT_TRUE(a == b) << "SimMetrics differ in a field the per-field "
                         "expectations above do not cover";
}

/// Collects every payment's final record from on_payment_retired — the
/// whole-run view now that the engine keeps only resident payments — and
/// checks the hook's contract as records arrive: strictly ascending ids.
class RetiredPayments final : public SimObserver {
 public:
  void on_payment_retired(const Payment& payment, TimePoint) override {
    if (!records_.empty()) {
      EXPECT_LT(records_.back().id, payment.id)
          << "payments retired out of id order";
    }
    records_.push_back(payment);
  }

  [[nodiscard]] const std::vector<Payment>& records() const {
    return records_;
  }

  /// Ids 0 .. count-1 each retired exactly once, in ascending order.
  void expect_every_id_once(std::size_t count) const {
    ASSERT_EQ(records_.size(), count);
    for (std::size_t i = 0; i < records_.size(); ++i)
      ASSERT_EQ(records_[i].id, static_cast<PaymentId>(i));
  }

 private:
  std::vector<Payment> records_;
};

/// `net.run(scheme, trace, seed)` without the session: the same router
/// wiring (transport defaults for transport-dependent schemes, the shared
/// warm path store) driven through run_simulation, i.e. Simulator::run,
/// which never arms the churn or fault chain. The zero-churn and zero-fault
/// gates compare a session (every chain armed, churn and faults empty)
/// against this.
inline SimMetrics run_without_session(const SpiderNetwork& net, Scheme scheme,
                                      const std::vector<PaymentSpec>& trace,
                                      std::uint64_t seed) {
  SpiderConfig config = net.config();
  config.sim.seed = seed;
  if (scheme_requires_transport(scheme) && !config.sim.transport.enabled) {
    config.sim.transport.enabled = true;
    config.sim.queueing = QueueingMode::kRouterQueue;
  }
  const PathCache* paths = nullptr;
  if (scheme_uses_path_store(scheme)) {
    net.warm_paths(trace);
    paths = net.path_store();
  }
  const std::unique_ptr<Router> router = make_router(scheme, config);
  return run_simulation(net.topology(), *router, trace, config.sim, paths);
}

/// A scratch file under testing::TempDir() that is removed when the holder
/// goes out of scope. `name` gets the process id spliced in before its
/// extension ("trace.csv" -> "trace_<pid>.csv"), so test binaries running
/// side by side (ctest -j runs one process per test) never share a file.
class ScopedTempFile {
 public:
  explicit ScopedTempFile(const std::string& name) {
    const std::size_t dot = name.rfind('.');
    path_ = testing::TempDir();
    path_ += '/';
    path_ += name.substr(0, dot);
    path_ += '_';
    path_ += std::to_string(::getpid());
    if (dot != std::string::npos) path_ += name.substr(dot);
  }
  ~ScopedTempFile() {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  // Movable so helpers can return the file; the moved-from holder owns
  // nothing and removes nothing.
  ScopedTempFile(ScopedTempFile&& other) noexcept
      : path_(std::exchange(other.path_, {})) {}
  ScopedTempFile(const ScopedTempFile&) = delete;
  ScopedTempFile& operator=(const ScopedTempFile&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The on-disk workload provide_replay_files() writes; both files go away
/// with it.
struct ReplayFiles {
  ScopedTempFile trace;
  ScopedTempFile topology;
};

/// The file-backed `trace-replay` scenario needs an on-disk workload;
/// registry-wide sweeps generate one (from a small isp build) and point
/// ScenarioParams at it. Other scenarios ignore the file fields. Keep the
/// result alive while `params` is used to build scenarios.
[[nodiscard]] inline ReplayFiles provide_replay_files(ScenarioParams& params,
                                                      int payments) {
  ScenarioParams source_params;
  source_params.payments = payments;
  const ScenarioInstance source = build_scenario("isp", source_params);
  ReplayFiles files{ScopedTempFile("spider_registry_sweep_trace.csv"),
                    ScopedTempFile("spider_registry_sweep_topology.csv")};
  write_trace_csv(files.trace.path(), source.trace);
  write_topology_csv(source.graph, files.topology.path());
  params.trace_file = files.trace.path();
  params.topology_file = files.topology.path();
  return files;
}

/// The reconstructed payment graph of Fig. 4a / Fig. 5a (paper node k is
/// our node k-1). Total demand 12; max circulation 8; DAG 4.
inline PaymentGraph motivating_demands() {
  PaymentGraph pg(5);
  pg.add_demand(0, 1, 1);  // 1->2
  pg.add_demand(0, 4, 1);  // 1->5
  pg.add_demand(1, 3, 2);  // 2->4
  pg.add_demand(3, 0, 2);  // 4->1
  pg.add_demand(4, 0, 2);  // 5->1
  pg.add_demand(2, 1, 2);  // 3->2
  pg.add_demand(3, 2, 1);  // 4->3
  pg.add_demand(2, 3, 1);  // 3->4
  return pg;
}

/// The strong-duality certificate of an optimal LpSolution: x is primal
/// feasible, each dual has the sign its row's sense requires (>= 0 on <=
/// rows, <= 0 on >= rows), the duals are dual feasible (c_j - yᵀA_j <= 0 for
/// every variable), and bᵀy equals the objective. Together these prove x
/// optimal without trusting the solver. Tolerances scale with the largest
/// rhs and cost.
inline void expect_strong_duality(const LpModel& model,
                                  const LpSolution& solution) {
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  const auto& rows = model.rows();
  ASSERT_EQ(solution.x.size(), static_cast<std::size_t>(model.num_variables()));
  ASSERT_EQ(solution.duals.size(), rows.size());
  double rhs_scale = 1.0;
  for (const LpModel::Row& row : rows)
    rhs_scale = std::max(rhs_scale, std::abs(row.rhs));
  double cost_scale = 1.0;
  for (int j = 0; j < model.num_variables(); ++j)
    cost_scale = std::max(cost_scale, std::abs(model.objective_coeff(j)));
  const double primal_tol = 1e-7 * rhs_scale;
  const double dual_tol = 1e-7 * cost_scale;

  EXPECT_LE(model.max_violation(solution.x), primal_tol);
  std::vector<double> reduced(static_cast<std::size_t>(model.num_variables()));
  for (int j = 0; j < model.num_variables(); ++j)
    reduced[static_cast<std::size_t>(j)] = model.objective_coeff(j);
  double dual_objective = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double y = solution.duals[i];
    if (rows[i].sense == RowSense::kLeq) {
      EXPECT_GE(y, -dual_tol) << "row " << i;
    } else if (rows[i].sense == RowSense::kGeq) {
      EXPECT_LE(y, dual_tol) << "row " << i;
    }
    dual_objective += rows[i].rhs * y;
    for (const LpTerm& t : rows[i].terms)
      reduced[static_cast<std::size_t>(t.var)] -= y * t.coeff;
  }
  for (std::size_t j = 0; j < reduced.size(); ++j)
    EXPECT_LE(reduced[j], dual_tol) << "variable " << j;
  EXPECT_NEAR(dual_objective, solution.objective,
              1e-6 * std::max(1.0, std::abs(solution.objective)));
}

}  // namespace spider
