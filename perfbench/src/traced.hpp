// Per-layer attribution from outside the library: forwarding decorators
// around the Router, TraceSource and SimObserver seams, plus TracedSession,
// which rebuilds what SimSession builds (Network, make_router, Simulator,
// init_router_for_run) with the Router decorator in the router's place.
//
// Every decorator forwards each call unchanged and only adds a
// steady_clock span and a count around it, so a traced run processes the
// same event sequence as the untraced one. The benchmark checks that: a
// traced run's SimMetrics must be == the untraced run's.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/spider.hpp"
#include "helpers.hpp"
#include "sim/observer.hpp"
#include "workload/trace_source.hpp"

namespace perfbench {

/// Busy time and work counts per layer boundary of one traced run.
struct LayerStats {
  double router_init_s = 0;  // Router::init (the LP solve for Spider LP)
  double plan_s = 0;         // Router::plan
  std::int64_t plans = 0;
  std::int64_t nonempty_plans = 0;
  double transport_s = 0;    // bind/clock/send/ack/loss transport hooks
  std::int64_t transport_calls = 0;
  double observer_s = 0;     // every SimObserver hook
  std::int64_t observer_calls = 0;
  double parse_s = 0;        // TraceSource::next
  std::int64_t parsed_payments = 0;
  /// Wall time of each simulated second, in ms: consecutive window rolls
  /// (replay) or 1 s advance_until steps (batch).
  std::vector<double> advance_ms;
};

/// Forwards every Router call to `inner`, timing plan(), init() and the
/// transport feedback hooks.
class TracedRouter final : public spider::Router {
 public:
  TracedRouter(std::unique_ptr<spider::Router> inner, LayerStats& stats)
      : inner_(std::move(inner)), stats_(&stats) {}

  [[nodiscard]] const spider::Router& inner() const { return *inner_; }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool is_atomic() const override { return inner_->is_atomic(); }
  void init(const spider::Network& network,
            const spider::RouterInitContext& context) override;
  [[nodiscard]] std::vector<spider::ChunkPlan> plan(
      const spider::Payment& payment, spider::Amount amount,
      const spider::Network& network, spider::Rng& rng) override;
  void on_tick(const spider::Network& network, spider::TimePoint now) override {
    inner_->on_tick(network, now);
  }
  [[nodiscard]] spider::PlanSpeculation plan_speculation() const override {
    return inner_->plan_speculation();
  }
  [[nodiscard]] std::span<const spider::Path> plan_read_paths(
      spider::NodeId src, spider::NodeId dst,
      const spider::Network& network) override {
    return inner_->plan_read_paths(src, dst, network);
  }
  void bind_transport(const spider::RouterQueueBank* queues) override;
  void on_transport_clock(spider::TimePoint now) override;
  void on_transport_send(const spider::Path& path, spider::Amount amount,
                         spider::TimePoint now) override;
  void on_transport_ack(const spider::Path& path, spider::Amount amount,
                        bool marked, spider::Duration rtt,
                        spider::TimePoint now) override;
  void on_transport_loss(const spider::Path& path, spider::Amount amount,
                         spider::TimePoint now) override;

 private:
  std::unique_ptr<spider::Router> inner_;
  LayerStats* stats_;
};

/// Forwards a TraceSource, timing next() (the trace parse layer).
class TimedTraceSource final : public spider::TraceSource {
 public:
  TimedTraceSource(spider::TraceSource& inner, LayerStats& stats)
      : inner_(&inner), stats_(&stats) {}

  std::span<const spider::PaymentSpec> next() override;
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] std::size_t payments_read() const override {
    return inner_->payments_read();
  }
  [[nodiscard]] std::size_t chunk_size() const override {
    return inner_->chunk_size();
  }
  [[nodiscard]] const std::string& path() const override {
    return inner_->path();
  }

 private:
  spider::TraceSource* inner_;
  LayerStats* stats_;
};

/// Forwards every SimObserver hook, timing each one, and records the wall
/// clock at each window roll into LayerStats::advance_ms.
class TimedObserver final : public spider::SimObserver {
 public:
  TimedObserver(spider::SimObserver& inner, LayerStats& stats)
      : inner_(&inner), stats_(&stats), last_roll_(Clock::now()) {}

  void on_payment_arrival(const spider::Payment& payment,
                          spider::TimePoint now) override;
  void on_payment_complete(const spider::Payment& payment,
                           spider::TimePoint now) override;
  void on_payment_failed(const spider::Payment& payment,
                         spider::TimePoint now) override;
  void on_chunk_locked(const spider::Path& path, spider::Amount amount,
                       spider::TimePoint now) override;
  void on_chunk_settled(const spider::Path& path, spider::Amount amount,
                        spider::TimePoint now) override;
  void on_poll_round(std::size_t pending, spider::TimePoint now) override;
  void on_queue_depths(const spider::RouterQueueBank& queues,
                       spider::TimePoint now) override;
  void on_topology_change(const spider::TopologyChange& change,
                          const spider::Network& network,
                          spider::TimePoint now) override;
  void on_fault(const spider::FaultEvent& fault, const spider::Network& network,
                spider::TimePoint now) override;
  void on_window_roll(const spider::WindowInfo& window,
                      const spider::Network& network) override;

 private:
  spider::SimObserver* inner_;
  LayerStats* stats_;
  Clock::time_point last_roll_;
};

/// SimSession's construction and submission logic with a TracedRouter in
/// place of the scheme's router. The caller warms `network`'s path store
/// first (as SpiderNetwork::session does) and passes it as `shared_paths`.
class TracedSession {
 public:
  TracedSession(const spider::SpiderNetwork& network, spider::Scheme scheme,
                std::uint64_t seed,
                const std::vector<spider::PaymentSpec>* demand_hint,
                const spider::PathCache* shared_paths,
                spider::Duration metrics_window, LayerStats& stats);
  TracedSession(const TracedSession&) = delete;
  TracedSession& operator=(const TracedSession&) = delete;

  void attach(spider::SimObserver& observer) { sim_.attach(observer); }
  void submit(const spider::PaymentSpec* specs, std::size_t count);
  std::size_t advance_until(spider::TimePoint horizon) {
    return sim_.advance_until(horizon);
  }
  /// SimSession::release_replayed.
  std::size_t release_replayed();
  spider::SimMetrics drain();

  [[nodiscard]] bool idle() const { return sim_.idle(); }
  [[nodiscard]] std::size_t buffered() const { return trace_.size(); }
  [[nodiscard]] const spider::Network& network() const { return network_; }
  [[nodiscard]] const TracedRouter& router() const { return router_; }
  [[nodiscard]] const std::vector<spider::Payment>& payments() const {
    return sim_.payments();
  }

 private:
  spider::SpiderConfig config_;
  spider::Network network_;
  TracedRouter router_;
  spider::Simulator sim_;
  std::vector<spider::PaymentSpec> trace_;
  std::vector<spider::TopologyChange> churn_;
  std::vector<spider::FaultEvent> faults_;
};

}  // namespace perfbench
