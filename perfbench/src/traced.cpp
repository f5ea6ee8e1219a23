#include "traced.hpp"

#include <chrono>

namespace perfbench {

namespace {

/// Adds the wall time of its scope to `total`.
class Span {
 public:
  explicit Span(double& total) : total_(&total), start_(Clock::now()) {}
  ~Span() { *total_ += seconds_since(start_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* total_;
  Clock::time_point start_;
};

/// SpiderNetwork::session's config plus SimSession's rule for
/// transport-dependent schemes: with the transport left off, turn it on and
/// switch to router-queue mode.
spider::SpiderConfig session_config(const spider::SpiderConfig& base,
                                    spider::Scheme scheme,
                                    std::uint64_t seed) {
  spider::SpiderConfig config = base;
  config.sim.seed = seed;
  if (spider::scheme_requires_transport(scheme) &&
      !config.sim.transport.enabled) {
    config.sim.transport.enabled = true;
    config.sim.queueing = spider::QueueingMode::kRouterQueue;
  }
  return config;
}

}  // namespace

void TracedRouter::init(const spider::Network& network,
                        const spider::RouterInitContext& context) {
  const Span span(stats_->router_init_s);
  inner_->init(network, context);
}

std::vector<spider::ChunkPlan> TracedRouter::plan(
    const spider::Payment& payment, spider::Amount amount,
    const spider::Network& network, spider::Rng& rng) {
  const Span span(stats_->plan_s);
  std::vector<spider::ChunkPlan> chunks =
      inner_->plan(payment, amount, network, rng);
  ++stats_->plans;
  if (!chunks.empty()) ++stats_->nonempty_plans;
  return chunks;
}

void TracedRouter::bind_transport(const spider::RouterQueueBank* queues) {
  const Span span(stats_->transport_s);
  ++stats_->transport_calls;
  inner_->bind_transport(queues);
}

void TracedRouter::on_transport_clock(spider::TimePoint now) {
  const Span span(stats_->transport_s);
  ++stats_->transport_calls;
  inner_->on_transport_clock(now);
}

void TracedRouter::on_transport_send(const spider::Path& path,
                                     spider::Amount amount,
                                     spider::TimePoint now) {
  const Span span(stats_->transport_s);
  ++stats_->transport_calls;
  inner_->on_transport_send(path, amount, now);
}

void TracedRouter::on_transport_ack(const spider::Path& path,
                                    spider::Amount amount, bool marked,
                                    spider::Duration rtt,
                                    spider::TimePoint now) {
  const Span span(stats_->transport_s);
  ++stats_->transport_calls;
  inner_->on_transport_ack(path, amount, marked, rtt, now);
}

void TracedRouter::on_transport_loss(const spider::Path& path,
                                     spider::Amount amount,
                                     spider::TimePoint now) {
  const Span span(stats_->transport_s);
  ++stats_->transport_calls;
  inner_->on_transport_loss(path, amount, now);
}

std::span<const spider::PaymentSpec> TimedTraceSource::next() {
  const Span span(stats_->parse_s);
  const std::span<const spider::PaymentSpec> chunk = inner_->next();
  stats_->parsed_payments += static_cast<std::int64_t>(chunk.size());
  return chunk;
}

void TimedObserver::on_payment_arrival(const spider::Payment& payment,
                                       spider::TimePoint now) {
  const Span span(stats_->observer_s);
  ++stats_->observer_calls;
  inner_->on_payment_arrival(payment, now);
}

void TimedObserver::on_payment_complete(const spider::Payment& payment,
                                        spider::TimePoint now) {
  const Span span(stats_->observer_s);
  ++stats_->observer_calls;
  inner_->on_payment_complete(payment, now);
}

void TimedObserver::on_payment_failed(const spider::Payment& payment,
                                      spider::TimePoint now) {
  const Span span(stats_->observer_s);
  ++stats_->observer_calls;
  inner_->on_payment_failed(payment, now);
}

void TimedObserver::on_chunk_locked(const spider::Path& path,
                                    spider::Amount amount,
                                    spider::TimePoint now) {
  const Span span(stats_->observer_s);
  ++stats_->observer_calls;
  inner_->on_chunk_locked(path, amount, now);
}

void TimedObserver::on_chunk_settled(const spider::Path& path,
                                     spider::Amount amount,
                                     spider::TimePoint now) {
  const Span span(stats_->observer_s);
  ++stats_->observer_calls;
  inner_->on_chunk_settled(path, amount, now);
}

void TimedObserver::on_poll_round(std::size_t pending, spider::TimePoint now) {
  const Span span(stats_->observer_s);
  ++stats_->observer_calls;
  inner_->on_poll_round(pending, now);
}

void TimedObserver::on_queue_depths(const spider::RouterQueueBank& queues,
                                    spider::TimePoint now) {
  const Span span(stats_->observer_s);
  ++stats_->observer_calls;
  inner_->on_queue_depths(queues, now);
}

void TimedObserver::on_topology_change(const spider::TopologyChange& change,
                                       const spider::Network& network,
                                       spider::TimePoint now) {
  const Span span(stats_->observer_s);
  ++stats_->observer_calls;
  inner_->on_topology_change(change, network, now);
}

void TimedObserver::on_fault(const spider::FaultEvent& fault,
                             const spider::Network& network,
                             spider::TimePoint now) {
  const Span span(stats_->observer_s);
  ++stats_->observer_calls;
  inner_->on_fault(fault, network, now);
}

void TimedObserver::on_window_roll(const spider::WindowInfo& window,
                                   const spider::Network& network) {
  const Clock::time_point rolled = Clock::now();
  stats_->advance_ms.push_back(
      std::chrono::duration<double, std::milli>(rolled - last_roll_).count());
  last_roll_ = rolled;
  const Span span(stats_->observer_s);
  ++stats_->observer_calls;
  inner_->on_window_roll(window, network);
}

TracedSession::TracedSession(
    const spider::SpiderNetwork& network, spider::Scheme scheme,
    std::uint64_t seed, const std::vector<spider::PaymentSpec>* demand_hint,
    const spider::PathCache* shared_paths, spider::Duration metrics_window,
    LayerStats& stats)
    : config_(session_config(network.config(), scheme, seed)),
      network_(network.topology()),
      router_(spider::make_router(scheme, config_), stats),
      sim_(network_, router_, config_.sim) {
  spider::init_router_for_run(router_, network_, config_.sim, demand_hint,
                              shared_paths);
  sim_.set_metrics_window(metrics_window);
  sim_.begin(trace_);
  sim_.begin_topology(churn_);
  sim_.begin_faults(faults_);
}

void TracedSession::submit(const spider::PaymentSpec* specs,
                           std::size_t count) {
  if (count == 0) return;
  trace_.insert(trace_.end(), specs, specs + count);
  sim_.trace_extended();
}

std::size_t TracedSession::release_replayed() {
  const std::size_t count = sim_.trace_releasable();
  if (count == 0) return 0;
  trace_.erase(trace_.begin(),
               trace_.begin() + static_cast<std::ptrdiff_t>(count));
  sim_.trace_released(count);
  return count;
}

spider::SimMetrics TracedSession::drain() {
  sim_.drain();
  return sim_.metrics();
}

}  // namespace perfbench
