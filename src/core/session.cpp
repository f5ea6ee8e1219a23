#include "core/session.hpp"

namespace spider {

namespace {

/// Transport-dependent schemes (scheme_requires_transport) only function
/// with router queues live and the AIMD feedback flowing; when the caller
/// left the transport off, turn it on (paper-default knobs) and switch to
/// router-queue mode. A caller that explicitly enabled the transport keeps
/// every knob as set, including its chosen queueing mode.
SpiderConfig apply_transport_defaults(SpiderConfig config, Scheme scheme) {
  if (scheme_requires_transport(scheme) && !config.sim.transport.enabled) {
    config.sim.transport.enabled = true;
    config.sim.queueing = QueueingMode::kRouterQueue;
  }
  return config;
}

void check_entry(const PaymentSpec& spec) { check_payment_amount(spec); }
void check_entry(const TopologyChange&) {}
void check_entry(const FaultEvent&) {}

/// Validate-then-commit for one input stream: the whole span is checked
/// before anything is appended, so a rejected span leaves the stream
/// exactly as it was (no half-committed prefix whose events were never
/// scheduled). Then `extended` tells the simulator the stream grew.
template <typename T>
void submit_stream(Simulator& sim, std::vector<T>& stream, const T* entries,
                   std::size_t count, TimePoint T::*time,
                   void (Simulator::*extended)()) {
  if (count == 0) return;
  TimePoint last = stream.empty() ? sim.horizon() : stream.back().*time;
  for (std::size_t i = 0; i < count; ++i) {
    check_entry(entries[i]);
    // horizon(), not now(): advance_until declares time passed (and rolls
    // metric windows) up to its horizon, so entries before it would land
    // in windows already emitted.
    SPIDER_ASSERT_MSG(entries[i].*time >= sim.horizon(),
                      "submitted input lies in the clock's past");
    SPIDER_ASSERT_MSG(entries[i].*time >= last,
                      "submissions must be in nondecreasing time order");
    last = entries[i].*time;
  }
  stream.insert(stream.end(), entries, entries + count);
  (sim.*extended)();
}

}  // namespace

struct SimSession::State {
  SpiderConfig config;
  Scheme scheme;
  Network network;
  std::unique_ptr<Router> router;
  Simulator sim;
  // The three input streams the simulator's chains read (submit_stream
  // appends; the vector objects stay put, since the simulator holds
  // pointers to them). release_replayed() may erase a fully-consumed
  // prefix of `trace` (the simulator rebases via trace_released).
  std::vector<PaymentSpec> trace;
  std::vector<TopologyChange> churn;
  std::vector<FaultEvent> faults;
  // Lifetime submission count — trace.size() no longer is one once a
  // replay starts releasing consumed entries.
  std::size_t submitted_total = 0;

  State(const Graph& topology, const SpiderConfig& cfg, Scheme s,
        const SessionOptions& options, const PathCache* shared_paths)
      : config(apply_transport_defaults(cfg, s)),
        scheme(s),
        network(topology),
        router(make_router(s, config)),
        sim(network, *router, config.sim) {
    init_router_for_run(*router, network, config.sim, options.demand_hint,
                        shared_paths);
    sim.set_metrics_window(options.metrics_window);
    sim.begin(trace);
    sim.begin_topology(churn);
    sim.begin_faults(faults);
  }
};

SimSession::SimSession(const Graph& topology, const SpiderConfig& config,
                       Scheme scheme, const SessionOptions& options,
                       const PathCache* shared_paths)
    : state_(std::make_unique<State>(topology, config, scheme, options,
                                     shared_paths)) {}

SimSession::~SimSession() = default;
SimSession::SimSession(SimSession&&) noexcept = default;
SimSession& SimSession::operator=(SimSession&&) noexcept = default;

void SimSession::submit(const PaymentSpec& spec) { submit(&spec, 1); }

void SimSession::submit(const PaymentSpec* specs, std::size_t count) {
  State& s = *state_;
  submit_stream(s.sim, s.trace, specs, count, &PaymentSpec::arrival,
                &Simulator::trace_extended);
  s.submitted_total += count;
}

void SimSession::submit(const std::vector<PaymentSpec>& specs) {
  submit(specs.data(), specs.size());
}

void SimSession::submit_topology(const TopologyChange& change) {
  submit_topology(&change, 1);
}

void SimSession::submit_topology(const TopologyChange* changes,
                                 std::size_t count) {
  State& s = *state_;
  submit_stream(s.sim, s.churn, changes, count, &TopologyChange::at,
                &Simulator::topology_extended);
}

void SimSession::submit_topology(const std::vector<TopologyChange>& changes) {
  submit_topology(changes.data(), changes.size());
}

void SimSession::submit_faults(const FaultEvent& fault) {
  submit_faults(&fault, 1);
}

void SimSession::submit_faults(const FaultEvent* faults, std::size_t count) {
  State& s = *state_;
  submit_stream(s.sim, s.faults, faults, count, &FaultEvent::at,
                &Simulator::faults_extended);
}

void SimSession::submit_faults(const std::vector<FaultEvent>& faults) {
  submit_faults(faults.data(), faults.size());
}

void SimSession::attach(SimObserver& observer) { state_->sim.attach(observer); }

std::size_t SimSession::advance_until(TimePoint horizon) {
  return state_->sim.advance_until(horizon);
}

std::size_t SimSession::release_replayed() {
  State& s = *state_;
  const std::size_t count = s.sim.trace_releasable();
  if (count == 0) return 0;
  s.trace.erase(s.trace.begin(),
                s.trace.begin() + static_cast<std::ptrdiff_t>(count));
  s.sim.trace_released(count);
  return count;
}

SimMetrics SimSession::drain() {
  state_->sim.drain();
  return state_->sim.metrics();
}

SimMetrics SimSession::metrics() const { return state_->sim.metrics(); }

TimePoint SimSession::now() const { return state_->sim.now(); }

bool SimSession::idle() const { return state_->sim.idle(); }

std::size_t SimSession::submitted() const {
  return state_->submitted_total;
}

std::size_t SimSession::buffered() const { return state_->trace.size(); }

Scheme SimSession::scheme() const { return state_->scheme; }

const Router& SimSession::router() const { return *state_->router; }

const std::vector<Payment>& SimSession::payments() const {
  return state_->sim.payments();
}

std::size_t SimSession::submitted_topology() const {
  return state_->churn.size();
}

std::size_t SimSession::submitted_faults() const {
  return state_->faults.size();
}

Network& SimSession::network() {
  // Handing out mutable network access IS a topology/capacity mutation as
  // far as routers can tell (they cannot observe what the caller does with
  // it), so raise the same generation bump the scheduled-churn path does.
  // Previously such mutations were silent and routers kept planning over
  // stale topology-derived state.
  state_->network.note_external_mutation();
  return state_->network;
}

const Network& SimSession::network() const { return state_->network; }

}  // namespace spider
