#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/replay.hpp"
#include "core/spider.hpp"
#include "helpers.hpp"
#include "sim/observers.hpp"
#include "topology/topology.hpp"
#include "traced.hpp"
#include "workload/size_dist.hpp"
#include "workload/trace_binary.hpp"
#include "workload/trace_io.hpp"

namespace perfbench {

namespace {

using spider::PaymentSpec;
using spider::Scheme;
using spider::SimMetrics;

enum class Mode {
  kBatch,   // session(demand hint) + submit(whole trace) + drain
  kReplay,  // replay_trace(demand hint) streaming .sptr/.sptp files
};

struct WorkloadSpec {
  std::string name;
  Scheme scheme;
  Mode mode;
  bool ripple;             // ripple-like BA credit graph, else the ISP graph
  spider::NodeId nodes;    // ripple-like only
  int payments;
  int lp_max_pairs;        // Spider (LP) only; 0 = every demand pair
};

constexpr double kTxPerSecond = 400.0;  // the scenario registry's default
constexpr std::int64_t kCapacityXrp = 3000;
constexpr std::uint64_t kTopologySeed = 1;
constexpr spider::Duration kReplayWindow = spider::seconds(1.0);
constexpr int kMinRepetitions = 3;
constexpr int kMaxRepetitions = 5000;

// Sizes: on a 4-core x86 KVM guest a repetition takes 0.15 to 0.35 s, so a
// 50 s run gives a hundred or more. Larger working sets outgrow the
// per-core L2 and then run at the speed of the shared L3 and DRAM, which
// the host's other tenants set: at 30k replayed payments one repetition's
// sim phase took 1.4 to 3.3 s within one process. The LP's 300 pairs keep
// its solve in cache; its 100k payments make the demand estimate, and so
// the pairs the LP picks, nearly the same for every seed.
std::vector<WorkloadSpec> workload_specs(Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  return {
      // spider-dctcp streamed from disk on the Ripple-like topology: path
      // warm-up in setup; plan(), the transport hooks, the event loop and
      // the replay path in the sim phase.
      {"ripple-dctcp-replay", Scheme::kSpiderDctcp, Mode::kReplay, true,
       tiny ? 60 : 250, tiny ? 3000 : 5'000, 0},
      // Spider (LP) on ISP: the offline LP solve in setup, the batch event
      // loop in the sim phase.
      {"isp-lp", Scheme::kSpiderLp, Mode::kBatch, false, 0,
       tiny ? 3000 : 100'000, tiny ? 100 : 300},
  };
}

const WorkloadSpec& find_spec(const std::vector<WorkloadSpec>& specs,
                              const std::string& name) {
  for (const WorkloadSpec& spec : specs)
    if (spec.name == name) return spec;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<PaymentSpec> generate_trace(const WorkloadSpec& spec,
                                        const spider::Graph& topology,
                                        std::uint64_t seed) {
  spider::TrafficConfig traffic;
  traffic.tx_per_second = kTxPerSecond;
  traffic.seed = seed;
  const std::unique_ptr<spider::SizeDistribution> sizes =
      spec.ripple ? spider::ripple_subgraph_sizes()
                  : spider::ripple_synthetic_sizes();
  spider::TrafficGenerator generator(topology.num_nodes(), traffic, *sizes);
  return generator.generate(spec.payments);
}

bool same_trace(const std::vector<PaymentSpec>& a,
                const std::vector<PaymentSpec>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const PaymentSpec& x, const PaymentSpec& y) {
                      return x.arrival == y.arrival && x.src == y.src &&
                             x.dst == y.dst && x.amount == y.amount &&
                             x.deadline == y.deadline;
                    });
}

/// The generated inputs of one run. The replay workload streams its trace
/// from disk and keeps the in-memory copy only as the demand hint.
struct Inputs {
  spider::Graph topology;
  spider::SpiderConfig config;
  std::vector<PaymentSpec> trace;
  std::string trace_path;
  std::string topology_path;
};

using Errors = std::vector<std::string>;

void expect(Errors& errors, bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

/// Runs one operation: counts it as attempted, and as failed when it
/// throws or reports an error.
void operation(Outcome& out, const std::string& what,
               const std::function<void(Errors&)>& body) {
  ++out.attempted;
  Errors errors;
  try {
    body(errors);
  } catch (const std::exception& e) {
    errors.push_back(std::string("threw: ") + e.what());
  }
  if (errors.empty()) return;
  ++out.failed;
  for (const std::string& error : errors)
    out.errors.push_back(what + ": " + error);
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   const std::string& workdir, Outcome& out) {
  Inputs in;
  in.topology = spec.ripple ? spider::ripple_like_topology(
                                  spec.nodes, spider::xrp(kCapacityXrp),
                                  kTopologySeed)
                            : spider::isp_topology(spider::xrp(kCapacityXrp),
                                                   kTopologySeed);
  in.config.lp_max_pairs = spec.lp_max_pairs;
  in.trace = generate_trace(spec, in.topology, seed);
  operation(out, "seed check", [&](Errors& errors) {
    expect(errors,
           same_trace(in.trace, generate_trace(spec, in.topology, seed)),
           "one seed generated two different traces");
    expect(errors,
           !same_trace(in.trace, generate_trace(spec, in.topology, seed + 1)),
           "seeds " + std::to_string(seed) + " and " +
               std::to_string(seed + 1) + " generated the same trace");
  });
  if (spec.mode == Mode::kReplay) {
    std::filesystem::create_directories(workdir);
    const std::string stem =
        workdir + "/" + spec.name + "-" + std::to_string(seed);
    in.trace_path = stem + ".sptr";
    in.topology_path = stem + ".sptp";
    spider::write_trace_binary(in.trace_path, in.trace);
    spider::write_topology_binary(in.topology, in.topology_path);
  }
  return in;
}

/// Output checks every finished run must pass.
void check_metrics(const SimMetrics& m, std::size_t payments, Errors& errors) {
  expect(errors, m.attempted_count == static_cast<std::int64_t>(payments),
         "attempted_count " + std::to_string(m.attempted_count) + " != " +
             std::to_string(payments) + " payments");
  expect(errors, m.completed_count <= m.attempted_count,
         "completed_count exceeds attempted_count");
  expect(errors, m.delivered_volume <= m.attempted_volume,
         "delivered_volume exceeds attempted_volume");
  expect(errors,
         m.completed_count + m.expired_count + m.rejected_count ==
             m.attempted_count,
         "a payment was left unresolved after drain");
  expect(errors,
         m.failed_timeout + m.failed_churn + m.failed_fault +
                 m.failed_no_path + m.admission_refused ==
             m.expired_count + m.rejected_count,
         "failure causes do not partition expired + rejected");
}

/// drain() conservation, checked from outside: every channel's invariant
/// holds and no value appeared or vanished.
void check_network(const spider::Network& network,
                   const spider::Graph& topology, Errors& errors) {
  network.check_invariants();
  const spider::Network fresh(topology);
  expect(errors,
         network.total_funds() + network.escrow_returned() -
                 network.onchain_inflow() ==
             fresh.total_funds() + fresh.escrow_returned() -
                 fresh.onchain_inflow(),
         "channel funds not conserved across the run");
}

/// One untraced run from generated inputs to drain.
struct Repetition {
  double setup_s = 0;
  double sim_s = 0;
  double rss_mb = 0;  // peak resident set; measured on repetition 0 only
  SimMetrics metrics;
};

Repetition run_batch(const WorkloadSpec& spec, const Inputs& in,
                     std::uint64_t seed, Errors& errors) {
  Repetition rep;
  const Clock::time_point setup_start = Clock::now();
  const spider::SpiderNetwork network(in.topology, in.config);
  spider::SessionOptions options;
  options.demand_hint = &in.trace;
  spider::SimSession session = network.session(spec.scheme, seed, options);
  rep.setup_s = seconds_since(setup_start);

  const Clock::time_point start = Clock::now();
  session.submit(in.trace);
  rep.metrics = session.drain();
  rep.sim_s = seconds_since(start);
  check_metrics(rep.metrics, in.trace.size(), errors);
  check_network(std::as_const(session).network(), in.topology, errors);
  return rep;
}

Repetition run_replay(const WorkloadSpec& spec, const Inputs& in,
                      std::uint64_t seed, Errors& errors) {
  Repetition rep;
  const Clock::time_point setup_start = Clock::now();
  const spider::SpiderNetwork network(
      spider::read_topology_any(in.topology_path), in.config);
  // replay_trace builds its session inside; warming here keeps the path
  // warm-up in setup (the session's own warm pass then finds every pair).
  network.warm_paths(in.trace);
  spider::BinaryTraceReader reader(in.trace_path);
  rep.setup_s = seconds_since(setup_start);

  const Clock::time_point start = Clock::now();
  spider::WindowedMetrics windows;
  spider::ReplayOptions options;
  options.metrics_window = kReplayWindow;
  options.demand_hint = &in.trace;
  options.observers = {&windows};
  const spider::ReplayResult result =
      spider::replay_trace(network, spec.scheme, seed, reader, options);
  rep.sim_s = seconds_since(start);
  rep.metrics = result.metrics;
  check_metrics(rep.metrics, reader.record_count(), errors);
  expect(errors, result.payments == reader.record_count(),
         "replay_trace did not consume the whole trace");
  return rep;
}

Repetition run_untraced(const WorkloadSpec& spec, const Inputs& in,
                        std::uint64_t seed, Errors& errors) {
  return spec.mode == Mode::kBatch ? run_batch(spec, in, seed, errors)
                                   : run_replay(spec, in, seed, errors);
}

/// The replay workload's streamed == batch gate: a batch session over the
/// same trace (read back whole from the file) must end byte-identical.
void check_streamed_equals_batch(const WorkloadSpec& spec, const Inputs& in,
                                 std::uint64_t seed,
                                 const SimMetrics& streamed, Errors& errors) {
  const std::vector<PaymentSpec> trace = spider::read_trace_any(in.trace_path);
  const spider::SpiderNetwork network(
      spider::read_topology_any(in.topology_path), in.config);
  spider::SessionOptions options;
  options.demand_hint = &trace;
  spider::SimSession session = network.session(spec.scheme, seed, options);
  session.submit(trace);
  const SimMetrics batch = session.drain();
  check_metrics(batch, trace.size(), errors);
  check_network(std::as_const(session).network(), network.topology(), errors);
  expect(errors, batch == streamed,
         "streamed replay metrics differ from a batch run of the same trace");
}

struct TracedRun {
  LayerStats stats;
  SimMetrics metrics;
  double setup_s = 0;
  double phase_s = 0;
  double warm_s = 0;
  std::size_t pairs = 0;
  std::size_t paths = 0;
  std::size_t payments_resident = 0;
  std::size_t peak_buffered = 0;
  int zero_weight_pairs = 0;
};

TracedRun run_traced(const WorkloadSpec& spec, const Inputs& in,
                     std::uint64_t seed, Errors& errors) {
  TracedRun run;
  LayerStats& stats = run.stats;
  const Clock::time_point setup_start = Clock::now();
  std::optional<spider::SpiderNetwork> network;
  std::unique_ptr<spider::BinaryTraceReader> reader;
  const std::vector<PaymentSpec>* hint = &in.trace;
  if (spec.mode == Mode::kBatch) {
    network.emplace(in.topology, in.config);
  } else {
    network.emplace(spider::read_topology_any(in.topology_path), in.config);
    reader = std::make_unique<spider::BinaryTraceReader>(in.trace_path);
  }
  // SpiderNetwork::session's warm rule: path-store schemes with a demand
  // hint warm up front.
  const bool warms = spider::scheme_uses_path_store(spec.scheme);
  if (warms) {
    const Clock::time_point warm_start = Clock::now();
    network->warm_paths(*hint);
    run.warm_s = seconds_since(warm_start);
  }
  const spider::PathCache* store = warms ? network->path_store() : nullptr;
  if (store != nullptr) {
    run.pairs = store->pair_count();
    run.paths = store->path_count();
  }
  const spider::Duration window =
      spec.mode == Mode::kReplay ? kReplayWindow : spider::Duration{0};
  TracedSession session(*network, spec.scheme, seed, hint, store, window,
                        stats);
  spider::WindowedMetrics windows;
  std::optional<TimedObserver> observer;
  if (spec.mode == Mode::kReplay) {
    observer.emplace(windows, stats);
    session.attach(*observer);
  }
  run.setup_s = seconds_since(setup_start);

  const Clock::time_point phase_start = Clock::now();
  std::size_t payments = 0;
  if (spec.mode == Mode::kBatch) {
    // Stepping advance_until in 1 s of simulated time keeps the batch
    // event order (core/session.hpp) and times each simulated second.
    session.submit(in.trace.data(), in.trace.size());
    run.peak_buffered = session.buffered();
    for (spider::TimePoint horizon = spider::seconds(1.0); !session.idle();
         horizon += spider::seconds(1.0)) {
      const Clock::time_point step = Clock::now();
      session.advance_until(horizon);
      stats.advance_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - step)
              .count());
    }
    payments = in.trace.size();
  } else {
    // replay_trace's loop (core/replay.cpp), over the traced session.
    TimedTraceSource source(*reader, stats);
    const spider::NodeId num_nodes = network->topology().num_nodes();
    while (true) {
      const std::span<const PaymentSpec> chunk = source.next();
      if (chunk.empty()) break;
      spider::validate_trace_nodes(chunk.data(), chunk.size(), num_nodes,
                                   source.payments_read() - chunk.size());
      session.submit(chunk.data(), chunk.size());
      run.peak_buffered = std::max(run.peak_buffered, session.buffered());
      session.advance_until(chunk.back().arrival - 1);
      session.release_replayed();
    }
    payments = source.payments_read();
  }
  run.metrics = session.drain();
  run.phase_s = seconds_since(phase_start);
  run.payments_resident = session.payments().size();
  if (const auto* lp =
          dynamic_cast<const spider::LpRouter*>(&session.router().inner()))
    run.zero_weight_pairs = lp->zero_weight_pairs();
  check_metrics(run.metrics, payments, errors);
  check_network(session.network(), network->topology(), errors);
  return run;
}

std::size_t lp_pairs(const WorkloadSpec& spec, const Inputs& in) {
  if (spec.scheme != Scheme::kSpiderLp) return 0;
  const std::size_t demand_pairs =
      spider::estimate_demand_matrix(in.topology.num_nodes(), in.trace)
          .edges()
          .size();
  const auto cap = static_cast<std::size_t>(spec.lp_max_pairs);
  return cap > 0 ? std::min(demand_pairs, cap) : demand_pairs;
}

void add(Outcome& out, const std::string& name, double value,
         const std::string& unit) {
  out.metrics.push_back({name, value, unit});
}

void measure_end_to_end(const WorkloadSpec& spec, const Inputs& in,
                        const RunRequest& request, Outcome& out) {
  // Repetition 0 runs in the fresh process: it gives peak_rss_mb (a later
  // repetition's peak would include heap the allocator kept from the one
  // before) and warms the heap, so it is left out of the timings.
  std::vector<Repetition> reps;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(reps.size()) < kMaxRepetitions &&
         (static_cast<int>(reps.size()) <= kMinRepetitions ||
          seconds_since(start) < request.seconds)) {
    std::optional<Repetition> rep;
    operation(out, "repetition " + std::to_string(reps.size()),
              [&](Errors& errors) {
                if (reps.empty()) reset_peak_rss();
                rep = run_untraced(spec, in, request.seed, errors);
                if (reps.empty()) rep->rss_mb = peak_rss_mb();
                else
                  expect(errors, rep->metrics == reps.front().metrics,
                         "same seed, different SimMetrics");
              });
    if (!rep) return;
    reps.push_back(std::move(*rep));
  }
  if (spec.mode == Mode::kReplay)
    operation(out, "streamed == batch", [&](Errors& errors) {
      check_streamed_equals_batch(spec, in, request.seed, reps.front().metrics,
                                  errors);
    });

  std::vector<double> setup, rate;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    setup.push_back(reps[i].setup_s);
    rate.push_back(ratio(static_cast<double>(reps[i].metrics.attempted_count),
                         reps[i].sim_s));
  }
  out.samples = {{"setup_s", setup}, {"payments_per_s", rate}};
  const SimMetrics& m = reps.front().metrics;
  // Every repetition does the same simulated work, and a shared host only
  // ever adds time to it, so the fastest sim phase is the estimate of the
  // program's speed that the other tenants move least (the minimum-time
  // estimator of Chen & Revels, "Robust benchmarking in noisy
  // environments", 2016). Set-up time is the median over the repetitions.
  add(out, "setup_s", median(setup), "s");
  add(out, "payments_per_s", *std::max_element(rate.begin(), rate.end()),
      "payments/s");
  add(out, "peak_rss_mb", reps.front().rss_mb, "MB");
  add(out, "success_ratio", m.success_ratio(), "fraction");
  add(out, "success_volume", m.success_volume(), "fraction");
}

void measure_layers(const WorkloadSpec& spec, const Inputs& in,
                    const RunRequest& request, Outcome& out) {
  // Untraced and traced runs alternate for the requested time, so each
  // overhead ratio compares two runs made under the same host conditions.
  std::vector<TracedRun> runs;
  std::vector<double> overhead;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(runs.size()) < kMaxRepetitions &&
         (runs.empty() || seconds_since(start) < request.seconds)) {
    const std::string index = std::to_string(runs.size());
    std::optional<Repetition> plain;
    operation(out, "untraced run " + index, [&](Errors& errors) {
      plain = run_untraced(spec, in, request.seed, errors);
    });
    std::optional<TracedRun> traced;
    operation(out, "traced run " + index, [&](Errors& errors) {
      traced = run_traced(spec, in, request.seed, errors);
      if (plain)
        expect(errors, traced->metrics == plain->metrics,
               "traced SimMetrics differ from the untraced run's");
    });
    if (!plain || !traced) return;
    overhead.push_back(ratio(traced->setup_s + traced->phase_s,
                             plain->setup_s + plain->sim_s));
    runs.push_back(std::move(*traced));
  }
  // Report one whole traced run, the one with the median sim phase, so its
  // spans still add up to its phase.
  std::sort(runs.begin(), runs.end(),
            [](const TracedRun& a, const TracedRun& b) {
              return a.phase_s < b.phase_s;
            });
  const TracedRun* traced = &runs[(runs.size() - 1) / 2];
  out.samples = {{"trace.overhead_x", overhead}};

  const LayerStats& s = traced->stats;
  const SimMetrics& m = traced->metrics;
  const double self_s = traced->phase_s - s.plan_s - s.transport_s -
                        s.observer_s - s.parse_s;
  const auto count = [](auto v) { return static_cast<double>(v); };
  add(out, "core.setup_s", traced->setup_s, "s");
  add(out, "graph.warm_s", traced->warm_s, "s");
  add(out, "graph.pairs", count(traced->pairs), "count");
  add(out, "graph.paths", count(traced->paths), "count");
  add(out, "graph.us_per_pair",
      ratio(traced->warm_s * 1e6, count(traced->pairs)), "us");
  add(out, "fluid.router_init_s", s.router_init_s, "s");
  add(out, "fluid.lp_pairs", count(lp_pairs(spec, in)), "count");
  add(out, "fluid.zero_weight_pairs", count(traced->zero_weight_pairs),
      "count");
  add(out, "routing.plan_s", s.plan_s, "s");
  add(out, "routing.plans", count(s.plans), "count");
  add(out, "routing.plan_ns", ratio(s.plan_s * 1e9, count(s.plans)), "ns");
  add(out, "routing.plan_yield", ratio(count(s.nonempty_plans), count(s.plans)),
      "fraction");
  add(out, "transport.hook_s", s.transport_s, "s");
  add(out, "transport.hook_calls", count(s.transport_calls), "count");
  add(out, "transport.chunks_marked", count(m.chunks_marked), "count");
  add(out, "transport.mark_ratio",
      ratio(count(m.chunks_marked), count(m.chunks_sent)), "fraction");
  add(out, "transport.pace_rounds", count(m.pace_rounds), "count");
  add(out, "sim.phase_s", traced->phase_s, "s");
  add(out, "sim.self_s", self_s, "s");
  add(out, "sim.events", count(m.events_processed), "count");
  add(out, "sim.ns_per_event", ratio(self_s * 1e9, count(m.events_processed)),
      "ns");
  add(out, "sim.chunks_sent", count(m.chunks_sent), "count");
  add(out, "sim.retries", count(m.retries), "count");
  add(out, "sim.chunks_queued", count(m.chunks_queued), "count");
  add(out, "sim.queue_timeouts", count(m.queue_timeouts), "count");
  add(out, "sim.payments_resident", count(traced->payments_resident), "count");
  add(out, "core.replay_peak_buffered", count(traced->peak_buffered), "count");
  add(out, "workload.parse_s", s.parse_s, "s");
  add(out, "workload.parse_payments_per_s",
      ratio(count(s.parsed_payments), s.parse_s), "payments/s");
  add(out, "observer.hook_s", s.observer_s, "s");
  add(out, "observer.calls", count(s.observer_calls), "count");
  add(out, "core.advance_p50_ms", percentile(s.advance_ms, 50), "ms");
  add(out, "core.advance_p99_ms", percentile(s.advance_ms, 99), "ms");
  add(out, "trace.overhead_x", median(overhead), "x");
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : workload_specs(Scale::kFull))
    names.push_back(spec.name);
  return names;
}

Outcome run_workload(const RunRequest& request) {
  const std::vector<WorkloadSpec> specs = workload_specs(request.scale);
  const WorkloadSpec& spec = find_spec(specs, request.workload);
  Outcome out;
  const Inputs in = make_inputs(spec, request.seed, request.workdir, out);
  if (request.trace)
    measure_layers(spec, in, request, out);
  else
    measure_end_to_end(spec, in, request, out);
  if (spec.mode == Mode::kReplay) {
    std::filesystem::remove(in.trace_path);
    std::filesystem::remove(in.topology_path);
  }
  return out;
}

}  // namespace perfbench
