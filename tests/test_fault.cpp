// Fault-injection tests: zero-fault byte-identity with the pre-fault
// engine, determinism of faulted runs across every scheme, escrow
// conservation through crash/recover storms (ConservationAuditor), the
// per-cause failure-count invariant, sender retry/backoff/deadline
// semantics, fault-schedule generation, and the strict fault CSV
// round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_schedule.hpp"
#include "sim/fault.hpp"
#include "spider.hpp"
#include "test_support.hpp"

namespace spider {
namespace {

ScenarioInstance small_isp(int payments = 500, std::uint64_t traffic_seed = 21) {
  ScenarioParams params;
  params.payments = payments;
  params.traffic_seed = traffic_seed;
  return build_scenario("isp", params);
}

/// A mixed hand-authored schedule touching every fault kind, timed to
/// interleave densely with a ~1.5 s isp trace.
std::vector<FaultEvent> mixed_schedule(const Graph& graph) {
  std::vector<FaultEvent> faults;
  faults.push_back(FaultEvent::stall(milliseconds(100), 3, milliseconds(400)));
  faults.push_back(FaultEvent::crash(milliseconds(150), 7));
  faults.push_back(FaultEvent::loss(milliseconds(200), 5, 0.5));
  faults.push_back(
      FaultEvent::settle_delay(milliseconds(250), 10, milliseconds(50)));
  faults.push_back(FaultEvent::grief(milliseconds(300), 2, milliseconds(300)));
  faults.push_back(FaultEvent::recover(milliseconds(600), 7));
  faults.push_back(FaultEvent::grief(milliseconds(800), 2, 0));
  faults.push_back(FaultEvent::loss(milliseconds(900), 5, 0.0));
  validate_fault_targets(faults, graph.num_nodes(), graph.num_edges());
  return faults;
}

// --- Zero-fault byte-identity -----------------------------------------

TEST(FaultInjection, ZeroFaultRunIsByteIdenticalToStaticRun) {
  // A session arms its fault chain even when no fault is ever submitted;
  // run_simulation never arms one. Both must produce the same bytes.
  const ScenarioInstance scenario = small_isp(400, 9);
  const SpiderNetwork net(scenario.graph, scenario.config);
  const std::vector<FaultEvent> none;
  for (const Scheme scheme : all_schemes()) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimMetrics plain =
        run_without_session(net, scheme, scenario.trace, 3);
    const SimMetrics empty_faults =
        net.run(scheme, scenario.trace, 3, {}, none);
    expect_identical_metrics(plain, empty_faults);
    EXPECT_EQ(plain.faults_injected, 0);
    EXPECT_EQ(plain.messages_dropped, 0);
    EXPECT_EQ(plain.chunks_faulted, 0);
    EXPECT_EQ(plain.failed_churn, 0);
    EXPECT_EQ(plain.failed_fault, 0);
  }
}

// --- Determinism of faulted runs --------------------------------------

TEST(FaultInjection, FaultedRunsAreDeterministicForEveryScheme) {
  const ScenarioInstance scenario = small_isp();
  const std::vector<FaultEvent> faults = mixed_schedule(scenario.graph);
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (const Scheme scheme : all_schemes()) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimMetrics first = net.run(scheme, scenario.trace, 7, {}, faults);
    const SimMetrics second = net.run(scheme, scenario.trace, 7, {}, faults);
    EXPECT_EQ(first.faults_injected,
              static_cast<std::int64_t>(faults.size()));
    expect_identical_metrics(first, second);
  }
}

/// One past the first entry of `stream` later than `horizon` (the stream's
/// size when none is). Submitting up to there before advance_until(horizon)
/// leaves the stream's chain holding a queued event at the horizon, so the
/// chain never runs dry and is never re-armed at a sequence point the batch
/// run does not share.
template <typename T>
std::size_t span_end(const std::vector<T>& stream, TimePoint horizon,
                     TimePoint T::*time) {
  const auto past = std::find_if(stream.begin(), stream.end(),
                                 [&](const T& e) { return e.*time > horizon; });
  return past == stream.end()
             ? stream.size()
             : static_cast<std::size_t>(past - stream.begin()) + 1;
}

TEST(FaultInjection, StreamedFaultsMatchBatchFaults) {
  // Churn, faults and payments each submitted in three spans, with the
  // clock advanced between spans, replay the batch run exactly — the
  // streaming-equivalence guarantee over all three input chains.
  ScenarioInstance scenario = small_isp();
  ChurnConfig churn_config;
  churn_config.events_per_second = 20.0;
  churn_config.start = milliseconds(100);
  churn_config.stop = scenario.trace.back().arrival;
  churn_config.seed = 5;
  scenario.churn = ChurnSchedule(scenario.graph, churn_config).generate();
  const std::vector<TopologyChange>& churn = scenario.churn;
  const std::vector<FaultEvent> faults = mixed_schedule(scenario.graph);
  const std::vector<PaymentSpec>& trace = scenario.trace;
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (const Scheme scheme : {Scheme::kSpiderWaterfilling,
                              Scheme::kSpeedyMurmurs, Scheme::kSpiderDctcp}) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimMetrics batch = net.run(scheme, trace, 7, churn, faults);
    EXPECT_GT(batch.topology_changes, 0);
    EXPECT_EQ(batch.faults_injected,
              static_cast<std::int64_t>(faults.size()));

    SessionOptions options;
    options.demand_hint = &trace;
    SimSession session = net.session(scheme, 7, options);
    std::size_t churn_at = 0;
    std::size_t faults_at = 0;
    std::size_t trace_at = 0;
    // Churn, then faults, then payments: the canonical order of run().
    const auto submit_through = [&](TimePoint horizon) {
      const std::size_t c = span_end(churn, horizon, &TopologyChange::at);
      const std::size_t f = span_end(faults, horizon, &FaultEvent::at);
      const std::size_t t = span_end(trace, horizon, &PaymentSpec::arrival);
      ASSERT_GT(c, churn_at);
      ASSERT_GT(f, faults_at);
      ASSERT_GT(t, trace_at);
      session.submit_topology(churn.data() + churn_at, c - churn_at);
      session.submit_faults(faults.data() + faults_at, f - faults_at);
      session.submit(trace.data() + trace_at, t - trace_at);
      churn_at = c;
      faults_at = f;
      trace_at = t;
    };
    for (const TimePoint horizon : {milliseconds(250), milliseconds(600)}) {
      submit_through(horizon);
      (void)session.advance_until(horizon);
    }
    submit_through(std::numeric_limits<TimePoint>::max());
    ASSERT_EQ(trace_at, trace.size());
    const SimMetrics streamed = session.drain();
    EXPECT_EQ(session.submitted_topology(), churn.size());
    EXPECT_EQ(session.submitted_faults(), faults.size());
    expect_identical_metrics(batch, streamed);
  }
}

TEST(FaultInjection, SubmitFaultsRejectsOutOfOrderAndPastEvents) {
  const ScenarioInstance scenario = small_isp(50);
  const SpiderNetwork net(scenario.graph, scenario.config);
  SimSession session = net.session(Scheme::kShortestPath, 7);
  session.submit(scenario.trace);
  std::vector<FaultEvent> decreasing{FaultEvent::crash(seconds(1.0), 0),
                                     FaultEvent::crash(seconds(0.5), 1)};
  EXPECT_THROW(session.submit_faults(decreasing), AssertionError);
  // A rejected span leaves the stream untouched: a valid resubmission at
  // the same times still works.
  EXPECT_NO_THROW(session.submit_faults(FaultEvent::crash(seconds(0.5), 1)));
  EXPECT_NO_THROW(session.submit_faults(FaultEvent::crash(seconds(1.0), 0)));
  (void)session.advance_until(seconds(2.0));
  EXPECT_THROW(session.submit_faults(FaultEvent::crash(seconds(1.5), 2)),
               AssertionError);
  (void)session.drain();
}

// --- Conservation under fault storms ----------------------------------

TEST(FaultInjection, CrashRecoverStormConservesEscrowedFunds) {
  const ScenarioInstance scenario = small_isp(600, 33);
  FaultScheduleConfig storm;
  storm.mode = FaultMode::kCrashStorm;
  storm.events_per_second = 40.0;  // dense crash/stall interleave
  storm.start = milliseconds(50);
  storm.stop = scenario.trace.back().arrival;
  storm.stall_mean = milliseconds(200);
  storm.seed = 11;
  const std::vector<FaultEvent> faults =
      FaultSchedule(scenario.graph, storm).generate();
  ASSERT_FALSE(faults.empty());

  const SpiderNetwork net(scenario.graph, scenario.config);
  for (const Scheme scheme :
       {Scheme::kSpiderWaterfilling, Scheme::kMaxFlow,
        Scheme::kSpiderPrimalDual}) {
    SCOPED_TRACE(scheme_name(scheme));
    SimSession session = net.session(scheme, 7);
    ConservationAuditor auditor(std::as_const(session).network());
    session.attach(auditor);
    session.submit_faults(faults);
    session.submit(scenario.trace);
    const SimMetrics m = session.drain();
    EXPECT_GT(m.faults_injected, 0);
    EXPECT_GT(auditor.checks(), 0);
    EXPECT_EQ(auditor.violations(), 0);
  }
}

// --- Per-cause failure counts -----------------------------------------

TEST(FaultInjection, FailureCausesPartitionEveryFailure) {
  const ScenarioInstance scenario = small_isp(600, 33);
  const std::vector<FaultEvent> faults = mixed_schedule(scenario.graph);
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (const Scheme scheme : all_schemes()) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimMetrics m = net.run(scheme, scenario.trace, 7, {}, faults);
    EXPECT_EQ(m.failed_timeout + m.failed_churn + m.failed_fault +
                  m.failed_no_path + m.admission_refused,
              m.expired_count + m.rejected_count);
    EXPECT_EQ(m.failed_churn, 0);  // no churn stream in this run
  }
}

TEST(FaultInjection, TotalLossFailsEverythingAsFaults) {
  // Probability-1 loss on every channel: nothing settles, every non-refused
  // failure is fault-caused, and drops are counted.
  const ScenarioInstance scenario = small_isp(120, 5);
  std::vector<FaultEvent> faults;
  for (EdgeId e = 0; e < scenario.graph.num_edges(); ++e)
    faults.push_back(FaultEvent::loss(0, e, 1.0));
  const SpiderNetwork net(scenario.graph, scenario.config);
  const SimMetrics m =
      net.run(Scheme::kShortestPath, scenario.trace, 7, {}, faults);
  EXPECT_EQ(m.completed_count, 0);
  EXPECT_GT(m.messages_dropped, 0);
  EXPECT_GT(m.failed_fault, 0);
  EXPECT_EQ(m.failed_timeout, 0);
}

// --- Sender retry / backoff / deadline --------------------------------

TEST(FaultInjection, RetryLimitBoundsAttemptsAndFailsEarly) {
  const ScenarioInstance scenario = small_isp(300, 13);
  std::vector<FaultEvent> faults;
  for (EdgeId e = 0; e < scenario.graph.num_edges(); ++e)
    faults.push_back(FaultEvent::loss(0, e, 0.6));

  SpiderConfig limited = scenario.config;
  limited.sim.retry_limit = 2;
  const SimMetrics capped =
      SpiderNetwork(scenario.graph, limited)
          .run(Scheme::kShortestPath, scenario.trace, 7, {}, faults);
  const SimMetrics unlimited =
      SpiderNetwork(scenario.graph, scenario.config)
          .run(Scheme::kShortestPath, scenario.trace, 7, {}, faults);
  EXPECT_GT(unlimited.retries, capped.retries);
  EXPECT_GT(capped.retries, 0);
}

TEST(FaultInjection, BackoffDelaysRetriesDeterministically) {
  const ScenarioInstance scenario = small_isp(300, 13);
  std::vector<FaultEvent> faults;
  for (EdgeId e = 0; e < scenario.graph.num_edges(); ++e)
    faults.push_back(FaultEvent::loss(0, e, 0.6));

  SpiderConfig backoff = scenario.config;
  backoff.sim.retry_backoff = milliseconds(400);
  const SpiderNetwork net(scenario.graph, backoff);
  const SimMetrics first =
      net.run(Scheme::kShortestPath, scenario.trace, 7, {}, faults);
  const SimMetrics second =
      net.run(Scheme::kShortestPath, scenario.trace, 7, {}, faults);
  expect_identical_metrics(first, second);
  // Backed-off senders attempt less often than eager ones.
  const SimMetrics eager =
      SpiderNetwork(scenario.graph, scenario.config)
          .run(Scheme::kShortestPath, scenario.trace, 7, {}, faults);
  EXPECT_LT(first.retries, eager.retries);
}

TEST(FaultInjection, PaymentDeadlineProducesDeadlineMisses) {
  ScenarioInstance scenario = small_isp(300, 13);
  // Strip per-spec deadlines so the config knob governs.
  for (PaymentSpec& spec : scenario.trace) spec.deadline = 0;
  // Milder loss + a multipath scheme: a drop blacklists only one of the
  // sender's paths, so retries have somewhere to land.
  std::vector<FaultEvent> faults;
  for (EdgeId e = 0; e < scenario.graph.num_edges(); ++e)
    faults.push_back(FaultEvent::loss(0, e, 0.3));

  SpiderConfig tight = scenario.config;
  tight.sim.default_deadline = milliseconds(200);
  const SimMetrics rushed =
      SpiderNetwork(scenario.graph, tight)
          .run(Scheme::kSpiderWaterfilling, scenario.trace, 7, {}, faults);
  EXPECT_GT(rushed.deadline_misses, 0);
  // Every payment reaches a terminal state — the regression this test
  // caught: a chunk aborted after the deadline used to leave its payment
  // pending forever, outside every counter.
  EXPECT_EQ(rushed.completed_count + rushed.expired_count +
                rushed.rejected_count + rushed.admission_refused,
            static_cast<std::int64_t>(scenario.trace.size()));
  // A roomy deadline lets retries land where the tight one expired.
  SpiderConfig roomy = scenario.config;
  roomy.sim.default_deadline = seconds(10.0);
  const SimMetrics patient =
      SpiderNetwork(scenario.graph, roomy)
          .run(Scheme::kSpiderWaterfilling, scenario.trace, 7, {}, faults);
  EXPECT_GT(patient.completed_count, rushed.completed_count);
  EXPECT_GT(patient.completion_after_retry, 0);
}

TEST(FaultInjection, BlacklistsLeaveWithTheirPayments) {
  // Griefed units are held 10 s, past every payment's deadline, so each
  // refund (and the blacklist entry it writes) lands after its payment
  // finished; lossy channels add drops. A blacklist must still go when its
  // payment retires: none may name a payment the engine no longer holds,
  // and a drained run keeps none, so the commit-time fault filter turns
  // off again once the grief clears.
  const ScenarioInstance scenario = small_isp(600, 33);
  std::vector<FaultEvent> faults;
  for (NodeId node = 0; node < 8; ++node)
    faults.push_back(FaultEvent::grief(milliseconds(100), node, seconds(10.0)));
  for (EdgeId e = 0; e < scenario.graph.num_edges(); e += 3)
    faults.push_back(FaultEvent::loss(milliseconds(200), e, 0.3));
  for (NodeId node = 0; node < 8; ++node)
    faults.push_back(FaultEvent::grief(seconds(1.0), node, 0));

  for (const Scheme scheme :
       {Scheme::kShortestPath, Scheme::kSpiderWaterfilling}) {
    SCOPED_TRACE(scheme_name(scheme));
    Network network(scenario.graph);
    const std::unique_ptr<Router> router = make_router(scheme, scenario.config);
    init_router_for_run(*router, network, scenario.config.sim,
                        &scenario.trace, nullptr);
    Simulator sim(network, *router, scenario.config.sim);
    sim.begin(scenario.trace);
    sim.begin_faults(faults);
    std::size_t most_blacklisted = 0;
    for (TimePoint t = milliseconds(250); !sim.idle(); t += milliseconds(250)) {
      sim.advance_until(t);
      most_blacklisted = std::max(most_blacklisted, sim.blacklisted_payments());
      EXPECT_LE(sim.blacklisted_payments(), sim.payments().size())
          << "at t=" << t;
    }
    sim.drain();
    const SimMetrics m = sim.metrics();
    EXPECT_GT(m.chunks_faulted, 0);
    EXPECT_GT(most_blacklisted, 0u);
    EXPECT_EQ(sim.blacklisted_payments(), 0u);
    EXPECT_TRUE(sim.payments().empty());
  }
}

TEST(FaultInjection, ConfigRejectsNegativeResilienceKnobs) {
  SpiderConfig config;
  config.sim.retry_limit = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim.retry_limit = 0;
  config.sim.retry_backoff = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim.retry_backoff = 0;
  config.sim.default_deadline = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// --- FaultSchedule generation -----------------------------------------

TEST(FaultSchedule, GenerationIsDeterministic) {
  const ScenarioInstance scenario = small_isp(50);
  for (const FaultMode mode :
       {FaultMode::kCrashStorm, FaultMode::kHubDrain,
        FaultMode::kLossyNetwork, FaultMode::kGriefing}) {
    SCOPED_TRACE(fault_mode_name(mode));
    FaultScheduleConfig config;
    config.mode = mode;
    config.start = milliseconds(100);
    config.stop = seconds(2.0);
    config.seed = 17;
    const FaultSchedule schedule(scenario.graph, config);
    const std::vector<FaultEvent> a = schedule.generate();
    const std::vector<FaultEvent> b = schedule.generate();
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    // Generated schedules are valid submit_faults input as-is.
    TimePoint last = 0;
    for (const FaultEvent& fault : a) {
      EXPECT_GE(fault.at, last);
      last = fault.at;
    }
    validate_fault_targets(a, scenario.graph.num_nodes(),
                           scenario.graph.num_edges());
  }
}

TEST(FaultSchedule, HubDrainTargetsHighestDegreeNodes) {
  const ScenarioInstance scenario = small_isp(50);
  FaultScheduleConfig config;
  config.mode = FaultMode::kHubDrain;
  config.start = milliseconds(100);
  config.stop = seconds(1.0);
  config.node_count = 2;
  const FaultSchedule schedule(scenario.graph, config);
  const std::vector<NodeId> targets = schedule.target_nodes();
  ASSERT_EQ(targets.size(), 2u);
  // No node outranks the chosen hubs by degree.
  int min_target_degree = scenario.graph.num_nodes();
  for (const NodeId hub : targets)
    min_target_degree =
        std::min(min_target_degree,
                 static_cast<int>(scenario.graph.neighbors(hub).size()));
  for (NodeId n = 0; n < scenario.graph.num_nodes(); ++n) {
    if (std::find(targets.begin(), targets.end(), n) != targets.end())
      continue;
    EXPECT_LE(static_cast<int>(scenario.graph.neighbors(n).size()),
              min_target_degree);
  }
}

TEST(FaultSchedule, RejectsInvalidConfigs) {
  const ScenarioInstance scenario = small_isp(50);
  FaultScheduleConfig config;
  config.mode = FaultMode::kCrashStorm;
  config.start = seconds(1.0);
  config.stop = seconds(0.5);  // stop before start
  EXPECT_THROW(FaultSchedule(scenario.graph, config),
               std::invalid_argument);
  config.stop = seconds(2.0);
  config.events_per_second = 0.0;
  EXPECT_THROW(FaultSchedule(scenario.graph, config),
               std::invalid_argument);
  config.events_per_second = 1.0;
  config.mode = FaultMode::kLossyNetwork;
  config.loss_probability = 1.5;
  EXPECT_THROW(FaultSchedule(scenario.graph, config),
               std::invalid_argument);
  config.loss_probability = 0.05;
  config.mode = FaultMode::kHubDrain;
  config.node_count = scenario.graph.num_nodes();  // would drain everything
  EXPECT_THROW(FaultSchedule(scenario.graph, config),
               std::invalid_argument);
  EXPECT_THROW((void)fault_mode_from_name("no-such-mode"),
               std::invalid_argument);
}

// --- Fault CSV round-trip ---------------------------------------------

ScopedTempFile write_temp(const std::string& name, const std::string& body) {
  ScopedTempFile file(name);
  std::ofstream out(file.path(), std::ios::trunc);
  out << body;
  return file;
}

TEST(FaultCsv, RoundTripsEveryKindExactly) {
  const ScenarioInstance scenario = small_isp(50);
  const std::vector<FaultEvent> faults = mixed_schedule(scenario.graph);
  const ScopedTempFile file("fault_roundtrip.csv");
  write_fault_csv(file.path(), faults);
  const std::vector<FaultEvent> read = read_fault_csv(file.path());
  ASSERT_EQ(read.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(read[i], faults[i]);
  }
}

TEST(FaultCsv, GeneratedSchedulesRoundTrip) {
  const ScenarioInstance scenario = small_isp(50);
  FaultScheduleConfig config;
  config.mode = FaultMode::kLossyNetwork;
  config.start = milliseconds(100);
  config.stop = seconds(1.0);
  config.loss_probability = 0.125;  // ppm-exact
  const std::vector<FaultEvent> faults =
      FaultSchedule(scenario.graph, config).generate();
  const ScopedTempFile file("fault_generated.csv");
  write_fault_csv(file.path(), faults);
  const std::vector<FaultEvent> read = read_fault_csv(file.path());
  ASSERT_EQ(read.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) EXPECT_EQ(read[i], faults[i]);
}

TEST(FaultCsv, RejectsCorruptInput) {
  const std::string header = "at_us,kind,node,edge,duration_us,prob_ppm\n";
  const auto expect_rejected = [&](const std::string& name,
                                   const std::string& body) {
    SCOPED_TRACE(name);
    const ScopedTempFile file = write_temp(name, body);
    EXPECT_THROW((void)read_fault_csv(file.path()), std::runtime_error);
  };
  {
    // A path nothing writes: cannot open is also an error.
    const ScopedTempFile missing("missing.csv");
    std::remove(missing.path().c_str());
    try {
      (void)read_fault_csv(missing.path());
      ADD_FAILURE() << "read_fault_csv opened a missing file";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos)
          << e.what();
    }
  }
  expect_rejected("empty.csv", "\n");
  expect_rejected("bad_header.csv", "time,kind,node\n");
  expect_rejected("headerless.csv", "0,crash,1,-1,0,0\n");
  expect_rejected("short_row.csv", header + "0,crash,1,-1,0\n");
  expect_rejected("bad_kind.csv", header + "0,explode,1,-1,0,0\n");
  expect_rejected("bad_int.csv", header + "0,crash,one,-1,0,0\n");
  expect_rejected("trailing_garbage.csv", header + "0,crash,1x,-1,0,0\n");
  expect_rejected("negative_time.csv", header + "-5,crash,1,-1,0,0\n");
  expect_rejected("decreasing.csv",
                  header + "100,crash,1,-1,0,0\n50,recover,1,-1,0,0\n");
  expect_rejected("ppm_range.csv", header + "0,loss,-1,3,0,2000000\n");
  expect_rejected("node_kind_with_edge.csv", header + "0,crash,1,3,0,0\n");
  expect_rejected("edge_kind_with_node.csv", header + "0,loss,1,3,0,0\n");
  expect_rejected("stall_zero_duration.csv", header + "0,stall,1,-1,0,0\n");
  expect_rejected("crash_with_duration.csv", header + "0,crash,1,-1,50,0\n");
  expect_rejected("nonloss_with_ppm.csv",
                  header + "0,grief,1,-1,100,500000\n");
}

TEST(FaultCsv, ValidateTargetsNamesOffender) {
  const ScenarioInstance scenario = small_isp(50);
  std::vector<FaultEvent> bad_node{
      FaultEvent::crash(0, scenario.graph.num_nodes())};
  EXPECT_THROW(validate_fault_targets(bad_node, scenario.graph.num_nodes(),
                                      scenario.graph.num_edges()),
               std::runtime_error);
  std::vector<FaultEvent> bad_edge{
      FaultEvent::loss(0, scenario.graph.num_edges(), 0.1)};
  EXPECT_THROW(validate_fault_targets(bad_edge, scenario.graph.num_nodes(),
                                      scenario.graph.num_edges()),
               std::runtime_error);
  const std::vector<FaultEvent> good = mixed_schedule(scenario.graph);
  EXPECT_NO_THROW(validate_fault_targets(good, scenario.graph.num_nodes(),
                                         scenario.graph.num_edges()));
}

}  // namespace
}  // namespace spider
