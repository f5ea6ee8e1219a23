// Session API tests: batch/streaming equivalence across every scheme and
// both queueing modes, the fixed-seed golden regression pinning run()'s
// aggregate metrics across the stepping refactor, observer hook
// accounting, windowed steady-state metrics, and dynamic mid-run scenario
// injection.
#include <gtest/gtest.h>

#include <functional>

#include "spider.hpp"
#include "test_support.hpp"

namespace spider {
namespace {

void expect_identical(const SimMetrics& a, const SimMetrics& b) {
  expect_identical_metrics(a, b);
}

ScenarioInstance small_isp() {
  ScenarioParams params;
  params.payments = 600;
  params.traffic_seed = 33;
  return build_scenario("isp", params);
}

/// Submits the trace in three arrival-ordered spans with mid-run stepping
/// and snapshots in between — the streaming pattern the equivalence
/// guarantee covers (every span submitted before the clock reaches it).
SimMetrics run_via_session(const SpiderNetwork& net, Scheme scheme,
                           const std::vector<PaymentSpec>& trace,
                           std::uint64_t seed) {
  SessionOptions options;
  options.demand_hint = &trace;
  SimSession session = net.session(scheme, seed, options);
  const std::size_t third = trace.size() / 3;
  session.submit(trace.data(), third);
  session.submit(trace.data() + third, third);
  const std::size_t advanced =
      session.advance_until(trace[third].arrival);  // mid-run stepping
  EXPECT_GT(advanced, 0u);
  const SimMetrics snapshot = session.metrics();  // mid-run snapshot
  EXPECT_LE(snapshot.completed_count, snapshot.attempted_count);
  session.submit(trace.data() + 2 * third, trace.size() - 2 * third);
  return session.drain();
}

TEST(SimSession, MatchesBatchRunForEveryScheme) {
  const ScenarioInstance scenario = small_isp();
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (const Scheme scheme : all_schemes()) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimMetrics batch = net.run(scheme, scenario.trace, 7);
    const SimMetrics streamed =
        run_via_session(net, scheme, scenario.trace, 7);
    expect_identical(batch, streamed);
  }
}

TEST(SimSession, MatchesBatchRunInRouterQueueMode) {
  ScenarioInstance scenario = small_isp();
  scenario.config.sim.queueing = QueueingMode::kRouterQueue;
  const SpiderNetwork net(scenario.graph, scenario.config);
  // Router-queue mode requires non-atomic schemes.
  for (const Scheme scheme :
       {Scheme::kSpiderWaterfilling, Scheme::kSpiderLp,
        Scheme::kShortestPath, Scheme::kSpiderPrimalDual}) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimMetrics batch = net.run(scheme, scenario.trace, 7);
    const SimMetrics streamed =
        run_via_session(net, scheme, scenario.trace, 7);
    expect_identical(batch, streamed);
  }
}

// Pinned from the pre-session batch implementation (isp scenario, 800
// payments, traffic seed 21, sim seed 42): the stepping refactor and the
// session-backed run() wrapper must reproduce these aggregates bit for
// bit. If a future PR changes simulation SEMANTICS deliberately, repin.
TEST(SimSession, GoldenFixedSeedMetricsSurviveRefactors) {
  ScenarioParams params;
  params.payments = 800;
  params.traffic_seed = 21;
  const ScenarioInstance scenario = build_scenario("isp", params);
  const SpiderNetwork net(scenario.graph, scenario.config);

  const SimMetrics wf = net.run(Scheme::kSpiderWaterfilling,
                                scenario.trace, 42);
  EXPECT_EQ(wf.attempted_count, 800);
  EXPECT_EQ(wf.attempted_volume, 121894118);
  EXPECT_EQ(wf.completed_count, 774);
  EXPECT_EQ(wf.completed_volume, 115842207);
  EXPECT_EQ(wf.delivered_volume, 116912790);
  EXPECT_EQ(wf.expired_count, 26);
  EXPECT_EQ(wf.rejected_count, 0);
  EXPECT_EQ(wf.chunks_sent, 1233);
  EXPECT_EQ(wf.retry_rounds, 12);
  EXPECT_EQ(wf.events_processed, 2045u);
  EXPECT_EQ(wf.plans_requested, 1090);
  EXPECT_DOUBLE_EQ(wf.completion_latency_s.mean(), 0.51267778682170551);
  EXPECT_DOUBLE_EQ(wf.chunk_hops.mean(), 2.4038929440389318);
  EXPECT_DOUBLE_EQ(wf.final_mean_imbalance_xrp, 1824.1925789473687);
  EXPECT_DOUBLE_EQ(wf.sim_duration_s, 7.0107460000000001);

  const SimMetrics sp = net.run(Scheme::kShortestPath, scenario.trace, 42);
  EXPECT_EQ(sp.completed_count, 713);
  EXPECT_EQ(sp.delivered_volume, 106844932);
  EXPECT_EQ(sp.chunks_sent, 819);
  EXPECT_EQ(sp.events_processed, 1633u);
  EXPECT_DOUBLE_EQ(sp.sim_duration_s, 7.3314360000000001);

  const SimMetrics sm = net.run(Scheme::kSpeedyMurmurs, scenario.trace, 42);
  EXPECT_EQ(sm.completed_count, 662);
  EXPECT_EQ(sm.rejected_count, 138);
  EXPECT_EQ(sm.delivered_volume, 91152246);
  EXPECT_EQ(sm.events_processed, 2786u);
  EXPECT_DOUBLE_EQ(sm.sim_duration_s, 2.4869690000000002);
}

/// The aggregates a router-queue golden run pins: counts and volumes, the
/// event total, and the counters each run exists to exercise.
struct GoldenRun {
  std::int64_t attempted_count;
  Amount attempted_volume;
  std::int64_t completed_count;
  Amount completed_volume;
  Amount delivered_volume;
  std::int64_t expired_count;
  std::int64_t rejected_count;
  std::int64_t chunks_sent;
  std::uint64_t events_processed;
  std::int64_t queue_timeouts;
  std::int64_t chunks_marked;
  std::int64_t pace_rounds;
  std::int64_t chunks_churned;
  std::int64_t messages_dropped;
  std::int64_t chunks_faulted;
  std::int64_t served_waits;
  std::int64_t served_wait_sum_us;
  double sim_duration_s;
};

void expect_golden(const SimMetrics& m, const GoldenRun& g) {
  EXPECT_EQ(m.attempted_count, g.attempted_count);
  EXPECT_EQ(m.attempted_volume, g.attempted_volume);
  EXPECT_EQ(m.completed_count, g.completed_count);
  EXPECT_EQ(m.completed_volume, g.completed_volume);
  EXPECT_EQ(m.delivered_volume, g.delivered_volume);
  EXPECT_EQ(m.expired_count, g.expired_count);
  EXPECT_EQ(m.rejected_count, g.rejected_count);
  EXPECT_EQ(m.chunks_sent, g.chunks_sent);
  EXPECT_EQ(m.events_processed, g.events_processed);
  EXPECT_EQ(m.queue_timeouts, g.queue_timeouts);
  EXPECT_EQ(m.chunks_marked, g.chunks_marked);
  EXPECT_EQ(m.pace_rounds, g.pace_rounds);
  EXPECT_EQ(m.chunks_churned, g.chunks_churned);
  EXPECT_EQ(m.messages_dropped, g.messages_dropped);
  EXPECT_EQ(m.chunks_faulted, g.chunks_faulted);
  EXPECT_EQ(m.served_queue_wait_us.count(), g.served_waits);
  EXPECT_EQ(m.served_queue_wait_us.sum(), g.served_wait_sum_us);
  EXPECT_DOUBLE_EQ(m.sim_duration_s, g.sim_duration_s);
}

SimMetrics run_golden(const std::string& name, int transport,
                      QueueingMode queueing, Scheme scheme) {
  ScenarioParams params;
  params.payments = 1500;
  params.traffic_seed = 21;
  params.transport = transport;
  ScenarioInstance scenario = build_scenario(name, params);
  scenario.config.sim.queueing = queueing;
  const SpiderNetwork net(scenario.graph, scenario.config);
  return net.run(scheme, scenario.trace, 42, scenario.churn, scenario.faults);
}

// Pinned at the engine that still wrote the chunk lifecycle once per
// queueing mode (1500 payments, traffic seed 21, sim seed 42). Each run
// exists for one mechanism and asserts its counter is live, so a refactor
// of the lock/settle/abort/dequeue paths cannot pass by never reaching
// them: queue timeouts, marks and pace rounds (isp with the transport on),
// churn of queued and locked units (router-queue partition-heal), drop
// aborts (router-queue lossy-network), atomic sibling rollback
// (source-queue SpeedyMurmurs on partition-heal) and grief refunds
// (source-queue griefing). The served-wait count and µs sum are the pinned
// wait count and mean of every dequeue minus the timed-out units (each
// waited exactly the 1 s queue_timeout) and, on partition-heal, the units
// churned while queued.
TEST(SimSession, GoldenRouterQueueMetricsSurviveRefactors) {
  const QueueingMode rq = QueueingMode::kRouterQueue;
  const QueueingMode sq = QueueingMode::kSourceQueue;

  const SimMetrics dctcp = run_golden("isp", 1, rq, Scheme::kSpiderDctcp);
  expect_golden(dctcp, {1500, 239111494, 1220, 168410264, 190663213, 280, 0,
                        4825, 14126u, 2415, 820, 89, 0, 0, 0, 936,
                        434468804, 10.310181});
  EXPECT_GT(dctcp.queue_timeouts, 0);
  EXPECT_GT(dctcp.chunks_marked, 0);
  EXPECT_GT(dctcp.pace_rounds, 0);

  const SimMetrics bp = run_golden("isp", 1, rq, Scheme::kBackpressure);
  expect_golden(bp, {1500, 239111494, 1263, 178084561, 189555539, 237, 0,
                     3481, 10327u, 1774, 675, 74, 0, 0, 0, 756,
                     404704248, 10.358561999999999});
  EXPECT_GT(bp.queue_timeouts, 0);
  EXPECT_GT(bp.chunks_marked, 0);
  EXPECT_GT(bp.pace_rounds, 0);

  const SimMetrics churn_rq =
      run_golden("partition-heal", 0, rq, Scheme::kSpiderWaterfilling);
  expect_golden(churn_rq, {1500, 492284471, 1217, 336485424, 381098003, 283,
                           0, 4173, 13554u, 1046, 0, 0, 174, 0, 0, 686,
                           297840675, 9.8849870000000006});
  EXPECT_GT(churn_rq.chunks_churned, 0);

  const SimMetrics lossy_rq =
      run_golden("lossy-network", 0, rq, Scheme::kSpiderWaterfilling);
  expect_golden(lossy_rq, {1500, 239111494, 1204, 166684401, 185814902, 296,
                           0, 3003, 9161u, 414, 0, 0, 0, 234, 234, 331,
                           112000631, 8.8119399999999999});
  EXPECT_GT(lossy_rq.chunks_faulted, 0);

  const SimMetrics atomic_sq =
      run_golden("partition-heal", 0, sq, Scheme::kSpeedyMurmurs);
  expect_golden(atomic_sq, {1500, 492284471, 616, 152418666, 152418666, 0,
                            884, 2142, 3810u, 0, 0, 0, 294, 0, 0, 0, 0,
                            4.4244750000000002});
  EXPECT_GT(atomic_sq.chunks_churned, 0);

  const SimMetrics grief_sq =
      run_golden("griefing", 0, sq, Scheme::kSpiderWaterfilling);
  expect_golden(grief_sq, {1702, 502384471, 1229, 324145011, 355335775, 473,
                           0, 2802, 4527u, 0, 0, 0, 0, 0, 195, 0, 0,
                           9.1792490000000004});
  EXPECT_GT(grief_sq.chunks_faulted, 0);
}

TEST(SimSession, EmptySessionDrainsToZeroMetrics) {
  const ScenarioInstance scenario = small_isp();
  const SpiderNetwork net(scenario.graph, scenario.config);
  SimSession session = net.session(Scheme::kShortestPath);
  EXPECT_TRUE(session.idle());
  const SimMetrics m = session.drain();
  EXPECT_EQ(m.attempted_count, 0);
  EXPECT_DOUBLE_EQ(m.success_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.success_volume(), 0.0);
  EXPECT_DOUBLE_EQ(m.admitted_success_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.throughput_xrp_per_s(), 0.0);
}

TEST(SimSession, RejectsOutOfOrderSubmission) {
  const ScenarioInstance scenario = small_isp();
  const SpiderNetwork net(scenario.graph, scenario.config);
  SimSession session = net.session(Scheme::kShortestPath);
  PaymentSpec a;
  a.arrival = seconds(2.0);
  a.src = 0;
  a.dst = 1;
  a.amount = xrp(1);
  session.submit(a);
  PaymentSpec b = a;
  b.arrival = seconds(1.0);  // before the last submitted arrival
  EXPECT_THROW(session.submit(b), AssertionError);
  session.advance_until(seconds(10.0));  // clock now sits at ~2.5 s
  PaymentSpec c = a;
  c.arrival = seconds(2.2);  // ordered after `a`, but in the clock's past
  EXPECT_THROW(session.submit(c), AssertionError);
}

TEST(SimSession, RejectsNonPositiveAmount) {
  // The trace parsers' rule holds for in-memory payments too: a payment
  // with nothing to route is one the engine would never resolve.
  const ScenarioInstance scenario = small_isp();
  const SpiderNetwork net(scenario.graph, scenario.config);
  for (const Scheme scheme : {Scheme::kShortestPath, Scheme::kSpiderLp}) {
    SCOPED_TRACE(scheme_name(scheme));
    for (const Amount amount : {Amount{0}, Amount{-5}}) {
      std::vector<PaymentSpec> trace = scenario.trace;
      trace.push_back(trace.back());
      trace.back().amount = amount;
      SimSession session = net.session(scheme);
      try {
        session.submit(trace);
        ADD_FAILURE() << "amount " << amount << " was accepted";
      } catch (const AssertionError& e) {
        EXPECT_NE(std::string(e.what()).find("non-positive amount_millis"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(session.submitted(), 0u);  // the whole span is refused
      // run() is run_streams(...).metrics, a session submit underneath.
      EXPECT_THROW((void)net.run(scheme, trace), AssertionError);
    }
  }
}

TEST(SimSession, DirectEngineRejectsNonPositiveAmount) {
  // run_simulation and Simulator::run arm the engine through begin()
  // without a session; the same rule holds there.
  const ScenarioInstance scenario = small_isp();
  for (const Scheme scheme : {Scheme::kShortestPath, Scheme::kSpiderLp}) {
    SCOPED_TRACE(scheme_name(scheme));
    for (const Amount amount : {Amount{0}, Amount{-5}}) {
      std::vector<PaymentSpec> trace = scenario.trace;
      trace.push_back(trace.back());
      trace.back().amount = amount;
      const std::unique_ptr<Router> router =
          make_router(scheme, scenario.config);
      const auto expect_refused = [&](const std::function<void()>& run) {
        try {
          run();
          ADD_FAILURE() << "amount " << amount << " was accepted";
        } catch (const AssertionError& e) {
          EXPECT_NE(std::string(e.what()).find("non-positive amount_millis"),
                    std::string::npos)
              << e.what();
        }
      };
      expect_refused([&] {
        (void)run_simulation(scenario.graph, *router, trace,
                             scenario.config.sim);
      });
      // A router initialised on a valid hint: begin() itself refuses.
      Network network(scenario.graph);
      init_router_for_run(*router, network, scenario.config.sim,
                          &scenario.trace, nullptr);
      Simulator sim(network, *router, scenario.config.sim);
      expect_refused([&] { (void)sim.run(trace); });
    }
  }
}

TEST(SimSession, DoubleDrainDoesNotReEmitTheTail) {
  const Graph g = line_topology(2, xrp(100));
  const SpiderNetwork net(g, SpiderConfig{});
  std::vector<PaymentSpec> trace(1);
  trace[0].arrival = seconds(0.3);
  trace[0].src = 0;
  trace[0].dst = 1;
  trace[0].amount = xrp(1);
  SessionOptions options;
  options.metrics_window = seconds(10.0);
  SimSession session = net.session(Scheme::kShortestPath, 1, options);
  ChannelImbalanceProbe probe;
  session.attach(probe);
  session.submit(trace);
  (void)session.drain();
  const std::size_t rolls = probe.series().size();
  EXPECT_GT(rolls, 0u);
  (void)session.drain();  // nothing new: the identical tail must not re-fire
  EXPECT_EQ(probe.series().size(), rolls);
}

TEST(SimSession, AdvanceDeclaresTimePassedForSubmissions) {
  // advance_until rolls metric windows up to its horizon, so a later
  // submission before that horizon would land in windows already emitted —
  // it must be rejected even though the event clock never moved.
  const Graph g = line_topology(2, xrp(100));
  const SpiderNetwork net(g, SpiderConfig{});
  SessionOptions options;
  options.metrics_window = seconds(10.0);
  SimSession session = net.session(Scheme::kShortestPath, 1, options);
  WindowedMetrics windowed;
  session.attach(windowed);
  session.advance_until(seconds(100.0));  // idle: rolls 10 empty windows
  EXPECT_EQ(windowed.windows().size(), 10u);
  PaymentSpec late;
  late.arrival = seconds(50.0);  // after now() == 0, but before the horizon
  late.src = 0;
  late.dst = 1;
  late.amount = xrp(1);
  EXPECT_THROW(session.submit(late), AssertionError);
  late.arrival = seconds(100.0);  // at the horizon: fine
  session.submit(late);
  (void)session.drain();
  EXPECT_EQ(session.metrics().completed_count, 1);
}

TEST(SimSession, RejectedSpanLeavesSessionUntouched) {
  const ScenarioInstance scenario = small_isp();
  const SpiderNetwork net(scenario.graph, scenario.config);
  SimSession session = net.session(Scheme::kShortestPath);
  std::vector<PaymentSpec> span(scenario.trace.begin(),
                                scenario.trace.begin() + 3);
  span[2].arrival = 0;  // out of order: the whole span must be refused
  EXPECT_THROW(session.submit(span), AssertionError);
  EXPECT_EQ(session.submitted(), 0u);  // no half-committed prefix
  span[2].arrival = span[1].arrival;
  session.submit(span);
  EXPECT_EQ(session.submitted(), 3u);
}

TEST(SimSession, ResumesAfterRunningDry) {
  const ScenarioInstance scenario = small_isp();
  const SpiderNetwork net(scenario.graph, scenario.config);
  SimSession session = net.session(Scheme::kSpiderWaterfilling);
  RetiredPayments retired;
  session.attach(retired);
  const std::size_t half = scenario.trace.size() / 2;
  session.submit(scenario.trace.data(), half);
  const SimMetrics first = session.drain();
  EXPECT_TRUE(session.idle());
  EXPECT_EQ(first.attempted_count, static_cast<std::int64_t>(half));
  retired.expect_every_id_once(half);  // a drain retires everything
  EXPECT_TRUE(session.payments().empty());

  // Resubmission after the queue ran dry restarts the arrival chain; the
  // remaining arrivals must all lie at/after the drained clock (they do:
  // the first half's settles drain within the deadline horizon). Shift
  // them forward to be safe.
  const TimePoint shift =
      session.now() > scenario.trace[half].arrival
          ? session.now() - scenario.trace[half].arrival + seconds(0.001)
          : 0;
  for (std::size_t i = half; i < scenario.trace.size(); ++i) {
    PaymentSpec spec = scenario.trace[i];
    spec.arrival += shift;
    session.submit(spec);
  }
  // The topology and fault chains were armed empty and never ran; a
  // submission after the drain must re-arm each of them too.
  const TimePoint later = session.now() + milliseconds(1);
  session.submit_topology(TopologyChange::deposit(later, 0, 0, xrp(1)));
  session.submit_faults(FaultEvent::recover(later, 0));
  const SimMetrics total = session.drain();
  EXPECT_EQ(first.topology_changes, 0);
  EXPECT_EQ(first.faults_injected, 0);
  EXPECT_EQ(total.topology_changes, 1);
  EXPECT_EQ(total.faults_injected, 1);
  EXPECT_EQ(total.attempted_count,
            static_cast<std::int64_t>(scenario.trace.size()));
  EXPECT_GT(total.completed_count, first.completed_count);
  // Ids keep counting across the resume.
  retired.expect_every_id_once(scenario.trace.size());
}

/// Counts every hook invocation.
class CountingObserver final : public SimObserver {
 public:
  std::int64_t arrivals = 0;
  std::int64_t completions = 0;
  std::int64_t failures = 0;
  std::int64_t locks = 0;
  std::int64_t settles = 0;
  std::int64_t polls = 0;
  std::int64_t rolls = 0;
  std::int64_t retirements = 0;
  Amount retired_delivered = 0;
  TimePoint last_time = 0;

  void on_payment_arrival(const Payment&, TimePoint now) override {
    ++arrivals;
    check(now);
  }
  void on_payment_complete(const Payment& p, TimePoint now) override {
    ++completions;
    EXPECT_EQ(p.status, PaymentStatus::kCompleted);
    check(now);
  }
  void on_payment_failed(const Payment& p, TimePoint now) override {
    ++failures;
    EXPECT_NE(p.status, PaymentStatus::kPending);
    check(now);
  }
  void on_payment_retired(const Payment& p, TimePoint now) override {
    ++retirements;
    retired_delivered += p.delivered;
    EXPECT_NE(p.status, PaymentStatus::kPending);
    EXPECT_EQ(p.inflight, 0);
    check(now);
  }
  void on_chunk_locked(const Path& path, Amount amount,
                       TimePoint now) override {
    ++locks;
    EXPECT_FALSE(path.empty());
    EXPECT_GT(amount, 0);
    check(now);
  }
  void on_chunk_settled(const Path&, Amount amount, TimePoint now) override {
    ++settles;
    EXPECT_GT(amount, 0);
    check(now);
  }
  void on_poll_round(std::size_t pending, TimePoint now) override {
    ++polls;
    EXPECT_GT(pending, 0u);
    check(now);
  }
  void on_window_roll(const WindowInfo& w, const Network&) override {
    ++rolls;
    EXPECT_LT(w.start, w.end + (w.partial ? 1 : 0));
  }

 private:
  void check(TimePoint now) {
    EXPECT_GE(now, last_time);  // hooks observe nondecreasing time
    last_time = now;
  }
};

TEST(SimObserverPipeline, HookCountsMatchMetrics) {
  const ScenarioInstance scenario = small_isp();
  const SpiderNetwork net(scenario.graph, scenario.config);
  SessionOptions options;
  options.metrics_window = seconds(1.0);
  options.demand_hint = &scenario.trace;
  SimSession session =
      net.session(Scheme::kSpiderWaterfilling, 7, options);
  CountingObserver counter;
  session.attach(counter);
  session.submit(scenario.trace);
  const SimMetrics m = session.drain();

  EXPECT_EQ(counter.arrivals, m.attempted_count);
  EXPECT_EQ(counter.completions, m.completed_count);
  EXPECT_EQ(counter.failures, m.expired_count + m.rejected_count);
  EXPECT_EQ(counter.locks, m.chunks_sent);
  EXPECT_EQ(counter.polls, m.retry_rounds);
  EXPECT_EQ(counter.retirements, m.attempted_count);
  EXPECT_EQ(counter.retired_delivered, m.delivered_volume);
  EXPECT_GT(counter.settles, 0);
  EXPECT_LE(counter.settles, counter.locks);
  EXPECT_GT(counter.rolls, 0);
}

/// Largest payments() window seen after each 1 s advance of a batch
/// session over `payments` isp payments at 400 tx/s (default deadline).
std::size_t peak_resident_payments(int payments) {
  ScenarioParams params;
  params.payments = payments;
  params.tx_per_second = 400.0;
  const ScenarioInstance scenario = build_scenario("isp", params);
  const SpiderNetwork net(scenario.graph, scenario.config);
  SimSession session = net.session(Scheme::kShortestPath, 7);
  session.submit(scenario.trace);
  std::size_t peak = 0;
  for (TimePoint t = seconds(1.0); !session.idle(); t += seconds(1.0)) {
    session.advance_until(t);
    peak = std::max(peak, session.payments().size());
  }
  (void)session.drain();
  EXPECT_TRUE(session.payments().empty());
  return peak;
}

TEST(BoundedEngineState, PaymentWindowIsFlatInPaymentCount) {
  // At 400 tx/s and a 5 s deadline about 2,000 payments are live at once;
  // the window also keeps a retired prefix of up to its own size until
  // compaction. Quadrupling the trace must not move the peak: a table
  // that keeps every payment (or only reserves for them) grows with N.
  const std::size_t small = peak_resident_payments(8'000);
  const std::size_t large = peak_resident_payments(32'000);
  SCOPED_TRACE(testing::Message() << "peaks " << small << ", " << large);
  EXPECT_GT(small, 0u);
  EXPECT_LE(large, small + small / 4);
  EXPECT_LE(large, 32'000u / 4);
}

TEST(WindowedMetrics, ScriptedWindowsAndTail) {
  // Two-node line, shortest-path routing, hand-placed arrivals: payment A
  // at 0.4 s completes at 0.9 s (Δ = 0.5); payment B at 1.5 s completes at
  // 2.0 s — exactly on the window-2 boundary, so it lands in the tail.
  const Graph g = line_topology(2, xrp(100));
  SpiderConfig config;
  const SpiderNetwork net(g, config);
  std::vector<PaymentSpec> trace(2);
  trace[0].arrival = seconds(0.4);
  trace[0].src = 0;
  trace[0].dst = 1;
  trace[0].amount = xrp(2);
  trace[1].arrival = seconds(1.5);
  trace[1].src = 0;
  trace[1].dst = 1;
  trace[1].amount = xrp(3);

  SessionOptions options;
  options.metrics_window = seconds(1.0);
  SimSession session = net.session(Scheme::kShortestPath, 1, options);
  WindowedMetrics windowed;
  session.attach(windowed);
  session.submit(trace);
  const SimMetrics m = session.drain();
  EXPECT_EQ(m.completed_count, 2);

  ASSERT_EQ(windowed.windows().size(), 2u);
  const WindowStats& w0 = windowed.windows()[0];
  EXPECT_EQ(w0.index, 0u);
  EXPECT_DOUBLE_EQ(w0.start_s, 0.0);
  EXPECT_DOUBLE_EQ(w0.end_s, 1.0);
  EXPECT_EQ(w0.attempted, 1);
  EXPECT_EQ(w0.completed, 1);  // A completes at 0.9 s
  EXPECT_EQ(w0.delivered_volume, xrp(2));
  EXPECT_DOUBLE_EQ(w0.success_ratio(), 1.0);

  const WindowStats& w1 = windowed.windows()[1];
  EXPECT_EQ(w1.attempted, 1);   // B arrives at 1.5 s
  EXPECT_EQ(w1.completed, 0);   // B completes at exactly 2.0 s (window 2)
  EXPECT_EQ(w1.chunks_locked, 1);

  // B's completion sits at exactly the boundary: reported in the tail.
  ASSERT_TRUE(windowed.has_tail());
  EXPECT_TRUE(windowed.tail().partial);
  EXPECT_EQ(windowed.tail().completed, 1);

  // Conservation across the series: windows + tail account for everything.
  std::int64_t attempted = windowed.tail().attempted;
  std::int64_t completed = windowed.tail().completed;
  for (const WindowStats& w : windowed.windows()) {
    attempted += w.attempted;
    completed += w.completed;
  }
  EXPECT_EQ(attempted, m.attempted_count);
  EXPECT_EQ(completed, m.completed_count);
}

TEST(WindowedMetrics, WarmupExclusionAndIdleWindows) {
  const Graph g = line_topology(2, xrp(100));
  const SpiderNetwork net(g, SpiderConfig{});
  std::vector<PaymentSpec> trace(1);
  trace[0].arrival = seconds(0.2);
  trace[0].src = 0;
  trace[0].dst = 1;
  trace[0].amount = xrp(1);

  SessionOptions options;
  options.metrics_window = seconds(1.0);
  SimSession session = net.session(Scheme::kShortestPath, 1, options);
  WindowedMetrics windowed(/*warmup=*/seconds(2.0));
  session.attach(windowed);
  session.submit(trace);
  session.advance_until(seconds(4.0));  // rolls idle windows past the work
  ASSERT_GE(windowed.windows().size(), 4u);
  EXPECT_EQ(windowed.windows()[2].attempted, 0);  // idle window rolled

  const auto steady = windowed.steady_state();
  // Warmup 2 s excludes windows 0-1 — the only ones with any activity.
  EXPECT_EQ(steady.windows, static_cast<int>(windowed.windows().size()) - 2);
  EXPECT_EQ(steady.attempted, 0);
  EXPECT_DOUBLE_EQ(steady.success_ratio, 0.0);

  // Re-run fresh without warmup (observers are per-run): window 0 holds
  // the activity and now counts toward the steady aggregate.
  WindowedMetrics no_warmup;
  SimSession again = net.session(Scheme::kShortestPath, 1, options);
  again.attach(no_warmup);
  again.submit(trace);
  again.advance_until(seconds(3.0));
  (void)again.drain();
  EXPECT_EQ(no_warmup.steady_state().attempted, 1);
  EXPECT_DOUBLE_EQ(no_warmup.steady_state().success_ratio, 1.0);
}

// bench_throughput's ripple-like@1000 / Spider (Waterfilling) row: 2 s
// windows, 2 s warmup, traffic seed 18. Counting every completion inside
// the steady windows, including payments that arrived during warmup, put
// its steady success ratio at 1.0544. Only payments that arrived inside the
// steady span may count as completed.
TEST(WindowedMetrics, SteadyCompletionsAreSteadyArrivals) {
  ScenarioParams params;
  params.nodes = 1000;
  params.traffic_seed = 18;
  const ScenarioInstance scenario = build_scenario("ripple-like", params);
  const SpiderNetwork net(scenario.graph, scenario.config);
  const RunResult run = net.run_streams(
      Scheme::kSpiderWaterfilling, scenario.trace, net.config().sim.seed,
      scenario.churn, scenario.faults, seconds(2.0), seconds(2.0));
  const WindowedMetrics::SteadyState& steady = run.steady;
  ASSERT_GT(steady.windows, 0);
  ASSERT_GT(steady.attempted, 0);
  EXPECT_GT(steady.completed, 0);
  EXPECT_LE(steady.completed, steady.attempted);
  EXPECT_LE(steady.success_ratio, 1.0);
  // Volume is the same cohort's: each steady arrival's final delivered
  // value, so it can neither exceed what that cohort asked for nor what
  // the whole run delivered.
  EXPECT_GT(steady.delivered_volume, 0);
  EXPECT_LE(steady.delivered_volume, steady.attempted_volume);
  EXPECT_LE(steady.delivered_volume, run.metrics.delivered_volume);
  EXPECT_LE(steady.success_volume, 1.0);
  // Per-window ratios keep their rate meaning: completions in a window
  // over arrivals in it, whenever those payments arrived.
  std::int64_t window_completions = 0;
  for (const WindowStats& w : run.windows) window_completions += w.completed;
  EXPECT_LE(window_completions, run.metrics.completed_count);
  EXPECT_LE(steady.completed, run.metrics.completed_count);
}

TEST(Probes, ImbalanceAndQueueDepthCollect) {
  const ScenarioInstance scenario = small_isp();
  const SpiderNetwork net(scenario.graph, scenario.config);
  SessionOptions options;
  options.metrics_window = seconds(1.0);
  options.demand_hint = &scenario.trace;
  SimSession session =
      net.session(Scheme::kSpiderWaterfilling, 7, options);
  ChannelImbalanceProbe imbalance(/*top_k=*/5);
  QueueDepthProbe depth;
  session.attach(imbalance);
  session.attach(depth);
  session.submit(scenario.trace);
  const SimMetrics m = session.drain();

  ASSERT_FALSE(imbalance.series().size() == 0);
  EXPECT_EQ(imbalance.top_imbalanced().size(), 5u);
  // Top list is sorted descending.
  for (std::size_t i = 1; i < imbalance.top_imbalanced().size(); ++i)
    EXPECT_GE(imbalance.top_imbalanced()[i - 1].imbalance_xrp,
              imbalance.top_imbalanced()[i].imbalance_xrp);
  // The last roll is the drain-time tail: it matches the final network.
  EXPECT_NEAR(imbalance.series().back().mean_imbalance_xrp,
              m.final_mean_imbalance_xrp, 1e-9);

  EXPECT_EQ(depth.depth().count(), m.retry_rounds);
  EXPECT_EQ(depth.series().size(),
            static_cast<std::size_t>(m.retry_rounds));
}

TEST(SimSession, WindowedGridCollectsSeriesPerCell) {
  std::vector<ScenarioInstance> scenarios;
  scenarios.push_back(small_isp());
  ExperimentRunner runner(2);
  GridOptions options;
  options.metrics_window = seconds(1.0);
  options.warmup = seconds(0.5);
  const std::vector<Scheme> schemes = {Scheme::kSpiderWaterfilling,
                                       Scheme::kShortestPath};
  const auto windowed = runner.run_grid(scenarios, schemes, {5, 6}, options);
  const auto plain = runner.run_grid(scenarios, schemes, {5, 6});
  ASSERT_EQ(windowed.size(), 4u);
  ASSERT_EQ(plain.size(), 4u);
  for (std::size_t i = 0; i < windowed.size(); ++i) {
    // Windowed cells carry the series AND identical lifetime metrics.
    EXPECT_FALSE(windowed[i].windows.empty());
    EXPECT_GT(windowed[i].steady.windows, 0);
    expect_identical(windowed[i].metrics, plain[i].metrics);
  }
}

TEST(SimSession, DynamicCapacityInjectionMidRun) {
  // Starve a two-node channel, then deposit mid-run through the session's
  // network() injection point: payments queued behind the dry channel
  // complete only because of the deposit.
  const Graph g = line_topology(2, xrp(10));  // 5 XRP spendable 0 -> 1
  const SpiderNetwork net(g, SpiderConfig{});
  std::vector<PaymentSpec> trace(1);
  trace[0].arrival = seconds(0.1);
  trace[0].src = 0;
  trace[0].dst = 1;
  trace[0].amount = xrp(9);           // needs more than side 0 ever has
  trace[0].deadline = seconds(30.0);  // long enough to survive the wait

  SimSession session = net.session(Scheme::kShortestPath, 1);
  session.submit(trace);
  session.advance_until(seconds(2.0));
  const SimMetrics before = session.metrics();
  EXPECT_EQ(before.completed_count, 0);

  session.network().channel(0).deposit(0, xrp(20));  // on-chain top-up
  const SimMetrics after = session.drain();
  EXPECT_EQ(after.completed_count, 1);
  EXPECT_EQ(after.delivered_volume, xrp(9));
}

}  // namespace
}  // namespace spider
