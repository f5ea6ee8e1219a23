// Live dashboard over a streaming run: drives a long SimSession through
// the flash-crowd scenario in 10-simulated-second steps and prints, per
// window, the success ratio plus the five most imbalanced channels — the
// mid-run visibility the batch run() API cannot give. Watch the per-window
// success ratio dip while the x4 arrival surge is in flight and recover
// after it passes.
//
// The default scheme is spider-dctcp (the paper's real transport), so the
// dashboard also renders the per-path transport panel: the widest AIMD
// windows with their paced rates, in-flight value, and mark counts —
// windows shrink while the surge saturates the hot channels and grow back
// as the marks stop. SPIDER_DASH_SCHEME picks any registry scheme instead
// (fluid schemes have no per-path windows; the panel disappears).
//
// Env knobs: SPIDER_TXNS (default 24000 payments), SPIDER_TX_RATE (base
// rate, default 300 tx/s -> ~53 s of simulated traffic), plus the usual
// scenario overrides (DESIGN.md).
#include <algorithm>
#include <iostream>

#include "spider.hpp"
#include "transport/dctcp_router.hpp"

int main() {
  using namespace spider;

  ScenarioParams params = ScenarioParams::from_env();
  if (params.payments == 0) params.payments = 24000;
  if (params.tx_per_second == 0.0) params.tx_per_second = 300.0;
  const ScenarioInstance scenario = build_scenario("flash-crowd", params);
  const SpiderNetwork net(scenario.graph, scenario.config);
  const Scheme scheme =
      scheme_from_name(env_string("SPIDER_DASH_SCHEME", "spider-dctcp"));

  constexpr Duration kWindow = seconds(10.0);
  SessionOptions options;
  options.metrics_window = kWindow;
  options.demand_hint = &scenario.trace;
  SimSession session = net.session(scheme, net.config().sim.seed, options);
  WindowedMetrics windowed;
  ChannelImbalanceProbe imbalance(/*top_k=*/5);
  session.attach(windowed);
  session.attach(imbalance);
  // Non-null when the scheme carries the per-path transport controller.
  const auto* transport =
      dynamic_cast<const SpiderDctcpRouter*>(&session.router());

  const TimePoint span = scenario.trace.back().arrival;
  std::cout << "flash-crowd: " << scenario.graph.num_nodes() << " nodes, "
            << scenario.trace.size() << " payments over "
            << Table::num(to_seconds(span), 1)
            << " s (x4 surge in the middle half); window "
            << Table::num(to_seconds(kWindow), 0) << " s; scheme "
            << scheme_name(scheme) << "\n\n";

  // Online submission: feed the next 10 s of arrivals, then advance the
  // clock to the end of that window — the dashboard loop a deployed router
  // would run, just with synthesized arrivals.
  std::size_t fed = 0;
  std::size_t reported = 0;
  for (TimePoint horizon = kWindow;; horizon += kWindow) {
    while (fed < scenario.trace.size() &&
           scenario.trace[fed].arrival <= horizon)
      ++fed;
    session.submit(scenario.trace.data() + session.submitted(),
                   fed - session.submitted());
    session.advance_until(horizon);

    for (; reported < windowed.windows().size(); ++reported) {
      const WindowStats& w = windowed.windows()[reported];
      std::cout << "[" << Table::num(w.start_s, 0) << "-"
                << Table::num(w.end_s, 0) << " s] success "
                << Table::pct(w.success_ratio()) << " (" << w.completed
                << "/" << w.attempted << " payments, "
                << Table::num(to_xrp(w.delivered_volume), 0)
                << " XRP delivered)";
      std::cout << "  | top imbalance:";
      for (const auto& ch : imbalance.top_imbalanced())
        std::cout << " " << ch.a << "-" << ch.b << " ("
                  << Table::num(ch.imbalance_xrp, 0) << ")";
      std::cout << "\n";
      if (transport != nullptr) {
        // Per-path transport panel: the five widest AIMD windows right now.
        auto paths = transport->controller().snapshot();
        std::sort(paths.begin(), paths.end(),
                  [](const auto& a, const auto& b) {
                    return a.window != b.window ? a.window > b.window
                                                : a.key < b.key;
                  });
        if (paths.size() > 5) paths.resize(5);
        std::cout << "           paths: " << transport->controller().num_paths()
                  << " windowed, "
                  << Table::num(
                         to_xrp(transport->controller().total_inflight()), 0)
                  << " XRP in flight | widest:";
        for (const auto& p : paths)
          std::cout << " [" << p.hops << "-hop w="
                    << Table::num(to_xrp(p.window), 0) << " "
                    << Table::num(p.rate_xrp_per_s, 0) << "/s m="
                    << p.marked_acks << "]";
        std::cout << "\n";
      }
    }
    if (fed == scenario.trace.size() && session.idle()) break;
  }

  const SimMetrics final_metrics = session.drain();
  const auto steady = windowed.steady_state();
  std::cout << "\nlifetime success ratio "
            << Table::pct(final_metrics.success_ratio())
            << " | steady-state (complete windows) "
            << Table::pct(steady.success_ratio) << " over " << steady.windows
            << " windows";
  if (transport != nullptr)
    std::cout << " | " << final_metrics.chunks_marked << " chunks marked, p99 "
              << "served queue delay "
              << Table::num(final_metrics.served_queue_delay_p99_s(), 3)
              << " s";
  std::cout << "\n";
  return 0;
}
