// Observer pipeline of the streaming simulation API.
//
// A SimObserver is a set of read-only hooks the simulator invokes at the
// named points of a run; SimSession::attach composes any number of them
// into one run. Hooks fire synchronously, in attach order, at a precise
// point of the event being processed (DESIGN.md documents the exact order
// guarantees), and every argument is const: observers measure, they never
// steer. Reentrancy rule: a hook must not submit payments, advance the
// session, or mutate the network — doing so would break the (time, seq)
// total order that makes runs reproducible.
//
// Window rolls are the one hook not tied to a single simulator event.
// When a metrics window is configured (SimSession/Simulator
// `set_metrics_window`), windows of fixed length are anchored at t = 0 and
// `on_window_roll` fires the moment the clock first crosses a boundary —
// before the crossing event is dispatched, so the observer sees the network
// exactly as the window left it. A trailing partially-filled window is
// emitted with `partial = true` when the run drains; it may be re-emitted
// (same index, later end) if the session resumes and drains again, whereas
// complete windows are emitted exactly once each, in index order.
#pragma once

#include <cstddef>

#include "sim/fault.hpp"
#include "sim/payment.hpp"
#include "sim/topology_event.hpp"
#include "util/amount.hpp"
#include "util/time.hpp"

namespace spider {

class Network;
class RouterQueueBank;

/// Boundary descriptor handed to on_window_roll. `end - start` equals the
/// configured window length except for the trailing `partial` window, whose
/// end is the drain-time clock.
struct WindowInfo {
  std::size_t index = 0;  // 0-based window number since t = 0
  TimePoint start = 0;
  TimePoint end = 0;
  bool partial = false;  // trailing drain-time snapshot, not a full window
};

class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// A payment entered the simulation (counted as attempted).
  virtual void on_payment_arrival(const Payment& payment, TimePoint now) {
    (void)payment;
    (void)now;
  }
  /// A payment delivered its full amount.
  virtual void on_payment_complete(const Payment& payment, TimePoint now) {
    (void)payment;
    (void)now;
  }
  /// A payment ended without full delivery (expired or rejected).
  virtual void on_payment_failed(const Payment& payment, TimePoint now) {
    (void)payment;
    (void)now;
  }
  /// The engine dropped a resolved payment from its table: `payment` is its
  /// final record (terminal status, final `delivered`, nothing inflight).
  /// Fires exactly once per payment, in ascending id order — at the first
  /// arrival after it and every earlier payment resolved, or at drain() —
  /// so it may lag the terminal hook by up to a deadline.
  virtual void on_payment_retired(const Payment& payment, TimePoint now) {
    (void)payment;
    (void)now;
  }
  /// A transaction unit committed funds on `path` (counted in chunks_sent).
  virtual void on_chunk_locked(const Path& path, Amount amount,
                               TimePoint now) {
    (void)path;
    (void)amount;
    (void)now;
  }
  /// A transaction unit settled end-to-end on `path`.
  virtual void on_chunk_settled(const Path& path, Amount amount,
                                TimePoint now) {
    (void)path;
    (void)amount;
    (void)now;
  }
  /// A pending-queue service round fired with `pending` payments waiting,
  /// parked ones (never planned; see Simulator) included.
  virtual void on_poll_round(std::size_t pending, TimePoint now) {
    (void)pending;
    (void)now;
  }
  /// Router-queue telemetry: fires right after on_poll_round in router-queue
  /// mode (transport on or off) with the live per-channel queue bank —
  /// depths in value and in units, plus lifetime high-water marks
  /// (transport/router_queue.hpp). Never fires in source-queue mode.
  virtual void on_queue_depths(const RouterQueueBank& queues, TimePoint now) {
    (void)queues;
    (void)now;
  }
  /// A scheduled topology change (channel open / close / deposit) was
  /// applied. Fires AFTER the change took effect — for a close, after the
  /// affected chunks failed and the escrow swept — so `network` shows the
  /// post-change state; DESIGN.md documents the exact order.
  virtual void on_topology_change(const TopologyChange& change,
                                  const Network& network, TimePoint now) {
    (void)change;
    (void)network;
    (void)now;
  }
  /// A scheduled fault was applied. Fires AFTER the fault took effect —
  /// for a crash/stall, after every in-flight chunk through the node
  /// refunded — so `network` shows the post-fault state.
  virtual void on_fault(const FaultEvent& fault, const Network& network,
                        TimePoint now) {
    (void)fault;
    (void)network;
    (void)now;
  }
  /// The clock crossed a metrics-window boundary (see header comment).
  virtual void on_window_roll(const WindowInfo& window,
                              const Network& network) {
    (void)window;
    (void)network;
  }
};

}  // namespace spider
