// The discrete-event payment-channel simulator (§6.1).
//
// Mechanics reproduced from the paper's description:
//   - arriving payments are routed immediately if the chosen paths have
//     funds; routed chunks hold their funds inflight for Δ = 0.5 s and
//     settle downstream on completion;
//   - non-atomic payments park their unrouted remainder in a global pending
//     queue that is polled periodically and served in scheduler order
//     (default SRPT); a payment whose pair the router can never plan
//     (an empty PlanSpeculation::kCandidatePaths read set) waits out its
//     deadline beside that queue instead, and is never planned;
//   - atomic payments (max-flow, SilentWhispers, SpeedyMurmurs) either lock
//     their full amount at arrival or fail outright;
//   - payments whose deadline passes are cancelled; whatever they already
//     delivered counts toward success volume (the sender released those
//     keys), the payment itself counts as not completed.
//
// Determinism: integer microsecond timestamps plus a per-event sequence
// number give the event queue a total order; all randomness flows from the
// config seed.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "routing/router.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/observer.hpp"
#include "sim/payment.hpp"
#include "sim/scheduler.hpp"
#include "transport/router_queue.hpp"
#include "workload/traffic.hpp"

namespace spider {

/// Where transaction units wait for funds (§4.2 vs §6.1).
enum class QueueingMode {
  /// The paper's evaluation setup: unrouted remainders wait at the SOURCE
  /// in a global pending queue, polled periodically.
  kSourceQueue,
  /// The §4.2/Fig. 3 architecture: chunks travel hop by hop; a chunk that
  /// reaches a dry channel waits in that channel's queue, holding its
  /// upstream locks (real head-of-line blocking), until funds arrive or its
  /// queueing timeout fires. Requires a non-atomic routing scheme.
  kRouterQueue,
};

struct SimConfig {
  /// End-to-end confirmation delay Δ (lock -> settle).
  Duration delta = seconds(0.5);
  /// Pending-queue poll interval ("periodically polled", §6.1).
  Duration poll_interval = seconds(0.5);
  SchedulerPolicy scheduler = SchedulerPolicy::kSrpt;
  /// Maximum transaction-unit size (§4): caps each chunk per attempt.
  /// 0 = uncapped (chunk granularity limited only by path balance).
  Amount mtu = 0;
  /// Deadline applied to payments whose spec carries none — the one
  /// deadline knob (registry scenarios set it from
  /// SPIDER_PAYMENT_DEADLINE_MS).
  Duration default_deadline = seconds(5.0);
  /// Seed for the router's RNG stream.
  std::uint64_t seed = 99;

  QueueingMode queueing = QueueingMode::kSourceQueue;
  /// Router-queue mode: per-hop traversal delay and the longest a unit may
  /// wait inside one channel queue before its locks are rolled back.
  Duration hop_delay = milliseconds(100);
  Duration queue_timeout = seconds(1.0);

  /// §5.2.3 on-chain rebalancing, simulated: every `rebalance_interval` the
  /// network deposits fresh funds onto depleted channel sides, at a total
  /// rate of `rebalance_rate_xrp_per_s`, split proportionally to each
  /// side's deficit below its initial share. 0 disables (the default; the
  /// paper's evaluation runs without rebalancing).
  Duration rebalance_interval = 0;
  double rebalance_rate_xrp_per_s = 0.0;

  /// §7 admission control: payments larger than this are refused at
  /// arrival (they would monopolize inflight funds and still miss their
  /// deadline). 0 disables (the default — the paper's evaluation admits
  /// everything). Refusals count as rejected and as admission_refused.
  Amount admission_cap = 0;

  /// Routing-fee accounting (§2: intermediaries earn fees; §4.1 expects
  /// non-atomic routing to be cheaper). Each intermediary hop of a settled
  /// unit accrues fee_base + fee_rate * amount. Fees are ACCOUNTED, not
  /// deducted from the transfer — the paper's simulator routes fee-free
  /// too; the metric lets schemes be compared on routing cost. Defaults 0.
  Amount fee_base = 0;
  double fee_rate = 0.0;

  /// Sender-side resilience (all off by default, preserving the paper's
  /// retry-forever-until-deadline behaviour byte for byte).
  /// Max attempts per payment; a non-atomic payment that still has
  /// unrouted value after `retry_limit` attempts fails instead of waiting
  /// for its deadline. 0 = unlimited.
  int retry_limit = 0;
  /// Exponential backoff between attempts: after attempt k the sender
  /// waits retry_backoff * 2^(k-1) (capped at 2^20) before the pending
  /// queue will try it again. 0 = retry every poll round.
  Duration retry_backoff = 0;
  /// Base seed for per-channel message-loss streams (sim/fault.hpp).
  /// 0 = derive from `seed`, so faulted runs are reproducible without
  /// configuring anything extra.
  std::uint64_t fault_seed = 0;

  /// Transport layer (src/transport/): one-bit delay marking over the
  /// router queues plus the sender-side pace tick. Off by default —
  /// disabled transport schedules no events, marks nothing, and calls no
  /// router feedback hooks, so the event sequence is byte-identical to the
  /// pre-transport engine.
  TransportConfig transport;
};

class Simulator {
 public:
  /// The network is taken by reference and mutated by the run; the router
  /// must outlive the simulator.
  Simulator(Network& network, Router& router, SimConfig config);

  /// Runs the full trace to completion (all settles drained, all deadlines
  /// resolved) and returns the metrics. Implemented as begin() + drain() —
  /// the batch and streaming surfaces share one event loop, so a fixed seed
  /// produces byte-identical metrics either way.
  [[nodiscard]] SimMetrics run(const std::vector<PaymentSpec>& trace);

  // --- Streaming surface (what SimSession drives; run() is built on it) ---

  /// Input streams. Payments, topology changes and faults each arrive
  /// through a caller-owned vector the simulator reads as an input chain
  /// (DESIGN.md "Input chains"): the caller may keep APPENDING between
  /// events, in nondecreasing time order and never before the clock, and
  /// calls the stream's *_extended() after every append batch; the vector
  /// object itself must outlive the run. A stream that is never armed, or
  /// armed empty, schedules no events.
  ///
  /// begin() re-arms the simulator over `trace` without processing
  /// anything and disarms the other two streams. It first refuses a trace
  /// holding a non-positive amount (check_payment_amount), changing
  /// nothing; payments appended later are checked by their appender
  /// (SimSession::submit).
  void begin(const std::vector<PaymentSpec>& trace);
  void begin_topology(const std::vector<TopologyChange>& churn);
  void begin_faults(const std::vector<FaultEvent>& faults);

  /// The stream's vector grew: restarts its chain (and, for payments, the
  /// rebalance tick, if configured) when it had run dry. No-op while an
  /// event for the stream is already scheduled, so submitting ahead of the
  /// clock keeps the exact event order of a batch run.
  void trace_extended();
  void topology_extended();
  void faults_extended();

  /// Streaming-replay compaction: how many leading entries of the trace
  /// vector the arrival chain is finished with (consumed, no event pending
  /// on them). The caller may erase exactly that prefix and report the
  /// erase through trace_released(); bounded-memory replay
  /// (core/replay.hpp) does this between chunks so a million-payment trace
  /// never lives in memory at once. Event payloads keep their original
  /// absolute trace indices (Payment::id is stable across compaction).
  [[nodiscard]] std::size_t trace_releasable() const {
    return arrivals_.next - arrivals_.base;
  }

  /// The caller erased `count` (<= trace_releasable()) leading entries from
  /// the trace vector; future index lookups rebase accordingly.
  void trace_released(std::size_t count);

  /// Processes every event with time <= horizon, then rolls metric windows
  /// up to horizon (windows roll on time, not on events — an idle gap still
  /// produces its empty windows). Returns the number of events processed.
  std::size_t advance_until(TimePoint horizon);

  /// Processes every queued event (all settles drained, all deadlines
  /// resolved), emits the trailing partial window, and validates channel
  /// conservation. After drain(), metrics() is the final result.
  std::size_t drain();

  /// No events pending (drained, or nothing submitted yet).
  [[nodiscard]] bool idle() const { return events_.empty(); }

  /// The simulation clock: timestamp of the last processed event.
  [[nodiscard]] TimePoint now() const { return events_.now(); }

  /// How far simulated time has been declared to have passed: the max of
  /// the clock and every advance_until horizon. Metric windows roll up to
  /// this point, so new submissions must not arrive before it (SimSession
  /// enforces that) — they would land in windows already emitted.
  [[nodiscard]] TimePoint horizon() const {
    return advanced_horizon_ > now() ? advanced_horizon_ : now();
  }

  /// Snapshot of the metrics accumulated so far, with the derived fields
  /// (events_processed, sim_duration_s, final_mean_imbalance_xrp) filled
  /// in. Mid-run this is a consistent partial view; after drain() it is
  /// byte-identical to what run() returns.
  [[nodiscard]] SimMetrics metrics() const;

  /// Attaches an observer (see sim/observer.hpp). Hooks fire in attach
  /// order; the observer must outlive the run and must not mutate
  /// simulation state. Attach before the first event is processed.
  void attach(SimObserver& observer);

  /// Fixed metrics-window length for on_window_roll (0 = no window rolls).
  /// Windows are anchored at t = 0. Set before the first event.
  void set_metrics_window(Duration window);

  /// The payments still resident: a window over absolute payment ids
  /// (DESIGN.md "Bounded engine state"). A payment is retired once it is
  /// resolved (terminal, nothing inflight, out of the pending queue) and
  /// every earlier id is too; on_payment_retired hands observers its final
  /// record. The window's front may still hold retired records until the
  /// next compaction; drain() retires and drops everything, so after a run
  /// this is empty. Whole-run outcomes come from the hook, not from here.
  [[nodiscard]] const std::vector<Payment>& payments() const {
    return payments_;
  }

  /// Pooled chunk slots, live and released, for tests: a live slot holds
  /// its chunk's copy of the planned path (key included); a released one
  /// an empty path with key 0.
  [[nodiscard]] std::size_t chunk_slot_count() const {
    return inflight_.size();
  }
  [[nodiscard]] const Path& chunk_slot_path(std::size_t slot) const {
    return inflight_[slot].path;
  }

  /// Payments with a live fault blacklist (paths that dropped or griefed
  /// one of their units). Entries go with their payment at retirement, so
  /// a drained run holds none.
  [[nodiscard]] std::size_t blacklisted_payments() const {
    return blacklists_.size();
  }

 private:
  /// Layered over SimEvent::kind; the queue itself is kind-agnostic.
  enum class EventKind {
    kArrival,
    kSettle,
    kPoll,
    kHopArrive,      // router-queue mode: chunk reached its next node
    kQueueTimeout,   // router-queue mode: bounded channel-queue wait
    kRebalance,      // on-chain deposit tick
    kTopology,       // channel open / close / deposit (dynamic topology)
    // Fault injection (appended so every pre-fault event kind keeps its
    // value — zero-fault runs stay byte-identical by construction):
    kFault,          // next scheduled FaultEvent (chained like kTopology)
    kChunkFault,     // a doomed chunk's HTLC timeout fires: refund it
    kFaultRecover,   // a stall's auto-recovery (stamp = node fault epoch)
    // Transport layer (appended for the same reason — transport-off runs
    // never schedule it, so they stay byte-identical by construction):
    kTransportPace,  // sender pace tick: re-offer pending to the planner
  };

  /// One pooled chunk slot. Slots are recycled through a free list and the
  /// path buffers keep their capacity across reuse, so the steady-state
  /// chunk lifecycle (plan -> lock -> settle/abort) allocates nothing.
  struct InflightChunk {
    Path path;
    Amount amount = 0;
    std::size_t payment = 0;  // absolute payment id (see payment())
    // Hops [0, hops_locked) hold our funds: the whole path once a
    // source-queue chunk locks, the travelled prefix in router-queue mode.
    std::size_t hops_locked = 0;
    bool queued = false;           // waiting inside a channel queue
    bool marked = false;           // transport: one-bit delay mark (§5.2)
    TimePoint queued_at = 0;
    TimePoint sent_at = 0;         // transport: lock time, for ack RTTs
    std::uint64_t stamp = 0;       // invalidates stale timeout events
    // Intrusive doubly-linked channel-queue membership (slot indices into
    // inflight_; -1 = none). Gives O(1) push/pop/remove without per-edge
    // deque storage.
    std::int32_t queue_prev = -1;
    std::int32_t queue_next = -1;
  };

  /// Head/tail of one channel side's FIFO of waiting chunks, linked through
  /// InflightChunk::queue_prev/next.
  struct ChannelQueue {
    std::int32_t head = -1;
    std::int32_t tail = -1;
  };

  /// One caller-owned input stream read one entry at a time: at most one
  /// event (for entry `next`) is queued per chain, so the heap stays small
  /// and a streaming caller may append between events.
  template <typename T>
  struct InputChain {
    EventKind kind;
    const std::vector<T>* entries = nullptr;  // null = stream never armed
    std::size_t next = 0;  // absolute index of the next undispatched entry
    // Leading entries the caller released (bounded-memory replay; payments
    // only): absolute index i lives at (*entries)[i - base].
    std::size_t base = 0;
    bool scheduled = false;  // the event for `next` is queued

    void reset(const std::vector<T>* stream) {
      entries = stream;
      next = base = 0;
      scheduled = false;
    }
    /// One past the last absolute index submitted so far.
    [[nodiscard]] std::size_t end() const {
      return entries == nullptr ? 0 : base + entries->size();
    }
    [[nodiscard]] const T& at(std::size_t i) const {
      return (*entries)[i - base];
    }
  };

  void push_event(TimePoint time, EventKind kind, std::size_t index,
                  std::uint64_t stamp = 0);
  /// Queues the chain's next entry unless one is already queued or the
  /// chain ran dry; an arrival also (re)starts the rebalance tick.
  template <typename T>
  void arm(InputChain<T>& chain);
  /// Dispatch side: copies entry `index` (the chain's queued head) out by
  /// value, chains the next entry, and returns the copy. The copy keeps the
  /// entry readable after the caller releases it, and chaining first keeps
  /// the event order independent of what the entry does to the network.
  template <typename T>
  T advance(InputChain<T>& chain, std::size_t index);
  /// Pops and dispatches one event, rolling windows the clock crosses.
  void process_next();
  /// The shared inner loop of advance_until/drain: processes every event
  /// with time <= horizon.
  std::size_t run_events_until(TimePoint horizon);
  /// Emits every complete window with end <= t, in index order.
  void roll_windows_until(TimePoint t);
  /// Emits the trailing partially-filled window (if the clock sits past the
  /// last boundary) with WindowInfo::partial set.
  void finish_windows();
  void handle_arrival(std::size_t trace_index);
  /// Settle and hop-arrive events carry the chunk's acquisition stamp so an
  /// aborted chunk's stale events are skipped instead of corrupting a
  /// recycled slot (release zeroes the stamp; reacquisition draws a fresh
  /// one). A live settle is complete_chunk().
  void handle_settle(std::size_t chunk_index, std::uint64_t stamp);
  void handle_poll();
  void handle_hop_arrive(std::size_t chunk_index, std::uint64_t stamp);
  void handle_queue_timeout(std::size_t chunk_index, std::uint64_t stamp);
  void handle_rebalance();
  /// Transport pace tick: re-offers every eligible pending payment to the
  /// (window- and rate-limited) planner, in pending order, then re-arms
  /// while anything is still pending. Unlike a poll round it neither
  /// reorders by scheduler policy nor expires deadlines — those stay the
  /// poll's job — and paced attempts don't count as retries.
  void handle_transport_pace();
  /// Transport feedback is live (hooks fire, marks are set, pace ticks may
  /// be armed).
  [[nodiscard]] bool transport_on() const { return config_.transport.enabled; }
  /// The queue bank accounts enqueues/dequeues (any router-queue run, so
  /// QueueDepthProbe sees real depths even with the transport off).
  [[nodiscard]] bool queue_bank_active() const {
    return config_.queueing == QueueingMode::kRouterQueue;
  }
  void handle_topology(std::size_t change_index);
  /// A channel is about to close: chunks waiting inside its queues and
  /// chunks holding locked funds on it fail now, refunding every hop they
  /// hold (conservation-checked escrow return). Atomic payments lose
  /// all-or-nothing delivery, so their sibling chunks roll back too and the
  /// payment fails.
  void churn_fail_channel(EdgeId closing);
  void handle_fault(std::size_t fault_index);
  void handle_chunk_fault(std::size_t chunk_index, std::uint64_t stamp);
  void handle_fault_recover(std::size_t node_index, std::uint64_t stamp);
  /// A node went down: every live chunk whose path crosses it fails with a
  /// conservation-checked refund, exactly like a channel close.
  void fault_fail_node(NodeId node);
  /// Commit-time plan filter: true when faults make `path` unusable for
  /// `payment_index` (a node on it is down, or the sender blacklisted it
  /// after a drop/grief abort). Routers stay fault-oblivious; this is the
  /// only place fault state meets routing.
  [[nodiscard]] bool path_fault_blocked(std::size_t payment_index,
                                        const Path& path) const;
  /// Remembers that `path` failed `payment_index` by fault, so retries
  /// skip it (erased when the payment retires: a doomed unit may outlive
  /// its payment's deadline and still land here).
  void blacklist_path(std::size_t payment_index, const Path& path);
  /// Counts, announces (transport send, on_chunk_locked) and schedules one
  /// freshly locked chunk: a hop-by-hop unit travels its first hop
  /// (schedule_hop_travel), a fully locked one waits out Δ
  /// (schedule_chunk_outcome).
  void commit_chunk(std::size_t chunk_index, bool hop_by_hop);
  /// Schedules a fully locked chunk's settle — or, when a lossy hop drops
  /// it / the receiver griefs it, its HTLC-timeout refund (kChunkFault)
  /// after the hold.
  void schedule_chunk_outcome(std::size_t chunk_index);
  /// Schedules the chunk's travel across the hop it just locked — or, when
  /// the message drops on a lossy channel, its stale-lock detection
  /// (kChunkFault) after the queueing timeout.
  void schedule_hop_travel(std::size_t chunk_index);
  /// Arms the exponential-backoff gate after a non-atomic attempt.
  void arm_retry_backoff(Payment& p);
  /// Plans + locks for `payment`; returns the amount locked this attempt.
  /// `paced` attempts (transport pace ticks) release window credit that
  /// freed up mid-poll: they don't count as retries, don't bump the
  /// attempt counter, and don't re-arm the backoff gate.
  Amount attempt(std::size_t payment_index, bool paced = false);
  void expire(std::size_t payment_index);
  void finish_payment(std::size_t payment_index, PaymentStatus status);
  /// The one access to a resident payment by absolute id; asserts the id
  /// arrived and is not retired.
  [[nodiscard]] Payment& payment(std::size_t id) {
    SPIDER_ASSERT_MSG(id >= payments_base_ + retired_ &&
                          id - payments_base_ < payments_.size(),
                      "payment " << id << " is retired or has not arrived");
    return payments_[id - payments_base_];
  }
  /// Retires the resolved prefix of the payment window (firing
  /// on_payment_retired and dropping each one's blacklist, in id order),
  /// then erases the retired prefix once it is at least half the window —
  /// or always, with `drop_all` (drain), which expects every payment to be
  /// resolved.
  void retire_resolved(bool drop_all);
  void accrue_fees(const Path& path, Amount amount);

  // Chunk-slot pool: acquire copies the path into the slot's recycled
  // buffers; release keeps those buffers' capacity for the next chunk.
  std::size_t new_chunk(const Path& path, Amount amount,
                        std::size_t payment_index);
  void release_chunk_slot(std::size_t chunk_index);
  // Intrusive channel-queue operations (router-queue mode).
  void queue_push_back(EdgeId edge, int side, std::size_t chunk_index);
  void queue_remove(EdgeId edge, int side, std::size_t chunk_index);
  /// Locks hop `hops_locked` if funds allow; returns success.
  [[nodiscard]] bool try_lock_next_hop(std::size_t chunk_index);
  /// Chunk reached the destination: settle every hop, credit the payment,
  /// serve the queues the settle credited.
  void complete_chunk(std::size_t chunk_index);
  /// Why a chunk failed — decides which counter it lands in and which
  /// per-payment flag it sets.
  enum class AbortCause { kTimeout, kChurn, kFault };
  /// The one failure path: leaves its queue if queued, refunds hops
  /// [0, hops_locked), serves the waiters on the refunded hops except on
  /// `closing` (the channel being closed; kInvalidEdge when none), then
  /// either fails an atomic payment with all its sibling chunks or makes
  /// the remainder sendable again (expiring a payment past its deadline).
  void abort_chunk(std::size_t chunk_index, EdgeId closing,
                   AbortCause cause);
  /// The one dequeue path: unlinks a queued chunk and returns the bank's
  /// verdict on whether its wait crossed the marking threshold (the caller
  /// decides whether that marks the unit). serve_channel_queue, the one
  /// served-dequeue site, records the wait in served_queue_wait_us.
  [[nodiscard]] bool leave_queue(std::size_t chunk_index);
  /// Funds appeared on (edge, side): admit queued chunks in FIFO order.
  void serve_channel_queue(EdgeId edge, int side);
  void ensure_pending(std::size_t payment_index);
  /// Schedules the poll (and, with pacing on, the pace tick) unless one is
  /// already queued: anything waiting keeps both chains alive.
  void arm_waiting_chains();
  /// Payments a poll, pace tick or rebalance tick still has to wait for:
  /// pending or parked. The one test every service chain re-arms on.
  [[nodiscard]] bool has_waiting() const {
    return !pending_.empty() || !parked_.empty();
  }
  /// The arrival-time test for parking: the router promises its read set
  /// (PlanSpeculation::kCandidatePaths), the payment can only retry, never
  /// give up on a count (non-atomic, retry_limit 0), and the pair's read
  /// set is empty.
  [[nodiscard]] bool unplannable(const PaymentSpec& spec);
  /// Parks a payment that no plan() can serve until a poll at or past its
  /// deadline expires it — the same poll that would have expired it from
  /// the pending queue, after that poll's pending expiries.
  void park(std::size_t payment_index);
  void expire_parked();

  Network* network_;
  Router* router_;
  SimConfig config_;
  Rng rng_;

  /// The injected event loop: owns ordering and the clock.
  EventQueue events_;
  bool poll_scheduled_ = false;
  InputChain<PaymentSpec> arrivals_{EventKind::kArrival};
  InputChain<TopologyChange> churn_{EventKind::kTopology};
  InputChain<FaultEvent> fault_events_{EventKind::kFault};
  FaultState faults_;
  // Per-payment fault blacklists: FNV-1a hashes of the edge sequences that
  // failed this payment by drop/grief. Empty for the vast majority of
  // payments even in heavily faulted runs, so a map beats a per-payment
  // vector field. Keys are resident payment ids only (erased at
  // retirement).
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> blacklists_;
  TimePoint advanced_horizon_ = 0;  // high-water mark of advance_until

  // Observer pipeline + metrics windows (see sim/observer.hpp).
  std::vector<SimObserver*> observers_;
  Duration window_ = 0;
  TimePoint window_start_ = 0;
  std::size_t window_index_ = 0;
  bool events_since_roll_ = false;  // open window absorbed an event
  bool tail_emitted_ = false;       // current tail snapshot already emitted

  // Payment window: payments_[i] holds id payments_base_ + i, and its
  // first retired_ records are retired but not yet erased.
  std::vector<Payment> payments_;
  std::size_t payments_base_ = 0;
  std::size_t retired_ = 0;
  // Payments with remaining > 0, each with the key it was last ordered by
  // (see order_pending); order_scratch_ is that call's reused buffer.
  // Membership is Payment::in_pending.
  std::vector<PendingEntry> pending_;
  std::vector<PendingEntry> order_scratch_;
  // Parked payments (see park()): a second EventQueue keyed by deadline,
  // each event's index a payment id with Payment::in_pending set so
  // retirement waits for its expiry. Payments park in id order, so the
  // queue's (time, seq) order is (deadline, id); equal relative deadlines
  // keep every park in one FIFO lane, and only an out-of-order deadline
  // takes the queue's heap. park_unplannable_ caches the run-wide half of
  // unplannable().
  EventQueue parked_;
  bool park_unplannable_ = false;
  std::vector<InflightChunk> inflight_;
  std::vector<std::size_t> free_chunks_;
  // attempt()'s whole-path locks before their joint commit, reused.
  std::vector<std::size_t> locked_chunks_;
  std::uint64_t next_stamp_ = 1;

  // Router-queue mode: intrusive FIFO heads per (edge, direction-side),
  // linked through the chunk table itself.
  std::vector<std::array<ChannelQueue, 2>> channel_queues_;
  // Transport layer: per-channel queue accounting + marking rule (active in
  // any router-queue run) and the pace-tick chain flag.
  RouterQueueBank transport_queues_;
  bool pace_scheduled_ = false;
  // On-chain rebalancing: the initial per-side share each deposit tops
  // back up toward, and whether a rebalance tick is scheduled.
  std::vector<std::array<Amount, 2>> initial_side_funds_;
  bool rebalance_scheduled_ = false;

  SimMetrics metrics_;
};

/// Initializes `router` for a run over `network`: estimates the demand
/// matrix from `demand_trace` (an empty matrix when null — online sessions
/// may have no trace yet) and wires the full RouterInitContext (Δ, shared
/// path store). Shared by run_simulation and SimSession so the batch and
/// streaming init paths cannot drift.
void init_router_for_run(Router& router, const Network& network,
                         const SimConfig& config,
                         const std::vector<PaymentSpec>* demand_trace,
                         const PathCache* shared_paths);

/// Convenience driver used by benches/examples: builds the network, inits
/// the router (estimating the demand matrix from the trace), runs the trace.
/// `shared_paths` optionally points at a pre-warmed candidate-path store
/// (see PathCache) handed to the router's init context so cached-path
/// schemes skip per-run path computation.
[[nodiscard]] SimMetrics run_simulation(const Graph& graph, Router& router,
                                        const std::vector<PaymentSpec>& trace,
                                        const SimConfig& config = {},
                                        const PathCache* shared_paths =
                                            nullptr);

}  // namespace spider
