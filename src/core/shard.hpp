// Sharded single-run engine: speculative parallel planning with a serial
// deterministic commit.
//
// Naively splitting one discrete-event run across K event queues cannot
// reproduce the serial engine byte-for-byte: the (time, seq) total order
// assigns sequence numbers at schedule time, ties are pervasive (poll
// interval == Δ), and the running-stat accumulators are floating-point
// order-dependent. So the sharded engine keeps ONE authoritative event
// queue — the commit thread processes events in the exact serial order —
// and parallelizes the dominant per-event cost instead: router planning.
//
//   partition   partition_graph() cuts the channel graph into K shards
//               (deterministic in the run seed); a payment belongs to the
//               shard of its source node.
//   windows     The simulator batches execution into lookahead windows
//               (lookahead = minimum cross-shard hop delay: hop_delay in
//               router-queue mode, Δ otherwise — SimConfig::
//               shard_lookahead overrides). At window open it enumerates
//               every plan the window may request and posts each to its
//               owning shard's mailbox.
//   workers     min(K, thread budget) shard workers drain the mailboxes,
//               planning each job against a window-start REPLICA of the
//               network with their own Router instance, and publish (plan,
//               read set) into the job's slot.
//   commit      When the commit thread reaches the matching attempt() it
//               consumes the slot iff validation PROVES the speculative
//               plan equals a fresh one:
//                 - requested amount == speculated amount,
//                 - topology generation unchanged since window open,
//                 - the commit router's candidate-path set for the pair is
//                   exactly the set the worker planned over,
//                 - no balance the plan read (sender side of every hop of
//                   every candidate path) mutated since window open —
//                   tracked by per-(edge, side) mutation serials fed from
//                   Network::set_balance_listener.
//               Any failure falls back to planning inline. Misses cost
//               time, never correctness: serial == sharded, byte-identical,
//               at any shard count — the same invariant gate as
//               streamed==batch (PR 3) and chunked==batch (PR 5).
//   merge       close_window() is the conservative-synchronization barrier:
//               workers quiesce, unconsumed slots are discarded, and the
//               next window's replica sync copies exactly the channels the
//               commit thread mutated (the balance-listener feed doubles
//               as the dirty list), so the steady-state sync is O(mutated
//               channels), not O(E).
//
// Churn interaction (PR 4): a topology event bumps the generation mid-
// window, which fails every later consume in that window; the next window
// rebuilds the replica from the live graph and re-inits the worker routers
// — generation bumps propagate at window boundaries.
//
// Only schemes that opt into the PlanSpeculation::kCandidatePaths purity
// contract (waterfilling, shortest-path) are speculated; for the rest the
// sharded run degenerates to the serial loop plus a cheap no-op window,
// still byte-identical.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "fluid/payment_graph.hpp"
#include "graph/partition.hpp"
#include "sim/network.hpp"
#include "sim/speculation.hpp"

namespace spider {

/// Deterministic speculation counters: every field is a pure function of
/// (config, scheme, seed, trace, churn, shard count) — consume() waits for
/// in-flight slots instead of skipping them, so thread scheduling cannot
/// leak into the numbers. Asserted identical across reruns in
/// tests/test_sharded.cpp.
struct ShardStats {
  std::uint64_t windows = 0;
  std::uint64_t jobs = 0;        // slots opened across all windows
  std::uint64_t cross_shard_jobs = 0;  // src and dst on different shards
  std::uint64_t hits = 0;        // consumed speculative plans
  std::uint64_t miss_want = 0;   // amount changed before the attempt
  std::uint64_t miss_generation = 0;  // topology moved mid-window
  std::uint64_t miss_paths = 0;  // candidate set diverged from commit's
  std::uint64_t miss_balance = 0;     // a read balance mutated mid-window
  std::uint64_t unconsumed = 0;  // planned but never requested
  std::uint64_t uncovered = 0;   // consume() for a key never enqueued

  [[nodiscard]] std::uint64_t misses() const {
    return miss_want + miss_generation + miss_paths + miss_balance;
  }
};

/// The SpeculativePlanner + BalanceListener implementation behind
/// SimConfig shards > 1 (wired by SimSession). One instance serves one
/// run; the worker threads live for the run's lifetime.
class ShardExecutor final : public SpeculativePlanner,
                            public BalanceListener {
 public:
  /// `topology` is the run's starting graph (the replica seed), `scheme` /
  /// `config` what the live run executes; `shared_paths` may be null,
  /// `demand_hint` likewise (copied into a demand matrix for worker-router
  /// init). `threads` == 0 resolves the worker count to
  /// min(shards, thread_budget()).
  ShardExecutor(const Graph& topology, const SpiderConfig& config,
                Scheme scheme, const PathCache* shared_paths,
                const std::vector<PaymentSpec>* demand_hint, int shards,
                unsigned threads = 0);
  ~ShardExecutor() override;

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// Binds the live run: the authoritative network consume() validates
  /// generations against, and the commit router whose candidate-path sets
  /// are the validation reference. Call once, before the first window.
  void bind(const Network& live, Router& commit_router);

  // --- SpeculativePlanner ---------------------------------------------
  void open_window(const Network& live, const SpecJob* jobs,
                   std::size_t count) override;
  const std::vector<ChunkPlan>* consume(std::uint64_t key,
                                        Amount want) override;
  void close_window() override;

  // --- BalanceListener -------------------------------------------------
  void on_balance_mutation(EdgeId edge, int side) override;

  [[nodiscard]] const ShardStats& stats() const { return stats_; }
  [[nodiscard]] const GraphPartition& partition() const { return partition_; }
  [[nodiscard]] int shards() const { return partition_.parts; }
  [[nodiscard]] unsigned worker_threads() const {
    return static_cast<unsigned>(workers_.size());
  }
  /// Whether the scheme opted into speculation (kCandidatePaths). A false
  /// value means windows are no-ops and every plan happens inline.
  [[nodiscard]] bool speculative() const { return speculative_; }

 private:
  struct Slot {
    SpecJob job;
    // 0 = queued, 1 = planned. consume() spin-waits on this (acquire) so
    // hit/miss outcomes never depend on thread scheduling.
    std::atomic<std::uint8_t> state{0};
    bool consumed = false;
    // Worker results. `paths` copies the candidate set the plan was
    // computed over (also the validation reference + the storage the plan
    // points into); `read_slots` the (edge * 2 + side) balances it read.
    std::vector<Path> paths;
    std::vector<std::uint32_t> read_slots;
    std::vector<ChunkPlan> plan;

    Slot() = default;
    // Slots live in a pooled vector; moves only happen while the pool
    // grows between windows (no worker in flight).
    Slot(Slot&& other) noexcept
        : job(other.job),
          consumed(other.consumed),
          paths(std::move(other.paths)),
          read_slots(std::move(other.read_slots)),
          plan(std::move(other.plan)) {
      state.store(other.state.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    }
  };

  struct Worker {
    std::unique_ptr<Router> router;
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::uint32_t> queue;  // slot indices, this window
    std::uint64_t armed_epoch = 0;     // guarded by mutex
  };

  void worker_loop(Worker& worker);
  void plan_slot(Worker& worker, Slot& slot);
  void init_worker_routers();
  void sync_replica(const Network& live);
  [[nodiscard]] bool validate(const Slot& slot, Amount want);

  SpiderConfig config_;
  Scheme scheme_;
  const PathCache* shared_paths_;
  PaymentGraph demands_;  // copied once; worker-router re-inits reuse it
  GraphPartition partition_;
  bool speculative_ = false;

  const Network* live_ = nullptr;
  Router* commit_router_ = nullptr;

  // Window-start replica the workers plan against. Rebuilt from the live
  // graph when the topology generation moves; balance-mirrored (dirty
  // channels only) every window otherwise.
  std::optional<Network> replica_;
  bool replica_full_sync_ = true;  // first window / after rebuild
  std::uint64_t replica_generation_ = 0;

  // Commit-thread-only mutation tracking (the commit thread is the only
  // writer of the live network, so no synchronization is needed here).
  std::uint64_t mutation_counter_ = 0;
  std::uint64_t window_serial_ = 0;      // snapshot at window open
  std::uint64_t window_generation_ = 0;  // live generation at window open
  std::vector<std::uint64_t> slot_serial_;  // per (edge * 2 + side)
  std::vector<EdgeId> dirty_edges_;         // mutated since last sync
  std::vector<char> edge_dirty_;

  std::vector<std::unique_ptr<Worker>> workers_;
  // Per-worker mailbox staging: filled lock-free during job assignment,
  // swapped into Worker::queue under its mutex at arm time.
  std::vector<std::vector<std::uint32_t>> assign_scratch_;
  std::atomic<bool> stop_{false};
  std::uint64_t epoch_ = 0;  // window counter, arms the workers
  bool window_open_ = false;

  std::vector<Slot> slots_;  // pooled; grows monotonically
  std::size_t slots_used_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> key_to_slot_;

  ShardStats stats_;
};

}  // namespace spider
