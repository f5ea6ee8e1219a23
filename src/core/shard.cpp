#include "core/shard.hpp"

#include <algorithm>

#include "core/experiment.hpp"
#include "util/time.hpp"
#include "workload/traffic.hpp"

namespace spider {

ShardExecutor::ShardExecutor(const Graph& topology, const SpiderConfig& config,
                             Scheme scheme, const PathCache* shared_paths,
                             const std::vector<PaymentSpec>* demand_hint,
                             int shards, unsigned threads)
    : config_(config),
      scheme_(scheme),
      shared_paths_(shared_paths),
      demands_(demand_hint != nullptr
                   ? estimate_demand_matrix(topology.num_nodes(), *demand_hint)
                   : PaymentGraph(topology.num_nodes())),
      partition_(partition_graph(topology, shards, config.sim.seed)) {
  SPIDER_ASSERT(shards >= 1);
  replica_.emplace(topology);
  // One probe decides whether this scheme opted into the kCandidatePaths
  // purity contract. If not, the executor stays threadless and every
  // window is a no-op — the sharded run degenerates to the serial loop.
  std::unique_ptr<Router> probe = make_router(scheme_, config_);
  speculative_ =
      probe->plan_speculation() == PlanSpeculation::kCandidatePaths;
  if (!speculative_) return;

  const unsigned budget = thread_budget(threads);
  const unsigned count = std::min<unsigned>(
      static_cast<unsigned>(partition_.parts), std::max(1u, budget));
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->router = i == 0 ? std::move(probe) : make_router(scheme_, config_);
    workers_.push_back(std::move(worker));
  }
  init_worker_routers();
  assign_scratch_.resize(workers_.size());
  for (auto& worker : workers_)
    worker->thread =
        std::thread(&ShardExecutor::worker_loop, this, std::ref(*worker));
}

ShardExecutor::~ShardExecutor() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& worker : workers_) {
    // Empty critical section: pairs the store with the predicate check so a
    // worker between its check and its wait cannot miss the shutdown.
    { std::lock_guard<std::mutex> lock(worker->mutex); }
    worker->cv.notify_all();
  }
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
}

void ShardExecutor::bind(const Network& live, Router& commit_router) {
  SPIDER_ASSERT(live_ == nullptr);
  live_ = &live;
  commit_router_ = &commit_router;
}

void ShardExecutor::init_worker_routers() {
  RouterInitContext context;
  context.demand_hint = &demands_;
  context.delta_seconds = to_seconds(config_.sim.delta);
  context.shared_paths = shared_paths_;
  for (auto& worker : workers_) worker->router->init(*replica_, context);
}

void ShardExecutor::sync_replica(const Network& live) {
  const std::uint64_t live_generation = live.topology_generation();
  if (replica_full_sync_ || live_generation != replica_generation_) {
    if (live_generation != replica_generation_) {
      // Topology moved since the replica was built: rebuild structurally
      // from the live graph (edge ids are append-only, so the channel
      // arrays line up), mirror the runtime state, and re-init the worker
      // routers so their caches re-derive from the new topology — this is
      // where churn generation bumps propagate into the shards.
      replica_.emplace(live.graph());
      replica_->mirror_from(live);
      init_worker_routers();
    } else {
      replica_->mirror_from(live);
    }
    replica_generation_ = live_generation;
    replica_full_sync_ = false;
  } else if (!dirty_edges_.empty()) {
    replica_->mirror_channels_from(live, dirty_edges_.data(),
                                   dirty_edges_.size());
  }
  for (const EdgeId e : dirty_edges_)
    edge_dirty_[static_cast<std::size_t>(e)] = 0;
  dirty_edges_.clear();
}

void ShardExecutor::open_window(const Network& live, const SpecJob* jobs,
                                std::size_t count) {
  SPIDER_ASSERT(!window_open_);
  window_open_ = true;
  stats_.windows += 1;
  if (!speculative_) return;
  SPIDER_ASSERT(live_ == &live);

  sync_replica(live);
  window_serial_ = mutation_counter_;
  window_generation_ = live.topology_generation();

  slots_used_ = 0;
  key_to_slot_.clear();
  for (auto& scratch : assign_scratch_) scratch.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const SpecJob& job = jobs[i];
    if (key_to_slot_.contains(job.key)) continue;
    if (slots_used_ == slots_.size()) slots_.emplace_back();
    Slot& slot = slots_[slots_used_];
    slot.job = job;
    slot.consumed = false;
    slot.state.store(0, std::memory_order_relaxed);
    key_to_slot_.emplace(job.key, static_cast<std::uint32_t>(slots_used_));
    // A payment belongs to its source's shard; nodes churn never saw
    // (there are none today — opens reuse existing nodes) would fall back
    // to shard 0 rather than crash.
    const auto src = static_cast<std::size_t>(job.src);
    const auto dst = static_cast<std::size_t>(job.dst);
    const int shard =
        src < partition_.node_part.size() ? partition_.node_part[src] : 0;
    const int dst_shard =
        dst < partition_.node_part.size() ? partition_.node_part[dst] : 0;
    if (shard != dst_shard) stats_.cross_shard_jobs += 1;
    stats_.jobs += 1;
    assign_scratch_[static_cast<std::size_t>(shard) % workers_.size()]
        .push_back(static_cast<std::uint32_t>(slots_used_));
    ++slots_used_;
  }

  ++epoch_;
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    Worker& worker = *workers_[wi];
    {
      std::lock_guard<std::mutex> lock(worker.mutex);
      worker.queue.swap(assign_scratch_[wi]);
      worker.armed_epoch = epoch_;
    }
    worker.cv.notify_one();
  }
}

const std::vector<ChunkPlan>* ShardExecutor::consume(std::uint64_t key,
                                                     Amount want) {
  SPIDER_ASSERT(window_open_);
  if (!speculative_) return nullptr;
  const auto it = key_to_slot_.find(key);
  if (it == key_to_slot_.end()) {
    // A plan request the window enumeration did not predict (e.g. a churn
    // abort re-attempting a payment that arrived mid-window). Planning it
    // inline is the designed degradation.
    stats_.uncovered += 1;
    return nullptr;
  }
  Slot& slot = slots_[it->second];
  if (slot.consumed) return nullptr;  // re-attempt within the same window
  slot.consumed = true;
  // Wait for the worker rather than skipping an in-flight slot: hit/miss
  // counts stay pure functions of the run, not of thread scheduling.
  while (slot.state.load(std::memory_order_acquire) == 0)
    std::this_thread::yield();
  if (!validate(slot, want)) return nullptr;
  stats_.hits += 1;
  return &slot.plan;
}

bool ShardExecutor::validate(const Slot& slot, Amount want) {
  if (want != slot.job.want) {
    stats_.miss_want += 1;
    return false;
  }
  if (live_->topology_generation() != window_generation_) {
    stats_.miss_generation += 1;
    return false;
  }
  // The commit router's candidate set is the reference; the speculative
  // plan is only sound if the worker planned over exactly these paths.
  // (Equality can fail even at equal generations: after a churn rebuild the
  // freshly-inited worker caches re-derive from the new graph, while the
  // commit router's stale-base-plus-delta caches may lawfully answer with
  // the old candidate set.)
  const std::span<const Path> reference = commit_router_->plan_read_paths(
      slot.job.src, slot.job.dst, *live_);
  if (reference.size() != slot.paths.size()) {
    stats_.miss_paths += 1;
    return false;
  }
  for (std::size_t i = 0; i < reference.size(); ++i)
    if (reference[i].edges != slot.paths[i].edges) {
      stats_.miss_paths += 1;
      return false;
    }
  // Every balance the plan read must be untouched since window open.
  for (const std::uint32_t rs : slot.read_slots)
    if (rs < slot_serial_.size() && slot_serial_[rs] > window_serial_) {
      stats_.miss_balance += 1;
      return false;
    }
  return true;
}

void ShardExecutor::close_window() {
  SPIDER_ASSERT(window_open_);
  window_open_ = false;
  if (!speculative_) return;
  // Conservative-sync barrier: quiesce the shards so the next window may
  // rewrite the replica and the mailboxes without synchronization.
  for (std::size_t i = 0; i < slots_used_; ++i) {
    Slot& slot = slots_[i];
    while (slot.state.load(std::memory_order_acquire) == 0)
      std::this_thread::yield();
    if (!slot.consumed) stats_.unconsumed += 1;
  }
}

void ShardExecutor::on_balance_mutation(EdgeId edge, int side) {
  const std::size_t rs =
      static_cast<std::size_t>(edge) * 2 + static_cast<std::size_t>(side);
  if (rs >= slot_serial_.size()) slot_serial_.resize(rs + 2, 0);
  slot_serial_[rs] = ++mutation_counter_;
  const auto ei = static_cast<std::size_t>(edge);
  if (ei >= edge_dirty_.size()) edge_dirty_.resize(ei + 1, 0);
  if (edge_dirty_[ei] == 0) {
    edge_dirty_[ei] = 1;
    dirty_edges_.push_back(edge);
  }
}

void ShardExecutor::worker_loop(Worker& worker) {
  std::uint64_t done_epoch = 0;
  std::vector<std::uint32_t> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(worker.mutex);
      worker.cv.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               worker.armed_epoch > done_epoch;
      });
      if (stop_.load(std::memory_order_relaxed)) return;
      done_epoch = worker.armed_epoch;
      // Copy the mailbox under the lock: the commit thread refills the
      // queue (under this mutex) as soon as the barrier sees every slot
      // planned, which can happen while this loop is still unwinding.
      batch.assign(worker.queue.begin(), worker.queue.end());
    }
    for (const std::uint32_t si : batch) plan_slot(worker, slots_[si]);
  }
}

void ShardExecutor::plan_slot(Worker& worker, Slot& slot) {
  slot.paths.clear();
  slot.read_slots.clear();
  slot.plan.clear();

  const Network& net = *replica_;
  const std::span<const Path> candidates =
      worker.router->plan_read_paths(slot.job.src, slot.job.dst, net);
  slot.paths.assign(candidates.begin(), candidates.end());
  const Graph& graph = net.graph();
  for (const Path& path : slot.paths)
    for (std::size_t h = 0; h < path.edges.size(); ++h) {
      const EdgeId e = path.edges[h];
      slot.read_slots.push_back(
          static_cast<std::uint32_t>(e) * 2 +
          static_cast<std::uint32_t>(graph.side_of(e, path.nodes[h])));
    }

  Payment payment;
  payment.id = static_cast<PaymentId>(slot.job.key);
  payment.src = slot.job.src;
  payment.dst = slot.job.dst;
  payment.total = slot.job.want;
  // The kCandidatePaths contract promises plan() draws nothing from the
  // rng, so a throwaway generator keeps the run's real stream untouched.
  Rng rng(0);
  const std::vector<ChunkPlan> raw =
      worker.router->plan(payment, slot.job.want, net, rng);

  // Each chunk borrows a path from the router's candidate span; remap it
  // onto this slot's stable copy so the plan survives until consumption.
  slot.plan.reserve(raw.size());
  for (const ChunkPlan& chunk : raw) {
    SPIDER_ASSERT(chunk.path != nullptr);
    const std::ptrdiff_t index = chunk.path - candidates.data();
    SPIDER_ASSERT(index >= 0 &&
                  index < static_cast<std::ptrdiff_t>(candidates.size()));
    slot.plan.push_back(
        ChunkPlan{&slot.paths[static_cast<std::size_t>(index)], chunk.amount});
  }
  slot.state.store(1, std::memory_order_release);
}

}  // namespace spider
