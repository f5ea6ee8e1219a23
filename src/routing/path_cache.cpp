#include "routing/path_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "graph/ksp.hpp"
#include "util/assert.hpp"

namespace spider {

std::string path_selection_name(PathSelection selection) {
  switch (selection) {
    case PathSelection::kEdgeDisjoint: return "edge-disjoint";
    case PathSelection::kYen: return "yen";
  }
  return "?";
}

PathCache::PathCache(const Graph& graph, int k, PathSelection selection)
    : graph_(&graph), k_(k), selection_(selection) {
  SPIDER_ASSERT(k >= 1);
}

std::span<const Path> PathCache::paths(NodeId src, NodeId dst) {
  if (const auto stored = find(src, dst)) return *stored;
  const std::pair<NodeId, NodeId> pair{src, dst};
  warm({&pair, 1});
  return *find(src, dst);
}

std::optional<std::span<const Path>> PathCache::find(NodeId src,
                                                     NodeId dst) const {
  if (src == dst) return std::span<const Path>{};
  // A degenerate trace's out-of-range ids hit a clean assert.
  SPIDER_ASSERT(src >= 0 && src < graph_->num_nodes());
  SPIDER_ASSERT(dst >= 0 && dst < graph_->num_nodes());
  const std::uint32_t slot = index_.find(
      pair_key(src, dst), [this](std::uint32_t s) { return records_[s].key; });
  if (slot == FlatIndex::kAbsent || records_[slot].count < 0)
    return std::nullopt;
  return std::span<const Path>{arena_.data() + records_[slot].begin,
                               static_cast<std::size_t>(records_[slot].count)};
}

void PathCache::warm(std::span<const std::pair<NodeId, NodeId>> pairs,
                     unsigned threads) {
  // The missing pairs, deduplicated in first-appearance order (the order
  // they are stored in): each gets a pending record, which filters repeats.
  // A warm that fails (an out-of-range pair, a worker's exception) drops
  // its records again, so the store is left as it was.
  const std::size_t old_size = records_.size();
  std::vector<std::pair<NodeId, NodeId>> missing;
  const auto unmark = [&] {
    records_.resize(old_size);
    index_.truncate(old_size);
  };
  try {
    for (const auto& [src, dst] : pairs) {
      if (src == dst) continue;
      SPIDER_ASSERT(src >= 0 && src < graph_->num_nodes());
      SPIDER_ASSERT(dst >= 0 && dst < graph_->num_nodes());
      const std::uint64_t key = pair_key(src, dst);
      if (index_.find_or_insert(key, [this](std::uint32_t s) {
            return records_[s].key;
          }) < records_.size())
        continue;
      records_.push_back({key, 0, kPending});
      missing.emplace_back(src, dst);
    }
  } catch (...) {
    unmark();
    throw;
  }
  if (missing.empty()) return;

  // Group the pairs (as indices into `missing`) by source.
  std::vector<std::vector<std::uint32_t>> groups;
  FlatIndex group_of;  // source -> groups slot
  for (std::uint32_t i = 0; i < missing.size(); ++i) {
    const std::uint32_t g = group_of.find_or_insert(
        static_cast<std::uint64_t>(missing[i].first),
        [&](std::uint32_t s) -> std::uint64_t {
          return missing[groups[s].front()].first;
        });
    if (g == groups.size()) groups.emplace_back();
    groups[g].push_back(i);
  }

  // Each worker claims whole source groups; a pair's result depends only
  // on the graph, so which worker computes it cannot change it. A worker's
  // exception is caught and rethrown here once every thread has joined.
  std::vector<std::vector<Path>> found(missing.size());
  std::atomic<std::size_t> next_group{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;  // guarded by failure_mutex
  const auto work = [&] {
    try {
      BfsKernel tree(*graph_);
      KspSearch search(*graph_);
      for (std::size_t g = next_group.fetch_add(1); g < groups.size();
           g = next_group.fetch_add(1)) {
        const std::vector<std::uint32_t>& members = groups[g];
        const NodeId src = missing[members.front()].first;
        // A lone pair needs only the search that stops at its
        // destination; dst's path is the full tree's, and no other node
        // is read.
        tree.run(src, members.size() == 1 ? missing[members.front()].second
                                          : kInvalidNode);
        for (const std::uint32_t i : members) {
          const NodeId dst = missing[i].second;
          if (!tree.reached(dst)) continue;
          Path first;
          tree.path_to(dst, first);
          found[i] = selection_ == PathSelection::kEdgeDisjoint
                         ? search.edge_disjoint(std::move(first), k_)
                         : search.yen(std::move(first), k_);
          // Stamped here, on the worker, while the edges are still hot.
          for (Path& path : found[i]) stamp_key(path);
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  };
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(std::max(threads, 1u),
                                                  groups.size()));
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (unsigned w = 1; w < workers; ++w) pool.emplace_back(work);
  } catch (const std::system_error&) {
    // Fewer threads than asked for: the running ones claim every group.
  }
  work();
  for (std::thread& t : pool) t.join();
  if (failure) {
    unmark();
    std::rethrow_exception(failure);
  }

  // One exact allocation for a warm from empty (no doubling copies of the
  // arena); a lazy one-pair warm still grows it geometrically.
  std::size_t total = arena_.size();
  for (const std::vector<Path>& paths : found) total += paths.size();
  if (total > arena_.capacity())
    arena_.reserve(std::max(total, 2 * arena_.capacity()));
  for (std::size_t i = 0; i < missing.size(); ++i) {
    PairRecord& record = records_[old_size + i];
    record.begin = static_cast<std::uint32_t>(arena_.size());
    record.count = static_cast<std::int32_t>(found[i].size());
    arena_.insert(arena_.end(), std::make_move_iterator(found[i].begin()),
                  std::make_move_iterator(found[i].end()));
  }
}

void CandidatePaths::init(const Graph& graph, int k, PathSelection selection,
                          const PathCache* shared) {
  SPIDER_ASSERT(k >= 1);
  *this = CandidatePaths{};  // drops the private cache, memo and delta
  graph_ = &graph;
  k_ = k;
  selection_ = selection;
  shared_ = (shared != nullptr && shared->k() >= k &&
             shared->selection() == selection)
                ? shared
                : nullptr;
}

std::span<const Path> CandidatePaths::paths(NodeId src, NodeId dst) {
  SPIDER_ASSERT_MSG(graph_ != nullptr, "init() must run before paths()");
  std::span<const Path> base;
  const auto hit = shared_ != nullptr ? shared_->find(src, dst) : std::nullopt;
  if (hit) {
    base = hit->first(std::min(hit->size(), static_cast<std::size_t>(k_)));
  } else {
    if (!own_) own_.emplace(*graph_, k_, selection_);
    base = own_->paths(src, dst);
  }
  // Static fast path: no channel has ever closed, so every stored path is a
  // valid trail and the lookup is exactly the pre-churn one.
  if (graph_->closed_edge_count() == 0) return base;
  // Close-aware path: consult the per-(pair, generation) verdict memo — a
  // current tag answers without touching the paths at all.
  const std::uint64_t key = pair_key(src, dst);
  const std::uint32_t slot = memo_index_.find_or_insert(
      key, [this](std::uint32_t s) { return memo_[s].key; });
  if (slot == memo_.size()) memo_.push_back({key, 0});
  std::uint64_t& tag = memo_[slot].tag;
  if ((tag >> 32) == generation_ + 1) {
    const auto code = static_cast<std::uint32_t>(tag);
    if (code == 0) return base;
    const std::vector<Path>& stored = delta_[code - 1];
    return {stored.data(), stored.size()};
  }
  const std::span<const Path> result = churned_paths(base, src, dst);
  // churned_paths appended to delta_ iff the base span was stale.
  const std::uint64_t code =
      result.data() == base.data() && result.size() == base.size()
          ? 0
          : static_cast<std::uint64_t>(delta_.size());
  tag = ((generation_ + 1) << 32) | code;
  return result;
}

bool CandidatePaths::all_open(std::span<const Path> paths) const {
  for (const Path& path : paths)
    for (const EdgeId e : path.edges)
      if (graph_->edge_closed(e)) return false;
  return true;
}

std::vector<Path> CandidatePaths::compute_pair(NodeId src, NodeId dst) const {
  switch (selection_) {
    case PathSelection::kEdgeDisjoint:
      return edge_disjoint_paths(*graph_, src, dst, k_);
    case PathSelection::kYen:
      return yen_k_shortest_paths(*graph_, src, dst, k_);
  }
  return {};
}

std::span<const Path> CandidatePaths::churned_paths(
    std::span<const Path> base, NodeId src, NodeId dst) {
  // Validation runs once per (pair, generation) — the caller memoizes the
  // verdict. A base answer that avoids every closed edge is still exact
  // (opens never invalidate it — open-lazy semantics); a stale one is
  // recomputed against the current graph into this generation's delta.
  if (all_open(base)) return base;
  delta_.push_back(compute_pair(src, dst));
  for (Path& path : delta_.back()) stamp_key(path);
  const std::vector<Path>& stored = delta_.back();
  return {stored.data(), stored.size()};
}

}  // namespace spider
