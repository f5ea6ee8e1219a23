// Flat per-pair candidate-path store.
//
// §5.3.1: practical schemes restrict each pair to a small candidate set —
// the paper's evaluation uses 4 edge-disjoint shortest paths. Paths depend
// only on topology, so they are computed once per (src, dst) and stored.
//
// Layout (netsim-style flat tables, not a tree): all computed paths live in
// one contiguous arena, a pair's paths one contiguous range, found through
// one {key, begin, count} record per pair (first-seen order) behind a
// FlatIndex (util/flat_index.hpp): index memory tracks the pairs stored
// (~32 bytes each) at any graph size. `paths()` is therefore an
// allocation-free lookup after the first computation, and `warm()`
// precomputes a whole trace's pairs up front so a fully-warmed store can be
// shared read-only across ExperimentRunner workers instead of every run
// redoing Yen / edge-disjoint searches.
//
// Warm-up: `warm` deduplicates the missing pairs in first-appearance order,
// groups them by source and reads each pair's first path off one BFS tree
// per source (BFS discovery order is fixed, so these are exactly the
// parents a per-pair search would find); a source with one pair runs the
// targeted search instead, which stops at dst's first discovered
// neighbour and reaches only part of the tree, so the warm reads nothing
// off it but dst. The remaining paths come from the shared BFS kernel
// under a blocked-edge mask. A lazy miss in `paths` is a one-pair warm, so
// there is one computation path. Each worker stamps its
// paths' Path::key (graph/graph.hpp) as it finds them, so every stored path
// carries its path_hash and per-path consumers never rehash its edges.
//
// Thread-safety: const lookups (`find`, `cached`, `contains`) may run
// concurrently from any number of threads. `warm` is internally parallel —
// sources are spread over `threads` workers, each with its own BFS scratch,
// writing disjoint per-pair result slots that are appended to the arena in
// first-appearance order afterwards, so every thread count stores the same
// bytes — but externally serialized: mutations (`paths` on a miss, `warm`)
// must not overlap each other or const readers. The SpiderNetwork facade
// warms under a lock before handing the store out.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/flat_index.hpp"

namespace spider {

enum class PathSelection { kEdgeDisjoint, kYen };

[[nodiscard]] std::string path_selection_name(PathSelection selection);

class PathCache {
 public:
  PathCache(const Graph& graph, int k, PathSelection selection);

  /// Up to k candidate paths, shortest first; empty if dst is unreachable or
  /// src == dst (synthetic generators can emit self-pairs at large scale).
  /// Computes and stores the pair on first miss. The returned span is
  /// invalidated by the next *miss* (the arena may grow); callers consume it
  /// before their next lookup, which is the router discipline.
  [[nodiscard]] std::span<const Path> paths(NodeId src, NodeId dst);

  /// Read-only lookup: the stored paths (empty for src == dst), or nullopt
  /// if the pair was never computed. Safe across threads once warmed.
  [[nodiscard]] std::optional<std::span<const Path>> find(NodeId src,
                                                          NodeId dst) const;

  /// The stored paths, or an empty span if the pair was never computed.
  [[nodiscard]] std::span<const Path> cached(NodeId src, NodeId dst) const {
    return find(src, dst).value_or(std::span<const Path>{});
  }

  /// True if the pair's paths are already stored.
  [[nodiscard]] bool contains(NodeId src, NodeId dst) const {
    return find(src, dst).has_value();
  }

  /// Precomputes every listed pair not yet stored, on up to `threads`
  /// worker threads (the calling thread is one of them; 1 spawns none).
  /// The stored arena is the same for every thread count. Idempotent: when
  /// nothing is missing it only reads.
  void warm(std::span<const std::pair<NodeId, NodeId>> pairs,
            unsigned threads = 1);

  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] PathSelection selection() const { return selection_; }
  /// Number of (src, dst) pairs stored / total paths across them.
  [[nodiscard]] std::size_t pair_count() const { return records_.size(); }
  [[nodiscard]] std::size_t path_count() const { return arena_.size(); }

 private:
  static constexpr std::int32_t kPending = -1;  // queued by a running warm

  struct PairRecord {
    std::uint64_t key;  // pair_key(src, dst)
    std::uint32_t begin;
    std::int32_t count;
  };

  const Graph* graph_;
  int k_;
  PathSelection selection_;
  std::vector<PairRecord> records_;  // first-seen order
  FlatIndex index_;                  // pair key -> records_ slot
  std::vector<Path> arena_;  // contiguous; a pair's paths are one range
};

/// Router-side path source: prefers a shared warmed PathCache (const,
/// sharable across ExperimentRunner workers) when its parameters are
/// compatible, and falls back to a private lazy cache for pairs the shared
/// store does not hold. A router may want fewer paths than the shared store
/// computed (k <= shared k): both selection strategies grow their result
/// prefix-stably, so the first min(k, stored) paths equal a direct k-path
/// computation — asserted by tests/test_hot_paths.cpp.
///
/// Dynamic topology (generation delta): the base stores are append-only and
/// shared, so channel churn must not rewrite them. Instead the router calls
/// sync(network.topology_generation()) once per plan and lookups become
/// generation-aware:
///   - while the graph has never lost a channel, the base answer is exact
///     and the lookup path is byte-for-byte the static one;
///   - once closures exist, a base answer whose paths avoid every closed
///     edge is still served from the warm store, a stale pair (some
///     candidate path crosses a closed edge) is recomputed lazily against
///     the current graph into a per-generation delta, and either verdict
///     is memoized per (pair, generation) in a verdict-tag record behind
///     a FlatIndex (the store's own index type) — so the steady-state
///     churned lookup is one memo probe over the static lookup (the
///     "within 2x" bar bench_micro guardrails), and the validation scan
///     runs once per pair per generation, not per lookup.
/// Channel OPENS never invalidate a still-valid stored answer (open-lazy
/// semantics, DESIGN.md): stored paths remain correct trails; newly opened
/// shortcuts benefit pairs on their next recompute.
class CandidatePaths {
 public:
  /// `shared` may be nullptr (always use a private cache); an incompatible
  /// shared store (smaller k or different selection) is ignored.
  void init(const Graph& graph, int k, PathSelection selection,
            const PathCache* shared);

  /// Records the topology generation lookups should answer for. Routers
  /// call this at the top of every plan(); O(1) while the generation is
  /// unchanged (the steady state), O(delta size) when it moved.
  void sync(std::uint64_t generation) {
    if (generation == generation_) return;
    generation_ = generation;
    // Recomputed pairs belong to the generation they were computed under;
    // dropping them here (a) keeps delta memory bounded by the stale pairs
    // of ONE generation and (b) invalidates every memo tag at once (tags
    // embed the generation).
    delta_.clear();
  }

  /// Up to k candidate paths over OPEN channels, shortest first (empty if
  /// unreachable or src == dst). Same span-lifetime rule as
  /// PathCache::paths.
  [[nodiscard]] std::span<const Path> paths(NodeId src, NodeId dst);

 private:
  [[nodiscard]] bool all_open(std::span<const Path> paths) const;
  [[nodiscard]] std::vector<Path> compute_pair(NodeId src, NodeId dst) const;
  /// Validate-or-recompute slow path for closure-era lookups; the caller
  /// memoizes its verdict.
  [[nodiscard]] std::span<const Path> churned_paths(
      std::span<const Path> base, NodeId src, NodeId dst);

  const Graph* graph_ = nullptr;
  int k_ = 1;
  PathSelection selection_ = PathSelection::kEdgeDisjoint;
  const PathCache* shared_ = nullptr;
  std::optional<PathCache> own_;  // built on first shared-store miss
  std::uint64_t generation_ = 0;
  /// Per-pair verdict tags, one record per pair looked up since the first
  /// closure: high 32 bits = generation_ + 1 the verdict holds for, low 32
  /// bits = 0 for "base span valid" or 1 + index into delta_. A stale tag
  /// (other generation) falls through to the validate/recompute slow path.
  struct MemoRecord {
    std::uint64_t key;  // pair_key(src, dst)
    std::uint64_t tag;
  };
  std::vector<MemoRecord> memo_;
  FlatIndex memo_index_;  // pair key -> memo_ slot
  std::vector<std::vector<Path>> delta_;  // recomputed pairs, this gen only;
                                          // keys stamped like the arena's
};

}  // namespace spider
