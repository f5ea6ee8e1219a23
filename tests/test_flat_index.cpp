// FlatIndex: the u64 -> u32 index behind the path store, the churn verdict
// memo, the transport's per-path states and the primal-dual pair table.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/flat_index.hpp"

namespace spider {
namespace {

/// An owner in miniature: records are just their keys, in insertion order.
struct Owner {
  std::vector<std::uint64_t> keys;
  FlatIndex index;

  [[nodiscard]] std::uint32_t find(std::uint64_t key) const {
    return index.find(key, [this](std::uint32_t s) { return keys[s]; });
  }
  std::uint32_t insert(std::uint64_t key) {
    const std::uint32_t slot = index.find_or_insert(
        key, [this](std::uint32_t s) { return keys[s]; });
    if (slot == keys.size()) keys.push_back(key);
    return slot;
  }
};

TEST(FlatIndex, DistinctKeysSharingATagStayApart) {
  // Random keys until two share a tag (birthday bound: ~80k draws).
  std::mt19937_64 rng(17);
  std::unordered_map<std::uint32_t, std::uint64_t> by_tag;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  for (;;) {
    const std::uint64_t key = rng();
    const auto [it, fresh] = by_tag.try_emplace(FlatIndex::tag_of(key), key);
    if (!fresh && it->second != key) {
      a = it->second;
      b = key;
      break;
    }
  }
  ASSERT_EQ(FlatIndex::tag_of(a), FlatIndex::tag_of(b));
  Owner owner;
  EXPECT_EQ(owner.insert(a), 0u);
  EXPECT_EQ(owner.find(b), FlatIndex::kAbsent);
  EXPECT_EQ(owner.insert(b), 1u);
  EXPECT_EQ(owner.insert(a), 0u);
  EXPECT_EQ(owner.find(a), 0u);
  EXPECT_EQ(owner.find(b), 1u);
  EXPECT_EQ(owner.index.size(), 2u);
}

TEST(FlatIndex, GrowsPastReserveAndKeepsLoadAtMostHalf) {
  Owner owner;
  owner.index.reserve(10);
  const std::size_t reserved = owner.index.capacity();
  EXPECT_GE(reserved, 20u);
  for (std::uint64_t k = 0; k < 10; ++k) owner.insert(k * 7919);
  EXPECT_EQ(owner.index.capacity(), reserved);  // no regrowth within reserve
  for (std::uint64_t k = 10; k < 5000; ++k) owner.insert(k * 7919);
  const std::size_t capacity = owner.index.capacity();
  EXPECT_EQ(capacity & (capacity - 1), 0u);
  EXPECT_LE(2 * owner.index.size(), capacity);
  for (std::uint64_t k = 0; k < 5000; ++k)
    EXPECT_EQ(owner.find(k * 7919), k) << k;
  // Looking up stored keys never grows the table.
  for (std::uint64_t k = 0; k < 5000; ++k) owner.insert(k * 7919);
  EXPECT_EQ(owner.index.capacity(), capacity);
}

TEST(FlatIndex, KeyZeroIsAnOrdinaryKey) {
  Owner owner;
  EXPECT_EQ(owner.find(0), FlatIndex::kAbsent);  // empty table
  owner.insert(5);
  EXPECT_EQ(owner.find(0), FlatIndex::kAbsent);
  EXPECT_EQ(owner.insert(0), 1u);
  EXPECT_EQ(owner.find(0), 1u);
  EXPECT_EQ(owner.find(5), 0u);
}

TEST(FlatIndex, LookupsAfterTruncateRebuild) {
  Owner owner;
  for (std::uint64_t k = 1; k <= 100; ++k) owner.insert(k << 32);
  const std::size_t capacity = owner.index.capacity();
  owner.keys.resize(40);
  owner.index.truncate(40);
  EXPECT_EQ(owner.index.size(), 40u);
  EXPECT_EQ(owner.index.capacity(), capacity);
  for (std::uint64_t k = 1; k <= 100; ++k) {
    const std::uint32_t expected =
        k <= 40 ? static_cast<std::uint32_t>(k - 1) : FlatIndex::kAbsent;
    EXPECT_EQ(owner.find(k << 32), expected) << k;
  }
  // Dropped keys come back at fresh slots.
  EXPECT_EQ(owner.insert(100ULL << 32), 40u);
  EXPECT_EQ(owner.insert(41ULL << 32), 41u);
  owner.keys.clear();
  owner.index.truncate(0);
  EXPECT_EQ(owner.find(1ULL << 32), FlatIndex::kAbsent);
  EXPECT_EQ(owner.insert(7), 0u);
}

TEST(FlatIndex, SeededWalkMatchesStdMap) {
  // Inserts, lookups and occasional truncations over a small key universe
  // (so keys repeat), with pair-shaped keys and 0 among them.
  std::mt19937_64 rng(2024);
  Owner owner;
  std::map<std::uint64_t, std::uint32_t> reference;
  std::vector<std::uint64_t> universe = {0};
  for (std::uint64_t src = 0; src < 40; ++src)
    for (std::uint64_t dst = 0; dst < 40; ++dst)
      universe.push_back((src << 32) | dst);
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t key = universe[rng() % universe.size()];
    const std::uint64_t op = rng() % 1000;
    if (op < 450) {
      const auto next = static_cast<std::uint32_t>(owner.keys.size());
      const auto [it, fresh] = reference.try_emplace(key, next);
      ASSERT_EQ(owner.insert(key), it->second) << step;
      ASSERT_EQ(fresh, owner.keys.size() == next + 1u) << step;
    } else if (op < 998) {
      const auto it = reference.find(key);
      ASSERT_EQ(owner.find(key),
                it == reference.end() ? FlatIndex::kAbsent : it->second)
          << step;
    } else {
      const std::size_t count =
          owner.keys.empty() ? 0 : rng() % owner.keys.size();
      owner.keys.resize(count);
      owner.index.truncate(count);
      std::erase_if(reference,
                    [&](const auto& entry) { return entry.second >= count; });
    }
    ASSERT_EQ(owner.index.size(), reference.size()) << step;
  }
}

TEST(FlatIndex, ConcurrentConstLookupsAfterBuild) {
  Owner owner;
  for (std::uint64_t k = 0; k < 20000; ++k) owner.insert(k * 0x100000001ULL);
  const Owner& shared = owner;
  std::vector<std::thread> readers;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&shared, &mismatches, t] {
      for (std::uint64_t k = 0; k < 20000; ++k) {
        const std::uint64_t key = (k + 5000 * t) % 20000 * 0x100000001ULL;
        if (shared.find(key) != (k + 5000 * t) % 20000) ++mismatches[t];
        if (shared.find(key + 1) != FlatIndex::kAbsent) ++mismatches[t];
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

}  // namespace
}  // namespace spider
