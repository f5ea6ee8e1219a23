// Flat u64 -> u32 index, the one hash layout behind the engine's keyed
// tables: it maps a record's key to its slot in the owner's record vector,
// the i-th distinct key inserted getting slot i. A power of two of 8-byte
// {tag, slot} entries, probed linearly, at most half full. The tag is the
// high half of the key's Fibonacci hash — it mixes every key bit, where a
// pair key's raw high half is just its source — and its top bits pick the
// home entry. The owner's `key_of(slot)` confirms a tag match against the
// full key, so the index stores no keys (~16 bytes per key, whatever the
// key space) and regrows by tag alone. Const lookups may run concurrently;
// mutations must not overlap them.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace spider {

class FlatIndex {
 public:
  /// `find`'s answer for a key that is not stored.
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  /// The mixed hash: the entry tag, whose top bits pick the home entry.
  [[nodiscard]] static std::uint32_t tag_of(std::uint64_t key) {
    return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ULL) >> 32);
  }

  /// The slot recorded for `key`, or kAbsent. `key_of(slot)` returns the
  /// full key of the owner's record at `slot`.
  template <class KeyOf>
  [[nodiscard]] std::uint32_t find(std::uint64_t key,
                                   const KeyOf& key_of) const {
    if (entries_.empty()) return kAbsent;
    const std::uint32_t tag = tag_of(key);
    const std::size_t mask = entries_.size() - 1;
    for (std::size_t i = tag >> shift_;; i = (i + 1) & mask) {
      const Entry& entry = entries_[i];
      if (entry.slot == kAbsent ||
          (entry.tag == tag && key_of(entry.slot) == key))
        return entry.slot;
    }
  }

  /// The slot of `key`; if absent, stores it at slot size() and returns
  /// that. Slots go out in insertion order, so a new key's slot is where
  /// the owner appends its record.
  template <class KeyOf>
  std::uint32_t find_or_insert(std::uint64_t key, const KeyOf& key_of) {
    const std::uint32_t found = find(key, key_of);
    if (found != kAbsent) return found;
    const auto slot = static_cast<std::uint32_t>(size_);
    reserve(size_ + 1);
    place({tag_of(key), slot});
    return slot;
  }

  /// Sizes the table for `count` keys: inserting up to that many never
  /// regrows it.
  void reserve(std::size_t count) {
    SPIDER_ASSERT(count < (std::size_t{1} << 31));
    if (2 * count > entries_.size())
      refill(std::bit_ceil(std::max<std::size_t>(2 * count, 16)), kAbsent);
  }

  /// Drops every key whose slot is >= `count` (the owner truncated its
  /// records to `count`) and rebuilds the table at its current capacity.
  void truncate(std::size_t count) { refill(entries_.size(), count); }

  /// Number of keys stored / table entries allocated.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint32_t tag = 0;
    std::uint32_t slot = kAbsent;
  };

  /// Stores an entry whose key is not in the table.
  void place(const Entry& entry) {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = entry.tag >> shift_;
    while (entries_[i].slot != kAbsent) i = (i + 1) & mask;
    entries_[i] = entry;
    ++size_;
  }

  /// Re-places the entries whose slot is below `keep_below` into a table
  /// of `capacity` (a power of two) entries.
  void refill(std::size_t capacity, std::size_t keep_below) {
    std::vector<Entry> old(capacity);
    old.swap(entries_);
    shift_ = 33 - static_cast<int>(std::bit_width(capacity));  // 32 - log2
    size_ = 0;
    for (const Entry& entry : old)
      if (entry.slot < keep_below) place(entry);
  }

  std::vector<Entry> entries_;  // empty until the first insert or reserve
  std::size_t size_ = 0;
  int shift_ = 32;
};

}  // namespace spider
