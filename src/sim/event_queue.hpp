// Reusable discrete-event core: a totally-ordered event queue plus the
// simulation clock (netsim-style).
//
// Events are keyed by (time, insertion sequence number); integer microsecond
// timestamps plus the sequence tiebreak give the queue a strict total order,
// which is what makes every run bit-identical for a fixed seed. The queue
// owns the clock: now() is the timestamp of the last popped event, and
// popping asserts monotonicity, so a component driving its handlers off an
// EventQueue cannot observe time running backwards.
//
// Hot-path layout: one FIFO lane per event kind, with a binary heap as the
// fallback. Most of an owner's kinds are scheduled at now() plus a constant
// (a hop delay, a queue timeout, a settle delay, a poll or pace interval),
// so within a kind they arrive already in time order. schedule() appends an
// event to its kind's lane when the lane is empty or its tail is no later;
// only an event that would break the lane's order (a jittered delay) goes
// to the heap. The sequence number grows with every insert, so each lane is
// sorted by (time, seq), and pop() takes the least (time, seq) among the
// lane heads and the heap top: exactly the total order of a pure heap. On
// the packetized ripple-dctcp-replay run none of its 119,257 events reaches
// the heap, where a heap alone would hold 2,560 pending events on average
// (4,351 at most). The winner of a head scan is cached, so next_time()
// followed by pop() scans the heads once per event.
//
// Lanes are power-of-two ring buffers that grow while non-empty; the lanes
// and the heap vector keep their capacity across reset(), so a reused queue
// schedules and pops without allocating.
//
// The Simulator runs a second instance for its parked payments' deadlines
// (see Simulator::park): one kind, so one lane, with the heap for a
// deadline that arrives out of order.
//
// The payload is deliberately plain (an integer kind tag plus two integer
// operands) so the queue stays a dumb, reusable engine component: the
// Simulator — and any future event-driven subsystem — layers its own enum
// over `kind` and keeps the real state in side tables indexed by `index`.
// The queue reads `kind` only to pick a lane; a kind outside
// [0, kMaxLanes) always takes the heap.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace spider {

/// One scheduled occurrence. `kind` is an opaque tag (the owner's enum),
/// `index` addresses the owner's side tables (trace index, chunk slot, ...),
/// `stamp` lets the owner invalidate stale occurrences (timeout races).
struct SimEvent {
  TimePoint time = 0;
  std::uint64_t seq = 0;
  int kind = 0;
  std::size_t index = 0;
  std::uint64_t stamp = 0;
};

class EventQueue {
 public:
  /// Kinds in [0, kMaxLanes) get a FIFO lane; any other kind uses the heap.
  static constexpr int kMaxLanes = 32;

  /// Enqueues an event at absolute time `time` (must be >= now()).
  void schedule(TimePoint time, int kind, std::size_t index,
                std::uint64_t stamp = 0) {
    SPIDER_ASSERT_MSG(time >= now_, "scheduling into the past");
    const SimEvent ev{time, next_seq_++, kind, index, stamp};
    int dest = kHeap;
    if (kind >= 0 && kind < kMaxLanes) {
      Lane& lane = lanes_[static_cast<std::size_t>(kind)];
      if (lane.count == 0 || lane.back().time <= time) {
        lane.push(ev);
        active_ |= std::uint32_t{1} << kind;
        dest = kind;
      }
    }
    if (dest == kHeap) {
      heap_.push_back(ev);
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    // The new event carries the largest seq, so it displaces a cached
    // winner only with a strictly earlier time. Then its destination is the
    // new winner: a lane that held an earlier head could not have lost.
    if (next_ != kUnknown && time < head(next_).time) next_ = dest;
  }

  [[nodiscard]] bool empty() const { return heap_.empty() && active_ == 0; }
  [[nodiscard]] std::size_t size() const {
    std::size_t n = heap_.size();
    for (std::uint32_t m = active_; m != 0; m &= m - 1)
      n += lanes_[static_cast<std::size_t>(std::countr_zero(m))].count;
    return n;
  }

  /// Pops the earliest event and advances the clock to its timestamp.
  SimEvent pop() {
    SPIDER_ASSERT(!empty());
    const int from = winner();
    next_ = kUnknown;
    SimEvent ev;
    if (from == kHeap) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      ev = heap_.back();
      heap_.pop_back();
    } else {
      Lane& lane = lanes_[static_cast<std::size_t>(from)];
      ev = lane.pop_front();
      if (lane.count == 0) active_ &= ~(std::uint32_t{1} << from);
    }
    SPIDER_ASSERT_MSG(ev.time >= now_, "event time went backwards");
    now_ = ev.time;
    ++processed_;
    return ev;
  }

  /// The timestamp of the most recently popped event (0 before the first).
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Timestamp of the earliest pending event, without popping it. Requires
  /// !empty(). The scan's winner is cached for the pop() that follows.
  [[nodiscard]] TimePoint next_time() const {
    SPIDER_ASSERT(!empty());
    return head(winner()).time;
  }

  /// Total events popped since construction/reset — the denominator of the
  /// engine's raw event rate.
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

  /// Clears all pending events and rewinds the clock to `start`. Storage
  /// capacity is retained, so a reused queue stays allocation-free.
  void reset(TimePoint start = 0);

 private:
  static constexpr int kHeap = -1;     // winner: the heap top
  static constexpr int kUnknown = -2;  // winner not computed since a pop

  /// Heap order for the std heap algorithms: the least (time, seq) on top.
  struct Later {
    bool operator()(const SimEvent& a, const SimEvent& b) const {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  /// FIFO ring over a power-of-two vector; its events are in (time, seq)
  /// order because schedule() appends only at or after the tail's time.
  struct Lane {
    std::vector<SimEvent> ring;
    std::size_t head = 0;
    std::size_t count = 0;

    [[nodiscard]] const SimEvent& front() const { return ring[head]; }
    [[nodiscard]] const SimEvent& back() const {
      return ring[(head + count - 1) & (ring.size() - 1)];
    }
    void push(const SimEvent& ev) {
      if (count == ring.size()) grow();
      ring[(head + count) & (ring.size() - 1)] = ev;
      ++count;
    }
    SimEvent pop_front() {
      const SimEvent ev = ring[head];
      head = (head + 1) & (ring.size() - 1);
      --count;
      return ev;
    }
    void grow();  // doubles the ring, unwrapping it to start at index 0
  };

  [[nodiscard]] const SimEvent& head(int source) const {
    return source == kHeap ? heap_.front()
                           : lanes_[static_cast<std::size_t>(source)].front();
  }

  /// The source holding the least (time, seq): the cached winner, else one
  /// scan of the non-empty lane heads against the heap top.
  [[nodiscard]] int winner() const {
    if (next_ != kUnknown) return next_;
    int best = kHeap;
    const SimEvent* top = heap_.empty() ? nullptr : &heap_.front();
    for (std::uint32_t m = active_; m != 0; m &= m - 1) {
      const int k = std::countr_zero(m);
      const SimEvent& h = lanes_[static_cast<std::size_t>(k)].front();
      if (top == nullptr || h.time < top->time ||
          (h.time == top->time && h.seq < top->seq)) {
        best = k;
        top = &h;
      }
    }
    next_ = best;
    return best;
  }

  std::array<Lane, kMaxLanes> lanes_;
  std::uint32_t active_ = 0;      // bit k set iff lanes_[k] is non-empty
  std::vector<SimEvent> heap_;    // binary min-heap on (time, seq)
  mutable int next_ = kUnknown;   // cached winner(), valid until a pop
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  TimePoint now_ = 0;
};

}  // namespace spider
