#include "sim/event_queue.hpp"

namespace spider {

void EventQueue::Lane::grow() {
  std::vector<SimEvent> bigger(std::max<std::size_t>(16, 2 * ring.size()));
  for (std::size_t i = 0; i < count; ++i)
    bigger[i] = ring[(head + i) & (ring.size() - 1)];
  ring.swap(bigger);
  head = 0;
}

void EventQueue::reset(TimePoint start) {
  // Lanes rewind and the heap clears in place: a queue reused across runs
  // (the Simulator pattern) schedules and pops without ever reallocating.
  for (Lane& lane : lanes_) {
    lane.head = 0;
    lane.count = 0;
  }
  active_ = 0;
  heap_.clear();
  next_ = kUnknown;
  next_seq_ = 0;
  processed_ = 0;
  now_ = start;
}

}  // namespace spider
