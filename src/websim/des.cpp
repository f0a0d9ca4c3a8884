#include "websim/des.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace harmony::websim {

void Simulation::schedule(SimTime delay, Action action) {
  HARMONY_REQUIRE(delay >= 0.0, "cannot schedule in the past");
  schedule_at(now_ + delay, std::move(action));
}

void Simulation::schedule_at(SimTime when, Action action) {
  HARMONY_REQUIRE(when >= now_, "cannot schedule before now");
  HARMONY_REQUIRE(static_cast<bool>(action), "null event action");
  const std::uint32_t s = acquire_slot();
  slot(s) = std::move(action);
  push_event(when, s);
}

void Simulation::add_slot_chunk() {
  HARMONY_REQUIRE(slot_chunks_.size() * kSlotChunkSize <= kSlotMask,
                  "too many pending events");
  const auto base =
      static_cast<std::uint32_t>(slot_chunks_.size() * kSlotChunkSize);
  slot_chunks_.push_back(std::make_unique<Action[]>(kSlotChunkSize));
  free_slots_.reserve(slot_chunks_.size() * kSlotChunkSize);
  // Lowest slot index on top of the free list, for locality.
  for (std::size_t i = kSlotChunkSize; i > 0; --i) {
    free_slots_.push_back(base + static_cast<std::uint32_t>(i - 1));
  }
}

void Simulation::reserve_events(std::size_t n) {
  while (slot_chunks_.size() * kSlotChunkSize < n) add_slot_chunk();
  const std::size_t cap = slot_chunks_.size() * kSlotChunkSize;
  if (free_slots_.size() == cap) {
    // Bulk growth stacked each new chunk's slots on top of the previous
    // chunk's, so slots would be handed out from the *last* chunk first.
    // Regenerate the free list descending so the lowest indices go out
    // first and the active slot range stays dense.
    for (std::size_t i = 0; i < cap; ++i) {
      free_slots_[i] = static_cast<std::uint32_t>(cap - 1 - i);
    }
  }
  heap_.reserve(n);
}

bool Simulation::step() {
  if (heap_.empty()) return false;
  // The minimum is known before the sift: start pulling its callback slot
  // (a random, often cache-cold 80-byte read) while pop_heap reorders the
  // heap underneath it.
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(
      &slot(static_cast<std::uint32_t>(heap_.front().key & kSlotMask)));
#endif
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event ev = heap_.back();
  heap_.pop_back();
  now_ = ev.time;
#ifndef NDEBUG
  assert((executed_ == 0 || ev.time > last_pop_time_ ||
          (ev.time == last_pop_time_ && ev.key > last_pop_key_)) &&
         "DES pops must be globally ordered on (time, seq)");
  last_pop_time_ = ev.time;
  last_pop_key_ = ev.key;
#endif
  ++executed_;
  const auto s = static_cast<std::uint32_t>(ev.key & kSlotMask);
  // Run the callback in place: slot addresses are stable and the slot is
  // not on the free list while it runs, so events it schedules can neither
  // move nor reuse it. Freed only after it returns.
  Action& action = slot(s);
  action();
  action.reset();
  free_slots_.push_back(s);
  return true;
}

void Simulation::run_until(SimTime deadline) {
  while (!heap_.empty() && heap_.front().time <= deadline) step();
  if (now_ < deadline) now_ = deadline;
}

}  // namespace harmony::websim
