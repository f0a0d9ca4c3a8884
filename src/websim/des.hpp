// Discrete-event simulation engine.
//
// Minimal but complete: a time-ordered event queue with stable FIFO
// ordering for simultaneous events, deadline-bounded execution, and event
// accounting. All simulator components (stations, browsers, queues) are
// built on `schedule`/`now`.
//
// The pending set is one binary min-heap (std::push_heap/pop_heap) on the
// (time, seq) total order. A calendar queue of pairing heaps used to sit
// beside it and was deleted: it recalibrates only above 64 pending events,
// so at the tuning workloads' 60 browsers it ran as one pairing heap and
// was slower than this heap (see DESIGN.md §11).
//
// The hot path is allocation-free and copy-free in steady state:
//   * Event callbacks are fixed-capacity inline callables — scheduling
//     never heap-allocates, and captures that do not fit fail to compile.
//   * Callbacks live in chunked slot storage with stable addresses. The
//     templated schedule path constructs the callable directly in its slot
//     (zero intermediate moves) and dispatch invokes it in place.
//   * Queue entries are plain data (time + packed seq/slot), so heap sifts
//     never touch callback storage.
// Warm free lists (or a reserve_events() call) make schedule/step perform
// zero heap allocations.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/inline_function.hpp"

namespace harmony::websim {

using SimTime = double;  ///< seconds of simulated time

class Simulation {
 public:
  /// Inline storage for one event callback. Sized for the simulator's
  /// largest closure (a station completion: the station pointer plus an
  /// inline Done callable); captures that do not fit fail to compile.
  static constexpr std::size_t kActionCapacity = 64;
  using Action = util::InlineFunction<void(), kActionCapacity>;

  /// Current simulated time (0 at construction).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` `delay` seconds from now (delay >= 0; negative
  /// delays throw). Events at equal times run in scheduling order.
  /// The templated overload constructs the callable directly in its event
  /// slot; the Action overload accepts a pre-built callable (and rejects a
  /// null one).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Action> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void schedule(SimTime delay, F&& f) {
    HARMONY_REQUIRE(delay >= 0.0, "cannot schedule in the past");
    schedule_at(now_ + delay, std::forward<F>(f));
  }
  void schedule(SimTime delay, Action action);

  /// Schedules at an absolute time >= now().
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Action> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void schedule_at(SimTime when, F&& f) {
    HARMONY_REQUIRE(when >= now_, "cannot schedule before now");
    const std::uint32_t s = acquire_slot();
    slot(s).emplace(std::forward<F>(f));
    push_event(when, s);
  }
  void schedule_at(SimTime when, Action action);

  /// Pre-sizes the event heap and the callback slot pool for roughly `n`
  /// simultaneously-pending events, avoiding reallocation churn in
  /// schedule-heavy phases.
  void reserve_events(std::size_t n);

  /// Executes the next event; false when the queue is empty.
  bool step();

  /// Runs until the queue empties or simulated time would exceed
  /// `deadline`. Events scheduled exactly at the deadline still run.
  void run_until(SimTime deadline);

  /// Total events executed so far.
  [[nodiscard]] std::uint64_t executed_events() const noexcept {
    return executed_;
  }

  /// Events still pending.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return heap_.size();
  }

 private:
  // 16-byte queue entry: scheduling order (seq) and the callback's slot
  // index share one word. 40 bits of seq bound a simulation to ~10^12
  // events; 24 bits of slot bound it to ~16.7M simultaneously-pending
  // events — both enforced in schedule_at.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ULL << (64 - kSlotBits);
  struct Event {
    SimTime time;
    std::uint64_t key;  ///< (seq << kSlotBits) | slot
  };
  static bool earlier(const Event& a, const Event& b) noexcept {
    // seq occupies the high bits of key, so comparing keys at equal times
    // is exactly FIFO scheduling order.
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }
  // std::push_heap/pop_heap comparator for a min-heap on (time, seq).
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return earlier(b, a);
    }
  };

  // Chunked slot storage: addresses are stable across growth, so step()
  // can run a callback in place while it schedules further events.
  static constexpr std::size_t kSlotChunkShift = 9;  // 512 actions per chunk
  static constexpr std::size_t kSlotChunkSize = std::size_t{1}
                                                << kSlotChunkShift;
  [[nodiscard]] Action& slot(std::uint32_t s) noexcept {
    return slot_chunks_[s >> kSlotChunkShift][s & (kSlotChunkSize - 1)];
  }

  [[nodiscard]] std::uint32_t acquire_slot() {
    if (free_slots_.empty()) add_slot_chunk();  // cold: amortised growth
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }

  void push_event(SimTime when, std::uint32_t s) {
    HARMONY_REQUIRE(seq_ < kMaxSeq, "event sequence space exhausted");
    heap_.push_back(Event{when, (seq_++ << kSlotBits) | s});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  void add_slot_chunk();

  std::vector<Event> heap_;  ///< binary min-heap on (time, seq)
  std::vector<std::unique_ptr<Action[]>> slot_chunks_;
  std::vector<std::uint32_t> free_slots_;

  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  // Pop-order micro-assert state (checked in debug builds only).
  SimTime last_pop_time_ = 0.0;
  std::uint64_t last_pop_key_ = 0;
};

}  // namespace harmony::websim
