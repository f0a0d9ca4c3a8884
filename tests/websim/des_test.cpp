#include "websim/des.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace harmony::websim {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulation, SimultaneousEventsRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, NowAdvancesWithEvents) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule(2.5, [&] { seen = sim.now(); });
  sim.run_until(5.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // advances to the deadline
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) sim.schedule(1.0, chain);
  };
  sim.schedule(1.0, chain);
  sim.run_until(100.0);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(5.0);  // event exactly at deadline still runs
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule(0.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RejectsPastAndNullEvents) {
  Simulation sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), Error);
  EXPECT_THROW(sim.schedule_at(-0.5, [] {}), Error);
  EXPECT_THROW(sim.schedule(1.0, nullptr), Error);
}

TEST(Simulation, ScheduleAtRejectsTimesBeforeNow) {
  Simulation sim;
  sim.schedule(2.0, [] {});
  sim.run_until(2.0);  // now() == 2.0
  EXPECT_THROW(sim.schedule_at(1.5, [] {}), Error);
  sim.schedule_at(2.0, [] {});  // exactly now() is allowed
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, EqualTimeEventsInterleaveFifoAcrossScheduleVariants) {
  Simulation sim;
  std::vector<int> order;
  // Mix relative and absolute scheduling at the same instant; execution
  // must follow scheduling order regardless of which API queued the event.
  sim.schedule(1.0, [&] { order.push_back(0); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulation, FifoOrderSurvivesNestedSameTimeScheduling) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] {
    order.push_back(0);
    // Scheduled mid-event at the current time: runs after everything that
    // was already queued for t=1.
    sim.schedule(0.0, [&] { order.push_back(3); });
    sim.schedule_at(sim.now(), [&] { order.push_back(4); });
  });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ReserveEventsPreservesBehaviour) {
  Simulation a, b;
  b.reserve_events(1024);
  std::vector<int> order_a, order_b;
  for (int i = 0; i < 200; ++i) {
    const double t = static_cast<double>((i * 37) % 11);
    a.schedule(t, [&order_a, i] { order_a.push_back(i); });
    b.schedule(t, [&order_b, i] { order_b.push_back(i); });
  }
  a.run_until(20.0);
  b.run_until(20.0);
  EXPECT_EQ(order_a, order_b);
  EXPECT_EQ(a.executed_events(), 200u);
}

// ---------------------------------------------------------------------------
// Event queue vs oracle. Every event is scheduled at a time >= now() and
// after every event already popped, so the whole pop stream — follow-ups
// scheduled from inside callbacks included — must be all scheduled events
// stably sorted on time, i.e. ordered by (time, scheduling order).

/// Records each event's scheduled time under an id in scheduling order,
/// and the ids (and now()) in the order the queue pops them.
struct Oracle {
  std::vector<double> times;  ///< times[id] = absolute scheduled time
  std::vector<int> popped;
  std::vector<double> popped_at;

  /// The pop order the (time, seq) contract demands.
  [[nodiscard]] std::vector<int> expected() const {
    std::vector<int> ids(times.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::stable_sort(ids.begin(), ids.end(),
                     [this](int a, int b) { return times[a] < times[b]; });
    return ids;
  }
};

struct NoFollowUp {
  void operator()() const {}
};

/// Schedules one recorded event at absolute time `when`; `then` runs
/// inside its callback (and may schedule more recorded events).
template <typename Then = NoFollowUp>
void schedule_recorded(Simulation& sim, Oracle& o, double when,
                       Then then = {}) {
  const int id = static_cast<int>(o.times.size());
  o.times.push_back(when);
  sim.schedule_at(when, [&sim, &o, id, then] {
    o.popped.push_back(id);
    o.popped_at.push_back(sim.now());
    then();
  });
}

/// Asserts the pop stream is the oracle's order, every event ran exactly
/// once, and each ran with now() at its own scheduled time.
void expect_oracle_order(const Oracle& o) {
  ASSERT_EQ(o.popped.size(), o.times.size());
  EXPECT_EQ(o.popped, o.expected());
  for (std::size_t k = 0; k < o.popped.size(); ++k) {
    ASSERT_EQ(o.popped_at[k], o.times[o.popped[k]]) << "pop " << k;
  }
}

/// Deterministic xorshift stream for the randomized traces.
struct XorShift {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint64_t operator()() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

TEST(EventQueue, RandomTiesWithNestedSchedulesMatchOracle) {
  // Pseudo-random times quantized to force plenty of ties; a slice of the
  // events schedules follow-ups from inside their callbacks, both later
  // and at the current instant.
  Simulation sim;
  Oracle o;
  XorShift next;
  for (int i = 0; i < 5000; ++i) {
    const double t = 1e-3 * static_cast<double>(next() % 800);
    if (i % 7 == 0) {
      schedule_recorded(sim, o, t, [&sim, &o] {
        schedule_recorded(sim, o, sim.now() + 0.25);
        schedule_recorded(sim, o, sim.now());
      });
    } else {
      schedule_recorded(sim, o, t);
    }
  }
  sim.run_until(10.0);
  expect_oracle_order(o);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(EventQueue, EqualTimeFloodStaysFifo) {
  // A few distinct timestamps shared by thousands of events: FIFO within
  // each timestamp must hold exactly.
  Simulation sim;
  sim.reserve_events(7000);
  Oracle o;
  for (int i = 0; i < 7000; ++i) {
    schedule_recorded(sim, o, 0.5 * static_cast<double>(i % 7));
  }
  sim.run_until(10.0);
  expect_oracle_order(o);
  // Spelled out for the flood: timestamp-major, scheduling order within.
  std::vector<int> fifo;
  for (int t = 0; t < 7; ++t) {
    for (int i = t; i < 7000; i += 7) fifo.push_back(i);
  }
  EXPECT_EQ(o.popped, fifo);
}

TEST(EventQueue, HandlesExtremeTimeScales) {
  // Nanosecond-spaced events next to events eons ahead and a pile-up at
  // 1e300: the order must not depend on the time scale.
  Simulation sim;
  Oracle o;
  for (int i = 0; i < 64; ++i) {
    schedule_recorded(sim, o, 1e-9 * static_cast<double>(i));
    schedule_recorded(sim, o, 1e12 + 3600.0 * static_cast<double>(i));
    schedule_recorded(sim, o, 1e300);
  }
  sim.run_until(1e301);
  expect_oracle_order(o);
}

TEST(EventQueue, SurvivesGrowthDrainAndRegrowth) {
  // Fill, drain with run_until, refill from the later now(), twice; the
  // oracle spans both rounds.
  Simulation sim;
  Oracle o;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 3000; ++i) {
      schedule_recorded(sim, o,
                        sim.now() + 1e-6 * static_cast<double>((i * 131) % 977));
    }
    sim.run_until(sim.now() + 1.0);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
  expect_oracle_order(o);
}

TEST(EventQueue, ReservedAndUnreservedQueuesMatchOracle) {
  // Schedules interleaved with single steps, so pops start while the
  // queue is still filling; pre-sizing must not change the order.
  auto run = [](bool reserve) {
    Simulation sim;
    if (reserve) sim.reserve_events(4096);
    Oracle o;
    for (int i = 0; i < 2000; ++i) {
      schedule_recorded(sim, o,
                        sim.now() + 1e-3 * static_cast<double>((i * 61) % 401));
      if (i % 3 == 0) sim.step();
    }
    sim.run_until(10.0);
    expect_oracle_order(o);
    return o.popped;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(EventQueue, PendingEventsTracksScheduleAndPop) {
  Simulation sim;
  EXPECT_EQ(sim.pending_events(), 0u);
  for (int i = 0; i < 10; ++i) sim.schedule(1.0 + i, [] {});
  EXPECT_EQ(sim.pending_events(), 10u);
  sim.step();
  EXPECT_EQ(sim.pending_events(), 9u);
  sim.run_until(100.0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 10u);
}

}  // namespace
}  // namespace harmony::websim
