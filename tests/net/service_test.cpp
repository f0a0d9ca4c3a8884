#include "net/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "core/protocol.hpp"
#include "net/client.hpp"
#include "util/error.hpp"

namespace harmony::net {
namespace {

constexpr const char* kRsl =
    "{ harmonyBundle x { int {-10 10 1 0} } }"
    "{ harmonyBundle y { int {-10 10 1 0} } }";

double measure(const Configuration& c) {
  return -(c[0] - 3.0) * (c[0] - 3.0) - (c[1] + 2.0) * (c[1] + 2.0);
}

/// Runs a service on a background thread for the scope of a test.
class ServiceFixture {
 public:
  explicit ServiceFixture(ServiceOptions opts = {}, HistoryDatabase db = {})
      : db_(std::move(db)),
        service_(db_, analyzer_, nullptr, std::move(opts)),
        thread_([this] { service_.run(); }) {}

  ~ServiceFixture() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      service_.stop();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return service_.port(); }
  [[nodiscard]] TuningService& service() noexcept { return service_; }
  [[nodiscard]] HistoryDatabase& db() noexcept { return db_; }

 private:
  HistoryDatabase db_;
  DataAnalyzer analyzer_;
  TuningService service_;
  std::thread thread_;
};

struct SessionOutcome {
  double best_perf = 0.0;
  Configuration best;
  int evaluations = 0;
  std::string stop_reason;
};

SessionOutcome run_session(std::uint16_t port, bool binary,
                           const std::string& label = "app") {
  SocketTransport transport("127.0.0.1", port, binary);
  proto::HarmonyClient client(
      [&transport](const proto::Message& m) { return transport(m); });
  client.open(label, kRsl);
  (void)client.send_signature({0.0});
  while (const std::optional<Configuration> config = client.fetch()) {
    client.report(measure(*config));
  }
  SessionOutcome out;
  out.best_perf = client.best_performance();
  out.best = client.best_configuration();
  out.evaluations = client.evaluations();
  out.stop_reason = client.stop_reason();
  client.close();
  return out;
}

TEST(TuningService, ConcurrentTextAndBinaryClientsAgree) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 30;
  opts.session.record_experience = false;  // keep every session cold
  ServiceFixture fixture(opts);

  std::vector<SessionOutcome> outcomes(3);
  std::vector<std::thread> clients;
  clients.emplace_back(
      [&] { outcomes[0] = run_session(fixture.port(), false); });
  clients.emplace_back(
      [&] { outcomes[1] = run_session(fixture.port(), true); });
  clients.emplace_back(
      [&] { outcomes[2] = run_session(fixture.port(), false); });
  for (std::thread& t : clients) t.join();

  // Identical cold sessions: same search, same framings, same answer —
  // bit-identical across text and binary.
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(outcomes[i].best_perf, outcomes[0].best_perf);
    EXPECT_EQ(outcomes[i].best, outcomes[0].best);
    EXPECT_EQ(outcomes[i].evaluations, outcomes[0].evaluations);
    EXPECT_EQ(outcomes[i].stop_reason, outcomes[0].stop_reason);
  }
  EXPECT_GT(outcomes[0].evaluations, 0);
  EXPECT_NEAR(outcomes[0].best[0], 3.0, 1.0);
  EXPECT_NEAR(outcomes[0].best[1], -2.0, 1.0);

  fixture.stop();
  EXPECT_GE(fixture.service().stats().sessions_completed, 3u);
  EXPECT_EQ(fixture.service().stats().wire_errors, 0u);
}

TEST(TuningService, ExperienceAccumulatesAcrossSessions) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  ServiceFixture fixture(opts);

  (void)run_session(fixture.port(), false, "first");
  (void)run_session(fixture.port(), true, "second");
  fixture.stop();

  EXPECT_EQ(fixture.db().size(), 2u);
  EXPECT_EQ(fixture.service().stats().records_ingested, 2u);
}

TEST(TuningService, TenantBudgetRejectsWithCleanError) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  opts.max_tenant_sessions = 1;
  ServiceFixture fixture(opts);

  // Hold one session open for the tenant, then try a second.
  SocketTransport held("127.0.0.1", fixture.port(), false);
  proto::HarmonyClient first(
      [&held](const proto::Message& m) { return held(m); });
  first.open("tenant-a", kRsl);

  SocketTransport second("127.0.0.1", fixture.port(), false);
  const proto::Message reply = second({"HELLO", {"tenant-a"}});
  EXPECT_EQ(reply.verb, "ERROR");
  ASSERT_FALSE(reply.args.empty());
  EXPECT_NE(reply.args[0].find("budget"), std::string::npos);

  // A different tenant is unaffected, and the server stayed healthy.
  (void)run_session(fixture.port(), false, "tenant-b");

  first.close();
  fixture.stop();
  EXPECT_EQ(fixture.service().stats().rejected_sessions, 1u);
}

TEST(TuningService, DrainFinishesInFlightStepsAndExitsCleanly) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  ServiceFixture fixture(opts);

  // A session abandoned mid-tune (EOF) must not record experience or wedge
  // the loop.
  {
    SocketTransport t("127.0.0.1", fixture.port(), false);
    proto::HarmonyClient c([&t](const proto::Message& m) { return t(m); });
    c.open("abandoned", kRsl);
    (void)c.fetch();
    // Transport closes here without BYE.
  }
  (void)run_session(fixture.port(), false, "finished");
  fixture.stop();

  EXPECT_EQ(fixture.db().size(), 1u);  // only the finished session recorded
  const ServiceStats& s = fixture.service().stats();
  EXPECT_EQ(s.sessions_completed, 1u);
  EXPECT_GE(s.accepted, 2u);
}

TEST(TuningService, StatsCountBatchesAndSteps) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  ServiceFixture fixture(opts);
  (void)run_session(fixture.port(), true, "counted");
  fixture.stop();
  const ServiceStats& s = fixture.service().stats();
  EXPECT_GT(s.steps, 0u);
  EXPECT_GT(s.batches, 0u);
  EXPECT_GE(s.steps, s.batches);
}

TEST(TuningService, WhitespaceLabelReachesTextClientAsOneToken) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  HistoryDatabase db;
  db.add({"my app", {0.0}, {{{3.0, -2.0}, 0.0}}});
  ServiceFixture fixture(opts, std::move(db));

  // The label travels as one reply argument: a raw space would fail the
  // text encoder on a pool thread and, unguarded, take the daemon down.
  {
    SocketTransport t("127.0.0.1", fixture.port(), /*binary=*/false);
    EXPECT_EQ(t({"HELLO", {"warm"}}).verb, "OK");
    EXPECT_EQ(t({"BUNDLES", {kRsl}}).verb, "OK");
    const proto::Message sig = t({"SIGNATURE", {"1", "0"}});
    EXPECT_EQ(proto::serialize(sig), "OK experience my_app");
    EXPECT_EQ(t({"BYE", {}}).verb, "OK");
  }
  // The daemon is still serving: a later session runs to DONE.
  const SessionOutcome next = run_session(fixture.port(), false, "next");
  EXPECT_GT(next.evaluations, 0);
  fixture.stop();
  EXPECT_EQ(fixture.service().stats().wire_errors, 0u);
}

// The coalescing window is honoured below 1 ms: with one connection open
// but idle, the loop can never fire early on "every connection pending",
// so each step of a busy session waits out the window. A 100 µs window
// must cost about 100 µs a step, not a whole millisecond.
TEST(TuningService, SubMillisecondCoalesceWindowIsHonoured) {
  ServiceOptions opts;
  opts.coalesce_window_us = 100;
  opts.session.tuning.simplex.max_evaluations = 100;
  opts.session.record_experience = false;  // both sessions run identically
  ServiceFixture fixture(opts);

  // Wall time and request count of one session, counted client-side.
  auto timed_session = [&fixture] {
    SocketTransport transport("127.0.0.1", fixture.port(), false);
    int round_trips = 0;
    proto::HarmonyClient client(
        [&transport, &round_trips](const proto::Message& m) {
          ++round_trips;
          return transport(m);
        });
    const auto start = std::chrono::steady_clock::now();
    client.open("busy", kRsl);
    (void)client.send_signature({0.0});
    while (const std::optional<Configuration> config = client.fetch()) {
      client.report(measure(*config));
    }
    client.close();
    const std::chrono::duration<double, std::milli> ms =
        std::chrono::steady_clock::now() - start;
    return std::pair{ms.count(), round_trips};
  };

  // Alone, every step dispatches as soon as it arrives: the control for
  // this machine's per-step cost.
  const auto [alone_ms, steps] = timed_session();
  SocketTransport idle("127.0.0.1", fixture.port(), false);
  ASSERT_EQ(idle({"HELLO", {"idle"}}).verb, "OK");
  const auto [waited_ms, waited_steps] = timed_session();
  fixture.stop();

  ASSERT_EQ(waited_steps, steps);
  ASSERT_GT(steps, 40);
  // Whole-millisecond rounding would add >= 1 ms a step; the window is
  // 0.1 ms, so allow half a millisecond of waiting per step.
  EXPECT_LT(waited_ms - alone_ms, 0.5 * steps)
      << steps << " steps: " << alone_ms << " ms alone, " << waited_ms
      << " ms beside an idle connection";
}

}  // namespace
}  // namespace harmony::net
