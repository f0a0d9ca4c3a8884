#include "net/service.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
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
#include "net/socket.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

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
  std::string strategy;
  std::vector<Measurement> trace;  ///< every configuration measured, in order
  int requests = 0;                ///< transport calls, BYE included
};

/// Fetches and reports on an open session until DONE.
SessionOutcome tune_to_done(proto::HarmonyClient& client) {
  SessionOutcome out;
  while (const std::optional<Configuration> config = client.fetch()) {
    const double perf = measure(*config);
    client.report(perf);
    out.trace.push_back({*config, perf, false});
  }
  out.best_perf = client.best_performance();
  out.best = client.best_configuration();
  out.evaluations = client.evaluations();
  out.stop_reason = client.stop_reason();
  out.strategy = client.server_strategy();
  return out;
}

/// Tunes the test surface to DONE through `transport`, then says BYE.
SessionOutcome run_session(const proto::Transport& transport,
                           const std::string& label = "app") {
  int requests = 0;
  proto::HarmonyClient client([&](const proto::Message& m) {
    ++requests;
    return transport(m);
  });
  client.open(label, kRsl);
  (void)client.send_signature({0.0});
  SessionOutcome out = tune_to_done(client);
  client.close();
  out.requests = requests;
  return out;
}

SessionOutcome run_session(std::uint16_t port, bool binary,
                           const std::string& label = "app") {
  SocketTransport transport("127.0.0.1", port, binary);
  return run_session(
      [&transport](const proto::Message& m) { return transport(m); }, label);
}

void expect_same_session(const SessionOutcome& got,
                         const SessionOutcome& want) {
  EXPECT_EQ(got.best_perf, want.best_perf);
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.stop_reason, want.stop_reason);
  EXPECT_EQ(got.strategy, want.strategy);
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (std::size_t i = 0; i < got.trace.size(); ++i) {
    EXPECT_EQ(got.trace[i].config, want.trace[i].config) << "step " << i;
    EXPECT_EQ(got.trace[i].performance, want.trace[i].performance);
  }
}

/// Writes all of `bytes` to a blocking socket.
void send_text(int fd, const std::string& bytes) {
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// The next line (without its newline) from `fd`, buffering what arrives
/// past it in `pending`; "" when nothing completes a line within `ms`.
std::string read_line(int fd, std::string& pending, int ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  for (;;) {
    const std::size_t eol = pending.find('\n');
    if (eol != std::string::npos) {
      std::string line = pending.substr(0, eol);
      pending.erase(0, eol + 1);
      return line;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{fd, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&p, 1, static_cast<int>(left.count())) != 1) {
      return "";
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return "";
    pending.append(buf, static_cast<std::size_t>(n));
  }
}

/// Connects with small socket buffers, so few bytes queue in the kernel on
/// this side.
Fd connect_small_buffers(std::uint16_t port) {
  Fd fd = connect_tcp("127.0.0.1", port);
  const int size = 16384;
  EXPECT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &size, sizeof size),
            0);
  EXPECT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &size, sizeof size),
            0);
  return fd;
}

/// Streams copies of `line` (each answered with a reply) through `fd`,
/// switched to non-blocking, and reads no reply. Stops once the peer has
/// accepted nothing for half a second, or after `limit` bytes. Returns the
/// bytes sent.
std::size_t flood_unread(int fd, std::size_t limit,
                         const std::string& line = "   \n") {
  EXPECT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK), 0);
  std::string chunk;
  for (int i = 0; i < 1024; ++i) chunk += line;
  std::size_t sent = 0;
  while (sent < limit) {
    const ssize_t n = ::write(fd, chunk.data(), chunk.size());
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      ADD_FAILURE() << "flood write failed: errno " << errno;
      break;
    }
    pollfd p{fd, POLLOUT, 0};
    if (::poll(&p, 1, 500) == 0) break;  // throttled
  }
  return sent;
}

/// Plays the session `want` was recorded from over `fd`, one text request
/// at a time, up to (not including) its final FETCH.
void play_until_last_fetch(int fd, std::string& pending,
                           const SessionOutcome& want) {
  const auto call = [&](const std::string& line) {
    send_text(fd, line + "\n");
    return read_line(fd, pending, 2000);
  };
  ASSERT_EQ(call("HELLO app"), "OK");
  ASSERT_EQ(call(std::string("BUNDLES ") + kRsl), "OK 2");
  ASSERT_EQ(call("SIGNATURE 1 0"), "OK");
  for (const Measurement& m : want.trace) {
    ASSERT_EQ(call("FETCH").substr(0, 7), "CONFIG ");
    ASSERT_EQ(call("REPORT " + format_double(m.performance)), "OK");
  }
}

/// Sends the reader's last FETCH, then proves with two probe round trips
/// that the loop has read it: each probe reply comes from a later loop
/// pass than the bytes it follows.
void send_last_fetch(int reader, std::uint16_t port) {
  send_text(reader, "FETCH\n");
  const Fd probe = connect_tcp("127.0.0.1", port);
  std::string probed;
  for (int i = 0; i < 2; ++i) {
    send_text(probe.get(), "   \n");
    ASSERT_EQ(read_line(probe.get(), probed, 5000).substr(0, 6), "ERROR ");
  }
}

/// Reads the reader's DONE and checks it against the recorded session.
void expect_done(int reader, std::string& pending,
                 const SessionOutcome& want) {
  const proto::Message done =
      proto::parse_message(read_line(reader, pending, 2000));
  ASSERT_EQ(done.verb, "DONE");
  ASSERT_GE(done.args.size(), 4u);
  EXPECT_EQ(parse_double(done.args[1]), want.best[0]);
  EXPECT_EQ(parse_double(done.args[2]), want.best[1]);
  EXPECT_EQ(parse_double(done.args[3]), want.best_perf);
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
  const SessionOutcome outcome = run_session(fixture.port(), true, "counted");
  fixture.stop();
  const ServiceStats& s = fixture.service().stats();
  EXPECT_GT(s.batches, 0u);
  // Every request executed counts, both halves of a REPORT + FETCH pair
  // included, so a lone pipelining client runs fewer dispatches than steps.
  EXPECT_EQ(s.steps, static_cast<std::uint64_t>(outcome.requests));
  EXPECT_LT(s.batches, s.steps);
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

// The socket client pipelines each REPORT behind the next request and the
// service runs the two in one dispatch; neither may change what a session
// computes. The oracle is the same exchange against a ServerSession in
// process, one request at a time.
TEST(TuningService, PipelinedSessionsMatchInProcessSession) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 40;
  opts.session.record_experience = false;
  ServiceFixture fixture(opts);

  proto::ServerSession local(opts.session);
  const SessionOutcome want = run_session(
      [&local](const proto::Message& m) { return local.handle(m); });
  ASSERT_GT(want.trace.size(), 10u);
  for (const bool binary : {false, true}) {
    SCOPED_TRACE(binary ? "binary" : "text");
    expect_same_session(run_session(fixture.port(), binary), want);
  }
  fixture.stop();
  EXPECT_EQ(fixture.service().stats().wire_errors, 0u);
}

// A REPORT's reply is read by the next call: a refused REPORT surfaces
// there with the server's message, and the stream stays in step.
TEST(TuningService, RefusedReportSurfacesFromTheNextCall) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  opts.session.record_experience = false;
  ServiceFixture fixture(opts);
  const SessionOutcome want = run_session(fixture.port(), false);

  for (const bool binary : {false, true}) {
    SCOPED_TRACE(binary ? "binary" : "text");
    SocketTransport transport("127.0.0.1", fixture.port(), binary);
    proto::HarmonyClient client(
        [&transport](const proto::Message& m) { return transport(m); });
    client.open("app", kRsl);
    client.report(1.0);  // nothing outstanding: the server refuses it
    try {
      (void)client.send_signature({0.0});
      ADD_FAILURE() << "refused REPORT went unnoticed";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "server error: no configuration outstanding");
    }
    // The SIGNATURE behind the refused REPORT still ran: the session goes
    // on exactly like an undisturbed one.
    expect_same_session(tune_to_done(client), want);
    client.close();
  }
}

// An unparsable text line is answered at once, not when the client's next
// valid request happens to flush the connection.
TEST(TuningService, UnparsableLineIsAnsweredWithoutAFollowingRequest) {
  ServiceFixture fixture;
  const Fd raw = connect_tcp("127.0.0.1", fixture.port());
  send_text(raw.get(), "   \n");
  std::string pending;
  EXPECT_EQ(read_line(raw.get(), pending, 1000).substr(0, 6), "ERROR ");
}

// A peer that never reads cannot hold the shutdown: the drain closes a
// connection that accepts no bytes for a while, and still delivers the
// reply of every step it executes to the peers that do read.
TEST(TuningService, DrainGivesUpOnAPeerThatNeverReads) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  opts.session.record_experience = false;
  // Long enough that the reader's last step is still waiting in the
  // coalescing window (beside the idle flooder) when stop() arrives.
  opts.coalesce_window_us = 5000000;
  ServiceFixture fixture(opts);
  const SessionOutcome want = run_session(fixture.port(), false);

  const Fd reader = connect_tcp("127.0.0.1", fixture.port());
  std::string pending;
  play_until_last_fetch(reader.get(), pending, want);

  // The flooder: ERROR replies that overflow the socket buffers, and no
  // read, ever. The flood ends once the service stops taking its bytes.
  const Fd hog = connect_small_buffers(fixture.port());
  (void)flood_unread(hog.get(), 1 << 20);
  send_last_fetch(reader.get(), fixture.port());

  const auto t0 = std::chrono::steady_clock::now();
  fixture.stop();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took.count(), 5.0);

  // The final dispatch ran the reader's FETCH and delivered its DONE.
  expect_done(reader.get(), pending, want);
}

// A peer that sends without ever reading cannot grow its buffers without
// bound: past the backlog cap the service stops reading its input, so the
// socket buffers fill and the peer's writes stop being accepted. The
// limits are what the service would take if it kept reading; what it
// takes instead is the cap plus the kernel's socket buffers.
TEST(TuningService, PeerThatNeverReadsIsThrottled) {
  ServiceFixture fixture;
  {
    // Unparsable lines: each is answered as it is decoded, so the reply
    // buffer is what grows.
    SCOPED_TRACE("unparsable lines");
    const Fd hog = connect_small_buffers(fixture.port());
    const std::size_t limit = 4 << 20;
    const std::size_t sent = flood_unread(hog.get(), limit);
    ASSERT_EQ(sent % 4, 0u);
    EXPECT_LT(sent, limit / 4);

    // Once the peer reads, the service picks up the rest of its input and
    // answers every line.
    std::size_t errors = 0;
    std::string tail;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (errors < sent / 4 && std::chrono::steady_clock::now() < deadline) {
      pollfd p{hog.get(), POLLIN, 0};
      if (::poll(&p, 1, 1000) != 1) continue;
      char buf[65536];
      const ssize_t n = ::read(hog.get(), buf, sizeof buf);
      if (n <= 0) continue;
      tail.append(buf, static_cast<std::size_t>(n));
      for (std::size_t eol; (eol = tail.find('\n')) != std::string::npos;) {
        ASSERT_EQ(tail.substr(0, 6), "ERROR ");
        tail.erase(0, eol + 1);
        ++errors;
      }
    }
    EXPECT_EQ(errors, sent / 4);
  }
  {
    // Well-formed requests: each waits behind the pending one, so the
    // undecoded input is what grows.
    SCOPED_TRACE("pipelined requests");
    const Fd hog = connect_small_buffers(fixture.port());
    const std::size_t limit = 16 << 20;
    EXPECT_LT(flood_unread(hog.get(), limit, "FETCH\n"), limit / 4);
  }
}

// A peer that reads a trickle cannot hold the shutdown either: each read
// lets a little more through and restarts the stall clock, but the drain
// as a whole has a deadline, and a reader in the same shutdown still gets
// its DONE. (The backlog cap already keeps the slow peer's queue short;
// the deadline bounds whatever remains.)
TEST(TuningService, DrainHasADeadlineForAPeerThatReadsATrickle) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  opts.session.record_experience = false;
  opts.coalesce_window_us = 5000000;  // as in DrainGivesUpOnAPeerThat...
  ServiceFixture fixture(opts);
  const SessionOutcome want = run_session(fixture.port(), false);

  const Fd reader = connect_tcp("127.0.0.1", fixture.port());
  std::string pending;
  play_until_last_fetch(reader.get(), pending, want);

  const Fd slow = connect_small_buffers(fixture.port());
  (void)flood_unread(slow.get(), 4 << 20);
  // 16 KB every 0.4 s, for at most 12 s: each read lets a little more
  // through, so the stall clock keeps restarting.
  std::atomic<bool> done_trickling{false};
  std::thread trickle([&] {
    const auto end =
        std::chrono::steady_clock::now() + std::chrono::seconds(12);
    while (!done_trickling.load() && std::chrono::steady_clock::now() < end) {
      char buf[16384];
      if (::read(slow.get(), buf, sizeof buf) == 0) break;  // closed
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
  });
  send_last_fetch(reader.get(), fixture.port());

  const auto t0 = std::chrono::steady_clock::now();
  fixture.stop();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  done_trickling.store(true);
  trickle.join();
  // The drain deadline is 3 s; allow 2 s of slack.
  EXPECT_LT(took.count(), 5.0);
  expect_done(reader.get(), pending, want);
}

}  // namespace
}  // namespace harmony::net
