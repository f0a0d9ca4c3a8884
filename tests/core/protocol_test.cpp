#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>

#include "core/objective.hpp"
#include "core/rsl.hpp"
#include "core/server.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace harmony::proto {
namespace {

TEST(Wire, SerializeParseRoundTrip) {
  const Message m{"CONFIG", {"2", "3.5", "-1"}};
  const Message back = parse_message(serialize(m));
  EXPECT_EQ(back.verb, "CONFIG");
  EXPECT_EQ(back.args, m.args);
}

TEST(Wire, RestOfLineVerbsKeepWhitespace) {
  const Message m{"BUNDLES", {"{ harmonyBundle B { int {1 10 1} } }"}};
  const Message back = parse_message(serialize(m));
  ASSERT_EQ(back.args.size(), 1u);
  EXPECT_EQ(back.args[0], m.args[0]);
}

TEST(Wire, ParseHandlesExtraWhitespace) {
  const Message m = parse_message("  REPORT   42.5  ");
  EXPECT_EQ(m.verb, "REPORT");
  EXPECT_EQ(m.args, (std::vector<std::string>{"42.5"}));
}

TEST(Wire, Validation) {
  EXPECT_THROW((void)parse_message(""), Error);
  EXPECT_THROW((void)serialize(Message{"", {}}), Error);
  EXPECT_THROW((void)serialize(Message{"REPORT", {"1 2"}}), Error);
  EXPECT_NO_THROW((void)serialize(Message{"HELLO", {"my client"}}));
}

constexpr const char* kRsl =
    "{ harmonyBundle x { int {-10 10 1 0} } }"
    "{ harmonyBundle y { int {-10 10 1 0} } }";

/// Measures -(x-3)^2 - (y+2)^2; optimum (3, -2).
double measure(const Configuration& c) {
  return -(c[0] - 3.0) * (c[0] - 3.0) - (c[1] + 2.0) * (c[1] + 2.0);
}

TEST(ServerSession, HappyPathTunesToOptimum) {
  ServerSession session;
  EXPECT_EQ(session.handle({"HELLO", {"app"}}).verb, "OK");
  const Message bundles = session.handle({"BUNDLES", {kRsl}});
  ASSERT_EQ(bundles.verb, "OK");
  EXPECT_EQ(bundles.args, (std::vector<std::string>{"2"}));

  int fetches = 0;
  while (true) {
    const Message r = session.handle({"FETCH", {}});
    if (r.is("DONE")) {
      ASSERT_GE(r.args.size(), 4u);
      EXPECT_EQ(r.args[0], "2");
      const double best = std::stod(r.args[3]);
      EXPECT_GE(best, -4.0);  // near the optimum value 0
      break;
    }
    ASSERT_EQ(r.verb, "CONFIG");
    Configuration c = {std::stod(r.args[1]), std::stod(r.args[2])};
    const Message okr =
        session.handle({"REPORT", {std::to_string(measure(c))}});
    EXPECT_EQ(okr.verb, "OK");
    ++fetches;
    ASSERT_LT(fetches, 500);
  }
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(static_cast<int>(session.trace().size()), fetches);
}

TEST(ServerSession, ProtocolViolationsReturnErrors) {
  ServerSession session;
  EXPECT_EQ(session.handle({"FETCH", {}}).verb, "ERROR");
  EXPECT_EQ(session.handle({"HELLO", {}}).verb, "ERROR");
  (void)session.handle({"HELLO", {"app"}});
  EXPECT_EQ(session.handle({"HELLO", {"again"}}).verb, "ERROR");
  EXPECT_EQ(session.handle({"BUNDLES", {"not rsl"}}).verb, "ERROR");
  (void)session.handle({"BUNDLES", {kRsl}});
  // REPORT before FETCH.
  EXPECT_EQ(session.handle({"REPORT", {"1.0"}}).verb, "ERROR");
  // Double FETCH.
  EXPECT_EQ(session.handle({"FETCH", {}}).verb, "CONFIG");
  EXPECT_EQ(session.handle({"FETCH", {}}).verb, "ERROR");
  // Bad report payloads.
  EXPECT_EQ(session.handle({"REPORT", {"abc"}}).verb, "ERROR");
  EXPECT_EQ(session.handle({"REPORT", {"1", "2"}}).verb, "ERROR");
  // Still recoverable.
  EXPECT_EQ(session.handle({"REPORT", {"1.5"}}).verb, "OK");
  // BYE closes.
  EXPECT_EQ(session.handle({"BYE", {}}).verb, "OK");
  EXPECT_EQ(session.handle({"FETCH", {}}).verb, "ERROR");
  EXPECT_TRUE(session.finished());
}

TEST(ServerSession, DoneIsIdempotent) {
  SessionOptions opts;
  opts.tuning.simplex.max_evaluations = 30;
  ServerSession session(opts);
  (void)session.handle({"HELLO", {"app"}});
  (void)session.handle({"BUNDLES", {kRsl}});
  while (true) {
    const Message r = session.handle({"FETCH", {}});
    if (r.is("DONE")) break;
    Configuration c = {std::stod(r.args[1]), std::stod(r.args[2])};
    (void)session.handle({"REPORT", {std::to_string(measure(c))}});
  }
  const Message again = session.handle({"FETCH", {}});
  EXPECT_EQ(again.verb, "DONE");  // repeated FETCH keeps answering DONE
}

TEST(ServerSession, SignatureMustPrecedeFetch) {
  ServerSession session;
  (void)session.handle({"HELLO", {"app"}});
  (void)session.handle({"BUNDLES", {kRsl}});
  (void)session.handle({"FETCH", {}});
  EXPECT_EQ(session.handle({"SIGNATURE", {"1", "0.5"}}).verb, "ERROR");
}

TEST(ServerSession, ExperienceIsStoredAndRetrieved) {
  HistoryDatabase db;
  SessionOptions opts;
  opts.tuning.simplex.max_evaluations = 120;

  // First client tunes cold and stores experience under its signature.
  {
    ServerSession s1(opts, &db);
    (void)s1.handle({"HELLO", {"day1"}});
    (void)s1.handle({"BUNDLES", {kRsl}});
    const Message sig = s1.handle({"SIGNATURE", {"2", "0.8", "0.2"}});
    EXPECT_EQ(sig.verb, "OK");
    EXPECT_TRUE(sig.args.empty());  // no experience yet
    while (true) {
      const Message r = s1.handle({"FETCH", {}});
      if (r.is("DONE")) break;
      Configuration c = {std::stod(r.args[1]), std::stod(r.args[2])};
      (void)s1.handle({"REPORT", {std::to_string(measure(c))}});
    }
  }
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db.record(0).label, "day1");

  // Second client with a nearby signature gets a warm start.
  ServerSession s2(opts, &db);
  (void)s2.handle({"HELLO", {"day2"}});
  (void)s2.handle({"BUNDLES", {kRsl}});
  const Message sig = s2.handle({"SIGNATURE", {"2", "0.78", "0.22"}});
  ASSERT_EQ(sig.args.size(), 2u);
  EXPECT_EQ(sig.args[0], "experience");
  EXPECT_EQ(sig.args[1], "day1");
  // With recorded values the first FETCH already reflects training: the
  // proposed configuration must be near the optimum region.
  const Message r = s2.handle({"FETCH", {}});
  ASSERT_EQ(r.verb, "CONFIG");
  Configuration c = {std::stod(r.args[1]), std::stod(r.args[2])};
  EXPECT_GE(measure(c), -60.0);  // far better than corner configs (-200+)
}

TEST(HarmonyClient, EndToEndOverLoopback) {
  HistoryDatabase db;
  SessionOptions opts;
  opts.tuning.simplex.max_evaluations = 150;
  ServerSession session(opts, &db);
  HarmonyClient client(
      [&](const Message& m) { return session.handle(m); });

  client.open("loopback-app", kRsl);
  EXPECT_FALSE(client.send_signature({0.5, 0.5}).has_value());
  int iterations = 0;
  while (auto c = client.fetch()) {
    client.report(measure(*c));
    ++iterations;
    ASSERT_LT(iterations, 500);
  }
  EXPECT_GE(client.best_performance(), -4.0);
  EXPECT_EQ(client.best_configuration().size(), 2u);
  client.close();
  EXPECT_EQ(db.size(), 1u);
}

TEST(HarmonyClient, ServerErrorsBecomeExceptions) {
  ServerSession session;
  HarmonyClient client(
      [&](const Message& m) { return session.handle(m); });
  EXPECT_THROW(client.report(1.0), Error);  // no session opened
}

TEST(Wire, RestOfLinePayloadsCannotSmuggleMessages) {
  // Embedded CR/LF in a rest-of-line payload would let one serialized
  // message masquerade as two on a line-framed transport. Rejected at
  // serialization AND at parse, so neither endpoint trusts the other.
  EXPECT_THROW((void)serialize(Message{"HELLO", {"app\nFETCH"}}), Error);
  EXPECT_THROW((void)serialize(Message{"HELLO", {"app\rFETCH"}}), Error);
  EXPECT_THROW((void)serialize(Message{"BUNDLES", {"rsl }\nREPORT 1"}}),
               Error);
  EXPECT_THROW((void)serialize(Message{"ERROR", {"oops\nOK"}}), Error);
  EXPECT_THROW((void)serialize(Message{"REPORT", {"1\n2"}}), Error);
  EXPECT_THROW((void)parse_message("HELLO app\nFETCH"), Error);
  EXPECT_THROW((void)parse_message("FETCH\r"), Error);
  // error() sanitizes control characters, so exception text containing
  // newlines still serializes to exactly one line.
  const Message err = error("multi\nline\rmessage");
  EXPECT_NO_THROW((void)serialize(err));
  EXPECT_EQ(serialize(err).find('\n'), std::string::npos);
}

TEST(HarmonyClient, ExtendedDoneCarriesEvaluationsAndStopReason) {
  SessionOptions opts;
  opts.tuning.simplex.max_evaluations = 40;
  ServerSession session(opts);
  HarmonyClient client(
      [&](const Message& m) { return session.handle(m); });
  client.open("ext-done", kRsl);
  while (auto c = client.fetch()) client.report(measure(*c));
  // The extended DONE appends <evals> <stop-reason> after <perf>; the
  // client exposes both and still parses <perf> from its fixed position.
  EXPECT_GT(client.evaluations(), 0);
  EXPECT_FALSE(client.stop_reason().empty());
  EXPECT_EQ(client.stop_reason().find(' '), std::string::npos);
  EXPECT_GE(client.best_performance(), -4.0);
  client.close();
}

TEST(ServerSession, StepBudgetLimitsFetches) {
  SessionOptions opts;
  opts.max_steps = 3;
  ServerSession session(opts);
  (void)session.handle({"HELLO", {"budgeted"}});
  (void)session.handle({"BUNDLES", {kRsl}});
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(session.handle({"FETCH", {}}).verb, "CONFIG");
    EXPECT_EQ(session.handle({"REPORT", {"1.0"}}).verb, "OK");
  }
  const Message over = session.handle({"FETCH", {}});
  EXPECT_EQ(over.verb, "ERROR");
  EXPECT_NE(over.args[0].find("budget"), std::string::npos);
}

TEST(ServerSession, WarmStartLabelIsOneToken) {
  // A client name may hold whitespace; the SIGNATURE reply carries it as a
  // single argument, so it must reach the wire folded to one token.
  HistoryDatabase db;
  db.add({"my app\tv2", {0.5}, {{{3.0, -2.0}, 0.0}}});
  SessionOptions opts;
  opts.record_experience = false;
  ServerSession session(opts, &db);
  (void)session.handle({"HELLO", {"next"}});
  (void)session.handle({"BUNDLES", {kRsl}});
  const Message sig = session.handle({"SIGNATURE", {"1", "0.5"}});
  ASSERT_EQ(sig.args.size(), 2u);
  EXPECT_EQ(sig.args[1], "my_app_v2");
  EXPECT_EQ(parse_message(serialize(sig)).args, sig.args);
}

/// Served and in-process warm starts share one planner: for the same
/// database, objective and options, a ServerSession driven through
/// SIGNATURE/FETCH/REPORT and HarmonyServer::tune (TuningSession) must
/// consume bit-identical traces for every kernel, with or without the
/// recorded values.
class WarmStartParity
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(WarmStartParity, ServedTraceMatchesInProcess) {
  const auto& [kernel, recorded] = GetParam();
  const ParameterSpace space = parse_rsl(kRsl);
  const auto objective_fn = [](const Configuration& c) {
    return measure(c) + 0.25 * std::sin(c[0] * 1.7 + c[1]);
  };

  // One prior run, recorded cold, is the whole experience database.
  ServerOptions cold;
  cold.tuning.simplex.max_evaluations = 30;
  HarmonyServer recorder(space, cold);
  FunctionObjective prior_objective(objective_fn);
  (void)recorder.tune(prior_objective, {0.5}, "prior");
  ASSERT_EQ(recorder.database().size(), 1u);
  ASSERT_GT(recorder.database().record(0).measurements.size(),
            space.size() + 1);

  TuningOptions tuning;
  tuning.simplex.max_evaluations = 60;
  tuning.search.kernel = kernel;

  ServerOptions so;
  so.tuning = tuning;
  so.use_recorded_values = recorded;
  so.record_experience = false;
  HarmonyServer server(space, so);
  server.database() = recorder.database();
  FunctionObjective objective(objective_fn);
  const ServedTuningResult local = server.tune(objective, {0.5}, "app");
  ASSERT_FALSE(local.failed) << local.failure;
  ASSERT_EQ(local.experience_label, "prior");

  HistoryDatabase db = recorder.database();
  SessionOptions opts;
  opts.tuning = tuning;
  opts.use_recorded_values = recorded;
  opts.record_experience = false;
  ServerSession session(opts, &db);
  ASSERT_EQ(session.handle({"HELLO", {"app"}}).verb, "OK");
  ASSERT_EQ(session.handle({"BUNDLES", {kRsl}}).verb, "OK");
  const Message sig = session.handle({"SIGNATURE", {"1", "0.5"}});
  ASSERT_EQ(sig.args, (std::vector<std::string>{"experience", "prior"}));
  Message reply;
  for (int steps = 0;; ++steps) {
    ASSERT_LT(steps, 1000);
    reply = session.handle({"FETCH", {}});
    if (reply.is("DONE")) break;
    ASSERT_EQ(reply.verb, "CONFIG");
    Configuration c;
    for (std::size_t i = 1; i < reply.args.size(); ++i) {
      c.push_back(parse_double(reply.args[i]));
    }
    ASSERT_EQ(session.handle({"REPORT", {format_double(objective_fn(c))}}).verb,
              "OK");
  }

  const std::vector<Measurement>& served = session.trace();
  const std::vector<Measurement>& in_process = local.tuning.trace;
  ASSERT_EQ(served.size(), in_process.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].config, in_process[i].config) << "step " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(served[i].performance),
              std::bit_cast<std::uint64_t>(in_process[i].performance))
        << "step " << i;
  }
  // DONE: <n> <values...> <perf> <evals> <stop-reason> ...
  const std::size_t n = space.size();
  ASSERT_GE(reply.args.size(), n + 4);
  EXPECT_EQ(parse_double(reply.args[n + 1]), local.tuning.best_performance);
  EXPECT_EQ(parse_long(reply.args[n + 2]), local.tuning.evaluations);
  EXPECT_EQ(reply.args[n + 3], local.tuning.stop_reason);
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndRecordedValues, WarmStartParity,
    ::testing::Combine(::testing::Values("simplex", "ils", "evolutionary"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_recorded" : "_remeasured");
    });

}  // namespace
}  // namespace harmony::proto
