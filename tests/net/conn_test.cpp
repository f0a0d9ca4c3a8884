#include "net/conn.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/history.hpp"
#include "net/wire.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace harmony::net {
namespace {

constexpr const char* kRsl =
    "{ harmonyBundle x { int {-10 10 1 0} } }"
    "{ harmonyBundle y { int {-10 10 1 0} } }";

/// Measures -(x-3)^2 - (y+2)^2; optimum (3, -2).
double measure(const Configuration& c) {
  return -(c[0] - 3.0) * (c[0] - 3.0) - (c[1] + 2.0) * (c[1] + 2.0);
}

void feed(Connection& c, const std::string& bytes) {
  (void)c.on_input(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                   bytes.size());
}

void feed(Connection& c, const std::vector<std::uint8_t>& bytes) {
  (void)c.on_input(bytes.data(), bytes.size());
}

/// Executes the pending request and returns the drained reply bytes.
std::string step(Connection& c) {
  EXPECT_TRUE(c.has_pending());
  c.execute_pending();
  std::string reply(reinterpret_cast<const char*>(c.output_data()),
                    c.output_size());
  c.consume_output(c.output_size());
  (void)c.try_parse();
  return reply;
}

/// Drives a full tuning session over the text framing; returns the DONE
/// line's arguments.
std::vector<std::string> run_text_session(Connection& conn) {
  feed(conn, "HELLO app\n");
  EXPECT_EQ(step(conn), "OK\n");
  feed(conn, std::string("BUNDLES ") + kRsl + "\n");
  EXPECT_EQ(step(conn), "OK 2\n");
  for (int guard = 0; guard < 10000; ++guard) {
    feed(conn, "FETCH\n");
    std::string line = step(conn);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    const proto::Message reply = proto::parse_message(line);
    if (reply.is("DONE")) return reply.args;
    EXPECT_EQ(reply.verb, "CONFIG");
    const Configuration config = {parse_double(reply.args[1]),
                                  parse_double(reply.args[2])};
    feed(conn, "REPORT " + format_double(measure(config)) + "\n");
    EXPECT_EQ(step(conn), "OK\n");
  }
  ADD_FAILURE() << "session never finished";
  return {};
}

/// Same session over the binary framing; returns the DONE arguments in
/// their text-equivalent form.
std::vector<std::string> run_binary_session(Connection& conn) {
  std::vector<std::uint8_t> out(kBinaryPreamble,
                                kBinaryPreamble + sizeof kBinaryPreamble);
  append_frame(out, {"HELLO", {"app"}});
  feed(conn, out);
  EXPECT_NE(step(conn), "");
  out.clear();
  append_frame(out, {"BUNDLES", {kRsl}});
  feed(conn, out);
  EXPECT_NE(step(conn), "");
  StreamDecoder replies(StreamDecoder::Mode::kBinary);
  for (int guard = 0; guard < 10000; ++guard) {
    out.clear();
    append_fetch_frame(out);
    feed(conn, out);
    const std::string raw = step(conn);
    replies.append(reinterpret_cast<const std::uint8_t*>(raw.data()),
                   raw.size());
    const StreamDecoder::Unit u = replies.next();
    EXPECT_EQ(u.kind, StreamDecoder::Unit::Kind::kFrame);
    const proto::Message reply =
        decode_frame_payload(u.payload, u.payload_len);
    if (reply.is("DONE")) return reply.args;
    EXPECT_EQ(reply.verb, "CONFIG");
    const Configuration config = {parse_double(reply.args[1]),
                                  parse_double(reply.args[2])};
    out.clear();
    append_report_frame(out, measure(config));
    feed(conn, out);
    const std::string ok = step(conn);
    replies.append(reinterpret_cast<const std::uint8_t*>(ok.data()),
                   ok.size());
    const StreamDecoder::Unit ou = replies.next();
    EXPECT_EQ(ou.kind, StreamDecoder::Unit::Kind::kFrame);
  }
  ADD_FAILURE() << "session never finished";
  return {};
}

TEST(Connection, TextAndBinarySessionsProduceIdenticalResults) {
  proto::SessionOptions opts;
  opts.tuning.simplex.max_evaluations = 40;
  Connection text(Fd(), opts);
  Connection binary(Fd(), opts);
  const std::vector<std::string> text_done = run_text_session(text);
  const std::vector<std::string> binary_done = run_binary_session(binary);
  // The binary framing moves raw IEEE doubles but converts through the
  // same format_double/parse_double pair at the boundary, so the two
  // framings carry bit-identical values, extended DONE fields included.
  EXPECT_EQ(text_done, binary_done);
  // evals, stop reason, refit counts, strategy tag
  ASSERT_EQ(text_done.size(), 9u);
  EXPECT_EQ(text_done[0], "2");
  EXPECT_EQ(text_done[8], "simplex");
}

/// The queued reply bytes, left in place.
std::string queued(const Connection& c) {
  return {reinterpret_cast<const char*>(c.output_data()), c.output_size()};
}

/// Decodes every binary frame in `raw`, in order.
std::vector<proto::Message> decode_frames(const std::string& raw) {
  StreamDecoder d(StreamDecoder::Mode::kBinary);
  d.append(reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size());
  std::vector<proto::Message> out;
  for (StreamDecoder::Unit u = d.next();
       u.kind == StreamDecoder::Unit::Kind::kFrame; u = d.next()) {
    out.push_back(decode_frame_payload(u.payload, u.payload_len));
  }
  return out;
}

/// Opens a text session and fetches its first configuration.
Configuration open_text_and_fetch(Connection& conn) {
  feed(conn, std::string("HELLO app\nBUNDLES ") + kRsl + "\n");
  EXPECT_EQ(step(conn), "OK\n");
  EXPECT_EQ(step(conn), "OK 2\n");
  feed(conn, "FETCH\n");
  std::string line = step(conn);
  line.pop_back();
  const proto::Message config = proto::parse_message(line);
  EXPECT_EQ(config.verb, "CONFIG");
  return {parse_double(config.args[1]), parse_double(config.args[2])};
}

TEST(Connection, ReportRunsWithThePipelinedRequestInText) {
  proto::SessionOptions opts;
  Connection conn(Fd(), opts);
  const Configuration first = open_text_and_fetch(conn);
  feed(conn, "REPORT " + format_double(measure(first)) + "\nFETCH\n");
  ASSERT_TRUE(conn.has_pending());
  EXPECT_EQ(conn.execute_pending(), 2u);  // one dispatch, both requests
  EXPECT_FALSE(conn.has_pending());
  const std::string out = queued(conn);
  ASSERT_EQ(out.substr(0, 3), "OK\n");  // replies in request order
  EXPECT_EQ(out.substr(3, 7), "CONFIG ");
  EXPECT_EQ(out.find('\n'), 2u);
  EXPECT_EQ(out.find('\n', 3), out.size() - 1);
}

TEST(Connection, ReportRunsWithThePipelinedRequestInBinary) {
  proto::SessionOptions opts;
  Connection conn(Fd(), opts);
  std::vector<std::uint8_t> out(kBinaryPreamble,
                                kBinaryPreamble + sizeof kBinaryPreamble);
  append_frame(out, {"HELLO", {"app"}});
  append_frame(out, {"BUNDLES", {kRsl}});
  append_fetch_frame(out);
  feed(conn, out);
  (void)step(conn);
  (void)step(conn);
  const std::vector<proto::Message> first = decode_frames(step(conn));
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first[0].verb, "CONFIG");
  out.clear();
  append_report_frame(out, measure({parse_double(first[0].args[1]),
                                    parse_double(first[0].args[2])}));
  append_fetch_frame(out);
  feed(conn, out);
  EXPECT_EQ(conn.execute_pending(), 2u);
  EXPECT_FALSE(conn.has_pending());
  const std::vector<proto::Message> replies = decode_frames(queued(conn));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].verb, "OK");
  EXPECT_EQ(replies[1].verb, "CONFIG");
}

TEST(Connection, HelloBehindReportWaitsForAdmission) {
  proto::SessionOptions opts;
  Connection conn(Fd(), opts);
  const Configuration first = open_text_and_fetch(conn);
  feed(conn, "REPORT " + format_double(measure(first)) + "\nHELLO other\n");
  EXPECT_EQ(conn.execute_pending(), 1u);
  ASSERT_TRUE(conn.has_pending());
  ASSERT_NE(conn.pending_message(), nullptr);
  EXPECT_TRUE(conn.pending_message()->is("HELLO"));
  EXPECT_EQ(queued(conn), "OK\n");
}

TEST(Connection, ReportPullsInAtMostOneFollower) {
  proto::SessionOptions opts;
  Connection conn(Fd(), opts);
  const Configuration first = open_text_and_fetch(conn);
  // The follower is itself a REPORT (refused: nothing outstanding); it
  // must not pull in the FETCH behind it.
  feed(conn, "REPORT " + format_double(measure(first)) +
                 "\nREPORT 1\nFETCH\n");
  EXPECT_EQ(conn.execute_pending(), 2u);
  EXPECT_EQ(queued(conn), "OK\nERROR no configuration outstanding\n");
  conn.consume_output(conn.output_size());
  EXPECT_FALSE(conn.has_pending());  // still buffered, not yet decoded
  ASSERT_TRUE(conn.try_parse());
  ASSERT_TRUE(conn.has_pending());  // the FETCH, for the next dispatch
  EXPECT_EQ(step(conn).substr(0, 7), "CONFIG ");
}

TEST(Connection, ByeRequestsClose) {
  proto::SessionOptions opts;
  Connection conn(Fd(), opts);
  feed(conn, "HELLO app\nBYE\n");
  EXPECT_EQ(step(conn), "OK\n");  // HELLO; BYE was pipelined behind it
  EXPECT_TRUE(conn.has_pending());
  EXPECT_EQ(step(conn), "OK\n");
  EXPECT_TRUE(conn.wants_close());
}

TEST(Connection, ProtocolErrorsAreRecoverable) {
  proto::SessionOptions opts;
  Connection conn(Fd(), opts);
  feed(conn, "FETCH\n");  // before HELLO
  EXPECT_EQ(step(conn).substr(0, 5), "ERROR");
  EXPECT_FALSE(conn.wants_close());
  feed(conn, "HELLO app\n");
  EXPECT_EQ(step(conn), "OK\n");  // the session still works
}

TEST(Connection, BlankLinesAreSkippedAndGarbageGetsError) {
  proto::SessionOptions opts;
  Connection conn(Fd(), opts);
  // Truly empty lines are tolerated silently (telnet users); an
  // unparsable line is answered with ERROR from the parse layer without
  // ever reaching the session.
  feed(conn, "\n\nHELLO app\n");
  EXPECT_TRUE(conn.has_pending());
  EXPECT_EQ(step(conn), "OK\n");
  feed(conn, "   \n");  // whitespace-only: no verb
  EXPECT_FALSE(conn.has_pending());
  const std::string reply(
      reinterpret_cast<const char*>(conn.output_data()), conn.output_size());
  EXPECT_EQ(reply.substr(0, 5), "ERROR");
  EXPECT_FALSE(conn.wants_close());
}

TEST(Connection, WireViolationIsFatal) {
  proto::SessionOptions opts;
  Connection conn(Fd(), opts);
  std::vector<std::uint8_t> out(kBinaryPreamble,
                                kBinaryPreamble + sizeof kBinaryPreamble);
  append_fetch_frame(out);
  out.back() ^= 0xFF;  // corrupt the frame
  EXPECT_FALSE(conn.on_input(out.data(), out.size()));
  EXPECT_TRUE(conn.wants_close());
  EXPECT_GT(conn.output_size(), 0u);  // ERROR reply queued before close
}

TEST(Connection, SmugglingRegression) {
  // A rest-of-line payload must not be able to smuggle a second framed
  // message: serialize() rejects embedded CR/LF at the source, and
  // parse_message() rejects it on arrival.
  EXPECT_THROW(
      (void)proto::serialize({"HELLO", {"app\nFETCH"}}), Error);
  EXPECT_THROW(
      (void)proto::serialize({"BUNDLES", {"rsl\rFETCH"}}), Error);
  EXPECT_THROW((void)proto::parse_message("HELLO app\nFETCH"), Error);
  // Over the generic binary framing an argument CAN carry raw CR/LF
  // bytes; the decode produces the message, and the session's reply path
  // re-serializes safely (error() folds control characters).
  std::vector<std::uint8_t> out;
  append_frame(out, {"HELLO", {"app\nFETCH"}});
  proto::SessionOptions opts;
  Connection conn(Fd(), opts);
  std::vector<std::uint8_t> preamble(
      kBinaryPreamble, kBinaryPreamble + sizeof kBinaryPreamble);
  feed(conn, preamble);
  feed(conn, out);
  ASSERT_TRUE(conn.has_pending());
  conn.execute_pending();  // must not throw out of the reply serializer
  EXPECT_GT(conn.output_size(), 0u);
}

TEST(Connection, StepBudgetYieldsCleanError) {
  proto::SessionOptions opts;
  opts.max_steps = 2;
  Connection conn(Fd(), opts);
  feed(conn, "HELLO app\n");
  (void)step(conn);
  feed(conn, std::string("BUNDLES ") + kRsl + "\n");
  (void)step(conn);
  for (int i = 0; i < 2; ++i) {
    feed(conn, "FETCH\n");
    EXPECT_EQ(step(conn).substr(0, 6), "CONFIG");
    feed(conn, "REPORT 1.0\n");
    (void)step(conn);
  }
  feed(conn, "FETCH\n");
  const std::string reply = step(conn);
  EXPECT_EQ(reply.substr(0, 5), "ERROR");
  EXPECT_NE(reply.find("budget"), std::string::npos);
  EXPECT_FALSE(conn.wants_close());
}

TEST(Connection, FuzzedByteSoupNeverCrashes) {
  // Seeded fuzz over the full connection state machine: arbitrary bytes in
  // arbitrary chunk sizes must always end in ERROR-or-close, never a
  // crash or an escaped exception.
  Rng rng(987654321);
  for (int iter = 0; iter < 150; ++iter) {
    proto::SessionOptions opts;
    opts.tuning.simplex.max_evaluations = 10;
    Connection conn(Fd(), opts);
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform_int(1, 600));
    std::vector<std::uint8_t> bytes(len);
    for (std::uint8_t& b : bytes) {
      // Bias toward printable so the text path gets real coverage too.
      b = rng.uniform_int(0, 1) == 0
              ? static_cast<std::uint8_t>(rng.uniform_int(0, 255))
              : static_cast<std::uint8_t>(rng.uniform_int(32, 126));
    }
    std::size_t feed_pos = 0;
    bool ok = true;
    while (ok && feed_pos < bytes.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          static_cast<std::size_t>(rng.uniform_int(1, 32)),
          bytes.size() - feed_pos);
      ok = conn.on_input(bytes.data() + feed_pos, chunk);
      feed_pos += chunk;
      for (int guard = 0; ok && guard < 1000 && conn.has_pending(); ++guard) {
        conn.execute_pending();
        conn.consume_output(conn.output_size());
        ok = conn.try_parse();
      }
    }
    if (!ok) {
      EXPECT_TRUE(conn.wants_close());
      EXPECT_GT(conn.output_size(), 0u);  // the ERROR-or-close guarantee
    }
  }
}

}  // namespace
}  // namespace harmony::net
