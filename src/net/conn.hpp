// Per-connection protocol state machine for the serving front end.
//
// A Connection owns the socket, the incremental wire decoder, the
// server-side tuning session, and the buffered reply bytes. The event loop
// feeds it raw reads (on_input), which decode into at most one *pending*
// request; the dispatcher then executes pending requests — possibly many
// connections in parallel on the thread pool — and flushes the reply
// buffers back on the loop thread. A REPORT runs together with the request
// a pipelining client sent behind it, so a tuning step is one dispatch.
//
// Execution discipline: execute_pending() touches only this connection's
// state plus shared *read-only* structures (the history database and a
// pre-fitted shared analyzer), so distinct connections execute
// concurrently without locks. All writes to shared state (experience
// ingest) are deferred: the session parks its finished record and the
// dispatcher collects it after the batch (ServerSession's
// defer_experience / take_pending_experience).
//
// Error model, matching the fuzz guarantee "ERROR or close, never crash":
//  * protocol-level problems (bad verb, arity, FETCH-before-BUNDLES, step
//    budget) queue an ERROR reply and the session continues;
//  * wire-level violations (bad preamble, CRC mismatch, oversized frame,
//    malformed binary payload) queue an ERROR and mark the connection for
//    close — a corrupt framing layer cannot be resynced;
//  * a reply that cannot be encoded is likewise fatal to its connection
//    alone, never to the batch it executes in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace harmony::net {

class Connection {
 public:
  /// `fd` may be invalid for in-memory use (tests, benchmarks): the
  /// decoder/session/reply machinery works on buffers alone.
  Connection(Fd fd, proto::SessionOptions options,
             HistoryDatabase* database = nullptr,
             StreamDecoder::Mode mode = StreamDecoder::Mode::kDetect);

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

  /// Feeds raw bytes from the socket and decodes the next request if none
  /// is pending. Returns false on a fatal wire violation: an ERROR reply
  /// has been queued and wants_close() is set.
  bool on_input(const std::uint8_t* data, std::size_t n);

  /// Decodes the next buffered request when none is pending (used after a
  /// dispatch to pick up pipelined bytes). Same fatal signaling.
  bool try_parse();

  [[nodiscard]] bool has_pending() const noexcept {
    return pending_ != PendingKind::kNone;
  }
  /// The decoded request when it took the generic message path — admission
  /// control peeks at a pending HELLO here. nullptr for the hot-path
  /// binary FETCH/REPORT shapes (which are never admission-relevant).
  [[nodiscard]] const proto::Message* pending_message() const noexcept;

  /// Answers the pending request with ERROR without executing it
  /// (admission rejection). The session state is untouched.
  void reject_pending(const std::string& what);

  /// Executes the pending request against the session and queues the
  /// reply. When that request is a REPORT and the next request is already
  /// buffered, that one runs too (unless it is a HELLO, which stays
  /// pending for admission), its reply queued behind the REPORT's OK.
  /// Returns the number of requests executed: 0, 1 or 2. Safe to call
  /// concurrently with *other* connections' execute_pending(); requires
  /// the shared analyzer (if any) to be fitted first. A harmony::Error
  /// raised while building or encoding a reply is fatal to this connection
  /// only (ERROR queued, wants_close()).
  std::size_t execute_pending();

  [[nodiscard]] proto::ServerSession& session() noexcept { return session_; }
  /// Connection should be closed once its reply bytes have drained.
  [[nodiscard]] bool wants_close() const noexcept { return wants_close_; }

  // Reply bytes awaiting write; the owner writes and consumes.
  [[nodiscard]] const std::uint8_t* output_data() const noexcept {
    return out_.data() + out_pos_;
  }
  [[nodiscard]] std::size_t output_size() const noexcept {
    return out_.size() - out_pos_;
  }
  void consume_output(std::size_t n) noexcept;

  /// Request bytes received but not yet decoded (those queued behind the
  /// pending request, or a partial line or frame).
  [[nodiscard]] std::size_t input_size() const noexcept {
    return decoder_.buffered();
  }

  // Admission bookkeeping, owned by the service.
  [[nodiscard]] bool admitted() const noexcept { return admitted_; }
  void set_admitted() noexcept { admitted_ = true; }
  [[nodiscard]] const std::string& tenant() const noexcept { return tenant_; }
  void set_tenant(std::string t) { tenant_ = std::move(t); }

 private:
  enum class PendingKind { kNone, kFetchHot, kReportHot, kMessage };

  [[nodiscard]] bool binary() const noexcept {
    return decoder_.mode() == StreamDecoder::Mode::kBinary;
  }
  /// Runs the pending request, turning a reply error into fatal().
  void execute_one();
  /// execute_one()'s body: runs the pending request, queues the reply.
  void execute_step();
  void queue_reply(const proto::Message& m);
  void fatal(const std::string& what);

  Fd fd_;
  StreamDecoder decoder_;
  proto::ServerSession session_;
  std::vector<std::uint8_t> out_;
  std::size_t out_pos_ = 0;

  PendingKind pending_ = PendingKind::kNone;
  double report_value_ = 0.0;    ///< kReportHot
  proto::Message pending_msg_;   ///< kMessage

  bool wants_close_ = false;
  bool admitted_ = false;
  std::string tenant_;
};

}  // namespace harmony::net
