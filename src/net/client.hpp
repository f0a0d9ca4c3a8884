// Blocking client transport: one request/response exchange per call, in
// either wire framing. Plugs into proto::HarmonyClient as its Transport
// (wrap in a lambda — the transport is move-only):
//
//   net::SocketTransport t(host, port, /*binary=*/true);
//   proto::HarmonyClient client([&t](const proto::Message& m) { return t(m); });
//
// REPORT is pipelined: nobody waits on its OK, so the transport buffers
// the REPORT, answers OK at once, and sends it in the same write() as the
// next request. That call reads the REPORT's reply first and its own reply
// second, so one tuning step (REPORT + FETCH) costs one round trip. The
// REPORT's reply is checked there: if it is an ERROR, the next call
// returns that ERROR instead of its own reply (HarmonyClient throws
// "server error: <msg>" from it), and the stream stays in sync. A REPORT
// that no call follows is never sent; HarmonyClient always follows
// report() with fetch() or close().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace harmony::net {

class SocketTransport {
 public:
  /// Connects (blocking, TCP_NODELAY). In binary mode the preamble is
  /// queued so it precedes the first frame on the wire.
  SocketTransport(const std::string& host, std::uint16_t port,
                  bool binary = false);

  /// Sends one message and blocks for its reply; a REPORT is buffered and
  /// answered OK without I/O (see above). Throws harmony::Error on
  /// transport failure or if the server closes the connection mid-reply.
  proto::Message operator()(const proto::Message& request);

  [[nodiscard]] bool binary() const noexcept { return binary_; }

 private:
  /// Blocks for the next reply on the stream.
  proto::Message read_reply();

  Fd fd_;
  bool binary_;
  StreamDecoder decoder_;
  std::vector<std::uint8_t> out_;
  std::size_t deferred_ = 0;  ///< buffered REPORTs whose replies are unread
};

}  // namespace harmony::net
