#include "net/client.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>

#include "util/error.hpp"

namespace harmony::net {

namespace {

void write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("write: ") + std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

SocketTransport::SocketTransport(const std::string& host, std::uint16_t port,
                                 bool binary)
    : fd_(connect_tcp(host, port)),
      binary_(binary),
      decoder_(binary ? StreamDecoder::Mode::kBinary
                      : StreamDecoder::Mode::kText) {
  if (binary_) {
    for (unsigned char b : kBinaryPreamble) out_.push_back(b);
  }
}

proto::Message SocketTransport::operator()(const proto::Message& request) {
  if (binary_) {
    append_frame(out_, request);
  } else {
    const std::string line = proto::serialize(request);
    out_.insert(out_.end(), line.begin(), line.end());
    out_.push_back('\n');
  }
  if (request.is("REPORT")) {
    ++deferred_;
    return proto::ok();
  }
  write_all(fd_.get(), out_.data(), out_.size());
  out_.clear();

  // Replies come back in request order: the buffered REPORTs' first.
  std::optional<proto::Message> refused;
  for (; deferred_ > 0; --deferred_) {
    proto::Message reply = read_reply();
    if (reply.is("ERROR") && !refused) refused = std::move(reply);
  }
  proto::Message reply = read_reply();
  if (refused) return std::move(*refused);
  return reply;
}

proto::Message SocketTransport::read_reply() {
  for (;;) {
    const StreamDecoder::Unit unit = decoder_.next();
    switch (unit.kind) {
      case StreamDecoder::Unit::Kind::kLine:
        if (unit.line.empty()) continue;
        return proto::parse_message(std::string(unit.line));
      case StreamDecoder::Unit::Kind::kFrame:
        return decode_frame_payload(unit.payload, unit.payload_len);
      case StreamDecoder::Unit::Kind::kNone:
        break;
    }
    std::uint8_t buf[4096];
    const ssize_t n = ::read(fd_.get(), buf, sizeof buf);
    if (n > 0) {
      decoder_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) throw Error("server closed connection");
    if (errno == EINTR) continue;
    throw Error(std::string("read: ") + std::strerror(errno));
  }
}

}  // namespace harmony::net
