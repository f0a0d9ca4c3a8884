// RAII epoll wrapper: registration keyed by fd, user data carried as a
// void*. Just enough surface for the serving front end's single-threaded
// readiness loop; no timerfd/ET extras — the loop passes its coalescing
// deadline as the wait timeout, in microseconds (epoll_pwait2), so windows
// below 1 ms are honoured.
#pragma once

#include <sys/epoll.h>

#include <cstdint>

#include "net/socket.hpp"

namespace harmony::net {

class EventLoop {
 public:
  EventLoop();

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...); `data` comes back
  /// in the epoll_event's data.ptr.
  void add(int fd, std::uint32_t events, void* data);
  void modify(int fd, std::uint32_t events, void* data);
  void remove(int fd);

  /// Waits up to `timeout_us` microseconds (negative = forever) and fills
  /// `events`; returns the number ready. EINTR returns 0 (the caller
  /// re-checks its stop flag), every other failure throws.
  int wait(epoll_event* events, int max_events, std::int64_t timeout_us);

 private:
  Fd epfd_;
};

}  // namespace harmony::net
