#include "net/event_loop.hpp"

#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <cstring>

#include "util/error.hpp"

namespace harmony::net {

EventLoop::EventLoop() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  HARMONY_REQUIRE(epfd_.valid(), "epoll_create1 failed");
}

void EventLoop::add(int fd, std::uint32_t events, void* data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = data;
  HARMONY_REQUIRE(::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, fd, &ev) == 0,
                  std::string("epoll_ctl add: ") + std::strerror(errno));
}

void EventLoop::modify(int fd, std::uint32_t events, void* data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = data;
  HARMONY_REQUIRE(::epoll_ctl(epfd_.get(), EPOLL_CTL_MOD, fd, &ev) == 0,
                  std::string("epoll_ctl mod: ") + std::strerror(errno));
}

void EventLoop::remove(int fd) {
  HARMONY_REQUIRE(::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, nullptr) == 0,
                  std::string("epoll_ctl del: ") + std::strerror(errno));
}

int EventLoop::wait(epoll_event* events, int max_events,
                    std::int64_t timeout_us) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_us / 1000000);
  ts.tv_nsec = static_cast<long>(timeout_us % 1000000) * 1000;
  int n = ::epoll_pwait2(epfd_.get(), events, max_events,
                         timeout_us < 0 ? nullptr : &ts, nullptr);
  if (n < 0 && errno == ENOSYS) {
    // Kernels before 5.11 lack epoll_pwait2: fall back to whole
    // milliseconds, rounded up so the deadline is never cut short.
    const int ms = timeout_us < 0
                       ? -1
                       : static_cast<int>((timeout_us + 999) / 1000);
    n = ::epoll_wait(epfd_.get(), events, max_events, ms);
  }
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw Error(std::string("epoll_wait: ") + std::strerror(errno));
  }
  return n;
}

}  // namespace harmony::net
