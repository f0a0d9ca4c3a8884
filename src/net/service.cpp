#include "net/service.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>

#include "core/server.hpp"
#include "net/conn.hpp"
#include "util/error.hpp"

namespace harmony::net {

namespace {
using Clock = std::chrono::steady_clock;

/// How long the shutdown drain waits on a connection that accepts no
/// reply bytes before closing it.
constexpr std::chrono::seconds kDrainStall{1};

/// How long the whole shutdown drain may take. A peer that reads a trickle
/// restarts kDrainStall with every byte it accepts; this bounds it anyway.
constexpr std::chrono::seconds kDrainDeadline{3};

/// Bytes a connection may have queued, in replies the peer has not taken
/// or in requests behind its pending one, before the loop stops reading
/// its input. A pipelining client keeps at most two of each queued, far
/// below this; a peer that sends without reading would otherwise grow
/// either buffer without bound.
constexpr std::size_t kBacklogCap = 64 * 1024;

/// Whether the loop should read more of `c`'s input now.
bool wants_input(const Connection& c) noexcept {
  return c.output_size() < kBacklogCap &&
         !(c.has_pending() && c.input_size() >= kBacklogCap);
}
}  // namespace

struct TuningService::Slot {
  Connection conn;
  bool epollin = true;  ///< current epoll interest
  bool epollout = false;

  Slot(Fd fd, proto::SessionOptions options, HistoryDatabase* db)
      : conn(std::move(fd), std::move(options), db) {}
};

TuningService::TuningService(HistoryDatabase& db, DataAnalyzer& analyzer,
                             ExperienceStore* store, ServiceOptions options)
    : db_(db), analyzer_(analyzer), store_(store), opts_(std::move(options)) {
  listener_ = listen_tcp(opts_.address, opts_.port, opts_.backlog, &port_);
  stop_fd_ = Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  HARMONY_REQUIRE(stop_fd_.valid(), "eventfd failed");
}

TuningService::~TuningService() = default;

void TuningService::stop() noexcept {
  // Async-signal-safe: one relaxed atomic store plus one write(2).
  stop_requested_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  if (stop_fd_.valid()) {
    [[maybe_unused]] const ssize_t r =
        ::write(stop_fd_.get(), &one, sizeof one);
  }
}

void TuningService::run() {
  loop_.add(listener_.get(), EPOLLIN, &listener_tag_);
  listener_armed_ = true;
  loop_.add(stop_fd_.get(), EPOLLIN, &stop_tag_);

  std::vector<Slot*> batch;
  bool deadline_set = false;
  Clock::time_point deadline{};
  epoll_event events[64];

  while (!stopping_) {
    if (stop_requested_.load(std::memory_order_relaxed)) break;

    // Coalescing decision: fire the batch when every open connection has a
    // step pending (nothing left to wait for), when the batch is full, or
    // at the window deadline.
    std::size_t pending = 0;
    std::size_t open = 0;
    for (const auto& s : conns_) {
      if (!s->conn.wants_close()) ++open;
      if (s->conn.has_pending()) ++pending;
    }
    std::int64_t timeout_us = -1;
    if (pending > 0) {
      if (!opts_.coalesce) {
        // One-at-a-time baseline: each pending step is its own dispatch.
        batch.clear();
        for (const auto& s : conns_) {
          if (s->conn.has_pending()) batch.push_back(s.get());
        }
        for (Slot* s : batch) dispatch_batch({s});
        deadline_set = false;
        continue;
      }
      const Clock::time_point now = Clock::now();
      if (!deadline_set) {
        deadline = now + std::chrono::microseconds(opts_.coalesce_window_us);
        deadline_set = true;
      }
      if (pending >= opts_.max_batch_steps || pending >= open ||
          now >= deadline) {
        batch.clear();
        for (const auto& s : conns_) {
          if (s->conn.has_pending()) batch.push_back(s.get());
        }
        dispatch_batch(batch);
        deadline_set = false;
        continue;
      }
      // Microsecond resolution, rounded up: the window may be well under
      // a millisecond, and waking early would only spin.
      timeout_us =
          std::chrono::ceil<std::chrono::microseconds>(deadline - now).count();
    } else {
      deadline_set = false;
    }

    const int n = loop_.wait(events, 64, timeout_us);
    for (int i = 0; i < n; ++i) {
      void* p = events[i].data.ptr;
      if (p == &listener_tag_) {
        accept_ready();
        continue;
      }
      if (p == &stop_tag_) {
        std::uint64_t v = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(stop_fd_.get(), &v, sizeof v);
        stopping_ = true;
        continue;
      }
      Slot* slot = static_cast<Slot*>(p);
      const std::uint32_t ev = events[i].events;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && (ev & EPOLLIN) == 0) {
        close_slot(slot);
        continue;
      }
      if ((ev & EPOLLIN) != 0 && !handle_readable(slot)) continue;
      if ((ev & EPOLLOUT) != 0) (void)flush_output(slot);
    }
  }
  drain_and_close();
}

void TuningService::accept_ready() {
  while (conns_.size() < opts_.max_sessions) {
    const int fd = ::accept4(listener_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient accept failure: retry on next wake
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    proto::SessionOptions so = opts_.session;
    so.defer_experience = true;
    so.shared_analyzer = &analyzer_;
    auto slot = std::make_unique<Slot>(Fd(fd), std::move(so), &db_);
    loop_.add(fd, EPOLLIN, slot.get());
    conns_.push_back(std::move(slot));
    ++stats_.accepted;
  }
  arm_listener(conns_.size() < opts_.max_sessions);
}

bool TuningService::handle_readable(Slot* slot) {
  for (;;) {
    std::uint8_t buf[4096];
    const ssize_t n = ::read(slot->conn.fd(), buf, sizeof buf);
    if (n > 0) {
      if (!slot->conn.on_input(buf, static_cast<std::size_t>(n))) {
        ++stats_.wire_errors;
        return flush_output(slot);  // ERROR queued; close once drained
      }
      // Over the backlog cap: stop reading until the peer takes its
      // replies or its queued requests run (flush_output drops EPOLLIN
      // while the connection stays over).
      if (!wants_input(slot->conn)) return flush_output(slot);
      continue;
    }
    if (n == 0) {
      close_slot(slot);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Replies queued without a request to dispatch (the ERROR for an
      // unparsable line) would otherwise wait for the next request.
      if (!slot->conn.has_pending() && slot->conn.output_size() > 0) {
        return flush_output(slot);
      }
      return true;
    }
    if (errno == EINTR) continue;
    close_slot(slot);
    return false;
  }
}

void TuningService::dispatch_batch(const std::vector<Slot*>& batch) {
  ++stats_.batches;

  // Admission: a pending HELLO is the tenant's claim on a session slot.
  for (Slot* s : batch) {
    Connection& c = s->conn;
    if (c.admitted()) continue;
    const proto::Message* m = c.pending_message();
    if (m == nullptr || !m->is("HELLO") || m->args.empty()) continue;
    // The payload may carry options after the name (strategy=...); the
    // tenant key is the name alone. A malformed payload is admitted as-is
    // and rejected with a precise ERROR by the session state machine.
    std::string tenant = m->args[0];
    try {
      tenant = proto::parse_hello_payload(m->args[0]).name;
    } catch (const Error&) {
    }
    if (opts_.max_tenant_sessions > 0 &&
        tenant_sessions_[tenant] >= opts_.max_tenant_sessions) {
      ++stats_.rejected_sessions;
      c.reject_pending("tenant session budget exceeded: " + tenant);
    } else {
      ++tenant_sessions_[tenant];
      c.set_tenant(tenant);
      c.set_admitted();
    }
  }

  std::vector<Slot*> exec;
  exec.reserve(batch.size());
  for (Slot* s : batch) {
    if (s->conn.has_pending()) exec.push_back(s);
  }
  if (!exec.empty()) {
    // One classifier fit for the whole batch — steady-state ingest extends
    // the database's append chain, so usually an O(batch) incremental
    // update, not an O(db) rebuild — then the connections' steps in
    // parallel (a REPORT with the request pipelined behind it), then one
    // group commit for every session that finished.
    std::vector<std::size_t> executed(exec.size());
    stats_.records_ingested += execute_batch(
        analyzer_, db_, store_, exec.size(),
        [&](std::size_t i) { executed[i] = exec[i]->conn.execute_pending(); },
        [&](std::size_t i) {
          return exec[i]->conn.session().take_pending_experience();
        });
    for (const std::size_t n : executed) stats_.steps += n;
    const auto& rs = analyzer_.refit_stats();
    stats_.full_refits = rs.full;
    stats_.incremental_refits = rs.incremental;
  }

  // Reply, pick up pipelined bytes, and close what finished. flush_output
  // may free the slot; it must be the last touch.
  for (Slot* s : batch) {
    (void)s->conn.try_parse();
    (void)flush_output(s);
  }
}

bool TuningService::flush_output(Slot* slot) {
  Connection& c = slot->conn;
  while (c.output_size() > 0) {
    const ssize_t n = ::write(c.fd(), c.output_data(), c.output_size());
    if (n > 0) {
      c.consume_output(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      watch(slot, wants_input(c), true);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    close_slot(slot);  // EPIPE/reset: the client is gone
    return false;
  }
  watch(slot, wants_input(c), false);
  if (c.wants_close()) {
    close_slot(slot);
    return false;
  }
  return true;
}

void TuningService::watch(Slot* slot, bool in, bool out) {
  if (in == slot->epollin && out == slot->epollout) return;
  loop_.modify(slot->conn.fd(), (in ? EPOLLIN : 0u) | (out ? EPOLLOUT : 0u),
               slot);
  slot->epollin = in;
  slot->epollout = out;
}

void TuningService::close_slot(Slot* slot) {
  Connection& c = slot->conn;
  if (c.admitted()) {
    auto it = tenant_sessions_.find(c.tenant());
    if (it != tenant_sessions_.end() && --it->second == 0) {
      tenant_sessions_.erase(it);
    }
  }
  if (c.session().finished()) ++stats_.sessions_completed;
  loop_.remove(c.fd());
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->get() == slot) {
      conns_.erase(it);
      break;
    }
  }
  if (!stopping_) arm_listener(conns_.size() < opts_.max_sessions);
}

void TuningService::arm_listener(bool want) {
  if (want == listener_armed_) return;
  if (want) {
    loop_.add(listener_.get(), EPOLLIN, &listener_tag_);
  } else {
    loop_.remove(listener_.get());
  }
  listener_armed_ = want;
}

void TuningService::drain_and_close() {
  stopping_ = true;
  arm_listener(false);

  // Finish the in-flight steps: one final coalesced dispatch (which also
  // ingests their experience and replies).
  std::vector<Slot*> batch;
  for (const auto& s : conns_) {
    if (s->conn.has_pending()) batch.push_back(s.get());
  }
  if (!batch.empty()) dispatch_batch(batch);

  // Push out the reply bytes still buffered — the acked-before-drain
  // guarantee — then close everything. A peer that accepts no bytes for
  // kDrainStall is given up on: it is not reading, and waiting on it would
  // hold the whole shutdown. So is every peer still undelivered at
  // kDrainDeadline, however steadily it reads. DONE leaves only after its
  // record's ingest, so closing early loses no acknowledged record.
  struct Draining {
    Slot* slot;
    Clock::time_point progress;  ///< last time the peer accepted bytes
  };
  std::vector<Draining> draining;
  std::vector<pollfd> fds;
  const Clock::time_point start = Clock::now();
  const Clock::time_point give_up = start + kDrainDeadline;
  for (const auto& s : conns_) draining.push_back({s.get(), start});
  while (!draining.empty()) {
    const Clock::time_point now = Clock::now();
    Clock::time_point wake = std::min(now + kDrainStall, give_up);
    fds.clear();
    for (auto it = draining.begin(); it != draining.end();) {
      Connection& c = it->slot->conn;
      bool gone = false;
      while (!gone && c.output_size() > 0) {
        const ssize_t n = ::write(c.fd(), c.output_data(), c.output_size());
        if (n > 0) {
          c.consume_output(static_cast<std::size_t>(n));
          it->progress = now;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          gone = true;  // the peer is gone; nothing more to deliver
        }
      }
      if (gone || c.output_size() == 0 || now - it->progress >= kDrainStall ||
          now >= give_up) {
        close_slot(it->slot);
        it = draining.erase(it);
        continue;
      }
      fds.push_back({c.fd(), POLLOUT, 0});
      wake = std::min(wake, it->progress + kDrainStall);
      ++it;
    }
    if (fds.empty()) break;
    const auto wait_ms =
        std::chrono::ceil<std::chrono::milliseconds>(wake - now).count();
    (void)::poll(fds.data(), fds.size(), static_cast<int>(wait_ms));
  }
  if (store_ != nullptr) store_->flush();
}

}  // namespace harmony::net
