// Harmony-as-a-service: epoll front end with adaptive batch coalescing.
//
// One loop thread owns the listener, every connection, and all shared
// mutable state. Decoded requests are not executed as they arrive;
// they are *coalesced*: the loop gathers pending steps inside a bounded
// window and drives them as one batch —
//
//   1. admission (pending HELLOs checked against per-tenant budgets),
//   2. execute_batch (core/server.hpp), the executor serve_batch shares:
//      one analyzer fit for the whole batch, the connections'
//      execute_pending() in parallel — pure reads of the shared database,
//      each connection touching only itself; a REPORT runs together with
//      the request pipelined behind it — and one group commit for every
//      session that finished in the batch.
//
// The window fires adaptively: as soon as every open connection has a
// pending step (nothing left to wait for), when max_batch_steps is
// reached, or at the coalesce deadline, whichever is first. With
// coalescing disabled every step dispatches as a batch of one — the
// one-at-a-time baseline benchmarked in bench/serving_throughput.
//
// Backpressure: at max_sessions the listener leaves the epoll set —
// further connects sit in the kernel accept queue (deferred accept) until
// a slot frees. Per-tenant budgets reject over-budget HELLOs with a clean
// ERROR instead.
//
// Shutdown: stop() is async-signal-safe (atomic flag + eventfd write).
// The loop then stops accepting, drives the already-pending steps to
// completion, ingests their experience, flushes the reply bytes and the
// store, closes everything, and run() returns — no acked record is lost.
// A peer that accepts no reply bytes for a second is closed rather than
// waited on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "core/protocol.hpp"
#include "core/store.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"

namespace harmony::net {

class Connection;

struct ServiceOptions {
  std::string address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  int backlog = 128;
  /// Template for per-connection sessions. The service forces
  /// defer_experience and shared_analyzer regardless of what is set here.
  proto::SessionOptions session;
  /// Admission: maximum concurrently open connections; beyond it the
  /// listener is parked (deferred accept).
  std::size_t max_sessions = 256;
  /// Per-tenant (HELLO client-name) concurrent-session budget; over-budget
  /// HELLOs get a clean ERROR. 0 = unlimited.
  std::size_t max_tenant_sessions = 0;
  /// Coalescing window: how long the loop will wait, after the first
  /// pending step appears, for more steps to join the batch.
  std::uint32_t coalesce_window_us = 200;
  /// Batch fires early once this many steps are pending.
  std::size_t max_batch_steps = 256;
  /// false = one-at-a-time dispatch (the measured baseline).
  bool coalesce = true;
};

struct ServiceStats {
  std::uint64_t accepted = 0;            ///< connections accepted
  std::uint64_t sessions_completed = 0;  ///< sessions that reached DONE
  std::uint64_t steps = 0;               ///< requests executed
  std::uint64_t batches = 0;             ///< dispatches (steps/batches = mean batch size)
  std::uint64_t records_ingested = 0;    ///< experience records group-committed
  std::uint64_t rejected_sessions = 0;   ///< HELLOs refused by tenant budget
  std::uint64_t wire_errors = 0;         ///< connections dropped for framing violations
  std::uint64_t full_refits = 0;         ///< classifier rebuilt from scratch
  std::uint64_t incremental_refits = 0;  ///< classifier absorbed an append delta
};

class TuningService {
 public:
  /// Binds and listens immediately (so port() is valid before run());
  /// `store` may be null for a non-durable server.
  TuningService(HistoryDatabase& db, DataAnalyzer& analyzer,
                ExperienceStore* store, ServiceOptions options);
  ~TuningService();

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Serves until stop(); safe to call once.
  void run();

  /// Requests shutdown; async-signal-safe, callable from any thread or a
  /// signal handler.
  void stop() noexcept;

  /// Loop-thread data; read after run() returns (or racily for display).
  [[nodiscard]] const ServiceStats& stats() const noexcept { return stats_; }

 private:
  struct Slot;

  void accept_ready();
  /// Returns false when the slot was closed (EOF, error, wire violation).
  bool handle_readable(Slot* slot);
  /// Executes every pending step across `batch` as one coalesced dispatch.
  void dispatch_batch(const std::vector<Slot*>& batch);
  /// Writes queued reply bytes; arms EPOLLOUT while bytes remain, and
  /// holds EPOLLIN off while the connection's backlog is over the cap.
  /// Returns false when the slot was closed (drained after BYE, or write
  /// error).
  bool flush_output(Slot* slot);
  /// Sets the slot's epoll interest to EPOLLIN if `in`, EPOLLOUT if `out`.
  void watch(Slot* slot, bool in, bool out);
  void close_slot(Slot* slot);
  void arm_listener(bool want);
  void drain_and_close();

  HistoryDatabase& db_;
  DataAnalyzer& analyzer_;
  ExperienceStore* store_;
  ServiceOptions opts_;

  Fd listener_;
  Fd stop_fd_;
  std::uint16_t port_ = 0;
  EventLoop loop_;
  bool listener_armed_ = false;

  std::vector<std::unique_ptr<Slot>> conns_;
  std::unordered_map<std::string, std::size_t> tenant_sessions_;

  std::atomic<bool> stop_requested_{false};
  bool stopping_ = false;
  ServiceStats stats_;

  int listener_tag_ = 0;  ///< epoll data markers (address identity only)
  int stop_tag_ = 0;
};

}  // namespace harmony::net
