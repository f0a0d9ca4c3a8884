// Harmony client/server tuning protocol.
//
// Active Harmony is a client/server system: the application to be tuned
// registers its tunable parameters with the tuning server using the
// resource specification language, then repeatedly fetches a configuration,
// runs with it, and reports the observed performance (§2, Appendix B). This
// module implements that exchange as a line-oriented text protocol plus a
// server-side session state machine and a client convenience wrapper. The
// transport is abstract (any request/response callable), so tests and
// examples run it in-process while a deployment would put it on a socket.
//
// Exchange:
//   C: HELLO <client-name> [strategy=<kernel>]
//                                         (the optional strategy token picks
//                                          the session's search kernel —
//                                          simplex/ils/evolutionary; servers
//                                          that predate it reject the line,
//                                          old clients simply never send it)
//   S: OK
//   C: BUNDLES <rsl-text on one line>
//   S: OK <n-parameters>
//   C: SIGNATURE <k> <v1> ... <vk>        (optional: workload characteristics)
//   S: OK [experience <label>]            (warm start found / not; the
//                                          label's whitespace and control
//                                          characters fold to '_')
//   C: FETCH
//   S: CONFIG <n> <v1> ... <vn>           (measure this configuration)
//      | DONE <n> <v1> ... <vn> <perf> [<evals> <stop-reason>
//                                       [<full-refits> <incr-refits>
//                                       [<strategy>]]]
//                                         (tuning finished; best config —
//                                          clients must tolerate trailing
//                                          fields after <perf>; the refit
//                                          counts expose how the server's
//                                          classifier absorbed ingest, the
//                                          strategy tag names the kernel
//                                          that produced the result)
//   C: REPORT <performance>
//   S: OK
//   C: BYE
//   S: OK
// Any protocol violation yields "ERROR <message>" and leaves the session
// state unchanged. Clients may pipeline — send a request before the
// previous reply has arrived (net::SocketTransport sends each REPORT with
// the request after it) — and servers answer in request order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "core/parameter.hpp"
#include "core/simplex.hpp"
#include "core/strategies.hpp"
#include "core/tuner.hpp"

namespace harmony::proto {

/// One protocol message: a verb plus space-separated arguments.
struct Message {
  std::string verb;
  std::vector<std::string> args;

  [[nodiscard]] bool is(const std::string& v) const noexcept {
    return verb == v;
  }
};

/// Serializes to one line (no trailing newline). Arguments containing
/// whitespace are rejected except for the final argument of HELLO/BUNDLES/
/// ERROR-class verbs, which is transmitted as a rest-of-line payload; even
/// those reject embedded CR/LF, so no argument can ever smuggle a second
/// framed message into the stream.
[[nodiscard]] std::string serialize(const Message& message);

/// Parses one line; throws harmony::Error on an empty line or on embedded
/// CR/LF (the framing layer owns line endings — a payload containing them
/// is hostile input, not a longer message).
[[nodiscard]] Message parse_message(const std::string& line);

/// Convenience constructors. error() sanitizes control characters out of
/// the text so exception messages always serialize cleanly.
[[nodiscard]] Message ok();
[[nodiscard]] Message error(const std::string& what);

/// Parsed HELLO payload: the client name plus the optional session options
/// carried as `key=value` tokens after it (today: strategy=<kernel>).
/// Shared between the session state machine and the serving front end's
/// admission path, which needs the tenant name before a session exists.
struct HelloPayload {
  std::string name;      ///< tenant/client name (first token)
  std::string strategy;  ///< requested kernel; empty = server default
};
/// Splits a HELLO rest-of-line payload. Unknown `key=value` tokens are
/// ignored (forward compatibility). Throws harmony::Error on an empty name,
/// a non-key=value extra token, or an unregistered strategy name, so
/// callers surface a clean ERROR reply.
[[nodiscard]] HelloPayload parse_hello_payload(const std::string& payload);

struct SessionOptions {
  TuningOptions tuning;
  /// Feed recorded performances from retrieved experience to the kernel as
  /// the training stage instead of re-measuring.
  bool use_recorded_values = true;
  /// Store the finished run back into the database under the client name.
  bool record_experience = true;
  /// Defer experience: instead of writing straight into the database at
  /// DONE/BYE, park the finished record for take_pending_experience().
  /// The serving front end uses this to batch database/store writes into
  /// one group commit per coalesced batch (and to keep the database
  /// read-only while sessions execute on pool threads).
  bool defer_experience = false;
  /// Warm-start retrieval goes through this analyzer instead of the
  /// session's own. The caller owns fitting: call ensure_fitted() whenever
  /// the database may have moved, *before* handing requests to sessions —
  /// retrievals are then pure reads, safe from concurrent sessions. The
  /// serving front end fits once per dispatched batch.
  const harmony::DataAnalyzer* shared_analyzer = nullptr;
  /// Classifier the session's own analyzer wraps (ignored with
  /// shared_analyzer set). Sequential sessions sharing one classifier share
  /// its fitted model: against an unchanged database the second session's
  /// retrieval is a version-check no-op instead of a full refit. Not for
  /// concurrent sessions — the lazy refit mutates shared state.
  std::shared_ptr<harmony::Classifier> classifier;
  /// Per-session step budget: maximum configurations handed out over the
  /// session's lifetime; a FETCH past the budget gets a clean ERROR
  /// (admission control for the serving front end). 0 = unlimited.
  std::size_t max_steps = 0;
};

/// Server-side session: one per connected client. The shared database (may
/// be null) provides prior-run experience across sessions.
class ServerSession {
 public:
  explicit ServerSession(SessionOptions options = {},
                         HistoryDatabase* database = nullptr);
  ~ServerSession();
  ServerSession(ServerSession&&) noexcept;
  ServerSession& operator=(ServerSession&&) noexcept;

  /// Processes one request and produces the response. Never throws for
  /// protocol-level problems (returns ERROR); throws only on internal bugs.
  [[nodiscard]] Message handle(const Message& request);

  /// Zero-copy step API for hot-path transports (the binary wire codec):
  /// the FETCH/REPORT exchange without Message construction or number
  /// formatting. handle() is a shim over these for the two hot verbs.
  struct FetchStep {
    enum class Kind { kConfig, kDone, kError };
    Kind kind = Kind::kError;
    const Configuration* config = nullptr;  ///< kConfig: measure this
    const SimplexResult* result = nullptr;  ///< kDone: final result
    const char* error = nullptr;            ///< kError: static message
    /// kDone: cumulative full/incremental refit counts of the analyzer the
    /// session retrieves through (serving observability, echoed on DONE).
    std::uint32_t full_refits = 0;
    std::uint32_t incremental_refits = 0;
    /// kDone: name of the search kernel that ran the session (the DONE
    /// strategy tag). Points at session state, valid like `result`.
    const std::string* strategy = nullptr;
  };
  /// FETCH: the next configuration, the final result, or a protocol error.
  /// Returned pointers stay valid until the next step/handle call.
  [[nodiscard]] FetchStep step_fetch();
  /// REPORT: submits the outstanding configuration's performance. Returns
  /// nullptr on success, a static error message on protocol violation.
  [[nodiscard]] const char* step_report(double performance);

  [[nodiscard]] bool finished() const noexcept;
  /// Trace of every reported measurement, in order.
  [[nodiscard]] const std::vector<Measurement>& trace() const noexcept {
    return trace_;
  }
  /// Client name from HELLO (empty before it) — the serving front end's
  /// tenant key.
  [[nodiscard]] const std::string& client_name() const noexcept {
    return client_name_;
  }
  /// With SessionOptions::defer_experience, the finished run's record
  /// (once, after DONE/BYE produced it); nullopt otherwise.
  [[nodiscard]] std::optional<ExperienceRecord> take_pending_experience();

 private:
  enum class State { kAwaitHello, kAwaitBundles, kTuning, kClosed };

  Message handle_hello(const Message& m);
  Message handle_bundles(const Message& m);
  Message handle_signature(const Message& m);
  Message handle_fetch();
  Message handle_report(const Message& m);
  Message handle_bye();
  void store_experience();

  /// (Re)builds the session's search kernel from `plan`: the server default
  /// from SessionOptions::tuning.search, with the kernel name overridden
  /// when the client's HELLO asked for one.
  void start_kernel(WarmStart plan);

  SessionOptions opts_;
  HistoryDatabase* db_;
  DataAnalyzer analyzer_;
  State state_ = State::kAwaitHello;
  std::string client_name_;
  std::string requested_strategy_;  ///< from HELLO; empty = server default
  std::string kernel_name_;         ///< name of the running kernel (DONE tag)
  ParameterSpace space_;
  WorkloadSignature signature_;
  std::unique_ptr<SearchStrategy> kernel_;
  std::optional<Configuration> outstanding_;
  std::vector<Measurement> trace_;
  bool experience_stored_ = false;
  std::size_t steps_issued_ = 0;
  std::optional<ExperienceRecord> pending_experience_;
};

/// Request/response transport the client sends through.
using Transport = std::function<Message(const Message&)>;

/// Client-side convenience wrapper implementing the exchange above.
class HarmonyClient {
 public:
  explicit HarmonyClient(Transport transport);

  /// HELLO + BUNDLES; throws harmony::Error when the server rejects. A
  /// non-empty `strategy` asks the server to run that search kernel for the
  /// session (sent as the HELLO strategy token).
  void open(const std::string& name, const std::string& rsl,
            const std::string& strategy = "");

  /// Optional workload characteristics; returns the experience label the
  /// server warm-started from, if any.
  std::optional<std::string> send_signature(const WorkloadSignature& sig);

  /// Next configuration to run with, or nullopt when the server says DONE.
  [[nodiscard]] std::optional<Configuration> fetch();

  /// Reports the performance of the configuration from the last fetch().
  /// A pipelining transport answers at once and sends the REPORT with the
  /// next request, so a refused REPORT throws from the next fetch() or
  /// close() instead.
  void report(double performance);

  /// Closes the session (BYE).
  void close();

  /// Best configuration/performance from the server's DONE message (only
  /// valid after fetch() returned nullopt).
  [[nodiscard]] const Configuration& best_configuration() const;
  [[nodiscard]] double best_performance() const noexcept { return best_perf_; }
  /// Kernel evaluations / stop reason from an extended DONE (0 / empty when
  /// the server sent the short form).
  [[nodiscard]] int evaluations() const noexcept { return evaluations_; }
  [[nodiscard]] const std::string& stop_reason() const noexcept {
    return stop_reason_;
  }
  /// Server-side classifier refit counts from an extended DONE (0/0 when
  /// the server sent a shorter form): how often warm-start retrieval paid a
  /// full model rebuild vs an incremental delta update.
  [[nodiscard]] std::uint32_t server_full_refits() const noexcept {
    return full_refits_;
  }
  [[nodiscard]] std::uint32_t server_incremental_refits() const noexcept {
    return incremental_refits_;
  }
  /// Search-kernel name from an extended DONE's strategy tag (empty when
  /// the server sent a shorter form).
  [[nodiscard]] const std::string& server_strategy() const noexcept {
    return server_strategy_;
  }

 private:
  Message call(const Message& m);

  Transport transport_;
  Configuration best_;
  double best_perf_ = 0.0;
  int evaluations_ = 0;
  std::string stop_reason_;
  std::uint32_t full_refits_ = 0;
  std::uint32_t incremental_refits_ = 0;
  std::string server_strategy_;
  bool done_ = false;
};

}  // namespace harmony::proto
