// Served workloads: history generation, the server process, the load
// generator, the traced in-process replay and the store check.
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "commands.hpp"
#include "common.hpp"
#include "core/analyzer.hpp"
#include "core/server.hpp"
#include "core/store.hpp"
#include "core/strategies.hpp"
#include "core/tuner.hpp"
#include "net/client.hpp"
#include "net/conn.hpp"
#include "net/service.hpp"
#include "net/wire.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using harmony::Configuration;
using harmony::ExperienceRecord;
using harmony::ExperienceStore;
using harmony::HistoryDatabase;
namespace proto = harmony::proto;
namespace net = harmony::net;

namespace {

std::string store_prefix(const std::string& dir) { return dir + "/store"; }

/// Session options the server and the replay both run with; every knob
/// the workload depends on is set here rather than inherited.
proto::SessionOptions session_options(const ServedSpec& spec) {
  proto::SessionOptions so;
  so.tuning.simplex.max_evaluations = spec.budget;
  so.tuning.search.kernel = "simplex";
  so.tuning.strategy = std::make_shared<harmony::EvenSpreadStrategy>();
  so.use_recorded_values = false;  // warm-start seeds are measured live
  so.record_experience = spec.record;
  so.max_steps = 0;
  return so;
}

harmony::StoreOptions store_options(const ServedSpec& spec) {
  harmony::StoreOptions so;
  so.group_commit_records = 256;
  so.group_commit_bytes = 1u << 20;
  so.fsync_commits = false;
  so.snapshot_every_records = spec.snapshot_every;
  return so;
}

harmony::DataAnalyzer make_analyzer() {
  return harmony::DataAnalyzer(
      std::make_shared<harmony::LeastSquareClassifier>());
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

// ---- gen --------------------------------------------------------------------

int cmd_gen(const Args& a) {
  const ServedSpec spec = served_spec(a.str("workload"));
  const auto seed = static_cast<std::uint64_t>(a.integer("seed"));
  const std::string prefix = store_prefix(a.str("dir"));
  const std::vector<Family> families = make_families();

  const Clock::time_point t0 = Clock::now();
  HistoryDatabase db;
  ExperienceStore store;
  (void)store.open(prefix, db, store_options(spec));
  db.reserve(spec.prior_records, spec.prior_records * kSigDims);
  for (std::size_t i = 0; i < spec.prior_records; ++i) {
    ExperienceRecord rec = prior_record(families, seed, i, spec.params);
    store.append(rec);
    db.add(std::move(rec));
  }
  store.commit();
  const double log_bytes = static_cast<double>(store.log_end());
  if (spec.prior_records > 0) store.snapshot(db);
  store.close();
  std::printf("%s\n",
              JsonLine()
                  .num("records", static_cast<double>(spec.prior_records))
                  .num("log_bytes_per_record",
                       spec.prior_records == 0
                           ? 0.0
                           : log_bytes / static_cast<double>(spec.prior_records))
                  .num("gen_s", us_between(t0, Clock::now()) / 1e6)
                  .dump()
                  .c_str());
  return 0;
}

// ---- serve ------------------------------------------------------------------

namespace {
net::TuningService* g_service = nullptr;
extern "C" void on_stop_signal(int) {
  if (g_service != nullptr) g_service->stop();
}
}  // namespace

int cmd_serve(const Args& a) {
  const ServedSpec spec = served_spec(a.str("workload"));
  std::signal(SIGPIPE, SIG_IGN);
  harmony::set_thread_count(kServerThreads);

  HistoryDatabase db;
  harmony::DataAnalyzer analyzer = make_analyzer();
  ExperienceStore store;
  const Clock::time_point t0 = Clock::now();
  (void)store.open(store_prefix(a.str("dir")), db, store_options(spec));
  const double open_ms = us_between(t0, Clock::now()) / 1e3;

  net::ServiceOptions so;
  so.address = "127.0.0.1";
  so.port = 0;
  so.backlog = 128;
  so.session = session_options(spec);
  so.max_sessions = 64;
  so.max_tenant_sessions = 0;
  so.coalesce_window_us = 200;
  so.max_batch_steps = 256;
  so.coalesce = true;
  net::TuningService service(db, analyzer, &store, so);
  g_service = &service;
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGINT, on_stop_signal);
  std::printf("listening %u\n", static_cast<unsigned>(service.port()));
  std::fflush(stdout);

  service.run();

  const net::ServiceStats& s = service.stats();
  std::printf(
      "%s\n",
      JsonLine()
          .num("open_ms", open_ms)
          .num("db_records", static_cast<double>(db.size()))
          .num("accepted", static_cast<double>(s.accepted))
          .num("sessions_completed", static_cast<double>(s.sessions_completed))
          .num("steps", static_cast<double>(s.steps))
          .num("batches", static_cast<double>(s.batches))
          .num("records_ingested", static_cast<double>(s.records_ingested))
          .num("wire_errors", static_cast<double>(s.wire_errors))
          .num("rejected_sessions", static_cast<double>(s.rejected_sessions))
          .num("full_refits", static_cast<double>(s.full_refits))
          .num("incremental_refits", static_cast<double>(s.incremental_refits))
          .num("peak_rss_mb", peak_rss_mb())
          .dump()
          .c_str());
  return 0;
}

// ---- shared per-session bookkeeping -------------------------------------------

namespace {

/// What one client session observed, reduced to the benchmark's numbers.
struct SessionTally {
  std::size_t window = 0;   ///< the time window the session started in
  std::vector<double> step_us;
  double warm_us = 0.0;     ///< connect -> first FETCH reply
  double session_us = 0.0;  ///< connect -> DONE
  std::size_t reports = 0;
  std::size_t distinct = 0;
  int done_evals = 0;
  int convergence = 0;
  int bad = 0;
  double best = 0.0;
  bool signature_sent = false;
  bool family_hit = false;
};

/// The client's own record of a session: every value it reported, by
/// configuration, and the trace analyze_trace scores.
struct ClientLedger {
  std::map<Configuration, double> reported;
  std::vector<harmony::Measurement> trace;

  void add(const Configuration& c, double perf) {
    reported[c] = perf;
    trace.push_back({c, perf});
  }
  /// Empty when DONE's best was measured in this session with exactly the
  /// value the client reported for it; the failure otherwise.
  [[nodiscard]] std::string check_done(const Configuration& best,
                                       double best_perf) const {
    const auto it = reported.find(best);
    if (it == reported.end()) return "DONE best configuration never measured";
    if (!same_bits(it->second, best_perf)) {
      return "DONE best value " + harmony::format_double(best_perf) +
             " differs from the reported " +
             harmony::format_double(it->second);
    }
    return "";
  }
  void fill(SessionTally& t, int done_evals, double best) const {
    t.reports = trace.size();
    t.distinct = reported.size();
    t.done_evals = done_evals;
    t.best = best;
    const harmony::TraceMetrics m = harmony::analyze_trace(trace);
    t.convergence = m.convergence_iteration;
    t.bad = m.bad_iterations;
  }
};

/// Aggregate over the measured sessions of one process.
struct Aggregate {
  Windowed step_us, warm_us, session_ms;
  std::size_t sessions = 0, reports = 0, distinct = 0, signatures = 0,
              hits = 0;
  double done_evals = 0, convergence = 0, bad = 0, best = 0;

  void add(const SessionTally& t) {
    step_us.add(t.window, t.step_us);
    warm_us.add(t.window, t.warm_us);
    session_ms.add(t.window, t.session_us / 1e3);
    ++sessions;
    reports += t.reports;
    distinct += t.distinct;
    done_evals += t.done_evals;
    convergence += t.convergence;
    bad += t.bad;
    best += t.best;
    if (t.signature_sent) ++signatures;
    if (t.family_hit) ++hits;
  }
  void merge(const Aggregate& o) {
    step_us.merge(o.step_us);
    warm_us.merge(o.warm_us);
    session_ms.merge(o.session_ms);
    sessions += o.sessions;
    reports += o.reports;
    distinct += o.distinct;
    signatures += o.signatures;
    hits += o.hits;
    done_evals += o.done_evals;
    convergence += o.convergence;
    bad += o.bad;
    best += o.best;
  }
  [[nodiscard]] double per_session(double total) const {
    return sessions == 0 ? 0.0 : total / static_cast<double>(sessions);
  }
  void emit(JsonLine& j) const {
    const double n = static_cast<double>(sessions);
    j.num("sessions", n);
    emit_timing(j, "step", "us", step_us);
    emit_timing(j, "warmstart", "us", warm_us);
    emit_timing(j, "session", "ms", session_ms);
    j.num("measurements_per_session", per_session(static_cast<double>(reports)))
        .num("done_evals", per_session(done_evals))
        .num("distinct_ratio", reports == 0 ? 0.0
                                            : static_cast<double>(distinct) /
                                                  static_cast<double>(reports))
        .num("convergence_evals", per_session(convergence))
        .num("bad_evals", per_session(bad))
        .num("best_perf", per_session(best))
        .num("family_hit_ratio", signatures == 0
                                     ? 0.0
                                     : static_cast<double>(hits) /
                                           static_cast<double>(signatures));
  }
};

}  // namespace

// ---- load -------------------------------------------------------------------

namespace {

struct LoadThread {
  Aggregate agg;
  std::size_t attempted = 0, failed = 0, acked = 0;
  Clock::time_point last_end{};
  std::vector<std::string> errors;
  Tracer tracer;
};

void run_session(const ServedSpec& spec, const Family& fam,
                 const SessionScript& sc, std::uint16_t port, Tracer* tr,
                 std::int64_t sid, SessionTally& t, std::size_t& acked) {
  const Clock::time_point t0 = Clock::now();
  net::SocketTransport socket("127.0.0.1", port, spec.binary);
  proto::Transport transport;
  if (tr != nullptr) {
    transport = [&socket, tr, sid](const proto::Message& m) {
      const std::size_t s = tr->begin("client." + m.verb, sid);
      proto::Message reply = socket(m);
      tr->end(s);
      return reply;
    };
  } else {
    transport = [&socket](const proto::Message& m) { return socket(m); };
  }
  proto::HarmonyClient client(transport);
  client.open(family_label(sc.family), make_rsl(spec.params));
  if (spec.signature) {
    const auto label = client.send_signature(sc.signature);
    t.signature_sent = true;
    t.family_hit = label.has_value() && *label == family_label(sc.family);
  }
  ClientLedger ledger;
  for (bool first = true;; first = false) {
    const Clock::time_point a = Clock::now();
    const std::optional<Configuration> config = client.fetch();
    const Clock::time_point b = Clock::now();
    if (first) t.warm_us = us_between(t0, b);
    if (!config) break;
    const double perf = family_perf(fam, *config);
    const Clock::time_point c = Clock::now();
    client.report(perf);
    t.step_us.push_back(us_between(a, b) + us_between(c, Clock::now()));
    ledger.add(*config, perf);
  }
  t.session_us = us_between(t0, Clock::now());
  ++acked;  // DONE received: the server ingested this run before replying
  const std::string bad =
      ledger.check_done(client.best_configuration(), client.best_performance());
  if (!bad.empty()) throw harmony::Error(bad);
  ledger.fill(t, client.evaluations(), client.best_performance());
  client.close();
}

}  // namespace

int cmd_load(const Args& a) {
  const ServedSpec spec = served_spec(a.str("workload"));
  const auto seed = static_cast<std::uint64_t>(a.integer("seed"));
  const auto port = static_cast<std::uint16_t>(a.integer("port"));
  const double seconds = a.real("seconds");
  const double warmup = a.real("warmup");
  const bool trace = a.integer("trace", 0) != 0;
  std::signal(SIGPIPE, SIG_IGN);

  const std::vector<Family> families = make_families();
  const Clock::time_point start = Clock::now();
  const Clock::time_point measure_from =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup));
  const Clock::time_point deadline =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));

  std::vector<LoadThread> out(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      LoadThread& me = out[static_cast<std::size_t>(c)];
      ScriptStream scripts(families, seed, c);
      for (std::int64_t n = 0; Clock::now() < deadline; ++n) {
        const SessionScript sc = scripts.next();
        const Clock::time_point started = Clock::now();
        const bool measured = started >= measure_from;
        const std::int64_t sid = c * 1000000 + n;
        SessionTally t;
        t.window = window_of(measure_from, started);
        ++me.attempted;
        try {
          run_session(spec, families[sc.family], sc, port,
                      trace ? &me.tracer : nullptr, sid, t, me.acked);
        } catch (const std::exception& e) {
          ++me.failed;
          if (me.errors.size() < 4) me.errors.push_back(e.what());
          continue;
        }
        if (measured) {
          me.agg.add(t);
          me.last_end = Clock::now();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Aggregate agg;
  std::size_t attempted = 0, failed = 0, acked = 0;
  Clock::time_point last_end = measure_from;
  Tracer all;
  for (LoadThread& t : out) {
    agg.merge(t.agg);
    attempted += t.attempted;
    failed += t.failed;
    acked += t.acked;
    last_end = std::max(last_end, t.last_end);
    for (const std::string& e : t.errors) {
      std::fprintf(stderr, "perfbench load: session failed: %s\n", e.c_str());
    }
    all.absorb(t.tracer);
  }
  const double window_s = std::max(1e-9, us_between(measure_from, last_end) / 1e6);
  if (trace) all.write_chrome(a.str("trace-out"), getpid());

  JsonLine j;
  j.num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("acked", static_cast<double>(acked))
      .num("window_s", window_s)
      .num("sessions_per_s", static_cast<double>(agg.sessions) / window_s)
      .num("evals_per_s", static_cast<double>(agg.reports) / window_s);
  agg.emit(j);
  std::printf("%s\n", j.dump().c_str());
  return 0;
}

// ---- replay -----------------------------------------------------------------

namespace {

/// One virtual client connection of the replay: the client half of the
/// protocol as a state machine, fed by the server-side Connection's reply
/// bytes instead of a socket.
struct ReplayClient {
  enum class Next { kHello, kBundles, kSignature, kFetch, kReport, kBye };

  std::unique_ptr<net::Connection> conn;
  net::StreamDecoder decoder{net::StreamDecoder::Mode::kText};
  ScriptStream scripts;
  SessionScript script;
  std::int64_t sid = 0;
  Next next = Next::kHello;
  bool preamble_sent = false;
  Configuration pending;
  double pending_perf = 0.0;
  ClientLedger ledger;
  SessionTally tally;
  bool measured = false;
  /// Server layer time of the FETCH whose REPORT completes the step.
  double fetch_layer_us = 0.0;

  ReplayClient(const std::vector<Family>& f, std::uint64_t seed, int c)
      : scripts(f, seed, c) {}
};

std::string verb_of(ReplayClient::Next n) {
  switch (n) {
    case ReplayClient::Next::kHello: return "HELLO";
    case ReplayClient::Next::kBundles: return "BUNDLES";
    case ReplayClient::Next::kSignature: return "SIGNATURE";
    case ReplayClient::Next::kFetch: return "FETCH";
    case ReplayClient::Next::kReport: return "REPORT";
    case ReplayClient::Next::kBye: return "BYE";
  }
  return "?";
}

proto::Message request_of(const ServedSpec& spec, const ReplayClient& rc) {
  switch (rc.next) {
    case ReplayClient::Next::kHello:
      return {"HELLO", {family_label(rc.script.family)}};
    case ReplayClient::Next::kBundles:
      return {"BUNDLES", {make_rsl(spec.params)}};
    case ReplayClient::Next::kSignature: {
      proto::Message m{"SIGNATURE", {std::to_string(rc.script.signature.size())}};
      for (double v : rc.script.signature) {
        m.args.push_back(harmony::format_double(v));
      }
      return m;
    }
    case ReplayClient::Next::kFetch:
      return {"FETCH", {}};
    case ReplayClient::Next::kReport:
      return {"REPORT", {harmony::format_double(rc.pending_perf)}};
    case ReplayClient::Next::kBye:
      return {"BYE", {}};
  }
  return {};
}

std::vector<std::uint8_t> encode(bool binary, bool with_preamble,
                                 const proto::Message& m) {
  std::vector<std::uint8_t> out;
  if (binary) {
    if (with_preamble) {
      out.assign(net::kBinaryPreamble,
                 net::kBinaryPreamble + sizeof net::kBinaryPreamble);
    }
    net::append_frame(out, m);
  } else {
    const std::string line = proto::serialize(m) + "\n";
    out.assign(line.begin(), line.end());
  }
  return out;
}

proto::Message decode_one(net::StreamDecoder& d) {
  const net::StreamDecoder::Unit u = d.next();
  switch (u.kind) {
    case net::StreamDecoder::Unit::Kind::kLine:
      return proto::parse_message(std::string(u.line));
    case net::StreamDecoder::Unit::Kind::kFrame:
      return net::decode_frame_payload(u.payload, u.payload_len);
    case net::StreamDecoder::Unit::Kind::kNone:
      break;
  }
  throw harmony::Error("replay: no complete reply");
}

}  // namespace

int cmd_replay(const Args& a) {
  const ServedSpec spec = served_spec(a.str("workload"));
  const auto seed = static_cast<std::uint64_t>(a.integer("seed"));
  const double seconds = a.real("seconds");
  const double warmup = a.real("warmup");
  harmony::set_thread_count(1);  // spans of one batch must not overlap

  HistoryDatabase db;
  harmony::DataAnalyzer analyzer = make_analyzer();
  ExperienceStore store;
  Clock::time_point t0 = Clock::now();
  (void)store.open(store_prefix(a.str("dir")), db, store_options(spec));
  const double open_ms = us_between(t0, Clock::now()) / 1e3;

  const std::vector<Family> families = make_families();
  proto::SessionOptions so = session_options(spec);
  so.defer_experience = true;
  so.shared_analyzer = &analyzer;

  std::vector<ReplayClient> clients;
  std::int64_t next_sid = 0;
  auto start_session = [&](ReplayClient& rc, bool measured) {
    rc.conn = std::make_unique<net::Connection>(net::Fd(), so, &db);
    rc.decoder = net::StreamDecoder(spec.binary ? net::StreamDecoder::Mode::kBinary
                                                : net::StreamDecoder::Mode::kText);
    rc.script = rc.scripts.next();
    rc.sid = next_sid++;
    rc.next = ReplayClient::Next::kHello;
    rc.preamble_sent = false;
    rc.ledger = ClientLedger{};
    rc.tally = SessionTally{};
    rc.measured = measured;
  };
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back(families, seed, c);
    start_session(clients.back(), false);
  }

  Tracer tr;
  Aggregate agg;
  std::size_t attempted = kConnections, failed = 0;
  std::vector<double> layer_step_us;  // server layer time per FETCH+REPORT
  std::vector<double> decode_us, fetch_us, report_us, signature_us,
      retrieve_us, refit_us, ingest_us, rotation_ms, consume_us;
  std::uint64_t rotations = 0, refits_full = 0, refits_incr = 0;
  std::uint64_t log_bytes = 0, log_records = 0;

  const Clock::time_point start = Clock::now();
  const Clock::time_point measure_from =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup));
  const Clock::time_point deadline =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  bool measuring = false;
  harmony::Classifier::RefitStats refit_base{};

  while (Clock::now() < deadline) {
    if (!measuring && Clock::now() >= measure_from) {
      measuring = true;
      refit_base = analyzer.refit_stats();
    }
    const std::int64_t batch = static_cast<std::int64_t>(
        tr.begin("batch", -1));
    const std::size_t n = clients.size();
    std::vector<double> own_us(n, 0.0);
    std::vector<std::string> verbs(n);

    // Client writes arrive: the loop reads and decodes them.
    for (std::size_t i = 0; i < n; ++i) {
      ReplayClient& rc = clients[i];
      verbs[i] = verb_of(rc.next);
      const std::vector<std::uint8_t> bytes =
          encode(spec.binary, !rc.preamble_sent, request_of(spec, rc));
      rc.preamble_sent = true;
      const std::size_t s = tr.begin("net.conn.on_input", rc.sid, batch);
      const bool ok = rc.conn->on_input(bytes.data(), bytes.size());
      tr.end(s);
      own_us[i] += tr.spans()[s].us();
      if (rc.measured) decode_us.push_back(tr.spans()[s].us());
      if (!ok || !rc.conn->has_pending()) {
        throw harmony::Error("replay: request not decoded: " + verbs[i]);
      }
      // Admission, as dispatch_batch does it (no tenant budget here).
      if (!rc.conn->admitted() && verbs[i] == "HELLO") {
        rc.conn->set_tenant(family_label(rc.script.family));
        rc.conn->set_admitted();
      }
    }

    // One fit for the whole batch.
    const harmony::Classifier::RefitStats before = analyzer.refit_stats();
    const std::size_t fit = tr.begin("core.analyzer.ensure_fitted", -1, batch);
    analyzer.ensure_fitted(db);
    tr.end(fit);
    const harmony::Classifier::RefitStats after = analyzer.refit_stats();
    const bool refitted = after.full != before.full ||
                          after.incremental != before.incremental;
    double shared_us = tr.spans()[fit].us();
    if (measuring && refitted) refit_us.push_back(tr.spans()[fit].us());

    // Execute every pending step.
    for (std::size_t i = 0; i < n; ++i) {
      ReplayClient& rc = clients[i];
      const std::size_t s =
          tr.begin("net.conn.execute." + verbs[i], rc.sid, batch);
      rc.conn->execute_pending();
      tr.end(s);
      const double us = tr.spans()[s].us();
      own_us[i] += us;
      if (rc.measured) {
        if (verbs[i] == "FETCH") fetch_us.push_back(us);
        if (verbs[i] == "REPORT") report_us.push_back(us);
        if (verbs[i] == "SIGNATURE") signature_us.push_back(us);
      }
      if (verbs[i] == "SIGNATURE" && rc.measured) {
        // Probe: the retrieval the SIGNATURE just ran, timed on its own.
        const std::size_t r = tr.begin("core.analyzer.retrieve", rc.sid, batch);
        (void)analyzer.retrieve(db, rc.script.signature);
        tr.end(r);
        retrieve_us.push_back(tr.spans()[r].us());
      }
    }

    // One group-commit ingest for the sessions that finished.
    std::vector<ExperienceRecord> records;
    for (ReplayClient& rc : clients) {
      if (auto r = rc.conn->session().take_pending_experience()) {
        records.push_back(std::move(*r));
      }
    }
    if (!records.empty()) {
      const std::size_t count = records.size();
      const std::size_t tail_before = store.tail_records();
      const std::uint64_t end_before = store.log_end();
      const std::size_t s =
          tr.begin("core.server.ingest_experience", -1, batch);
      harmony::ingest_experience(db, &store, std::move(records));
      tr.end(s);
      shared_us += tr.spans()[s].us();
      const bool rotated = store.tail_records() < tail_before + count;
      if (measuring) {
        if (rotated) {
          ++rotations;
          rotation_ms.push_back(tr.spans()[s].us() / 1e3);
        } else {
          ingest_us.push_back(tr.spans()[s].us());
          log_bytes += store.log_end() - end_before;
          log_records += count;
        }
      }
    }

    // Reply flush, then the client side of every exchange.
    for (std::size_t i = 0; i < n; ++i) {
      ReplayClient& rc = clients[i];
      const std::size_t len = rc.conn->output_size();
      const std::size_t s = tr.begin("net.conn.consume_output", rc.sid, batch);
      rc.decoder.append(rc.conn->output_data(), len);
      rc.conn->consume_output(len);
      tr.end(s);
      own_us[i] += tr.spans()[s].us();
      if (rc.measured) consume_us.push_back(tr.spans()[s].us());
      const double step_layer_us = own_us[i] + shared_us / static_cast<double>(n);

      const proto::Message reply = decode_one(rc.decoder);
      try {
        if (reply.is("ERROR")) {
          throw harmony::Error("server error: " +
                               (reply.args.empty() ? "?" : reply.args[0]));
        }
        switch (rc.next) {
          case ReplayClient::Next::kHello:
            rc.next = ReplayClient::Next::kBundles;
            break;
          case ReplayClient::Next::kBundles:
            rc.next = spec.signature ? ReplayClient::Next::kSignature
                                     : ReplayClient::Next::kFetch;
            break;
          case ReplayClient::Next::kSignature:
            rc.tally.signature_sent = true;
            rc.tally.family_hit = reply.args.size() == 2 &&
                                  reply.args[1] == family_label(rc.script.family);
            rc.next = ReplayClient::Next::kFetch;
            break;
          case ReplayClient::Next::kFetch:
            if (reply.is("CONFIG")) {
              rc.pending.clear();
              for (std::size_t k = 1; k < reply.args.size(); ++k) {
                rc.pending.push_back(harmony::parse_double(reply.args[k]));
              }
              rc.pending_perf =
                  family_perf(families[rc.script.family], rc.pending);
              rc.fetch_layer_us = step_layer_us;
              rc.next = ReplayClient::Next::kReport;
            } else {
              const auto np = static_cast<std::size_t>(
                  harmony::parse_long(reply.args.at(0)));
              Configuration best;
              for (std::size_t k = 0; k < np; ++k) {
                best.push_back(harmony::parse_double(reply.args.at(k + 1)));
              }
              const double best_perf = harmony::parse_double(reply.args.at(np + 1));
              const int evals =
                  static_cast<int>(harmony::parse_long(reply.args.at(np + 2)));
              const std::string bad = rc.ledger.check_done(best, best_perf);
              if (!bad.empty()) throw harmony::Error(bad);
              rc.ledger.fill(rc.tally, evals, best_perf);
              rc.next = ReplayClient::Next::kBye;
            }
            break;
          case ReplayClient::Next::kReport:
            rc.ledger.add(rc.pending, rc.pending_perf);
            if (rc.measured) {
              layer_step_us.push_back(rc.fetch_layer_us + step_layer_us);
            }
            rc.next = ReplayClient::Next::kFetch;
            break;
          case ReplayClient::Next::kBye:
            if (rc.measured) agg.add(rc.tally);
            ++attempted;
            start_session(rc, measuring);
            break;
        }
      } catch (const std::exception& e) {
        ++failed;
        std::fprintf(stderr, "perfbench replay: session failed: %s\n",
                     e.what());
        ++attempted;
        start_session(rc, measuring);
      }
    }
    tr.end(static_cast<std::size_t>(batch));
  }
  // Drain, as the service does at shutdown.
  store.flush();

  const harmony::Classifier::RefitStats rs = analyzer.refit_stats();
  refits_full = rs.full - refit_base.full;
  refits_incr = rs.incremental - refit_base.incremental;
  if (a.str("trace-out", "").size() > 0) tr.write_chrome(a.str("trace-out"), getpid());

  JsonLine j;
  j.num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("open_ms", open_ms)
      .num("decode_us", median(decode_us))
      .num("execute_fetch_us", median(fetch_us))
      .num("execute_report_us", median(report_us))
      .num("execute_signature_us", median(signature_us))
      .num("consume_us", median(consume_us))
      .num("retrieve_us", median(retrieve_us))
      .num("refit_us", median(refit_us))
      .num("refits_full", static_cast<double>(refits_full))
      .num("refits_incr", static_cast<double>(refits_incr))
      .num("ingest_us", median(ingest_us))
      .num("rotations", static_cast<double>(rotations))
      .num("rotation_ms", median(rotation_ms))
      .num("log_bytes_per_record",
           log_records == 0 ? 0.0
                            : static_cast<double>(log_bytes) /
                                  static_cast<double>(log_records))
      .num("layer_step_p50_us", median(layer_step_us))
      .num("layer_step_samples", static_cast<double>(layer_step_us.size()));
  agg.emit(j);
  std::printf("%s\n", j.dump().c_str());
  return 0;
}

// ---- verify-store -----------------------------------------------------------

int cmd_verify_store(const Args& a) {
  HistoryDatabase db;
  ExperienceStore store;
  const harmony::RecoveryInfo info = store.open(store_prefix(a.str("dir")), db);
  std::printf("%s\n", JsonLine()
                          .num("records", static_cast<double>(db.size()))
                          .num("truncated_bytes",
                               static_cast<double>(info.truncated_bytes))
                          .dump()
                          .c_str());
  return 0;
}

}  // namespace perfbench
