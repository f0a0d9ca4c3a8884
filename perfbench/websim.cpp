// tune_websim: the paper's §6 warm-start experiment, in process. Set-up
// tunes trainer workloads (blended TPC-W mixes) to build the history; the
// measured phase serves perturbed blends through HarmonyServer::serve_batch,
// each warm-started from the nearest trainer run, with every measurement a
// websim discrete-event simulation.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <thread>

#include "commands.hpp"
#include "common.hpp"
#include "core/analyzer.hpp"
#include "core/server.hpp"
#include "core/tuner.hpp"
#include "util/thread_pool.hpp"
#include "websim/cluster.hpp"

namespace perfbench {

using harmony::Configuration;
using harmony::websim::ClusterObjective;
using harmony::websim::SimOptions;
using harmony::websim::WorkloadMix;

namespace {

constexpr int kTrainers = 4;
constexpr int kTrainerBudget = 40;
constexpr int kTargetBudget = 30;
constexpr std::size_t kBatch = 4;
constexpr std::size_t kTargets = 16;
/// Concurrent request streams, like the served workloads' 4 connections.
constexpr std::size_t kStreams = 4;

SimOptions sim_options(const WorkloadMix& mix, std::uint64_t seed) {
  SimOptions s;
  s.mix = mix;
  s.emulated_browsers = 60;
  s.warmup_s = 1.0;
  s.measure_s = 3.0;
  s.seed = seed;
  s.session_persistence = 0.55;
  return s;
}

harmony::ServerOptions server_options(int budget, bool record) {
  harmony::ServerOptions o;
  o.tuning.simplex.max_evaluations = budget;
  o.tuning.search.kernel = "simplex";
  o.tuning.strategy = std::make_shared<harmony::EvenSpreadStrategy>();
  o.use_recorded_values = true;  // the paper's §4.2 training stage
  o.record_experience = record;
  return o;
}

WorkloadMix trainer_mix(int k) {
  const WorkloadMix b = WorkloadMix::browsing();
  const WorkloadMix s = WorkloadMix::shopping();
  const WorkloadMix o = WorkloadMix::ordering();
  switch (k % kTrainers) {
    case 0: return WorkloadMix::blend(s, b, 0.35);
    case 1: return WorkloadMix::blend(o, s, 0.35);
    case 2: return WorkloadMix::blend(b, o, 0.2);
    default: return WorkloadMix::blend(s, o, 0.5);
  }
}

/// Target `i`: one of kTargets fixed perturbed blends — one of four base
/// mixes blended a random step toward a random specification mix. The
/// targets are part of the workload; the seed drives the simulator seeds.
WorkloadMix target_mix(std::size_t i) {
  const std::size_t t = i % kTargets;
  harmony::Rng rng(unit_seed(0x7a26e7ULL, t));
  const WorkloadMix base[] = {WorkloadMix::shopping(), WorkloadMix::ordering(),
                              WorkloadMix::browsing(),
                              WorkloadMix::blend(WorkloadMix::shopping(),
                                                 WorkloadMix::ordering(), 0.5)};
  const WorkloadMix spec[] = {WorkloadMix::browsing(), WorkloadMix::shopping(),
                              WorkloadMix::ordering()};
  const WorkloadMix& toward = spec[rng.uniform_int(0, 2)];
  return WorkloadMix::blend(base[t % 4], toward, rng.uniform(0.0, 0.15));
}

/// Forwarding objective: times every measurement and, when traced, records
/// it as a span in its own tracer (requests of a batch run on different
/// pool threads).
class TimedObjective final : public harmony::Objective {
 public:
  TimedObjective(SimOptions sim, bool trace, std::int64_t session)
      : inner_(sim), trace_(trace), session_(session) {}

  double measure(const Configuration& config) override {
    const Clock::time_point a = Clock::now();
    std::size_t span = 0;
    if (trace_) span = tracer_.begin("websim.measure", session_);
    const double v = inner_.measure(config);
    if (trace_) tracer_.end(span);
    const Clock::time_point b = Clock::now();
    if (calls_ == 0) first_end_ = b;
    step_us_.push_back(us_between(calls_ == 0 ? a : last_end_, b));
    measure_us_ += us_between(a, b);
    events_ += inner_.last_metrics().events;
    last_end_ = b;
    ++calls_;
    return v;
  }
  std::string metric_name() const override { return "WIPS"; }

  std::size_t calls_ = 0;
  Clock::time_point first_end_{}, last_end_{};
  std::vector<double> step_us_;  ///< previous measurement's end -> this end
  double measure_us_ = 0.0;
  std::uint64_t events_ = 0;
  Tracer tracer_;

 private:
  ClusterObjective inner_;
  bool trace_;
  std::int64_t session_;
};

/// The trainer history: every trainer mix tuned cold, in one batch.
/// Its simulator seeds are fixed: the history is part of the workload, so
/// every seed warm-starts from the same experience.
harmony::HistoryDatabase build_history(const harmony::ParameterSpace& space) {
  harmony::HarmonyServer trainer(space, server_options(kTrainerBudget, true));
  std::vector<std::unique_ptr<TimedObjective>> objs;
  std::vector<harmony::ServeRequest> reqs;
  for (int k = 0; k < kTrainers; ++k) {
    const WorkloadMix mix = trainer_mix(k);
    objs.push_back(std::make_unique<TimedObjective>(
        sim_options(mix, unit_seed(0x7124ULL, static_cast<std::uint64_t>(k))),
        false, -1));
    reqs.push_back({objs.back().get(), mix.signature(),
                    "trainer" + std::to_string(k)});
  }
  (void)trainer.serve_batch(reqs);
  return trainer.database();
}

struct BatchRun {
  std::vector<harmony::ServedTuningResult> results;
  std::vector<std::unique_ptr<TimedObjective>> objs;
  std::vector<harmony::WorkloadSignature> signatures;
  Clock::time_point start;
};

BatchRun run_batch(harmony::HarmonyServer& server, std::uint64_t seed,
                   std::size_t batch, bool trace) {
  BatchRun run;
  std::vector<harmony::ServeRequest> reqs;
  for (std::size_t r = 0; r < kBatch; ++r) {
    const std::size_t i = batch * kBatch + r;
    const WorkloadMix mix = target_mix(i);
    run.objs.push_back(std::make_unique<TimedObjective>(
        sim_options(mix, unit_seed(seed ^ 0x5e1ULL, i)), trace,
        static_cast<std::int64_t>(i)));
    run.signatures.push_back(mix.signature());
    reqs.push_back({run.objs.back().get(), run.signatures.back(),
                    "target" + std::to_string(i)});
  }
  run.start = Clock::now();
  run.results = server.serve_batch(reqs);
  return run;
}

bool same_result(const harmony::ServedTuningResult& a,
                 const harmony::ServedTuningResult& b) {
  const harmony::TuningResult& x = a.tuning;
  const harmony::TuningResult& y = b.tuning;
  if (x.trace.size() != y.trace.size() || x.best_config != y.best_config ||
      std::memcmp(&x.best_performance, &y.best_performance, sizeof(double)) != 0 ||
      x.evaluations != y.evaluations || x.stop_reason != y.stop_reason ||
      a.experience_label != b.experience_label || a.failed != b.failed) {
    return false;
  }
  for (std::size_t i = 0; i < x.trace.size(); ++i) {
    if (x.trace[i].config != y.trace[i].config ||
        std::memcmp(&x.trace[i].performance, &y.trace[i].performance,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Empty when the result's best configuration was measured live in its own
/// trace, or came from the retrieved experience's recorded values (the
/// training stage), with the same value; the failure otherwise.
std::string check_result(const harmony::ServedTuningResult& r,
                         const harmony::HistoryDatabase& history) {
  if (r.failed) return "request failed: " + r.failure;
  auto matches = [&](const harmony::Measurement& m) {
    return m.config == r.tuning.best_config &&
           std::memcmp(&m.performance, &r.tuning.best_performance,
                       sizeof(double)) == 0;
  };
  for (const harmony::Measurement& m : r.tuning.trace) {
    if (matches(m)) return "";
  }
  for (std::size_t i = 0; r.experience_label && i < history.size(); ++i) {
    const harmony::ExperienceRecord& rec = history.record(i);
    if (rec.label != *r.experience_label) continue;
    for (const harmony::Measurement& m : rec.measurements) {
      if (matches(m)) return "";
    }
  }
  return "best configuration neither measured nor recorded";
}

}  // namespace

namespace {

/// What one request stream measured; merged across streams at the end.
struct StreamTally {
  Windowed step_us, warm_us, session_ms;
  std::vector<double> retrieve_us;
  double session_us = 0.0, measure_us = 0.0;  // traced batches when tracing
  double mode_ms[2] = {0.0, 0.0};             // session time: untraced, traced
  std::size_t mode_sessions[2] = {0, 0};
  std::uint64_t events = 0;
  std::size_t sessions = 0, evals = 0, attempted = 0, failed = 0, live = 0,
              distinct = 0, layer_evals = 0;
  double convergence = 0, bad = 0, best = 0;
  Tracer tracer;

  void merge(const StreamTally& o) {
    step_us.merge(o.step_us);
    warm_us.merge(o.warm_us);
    session_ms.merge(o.session_ms);
    retrieve_us.insert(retrieve_us.end(), o.retrieve_us.begin(),
                       o.retrieve_us.end());
    session_us += o.session_us;
    measure_us += o.measure_us;
    for (int m = 0; m < 2; ++m) {
      mode_ms[m] += o.mode_ms[m];
      mode_sessions[m] += o.mode_sessions[m];
    }
    events += o.events;
    sessions += o.sessions;
    evals += o.evals;
    attempted += o.attempted;
    failed += o.failed;
    live += o.live;
    distinct += o.distinct;
    layer_evals += o.layer_evals;
    convergence += o.convergence;
    bad += o.bad;
    best += o.best;
    tracer.absorb(o.tracer);
  }
};

/// One request stream: its own server over a copy of the history, driven
/// serially — batch after batch, request after request — until `deadline`.
/// Stream s serves batches s, s + kStreams, s + 2 kStreams, ...; a traced
/// run traces every other one of them. Timing windows count from `start`.
void run_stream(const harmony::ParameterSpace& space,
                const harmony::HistoryDatabase& history, std::uint64_t seed,
                std::size_t stream, bool trace, Clock::time_point start,
                Clock::time_point deadline, StreamTally& t, BatchRun* first) {
  harmony::HarmonyServer server(space, server_options(kTargetBudget, false));
  server.database() = history;
  harmony::DataAnalyzer probe(std::make_shared<harmony::LeastSquareClassifier>());
  for (std::size_t k = 0; k == 0 || Clock::now() < deadline; ++k) {
    const std::size_t batch = stream + k * kStreams;
    const bool on = trace && k % 2 == 0;
    BatchRun run = run_batch(server, seed, batch, on);
    Clock::time_point prev_end = run.start;
    for (std::size_t r = 0; r < run.results.size(); ++r) {
      const TimedObjective& o = *run.objs[r];
      const harmony::ServedTuningResult& res = run.results[r];
      ++t.attempted;
      const std::string bad_check = check_result(res, history);
      if (!bad_check.empty() || o.calls_ == 0) {
        ++t.failed;
        std::fprintf(stderr, "perfbench websim: %s\n", bad_check.c_str());
        continue;
      }
      // Requests run serially in index order: request r's session spans
      // from the previous one's last measurement (or the batch start, which
      // includes the batch's one fit) to its own; its warm start ends with
      // its first result (retrieval, seeding and one simulation).
      const double us = us_between(prev_end, o.last_end_);
      const std::size_t window = window_of(start, prev_end);
      t.warm_us.add(window, us_between(prev_end, o.first_end_));
      prev_end = o.last_end_;
      t.session_ms.add(window, us / 1e3);
      t.step_us.add(window, o.step_us_);
      t.mode_ms[on ? 1 : 0] += us / 1e3;
      ++t.mode_sessions[on ? 1 : 0];
      if (on || !trace) {
        t.session_us += us;
        t.measure_us += o.measure_us_;
        t.events += o.events_;
        t.layer_evals += o.calls_;
      }
      t.evals += o.calls_;
      ++t.sessions;
      const harmony::TraceMetrics m = harmony::analyze_trace(res.tuning.trace);
      t.convergence += m.convergence_iteration;
      t.bad += m.bad_iterations;
      t.best += res.tuning.best_performance;
      std::set<Configuration> seen;
      for (const harmony::Measurement& x : res.tuning.trace) seen.insert(x.config);
      t.live += res.tuning.trace.size();
      t.distinct += seen.size();
      if (on) {
        t.tracer.absorb(o.tracer_);
        const std::size_t s = t.tracer.begin(
            "core.analyzer.retrieve", static_cast<std::int64_t>(batch * kBatch + r));
        (void)probe.retrieve(server.database(), run.signatures[r]);
        t.tracer.end(s);
        t.retrieve_us.push_back(t.tracer.spans()[s].us());
      }
    }
    if (batch == 0) *first = std::move(run);
  }
}

}  // namespace

int cmd_websim(const Args& a) {
  const auto seed = static_cast<std::uint64_t>(a.integer("seed"));
  const double seconds = a.real("seconds");
  const bool trace = a.integer("trace", 0) != 0;
  const int setups = static_cast<int>(a.integer("setups", 3));
  // Streams are the parallelism; inside one, serve_batch runs inline.
  harmony::set_thread_count(1);
  const harmony::ParameterSpace space =
      harmony::websim::ClusterConfig::parameter_space();

  // Set-up, repeated: the trainer history is part of the workload.
  std::vector<double> setup_s;
  harmony::HistoryDatabase history;
  for (int i = 0; i < setups; ++i) {
    const Clock::time_point t0 = Clock::now();
    history = build_history(space);
    setup_s.push_back(us_between(t0, Clock::now()) / 1e6);
  }

  const Clock::time_point start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<StreamTally> tallies(kStreams);
  BatchRun first;
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kStreams; ++s) {
    threads.emplace_back(run_stream, std::cref(space), std::cref(history), seed,
                         s, trace, start, deadline, std::ref(tallies[s]),
                         &first);
  }
  for (std::thread& th : threads) th.join();
  const double elapsed_s = us_between(start, Clock::now()) / 1e6;
  StreamTally t;
  for (const StreamTally& x : tallies) t.merge(x);

  // Correctness: batch 0 again on a fresh server with the same history,
  // in the other tracing mode, must give bit-identical results.
  harmony::HarmonyServer again(space, server_options(kTargetBudget, false));
  again.database() = history;
  const BatchRun rerun = run_batch(again, seed, 0, !trace);
  bool identical = rerun.results.size() == first.results.size();
  for (std::size_t r = 0; identical && r < rerun.results.size(); ++r) {
    identical = same_result(rerun.results[r], first.results[r]);
  }
  if (!identical) {
    ++t.failed;
    std::fprintf(stderr,
                 "perfbench websim: traced and untraced serve_batch differ\n");
  }
  if (trace) t.tracer.write_chrome(a.str("trace-out"), getpid());
  const double overhead_ratio =
      t.mode_sessions[0] == 0 || t.mode_sessions[1] == 0
          ? 0.0
          : (t.mode_ms[1] / static_cast<double>(t.mode_sessions[1])) /
                    (t.mode_ms[0] / static_cast<double>(t.mode_sessions[0])) -
                1.0;

  const double n = static_cast<double>(std::max<std::size_t>(t.sessions, 1));
  JsonLine j;
  j.num("attempted", static_cast<double>(t.attempted))
      .num("failed", static_cast<double>(t.failed))
      .num("identical", identical ? 1.0 : 0.0)
      .num("setup_s", median(setup_s))
      .num("sessions", static_cast<double>(t.sessions))
      .num("sessions_per_s", static_cast<double>(t.sessions) / elapsed_s)
      .num("evals_per_s", static_cast<double>(t.evals) / elapsed_s);
  emit_timing(j, "step", "us", t.step_us);
  emit_timing(j, "warmstart", "us", t.warm_us);
  emit_timing(j, "session", "ms", t.session_ms);
  j.num("measurements_per_session", static_cast<double>(t.evals) / n)
      .num("done_evals", static_cast<double>(t.evals) / n)
      .num("distinct_ratio", t.live == 0 ? 0.0
                                         : static_cast<double>(t.distinct) /
                                               static_cast<double>(t.live))
      .num("convergence_evals", t.convergence / n)
      .num("bad_evals", t.bad / n)
      .num("best_perf", t.best / n)
      .num("peak_rss_mb", peak_rss_mb())
      .num("measure_ms", t.layer_evals == 0
                             ? 0.0
                             : t.measure_us / 1e3 /
                                   static_cast<double>(t.layer_evals))
      .num("events_per_s", t.measure_us <= 0.0
                               ? 0.0
                               : static_cast<double>(t.events) /
                                     (t.measure_us / 1e6))
      .num("overhead_us_per_eval",
           t.layer_evals == 0 ? 0.0
                              : (t.session_us - t.measure_us) /
                                    static_cast<double>(t.layer_evals))
      .num("explained_ratio",
           t.session_us <= 0.0 ? 0.0 : t.measure_us / t.session_us)
      .num("retrieve_us", median(t.retrieve_us))
      .num("overhead_ratio", overhead_ratio);
  std::printf("%s\n", j.dump().c_str());
  return t.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
