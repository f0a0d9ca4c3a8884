#include "websim/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/slab.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "websim/cache.hpp"
#include "websim/des.hpp"
#include "websim/pool.hpp"
#include "websim/profile.hpp"
#include "websim/station.hpp"

namespace harmony::websim {

namespace {

constexpr double kMsToSec = 1e-3;

class Browser;

/// One in-flight interaction attempt. Lives in the World's request slab
/// from fire() to complete(); dropped attempts keep the same object across
/// retries. The profile pointer is resolved once at issue time so the
/// per-query callbacks never repeat the table lookup.
struct Request {
  Browser* browser = nullptr;
  const InteractionProfile* prof = nullptr;
  SimTime issued_at = 0.0;
  int queries_left = 0;
  bool write_pending = false;
  Interaction interaction = Interaction::kHome;
};

/// Mutable state of one simulation run, shared by the browser callbacks.
///
/// Topology (Appendix A): proxy box (Squid) -> web/app box (Tomcat: HTTP
/// connectors for static files, AJP processors for servlets) -> DB box
/// (MySQL connection pool). Each box has a dual-CPU station; connector /
/// processor / connection pools are admission limits whose slots are held
/// across the nested work they trigger.
///
/// All run-constant quantities (cache hit probability, per-tier cost
/// coefficients) are computed once here, with the same floating-point
/// operations the per-request formulas used inline, so hoisting them cannot
/// change a single bit of the results.
struct World {
  World(const ClusterConfig& config, const SimOptions& options)
      : rng(options.seed), cfg(config), opts(options) {}

  Simulation sim;
  Rng rng;
  ClusterConfig cfg;
  SimOptions opts;
  CacheModel cache;

  std::unique_ptr<ServiceStation> proxy_cpu;
  std::unique_ptr<ServiceStation> webapp_cpu;
  std::unique_ptr<ResourcePool> http_pool;
  std::unique_ptr<ResourcePool> ajp_pool;
  std::unique_ptr<ResourcePool> db_conns;
  std::unique_ptr<ServiceStation> db_engine;

  /// Per-run request pool: one slab node per concurrently-active browser.
  util::Slab<Request> requests;

  // Run constants hoisted out of the per-request callbacks.
  double cache_hit_prob = 0.0;
  double http_buffer_kb = 1.0;       ///< max(1, cfg.http_buffer_kb)
  double http_buffer_mem_ms = 0.0;   ///< kHttpBufferMemMs * buffer
  double app_thrash = 1.0;           ///< 1 + coeff * excess^2
  double db_buffer_kb = 1.0;         ///< max(1, cfg.mysql_net_buffer_kb)
  double db_throughput = 1.0;        ///< saturating KB/ms for this buffer
  double db_buffer_mem_ms = 0.0;     ///< kDbBufferMemMs * buffer
  double db_delayed_mem_ms = 0.0;    ///< kDbDelayedMemMs * delayed_queue

  // Delayed-insert queue: a fluid level draining at a constant rate.
  double delayed_level = 0.0;
  SimTime delayed_updated = 0.0;

  // Measurement accumulators (inside the measurement window only).
  std::uint64_t completed = 0;
  std::uint64_t completed_browse = 0;
  std::uint64_t completed_order = 0;
  std::uint64_t dropped = 0;
  std::uint64_t attempts = 0;
  std::uint64_t static_requests = 0;
  std::uint64_t cache_hits = 0;
  std::vector<double> latencies_ms;

  void precompute_run_constants() {
    cache_hit_prob = cache.hit_probability();
    http_buffer_kb = std::max(1.0, double(cfg.http_buffer_kb));
    http_buffer_mem_ms = profile::kHttpBufferMemMs * http_buffer_kb;
    const double excess = std::max(
        0.0, double(cfg.ajp_max_processors) - profile::kAppComfortProcessors);
    app_thrash = 1.0 + profile::kAppThrashCoeff * excess * excess;
    db_buffer_kb = std::max(1.0, double(cfg.mysql_net_buffer_kb));
    db_throughput = profile::kDbThroughputMax * db_buffer_kb /
                    (db_buffer_kb + profile::kDbBufferHalf);  // KB/ms
    db_buffer_mem_ms = profile::kDbBufferMemMs * db_buffer_kb;
    db_delayed_mem_ms =
        profile::kDbDelayedMemMs * double(cfg.mysql_delayed_queue);
  }

  [[nodiscard]] bool measuring() const noexcept {
    return sim.now() >= opts.warmup_s &&
           sim.now() < opts.warmup_s + opts.measure_s;
  }

  /// Admits one write to the delayed queue; true when absorbed async.
  bool delayed_write() {
    const double elapsed = sim.now() - delayed_updated;
    delayed_level = std::max(
        0.0, delayed_level - elapsed * profile::kDbDelayedDrainPerSec);
    delayed_updated = sim.now();
    if (delayed_level + 1.0 <= static_cast<double>(cfg.mysql_delayed_queue)) {
      delayed_level += 1.0;
      return true;
    }
    return false;
  }

  // --- configuration-dependent CPU / service times (seconds) -------------

  /// Tomcat CPU to serve one static file on a proxy miss: disk+serve CPU
  /// plus buffer-fill overhead (small buffers mean many fills) plus a mild
  /// memory penalty for huge buffers.
  [[nodiscard]] double static_serve_cpu(double object_kb) const {
    const double ms = profile::kStaticServeCpuMs +
                      profile::kHttpPerFillMs * (object_kb / http_buffer_kb) +
                      http_buffer_mem_ms;
    return ms * kMsToSec;
  }

  /// Servlet CPU burst; configured processor pools beyond the box's comfort
  /// level pay a memory/context-switch thrashing tax on every burst.
  [[nodiscard]] double servlet_cpu(double cpu_ms) const {
    return (profile::kAppDispatchMs + cpu_ms * app_thrash) * kMsToSec;
  }

  /// One DB query held on a connection: CPU (inflated by lock contention
  /// with concurrently active connections) + result transfer through the
  /// net buffer + buffer/queue memory taxes + write handling.
  [[nodiscard]] double db_query_time(double payload_kb, bool write) {
    const double active = static_cast<double>(db_conns->in_use());
    const double frac = active / profile::kDbComfortConnections;
    const double contention =
        1.0 + profile::kDbContentionCoeff * frac * frac;
    double ms = profile::kDbQueryCpuMs * contention +
                payload_kb / db_throughput +
                db_buffer_mem_ms +
                db_delayed_mem_ms;
    if (write) {
      ms += delayed_write() ? profile::kDbAsyncWriteMs
                            : profile::kDbSyncWriteMs;
    }
    return ms * kMsToSec;
  }
};

void issue(World& w, Request* req);

/// Closed-loop emulated browser: think, issue, wait, repeat. Dropped
/// attempts back off and retry the same interaction. Browsers live in a
/// World-owned vector for the whole run, so callbacks hold plain pointers —
/// the shared_ptr ref-counting this replaces was pure overhead.
class Browser {
 public:
  explicit Browser(World& w)
      : w_(w),
        rng_(w.rng.split()),
        source_(w.opts.mix, w.opts.session_persistence) {}

  void start(SimTime initial_delay) {
    w_.sim.schedule(initial_delay, [this] { next(); });
  }

  void next() {
    const double think = rng_.exponential(1.0 / profile::kThinkTimeMeanSec);
    w_.sim.schedule(think, [this] { fire(); });
  }

  void fire() {
    Request* req = w_.requests.create();
    req->browser = this;
    req->interaction = source_.next(rng_);
    req->prof = &interaction_profile(req->interaction);
    begin_attempt(req);
  }

  void begin_attempt(Request* req) {
    req->issued_at = w_.sim.now();
    if (w_.measuring()) ++w_.attempts;
    issue(w_, req);
  }

  void complete(Request* req) {
    if (w_.measuring()) {
      ++w_.completed;
      if (is_order_interaction(req->interaction)) {
        ++w_.completed_order;
      } else {
        ++w_.completed_browse;
      }
      w_.latencies_ms.push_back((w_.sim.now() - req->issued_at) / kMsToSec);
    }
    w_.requests.recycle(req);
    next();
  }

  void retry(Request* req) {
    if (w_.measuring()) ++w_.dropped;
    w_.sim.schedule(profile::kRetryBackoffSec,
                    [this, req] { begin_attempt(req); });
  }

  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  World& w_;
  Rng rng_;
  SessionSource source_;
};

/// Sequential DB round trips; the caller's AJP slot stays held throughout.
void db_stage(World& w, Request* req) {
  if (req->queries_left == 0) {
    // Render the response, release the processor, return to the client.
    w.webapp_cpu->submit(
        profile::kAppRenderMs * kMsToSec,
        [&w, req](bool) {
          w.ajp_pool->release();
          w.sim.schedule(profile::kNetworkRttMs * kMsToSec,
                         [req] { req->browser->complete(req); });
        });
    return;
  }
  --req->queries_left;
  const bool write = req->write_pending && req->queries_left == 0;
  if (write) req->write_pending = false;
  w.db_conns->acquire([&w, req, write](bool granted) {
    if (!granted) {
      w.ajp_pool->release();
      req->browser->retry(req);
      return;
    }
    // The connection is held while the query waits for and uses one of the
    // engine's I/O ways — slow transfers cap DB throughput.
    w.db_engine->submit(w.db_query_time(req->prof->db_payload_kb, write),
                        [&w, req](bool) {
                          w.db_conns->release();
                          db_stage(w, req);
                        });
  });
}

/// Dynamic path: AJP processor held across servlet CPU + all DB queries.
void dynamic_stage(World& w, Request* req) {
  w.ajp_pool->acquire([&w, req](bool granted) {
    if (!granted) {
      req->browser->retry(req);
      return;
    }
    w.webapp_cpu->submit(w.servlet_cpu(req->prof->app_cpu_ms),
                         [&w, req](bool) {
                           req->queries_left = req->prof->db_queries;
                           req->write_pending = req->prof->db_write;
                           db_stage(w, req);
                         });
  });
}

/// Static path on a proxy miss: HTTP connector held across the file serve.
void static_stage(World& w, Request* req) {
  w.http_pool->acquire([&w, req](bool granted) {
    if (!granted) {
      req->browser->retry(req);
      return;
    }
    w.webapp_cpu->submit(w.static_serve_cpu(req->prof->object_kb),
                         [&w, req](bool) {
                           w.http_pool->release();
                           w.sim.schedule(
                               profile::kNetworkRttMs * kMsToSec,
                               [req] { req->browser->complete(req); });
                         });
  });
}

void issue(World& w, Request* req) {
  Browser* browser = req->browser;
  const bool is_static =
      browser->rng().bernoulli(req->prof->static_fraction);
  if (is_static && w.measuring()) ++w.static_requests;

  const bool cache_hit =
      is_static && browser->rng().bernoulli(w.cache_hit_prob);
  if (cache_hit && w.measuring()) ++w.cache_hits;

  const double proxy_ms =
      cache_hit ? profile::kProxyHitMs : profile::kProxyForwardMs;
  w.proxy_cpu->submit(proxy_ms * kMsToSec,
                      [&w, req, is_static, cache_hit](bool) {
                        if (cache_hit) {
                          req->browser->complete(req);
                        } else if (is_static) {
                          static_stage(w, req);
                        } else {
                          dynamic_stage(w, req);
                        }
                      });
}

}  // namespace

SimMetrics simulate_cluster(const ClusterConfig& config,
                            const SimOptions& options) {
  HARMONY_REQUIRE(options.emulated_browsers > 0, "need browsers");
  HARMONY_REQUIRE(options.measure_s > 0.0, "need a measurement window");

  World w(config, options);
  const auto n_browsers = static_cast<std::size_t>(options.emulated_browsers);
  // Pending events scale with concurrent browsers (each holds a handful of
  // in-flight timers/service completions at once).
  w.sim.reserve_events(n_browsers * 8);
  // Each browser has at most one in-flight request, so pre-sizing every
  // per-run pool to the browser count caps all of them for the whole run —
  // after warm-up the simulation performs no heap allocation at all
  // (tests/websim/alloc_count_test.cpp holds this to zero).
  w.requests.reserve(n_browsers);
  w.latencies_ms.reserve(
      static_cast<std::size_t>(2.0 * options.measure_s *
                               static_cast<double>(options.emulated_browsers) /
                               profile::kThinkTimeMeanSec) +
      64);
  w.cache.min_object_kb = config.proxy_min_object_kb;
  w.cache.max_object_kb = config.proxy_max_object_kb;
  w.cache.cache_mb = config.proxy_cache_mb;
  w.precompute_run_constants();

  w.proxy_cpu = std::make_unique<ServiceStation>(
      w.sim, "proxy-cpu", profile::kCpusPerBox, profile::kCpuQueue);
  w.webapp_cpu = std::make_unique<ServiceStation>(
      w.sim, "webapp-cpu", profile::kCpusPerBox, profile::kCpuQueue);
  w.http_pool = std::make_unique<ResourcePool>(
      w.sim, "http", profile::kHttpWorkers,
      std::max(0, config.http_accept_count));
  w.ajp_pool = std::make_unique<ResourcePool>(
      w.sim, "ajp", std::max(1, config.ajp_max_processors),
      std::max(0, config.ajp_accept_count));
  w.db_conns = std::make_unique<ResourcePool>(
      w.sim, "db", std::max(1, config.mysql_max_connections),
      profile::kDbWaitQueue);
  w.db_engine = std::make_unique<ServiceStation>(
      w.sim, "db-engine", profile::kDbEngineWays, profile::kCpuQueue);
  for (ServiceStation* s : {w.proxy_cpu.get(), w.webapp_cpu.get(),
                            w.db_engine.get()}) {
    s->reserve_queue(n_browsers + 1);
  }
  for (ResourcePool* p : {w.http_pool.get(), w.ajp_pool.get(),
                          w.db_conns.get()}) {
    p->reserve_queue(n_browsers + 1);
  }

  std::vector<Browser> browsers;
  browsers.reserve(n_browsers);
  for (int i = 0; i < options.emulated_browsers; ++i) {
    browsers.emplace_back(w);
    browsers.back().start(w.rng.uniform(0.0, 1.0));
  }

  if (options.window_hook != nullptr) {
    auto* hook = options.window_hook;
    void* ctx = options.window_hook_ctx;
    w.sim.schedule_at(options.warmup_s, [hook, ctx] { hook(ctx, true); });
    w.sim.schedule_at(options.warmup_s + options.measure_s,
                      [hook, ctx] { hook(ctx, false); });
  }

  w.sim.run_until(options.warmup_s + options.measure_s);

  SimMetrics m;
  m.completed = w.completed;
  m.dropped = w.dropped;
  m.wips = static_cast<double>(w.completed) / options.measure_s;
  m.wips_browse = static_cast<double>(w.completed_browse) / options.measure_s;
  m.wips_order = static_cast<double>(w.completed_order) / options.measure_s;
  if (!w.latencies_ms.empty()) {
    m.mean_latency_ms = mean(w.latencies_ms);
    // Last use of the sample: hand it over rather than copy it.
    m.p95_latency_ms = percentile(std::move(w.latencies_ms), 95.0);
  }
  if (w.attempts > 0) {
    m.drop_rate =
        static_cast<double>(w.dropped) / static_cast<double>(w.attempts);
  }
  if (w.static_requests > 0) {
    m.cache_hit_rate = static_cast<double>(w.cache_hits) /
                       static_cast<double>(w.static_requests);
  }
  m.events = w.sim.executed_events();

  const double horizon = options.warmup_s + options.measure_s;
  m.proxy_cpu_utilization =
      w.proxy_cpu->stats().utilization(horizon, profile::kCpusPerBox);
  m.webapp_cpu_utilization =
      w.webapp_cpu->stats().utilization(horizon, profile::kCpusPerBox);
  m.db_engine_utilization =
      w.db_engine->stats().utilization(horizon, profile::kDbEngineWays);
  const auto pool_mean_wait_ms = [](const ResourcePool& pool) {
    const auto& s = pool.stats();
    return s.grants == 0
               ? 0.0
               : 1e3 * s.total_wait / static_cast<double>(s.grants);
  };
  m.ajp_mean_wait_ms = pool_mean_wait_ms(*w.ajp_pool);
  m.db_conn_mean_wait_ms = pool_mean_wait_ms(*w.db_conns);
  m.http_rejects = w.http_pool->stats().rejects;
  m.ajp_rejects = w.ajp_pool->stats().rejects;
  return m;
}

ClusterObjective::ClusterObjective(SimOptions base)
    : base_(base), seed_stream_(base.seed) {}

void ClusterObjective::pin_seed(std::uint64_t seed) noexcept {
  pinned_ = true;
  base_.seed = seed;
}

double ClusterObjective::measure(const Configuration& config) {
  SimOptions opts = base_;
  if (!pinned_) opts.seed = seed_stream_();
  last_ = simulate_cluster(ClusterConfig::from_configuration(config), opts);
  return last_.wips;
}

void ClusterObjective::measure_batch(std::span<const Configuration> configs,
                                     std::span<double> out) {
  HARMONY_REQUIRE(configs.size() == out.size(),
                  "measure_batch size mismatch");
  if (configs.empty()) return;
  std::vector<std::uint64_t> seeds(configs.size(), base_.seed);
  if (!pinned_) {
    for (auto& s : seeds) s = seed_stream_();
  }
  SimMetrics last;
  parallel_for(configs.size(), [&](std::size_t i) {
    SimOptions opts = base_;
    opts.seed = seeds[i];
    const SimMetrics m =
        simulate_cluster(ClusterConfig::from_configuration(configs[i]), opts);
    out[i] = m.wips;
    if (i + 1 == configs.size()) last = m;
  });
  last_ = last;  // same "most recent measurement" the serial loop leaves
}

}  // namespace harmony::websim
