#include "core/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "core/estimator.hpp"
#include "core/parallel_eval.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace harmony {

WarmStart plan_warm_start(const ParameterSpace& space,
                          const Configuration& start,
                          const std::vector<Measurement>& history,
                          bool use_recorded_values, bool estimate_missing) {
  WarmStart plan;
  if (history.empty()) return plan;
  // The best-performing distinct configurations, best first (earlier
  // entries first on ties).
  std::vector<std::size_t> order(history.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return history[a].performance > history[b].performance;
                   });
  std::vector<Configuration> seeds;
  std::vector<double> seed_values;
  const std::size_t want = space.size() + 1;
  for (const std::size_t i : order) {
    Configuration c = space.snap(history[i].config);
    if (std::find(seeds.begin(), seeds.end(), c) != seeds.end()) continue;
    seeds.push_back(std::move(c));
    seed_values.push_back(history[i].performance);
    if (seeds.size() == want) break;
  }

  plan.vertices = SeededStrategy(seeds).vertices(space, start);
  // SeededStrategy may append filler vertices; those are measured live.
  plan.values.assign(plan.vertices.size(),
                     std::numeric_limits<double>::quiet_NaN());
  if (use_recorded_values) {
    for (std::size_t i = 0; i < seeds.size() && i < plan.values.size(); ++i) {
      if (plan.vertices[i] == seeds[i]) plan.values[i] = seed_values[i];
    }
  }
  if (estimate_missing && history.size() >= 2) {
    // Fill the still-unvalued vertices by triangulation over the history
    // (§4.3) instead of spending live measurements on them.
    PerformanceEstimator estimator(space);
    estimator.add_all(history);
    for (std::size_t i = 0; i < plan.values.size(); ++i) {
      if (std::isnan(plan.values[i])) {
        plan.values[i] = estimator.estimate(plan.vertices[i]).value;
      }
    }
  }
  // Censored entries are penalties, not observations: they stay out of the
  // model-seeding history.
  plan.history.reserve(history.size());
  for (const Measurement& m : history) {
    if (!m.censored) plan.history.emplace_back(m.config, m.performance);
  }
  return plan;
}

std::unique_ptr<SearchStrategy> make_session_kernel(
    const TuningOptions& opts, const SearchSpec& spec,
    const ParameterSpace& space, WarmStart plan) {
  // The effective options: a retry-enabled session marks the policy's
  // censored penalty as the censoring threshold unless one was pinned.
  SimplexOptions so = opts.simplex;
  if (opts.retry.enabled() &&
      so.censored_threshold == -std::numeric_limits<double>::infinity()) {
    so.censored_threshold = opts.retry.censored_value;
  }
  return make_search_kernel(spec, space, so, std::move(plan.vertices),
                            std::move(plan.values), plan.history);
}

TuningSession::TuningSession(const ParameterSpace& space, Objective& objective,
                             TuningOptions options)
    : space_(space), objective_(objective), opts_(std::move(options)) {
  HARMONY_REQUIRE(!space_.empty(), "empty parameter space");
  HARMONY_REQUIRE(opts_.strategy != nullptr, "null initial-simplex strategy");
  start_ = space_.defaults();
}

void TuningSession::set_start(Configuration start) {
  start_ = space_.snap(std::move(start));
}

void TuningSession::seed(const std::vector<Measurement>& history,
                         bool use_recorded_values, bool estimate_missing) {
  seed_history_ = history;
  use_recorded_values_ = use_recorded_values;
  estimate_missing_ = estimate_missing;
}

TuningResult TuningSession::run() {
  WarmStart plan =
      seed_history_.empty()
          ? WarmStart{opts_.strategy->vertices(space_, start_), {}, {}}
          : plan_warm_start(space_, start_, seed_history_,
                            use_recorded_values_, estimate_missing_);
  std::unique_ptr<SearchStrategy> kernel =
      make_session_kernel(opts_, opts_.search, space_, std::move(plan));
  // A disabled retry policy measures through the infallible batch path,
  // one attempt each; an enabled one retries and censors exhausted values.
  ParallelEvaluator evaluator(objective_, opts_.retry);

  // Every live measurement lands in this cache keyed by its snapped
  // configuration, and the kernel's requests are served from it. A serial
  // session measures only the pending configuration and drops the entry
  // once consumed, so a repeated request is measured live again. A
  // speculative one measures the frontier on each miss and keeps every
  // entry: one the trajectory never consumes was wasted speculation.
  struct CacheEntry {
    double value = 0.0;
    bool consumed = false;
    bool censored = false;
  };
  std::unordered_map<Configuration, CacheEntry, ConfigurationHash> cache;
  const auto budget = static_cast<std::size_t>(opts_.simplex.max_evaluations);
  if (opts_.speculative) cache.reserve(4 * budget);

  TuningResult out;
  out.trace.reserve(budget);
  SpeculationStats stats;

  std::vector<Configuration> to_measure;
  std::vector<double> values;
  std::vector<std::uint8_t> censored_flags;
  std::vector<std::uint8_t>* const censored =
      opts_.retry.enabled() ? &censored_flags : nullptr;
  while (const Configuration* c = kernel->peek()) {
    auto it = cache.find(*c);
    if (it == cache.end()) {
      to_measure.clear();
      if (opts_.speculative) {
        // The pending configuration leads the frontier, so it is always
        // covered even after the budget bound truncates the tail: the
        // kernel asks for at most budget - evaluations more values, and
        // measuring beyond that could only ever be waste.
        for (Configuration& f : kernel->frontier()) {
          if (cache.find(f) == cache.end()) to_measure.push_back(std::move(f));
        }
        const auto evals = static_cast<std::size_t>(kernel->evaluations());
        const std::size_t remaining = budget > evals ? budget - evals : 1;
        if (to_measure.size() > remaining) to_measure.resize(remaining);
      } else {
        to_measure.push_back(*c);
      }
      values.resize(to_measure.size());
      evaluator.evaluate_into(to_measure, values, censored);
      ++stats.batches;
      stats.measured += to_measure.size();
      for (std::size_t i = 0; i < to_measure.size(); ++i) {
        cache.emplace(
            std::move(to_measure[i]),
            CacheEntry{values[i], false,
                       censored != nullptr && censored_flags[i] != 0});
      }
      it = cache.find(*c);
    } else {
      ++stats.cache_hits;
    }
    const double v = it->second.value;
    out.trace.push_back({*c, v, /*estimated=*/false, it->second.censored});
    ++stats.consumed;
    if (opts_.speculative) {
      it->second.consumed = true;
    } else {
      cache.erase(it);
    }
    kernel->report(v);
  }
  if (opts_.speculative) {
    for (const auto& [config, entry] : cache) {
      if (!entry.consumed) ++stats.wasted;
    }
    out.speculation = stats;
  }
  out.retry = evaluator.retry_stats();

  const SearchResult& sr = kernel->result();
  out.best_config = sr.best;
  out.best_performance = sr.best_value;
  out.evaluations = sr.evaluations;
  out.converged = sr.converged;
  out.stop_reason = sr.stop_reason;
  return out;
}

TraceMetrics analyze_trace(const std::vector<Measurement>& trace,
                           TraceMetricsOptions options) {
  TraceMetrics m;
  if (trace.empty()) return m;

  double best = -std::numeric_limits<double>::infinity();
  double worst = std::numeric_limits<double>::infinity();
  for (const auto& s : trace) {
    best = std::max(best, s.performance);
    worst = std::min(worst, s.performance);
  }
  m.best = best;
  m.worst = worst;

  const double threshold = options.convergence_fraction * best;
  m.convergence_iteration = static_cast<int>(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].performance >= threshold) {
      m.convergence_iteration = static_cast<int>(i) + 1;
      break;
    }
  }

  RunningStats initial;
  const auto window = static_cast<std::size_t>(
      std::max(1, options.initial_window));
  for (std::size_t i = 0; i < trace.size() && i < window; ++i) {
    initial.add(trace[i].performance);
  }
  m.initial_mean = initial.mean();
  m.initial_stddev = initial.stddev();

  const double bad = options.bad_fraction * best;
  for (const auto& s : trace) {
    if (s.performance < bad) ++m.bad_iterations;
  }
  return m;
}

}  // namespace harmony
