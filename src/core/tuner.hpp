// TuningSession — the Adaptation Controller of the Harmony server.
//
// Drives a search kernel (the simplex by default; any registered
// SearchStrategy via TuningOptions::search) against a live Objective,
// records every
// exploration (one "iteration" per measured configuration, matching the
// paper's reporting unit), and supports the paper's improvements:
//   * pluggable initial-simplex strategy (§4.1),
//   * warm start from historical measurements, optionally substituting
//     triangulation estimates for the training measurements (§4.2/§4.3),
//   * tuning a top-n sub-space chosen by the prioritizing tool (§3).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/objective.hpp"
#include "core/parameter.hpp"
#include "core/search_kernels.hpp"
#include "core/simplex.hpp"
#include "core/strategies.hpp"

namespace harmony {

/// One recorded exploration.
struct Measurement {
  Configuration config;
  double performance = 0.0;
  /// True when the value came from history/estimation rather than a live
  /// measurement (training-stage entries).
  bool estimated = false;
  /// True when the measurement exhausted its retries and `performance` is
  /// the policy's censored worst-case penalty, not an observed value.
  bool censored = false;
};

struct TuningOptions {
  SimplexOptions simplex;
  /// Which search kernel drives the session ("simplex" by default) plus its
  /// per-kernel knobs. The shared knobs — budget, censoring threshold — live
  /// in `simplex` above and apply to every kernel.
  SearchSpec search;
  /// Strategy used when no warm-start seeds are provided. Defaults to the
  /// paper's improved even-spread refinement; benches switch to
  /// ExtremeCornerStrategy to reproduce the original behaviour.
  std::shared_ptr<const InitialSimplexStrategy> strategy =
      std::make_shared<EvenSpreadStrategy>();
  /// Speculative frontier evaluation: on a cache miss the session measures
  /// the kernel's whole candidate frontier (SearchStrategy::frontier) in one
  /// batch — fanning out across the thread pool when the objective supports
  /// it — and keeps the values for later steps. Trajectories stay
  /// bit-identical to the serial session for deterministic objectives:
  /// speculation changes *when* measurements happen, never *which* values
  /// the search consumes. Stochastic objectives draw their noise in
  /// frontier order, so their traces differ from the serial session (but
  /// stay thread-count invariant under the measure_batch contract).
  bool speculative = false;
  /// Fault tolerance: when `retry.enabled()`, measurements go through the
  /// fallible path (Objective::try_measure / try_measure_batch) with the
  /// policy's retry rounds, exhausted measurements enter the kernel as the
  /// censored penalty (flagged in the trace), and the simplex suspends
  /// perf-spread convergence while its worst vertex is censored (the
  /// policy's censored_value is injected as SimplexOptions::
  /// censored_threshold unless one was set explicitly). The default
  /// (disabled) policy runs the legacy infallible path bit-exactly.
  RetryPolicy retry;
};

/// Accounting of one speculative run (zeroes when speculation is off).
struct SpeculationStats {
  std::size_t batches = 0;     ///< frontier measure_batch calls issued
  std::size_t measured = 0;    ///< configurations measured live
  std::size_t consumed = 0;    ///< values submitted to the kernel
  std::size_t cache_hits = 0;  ///< submits served without a new batch
  std::size_t wasted = 0;      ///< measured configurations never consumed
  /// Fraction of kernel steps served from already-measured values.
  [[nodiscard]] double hit_rate() const noexcept {
    return consumed == 0 ? 0.0
                         : static_cast<double>(cache_hits) /
                               static_cast<double>(consumed);
  }
  /// Fraction of live measurements the trajectory never consumed.
  [[nodiscard]] double waste_rate() const noexcept {
    return measured == 0 ? 0.0
                         : static_cast<double>(wasted) /
                               static_cast<double>(measured);
  }
};

struct TuningResult {
  std::vector<Measurement> trace;  ///< consumed explorations, in order
  Configuration best_config;
  double best_performance = 0.0;
  int evaluations = 0;   ///< live measurements (== trace.size())
  bool converged = false;
  std::string stop_reason;
  SpeculationStats speculation;  ///< frontier accounting (speculative runs)
  RetryStats retry;  ///< fault-path accounting (zeroes when retry disabled)
};

/// A planned §4.2 warm start: the initial vertices, the performance
/// pre-supplied for each of them (NaN = measure live) and the non-censored
/// prior-run history for kernels that model-seed from it.
struct WarmStart {
  std::vector<Configuration> vertices;
  std::vector<double> values;
  std::vector<std::pair<Configuration, double>> history;
};

/// Plans a warm start from a retrieved prior run: the best distinct
/// configurations of `history` (best first, snapped) seed the initial
/// vertices, SeededStrategy fills any remainder around the best one.
/// `use_recorded_values` pre-supplies the seeds' recorded performances
/// instead of re-measuring them; `estimate_missing` (with at least two
/// history entries) gives every vertex still unvalued the §4.3
/// triangulation estimate fitted over the whole history. An empty history
/// plans nothing (empty vertices).
[[nodiscard]] WarmStart plan_warm_start(const ParameterSpace& space,
                                        const Configuration& start,
                                        const std::vector<Measurement>& history,
                                        bool use_recorded_values,
                                        bool estimate_missing);

/// Builds the search kernel a session runs: `spec`'s kernel over the
/// planned vertices, values and history, with the session's retry-aware
/// effective simplex options.
[[nodiscard]] std::unique_ptr<SearchStrategy> make_session_kernel(
    const TuningOptions& opts, const SearchSpec& spec,
    const ParameterSpace& space, WarmStart plan);

class TuningSession {
 public:
  /// The objective must outlive the session.
  TuningSession(const ParameterSpace& space, Objective& objective,
                TuningOptions options = {});

  /// Warm start (training stage, plan_warm_start): the initial simplex is
  /// seeded from the best configurations of `history` — typically the run
  /// the data analyzer classified. When `use_recorded_values` is true, their
  /// recorded performances are fed to the kernel instead of re-measuring
  /// (the paper's "save time by not retrying those configurations again");
  /// otherwise the seeds are re-measured live.
  ///
  /// When `estimate_missing` is also true, initial vertices that the
  /// history does not cover (the filler vertices a short history needs) get
  /// their value from the §4.3 triangulation estimator fitted over the full
  /// history, instead of a live measurement — the paper's answer to "what
  /// to do when the configurations needed for training are not available".
  void seed(const std::vector<Measurement>& history, bool use_recorded_values,
            bool estimate_missing = false);

  /// Starting configuration for strategies that use it (defaults to the
  /// space's default configuration).
  void set_start(Configuration start);

  /// Runs the tuning process to convergence or budget exhaustion: one
  /// peek -> measure -> report loop for every TuningOptions mode.
  [[nodiscard]] TuningResult run();

 private:
  const ParameterSpace& space_;
  Objective& objective_;
  TuningOptions opts_;
  Configuration start_;
  std::vector<Measurement> seed_history_;  // warm-start input; empty = cold
  bool use_recorded_values_ = false;
  bool estimate_missing_ = false;
};

/// Summary statistics over a tuning trace, matching the paper's Tables 1-2
/// columns. `final_best` is the best performance the run reached.
struct TraceMetrics {
  /// First iteration (1-based) whose measurement reaches
  /// `convergence_fraction` of the final best — "convergence time".
  int convergence_iteration = 0;
  double best = 0.0;
  /// Worst performance seen while tuning (Table 1's oscillation indicator).
  double worst = 0.0;
  /// Mean/stddev of the first `initial_window` live measurements
  /// (Table 2's "initial performance oscillation").
  double initial_mean = 0.0;
  double initial_stddev = 0.0;
  /// Iterations with performance below `bad_fraction` of the final best.
  int bad_iterations = 0;
};

struct TraceMetricsOptions {
  double convergence_fraction = 0.95;
  double bad_fraction = 0.80;
  int initial_window = 20;
};

[[nodiscard]] TraceMetrics analyze_trace(const std::vector<Measurement>& trace,
                                         TraceMetricsOptions options = {});

}  // namespace harmony
