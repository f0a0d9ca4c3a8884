// Objective abstraction: everything the tuner can observe about the system
// being tuned is a (configuration -> measured performance) mapping. Higher
// is better throughout (the paper's metric is WIPS).
//
// Adapters compose cross-cutting behaviours: measurement noise (the paper's
// 0–25 % uniform perturbation), evaluation counting/tracing, memoization and
// sub-space projection for top-n tuning.
//
// Batch evaluation contract: measure_batch must produce exactly the values a
// serial measure() loop over the batch (in index order) would — overrides
// may reorder or parallelize the *work*, never the observable results. The
// adapters keep the contract by drawing any internal random state serially
// in index order before fanning out, which is what makes the parallel
// runtime bit-identical at every HARMONY_THREADS setting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/parameter.hpp"
#include "util/rng.hpp"

namespace harmony {

/// FNV-1a over the raw value bits of a Configuration. Exposed so other
/// config-keyed containers (the history DB, result caches) can share it.
struct ConfigurationHash {
  [[nodiscard]] std::size_t operator()(
      const Configuration& config) const noexcept;
};

/// Terminal status of one measurement attempt. A live measurement is a real
/// system run that can hang, crash or answer with garbage; the fallible
/// measurement path (Objective::try_measure*) reports which happened instead
/// of assuming success.
enum class MeasurementStatus : std::uint8_t {
  kOk = 0,   ///< value holds a real measurement
  kTimeout,  ///< the run did not answer within its deadline
  kError,    ///< the run crashed, exited nonzero, or threw
  kInvalid,  ///< the run answered, but with garbage (NaN)
};

/// Result of one fallible measurement attempt. `value` is meaningful only
/// when ok(); `message` optionally carries a diagnostic for failures.
struct MeasurementOutcome {
  double value = 0.0;
  MeasurementStatus status = MeasurementStatus::kOk;
  std::string message;

  [[nodiscard]] bool ok() const noexcept {
    return status == MeasurementStatus::kOk;
  }
  [[nodiscard]] static MeasurementOutcome measured(double value) {
    return {value, MeasurementStatus::kOk, {}};
  }
  [[nodiscard]] static MeasurementOutcome timed_out(std::string msg = {}) {
    return {0.0, MeasurementStatus::kTimeout, std::move(msg)};
  }
  [[nodiscard]] static MeasurementOutcome failed(std::string msg = {}) {
    return {0.0, MeasurementStatus::kError, std::move(msg)};
  }
  [[nodiscard]] static MeasurementOutcome invalid(std::string msg = {}) {
    return {0.0, MeasurementStatus::kInvalid, std::move(msg)};
  }
};

/// Interface to the system being tuned.
class Objective {
 public:
  virtual ~Objective() = default;
  /// Measures the performance of one configuration. Implementations may be
  /// stochastic (live systems are); the tuner never assumes repeatability.
  [[nodiscard]] virtual double measure(const Configuration& config) = 0;
  /// Measures configs[i] into out[i] for every i (sizes must match). The
  /// default is the serial loop; overrides may parallelize but must return
  /// the exact values the serial loop would (see the contract above).
  virtual void measure_batch(std::span<const Configuration> configs,
                             std::span<double> out);
  /// Convenience wrapper around measure_batch.
  [[nodiscard]] std::vector<double> measure_all(
      std::span<const Configuration> configs);
  /// Fallible form of measure(): reports timeouts / crashes / garbage as a
  /// MeasurementOutcome instead of assuming success. The default wraps the
  /// infallible path — a thrown harmony::Error becomes kError and a NaN
  /// return becomes kInvalid — so every existing objective is usable on the
  /// fault-tolerant path unchanged. Objectives that can observe failures
  /// directly (external commands, live protocols) should override.
  [[nodiscard]] virtual MeasurementOutcome try_measure(
      const Configuration& config);
  /// Fallible form of measure_batch, same index-order contract. The default
  /// routes values through measure_batch (keeping any parallel fan-out an
  /// override provides); since the infallible batch cannot attribute a
  /// thrown error to one item, an exception marks the whole batch kError —
  /// objectives with per-item failure knowledge should override.
  virtual void try_measure_batch(std::span<const Configuration> configs,
                                 std::span<MeasurementOutcome> out);
  /// Name of the performance metric, for reports ("WIPS", "throughput", ...).
  [[nodiscard]] virtual std::string metric_name() const {
    return "performance";
  }
};

/// Retry/backoff policy for fallible measurements. The defaults describe
/// the legacy infallible contract (one attempt, nothing tolerated), so a
/// default-constructed policy leaves every existing code path — and its
/// bit-exact results — untouched; enabled() gates the fault-tolerant path.
struct RetryPolicy {
  /// Total attempts per measurement (>= 1); 1 means no retries.
  int max_attempts = 1;
  /// Wall-clock budget for one measurement including its retries, in
  /// milliseconds; once exceeded no further retry is issued. Infinite by
  /// default — a finite deadline trades determinism (whether a retry
  /// happens depends on timing) for boundedness, so tests keep it infinite.
  double deadline_ms = std::numeric_limits<double>::infinity();
  /// First retry delay in milliseconds (0 = retry immediately). Each
  /// further retry multiplies the delay by backoff_multiplier.
  double backoff_initial_ms = 0.0;
  double backoff_multiplier = 2.0;
  /// Jitter fraction in [0, 1): each delay is scaled by a factor drawn
  /// uniformly from [1 - jitter, 1 + jitter]. The draw is a pure function
  /// of (seed, configuration, attempt) — deterministic regardless of thread
  /// interleaving, unlike clock- or rand()-based jitter.
  double backoff_jitter = 0.0;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// Value substituted for a measurement whose retries were exhausted: a
  /// censored worst-case penalty. Finite (not -inf) so the simplex keeps
  /// valid geometry — the vertex sorts worst and is reflected away from,
  /// exactly how Nelder-Mead treats a genuinely terrible configuration.
  double censored_value = -1.0e30;
  /// Master switch for the fault-tolerant path when max_attempts == 1:
  /// failures are still censored instead of thrown, just never retried.
  bool tolerate_failures = false;

  [[nodiscard]] bool enabled() const noexcept {
    return tolerate_failures || max_attempts > 1;
  }
  /// Deterministic backoff delay before `attempt` (2-based: the wait
  /// between attempt N-1 and attempt N) of measuring `config`.
  [[nodiscard]] double backoff_ms(const Configuration& config,
                                  int attempt) const;
};

/// Accounting of fallible measurements driven through a RetryPolicy.
/// Invariant: attempts == successes + retries + exhausted (every attempt
/// either produced the value, was followed by another attempt, or ended the
/// measurement censored), and retries + successes' failures split into the
/// per-kind counters: timeouts + errors + invalids == attempts - successes.
struct RetryStats {
  std::size_t attempts = 0;   ///< try_measure calls issued
  std::size_t successes = 0;  ///< measurements that produced a value
  std::size_t retries = 0;    ///< failed attempts that were retried
  std::size_t exhausted = 0;  ///< measurements censored after the last attempt
  std::size_t timeouts = 0;   ///< failed attempts by kind
  std::size_t errors = 0;
  std::size_t invalids = 0;

  void merge(const RetryStats& other) noexcept;
  [[nodiscard]] bool operator==(const RetryStats&) const noexcept = default;
};

/// Measures one configuration under `policy`: up to max_attempts tries with
/// deterministic backoff, accounting into `stats`. Returns the first ok
/// outcome, or the last failure once attempts/deadline are exhausted (the
/// caller maps that to policy.censored_value).
[[nodiscard]] MeasurementOutcome measure_with_retry(Objective& objective,
                                                    const Configuration& config,
                                                    const RetryPolicy& policy,
                                                    RetryStats& stats);

/// Batch form: one try_measure_batch over the whole batch, then retry
/// rounds over the still-failing subset (index order) until every item
/// succeeded or the policy is exhausted. Exhausted items get
/// policy.censored_value in out[i] and, when `censored` is non-null, a 1 in
/// (*censored)[i] (resized to the batch). Bit-identical at any thread count
/// for objectives honouring the batch contract: the retry rounds are a pure
/// function of the outcomes, never of timing.
void measure_batch_with_retry(Objective& objective,
                              std::span<const Configuration> configs,
                              const RetryPolicy& policy, std::span<double> out,
                              std::vector<std::uint8_t>* censored,
                              RetryStats& stats);

/// Wraps a callable as an Objective. Pass concurrent = true when the
/// callable is a pure function safe to invoke from several threads at once;
/// batches then fan out across the global thread pool.
class FunctionObjective final : public Objective {
 public:
  using Fn = std::function<double(const Configuration&)>;
  explicit FunctionObjective(Fn fn, std::string metric = "performance",
                             bool concurrent = false);
  double measure(const Configuration& config) override { return fn_(config); }
  void measure_batch(std::span<const Configuration> configs,
                     std::span<double> out) override;
  /// Items are independent callable invocations, so a failure is attributed
  /// to its own item — one crashing configuration never poisons the batch.
  void try_measure_batch(std::span<const Configuration> configs,
                         std::span<MeasurementOutcome> out) override;
  std::string metric_name() const override { return metric_; }

 private:
  Fn fn_;
  std::string metric_;
  bool concurrent_;
};

/// Multiplies the wrapped measurement by U(1-p, 1+p): the paper's synthetic
/// "perturbation" model for run-to-run variation (§5.2).
class PerturbedObjective final : public Objective {
 public:
  /// p in [0, 1): e.g. 0.25 for the paper's ±25 % case.
  PerturbedObjective(Objective& inner, double perturbation, Rng rng);
  double measure(const Configuration& config) override;
  /// Draws the perturbation factors serially in index order (same stream as
  /// the serial loop), then delegates the batch to the inner objective.
  void measure_batch(std::span<const Configuration> configs,
                     std::span<double> out) override;
  std::string metric_name() const override { return inner_.metric_name(); }

 private:
  Objective& inner_;
  double perturbation_;
  Rng rng_;
};

/// Counts measurements and records the full (config, value) trace in
/// measurement order — the tuner's "iterations".
class RecordingObjective final : public Objective {
 public:
  struct Sample {
    Configuration config;
    double value;
  };

  explicit RecordingObjective(Objective& inner) : inner_(inner) {}
  double measure(const Configuration& config) override;
  /// Delegates to the inner batch, then appends samples in index order.
  void measure_batch(std::span<const Configuration> configs,
                     std::span<double> out) override;
  std::string metric_name() const override { return inner_.metric_name(); }

  [[nodiscard]] std::size_t count() const noexcept { return trace_.size(); }
  [[nodiscard]] const std::vector<Sample>& trace() const noexcept {
    return trace_;
  }
  void clear() noexcept { trace_.clear(); }

 private:
  Objective& inner_;
  std::vector<Sample> trace_;
};

/// Memoizes measurements per exact configuration. Useful for deterministic
/// objectives (synthetic rules without noise) and for tests; a live system
/// would not use this since repeated measurements carry information.
class CachingObjective final : public Objective {
 public:
  /// Counter snapshot: hits (measurements answered from the cache), misses
  /// (forwarded to the inner objective) and inserts (entries added — equals
  /// misses unless an external path ever pre-seeds the cache).
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t inserts = 0;
  };

  explicit CachingObjective(Objective& inner)
      : CachingObjective(inner, kDefaultExpectedEvaluations) {}

  /// `expected_evaluations` pre-sizes the bucket array so the table never
  /// rehashes (and never invalidates iterators mid-batch) until the cache
  /// outgrows the hint — pass the tuning budget when it is known.
  CachingObjective(Objective& inner, std::size_t expected_evaluations)
      : inner_(inner) {
    cache_.reserve(std::max<std::size_t>(expected_evaluations, 1));
  }
  double measure(const Configuration& config) override;
  /// Resolves hits from the cache, batches the unique misses through the
  /// inner objective (first-occurrence order, matching the serial loop —
  /// a duplicate within the batch counts as a hit, as it would serially).
  void measure_batch(std::span<const Configuration> configs,
                     std::span<double> out) override;
  std::string metric_name() const override { return inner_.metric_name(); }
  [[nodiscard]] std::size_t hits() const noexcept { return stats_.hits; }
  [[nodiscard]] std::size_t misses() const noexcept { return stats_.misses; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t size() const noexcept { return cache_.size(); }

 private:
  // A tuning run re-measures a few hundred configurations at most.
  static constexpr std::size_t kDefaultExpectedEvaluations = 256;

  Objective& inner_;
  std::unordered_map<Configuration, double, ConfigurationHash> cache_;
  Stats stats_;
};

/// Projects a sub-space configuration into the full space: kept parameters
/// come from the sub-configuration, the rest stay at the base configuration
/// (their defaults, for the paper's top-n experiments).
class SubspaceObjective final : public Objective {
 public:
  SubspaceObjective(Objective& inner, Configuration base,
                    std::vector<std::size_t> kept_indices);
  double measure(const Configuration& sub_config) override;
  /// Expands every sub-configuration, then delegates the batch.
  void measure_batch(std::span<const Configuration> configs,
                     std::span<double> out) override;
  std::string metric_name() const override { return inner_.metric_name(); }

  /// Expands a sub-configuration to a full configuration.
  [[nodiscard]] Configuration expand(const Configuration& sub_config) const;

 private:
  Objective& inner_;
  Configuration base_;
  std::vector<std::size_t> kept_;
};

}  // namespace harmony
