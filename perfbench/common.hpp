// Shared pieces of the perfbench binary: workload definitions, the
// client-side objective, history generation, raw-sample statistics, the
// in-memory span recorder and a flat JSON object writer.
//
// Everything here is a pure function of the workload seed, so the server
// process, the load generator and the in-process replay derive the same
// families, prior records and session scripts independently.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "core/parameter.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- workloads --------------------------------------------------------------

/// One served workload: what the server is configured with and what each
/// client session sends. Every option is explicit here; nothing relies on a
/// library or daemon default.
struct ServedSpec {
  std::size_t prior_records = 0;   ///< history preloaded into the store
  int params = 4;                  ///< int parameters per session, grid [0,20]
  int budget = 40;                 ///< SimplexOptions::max_evaluations
  bool signature = true;           ///< session sends SIGNATURE
  bool binary = true;              ///< binary framing (else text)
  bool record = true;              ///< experience write-back
  std::size_t snapshot_every = 0;  ///< StoreOptions::snapshot_every_records
};

/// The served workload called `name`; throws on an unknown name.
[[nodiscard]] ServedSpec served_spec(const std::string& name);

/// Server dispatch pool size and client connection count (closed loop).
inline constexpr unsigned kServerThreads = 2;
inline constexpr int kConnections = 4;
/// Signature arity and workload family count of the served history.
inline constexpr std::size_t kSigDims = 8;
inline constexpr std::size_t kFamilies = 32;
/// Measurements stored per prior record.
inline constexpr std::size_t kPriorMeasurements = 5;

/// A workload family: a signature centre and an optimum on the int grid.
struct Family {
  harmony::WorkloadSignature center;  ///< kSigDims coordinates in [0, 1)
  std::vector<double> optimum;        ///< 8 grid coordinates in [2, 18]
};

/// The workload's fixed family set. Families are part of the workload
/// definition, not of its seed: the seed draws the history and the session
/// scripts over them, so retrieval cost and tuning difficulty do not
/// change with the seed's family geometry.
[[nodiscard]] std::vector<Family> make_families();

/// The family-specific paraboloid the client measures: 100 at the optimum,
/// 80 (the analyze_trace "bad" line) at squared distance 12.5. Always > 0.
[[nodiscard]] double family_perf(const Family& f,
                                 const harmony::Configuration& c);

[[nodiscard]] std::string family_label(std::size_t family);
[[nodiscard]] std::string make_rsl(int params);

/// Prior record `i` of the served history: a signature near its family's
/// centre and kPriorMeasurements configurations near its optimum, with the
/// values the family paraboloid gives them.
[[nodiscard]] harmony::ExperienceRecord prior_record(
    const std::vector<Family>& families, std::uint64_t seed, std::size_t i,
    int params);

/// One client session: which family it tunes and the signature it sends.
struct SessionScript {
  std::size_t family = 0;
  harmony::WorkloadSignature signature;
};

/// The session script generator of connection `conn`: the same sequence in
/// the load generator and in the replay.
class ScriptStream {
 public:
  ScriptStream(const std::vector<Family>& families, std::uint64_t seed,
               int conn);
  [[nodiscard]] SessionScript next();

 private:
  const std::vector<Family>& families_;
  harmony::Rng rng_;
};

/// Element `unit` of the splitmix64 stream at `base`.
[[nodiscard]] std::uint64_t unit_seed(std::uint64_t base, std::uint64_t unit);

// ---- raw-sample statistics --------------------------------------------------

/// Exact linear-interpolated percentile of the raw samples (0 when empty).
[[nodiscard]] double pct(const std::vector<double>& xs, double p);
[[nodiscard]] double median(const std::vector<double>& xs);
/// The highest percentile (at most 99) with at least ten samples beyond it:
/// 100 * (1 - 10 / n), capped at 99; 50 below twenty samples.
[[nodiscard]] double tail_rank(std::size_t n);
/// pct(xs, tail_rank(xs.size())).
[[nodiscard]] double tail(const std::vector<double>& xs);

/// Width of the time windows a run's timing samples are grouped into.
inline constexpr double kWindowSeconds = 1.0;

/// Index of the window `t` falls in, counting from `from`; 0 before it.
[[nodiscard]] std::size_t window_of(Clock::time_point from,
                                    Clock::time_point t);

/// Timing samples grouped by the window their session started in. The
/// median is over every sample; the tail is the median over windows of
/// each window's tail at one common rank (tail_rank of the median window
/// size), so a burst of contention from other tenants that spoils a few
/// windows does not move it. Windows with fewer than half the median
/// window's samples (a partial last window) are left out of the tail.
class Windowed {
 public:
  void add(std::size_t window, double x);
  void add(std::size_t window, const std::vector<double>& xs);
  void merge(const Windowed& other);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] double median() const;
  [[nodiscard]] double tail_rank() const;
  [[nodiscard]] double tail() const;
  /// Windows the tail is the median over.
  [[nodiscard]] std::size_t tail_windows() const;

 private:
  [[nodiscard]] double median_window_size() const;
  [[nodiscard]] bool in_tail(const std::vector<double>& w) const;

  std::vector<std::vector<double>> windows_;
};

/// Hand-computed checks of the helpers above; returns the number of
/// failures and prints each one.
int selftest_stats();

// ---- tracing ----------------------------------------------------------------

/// One timed call at a layer boundary. Spans of one session share
/// `session`; `parent` is the index of the enclosing span, or -1.
struct Span {
  std::string name;
  std::int64_t session = -1;
  std::int64_t parent = -1;
  Clock::time_point start;
  Clock::time_point end;
  [[nodiscard]] double us() const { return us_between(start, end); }
};

/// In-memory span store; written once, when the run ends.
class Tracer {
 public:
  /// Opens a span and returns its index.
  std::size_t begin(std::string name, std::int64_t session,
                    std::int64_t parent = -1);
  void end(std::size_t index);
  /// Appends another tracer's spans (parent links re-based).
  void absorb(const Tracer& other);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON (load it in chrome://tracing or Perfetto) of
  /// the first kMaxWritten spans, which keeps span files small.
  void write_chrome(const std::string& path, int pid) const;
  static constexpr std::size_t kMaxWritten = 20000;

 private:
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

// ---- output -----------------------------------------------------------------

/// Flat JSON object of numeric members, printed in insertion order on one
/// line with every digit of each value.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v);
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Writes `<name>_p50_<unit>` (median of every sample), `<name>_p99_<unit>`
/// (the windowed tail) and the tail's `_tail_rank`, `_tail_windows` and
/// `_samples`.
void emit_timing(JsonLine& j, const std::string& name, const std::string& unit,
                 const Windowed& xs);

/// VmHWM of this process in MiB (0 when /proc is unavailable).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
