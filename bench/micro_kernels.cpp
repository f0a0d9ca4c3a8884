// Micro-benchmarks (google-benchmark) for the kernels the tuning loop and
// the simulator sit on: DES event throughput, one full cluster simulation,
// simplex search cost on an analytic landscape, the triangulation solve,
// least-square retrieval and index build, RSL parsing and the sensitivity
// sweep.
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "core/estimator.hpp"
#include "core/objective.hpp"
#include "core/rsl.hpp"
#include "core/sensitivity.hpp"
#include "core/simplex.hpp"
#include "core/strategies.hpp"
#include "synth/ecommerce.hpp"
#include "synth/landscapes.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "websim/cluster.hpp"
#include "websim/des.hpp"

using namespace harmony;

namespace {

void BM_DesEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    websim::Simulation sim;
    std::int64_t fired = 0;
    const std::int64_t target = state.range(0);
    std::function<void()> chain = [&] {
      if (++fired < target) sim.schedule(0.001, chain);
    };
    sim.schedule(0.001, chain);
    sim.run_until(1e18);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DesEventThroughput)->Arg(10000);

// Burst scheduling: many events pending at once, each with a capture too
// large for std::function's 16-byte inline buffer (but within the DES
// action's inline capacity). Exercises the event-queue fast path:
// reserve_events pre-sizes the heap and slot pool, scheduling stores the
// callable inline, and the heap sifts move only plain-data entries.
void BM_DesScheduleBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  struct Payload {
    std::uint64_t words[6] = {};
  };
  for (auto _ : state) {
    websim::Simulation sim;
    sim.reserve_events(n);
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Payload payload;
      payload.words[0] = i;
      sim.schedule(1e-6 * static_cast<double>(i % 97),
                   [&sink, payload] { sink += payload.words[0]; });
    }
    sim.run_until(1.0);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DesScheduleBurst)->Arg(100000);

void BM_ClusterSimulation(benchmark::State& state) {
  websim::SimOptions opts;
  opts.measure_s = static_cast<double>(state.range(0));
  opts.seed = 5;
  for (auto _ : state) {
    const auto m = websim::simulate_cluster(websim::ClusterConfig{}, opts);
    benchmark::DoNotOptimize(m.wips);
  }
}
BENCHMARK(BM_ClusterSimulation)->Arg(5)->Arg(30);

void BM_SimplexSearch(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const ParameterSpace space = synth::symmetric_space(dims, 20.0, 1.0);
  auto objective = synth::sphere_objective(7.0);
  for (auto _ : state) {
    SimplexOptions opts;
    opts.max_evaluations = 200;
    SimplexSearch search(space, opts);
    EvenSpreadStrategy strategy;
    const auto r = search.maximize(
        [&](const Configuration& c) { return objective.measure(c); },
        strategy.vertices(space, space.defaults()));
    benchmark::DoNotOptimize(r.best_value);
  }
}
BENCHMARK(BM_SimplexSearch)->Arg(4)->Arg(8)->Arg(15);

// Memoized objective under a full simplex run: the discrete search revisits
// grid points, so the cache absorbs a sizable share of the measurements.
// The hit/miss/insert counters come straight from CachingObjective::stats();
// the map is pre-sized from the evaluation budget so the run never rehashes.
void BM_CachingObjectiveSearch(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const ParameterSpace space = synth::symmetric_space(dims, 20.0, 1.0);
  auto objective = synth::sphere_objective(7.0);
  SimplexOptions opts;
  opts.max_evaluations = 200;
  CachingObjective::Stats last;
  for (auto _ : state) {
    CachingObjective cache(objective,
                           static_cast<std::size_t>(opts.max_evaluations));
    SimplexSearch search(space, opts);
    EvenSpreadStrategy strategy;
    const auto r = search.maximize(
        [&](const Configuration& c) { return cache.measure(c); },
        strategy.vertices(space, space.defaults()));
    benchmark::DoNotOptimize(r.best_value);
    last = cache.stats();
  }
  state.counters["hits"] = static_cast<double>(last.hits);
  state.counters["misses"] = static_cast<double>(last.misses);
  state.counters["inserts"] = static_cast<double>(last.inserts);
}
BENCHMARK(BM_CachingObjectiveSearch)->Arg(4)->Arg(8)->Arg(15);

void BM_EstimatorSolve(benchmark::State& state) {
  synth::SyntheticSystem system;
  const ParameterSpace& space = system.space();
  PerformanceEstimator est(space);
  Rng rng(3);
  const auto w = system.shopping_workload();
  for (int i = 0; i < 200; ++i) {
    const Configuration c = space.random_configuration(rng);
    est.add(c, system.measure(c, w));
  }
  const Configuration target = space.defaults();
  for (auto _ : state) {
    const auto r = est.estimate(target, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_EstimatorSolve)->Arg(16)->Arg(64);

// ---------------------------------------------------------------------------
// Classifier maintenance head to head: a full fit() over N rows vs a
// delta-aware refit() absorbing one 64-row append on the same chain.
// Arg(0) selects the classifier (0 lstsq, 1 tree, 2 kmeans), Arg(1) the
// base row count. The update bench pre-builds a chain of views over one
// flat array — shared append_base, fresh version per step — and re-fits
// the base outside the timed region when the chain runs dry.

constexpr std::size_t kIncDims = 16;
constexpr std::size_t kIncBatch = 64;

std::unique_ptr<Classifier> bench_classifier(int kind) {
  switch (kind) {
    case 0: return std::make_unique<LeastSquareClassifier>();
    case 1: return std::make_unique<DecisionTreeClassifier>();
    // Enough Lloyd's iterations that fit() converges (it stops early):
    // the update bench's restricted pass starts from a converged model,
    // as it would in a long-running daemon, instead of tripping the
    // drift hysteresis on leftover movement.
    default: return std::make_unique<KMeansClassifier>(32, 42, 50);
  }
}

const char* bench_classifier_label(int kind) {
  switch (kind) {
    case 0: return "lstsq";
    case 1: return "tree";
    default: return "kmeans";
  }
}

struct DeltaChain {
  std::vector<double> data;
  std::vector<std::size_t> offsets;
  std::vector<SignatureView> views;  // views[j] exposes base + j*64 rows
};

DeltaChain make_delta_chain(std::size_t base, std::size_t deltas) {
  DeltaChain c;
  const std::size_t total = base + deltas * kIncBatch;
  Rng rng(11);
  c.data.resize(total * kIncDims);
  for (double& v : c.data) v = rng.uniform01();
  c.offsets.resize(total + 1);
  for (std::size_t i = 0; i <= total; ++i) c.offsets[i] = i * kIncDims;
  const std::uint64_t chain = next_signature_version();
  c.views.reserve(deltas + 1);
  for (std::size_t j = 0; j <= deltas; ++j) {
    SignatureView v;
    v.data = c.data.data();
    v.offsets = c.offsets.data();
    v.count = base + j * kIncBatch;
    v.dims = kIncDims;
    v.version = next_signature_version();
    v.append_base = chain;
    c.views.push_back(v);
  }
  return c;
}

void BM_ClassifierFit(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  const DeltaChain chain = make_delta_chain(count, 0);
  const std::unique_ptr<Classifier> c = bench_classifier(kind);
  for (auto _ : state) {
    c->fit(chain.views[0]);
    benchmark::DoNotOptimize(c.get());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
  state.SetLabel(bench_classifier_label(kind));
}
BENCHMARK(BM_ClassifierFit)
    ->Args({0, 10000})->Args({0, 100000})->Args({0, 1000000})
    ->Args({1, 10000})->Args({1, 100000})->Args({1, 1000000})
    ->Args({2, 10000})->Args({2, 100000})
    ->Unit(benchmark::kMicrosecond);

void BM_ClassifierUpdate(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  // Short enough that k-means never trips its pending-fraction escalation
  // at the 10k base: the timed region stays on the pure delta path.
  constexpr std::size_t kDeltas = 24;
  const bool before = incremental_fit_enabled();
  set_incremental_fit(true);
  const DeltaChain chain = make_delta_chain(count, kDeltas);
  const std::unique_ptr<Classifier> c = bench_classifier(kind);
  c->fit(chain.views[0]);
  std::size_t next = 1;
  for (auto _ : state) {
    if (next > kDeltas) {
      state.PauseTiming();
      c->fit(chain.views[0]);
      next = 1;
      state.ResumeTiming();
    }
    c->refit(chain.views[next++]);
    benchmark::DoNotOptimize(c.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kIncBatch));
  // Any full rebuild in the label means the delta path escalated.
  state.SetLabel(std::string(bench_classifier_label(kind)) +
                 " incr=" + std::to_string(c->refit_stats().incremental) +
                 " full=" + std::to_string(c->refit_stats().full));
  set_incremental_fit(before);
}
BENCHMARK(BM_ClassifierUpdate)
    ->Args({0, 10000})->Args({0, 100000})->Args({0, 1000000})
    ->Args({1, 10000})->Args({1, 100000})->Args({1, 1000000})
    ->Args({2, 10000})->Args({2, 100000})
    ->Unit(benchmark::kMicrosecond);

// Signature-distance argmin kernels over the flat experience store: the
// scalar reference loop vs the blocked 4-row kernel with early exit. Kernel
// regressions show up here independently of the end-to-end history_scale
// bench. Both kernels must return the same index (bit-identical semantics).
void BM_SignatureScanScalar(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::size_t dims = 16;
  Rng rng(11);
  std::vector<double> data(count * dims);
  for (double& v : data) v = rng.uniform01();
  std::vector<double> query(dims);
  for (double& v : query) v = rng.uniform01();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nearest_signature_scalar(data.data(), count, dims, query.data()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SignatureScanScalar)->Arg(1 << 10)->Arg(1 << 17);

void BM_SignatureScanBlocked(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::size_t dims = 16;
  Rng rng(11);
  std::vector<double> data(count * dims);
  for (double& v : data) v = rng.uniform01();
  std::vector<double> query(dims);
  for (double& v : query) v = rng.uniform01();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nearest_signature_blocked(data.data(), count, dims, query.data()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SignatureScanBlocked)->Arg(1 << 10)->Arg(1 << 17);

// ---------------------------------------------------------------------------
// SIMD dispatch levels head to head. Arg(0/1) selects kScalar/kAvx2; a
// level the host CPU lacks is skipped, so the same binary reports whatever
// the machine supports.

bool skip_unsupported(benchmark::State& state, SimdLevel level) {
  if (simd_supported(level)) return false;
  state.SkipWithError("SIMD level not supported on this CPU");
  return true;
}

void BM_DistanceScanLevel(benchmark::State& state) {
  const auto level = static_cast<SimdLevel>(state.range(0));
  if (skip_unsupported(state, level)) return;
  const auto count = static_cast<std::size_t>(state.range(1));
  const std::size_t dims = 16;
  Rng rng(11);
  std::vector<double> data(count * dims);
  for (double& v : data) v = rng.uniform01();
  std::vector<double> query(dims);
  for (double& v : query) v = rng.uniform01();
  for (auto _ : state) {
    double best_d = std::numeric_limits<double>::infinity();
    std::size_t best_i = 0;
    nearest_signature_scan_level(level, data.data(), dims, 0, count,
                                 query.data(), best_d, best_i);
    benchmark::DoNotOptimize(best_i);
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
  state.SetLabel(simd_level_name(level));
}
BENCHMARK(BM_DistanceScanLevel)->Args({0, 1 << 17})->Args({1, 1 << 17});

// ---------------------------------------------------------------------------
// Least-square retrieval through the k-d index. Args: {clustered (0/1),
// dims, rows}. Clustered rows sit around 32 centres (sd 0.02, like the
// served workloads' 32 families) and the queries come from the same mix;
// uniform rows and queries fill the unit cube. The fitted set is cached
// across the runs of one argument set (the first run pays the build).

struct LeastSquareFixture {
  std::vector<std::int64_t> key;
  HistoryDatabase db;
  std::vector<WorkloadSignature> queries;
  LeastSquareClassifier ls;
};

WorkloadSignature draw_signature(Rng& rng, bool clustered,
                                 const std::vector<double>& centres,
                                 std::size_t dims) {
  WorkloadSignature sig(dims);
  const std::size_t c = static_cast<std::size_t>(rng.uniform_int(0, 31));
  for (std::size_t d = 0; d < dims; ++d) {
    sig[d] = clustered ? centres[c * dims + d] + 0.02 * rng.normal()
                       : rng.uniform01();
  }
  return sig;
}

const LeastSquareFixture& least_square_fixture(const benchmark::State& state,
                                               bool fit) {
  static std::unique_ptr<LeastSquareFixture> cached;
  const std::vector<std::int64_t> key = {state.range(0), state.range(1),
                                         state.range(2), fit ? 1 : 0};
  if (!cached || cached->key != key) {
    cached.reset();  // free the previous set before building the next
    auto f = std::make_unique<LeastSquareFixture>();
    f->key = key;
    const bool clustered = state.range(0) != 0;
    const auto dims = static_cast<std::size_t>(state.range(1));
    const auto rows = static_cast<std::size_t>(state.range(2));
    Rng rng(41);
    std::vector<double> centres(32 * dims);
    for (double& v : centres) v = rng.uniform01();
    f->db.reserve(rows, rows * dims);
    for (std::size_t i = 0; i < rows; ++i) {
      ExperienceRecord rec;
      rec.signature = draw_signature(rng, clustered, centres, dims);
      f->db.add(std::move(rec));
    }
    for (int q = 0; q < 64; ++q) {
      f->queries.push_back(draw_signature(rng, clustered, centres, dims));
    }
    if (fit) f->ls.fit(f->db.signature_view());
    cached = std::move(f);
  }
  return *cached;
}

std::string least_square_label(const benchmark::State& state) {
  return std::string(state.range(0) != 0 ? "clustered" : "uniform") + " " +
         std::to_string(state.range(1)) + "d";
}

void BM_LeastSquareClassify(benchmark::State& state) {
  const LeastSquareFixture& f = least_square_fixture(state, true);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ls.classify(f.queries[q]));
    q = (q + 1) % f.queries.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(least_square_label(state));
}
BENCHMARK(BM_LeastSquareClassify)
    ->ArgsProduct({{1, 0}, {8, 16}, {10'000, 100'000, 1'000'000}})
    ->Unit(benchmark::kMicrosecond);

// The index build alone (LeastSquareClassifier::fit over a fresh view).
void BM_LeastSquareFit(benchmark::State& state) {
  const LeastSquareFixture& f = least_square_fixture(state, false);
  for (auto _ : state) {
    LeastSquareClassifier ls;
    ls.fit(f.db.signature_view());
    benchmark::DoNotOptimize(ls.indexed_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(2));
  state.SetLabel(least_square_label(state));
}
BENCHMARK(BM_LeastSquareFit)
    ->Args({1, 8, 500'000})
    ->Unit(benchmark::kMillisecond);

// The k-means inner loop: assign every row to its nearest of 64 centroids.
void BM_KMeansAssignLevel(benchmark::State& state) {
  const auto level = static_cast<SimdLevel>(state.range(0));
  if (skip_unsupported(state, level)) return;
  const std::size_t rows = 1 << 14, dims = 16, k = 64;
  Rng rng(21);
  std::vector<double> data(rows * dims), centroids(k * dims);
  for (double& v : data) v = rng.uniform01();
  for (double& v : centroids) v = rng.uniform01();
  for (auto _ : state) {
    std::size_t sink = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      double best_d = std::numeric_limits<double>::infinity();
      std::size_t best_c = 0;
      nearest_signature_scan_level(level, centroids.data(), dims, 0, k,
                                   data.data() + i * dims, best_d, best_c);
      sink += best_c;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rows));
  state.SetLabel(simd_level_name(level));
}
BENCHMARK(BM_KMeansAssignLevel)->Arg(0)->Arg(1);

void BM_RslParse(benchmark::State& state) {
  std::string spec;
  for (int i = 0; i < 20; ++i) {
    const std::string name = "P" + std::to_string(i);
    if (i == 0) {
      spec += "{ harmonyBundle " + name + " { int {1 100 1} } }\n";
    } else {
      spec += "{ harmonyBundle " + name + " { int {1 100-$P" +
              std::to_string(i - 1) + " 1} } }\n";
    }
  }
  for (auto _ : state) {
    const ParameterSpace s = parse_rsl(spec);
    benchmark::DoNotOptimize(s.size());
  }
}
BENCHMARK(BM_RslParse);

void BM_SensitivitySweep(benchmark::State& state) {
  synth::SyntheticSystem system;
  synth::SyntheticObjective obj(system, system.shopping_workload());
  SensitivityOptions opts;
  opts.max_points_per_parameter = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto s = analyze_sensitivity(system.space(), obj,
                                       system.space().defaults(), opts);
    benchmark::DoNotOptimize(s.size());
  }
}
BENCHMARK(BM_SensitivitySweep)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
