// Scale bench: the prior-runs experience store at one hundred million
// records (ROADMAP north star: classify heavy live traffic against massive
// history).
//
// Two scales, one binary:
//
//   in-memory (capped at one million records) — the classifier and
//   estimator sections. Generates a clustered synthetic experience
//   database, then measures the classify hot path for all three
//   classifiers two ways:
//     legacy  — the pre-index cost model: every classify() copies the full
//               signature set out of the database (vector-of-vectors) and
//               rebuilds the classifier's model from scratch.
//     fitted  — the build-once/query-many path: fit(SignatureView) once
//               over the flat store, then classify() per query.
//
//   streamed (the full record count, default 100,000,000) — the store is
//   produced in one-million-row chunks that are regenerated
//   deterministically per chunk index, scanned by the dispatched SIMD
//   kernel AND the scalar reference while resident, then discarded. The
//   global argmin folds across chunks through the running best (the
//   range-fold contract of nearest_signature_scan), so the result is
//   bit-identical to a flat scan of all 100M rows — without ever holding
//   more than one chunk (~128 MB) in memory. A peak-RSS gate proves the
//   full 12.8 GB set never materializes.
//
// A cache-resident SIMD section reports scalar-vs-dispatched speedups for
// the two users of the vector scan kernel (distance scan, k-means
// assignment) as SIMD_* markers and gates the distance scan at >= 1.5x,
// on the median of interleaved per-rep ratios, when the CPU has a vector
// level at all.
//
// HARMONY_HISTORY_SCALE overrides the streamed record count (default
// 100,000,000) for quick local runs and CI.
//
// --store <prefix> switches the classifier sections onto the durable
// store's mmap read path: the synthetic database is persisted to
// <prefix>.log/.snap (rewritten unless a matching snapshot already
// exists), reopened via ExperienceStore::open — snapshot adopted
// zero-copy, records decoded lazily — and the classify measurements run
// against the mapping-backed database. The streamed-100M and SIMD
// sections are skipped in store mode (they measure unrelated paths); the
// store files are left behind for re-runs.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "bench/bench_common.hpp"
#include "core/analyzer.hpp"
#include "core/estimator.hpp"
#include "core/store.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace harmony;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The pre-index least-square classify: per-call vector-of-vectors copy of
/// every signature plus a scalar scan — what DataAnalyzer::classify cost
/// before the flat store existed.
std::size_t legacy_copy_classify(const HistoryDatabase& db,
                                 const WorkloadSignature& obs) {
  const std::vector<WorkloadSignature> known = db.signatures();
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < known.size(); ++j) {
    const double d = signature_distance_sq(obs, known[j]);
    if (d < best_d) {
      best_d = d;
      best = j;
    }
  }
  return best;
}

/// The pre-index per-call cost model of the k-means and decision-tree
/// classifiers: copy `known` into an owned flat store, refit the model from
/// scratch, then answer the one query.
std::size_t refit_classify(Classifier& c, const WorkloadSignature& obs,
                           const std::vector<WorkloadSignature>& known) {
  std::vector<double> data;
  std::vector<std::size_t> offsets;
  offsets.reserve(known.size() + 1);
  offsets.push_back(0);
  bool mixed = false;
  for (const WorkloadSignature& s : known) {
    mixed = mixed || s.size() != known.front().size();
    data.insert(data.end(), s.begin(), s.end());
    offsets.push_back(data.size());
  }
  SignatureView view;
  view.data = data.data();
  view.offsets = offsets.data();
  view.count = known.size();
  view.dims = mixed ? SignatureView::kMixedDims : known.front().size();
  view.version = next_signature_version();
  c.fit(view);
  return c.classify(obs);
}

/// Peak resident set size in bytes (0 where unavailable).
std::size_t peak_rss_bytes() {
#if defined(__linux__)
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) == 0) {
    return static_cast<std::size_t>(u.ru_maxrss) * 1024u;  // KB on Linux
  }
#endif
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_prefix;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--store" && i + 1 < argc) {
      store_prefix = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--store <prefix>]\n", argv[0]);
      return 2;
    }
  }
  const bool store_mode = !store_prefix.empty();

  bench::section("History scale: experience store at millions of records");
  bench::expectation(
      "fit-once/classify-many over the flat signature index beats the "
      "per-call copy + rebuild path by >= 10x (least-square) and >= 50x "
      "amortized (k-means, decision tree), with identical classifications");

  std::size_t n_records = 100'000'000;
  if (const char* env = std::getenv("HARMONY_HISTORY_SCALE")) {
    const long v = std::atol(env);
    if (v > 0) n_records = static_cast<std::size_t>(v);
  }
  // The classifier/estimator sections materialize the database; one million
  // records is plenty to saturate their cost models, so the full streamed
  // count never hits the heap.
  const std::size_t db_records = std::min<std::size_t>(n_records, 1'000'000);
  const std::size_t dims = 16;
  const std::size_t n_centers = 64;

  std::printf(
      "records: %zu streamed (%zu in-memory), signature dims: %zu, "
      "threads: %u\n\n",
      n_records, db_records, dims, thread_count());

  // Clustered population (workload families with observation noise).
  Rng rng(41);
  std::vector<WorkloadSignature> centers;
  for (std::size_t c = 0; c < n_centers; ++c) {
    WorkloadSignature center(dims);
    double total = 0.0;
    for (double& v : center) {
      v = rng.uniform(0.0, 1.0);
      total += v;
    }
    for (double& v : center) v /= total;
    centers.push_back(std::move(center));
  }
  HistoryDatabase db;
  const auto gen_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < db_records; ++i) {
    const std::size_t c = i % n_centers;
    ExperienceRecord rec;
    rec.signature = centers[c];
    for (double& v : rec.signature) {
      v = std::max(0.0, v + rng.normal(0.0, 0.003));
    }
    db.add(std::move(rec));
  }
  std::printf("database build: %.2fs\n", seconds_since(gen_start));

  // --store: persist the synthetic database and swap db for its
  // mapping-backed reopened self, so every classify below runs against
  // signatures served straight out of the snapshot file.
  if (store_mode) {
    const std::string snap_file = ExperienceStore::snapshot_path(store_prefix);
    bool reuse = false;
    if (file_exists(snap_file)) {
      try {
        reuse = SnapshotMapping::open(snap_file)->record_count() == db_records;
      } catch (const Error&) {
        reuse = false;  // stale or foreign snapshot: rewrite it
      }
    }
    if (!reuse) {
      remove_file(ExperienceStore::log_path(store_prefix));
      remove_file(snap_file);
      ExperienceStore writer;
      HistoryDatabase scratch;
      writer.open(store_prefix, scratch);
      const auto w0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < db.size(); ++i) writer.append(db.record(i));
      writer.snapshot(db);
      std::printf("store write: %.2fs (%s)\n", seconds_since(w0),
                  snap_file.c_str());
    }
    const auto o0 = std::chrono::steady_clock::now();
    ExperienceStore store;
    store.open(store_prefix, db);
    const double open_ms = seconds_since(o0) * 1e3;
    std::printf("store cold open: %.2f ms (%zu records mmap'd, %zu replayed)\n",
                open_ms, store.recovery().snapshot_records,
                store.recovery().replayed_records);
    std::printf("PERSIST_scale_cold_open_ms %.2f\n", open_ms);
  }

  // Fixed query workload, shared by every path so results are comparable.
  const int n_queries = 64;
  std::vector<WorkloadSignature> queries;
  Rng qrng(99);
  for (int q = 0; q < n_queries; ++q) {
    WorkloadSignature obs = centers[static_cast<std::size_t>(qrng.uniform_int(
        0, static_cast<std::int64_t>(n_centers) - 1))];
    for (double& v : obs) v = std::max(0.0, v + qrng.normal(0.0, 0.004));
    queries.push_back(std::move(obs));
  }

  Table t({"path", "build/fit (ms)", "classify (ns/query)", "speedup"});
  bool ls_ok = false, km_ok = false, tree_ok = false;

  // ---- least-square: per-call copy vs flat-index scan -------------------
  double ls_legacy_ns = 0.0, ls_fitted_ns = 0.0;
  {
    std::vector<std::size_t> legacy_idx;
    const int legacy_q = 8;  // each query re-copies the whole database
    const auto t0 = std::chrono::steady_clock::now();
    for (int q = 0; q < legacy_q; ++q) {
      legacy_idx.push_back(
          legacy_copy_classify(db, queries[static_cast<std::size_t>(q)]));
    }
    ls_legacy_ns = seconds_since(t0) * 1e9 / legacy_q;

    LeastSquareClassifier ls;
    const auto t1 = std::chrono::steady_clock::now();
    ls.fit(db.signature_view());
    const double fit_ms = seconds_since(t1) * 1e3;
    const auto t2 = std::chrono::steady_clock::now();
    std::size_t sink = 0;
    for (const auto& obs : queries) sink += ls.classify(obs);
    ls_fitted_ns = seconds_since(t2) * 1e9 / n_queries;

    // Classification results must be unchanged vs the legacy path.
    bool same = true;
    for (int q = 0; q < legacy_q; ++q) {
      same = same &&
             ls.classify(queries[static_cast<std::size_t>(q)]) ==
                 legacy_idx[static_cast<std::size_t>(q)];
    }
    const double speedup = ls_legacy_ns / ls_fitted_ns;
    ls_ok = same && speedup >= 10.0;
    t.add_row({"least-square legacy (copy/call)", "-",
               Table::num(ls_legacy_ns, 0), "1.0"});
    t.add_row({"least-square fitted (k-d index)", Table::num(fit_ms, 2),
               Table::num(ls_fitted_ns, 0), Table::num(speedup, 1)});
    bench::finding(same, "least-square: flat-index results match legacy");
    (void)sink;
  }

  // ---- k-means: per-call rebuild vs fit-once ----------------------------
  {
    KMeansClassifier legacy(16, 7, 5);
    const std::vector<WorkloadSignature> known = db.signatures();
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t legacy_idx = refit_classify(legacy, queries[0], known);
    const double legacy_ns = seconds_since(t0) * 1e9;

    KMeansClassifier km(16, 7, 5);
    const auto t1 = std::chrono::steady_clock::now();
    km.fit(db.signature_view());
    const double fit_ms = seconds_since(t1) * 1e3;
    const auto t2 = std::chrono::steady_clock::now();
    std::size_t sink = 0;
    for (const auto& obs : queries) sink += km.classify(obs);
    const double fitted_ns = seconds_since(t2) * 1e9 / n_queries;

    const bool same = km.classify(queries[0]) == legacy_idx;
    const double speedup = legacy_ns / fitted_ns;
    km_ok = same && speedup >= 50.0;
    t.add_row({"k-means legacy (rebuild/call)", "-", Table::num(legacy_ns, 0),
               "1.0"});
    t.add_row({"k-means fitted", Table::num(fit_ms, 1),
               Table::num(fitted_ns, 0), Table::num(speedup, 1)});
    bench::finding(same, "k-means: fitted results match per-call rebuild");
    (void)sink;

    std::printf("EVENTS_PER_SEC kmeans_classify %.0f\n", 1e9 / fitted_ns);
  }

  // ---- decision tree: per-call rebuild vs fit-once ----------------------
  {
    DecisionTreeClassifier legacy(16);
    const std::vector<WorkloadSignature> known = db.signatures();
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t legacy_idx = refit_classify(legacy, queries[0], known);
    const double legacy_ns = seconds_since(t0) * 1e9;

    DecisionTreeClassifier tree(16);
    const auto t1 = std::chrono::steady_clock::now();
    tree.fit(db.signature_view());
    const double fit_ms = seconds_since(t1) * 1e3;
    const auto t2 = std::chrono::steady_clock::now();
    std::size_t sink = 0;
    for (const auto& obs : queries) sink += tree.classify(obs);
    const double fitted_ns = seconds_since(t2) * 1e9 / n_queries;

    const bool same = tree.classify(queries[0]) == legacy_idx;
    const double speedup = legacy_ns / fitted_ns;
    tree_ok = same && speedup >= 50.0;
    t.add_row({"decision tree legacy (rebuild/call)", "-",
               Table::num(legacy_ns, 0), "1.0"});
    t.add_row({"decision tree fitted", Table::num(fit_ms, 1),
               Table::num(fitted_ns, 0), Table::num(speedup, 1)});
    bench::finding(same, "decision tree: fitted results match rebuild");
    (void)sink;

    std::printf("EVENTS_PER_SEC tree_classify %.0f\n", 1e9 / fitted_ns);
  }

  std::printf("EVENTS_PER_SEC least_square_classify %.0f\n",
              1e9 / ls_fitted_ns);

  // ---- estimator at scale ----------------------------------------------
  {
    ParameterSpace space;
    const std::size_t n_params = 8;
    for (std::size_t i = 0; i < n_params; ++i) {
      space.add(ParameterDef("p" + std::to_string(i), 0, 100, 1, 50));
    }
    const std::size_t n_points = std::min<std::size_t>(n_records, 200'000);
    PerformanceEstimator est(space);
    Rng prng(7);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n_points; ++i) {
      Configuration c = space.random_configuration(prng);
      double v = 10.0;
      for (std::size_t d = 0; d < c.size(); ++d) {
        v += (static_cast<double>(d) + 1.0) * c[d];
      }
      est.add(c, v + prng.uniform(-1.0, 1.0));
    }
    const double add_ms = seconds_since(t0) * 1e3;

    const int est_q = 64;
    const auto t1 = std::chrono::steady_clock::now();
    double acc = 0.0;
    for (int q = 0; q < est_q; ++q) {
      acc += est.estimate(space.random_configuration(prng), n_params + 1)
                 .value;
    }
    const double est_ns = seconds_since(t1) * 1e9 / est_q;

    const int exact_q = 100'000;
    const auto t2 = std::chrono::steady_clock::now();
    std::size_t hits = 0;
    for (int q = 0; q < exact_q; ++q) {
      hits += est.exact(space.random_configuration(prng)).has_value() ? 1 : 0;
    }
    const double exact_ns = seconds_since(t2) * 1e9 / exact_q;

    t.add_row({"estimator estimate (" + std::to_string(n_points) + " pts)",
               Table::num(add_ms, 1), Table::num(est_ns, 0), "-"});
    t.add_row({"estimator exact (hash index)", "-", Table::num(exact_ns, 0),
               "-"});
    std::printf("EVENTS_PER_SEC estimator_estimate %.0f\n", 1e9 / est_ns);
    std::printf("EVENTS_PER_SEC estimator_exact %.0f\n", 1e9 / exact_ns);
    std::printf("estimator exact-hit ratio: %.3f, acc=%.1f\n",
                static_cast<double>(hits) / exact_q, acc);
  }

  // ---- streamed scan over the full record count -------------------------
  // Chunked generate-scan-discard: each one-million-row chunk is a pure
  // function of its chunk index, so the "database" exists only one chunk at
  // a time. The running (best_dist_sq, base + local_index) fold across
  // chunks is exactly the range-fold contract of nearest_signature_scan, so
  // scalar and dispatched paths must land on the same record with the same
  // hexfloat distance despite never sharing a resident array.
  bool stream_ok = false, rss_ok = false;
  if (store_mode) {
    // Store mode measures the mmap read path; the streamed scan exercises
    // an unrelated generate-scan-discard pipeline, so it is skipped.
    stream_ok = rss_ok = true;
    std::printf("streamed scan: skipped (--store mode)\n");
  } else {
    constexpr std::size_t kChunkRows = 1'000'000;
    constexpr std::size_t kNoIdx = static_cast<std::size_t>(-1);
    std::vector<double> chunk(kChunkRows * dims);
    WorkloadSignature query(dims);
    Rng sqrng(123);
    for (double& v : query) v = sqrng.uniform01();

    double best_d[2] = {std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::infinity()};
    std::size_t best_i[2] = {kNoIdx, kNoIdx};
    double scan_s[2] = {0.0, 0.0};  // [0] dispatched, [1] scalar
    double gen_s = 0.0;

    for (std::size_t base = 0, ci = 0; base < n_records;
         base += kChunkRows, ++ci) {
      const std::size_t rows = std::min(kChunkRows, n_records - base);
      const auto g0 = std::chrono::steady_clock::now();
      Rng crng(0xC0FFEE + ci);
      for (std::size_t j = 0; j < rows * dims; ++j) {
        chunk[j] = crng.uniform01();
      }
      gen_s += seconds_since(g0);

      const auto s0 = std::chrono::steady_clock::now();
      std::size_t local = kNoIdx;
      nearest_signature_scan(chunk.data(), dims, 0, rows, query.data(),
                             best_d[0], local);
      scan_s[0] += seconds_since(s0);
      if (local != kNoIdx) best_i[0] = base + local;

      const auto s1 = std::chrono::steady_clock::now();
      local = kNoIdx;
      nearest_signature_scan_scalar(chunk.data(), dims, 0, rows, query.data(),
                                    best_d[1], local);
      scan_s[1] += seconds_since(s1);
      if (local != kNoIdx) best_i[1] = base + local;
    }

    stream_ok = best_i[0] == best_i[1] && best_d[0] == best_d[1] &&
                best_i[0] != kNoIdx;
    const double mrows_simd = static_cast<double>(n_records) / scan_s[0] / 1e6;
    const double mrows_scalar =
        static_cast<double>(n_records) / scan_s[1] / 1e6;
    const std::size_t rss = peak_rss_bytes();
    // 12.8 GB of signatures streamed through < 2 GiB of resident memory
    // proves the store never materializes (0 = platform has no counter).
    rss_ok = rss < (2ull << 30);

    t.add_row({"streamed scan dispatched (" + std::to_string(n_records) +
                   " rows)",
               "-", Table::num(scan_s[0] * 1e3, 0) + " ms total",
               Table::num(mrows_simd, 1) + " Mrow/s"});
    t.add_row({"streamed scan scalar", "-",
               Table::num(scan_s[1] * 1e3, 0) + " ms total",
               Table::num(mrows_scalar, 1) + " Mrow/s"});
    std::printf(
        "streamed scan: argmin %zu dist %a (gen %.1fs, scan %.1fs + %.1fs, "
        "peak RSS %.2f GiB)\n",
        best_i[0], best_d[0], gen_s, scan_s[0], scan_s[1],
        static_cast<double>(rss) / (1ull << 30));
    std::printf("SIMD_stream_mrows_per_sec %.1f\n", mrows_simd);
    std::printf("SIMD_stream_scalar_mrows_per_sec %.1f\n", mrows_scalar);
    std::printf("SIMD_stream_speedup %.2f\n", scan_s[1] / scan_s[0]);
    bench::finding(stream_ok,
                   "streamed 100M scan: dispatched argmin bit-identical to "
                   "scalar fold");
    bench::finding(rss_ok, "streamed scan peak RSS stays under 2 GiB");
  }

  // ---- SIMD kernel speedups (cache-resident) ----------------------------
  // The streamed scan above is memory-bound, so the ISA win is measured
  // where the kernel actually runs hot: an L2-resident block scanned
  // repeatedly. Dispatched level vs the scalar blocked reference.
  bool simd_ok = true;
  if (!store_mode) {
    // 4096 rows x 16 dims = 512 KB: resident in L2,
    // where the ISA win is largest and stablest (8K rows already brushes
    // the 2 MB L2 and the measurement turns bandwidth-bound).
    const std::size_t rows = 4096;
    Rng krng(11);
    std::vector<double> block(rows * dims);
    for (double& v : block) v = krng.uniform01();
    std::vector<double> q(dims);
    for (double& v : q) v = krng.uniform01();

    // Best-of-`reps` seconds for `iters` runs of `body`.
    const auto best_of = [](int reps, int iters, auto&& body) {
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i) body();
        best = std::min(best, seconds_since(t0));
      }
      return best;
    };
    const SimdLevel disp = simd_level();
    std::size_t sink = 0;

    // The gated measurement interleaves scalar and dispatched reps so
    // frequency drift and noisy neighbours hit both sides alike. Each rep
    // yields one scalar/dispatched ratio; the gate reads their median, so
    // one lucky or unlucky timing on either side cannot decide it.
    constexpr int kGateReps = 9;
    std::vector<double> dist_ratios;
    for (int rep = 0; rep < kGateReps; ++rep) {
      double secs[2];
      for (const SimdLevel lvl : {SimdLevel::kScalar, disp}) {
        secs[lvl == SimdLevel::kScalar ? 0 : 1] = best_of(1, 500, [&] {
          double d = std::numeric_limits<double>::infinity();
          std::size_t i = 0;
          nearest_signature_scan_level(lvl, block.data(), dims, 0, rows,
                                       q.data(), d, i);
          sink += i;
        });
      }
      dist_ratios.push_back(secs[0] / secs[1]);
    }
    const double dist_speedup = percentile(dist_ratios, 50.0);

    // K-means assignment: every row against 64 resident centroids.
    const std::size_t k = 64;
    const auto assign_at = [&](SimdLevel lvl) {
      return best_of(3, 5, [&] {
        for (std::size_t i = 0; i < rows; ++i) {
          double d = std::numeric_limits<double>::infinity();
          std::size_t c = 0;
          nearest_signature_scan_level(lvl, block.data(), dims, 0, k,
                                       block.data() + i * dims, d, c);
          sink += c;
        }
      });
    };
    const double kmeans_speedup =
        assign_at(SimdLevel::kScalar) / assign_at(disp);

    if (sink == 0) std::abort();  // defeat dead-code elimination

    t.add_row({"simd distance scan (" + std::string(simd_level_name(disp)) +
                   " vs scalar, median of " + std::to_string(kGateReps) +
                   " ratios)",
               "-", "-", Table::num(dist_speedup, 2)});
    t.add_row({"simd k-means assign", "-", "-", Table::num(kmeans_speedup, 2)});
    std::printf("SIMD_level %s\n", simd_level_name(disp));
    std::printf("SIMD_distance_scan_speedup %.2f\n", dist_speedup);
    std::printf("SIMD_kmeans_assign_speedup %.2f\n", kmeans_speedup);

    if (simd_max_supported() > SimdLevel::kScalar &&
        disp > SimdLevel::kScalar) {
      // Gate at 1.5x, not the ~2x typically measured: the ratio's
      // denominator is the scalar reference, whose throughput swings
      // +/-15% across builds with code layout (the dispatched kernel's
      // absolute throughput is the stable quantity — see micro_kernels
      // BM_DistanceScanLevel to compare levels directly).
      simd_ok = dist_speedup >= 1.5;
      bench::finding(simd_ok,
                     "dispatched distance scan >= 1.5x over the scalar "
                     "blocked kernel (cache-resident, median ratio)");
    }
  }

  bench::print_table(t, "history_scale");

  bench::finding(ls_ok,
                 "least-square classify >= 10x faster than per-call copy");
  bench::finding(km_ok,
                 "k-means amortized classify >= 50x faster than rebuild");
  bench::finding(tree_ok,
                 "decision-tree amortized classify >= 50x faster than "
                 "rebuild");
  return (ls_ok && km_ok && tree_ok && stream_ok && rss_ok && simd_ok) ? 0
                                                                       : 1;
}
