// Incremental classifier maintenance bench: steady-state serving ingest
// should stop paying full model rebuilds.
//
// Scenario: a database seeded with HARMONY_INCFIT_SCALE prior records
// (default 1M; k-means runs at <= 200k — Lloyd's full fit at 1M would
// dominate the bench) absorbs batches of 64 ingested records, each batch
// followed by one DataAnalyzer::ensure_fitted and 8 classifications — the
// exact cadence of TuningService::dispatch_batch. We measure the refit
// phase per batch with the delta-aware path on (many batches; the model
// absorbs 64 rows) and off (few batches; every refit rebuilds from the
// full database).
//
// The least-square model absorbs appends into an unindexed tail and
// re-indexes once the tail passes an eighth of the indexed rows, so its
// initial fit covers fewer rows and the untimed rest of the seed brings the
// tail within half a window of that threshold: one re-index falls inside
// the timed batches, and the mean charges it to 40 batches rather than the
// ~records/500 batches it really amortizes over — a conservative measure.
//
// Gates: incremental refit >= 5x cheaper than the full rebuild for the
// least-square and decision-tree classifiers (their incremental paths are
// exact), the least-square window must contain a re-index, and the
// maintained least-square model must answer every probe exactly like a
// fresh fit over the same view. K-means is
// quality-gated rather than exact, so its speedup and probe agreement are
// report-only. HARMONY_INCFIT_GATES=0 reports without failing (reduced
// workloads are not the gated configuration).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace harmony;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

constexpr std::size_t kSigDims = 32;
constexpr std::size_t kCenters = 64;
constexpr int kBatch = 64;            // records ingested per dispatch
constexpr int kClassifies = 8;        // retrievals per dispatch
constexpr int kIncrBatches = 40;
constexpr int kFullBatches = 3;

/// Workload families the ingest stream keeps drawing from: the population
/// is stationary, so steady state really is "the same model plus a few
/// more rows", the case the delta path exists for.
std::vector<WorkloadSignature> make_centers(Rng& rng) {
  std::vector<WorkloadSignature> centers;
  centers.reserve(kCenters);
  for (std::size_t c = 0; c < kCenters; ++c) {
    WorkloadSignature center(kSigDims);
    for (double& v : center) v = rng.uniform(0.0, 1.0);
    centers.push_back(std::move(center));
  }
  return centers;
}

ExperienceRecord make_record(const std::vector<WorkloadSignature>& centers,
                             std::size_t i, Rng& rng) {
  ExperienceRecord rec;
  rec.signature = centers[i % kCenters];
  for (double& v : rec.signature) {
    v = std::max(0.0, v + rng.normal(0.0, 0.01));
  }
  rec.label = "w" + std::to_string(i % kCenters);
  Measurement m;
  m.config = {rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)};
  m.performance = rng.uniform(-50.0, 0.0);
  rec.measurements.push_back(std::move(m));
  return rec;
}

std::shared_ptr<Classifier> make_classifier(const std::string& kind) {
  if (kind == "least-square") return std::make_shared<LeastSquareClassifier>();
  if (kind == "k-means") {
    return std::make_shared<KMeansClassifier>(32, 42, 8);
  }
  return std::make_shared<DecisionTreeClassifier>();
}

struct RunResult {
  double full_ms = 0.0;   ///< mean refit per batch, delta path off
  double incr_us = 0.0;   ///< mean refit per batch, delta path on
  double speedup = 0.0;
  std::uint64_t incr_refits = 0;
  std::uint64_t escalations = 0;  ///< full fits during the incremental run
  std::size_t probes_agree = 0;
  std::size_t probes = 0;
  int reindexes = 0;  ///< least-square: timed batches that rebuilt the index
};

RunResult run_classifier(const std::string& kind, std::size_t records) {
  HistoryDatabase db;
  Rng rng(17);
  const std::vector<WorkloadSignature> centers = make_centers(rng);
  const std::size_t ingest_total =
      static_cast<std::size_t>(kBatch) * (kIncrBatches + kFullBatches);
  db.reserve(records + ingest_total, (records + ingest_total) * kSigDims);
  // Least-square: index I rows with the tail (records - I) half a window
  // short of I/8, i.e. I = (records + window/2) * 8/9.
  const std::size_t lstsq_first_fit = std::min(
      records, (records + kBatch * kIncrBatches / 2) * 8 / 9);
  const std::size_t first_fit =
      kind == "least-square" ? lstsq_first_fit : records;
  for (std::size_t i = 0; i < first_fit; ++i) {
    db.add(make_record(centers, i, rng));
  }

  std::vector<WorkloadSignature> probes;
  for (std::size_t p = 0; p < 16; ++p) {
    WorkloadSignature sig = centers[p % kCenters];
    for (double& v : sig) v = std::max(0.0, v + rng.normal(0.0, 0.02));
    probes.push_back(std::move(sig));
  }

  std::shared_ptr<Classifier> classifier = make_classifier(kind);
  DataAnalyzer analyzer(classifier);
  set_incremental_fit(true);
  analyzer.ensure_fitted(db);  // the initial build; not part of steady state
  for (std::size_t i = first_fit; i < records; ++i) {
    db.add(make_record(centers, i, rng));
  }
  analyzer.ensure_fitted(db);
  classifier->reset_refit_stats();
  const auto* lstsq =
      dynamic_cast<const LeastSquareClassifier*>(classifier.get());

  // --- steady state, delta path on ---------------------------------------
  std::size_t ingested = records;
  double incr_secs = 0.0;
  int reindexes = 0;
  for (int b = 0; b < kIncrBatches; ++b) {
    for (int i = 0; i < kBatch; ++i) {
      db.add(make_record(centers, ingested++, rng));
    }
    const std::size_t indexed = lstsq ? lstsq->indexed_rows() : 0;
    const auto t0 = std::chrono::steady_clock::now();
    analyzer.ensure_fitted(db);
    incr_secs += seconds_since(t0);
    if (lstsq && lstsq->indexed_rows() != indexed) ++reindexes;
    for (int i = 0; i < kClassifies; ++i) {
      (void)analyzer.classify(db, probes[static_cast<std::size_t>(i) %
                                         probes.size()]);
    }
  }

  RunResult out;
  out.incr_refits = classifier->refit_stats().incremental;
  out.escalations = classifier->refit_stats().full;
  out.incr_us = incr_secs / kIncrBatches * 1e6;
  out.reindexes = reindexes;

  // --- end-state equivalence against a fresh fit --------------------------
  DataAnalyzer fresh(make_classifier(kind));
  fresh.ensure_fitted(db);
  out.probes = probes.size();
  for (const WorkloadSignature& p : probes) {
    if (analyzer.classify(db, p) == fresh.classify(db, p)) {
      ++out.probes_agree;
    }
  }
  // --- baseline, delta path off (every refit rebuilds from the full db) ---
  set_incremental_fit(false);
  double full_secs = 0.0;
  for (int b = 0; b < kFullBatches; ++b) {
    for (int i = 0; i < kBatch; ++i) {
      db.add(make_record(centers, ingested++, rng));
    }
    const auto t0 = std::chrono::steady_clock::now();
    analyzer.ensure_fitted(db);
    full_secs += seconds_since(t0);
    for (int i = 0; i < kClassifies; ++i) {
      (void)analyzer.classify(db, probes[static_cast<std::size_t>(i) %
                                         probes.size()]);
    }
  }
  set_incremental_fit(true);
  out.full_ms = full_secs / kFullBatches * 1e3;
  out.speedup = (full_secs / kFullBatches) / (incr_secs / kIncrBatches);
  return out;
}

}  // namespace

int main() {
  const bool gates = env_size("HARMONY_INCFIT_GATES", 1) != 0;
  const std::size_t scale = env_size("HARMONY_INCFIT_SCALE", 1'000'000);
  const std::size_t kmeans_scale = std::min<std::size_t>(scale, 200'000);

  bench::section("Incremental classifier maintenance at " +
                 std::to_string(scale) + " records");
  bench::expectation(
      "with the delta-aware refit path on, a steady-state dispatch batch "
      "(64 ingests + refit + 8 retrievals) pays an O(batch) model update "
      ">= 5x cheaper than the O(db) rebuild, and the maintained "
      "least-square model answers exactly like a fresh fit");

  Table table({"classifier", "rows", "full refit", "incr refit", "speedup",
               "incr/full refits", "probe agreement"});
  RunResult lstsq, tree, kmeans;
  struct Row {
    const char* kind;
    const char* marker;
    std::size_t rows;
    RunResult* out;
  };
  const Row rows[] = {{"least-square", "LSTSQ", scale, &lstsq},
                      {"decision-tree", "TREE", scale, &tree},
                      {"k-means", "KMEANS", kmeans_scale, &kmeans}};
  for (const Row& r : rows) {
    *r.out = run_classifier(r.kind, r.rows);
    table.add_row({r.kind, std::to_string(r.rows),
                   Table::num(r.out->full_ms, 2) + " ms",
                   Table::num(r.out->incr_us, 0) + " us",
                   Table::num(r.out->speedup, 1) + "x",
                   std::to_string(r.out->incr_refits) + "/" +
                       std::to_string(r.out->escalations),
                   std::to_string(r.out->probes_agree) + "/" +
                       std::to_string(r.out->probes)});
    std::printf("INCFIT_%s_SPEEDUP %.1f\n", r.marker, r.out->speedup);
    std::printf("INCFIT_%s_INCR_US %.0f\n", r.marker, r.out->incr_us);
    std::printf("INCFIT_%s_FULL_MS %.2f\n", r.marker, r.out->full_ms);
  }
  bench::print_table(table, "incremental_fit");
  std::printf("INCFIT_KMEANS_ESCALATIONS %llu\n",
              static_cast<unsigned long long>(kmeans.escalations));

  std::printf("INCFIT_LSTSQ_REINDEXES %d\n", lstsq.reindexes);
  const bool lstsq_ok = lstsq.speedup >= 5.0 && lstsq.escalations == 0 &&
                        lstsq.reindexes >= 1 &&
                        lstsq.probes_agree == lstsq.probes;
  const bool tree_ok = tree.speedup >= 5.0 && tree.escalations == 0 &&
                       tree.probes_agree == tree.probes;
  bench::finding(lstsq_ok,
                 "least-square delta refit >= 5x cheaper with a re-index "
                 "in the window, zero escalations, classifications "
                 "identical");
  bench::finding(tree_ok,
                 "decision-tree delta refit >= 5x cheaper, zero escalations, "
                 "classifications identical");
  bench::finding(true, "k-means delta refit " +
                           std::to_string(kmeans.incr_refits) +
                           " incremental / " +
                           std::to_string(kmeans.escalations) +
                           " escalated (quality-gated; report-only)");
  if (!gates) return 0;
  return (lstsq_ok && tree_ok) ? 0 : 1;
}
