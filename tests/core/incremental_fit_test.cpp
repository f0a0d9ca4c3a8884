// Incremental classifier maintenance battery.
//
// The delta-aware refit path must be *provably* cheap to trust: for the
// exact classifiers (least-square index + unindexed tail, decision-tree
// insert, estimator sync) the incrementally maintained model is pinned
// bit-identical to a fresh full fit over the same data — across thread
// counts and SIMD levels (the scan kernels vectorize).
// The quality-gated k-means path is pinned to its hysteresis contract
// (absorb small deltas, escalate on drift) with the full rebuild as the
// oracle via set_incremental_fit(false). Chain-identity bookkeeping is
// pinned too: pure appends extend the chain, every structural mutation
// (copy, reserve, load, snapshot adopt, CoW detach, materialize) resets it
// and forces a counted full refit.
//
// Separate binary so the sanitizer CI jobs can name it: the battery flips
// the thread pool's worker count around every classifier.
#include <algorithm>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/estimator.hpp"
#include "core/history.hpp"
#include "core/protocol.hpp"
#include "core/store.hpp"
#include "util/mmap_file.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace harmony {
namespace {

/// Pins the incremental-fit toggle ON for the test body (this battery IS
/// the delta path's differential oracle, so it must exercise it even under
/// the CI leg that exports HARMONY_INCREMENTAL_FIT=off), and restores the
/// ambient toggle, SIMD level and worker count on exit so test order and
/// environment cannot leak configuration.
struct ConfigGuard {
  SimdLevel level = simd_level();
  bool incremental = incremental_fit_enabled();
  ConfigGuard() { set_incremental_fit(true); }
  ~ConfigGuard() {
    set_incremental_fit(incremental);
    set_simd_level(level);
    set_thread_count(1);
  }
};

ExperienceRecord make_record(Rng& rng, std::size_t dims, std::size_t i) {
  ExperienceRecord rec;
  rec.label = "w" + std::to_string(i % 7);
  rec.signature.resize(dims);
  for (double& v : rec.signature) v = rng.uniform01();
  Measurement m;
  m.config = {rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)};
  m.performance = rng.uniform(-50.0, 0.0);
  rec.measurements.push_back(std::move(m));
  return rec;
}

void append_records(HistoryDatabase& db, Rng& rng, std::size_t dims,
                    std::size_t n) {
  const std::size_t base = db.size();
  for (std::size_t i = 0; i < n; ++i) {
    db.add(make_record(rng, dims, base + i));
  }
}

std::vector<WorkloadSignature> make_probes(Rng& rng, std::size_t dims,
                                           std::size_t n) {
  std::vector<WorkloadSignature> probes;
  for (std::size_t p = 0; p < n; ++p) {
    WorkloadSignature sig(dims);
    for (double& v : sig) v = rng.uniform01();
    probes.push_back(std::move(sig));
  }
  return probes;
}

// --------------------------------------------------------------------------
// Chain-identity bookkeeping

TEST(AppendChain, PureAppendsExtendStructuralMutationsReset) {
  Rng rng(3);
  HistoryDatabase db;
  append_records(db, rng, 4, 3);
  const std::uint64_t chain = db.append_base();
  ASSERT_NE(chain, 0u);
  EXPECT_EQ(db.signature_view().append_base, chain);

  // add() bumps the version but keeps the chain.
  const std::uint64_t v0 = db.version();
  append_records(db, rng, 4, 2);
  EXPECT_NE(db.version(), v0);
  EXPECT_EQ(db.append_base(), chain);
  EXPECT_EQ(db.signature_view().append_base, chain);

  // reserve() may move the flat store: chain redrawn.
  db.reserve(64, 64 * 4);
  const std::uint64_t after_reserve = db.append_base();
  EXPECT_NE(after_reserve, chain);
  EXPECT_EQ(db.append_base_rows(), db.size());

  // Copy-assignment: the copy gets its own fresh chain.
  HistoryDatabase copy;
  copy = db;
  EXPECT_NE(copy.append_base(), db.append_base());

  // load() replaces the contents: chain redrawn.
  std::stringstream ss;
  db.save(ss);
  db.load(ss);
  EXPECT_NE(db.append_base(), after_reserve);
}

// --------------------------------------------------------------------------
// Least-square: the exact incremental path

TEST(LeastSquareIncremental, AppendBitIdenticalAcrossThreadsAndSimd) {
  ConfigGuard guard;
  constexpr std::size_t kDims = 16;
  constexpr std::size_t kBase = 12'000;
  // Three batches stay in the unindexed tail; the fourth re-indexes.
  constexpr std::size_t kAppend = 500;
  const std::vector<SimdLevel> levels =
      guard.level == SimdLevel::kScalar
          ? std::vector<SimdLevel>{SimdLevel::kScalar}
          : std::vector<SimdLevel>{SimdLevel::kScalar, guard.level};
  for (const unsigned threads : {1u, 8u}) {
    for (const SimdLevel level : levels) {
      set_thread_count(threads);
      set_simd_level(level);
      Rng rng(91);
      HistoryDatabase db;
      append_records(db, rng, kDims, kBase);

      LeastSquareClassifier inc;
      inc.refit(db.signature_view());
      for (int batch = 0; batch < 4; ++batch) {
        append_records(db, rng, kDims, kAppend);
        inc.refit(db.signature_view());
      }
      EXPECT_EQ(inc.refit_stats().full, 1u);
      EXPECT_EQ(inc.refit_stats().incremental, 4u);

      LeastSquareClassifier full;
      full.fit(db.signature_view());

      // Both models answer exactly like the scalar reference; the delta
      // path keeps the appended rows in its unindexed tail or re-indexes
      // once the tail outgrows an eighth of the index.
      const SignatureView view = db.signature_view();
      for (const WorkloadSignature& p : make_probes(rng, kDims, 16)) {
        const std::size_t want = nearest_signature_scalar(
            view.data, view.count, view.dims, p.data());
        EXPECT_EQ(inc.classify(p), want)
            << "threads " << threads << " simd " << simd_level_name(level);
        EXPECT_EQ(full.classify(p), want);
      }
      EXPECT_EQ(full.indexed_rows(), view.count);
      EXPECT_LE(view.count - inc.indexed_rows(), inc.indexed_rows() / 8);
    }
  }
}

TEST(LeastSquareIncremental, NarrowSetStaysExact) {
  ConfigGuard guard;
  constexpr std::size_t kDims = 2;
  Rng rng(5);
  HistoryDatabase db;
  append_records(db, rng, kDims, 50);
  LeastSquareClassifier inc;
  inc.refit(db.signature_view());
  append_records(db, rng, kDims, 20);
  inc.refit(db.signature_view());
  EXPECT_EQ(inc.refit_stats().incremental, 1u);
  LeastSquareClassifier full;
  full.fit(db.signature_view());
  for (const WorkloadSignature& p : make_probes(rng, kDims, 16)) {
    EXPECT_EQ(inc.classify(p), full.classify(p));
  }
}

TEST(LeastSquareIncremental, ToggleOffPinsEveryRefitFull) {
  ConfigGuard guard;
  set_incremental_fit(false);
  Rng rng(6);
  HistoryDatabase db;
  append_records(db, rng, 8, 40);
  LeastSquareClassifier c;
  c.refit(db.signature_view());
  append_records(db, rng, 8, 10);
  c.refit(db.signature_view());
  EXPECT_EQ(c.refit_stats().full, 2u);
  EXPECT_EQ(c.refit_stats().incremental, 0u);
}

TEST(LeastSquareIncremental, StructuralMutationsForceCountedFullRefit) {
  ConfigGuard guard;
  Rng rng(7);
  HistoryDatabase db;
  append_records(db, rng, 8, 100);
  LeastSquareClassifier c;
  c.refit(db.signature_view());  // full #1
  append_records(db, rng, 8, 10);
  c.refit(db.signature_view());  // incremental #1
  db.reserve(400, 400 * 8);
  c.refit(db.signature_view());  // full #2: reserve reset the chain
  append_records(db, rng, 8, 10);
  c.refit(db.signature_view());  // incremental #2: new chain extends fine
  std::stringstream ss;
  db.save(ss);
  db.load(ss);
  c.refit(db.signature_view());  // full #3: load replaced the contents
  EXPECT_EQ(c.refit_stats().full, 3u);
  EXPECT_EQ(c.refit_stats().incremental, 2u);

  // A view from a different database never extends this chain, even at a
  // larger count: chain identity, not version ordering, is the proof.
  HistoryDatabase other;
  Rng rng2(8);
  append_records(other, rng2, 8, db.size() + 5);
  c.refit(other.signature_view());
  EXPECT_EQ(c.refit_stats().full, 4u);
}

TEST(LeastSquareIncremental, SnapshotAdoptAndCowDetachResetTheChain) {
  ConfigGuard guard;
  const std::string prefix =
      ::testing::TempDir() + "/harmony_incfit_store";
  remove_file(ExperienceStore::log_path(prefix));
  remove_file(ExperienceStore::snapshot_path(prefix));
  Rng rng(9);
  {
    HistoryDatabase db;
    ExperienceStore store;
    store.open(prefix, db);
    for (std::size_t i = 0; i < 40; ++i) {
      ExperienceRecord rec = make_record(rng, 8, i);
      store.append(rec);
      db.add(std::move(rec));
    }
    store.commit();
    store.snapshot(db);
    store.close();
  }
  HistoryDatabase db;
  ExperienceStore store;
  const RecoveryInfo info = store.open(prefix, db);
  ASSERT_TRUE(info.had_snapshot);
  ASSERT_NE(db.snapshot_backing(), nullptr);

  LeastSquareClassifier c;
  c.refit(db.signature_view());  // full #1 over the borrowed mapping
  EXPECT_TRUE(c.index_borrowed());
  // First add() detaches copy-on-write from the mapping: the flat store
  // moved, so the chain resets and this delta must NOT be absorbed. The
  // snapshot's rows are still a prefix, so its index stays borrowed.
  db.add(make_record(rng, 8, db.size()));
  c.refit(db.signature_view());  // full #2
  EXPECT_EQ(c.refit_stats().full, 2u);
  EXPECT_EQ(c.refit_stats().incremental, 0u);
  EXPECT_TRUE(c.index_borrowed());
  EXPECT_EQ(c.indexed_rows(), 40u);
  // Now the store is owned: further appends extend the new chain.
  db.add(make_record(rng, 8, db.size()));
  c.refit(db.signature_view());
  EXPECT_EQ(c.refit_stats().incremental, 1u);
  // materialize() is a structural mutation too.
  db.materialize();
  c.refit(db.signature_view());
  EXPECT_EQ(c.refit_stats().full, 3u);
  EXPECT_FALSE(c.index_borrowed());  // the mapping is gone: owned index
  EXPECT_EQ(c.indexed_rows(), db.size());
  store.close();
  remove_file(ExperienceStore::log_path(prefix));
  remove_file(ExperienceStore::snapshot_path(prefix));
}

// --------------------------------------------------------------------------
// Decision tree: exact inserts with scapegoat hysteresis

TEST(DecisionTreeIncremental, InsertsStayExactAgainstFreshFit) {
  ConfigGuard guard;
  constexpr std::size_t kDims = 4;
  Rng rng(21);
  HistoryDatabase db;
  append_records(db, rng, kDims, 300);
  DecisionTreeClassifier inc(4);
  inc.refit(db.signature_view());
  for (int batch = 0; batch < 4; ++batch) {
    append_records(db, rng, kDims, 50);
    inc.refit(db.signature_view());
  }
  EXPECT_GE(inc.refit_stats().incremental, 1u);

  DecisionTreeClassifier full(4);
  full.fit(db.signature_view());
  const SignatureView view = db.signature_view();
  for (const WorkloadSignature& p : make_probes(rng, kDims, 25)) {
    const std::size_t got = inc.classify(p);
    const std::size_t want = full.classify(p);
    // Both trees are exact nearest-neighbour searches; with continuous
    // random data the winner is unique, but compare by distance so an
    // exact tie cannot flake the test.
    EXPECT_DOUBLE_EQ(
        detail::signature_partial_sq(view.row(got), p.data(), 0, kDims, 0.0),
        detail::signature_partial_sq(view.row(want), p.data(), 0, kDims,
                                     0.0));
  }
}

TEST(DecisionTreeIncremental, WasteHysteresisEventuallyRebuilds) {
  ConfigGuard guard;
  constexpr std::size_t kDims = 3;
  Rng rng(22);
  HistoryDatabase db;
  append_records(db, rng, kDims, 16);
  DecisionTreeClassifier inc(4);
  inc.refit(db.signature_view());
  // Keep appending: leaf-split grafts orphan member slots until the waste
  // bound (or the depth bound) trips and refit() escalates to a compacting
  // full rebuild. It must happen well within this budget.
  bool escalated = false;
  for (int batch = 0; batch < 200 && !escalated; ++batch) {
    append_records(db, rng, kDims, 16);
    inc.refit(db.signature_view());
    escalated = inc.refit_stats().full > 1;
  }
  EXPECT_TRUE(escalated);
  // And the rebuilt tree keeps answering exactly.
  DecisionTreeClassifier full(4);
  full.fit(db.signature_view());
  const SignatureView view = db.signature_view();
  for (const WorkloadSignature& p : make_probes(rng, kDims, 10)) {
    EXPECT_DOUBLE_EQ(
        detail::signature_partial_sq(view.row(inc.classify(p)), p.data(), 0,
                                     kDims, 0.0),
        detail::signature_partial_sq(view.row(full.classify(p)), p.data(), 0,
                                     kDims, 0.0));
  }
}

// --------------------------------------------------------------------------
// K-means: quality-gated hysteresis

TEST(KMeansIncremental, AbsorbsSmallDeltasEscalatesOnDrift) {
  ConfigGuard guard;
  constexpr std::size_t kDims = 8;
  Rng rng(33);
  HistoryDatabase db;
  append_records(db, rng, kDims, 400);
  // Enough Lloyd's iterations that every full fit converges: the
  // post-escalation delta check below assumes the restricted pass starts
  // from a converged model (an unconverged one keeps moving rows and the
  // drift hysteresis would — correctly — escalate again).
  KMeansClassifier km(8, 42, 50);
  km.refit(db.signature_view());
  EXPECT_EQ(km.refit_stats().full, 1u);

  // Small delta (<= a quarter of the set): absorbed incrementally.
  append_records(db, rng, kDims, 20);
  km.refit(db.signature_view());
  EXPECT_EQ(km.refit_stats().incremental, 1u);

  // Bulk delta past the drift threshold: the pre-check escalates.
  append_records(db, rng, kDims, 300);
  km.refit(db.signature_view());
  EXPECT_EQ(km.refit_stats().full, 2u);

  // Escalation resets the pending counter: small deltas absorb again.
  append_records(db, rng, kDims, 20);
  km.refit(db.signature_view());
  EXPECT_EQ(km.refit_stats().incremental, 2u);

  // The oracle switch pins everything to the full path.
  set_incremental_fit(false);
  append_records(db, rng, kDims, 5);
  km.refit(db.signature_view());
  EXPECT_EQ(km.refit_stats().full, 3u);
}

TEST(KMeansIncremental, MatchesNearestNeighbourOnSeparatedClusters) {
  ConfigGuard guard;
  // Well-separated families: the incremental assignment must keep landing
  // queries on the exact nearest neighbour, like the full fit does.
  constexpr std::size_t kDims = 4;
  Rng rng(34);
  HistoryDatabase db;
  auto family_record = [&](std::size_t family) {
    ExperienceRecord rec;
    rec.label = "f" + std::to_string(family);
    rec.signature.assign(kDims, static_cast<double>(family) * 10.0);
    for (double& v : rec.signature) v += rng.normal(0.0, 0.05);
    return rec;
  };
  for (std::size_t i = 0; i < 120; ++i) db.add(family_record(i % 4));
  KMeansClassifier km(4, 42, 20);
  km.refit(db.signature_view());
  for (std::size_t i = 0; i < 16; ++i) db.add(family_record(i % 4));
  km.refit(db.signature_view());
  ASSERT_EQ(km.refit_stats().incremental, 1u);

  LeastSquareClassifier nn;
  nn.fit(db.signature_view());
  for (std::size_t q = 0; q < 12; ++q) {
    WorkloadSignature probe(kDims, static_cast<double>(q % 4) * 10.0);
    for (double& v : probe) v += rng.normal(0.0, 0.05);
    EXPECT_EQ(km.classify(probe), nn.classify(probe));
  }
}

// --------------------------------------------------------------------------
// Estimator: delta-aware sync

TEST(EstimatorSync, MatchesAddAllBitForBit) {
  ParameterSpace space;
  for (int i = 0; i < 3; ++i) {
    space.add(ParameterDef("p" + std::to_string(i), 0, 10, 1, 5));
  }
  Rng rng(44);
  std::vector<Measurement> log;
  PerformanceEstimator synced(space);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 30; ++i) {
      Measurement m;
      m.config = {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
                  rng.uniform(0.0, 10.0)};
      m.performance = rng.uniform(0.0, 100.0);
      log.push_back(std::move(m));
    }
    synced.sync(log);  // O(new) per round on the append-only log
    ASSERT_EQ(synced.size(), log.size());
  }
  synced.sync(log);  // no-op resync
  ASSERT_EQ(synced.size(), log.size());

  PerformanceEstimator fresh(space);
  fresh.add_all(log);
  for (int q = 0; q < 20; ++q) {
    const Configuration target = {rng.uniform(0.0, 10.0),
                                  rng.uniform(0.0, 10.0),
                                  rng.uniform(0.0, 10.0)};
    const auto a = synced.estimate(target, 4);
    const auto b = fresh.estimate(target, 4);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.residual_norm, b.residual_norm);
    EXPECT_EQ(a.points_used, b.points_used);
    EXPECT_EQ(a.extrapolated, b.extrapolated);
    EXPECT_EQ(synced.exact(space.snap(log[static_cast<std::size_t>(q)].config))
                  .value_or(-1.0),
              fresh.exact(space.snap(log[static_cast<std::size_t>(q)].config))
                  .value_or(-1.0));
  }
}

// --------------------------------------------------------------------------
// Protocol: sequential sessions share one fitted model

TEST(SharedSessionClassifier, SequentialSessionsFitOnceAndAbsorbAppends) {
  ConfigGuard guard;
  Rng rng(55);
  HistoryDatabase db;
  append_records(db, rng, 2, 8);

  proto::SessionOptions so;
  so.classifier = std::make_shared<LeastSquareClassifier>();
  so.record_experience = false;  // keep the database stable across sessions
  so.tuning.simplex.max_evaluations = 6;
  const std::string rsl =
      "{ harmonyBundle p0 { int {0 20 1 0} } }"
      "{ harmonyBundle p1 { int {0 20 1 0} } }";

  auto run_session = [&]() {
    proto::ServerSession session(so, &db);
    proto::HarmonyClient client(
        [&session](const proto::Message& m) { return session.handle(m); });
    client.open("t", rsl);
    (void)client.send_signature(db.record(0).signature);
    while (const auto config = client.fetch()) {
      double perf = 0.0;
      for (double v : *config) perf -= (v - 3.0) * (v - 3.0);
      client.report(perf);
    }
    client.close();
    return std::make_pair(client.server_full_refits(),
                          client.server_incremental_refits());
  };

  // Two sessions against an unchanged database: the shared classifier is
  // fitted exactly once — the second session's retrieval is a version-check
  // no-op, not a second rebuild (the double-refit this option exists to
  // kill).
  (void)run_session();
  const auto [full2, incr2] = run_session();
  EXPECT_EQ(so.classifier->refit_stats().full, 1u);
  EXPECT_EQ(so.classifier->refit_stats().incremental, 0u);
  // The DONE extension surfaced the counters to the client.
  EXPECT_EQ(full2, 1u);
  EXPECT_EQ(incr2, 0u);

  // An append between sessions is absorbed as a delta, not a rebuild.
  db.add(make_record(rng, 2, db.size()));
  const auto [full3, incr3] = run_session();
  EXPECT_EQ(so.classifier->refit_stats().full, 1u);
  EXPECT_EQ(so.classifier->refit_stats().incremental, 1u);
  EXPECT_EQ(full3, 1u);
  EXPECT_EQ(incr3, 1u);
}

}  // namespace
}  // namespace harmony
