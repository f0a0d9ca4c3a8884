// Persistence bench: the durable experience store's three cost centres.
//
//   append     — group-committed log ingest, reported as MB/s and
//                records/s over the full synthetic database.
//   snapshot   — one rotation (write + fsync + atomic rename + log reset),
//                reported as wall time and write bandwidth.
//   cold start — time from "process knows the store prefix" to "first
//                classify answered", three ways over the same bytes:
//                  mmap    — ExperienceStore::open adopts the snapshot
//                            zero-copy (borrowed SoA rows + borrowed k-d
//                            index, whose row ids are checked at open in
//                            one O(n) pass), fit is O(1), classify pages
//                            in the few leaves it visits.
//                  replay  — record-by-record rebuild from the snapshot's
//                            own blobs: decode every record, re-add it,
//                            refit from scratch (an O(n log n) index
//                            build). The binary lower bound of any
//                            record-at-a-time loader.
//                  text    — the repo's pre-existing persistence: the
//                            versioned text format, parsed record by
//                            record. What cold start cost before the store
//                            existed.
//
// Gates: the mmap cold start must beat the text rebuild by >= 100x at the
// full one-million-record scale (>= 20x at reduced scales, where constant
// costs dominate), beat the binary replay by >= 5x, and all three paths
// must answer the first classify with the identical record index. The
// replay gate is deliberately lower than the text gate: both in-memory
// loaders share the decode cost, which bounds how far ahead of a binary
// decoder any loader can get.
//
// HARMONY_PERSIST_SCALE overrides the record count (default 1,000,000) for
// quick local runs and CI smokes.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "core/store.hpp"
#include "util/mmap_file.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace harmony;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  bench::section("Persistence: append-only log + mmap'd snapshot store");
  bench::expectation(
      "mmap cold start to first classify >= 100x faster than the text-format "
      "record-by-record rebuild (>= 20x at reduced scale) and >= 5x faster "
      "than binary replay, with identical classifications");

  std::size_t n_records = 1'000'000;
  if (const char* env = std::getenv("HARMONY_PERSIST_SCALE")) {
    const long v = std::atol(env);
    if (v > 0) n_records = static_cast<std::size_t>(v);
  }
  const bool full_scale = n_records >= 1'000'000;
  const std::size_t dims = 16;
  const std::size_t n_centers = 64;

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string prefix =
      std::string(tmpdir != nullptr ? tmpdir : ".") + "/persist_bench_store";
  const std::string text_path = prefix + ".txt";
  remove_file(ExperienceStore::log_path(prefix));
  remove_file(ExperienceStore::snapshot_path(prefix));
  remove_file(text_path);

  std::printf("records: %zu, signature dims: %zu, store prefix: %s\n\n",
              n_records, dims, prefix.c_str());

  // Clustered population, mirroring history_scale: workload families plus
  // observation noise, one measurement per record so blobs are non-trivial.
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
  db.reserve(n_records, n_records * dims);
  for (std::size_t i = 0; i < n_records; ++i) {
    ExperienceRecord rec;
    rec.signature = centers[i % n_centers];
    for (double& v : rec.signature) {
      v = std::max(0.0, v + rng.normal(0.0, 0.003));
    }
    rec.label = "w" + std::to_string(i % n_centers);
    Measurement m;
    m.config = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0),
                rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    m.performance = rng.uniform(0.0, 1.0);
    rec.measurements.push_back(std::move(m));
    db.add(std::move(rec));
  }

  WorkloadSignature query = centers[17];
  Rng qrng(99);
  for (double& v : query) v = std::max(0.0, v + qrng.normal(0.0, 0.004));

  Table t({"phase", "time", "rate"});

  // ---- append: group-committed log ingest --------------------------------
  double append_mb_per_sec = 0.0, append_recs_per_sec = 0.0;
  {
    ExperienceStore store;
    HistoryDatabase scratch;
    store.open(prefix, scratch);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n_records; ++i) store.append(db.record(i));
    store.flush();
    const double secs = seconds_since(t0);
    const double mb =
        static_cast<double>(file_size(ExperienceStore::log_path(prefix))) /
        (1024.0 * 1024.0);
    append_mb_per_sec = mb / secs;
    append_recs_per_sec = static_cast<double>(n_records) / secs;
    t.add_row({"append " + std::to_string(n_records) + " records",
               Table::num(secs * 1e3, 0) + " ms",
               Table::num(append_mb_per_sec, 0) + " MB/s"});

    // ---- snapshot rotation ----------------------------------------------
    const auto t1 = std::chrono::steady_clock::now();
    store.snapshot(db);
    const double snap_secs = seconds_since(t1);
    const double snap_mb =
        static_cast<double>(
            file_size(ExperienceStore::snapshot_path(prefix))) /
        (1024.0 * 1024.0);
    t.add_row({"snapshot rotation (" + Table::num(snap_mb, 0) + " MB)",
               Table::num(snap_secs * 1e3, 0) + " ms",
               Table::num(snap_mb / snap_secs, 0) + " MB/s"});
    std::printf("PERSIST_append_mb_per_sec %.0f\n", append_mb_per_sec);
    std::printf("PERSIST_append_records_per_sec %.0f\n", append_recs_per_sec);
    std::printf("PERSIST_snapshot_write_ms %.1f\n", snap_secs * 1e3);
    store.close();
  }

  // The repo's pre-existing persistence, as the text-rebuild baseline input.
  db.save_file(text_path);

  // ---- cold start, three ways over the same records ----------------------
  // Each path starts from nothing but a file path and stops at its first
  // answered classify. Results must agree bit-identically: the snapshot
  // round-trips binary doubles, so the mmap'd scan sees the exact values
  // the in-memory scan does.
  std::size_t mmap_idx = 0, replay_idx = 1, text_idx = 2;
  double mmap_ms = 0.0, replay_ms = 0.0, text_ms = 0.0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    ExperienceStore store;
    HistoryDatabase cold;
    store.open(prefix, cold);
    LeastSquareClassifier ls;
    ls.fit(cold.signature_view());
    mmap_idx = ls.classify(query);
    mmap_ms = seconds_since(t0) * 1e3;
    t.add_row({"cold start mmap (open+fit+classify)",
               Table::num(mmap_ms, 2) + " ms", "-"});
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    const auto snap =
        SnapshotMapping::open(ExperienceStore::snapshot_path(prefix));
    HistoryDatabase rebuilt;
    rebuilt.reserve(snap->record_count(), snap->value_count());
    for (std::size_t i = 0; i < snap->record_count(); ++i) {
      rebuilt.add(snap->decode_record(i));
    }
    LeastSquareClassifier ls;
    ls.fit(rebuilt.signature_view());
    replay_idx = ls.classify(query);
    replay_ms = seconds_since(t0) * 1e3;
    t.add_row({"cold start binary replay (decode+add+fit)",
               Table::num(replay_ms, 1) + " ms", "-"});
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    HistoryDatabase parsed;
    parsed.load_file(text_path);
    LeastSquareClassifier ls;
    ls.fit(parsed.signature_view());
    text_idx = ls.classify(query);
    text_ms = seconds_since(t0) * 1e3;
    t.add_row({"cold start text rebuild (parse+add+fit)",
               Table::num(text_ms, 1) + " ms", "-"});
  }

  const double speedup_text = text_ms / mmap_ms;
  const double speedup_replay = replay_ms / mmap_ms;
  std::printf("PERSIST_cold_start_ms %.2f\n", mmap_ms);
  std::printf("PERSIST_replay_rebuild_ms %.1f\n", replay_ms);
  std::printf("PERSIST_text_rebuild_ms %.1f\n", text_ms);
  std::printf("PERSIST_cold_start_speedup_vs_text %.1f\n", speedup_text);
  std::printf("PERSIST_cold_start_speedup_vs_replay %.1f\n", speedup_replay);

  bench::print_table(t, "persistence_throughput");

  const bool same = mmap_idx == replay_idx && mmap_idx == text_idx;
  const double text_gate = full_scale ? 100.0 : 20.0;
  const bool text_ok = speedup_text >= text_gate;
  const bool replay_ok = speedup_replay >= 5.0;
  bench::finding(same,
                 "first classify identical across mmap, binary replay and "
                 "text rebuild");
  bench::finding(text_ok, "mmap cold start >= " +
                              std::to_string(static_cast<int>(text_gate)) +
                              "x faster than text record-by-record rebuild");
  bench::finding(replay_ok,
                 "mmap cold start >= 5x faster than binary replay");

  remove_file(ExperienceStore::log_path(prefix));
  remove_file(ExperienceStore::snapshot_path(prefix));
  remove_file(text_path);
  return (same && text_ok && replay_ok) ? 0 : 1;
}
