// Durable experience store battery: codec round trips, zero-copy snapshot
// adoption, watermark-correct log replay, torn-tail and CRC-corruption
// recovery, bit-identical classify between mmap'd and in-memory stores
// across thread counts and SIMD levels, concurrent lazy record decode, and
// a seeded crash fuzz that kills the simulated disk at random byte budgets
// over the append/rotate protocol and requires every recovery to be a
// consistent prefix of the appended sequence.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "core/server.hpp"
#include "core/store.hpp"
#include "synth/landscapes.hpp"
#include "util/crc32.hpp"
#include "util/mmap_file.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace harmony {
namespace {

std::string temp_prefix(const std::string& tag) {
  const std::string prefix = ::testing::TempDir() + "/harmony_store_" + tag;
  remove_file(ExperienceStore::log_path(prefix));
  remove_file(ExperienceStore::snapshot_path(prefix));
  return prefix;
}

ExperienceRecord make_record(Rng& rng, std::size_t dims, std::size_t i) {
  ExperienceRecord rec;
  rec.label = "workload-" + std::to_string(i % 7);
  rec.signature.resize(dims);
  for (double& v : rec.signature) v = rng.uniform01();
  const std::size_t n_meas = 1 + i % 3;
  for (std::size_t m = 0; m < n_meas; ++m) {
    Measurement meas;
    meas.config = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0),
                   rng.uniform(0.0, 100.0)};
    meas.performance = rng.uniform(0.0, 10.0);
    meas.estimated = (i + m) % 5 == 0;
    meas.censored = (i + m) % 11 == 0;
    rec.measurements.push_back(std::move(meas));
  }
  return rec;
}

void expect_records_equal(const ExperienceRecord& a, const ExperienceRecord& b,
                          const std::string& where) {
  EXPECT_EQ(a.label, b.label) << where;
  ASSERT_EQ(a.signature.size(), b.signature.size()) << where;
  for (std::size_t d = 0; d < a.signature.size(); ++d) {
    EXPECT_EQ(a.signature[d], b.signature[d]) << where << " sig[" << d << "]";
  }
  ASSERT_EQ(a.measurements.size(), b.measurements.size()) << where;
  for (std::size_t m = 0; m < a.measurements.size(); ++m) {
    const Measurement& am = a.measurements[m];
    const Measurement& bm = b.measurements[m];
    EXPECT_EQ(am.performance, bm.performance) << where;
    EXPECT_EQ(am.estimated, bm.estimated) << where;
    EXPECT_EQ(am.censored, bm.censored) << where;
    ASSERT_EQ(am.config.size(), bm.config.size()) << where;
    for (std::size_t c = 0; c < am.config.size(); ++c) {
      EXPECT_EQ(am.config[c], bm.config[c]) << where;
    }
  }
}

TEST(RecordCodec, RoundTripsAllFieldsWithAndWithoutSignature) {
  Rng rng(7);
  for (std::size_t i = 0; i < 20; ++i) {
    const ExperienceRecord rec = make_record(rng, 3 + i % 4, i);
    for (const bool with_sig : {true, false}) {
      std::vector<unsigned char> buf(encoded_record_size(rec, with_sig));
      encode_record(rec, with_sig, buf.data());
      ExperienceRecord back =
          decode_record_payload(buf.data(), buf.size(), with_sig);
      if (!with_sig) {
        EXPECT_TRUE(back.signature.empty());
        back.signature = rec.signature;
      }
      expect_records_equal(rec, back, "codec record " + std::to_string(i));
    }
  }
  // Empty record (no measurements, empty label) survives too.
  ExperienceRecord empty;
  empty.signature = {1.0};
  std::vector<unsigned char> buf(encoded_record_size(empty, true));
  encode_record(empty, true, buf.data());
  const ExperienceRecord back =
      decode_record_payload(buf.data(), buf.size(), true);
  expect_records_equal(empty, back, "empty record");
}

TEST(RecordCodec, RejectsTruncatedAndTrailingBytes) {
  Rng rng(9);
  const ExperienceRecord rec = make_record(rng, 4, 0);
  std::vector<unsigned char> buf(encoded_record_size(rec, true));
  encode_record(rec, true, buf.data());
  EXPECT_THROW(decode_record_payload(buf.data(), buf.size() - 1, true), Error);
  buf.push_back(0);
  EXPECT_THROW(decode_record_payload(buf.data(), buf.size(), true), Error);
}

TEST(ExperienceStore, CreatesEmptyStoreAndReopensIt) {
  const std::string prefix = temp_prefix("fresh");
  {
    ExperienceStore store;
    HistoryDatabase db;
    const RecoveryInfo info = store.open(prefix, db);
    EXPECT_FALSE(info.had_snapshot);
    EXPECT_EQ(info.replayed_records, 0u);
    EXPECT_TRUE(db.empty());
  }
  ExperienceStore store;
  HistoryDatabase db;
  const RecoveryInfo info = store.open(prefix, db);
  EXPECT_FALSE(info.had_snapshot);
  EXPECT_EQ(info.truncated_bytes, 0u);
  EXPECT_TRUE(db.empty());
}

TEST(ExperienceStore, LogReplayRoundTripsRecords) {
  const std::string prefix = temp_prefix("replay");
  Rng rng(11);
  std::vector<ExperienceRecord> expected;
  {
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    for (std::size_t i = 0; i < 30; ++i) {
      expected.push_back(make_record(rng, 5, i));
      store.append(expected.back());
    }
    store.flush();
  }
  ExperienceStore store;
  HistoryDatabase db;
  const RecoveryInfo info = store.open(prefix, db);
  EXPECT_FALSE(info.had_snapshot);
  EXPECT_EQ(info.replayed_records, 30u);
  ASSERT_EQ(db.size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) {
    expect_records_equal(expected[i], db.record(i),
                         "replayed " + std::to_string(i));
  }
}

TEST(ExperienceStore, UnflushedTailSurvivesDestructorDrain) {
  const std::string prefix = temp_prefix("drain");
  Rng rng(13);
  ExperienceRecord rec = make_record(rng, 4, 1);
  {
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    store.append(rec);
    // No flush: the destructor's graceful drain must commit it.
  }
  ExperienceStore store;
  HistoryDatabase db;
  store.open(prefix, db);
  ASSERT_EQ(db.size(), 1u);
  expect_records_equal(rec, db.record(0), "drained record");
}

TEST(ExperienceStore, SnapshotAdoptsZeroCopyAndMatchesOriginal) {
  const std::string prefix = temp_prefix("snap");
  Rng rng(17);
  std::vector<ExperienceRecord> expected;
  {
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    for (std::size_t i = 0; i < 40; ++i) {
      expected.push_back(make_record(rng, 6, i));
      store.append(expected.back());
      db.add(expected.back());
    }
    store.snapshot(db);
    EXPECT_EQ(store.tail_records(), 0u);
  }
  ExperienceStore store;
  HistoryDatabase db;
  const RecoveryInfo info = store.open(prefix, db);
  EXPECT_TRUE(info.had_snapshot);
  EXPECT_EQ(info.snapshot_records, 40u);
  EXPECT_EQ(info.replayed_records, 0u);
  ASSERT_EQ(db.size(), 40u);
  // Borrowed mode: the signature view points into the mapping, with the
  // persisted least-square index riding along.
  ASSERT_NE(db.snapshot_backing(), nullptr);
  const SignatureView view = db.signature_view();
  EXPECT_EQ(view.count, 40u);
  EXPECT_EQ(view.dims, 6u);
  EXPECT_EQ(view.index.rows, 40u);
  EXPECT_NE(view.index.ids, nullptr);
  const auto* mapping_data = db.snapshot_backing()->sig_data();
  EXPECT_EQ(view.data, mapping_data) << "view must borrow the mapping";
  for (std::size_t i = 0; i < 40; ++i) {
    expect_records_equal(expected[i], db.record(i),
                         "snapshot record " + std::to_string(i));
  }
  // materialize() via records() detaches from the mapping, same contents.
  const std::vector<ExperienceRecord>& owned = db.records();
  EXPECT_EQ(db.snapshot_backing(), nullptr);
  ASSERT_EQ(owned.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    expect_records_equal(expected[i], owned[i],
                         "materialized " + std::to_string(i));
  }
}

TEST(ExperienceStore, ReplaysOnlyFramesPastTheWatermark) {
  const std::string prefix = temp_prefix("watermark");
  Rng rng(19);
  std::vector<ExperienceRecord> expected;
  {
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    for (std::size_t i = 0; i < 10; ++i) {
      expected.push_back(make_record(rng, 4, i));
      store.append(expected.back());
      db.add(expected.back());
    }
    store.snapshot(db);
    for (std::size_t i = 10; i < 15; ++i) {
      expected.push_back(make_record(rng, 4, i));
      store.append(expected.back());
      db.add(expected.back());
    }
    store.flush();
  }
  ExperienceStore store;
  HistoryDatabase db;
  const RecoveryInfo info = store.open(prefix, db);
  EXPECT_EQ(info.snapshot_records, 10u);
  EXPECT_EQ(info.replayed_records, 5u);
  ASSERT_EQ(db.size(), 15u);
  for (std::size_t i = 0; i < 15; ++i) {
    expect_records_equal(expected[i], db.record(i),
                         "tail record " + std::to_string(i));
  }
  EXPECT_EQ(store.tail_records(), 5u);
}

TEST(ExperienceStore, AddAfterAdoptCopiesSignaturesOnWrite) {
  const std::string prefix = temp_prefix("cow");
  Rng rng(23);
  std::vector<ExperienceRecord> expected;
  {
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    for (std::size_t i = 0; i < 12; ++i) {
      expected.push_back(make_record(rng, 5, i));
      store.append(expected.back());
      db.add(expected.back());
    }
    store.snapshot(db);
  }
  ExperienceStore store;
  HistoryDatabase db;
  store.open(prefix, db);
  const std::uint64_t adopted_version = db.version();
  ExperienceRecord extra = make_record(rng, 5, 99);
  store.append(extra);
  db.add(extra);
  expected.push_back(extra);
  EXPECT_NE(db.version(), adopted_version) << "mutation must move the stamp";
  ASSERT_EQ(db.size(), 13u);
  const SignatureView view = db.signature_view();
  EXPECT_EQ(view.count, 13u);
  // The view is now owned (copy-on-write), but records below the watermark
  // still decode lazily out of the mapping.
  EXPECT_NE(view.data, nullptr);
  EXPECT_NE(db.snapshot_backing(), nullptr);
  for (std::size_t i = 0; i < 13; ++i) {
    expect_records_equal(expected[i], db.record(i),
                         "cow record " + std::to_string(i));
  }
  // A second snapshot covering the grown set round-trips everything.
  store.snapshot(db);
  ExperienceStore reopened;
  HistoryDatabase db2;
  const RecoveryInfo info = reopened.open(prefix, db2);
  EXPECT_EQ(info.snapshot_records, 13u);
  ASSERT_EQ(db2.size(), 13u);
  for (std::size_t i = 0; i < 13; ++i) {
    expect_records_equal(expected[i], db2.record(i),
                         "resnapshot " + std::to_string(i));
  }
}

TEST(ExperienceStore, TornTailIsTruncatedAndEarlierRecordsSurvive) {
  const std::string prefix = temp_prefix("torn");
  Rng rng(29);
  std::vector<ExperienceRecord> expected;
  {
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    for (std::size_t i = 0; i < 8; ++i) {
      expected.push_back(make_record(rng, 4, i));
      store.append(expected.back());
    }
    store.flush();
  }
  // A crash mid-write leaves a partial frame: fake one by appending half a
  // frame header plus garbage.
  {
    std::ofstream out(ExperienceStore::log_path(prefix),
                      std::ios::binary | std::ios::app);
    const unsigned char garbage[] = {0x20, 0x00, 0x00, 0x00, 0xde, 0xad};
    out.write(reinterpret_cast<const char*>(garbage), sizeof(garbage));
  }
  ExperienceStore store;
  HistoryDatabase db;
  const RecoveryInfo info = store.open(prefix, db);
  EXPECT_EQ(info.truncated_bytes, 6u);
  ASSERT_EQ(db.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    expect_records_equal(expected[i], db.record(i),
                         "survivor " + std::to_string(i));
  }
  // The torn bytes are gone from disk: appending new records after the
  // truncation and reopening yields exactly 9 clean frames.
  store.append(expected[0]);
  store.flush();
  ExperienceStore again;
  HistoryDatabase db2;
  const RecoveryInfo info2 = again.open(prefix, db2);
  EXPECT_EQ(info2.truncated_bytes, 0u);
  EXPECT_EQ(db2.size(), 9u);
}

TEST(ExperienceStore, CrcCorruptedFrameIsRejected) {
  const std::string prefix = temp_prefix("crc");
  Rng rng(31);
  std::vector<ExperienceRecord> expected;
  std::uint64_t clean_size = 0;
  {
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    for (std::size_t i = 0; i < 5; ++i) {
      expected.push_back(make_record(rng, 4, i));
      store.append(expected.back());
      store.flush();
      if (i == 3) clean_size = file_size(ExperienceStore::log_path(prefix));
    }
  }
  // Flip one payload byte inside the final frame: its CRC must reject it,
  // costing exactly that record and nothing before it.
  {
    std::fstream f(ExperienceStore::log_path(prefix),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(clean_size) + 12);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(clean_size) + 12);
    f.write(&byte, 1);
  }
  ExperienceStore store;
  HistoryDatabase db;
  const RecoveryInfo info = store.open(prefix, db);
  EXPECT_GT(info.truncated_bytes, 0u);
  ASSERT_EQ(db.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    expect_records_equal(expected[i], db.record(i),
                         "pre-corruption " + std::to_string(i));
  }
}

TEST(ExperienceStore, CorruptSnapshotHeaderIsRefused) {
  const std::string prefix = temp_prefix("snapcrc");
  Rng rng(37);
  {
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    for (std::size_t i = 0; i < 6; ++i) {
      const ExperienceRecord rec = make_record(rng, 4, i);
      store.append(rec);
      db.add(rec);
    }
    store.snapshot(db);
  }
  {
    std::fstream f(ExperienceStore::snapshot_path(prefix),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(16);  // record_count field: header CRC must catch the edit
    const char evil = 0x7f;
    f.write(&evil, 1);
  }
  ExperienceStore store;
  HistoryDatabase db;
  EXPECT_THROW(store.open(prefix, db), Error);
}

std::vector<unsigned char> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<unsigned char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
T peek(const std::vector<unsigned char>& b, std::size_t at) {
  T v;
  std::memcpy(&v, b.data() + at, sizeof v);
  return v;
}

template <typename T>
void poke(std::vector<unsigned char>& b, std::size_t at, T v) {
  std::memcpy(b.data() + at, &v, sizeof v);
}

/// Re-seals an edited snapshot header, so the edit reaches the section
/// checks instead of the header CRC.
void reseal_header(std::vector<unsigned char>& b) {
  poke<std::uint32_t>(b, 104, crc32(b.data(), 104));
}

/// A format-1 snapshot (the prune-sketch layout) written byte by byte:
/// header, signature offsets, signature doubles, a sketch section of
/// kSketchPlanes planes, record offsets, record blobs.
std::vector<unsigned char> version1_snapshot(
    const std::vector<ExperienceRecord>& recs, std::size_t dims) {
  constexpr std::uint64_t kSketchPlanes = 3;
  const std::uint64_t count = recs.size();
  const std::uint64_t values = count * dims;
  std::vector<unsigned char> blob;
  std::vector<std::uint64_t> rec_offsets{0};
  for (const ExperienceRecord& r : recs) {
    const std::size_t at = blob.size();
    blob.resize(at + encoded_record_size(r, false));
    encode_record(r, false, blob.data() + at);
    rec_offsets.push_back(blob.size());
  }
  const std::uint64_t sig_offsets_pos = 112;
  const std::uint64_t sig_data_pos = sig_offsets_pos + (count + 1) * 8;
  const std::uint64_t sketch_pos = sig_data_pos + values * 8;
  const std::uint64_t rec_offsets_pos = sketch_pos + count * kSketchPlanes * 8;
  const std::uint64_t blob_pos = rec_offsets_pos + (count + 1) * 8;
  std::vector<unsigned char> b(blob_pos + blob.size());
  std::memcpy(b.data(), "HRMNSNP1", 8);
  poke<std::uint32_t>(b, 8, 0x01020304u);
  poke<std::uint32_t>(b, 12, 1);  // format 1
  poke<std::uint64_t>(b, 16, count);
  poke<std::uint64_t>(b, 24, values);
  poke<std::uint64_t>(b, 32, 1u << 1);  // sketch present
  poke<std::uint64_t>(b, 40, dims);
  poke<std::uint64_t>(b, 48, 0);  // watermark
  poke<std::uint64_t>(b, 56, sig_offsets_pos);
  poke<std::uint64_t>(b, 64, sig_data_pos);
  poke<std::uint64_t>(b, 72, sketch_pos);
  poke<std::uint64_t>(b, 80, rec_offsets_pos);
  poke<std::uint64_t>(b, 88, blob_pos);
  poke<std::uint64_t>(b, 96, b.size());
  reseal_header(b);
  for (std::uint64_t i = 0; i <= count; ++i) {
    poke<std::uint64_t>(b, sig_offsets_pos + i * 8, i * dims);
    poke<std::uint64_t>(b, rec_offsets_pos + i * 8, rec_offsets[i]);
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::memcpy(b.data() + sig_data_pos + i * dims * 8,
                recs[i].signature.data(), dims * 8);
  }
  // Sketch planes: garbage on purpose — a reader must never consult them.
  for (std::uint64_t i = 0; i < count * kSketchPlanes; ++i) {
    poke<double>(b, sketch_pos + i * 8, -1.0e300);
  }
  std::memcpy(b.data() + blob_pos, blob.data(), blob.size());
  return b;
}

TEST(ExperienceStore, Version1SnapshotOpensAndRotatesToTheIndexFormat) {
  const std::string prefix = temp_prefix("v1");
  const std::size_t n = 700, dims = 5;
  Rng rng(61);
  std::vector<ExperienceRecord> recs;
  HistoryDatabase original;
  for (std::size_t i = 0; i < n; ++i) {
    recs.push_back(make_record(rng, dims, i));
    original.add(recs.back());
  }
  write_bytes(ExperienceStore::snapshot_path(prefix),
              version1_snapshot(recs, dims));

  ExperienceStore store;
  HistoryDatabase db;
  const RecoveryInfo info = store.open(prefix, db);
  ASSERT_TRUE(info.had_snapshot);
  ASSERT_EQ(db.size(), n);
  for (std::size_t i = 0; i < n; i += 97) {
    expect_records_equal(recs[i], db.record(i),
                         "v1 record " + std::to_string(i));
  }
  EXPECT_EQ(db.signature_view().index.rows, 0u);  // sketch ignored
  std::vector<WorkloadSignature> queries;
  for (int q = 0; q < 40; ++q) {
    WorkloadSignature sig(dims);
    for (double& v : sig) v = rng.uniform01();
    queries.push_back(std::move(sig));
  }
  queries.push_back(recs[123].signature);
  LeastSquareClassifier mapped_ls, mem_ls;
  mapped_ls.fit(db.signature_view());
  mem_ls.fit(original.signature_view());
  for (const WorkloadSignature& q : queries) {
    EXPECT_EQ(mapped_ls.classify(q), mem_ls.classify(q));
  }

  // The next rotation writes format 2 with the index in place.
  const ExperienceRecord extra = make_record(rng, dims, n);
  store.append(extra);
  db.add(extra);
  original.add(extra);
  store.snapshot(db);
  store.close();
  const std::vector<unsigned char> rotated =
      read_bytes(ExperienceStore::snapshot_path(prefix));
  EXPECT_EQ(peek<std::uint32_t>(rotated, 12), 2u);
  HistoryDatabase reopened;
  ExperienceStore store2;
  store2.open(prefix, reopened);
  ASSERT_EQ(reopened.size(), n + 1);
  EXPECT_EQ(reopened.signature_view().index.rows, n + 1);
  LeastSquareClassifier reopened_ls;
  reopened_ls.fit(reopened.signature_view());
  EXPECT_TRUE(reopened_ls.index_borrowed());
  mem_ls.fit(original.signature_view());
  for (const WorkloadSignature& q : queries) {
    EXPECT_EQ(reopened_ls.classify(q), mem_ls.classify(q));
  }
}

TEST(ExperienceStore, RotationRebuildsTheIndexOnlyWhenStale) {
  const std::string prefix = temp_prefix("idxprefix");
  const std::size_t dims = 6;
  Rng rng(71);
  HistoryDatabase original;
  // Opens the store, appends `k` records and rotates after each batch;
  // returns the row count the final snapshot's index covers.
  auto append_and_rotate = [&](std::vector<std::size_t> batches) {
    {
      ExperienceStore store;
      HistoryDatabase db;
      store.open(prefix, db);
      for (const std::size_t k : batches) {
        for (std::size_t i = 0; i < k; ++i) {
          const ExperienceRecord rec = make_record(rng, dims, original.size());
          store.append(rec);
          db.add(rec);
          original.add(rec);
        }
        store.snapshot(db);
      }
    }
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    EXPECT_EQ(db.size(), original.size());
    return db.signature_view().index.rows;
  };
  // A store opened empty builds at its first rotation, then reuses that
  // index while the tail stays within an eighth (600 / 8 = 75 rows).
  EXPECT_EQ(append_and_rotate({600, 50}), 600u);
  // After a reopen the borrowed prefix is copied while it is fresh...
  EXPECT_EQ(append_and_rotate({20}), 600u);
  // ...and rebuilt over every row once the tail passes an eighth.
  EXPECT_EQ(append_and_rotate({30}), 700u);
  EXPECT_EQ(append_and_rotate({87, 1}), 788u);

  ExperienceStore store;
  HistoryDatabase db;
  store.open(prefix, db);
  ASSERT_EQ(db.size(), 788u);
  LeastSquareClassifier mapped_ls;
  mapped_ls.fit(db.signature_view());
  EXPECT_TRUE(mapped_ls.index_borrowed());
  EXPECT_EQ(mapped_ls.indexed_rows(), 788u);
  const SignatureView view = original.signature_view();
  for (int q = 0; q < 64; ++q) {
    WorkloadSignature sig(dims);
    for (double& v : sig) v = rng.uniform01();
    if (q % 8 == 0) sig = original.record(600 + q).signature;
    EXPECT_EQ(mapped_ls.classify(sig),
              nearest_signature_scalar(view.data, view.count, dims,
                                       sig.data()));
  }
}

TEST(ExperienceStore, MixedArityAppendDropsTheSnapshotIndex) {
  const std::string prefix = temp_prefix("idxmixed");
  const std::size_t n = 300, dims = 4;
  Rng rng(73);
  std::vector<ExperienceRecord> recs;
  {
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    for (std::size_t i = 0; i < n; ++i) {
      recs.push_back(make_record(rng, dims, i));
      store.append(recs.back());
      db.add(recs.back());
    }
    store.snapshot(db);
  }
  {
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    ASSERT_EQ(db.signature_view().index.rows, n);
    recs.push_back(make_record(rng, dims + 2, n));
    store.append(recs.back());
    db.add(recs.back());
    const SignatureView view = db.signature_view();
    EXPECT_EQ(view.dims, SignatureView::kMixedDims);
    EXPECT_EQ(view.index.rows, 0u);
    store.snapshot(db);
  }
  const std::vector<unsigned char> bytes =
      read_bytes(ExperienceStore::snapshot_path(prefix));
  EXPECT_EQ(peek<std::uint64_t>(bytes, 32), 1u) << "mixed flag, no index";
  ExperienceStore store;
  HistoryDatabase db;
  store.open(prefix, db);
  ASSERT_EQ(db.size(), n + 1);
  EXPECT_EQ(db.signature_view().dims, SignatureView::kMixedDims);
  for (std::size_t i = 0; i <= n; i += 50) {
    expect_records_equal(recs[i], db.record(i),
                         "mixed record " + std::to_string(i));
  }
  expect_records_equal(recs[n], db.record(n), "mixed tail record");
}

TEST(ExperienceStore, CorruptIndexSectionIsRefused) {
  const std::string prefix = temp_prefix("badindex");
  const std::size_t n = 500, dims = 4;
  Rng rng(67);
  {
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    for (std::size_t i = 0; i < n; ++i) {
      const ExperienceRecord rec = make_record(rng, dims, i);
      store.append(rec);
      db.add(rec);
    }
    store.snapshot(db);
  }
  const std::string path = ExperienceStore::snapshot_path(prefix);
  const std::vector<unsigned char> good = read_bytes(path);
  ASSERT_EQ(peek<std::uint64_t>(good, 32) & 2u, 2u) << "index flag";
  const std::uint64_t index_pos = peek<std::uint64_t>(good, 72);
  ASSERT_EQ(peek<std::uint64_t>(good, index_pos), n) << "indexed rows";
  const std::uint64_t ids_pos =
      index_pos + 8 + signature_index_nodes(n) * 2 * dims * 8;
  const std::uint32_t first_id = peek<std::uint32_t>(good, ids_pos);

  auto refused = [&](const std::vector<unsigned char>& bytes) {
    write_bytes(path, bytes);
    ExperienceStore store;
    HistoryDatabase db;
    bool threw = false;
    try {
      store.open(prefix, db);
    } catch (const Error&) {
      threw = true;
    }
    return threw;
  };

  std::vector<unsigned char> bad = good;
  poke<std::uint32_t>(bad, ids_pos, static_cast<std::uint32_t>(n));
  EXPECT_TRUE(refused(bad)) << "row id past the record count";
  bad = good;
  poke<std::uint32_t>(bad, ids_pos + 4, first_id);
  EXPECT_TRUE(refused(bad)) << "row id listed twice";
  bad = good;
  poke<std::uint32_t>(bad, ids_pos, peek<std::uint32_t>(good, ids_pos + 4));
  poke<std::uint32_t>(bad, ids_pos + 4, first_id);
  EXPECT_TRUE(refused(bad)) << "leaf ids out of order";
  bad = good;
  poke<std::uint64_t>(bad, index_pos, n + 1);
  EXPECT_TRUE(refused(bad)) << "index covers more rows than the file holds";
  bad = good;
  poke<std::uint64_t>(bad, index_pos, 0);
  EXPECT_TRUE(refused(bad)) << "empty index";
  bad = good;
  poke<std::uint64_t>(bad, 72, good.size() - 8);
  reseal_header(bad);
  EXPECT_TRUE(refused(bad)) << "index section runs past the file";
  bad = good;
  poke<std::uint64_t>(bad, 72, index_pos + 4);
  reseal_header(bad);
  EXPECT_TRUE(refused(bad)) << "misaligned index section";
  bad = good;
  poke<std::uint64_t>(bad, 40, dims + 1);
  reseal_header(bad);
  EXPECT_TRUE(refused(bad)) << "arity disagrees with the value count";
  EXPECT_FALSE(refused(good));
}

TEST(HistoryDatabase, ReservePreservesContentsAndAcceptsTotals) {
  Rng rng(41);
  HistoryDatabase db;
  std::vector<ExperienceRecord> expected;
  for (std::size_t i = 0; i < 3; ++i) {
    expected.push_back(make_record(rng, 4, i));
    db.add(expected.back());
  }
  db.reserve(10, 40);  // totals, including the three already present
  ASSERT_EQ(db.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_records_equal(expected[i], db.record(i),
                         "post-reserve " + std::to_string(i));
  }
  for (std::size_t i = 3; i < 10; ++i) {
    expected.push_back(make_record(rng, 4, i));
    db.add(expected.back());
  }
  const SignatureView view = db.signature_view();
  EXPECT_EQ(view.count, 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t d = 0; d < 4; ++d) {
      EXPECT_EQ(view.row(i)[d], expected[i].signature[d]);
    }
  }
}

// The tentpole bit-identity requirement: classify over the mmap'd store
// must equal classify over the in-memory original at every thread count and
// SIMD level (binary doubles round-trip exactly; the scan order contract
// does the rest). The mapped side borrows the persisted index, the
// in-memory side builds its own.
TEST(ExperienceStore, MmapClassifyBitIdenticalAcrossThreadsAndSimd) {
  const std::string prefix = temp_prefix("bitident");
  const std::size_t n = 9000, dims = 8;
  Rng rng(43);
  HistoryDatabase original;
  original.reserve(n, n * dims);
  {
    ExperienceStore store;
    HistoryDatabase scratch;
    store.open(prefix, scratch);
    for (std::size_t i = 0; i < n; ++i) {
      const ExperienceRecord rec = make_record(rng, dims, i);
      store.append(rec);
      original.add(rec);
    }
    store.snapshot(original);
  }
  ExperienceStore store;
  HistoryDatabase mapped;
  store.open(prefix, mapped);
  ASSERT_NE(mapped.snapshot_backing(), nullptr);

  std::vector<WorkloadSignature> queries;
  Rng qrng(47);
  for (int q = 0; q < 32; ++q) {
    WorkloadSignature s(dims);
    for (double& v : s) v = qrng.uniform01();
    queries.push_back(std::move(s));
  }

  const unsigned prev_threads = thread_count();
  const SimdLevel prev_level = simd_level();
  std::vector<std::size_t> reference;
  for (const unsigned threads : {1u, 8u}) {
    for (const SimdLevel level : {SimdLevel::kScalar, simd_max_supported()}) {
      set_thread_count(threads);
      set_simd_level(level);
      LeastSquareClassifier mem_ls, map_ls;
      mem_ls.fit(original.signature_view());
      map_ls.fit(mapped.signature_view());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const std::size_t mem_idx = mem_ls.classify(queries[q]);
        const std::size_t map_idx = map_ls.classify(queries[q]);
        EXPECT_EQ(mem_idx, map_idx)
            << "threads=" << threads << " level=" << static_cast<int>(level)
            << " query=" << q;
        if (reference.size() <= q) {
          reference.push_back(mem_idx);
        } else {
          EXPECT_EQ(reference[q], mem_idx)
              << "threads=" << threads
              << " level=" << static_cast<int>(level) << " query=" << q;
        }
      }
    }
  }
  set_thread_count(prev_threads);
  set_simd_level(prev_level);
}

// Lazy record decode is hit from concurrent serve_batch retrievals: hammer
// record(i) from every pool worker and require the decoded records to be
// stable and correct (TSan runs this binary).
TEST(ExperienceStore, ConcurrentLazyDecodeIsSafeAndCorrect) {
  const std::string prefix = temp_prefix("lazy");
  const std::size_t n = 512;
  Rng rng(53);
  std::vector<ExperienceRecord> expected;
  {
    ExperienceStore store;
    HistoryDatabase db;
    store.open(prefix, db);
    for (std::size_t i = 0; i < n; ++i) {
      expected.push_back(make_record(rng, 4, i));
      store.append(expected.back());
      db.add(expected.back());
    }
    store.snapshot(db);
  }
  ExperienceStore store;
  HistoryDatabase db;
  store.open(prefix, db);
  const unsigned prev_threads = thread_count();
  set_thread_count(8);
  std::vector<unsigned char> ok(n * 4, 0);
  parallel_for(n * 4, [&](std::size_t j) {
    const std::size_t i = (j * 131) % n;  // overlapping access pattern
    const ExperienceRecord& rec = db.record(i);
    ok[j] = rec.label == expected[i].label &&
            rec.signature == expected[i].signature &&
            rec.measurements.size() == expected[i].measurements.size();
  });
  set_thread_count(prev_threads);
  for (std::size_t j = 0; j < ok.size(); ++j) {
    EXPECT_EQ(ok[j], 1) << "access " << j;
  }
}

TEST(HarmonyServerStore, PersistsServedExperienceAcrossRestart) {
  const std::string prefix = temp_prefix("server");
  const ParameterSpace space = synth::symmetric_space(2, 10.0, 1.0);
  ServerOptions opts;
  opts.tuning.simplex.max_evaluations = 40;
  {
    HarmonyServer server(space, opts);
    StoreOptions sopts;
    sopts.snapshot_every_records = 2;  // force a rotation inside serve
    server.attach_store(prefix, sopts);
    auto obj = synth::sphere_objective(2.0);
    auto obj2 = synth::sphere_objective(2.0);
    const ServeRequest reqs[] = {
        {&obj, WorkloadSignature{0.2, 0.8}, "first"},
        {&obj2, WorkloadSignature{0.7, 0.3}, "second"},
    };
    const auto results = server.serve_batch({reqs, 2});
    EXPECT_FALSE(results[0].failed);
    EXPECT_FALSE(results[1].failed);
    EXPECT_EQ(server.database().size(), 2u);
    EXPECT_NE(server.store(), nullptr);
  }
  EXPECT_TRUE(file_exists(ExperienceStore::snapshot_path(prefix)));
  HarmonyServer server(space, opts);
  const RecoveryInfo info = server.attach_store(prefix);
  EXPECT_EQ(server.database().size(), 2u);
  EXPECT_EQ(info.snapshot_records + info.replayed_records, 2u);
  // The recovered experience warm-starts the next run for a near signature.
  auto obj = synth::sphere_objective(2.0);
  const ServedTuningResult rerun =
      server.tune(obj, WorkloadSignature{0.21, 0.79}, "third");
  ASSERT_TRUE(rerun.experience_label.has_value());
  EXPECT_EQ(*rerun.experience_label, "first");
}

// Seeded crash fuzz over the append/flush/rotate protocol: for every
// sampled byte budget the simulated disk dies mid-effect; reopening must
// recover a consistent prefix of the appended sequence — every durable
// (flushed) record present, nothing reordered, nothing corrupt — and the
// store must stay fully usable afterwards. HARMONY_CRASH_FUZZ_ITERS scales
// the sweep (CI fuzz leg runs it much higher).
TEST(ExperienceStoreFuzz, RandomKillPointsRecoverConsistentPrefixes) {
  std::size_t iters = 48;
  if (const char* env = std::getenv("HARMONY_CRASH_FUZZ_ITERS")) {
    const long v = std::atol(env);
    if (v > 0) iters = static_cast<std::size_t>(v);
  }
  Rng budget_rng(0xF00D);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::string prefix =
        temp_prefix("fuzz_" + std::to_string(iter % 8));
    // Budgets sweep the interesting range: tiny (dies creating the log),
    // through mid-append, to large (whole script completes).
    const std::uint64_t budget = 1 + static_cast<std::uint64_t>(
        budget_rng.uniform(0.0, iter % 3 == 0 ? 512.0 : 20000.0));
    StoreOptions opts;
    opts.fault_budget_bytes = budget;
    opts.group_commit_records = 4;

    Rng rng(1000 + iter);
    std::vector<ExperienceRecord> appended;
    std::size_t durable = 0;
    bool completed = false;
    {
      ExperienceStore store;
      HistoryDatabase db;
      try {
        store.open(prefix, db, opts);
        for (std::size_t round = 0; round < 4; ++round) {
          for (std::size_t j = 0; j < 6; ++j) {
            ExperienceRecord rec = make_record(rng, 4, round * 6 + j);
            store.append(rec);
            db.add(rec);
            appended.push_back(std::move(rec));
          }
          store.flush();
          durable = appended.size();
          if (round % 2 == 1) store.snapshot(db);
        }
        completed = true;
      } catch (const DiskKilled&) {
        // Power cut: fall through to recovery with files as-is.
      }
    }

    ExperienceStore store;
    HistoryDatabase db;
    RecoveryInfo info;
    ASSERT_NO_THROW(info = store.open(prefix, db))
        << "budget=" << budget << " iter=" << iter;
    ASSERT_GE(db.size(), durable)
        << "durable records lost; budget=" << budget << " iter=" << iter;
    ASSERT_LE(db.size(), appended.size())
        << "phantom records; budget=" << budget << " iter=" << iter;
    if (completed) {
      ASSERT_EQ(db.size(), appended.size());
    }
    for (std::size_t i = 0; i < db.size(); ++i) {
      expect_records_equal(appended[i], db.record(i),
                           "budget=" + std::to_string(budget) + " record " +
                               std::to_string(i));
    }
    // The recovered store must be fully usable: append, rotate, reopen.
    const std::size_t recovered = db.size();
    ExperienceRecord extra = make_record(rng, 4, 999);
    store.append(extra);
    db.add(extra);
    store.snapshot(db);
    store.close();
    ExperienceStore again;
    HistoryDatabase db2;
    const RecoveryInfo info2 = again.open(prefix, db2);
    EXPECT_EQ(db2.size(), recovered + 1);
    EXPECT_EQ(info2.snapshot_records, recovered + 1);
    expect_records_equal(extra, db2.record(recovered), "post-recovery append");
  }
}

// Crash specifically inside snapshot rotation: sweep budgets sized so the
// kill lands between flush, snapshot write, rename, and log reset, and
// require recovery to always see all records (they were durable in the log
// before rotation started).
TEST(ExperienceStoreFuzz, KillPointsInsideRotationNeverLoseRecords) {
  const std::size_t n = 12;
  // First, measure a clean run to learn the budget range rotation spans.
  std::vector<ExperienceRecord> records;
  Rng rng(77);
  for (std::size_t i = 0; i < n; ++i) records.push_back(make_record(rng, 4, i));

  for (std::uint64_t budget = 64; budget <= 8192; budget += 64) {
    const std::string prefix = temp_prefix("rotkill");
    {
      // Populate durably with no faults.
      ExperienceStore store;
      HistoryDatabase db;
      store.open(prefix, db);
      for (const ExperienceRecord& rec : records) {
        store.append(rec);
        db.add(rec);
      }
      store.flush();
    }
    {
      // Reopen with a budget and attempt the rotation.
      StoreOptions opts;
      opts.fault_budget_bytes = budget;
      ExperienceStore store;
      HistoryDatabase db;
      try {
        store.open(prefix, db, opts);
        store.snapshot(db);
      } catch (const DiskKilled&) {
      }
    }
    ExperienceStore store;
    HistoryDatabase db;
    ASSERT_NO_THROW(store.open(prefix, db)) << "budget=" << budget;
    ASSERT_EQ(db.size(), n) << "budget=" << budget;
    for (std::size_t i = 0; i < n; ++i) {
      expect_records_equal(records[i], db.record(i),
                           "rotation budget=" + std::to_string(budget) +
                               " record " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace harmony
