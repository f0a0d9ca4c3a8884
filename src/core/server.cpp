#include "core/server.hpp"

#include <exception>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace harmony {

void ingest_experience(HistoryDatabase& db, ExperienceStore* store,
                       std::vector<ExperienceRecord> records) {
  if (records.empty()) return;
  for (ExperienceRecord& rec : records) {
    if (store != nullptr) store->append(rec);
    db.add(std::move(rec));
  }
  if (store != nullptr) {
    // One group commit per ingested batch keeps durability off the tuning
    // hot path; rotation kicks in only once the log tail is long enough
    // that the next recovery's replay would stop being cheap.
    store->commit();
    store->maybe_snapshot(db);
  }
}

std::size_t execute_batch(
    const DataAnalyzer& analyzer, HistoryDatabase& db, ExperienceStore* store,
    std::size_t n, const std::function<void(std::size_t)>& run,
    const std::function<std::optional<ExperienceRecord>(std::size_t)>& take) {
  // Fit to the entry-state database once, serially: the version stamps then
  // match for every retrieval inside run(), so the lazy-refit branch never
  // fires and concurrent sessions share no mutable state.
  analyzer.ensure_fitted(db);
  parallel_for(n, run);
  // All writes happen here, after the barrier, in index order: one database
  // version bump and one store group commit per batch.
  std::vector<ExperienceRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::optional<ExperienceRecord> rec = take(i)) {
      records.push_back(std::move(*rec));
    }
  }
  const std::size_t ingested = records.size();
  ingest_experience(db, store, std::move(records));
  return ingested;
}

HarmonyServer::HarmonyServer(const ParameterSpace& space, ServerOptions options)
    : space_(space), opts_(std::move(options)) {
  HARMONY_REQUIRE(!space_.empty(), "empty parameter space");
}

RecoveryInfo HarmonyServer::attach_store(const std::string& prefix,
                                         StoreOptions opts) {
  return store_.open(prefix, db_, std::move(opts));
}

void HarmonyServer::flush_store() {
  if (store_.is_open()) store_.flush();
}

void HarmonyServer::snapshot_store() {
  HARMONY_REQUIRE(store_.is_open(), "snapshot_store: no store attached");
  store_.snapshot(db_);
}

ServedTuningResult HarmonyServer::tune(Objective& objective,
                                       const WorkloadSignature& signature,
                                       const std::string& label) {
  const ServeRequest request{&objective, signature, label};
  return std::move(serve_batch({&request, 1}).front());
}

std::vector<ServedTuningResult> HarmonyServer::serve_batch(
    std::span<const ServeRequest> requests) {
  std::vector<ServedTuningResult> out(requests.size());
  if (requests.empty()) return out;
  for (const ServeRequest& rq : requests) {
    HARMONY_REQUIRE(rq.objective != nullptr, "serve_batch: null objective");
  }

  // Every request retrieves against the database as it stood at entry and
  // runs in isolation; a request failure is contained in its own run: the
  // pool rethrows escaped exceptions after the drain, which would poison
  // the whole batch, so the failing run is marked and its siblings finish
  // untouched (they share no mutable state with it).
  const auto run = [&](std::size_t i) {
    const ServeRequest& rq = requests[i];
    ServedTuningResult& res = out[i];
    try {
      TuningSession session(space_, *rq.objective, opts_.tuning);
      if (const ExperienceRecord* exp =
              analyzer_.retrieve(db_, rq.signature)) {
        session.seed(exp->measurements, opts_.use_recorded_values);
        res.experience_label = exp->label;
        res.experience_distance =
            signature_distance(rq.signature, exp->signature);
      }
      res.tuning = session.run();
      if (res.tuning.retry.exhausted > 0) {
        res.failed = true;
        res.failure = "retries exhausted (censored measurements in trace)";
      }
    } catch (const std::exception& e) {
      res.failed = true;
      res.failure = e.what();
    }
  };
  // Failed runs write nothing back: censored penalties and partial traces
  // must not become training data for future warm starts.
  const auto take = [&](std::size_t i) -> std::optional<ExperienceRecord> {
    if (!opts_.record_experience || out[i].failed) return std::nullopt;
    return ExperienceRecord{requests[i].label, requests[i].signature,
                            out[i].tuning.trace};
  };
  (void)execute_batch(analyzer_, db_, store(), requests.size(), run, take);
  return out;
}

}  // namespace harmony
