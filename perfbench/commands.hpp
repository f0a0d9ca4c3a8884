// The perfbench subcommands. Each takes `--key value` options and prints
// one JSON object as its last stdout line; run.py composes them into the
// benchmark's workloads.
#pragma once

#include <map>
#include <string>

namespace perfbench {

/// Parsed `--key value` options with typed, checked access.
class Args {
 public:
  Args(int argc, char** argv, int first);
  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] long integer(const std::string& key) const;
  [[nodiscard]] long integer(const std::string& key, long fallback) const;
  [[nodiscard]] double real(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// Writes a served workload's prior history into a fresh store at
/// <dir>/store and snapshots it (the "history generation + store write"
/// part of set-up).
int cmd_gen(const Args& a);
/// Cold-opens the store and serves it over TCP until SIGTERM; prints
/// "listening <port>" once bound, the service statistics after the drain.
int cmd_serve(const Args& a);
/// Closed-loop load generator: kConnections client threads, one session
/// after another, for --seconds after a --warmup.
int cmd_load(const Args& a);
/// Traced in-process replay of the same session scripts through the
/// public functions TuningService::dispatch_batch composes.
int cmd_replay(const Args& a);
/// Reopens a drained store and reports its record count.
int cmd_verify_store(const Args& a);
/// In-process warm-started tuning of the websim cluster (tune_websim).
int cmd_websim(const Args& a);

}  // namespace perfbench
