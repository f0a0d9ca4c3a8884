// perfbench — the measuring binary behind perfbench/run.py.
//
// Usage: perfbench <gen|serve|load|replay|verify-store|websim|selftest>
//                  [--key value ...]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "commands.hpp"
#include "common.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw harmony::Error("expected --key value, got '" + key + "'");
    }
    kv_[key.substr(2)] = argv[++i];
  }
}

std::string Args::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw harmony::Error("missing --" + key);
  return it->second;
}

std::string Args::str(const std::string& key,
                      const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

long Args::integer(const std::string& key) const {
  return harmony::parse_long(str(key));
}

long Args::integer(const std::string& key, long fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : harmony::parse_long(it->second);
}

double Args::real(const std::string& key) const {
  return harmony::parse_double(str(key));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <gen|serve|load|replay|verify-store|websim|"
                 "selftest> [--key value ...]\n",
                 argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "load") return cmd_load(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "verify-store") return cmd_verify_store(args);
    if (cmd == "websim") return cmd_websim(args);
    if (cmd == "selftest") {
      const int failures = selftest_stats();
      std::printf("{\"selftest_failures\": %d}\n", failures);
      return failures == 0 ? 0 : 1;
    }
    std::fprintf(stderr, "perfbench: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
