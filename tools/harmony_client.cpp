// harmony_client — load generator for harmony_serve.
//
// Spawns N client threads against a running daemon; each drives M tuning
// sessions end to end (HELLO/BUNDLES/SIGNATURE, then the FETCH/REPORT loop
// against a synthetic paraboloid objective computed client-side, then BYE)
// and records per-step latency. Used by the serving e2e smoke and as a
// manual smoke tool.
//
// Usage:
//   harmony_client --connect host:port [options]
//
// Options:
//   --connect <h:p>      daemon address (required)
//   --binary             use the length-prefixed binary framing
//   --clients <n>        concurrent client threads (default 1)
//   --sessions <n>       sessions per client (default 1)
//   --params <n>         tunable parameters per session (default 2)
//   --label <name>       HELLO client name / tenant key (default loadgen)
//   --quiet              suppress the summary line
//
// Output: one line
//   acked=<done sessions> rejected=<budget ERRORs> aborted=<drain EOFs>
//   steps=<reports> p50=<us> p99=<us> refits_full=<n> refits_incr=<n>
// The refit counts are the server-side classifier maintenance totals
// scraped from the last DONE each thread saw (the daemon reports running
// totals, so the maximum across threads is the freshest snapshot).
// Sessions cut off by a server drain (EOF mid-session) count as aborted,
// not errors: the e2e smoke kills the daemon mid-load on purpose. Exits 0
// unless the daemon was unreachable at start.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/protocol.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace {

using namespace harmony;
using Clock = std::chrono::steady_clock;

struct CliOptions {
  std::string host;
  std::uint16_t port = 0;
  bool binary = false;
  int clients = 1;
  int sessions = 1;
  int params = 2;
  std::string label = "loadgen";
  bool quiet = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect host:port [--binary] [--clients n]"
               " [--sessions n] [--params n] [--label name] [--quiet]\n",
               argv0);
  std::exit(2);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--connect") {
      net::parse_host_port(value(), o.host, o.port);
    } else if (arg == "--binary") {
      o.binary = true;
    } else if (arg == "--clients") {
      o.clients = static_cast<int>(parse_long(value()));
    } else if (arg == "--sessions") {
      o.sessions = static_cast<int>(parse_long(value()));
    } else if (arg == "--params") {
      o.params = static_cast<int>(parse_long(value()));
    } else if (arg == "--label") {
      o.label = value();
    } else if (arg == "--quiet") {
      o.quiet = true;
    } else {
      usage(argv[0]);
    }
  }
  if (o.host.empty() || o.clients < 1 || o.sessions < 1 || o.params < 1) {
    usage(argv[0]);
  }
  return o;
}

std::string make_rsl(int params) {
  std::string rsl;
  for (int i = 0; i < params; ++i) {
    rsl += "{ harmonyBundle p" + std::to_string(i) + " { int {0 20 1 0} } }";
  }
  return rsl;
}

/// Paraboloid with its optimum at (3, 3, ...): higher is better.
double measure(const Configuration& c) {
  double perf = 0.0;
  for (double v : c) perf -= (v - 3.0) * (v - 3.0);
  return perf;
}

struct ThreadResult {
  std::uint64_t acked = 0;     ///< sessions that received DONE
  std::uint64_t rejected = 0;  ///< sessions refused by an admission ERROR
  std::uint64_t aborted = 0;   ///< sessions cut off (daemon drain)
  std::uint64_t steps = 0;     ///< configurations measured and reported
  std::uint32_t full_refits = 0;         ///< server totals from the last DONE
  std::uint32_t incremental_refits = 0;  ///< (running counters; keep the max)
  Histogram latency{0.0, 1e6, 2000};  ///< per-step latency, microseconds
};

void run_client(const CliOptions& cli, const std::string& rsl,
                ThreadResult& result) {
  for (int s = 0; s < cli.sessions; ++s) {
    try {
      net::SocketTransport transport(cli.host, cli.port, cli.binary);
      proto::HarmonyClient client(
          [&transport](const proto::Message& m) { return transport(m); });
      client.open(cli.label, rsl);
      (void)client.send_signature({0.0});
      for (;;) {
        // Post-admission step latency: one round trip, the FETCH carrying
        // the previous step's pipelined REPORT.
        const Clock::time_point t0 = Clock::now();
        const std::optional<Configuration> config = client.fetch();
        if (!config) {
          result.latency.add(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - t0)
                  .count());
          break;
        }
        const double perf = measure(*config);
        client.report(perf);
        result.latency.add(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count());
        ++result.steps;
      }
      ++result.acked;  // DONE received and counted before BYE is attempted
      // Running server totals ride on each DONE; the latest is the largest.
      result.full_refits =
          std::max(result.full_refits, client.server_full_refits());
      result.incremental_refits = std::max(result.incremental_refits,
                                           client.server_incremental_refits());
      try {
        client.close();
      } catch (const Error&) {
        // The daemon may drain between DONE and BYE; the ack stands.
      }
    } catch (const Error& e) {
      if (std::string(e.what()).find("budget") != std::string::npos) {
        ++result.rejected;
      } else {
        ++result.aborted;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliOptions cli = parse_cli(argc, argv);
    std::signal(SIGPIPE, SIG_IGN);

    // Fail fast (exit 1) when the daemon is not there at all.
    { net::SocketTransport probe(cli.host, cli.port, false); }

    const std::string rsl = make_rsl(cli.params);
    std::vector<ThreadResult> results(static_cast<std::size_t>(cli.clients));
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      threads.emplace_back(run_client, std::cref(cli), std::cref(rsl),
                           std::ref(results[i]));
    }
    for (std::thread& t : threads) t.join();

    ThreadResult total;
    for (const ThreadResult& r : results) {
      total.acked += r.acked;
      total.rejected += r.rejected;
      total.aborted += r.aborted;
      total.steps += r.steps;
      total.full_refits = std::max(total.full_refits, r.full_refits);
      total.incremental_refits =
          std::max(total.incremental_refits, r.incremental_refits);
      total.latency.merge(r.latency);
    }
    if (!cli.quiet) {
      const double p50 =
          total.latency.total() > 0 ? total.latency.percentile(50.0) : 0.0;
      const double p99 =
          total.latency.total() > 0 ? total.latency.percentile(99.0) : 0.0;
      std::printf(
          "acked=%llu rejected=%llu aborted=%llu steps=%llu "
          "p50=%.0fus p99=%.0fus refits_full=%u refits_incr=%u\n",
          static_cast<unsigned long long>(total.acked),
          static_cast<unsigned long long>(total.rejected),
          static_cast<unsigned long long>(total.aborted),
          static_cast<unsigned long long>(total.steps), p50, p99,
          static_cast<unsigned>(total.full_refits),
          static_cast<unsigned>(total.incremental_refits));
    }
    return 0;
  } catch (const harmony::Error& e) {
    std::fprintf(stderr, "harmony_client: %s\n", e.what());
    return 1;
  }
}
