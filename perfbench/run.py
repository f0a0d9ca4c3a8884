#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Workloads: serve_warm, serve_ingest, serve_long (a harmony server process
driven over loopback TCP by a separate closed-loop load process with four
connections) and tune_websim (in-process HarmonyServer::serve_batch over
the websim cluster). BENCHMARK.json names the metrics with their units and
better directions; perfbench/metrics.json says why each workload exists and
what every metric means.

--trace 0 measures the end-to-end metrics. --trace 1 measures the per-layer
metrics: the served workloads are replayed in one process through the
public functions TuningService::dispatch_batch composes, with a span around
each call, and the client load runs once untraced and once with per-verb
spans to measure the tracing overhead. Span files land in .bench_out/.

The first run builds perfbench/ (and the repository sources it compiles)
into $CARGO_TARGET_DIR, or .bench_build/ when that is unset. Every run's
store and server files live in a temporary directory under .bench_run/
that is removed afterwards. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
when a correctness check failed.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

SERVED = ("serve_warm", "serve_ingest", "serve_long")
WORKLOADS = SERVED + ("tune_websim",)
PRIOR_RECORDS = {"serve_warm": 500000, "serve_ingest": 50000, "serve_long": 0}
WRITES_BACK = {"serve_warm": True, "serve_ingest": True, "serve_long": False}
# Set-ups per run (setup_s is their median): as many as the set-up's cost
# allows, since one set-up of the small workloads is a few milliseconds.
SETUPS = {"serve_warm": 3, "serve_ingest": 7, "serve_long": 15, "tune_websim": 15}
WARMUP_S = 1.0   # client sessions started before this are not timed


# ---- statistics (self-tested below) ------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def self_test():
    failures = 0

    def check(what, got, want):
        nonlocal failures
        if abs(got - want) > 1e-12:
            print(f"self-test FAILED {what}: got {got!r} want {want!r}")
            failures += 1

    # statistics.quantiles' default 'exclusive' method on 1..7:
    # positions (n+1)*k/4 = 2, 4, 6 -> exactly 2, 4, 6.
    q1, med, q3 = quartiles([7, 1, 3, 5, 2, 6, 4])
    check("q1", q1, 2.0)
    check("median", med, 4.0)
    check("q3", q3, 6.0)
    # 1..4: positions 1.25, 2.5, 3.75 -> 1.25, 2.5, 3.75.
    q1, med, q3 = quartiles([4, 3, 2, 1])
    check("q1 interp", q1, 1.25)
    check("q3 interp", q3, 3.75)
    check("spread", spread([4, 3, 2, 1]), (3.75 - 1.25) / 2.5)
    failures += run_binary(["selftest"])["selftest_failures"]
    print(json.dumps({"self_test_failures": failures}))
    return 0 if failures == 0 else 1


# ---- build --------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(d if os.path.isabs(d) else os.path.join(ROOT, d),
                        "perfbench")


def binary():
    return os.path.join(build_dir(), "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no repository sources next to perfbench/")
    bdir = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"], check=True,
                   stdout=sys.stderr)


def run_binary(args, timeout=170):
    """Runs one perfbench subcommand; returns its last stdout line as JSON."""
    p = subprocess.run([binary()] + args, stdout=subprocess.PIPE, text=True,
                       timeout=timeout)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 and not lines:
        raise RuntimeError(f"perfbench {args[0]} exited {p.returncode}")
    out = json.loads(lines[-1])
    return out


# ---- served workloads -----------------------------------------------------------

class Server:
    """A perfbench serve process on an ephemeral port."""

    def __init__(self, workload, store_dir):
        self.proc = subprocess.Popen(
            [binary(), "serve", "--workload", workload, "--dir", store_dir],
            stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "listening":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not start")
        self.port = line[1]

    def stop(self):
        """SIGTERM drain; returns the server's statistics."""
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=120)
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(f"server exited {self.proc.returncode}")
        return json.loads(lines[-1])

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def set_up(workload, seed, store_dir):
    """History generation + store write + server cold open to listening."""
    os.makedirs(store_dir)
    t0 = time.perf_counter()
    run_binary(["gen", "--workload", workload, "--seed", str(seed),
                "--dir", store_dir])
    server = Server(workload, store_dir)
    return time.perf_counter() - t0, server


def load(workload, seed, port, seconds, trace, trace_out):
    return run_binary(["load", "--workload", workload, "--seed", str(seed),
                       "--port", port, "--seconds", str(seconds),
                       "--warmup", str(WARMUP_S), "--trace", str(trace),
                       "--trace-out", trace_out])


def check_store(workload, store_dir, acked, failures):
    want = PRIOR_RECORDS[workload] + (acked if WRITES_BACK[workload] else 0)
    got = run_binary(["verify-store", "--dir", store_dir])["records"]
    if got != want:
        failures.append(f"store reopened with {got:.0f} records, "
                        f"expected {want:.0f} (prior + acked)")


def served(workload, seed, seconds, trace, work, out_dir, failures):
    servers = []
    try:
        if not trace:
            setup_s = []
            for k in range(SETUPS[workload]):
                t, server = set_up(workload, seed,
                                      os.path.join(work, f"setup{k}"))
                servers.append(server)
                setup_s.append(t)
                if k + 1 < SETUPS[workload]:
                    server.stop()
            cl = load(workload, seed, server.port, seconds, 0, "")
            stats = server.stop()
            check_store(workload, os.path.join(work, f"setup{k}"),
                        cl["acked"], failures)
            return cl["attempted"], cl["failed"], {
                "setup_s": statistics.median(setup_s),
                "sessions_per_s": cl["sessions_per_s"],
                "evals_per_s": cl["evals_per_s"],
                "step_p50_us": cl["step_p50_us"],
                "step_p99_us": cl["step_p99_us"],
                "warmstart_p50_us": cl["warmstart_p50_us"],
                "warmstart_p99_us": cl["warmstart_p99_us"],
                "session_p50_ms": cl["session_p50_ms"],
                "session_p99_ms": cl["session_p99_ms"],
                "measurements_per_session": cl["measurements_per_session"],
                "convergence_evals": cl["convergence_evals"],
                "bad_evals": cl["bad_evals"],
                "best_perf": cl["best_perf"],
                "peak_rss_mb": stats["peak_rss_mb"],
            }, cl

        # Traced run: served phase untraced then traced (the tracing
        # overhead), then the in-process replay of the same scripts; a third
        # of the run each.
        part = seconds / 3
        _, server = set_up(workload, seed, os.path.join(work, "served"))
        servers.append(server)
        plain = load(workload, seed, server.port, part, 0, "")
        traced = load(workload, seed, server.port, part, 1,
                      os.path.join(out_dir, f"{workload}-client.json"))
        stats = server.stop()
        check_store(workload, os.path.join(work, "served"),
                    plain["acked"] + traced["acked"], failures)
        replay_dir = os.path.join(work, "replay")
        os.makedirs(replay_dir)
        run_binary(["gen", "--workload", workload, "--seed", str(seed),
                    "--dir", replay_dir])
        rp = run_binary(["replay", "--workload", workload, "--seed", str(seed),
                         "--dir", replay_dir, "--seconds", str(part),
                         "--warmup", str(WARMUP_S), "--trace-out",
                         os.path.join(out_dir, f"{workload}-replay.json")])
        client_step = traced["step_p50_us"]
        layer_step = rp["layer_step_p50_us"]
        batches = stats["batches"]
        attempted = plain["attempted"] + traced["attempted"] + rp["attempted"]
        failed = plain["failed"] + traced["failed"] + rp["failed"]
        return attempted, failed, {
            "net.conn.decode_us": rp["decode_us"],
            "net.conn.execute_fetch_us": rp["execute_fetch_us"],
            "net.conn.execute_report_us": rp["execute_report_us"],
            "net.conn.execute_signature_us": rp["execute_signature_us"],
            "net.service.steps_per_batch": stats["steps"] / batches if batches else 0.0,
            "net.service.batches": batches,
            "net.service.unexplained_us": client_step - layer_step,
            "core.analyzer.retrieve_us": rp["retrieve_us"],
            "core.analyzer.refit_us": rp["refit_us"],
            "core.analyzer.refits_full": rp["refits_full"],
            "core.analyzer.refits_incr": rp["refits_incr"],
            "core.analyzer.family_hit_ratio": traced["family_hit_ratio"],
            "core.search.distinct_ratio": traced["distinct_ratio"],
            "core.search.done_evals": traced["done_evals"],
            "core.search.reports_per_session": traced["measurements_per_session"],
            "core.server.ingest_us": rp["ingest_us"],
            "core.store.rotations": rp["rotations"],
            "core.store.rotation_ms": rp["rotation_ms"],
            "core.store.open_ms": rp["open_ms"],
            "core.store.log_bytes_per_record": rp["log_bytes_per_record"],
            "websim.measure_ms": 0.0,
            "websim.events_per_s": 0.0,
            "core.tuner.overhead_us_per_eval": 0.0,
            "trace.explained_ratio": layer_step / client_step if client_step else 0.0,
            "trace.overhead_ratio": (traced["step_p50_us"] / plain["step_p50_us"] - 1.0
                                     if plain["step_p50_us"] else 0.0),
        }, traced
    finally:
        for s in servers:
            s.kill()


# ---- tune_websim ----------------------------------------------------------------

def websim(seed, seconds, trace, out_dir, failures):
    w = run_binary(["websim", "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace), "--setups", str(SETUPS["tune_websim"]),
                    "--trace-out",
                    os.path.join(out_dir, "tune_websim-trace.json")])
    if not w["identical"]:
        failures.append("traced and untraced serve_batch results differ")
    if not trace:
        keys = ("setup_s", "sessions_per_s", "evals_per_s", "step_p50_us",
                "step_p99_us", "warmstart_p50_us", "warmstart_p99_us",
                "session_p50_ms", "session_p99_ms", "measurements_per_session",
                "convergence_evals", "bad_evals", "best_perf", "peak_rss_mb")
        return w["attempted"], w["failed"], {k: w[k] for k in keys}, w
    zero = ("net.conn.decode_us", "net.conn.execute_fetch_us",
            "net.conn.execute_report_us", "net.conn.execute_signature_us",
            "net.service.steps_per_batch", "net.service.batches",
            "net.service.unexplained_us", "core.analyzer.refit_us",
            "core.analyzer.refits_full", "core.analyzer.refits_incr",
            "core.analyzer.family_hit_ratio", "core.server.ingest_us",
            "core.store.rotations", "core.store.rotation_ms",
            "core.store.open_ms", "core.store.log_bytes_per_record")
    m = {k: 0.0 for k in zero}
    m.update({
        "core.analyzer.retrieve_us": w["retrieve_us"],
        "core.search.distinct_ratio": w["distinct_ratio"],
        "core.search.done_evals": w["done_evals"],
        "core.search.reports_per_session": w["measurements_per_session"],
        "websim.measure_ms": w["measure_ms"],
        "websim.events_per_s": w["events_per_s"],
        "core.tuner.overhead_us_per_eval": w["overhead_us_per_eval"],
        "trace.explained_ratio": w["explained_ratio"],
        "trace.overhead_ratio": w["overhead_ratio"],
    })
    return w["attempted"], w["failed"], m, w


# ---- main -----------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    build()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")

    with open(BENCHMARK) as f:
        bench = json.load(f)
    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.join(ROOT, ".bench_run",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work)
    failures = []
    try:
        if args.workload in SERVED:
            attempted, failed, metrics, detail = served(
                args.workload, args.seed, args.seconds, args.trace, work,
                out_dir, failures)
        else:
            attempted, failed, metrics, detail = websim(
                args.seed, args.seconds, args.trace, out_dir, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    spec = {m["name"]: m for m in bench[kind]}
    assert set(metrics) == set(spec), set(metrics) ^ set(spec)
    tails = {"step_p99_us": "step", "warmstart_p99_us": "warmstart",
             "session_p99_ms": "session"}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {attempted} sessions attempted, {failed} failed"
          f" (failed_ratio {failed / max(attempted, 1):.4f})")
    for name, m in spec.items():
        note = ""
        t = tails.get(name)
        if t and f"{t}_tail_rank" in detail:
            note = (f"  [median of p{detail[t + '_tail_rank']:.1f} over "
                    f"{detail[t + '_tail_windows']:.0f} windows; "
                    f"n={detail[t + '_samples']:.0f}]")
        print(f"{name:36s} {metrics[name]:>16.6g} {m['unit']:6s} "
              f"({m['better']} is better){note}")
    for f in failures:
        print(f"# CHECK FAILED: {f}")
    correct = not failures and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed) + len(failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": spec[k]["unit"]}
                    for k in spec},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
