#!/usr/bin/env python3
"""The repository's benchmark: one command per run, see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run builds the harness and siad
from source into .bench_build/. The last line of stdout is the result JSON;
--record FILE also appends the full record (environment block, constants,
every figure) to FILE for perfbench/compare.py.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
OUT = ".bench_out"
HARNESS = os.path.join(BUILD, "perfbench_harness")
SIAD = os.path.join(BUILD, "sia", "service", "siad")
# An ingest run starts siad this many times before the measured run (it
# keeps the last) and this many times after it, so the set-up time is
# sampled at both ends of the run and its median does not hang on the
# host's state in one moment.
SETUP_STARTS = (5, 4)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log(msg)
    sys.exit(code)


def load(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        die("src/CMakeLists.txt not found: run from the root of a sia checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
           "--target", "perfbench_harness", "siad"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


def source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob("src/**/*", recursive=True)):
        if os.path.isfile(path):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def env_block(args, consts, harness):
    return {
        "hardware_threads": os.cpu_count(),
        "machine": platform.machine(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": cmake_cache("CMAKE_CXX_COMPILER"),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "constants": consts.get(args.workload, {}),
        "harness_constants": harness.get("constants", {}),
        "setup_starts": SETUP_STARTS if args.workload != "analyze_offline" else None,
        "sia_threads": 1 if args.workload == "analyze_offline" else "default",
    }


def run_harness(cmd, timeout, env=None):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, env=env)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        die("harness printed nothing (exit %d)" % proc.returncode, 1)
    return json.loads(lines[-1]), proc.returncode


# ----- siad as a child process ---------------------------------------------

class Siad:
    """One siad child; start() returns the time until it accepts clients."""

    def __init__(self, args):
        self.args = args
        self.proc = None
        self.port = 0
        self.gc_window = 0

    def start(self):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([SIAD, "--port", "0"] + self.args,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        m = re.search(r"listening on 127\.0\.0\.1:(\d+) .*gc window (\d+)",
                      line)
        if not m:
            self.stop()
            die("siad did not start: %r" % line, 1)
        self.port, self.gc_window = int(m.group(1)), int(m.group(2))
        with socket.create_connection(("127.0.0.1", self.port), timeout=10):
            pass
        return time.perf_counter() - t0

    def proc_figures(self):
        """Peak RSS (MB) and CPU seconds so far, from /proc."""
        rss = 0.0
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    rss = float(line.split()[1]) / 1024.0
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        cpu = (int(fields[11]) + int(fields[12])) / ticks
        return rss, cpu

    def stop(self):
        """SIGTERM (graceful drain); returns the drain summary counters."""
        if self.proc is None:
            return {}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.proc = None
        m = re.search(r"drained \((\d+) connections, (\d+) frames, (\d+) "
                      r"commits, (\d+) retry-later, (\d+) malformed\)", out or "")
        if not m:
            return {}
        keys = ["connections", "frames", "commits", "retry_later", "malformed"]
        return dict(zip(keys, map(int, m.groups())))


def run_ingest(args, consts):
    c = consts[args.workload]
    siad_args = c["siad_args"]
    setups = []
    server = None
    try:
        for i in range(SETUP_STARTS[0]):
            if server is not None:
                server.stop()
            server = Siad(siad_args)
            setups.append(server.start())
        # The replay's monitors use the GC window siad reported.
        cmd = [HARNESS, "ingest", "--port", str(server.port),
               "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--low", str(c["low"]), "--high", str(c["high"]),
               "--gc-window", str(server.gc_window),
               "--siad-pid", str(server.proc.pid),
               "--trace-out", trace_path(args)]
        res, code = run_harness(cmd, timeout=150)
        rss, cpu = server.proc_figures()
        drain = server.stop()
        server = None
        for i in range(SETUP_STARTS[1]):
            server = Siad(siad_args)
            setups.append(server.start())
            server.stop()
            server = None
    finally:
        if server is not None:
            server.stop()
    why = res.get("why", "")
    correct = bool(res.get("correct")) and code == 0
    if not drain:
        correct, why = False, why + "no drain summary from siad; "
    elif drain["commits"] != res["acked_commits"] or drain["malformed"] != 0:
        correct = False
        why += "siad ingested %d commits, client acked %d; " % (
            drain["commits"], res["acked_commits"])
    commits = max(1, drain.get("commits", 0))
    e2e = {
        "setup_s": statistics.median(setups),
        "op_p50_us": res["service"]["p50_us"],
        "op_tail_us": res["service"]["tail_us"],
        "cpu_ms_per_unit": res["siad"]["cpu_ms_per_kcommit"],
        "peak_rss_mb": rss,
    }
    layers = dict(res.get("layers", {}))
    if drain:
        layers["siad.cpu_us_per_commit"] = cpu * 1e6 / commits
        layers["siad.frames"] = drain["frames"]
        layers["siad.retry_later"] = drain["retry_later"]
    detail = {"harness": res, "siad": {"drain": drain, "cpu_s": cpu,
                                       "peak_rss_mb": rss},
              "setup_trials_s": setups,
              "samples": {"service": res["service"]["n"],
                          "ack_low_per_slice": res["low"]["n"],
                          "ack_high_per_slice": res["high"]["n"]},
              "refused_frac": res["failed"] / max(1, res["attempted"])}
    return correct, why, res["attempted"], res["failed"], e2e, layers, detail


def run_offline(args, consts):
    cmd = [HARNESS, "offline", "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--examples", "examples", "--trace-out", trace_path(args)]
    # One pool thread: every call runs on the harness thread, whose CPU
    # time is then the whole cost (see offline.cpp).
    res, code = run_harness(cmd, timeout=150,
                            env=dict(os.environ, SIA_THREADS="1"))
    correct = bool(res.get("correct")) and code == 0
    e2e = {"setup_s": res["setup_s"], "peak_rss_mb": res["peak_rss_mb"]}
    if not args.trace:
        e2e.update({
            "op_p50_us": res["checks"]["p50_ms"] * 1e3,
            "op_tail_us": res["checks"]["tail_ms"] * 1e3,
            # One lint + witness pass over the suite set.
            "cpu_ms_per_unit": res["lint"]["p50_ms"],
        })
    detail = {"harness": res, "refused_frac": 0.0}
    return (correct, res.get("why", ""), int(res["attempted"]),
            int(res["failed"]), e2e, res.get("layers", {}), detail)


def trace_path(args):
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, "trace-%s-seed%d.tsv" % (args.workload, args.seed))


def self_test():
    build()
    ok = subprocess.run([HARNESS, "selftest"]).returncode == 0
    ok = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                         "--self-test"]).returncode == 0 and ok
    print(json.dumps({"self_test": "passed" if ok else "FAILED"}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    bench = load("../BENCHMARK.json") if os.path.isfile(
        os.path.join(HERE, "..", "BENCHMARK.json")) else die(
        "BENCHMARK.json not found next to perfbench/")
    consts = load("workloads.json")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die("--workload must be one of " + ", ".join(names))
    build()

    runner = run_offline if args.workload == "analyze_offline" else run_ingest
    correct, why, attempted, failed, e2e, layers, detail = runner(args, consts)
    env = env_block(args, consts, detail["harness"])

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        # A layer the workload never calls did no work: it reads 0.
        value = (layers if args.trace else e2e).get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print("env " + json.dumps(env))
    print("detail " + json.dumps(detail))
    for name, m in metrics.items():
        print("%-44s %16.6g %s" % (name, m["value"], m["unit"]))
    if not correct:
        log("INCORRECT: " + why)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "correct": correct,
                                "attempted": attempted, "failed": failed,
                                "refused_frac": detail["refused_frac"],
                                "metrics": metrics, "env": env}) + "\n")
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
