#!/usr/bin/env python3
"""Repository benchmark for the Turnpike campaign engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload avf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (a CMake package that compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the benchmark program for one workload in its own process. Set-up time is timed
over several fresh processes, each from just before it starts to the
steady-clock stamp on its "ready" line. The last line of stdout is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (ops_per_s,
cpu_ms_per_op, setup_s, peak_rss_mb); with --trace 1 they are the
per-layer ones. error_rate is printed on its own line, since it is 0
on correct code. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("avf", "sweep", "sim-long", "rootcause")
SETUP_SAMPLES = 31
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cached_source(bdir):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configure (once) and build the program; return its path."""
    bdir = build_dir()
    if cached_source(bdir) not in (None, HERE):
        shutil.rmtree(bdir)
    # The compiler's and linker's temporary files stay in the build
    # tree too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    # Configuring every time keeps a reused build tree in step with
    # the benchmark's CMakeLists.txt.
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "perfbench",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        left = max(1.0, deadline - time.monotonic())
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("build timed out")
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return os.path.join(bdir, "perfbench")


def child_env(tmp):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TURNPIKE_")}
    env["TMPDIR"] = tmp
    return env


class Program:
    """One benchmark process; the constructor returns once it is ready.

    The program ends set-up by printing "ready T", T being its
    CLOCK_MONOTONIC reading in nanoseconds, the clock
    time.monotonic_ns() reads. Set-up time is T minus this runner's
    reading just before the start, so the runner's own wake-up on the
    pipe is not counted.
    """

    def __init__(self, cmd, env):
        t0 = time.monotonic_ns()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     env=env, text=True)
        words = self.proc.stdout.readline().split()
        if len(words) != 2 or words[0] != "ready" or not words[1].isdigit():
            self.stop()
            raise BenchError("program did not get ready")
        self.setup_s = (int(words[1]) - t0) / 1e9

    def finish(self):
        try:
            out, _ = self.proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("program timed out")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"program exited {self.proc.returncode} "
                             "without a result")
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            raise BenchError("program printed no JSON result")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def setup_sample(base, env):
    """Set-up time of one fresh process that exits once it is ready."""
    d = Program(base + ["--setup-only"], env)
    try:
        d.proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        d.stop()
    if d.proc.returncode != 0:
        raise BenchError("set-up run failed")
    return d.setup_s


def run_program(exe, workload, seed, seconds, trace, tmp):
    """Run one workload; return (program result, setup samples).

    Half the extra set-up samples are taken before the measured
    process and half after it, so they span the run, not one moment
    of it.
    """
    env = child_env(tmp)
    base = [exe, "--workload", workload, "--seed", str(seed),
            "--tmp", os.path.join(tmp, "ckpt")]
    side = (SETUP_SAMPLES - 1) // 2
    setups = [setup_sample(base, env) for _ in range(side)]
    spans = os.path.join(build_dir(),
                         f"spans-{workload}-seed{seed}.jsonl")
    cmd = base + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", spans]
    d = Program(cmd, env)
    try:
        setups.append(d.setup_s)
        res = d.finish()
    finally:
        d.stop()
    setups += [setup_sample(base, env) for _ in range(side)]
    return res, setups


def one_run(args):
    exe = build()
    tmp = tempfile.mkdtemp(prefix="run-", dir=build_dir())
    try:
        res, setups = run_program(exe, args.workload, args.seed,
                                 args.seconds, args.trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = int(res["attempted"]), int(res["failed"])
    if args.trace:
        metrics = res["metrics"]
    else:
        metrics = {
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "cpu_ms_per_op": {"value": res["cpu_ms_per_op"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(f"workload {res['workload']}: {res['jobs']} worker(s), "
          f"{res['passes']} {'traced cycle' if args.trace else 'pass'}(es)"
          f", seed {args.seed}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':34s} {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print("signature " + json.dumps(res["signature"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def self_test():
    """Counts repeat for one seed, and the seed reaches the inputs."""
    exe = build()
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=build_dir())
    try:
        sig = {}
        for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
            res, _ = run_program(exe, "avf", seed, 1, 0, tmp)
            if res["failed"]:
                raise BenchError(f"avf seed {seed}: checks failed")
            sig[tag] = res["signature"]
        res, _ = run_program(exe, "sweep", 1, 1, 1, tmp)
        if res["failed"]:
            raise BenchError("sweep traced run: checks failed")
        declared = set()
        bench_json = os.path.join(ROOT, "BENCHMARK.json")
        if os.path.exists(bench_json):
            with open(bench_json) as f:
                declared = {m["name"] for m in json.load(f)["per_layer"]}
            if declared != set(res["metrics"]):
                raise BenchError("BENCHMARK.json per_layer names differ "
                                 "from the traced run's metrics")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if sig["a"] != sig["b"]:
        raise BenchError("same seed gave different counts")
    outcomes = ("core.avf.masked", "core.avf.recovered", "core.avf.sdc",
                "core.avf.hang")
    if all(sig["a"][k] == sig["c"][k] for k in outcomes):
        raise BenchError("a different seed left the avf outcome counts "
                         "unchanged")
    print("self-test passed: counts repeat for a seed, the seed moves the "
          "avf outcomes, and the traced run reports "
          f"{len(res['metrics'])} per-layer metrics")
    return 0


def main():
    # A terminated runner unwinds, so the program it started is killed
    # and reaped and the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        return one_run(args)
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
