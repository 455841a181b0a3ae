"""Benchmark runner for blockcheb.

    python3 perfbench/run.py --workload verify|triangle|gram|oracle \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation of a workload is one
`blockcheb` command line, run through blockcheb.cli.main in a fresh
interpreter (perfbench/worker.py), one at a time.  A pass runs the
workload's whole operation list; passes repeat until the pass end
nearest to --seconds, and the figures are medians, so a slow stretch of
a shared machine does not set them.  Every document is checked
against a route computed apart from the program (reference.py).

With --trace 0 the last stdout line carries the end-to-end metrics:
  setup_s      median time from spawning an interpreter until it has
               imported blockcheb.cli (numpy included)
  wall_s       median over passes of the summed in-process time of the
               pass's cli.main calls
  peak_rss_mb  largest resident set of any operation, taken right after
               its cli.main call returns
With --trace 1 untraced and traced passes alternate; the line carries
the per-layer metrics of the median traced pass and the tracing
overhead (median traced minus median untraced pass time).  The line
before it holds reference figures: backend, versions, nproc and the
time of a fixed pure-Python loop run between operations.  Run records
and trace spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import reference
from workloads import WORKLOADS, pass_order

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

MIN_PASSES = 2
LAST_PASS_LIMIT_S = 120.0   # no pass may end later: keeps a run inside 180 s
OP_TIMEOUT_S = 120.0
# blockcheb does no BLAS work, but numpy's OpenBLAS starts one thread per
# core on import; with that pool, set-up time depended on whether this
# machine's second core was free (0.19 s against 0.27 s); with one
# thread it stays near 0.20 s either way.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
CHECKS = {"triangle": reference.check_triangle, "gram": reference.check_gram,
          "oracle": reference.check_oracle, "verify": reference.check_verify}
KERNEL_BUCKETS = ("kernel.ground_le12", "kernel.ground_13_15",
                  "kernel.ground_ge16")


def reference_loop() -> float:
    """A fixed pure-Python loop; its time tracks the machine, not the code."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


class Run:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.rng = random.Random(f"{workload}:{seed}")
        self.chains = WORKLOADS[workload](self.rng)
        self.trace = trace
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.ref_loop: list[float] = []
        self.rss_kb = 0
        self.facts: dict = {}
        self.spans: list | None = None
        self.op_times: dict[str, list[float]] = {}

    # ----------------------------------------------------------- one op

    def run_op(self, op: dict, cache: str, traced: bool):
        argv = [a.replace("{cache}", cache) for a in op["argv"]]
        job = {"argv": argv, "trace": traced, "totals": op.get("totals")}
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, WORKER, SRC, json.dumps(job)],
                                  capture_output=True, text=True, cwd=ROOT,
                                  env=WORKER_ENV, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, [f"timed out after {OP_TIMEOUT_S} s"]
        if proc.returncode != 0:
            return None, [f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}"]
        try:
            result = json.loads(proc.stdout)
        except ValueError:
            return None, [f"worker printed no result: {proc.stdout[:200]!r}"]
        result["digest"] = hashlib.sha256(result["stdout"].encode()).hexdigest()
        self.setup.append(result["ready"] - start)
        if not traced:
            self.rss_kb = max(self.rss_kb, result["rss_kb"])
        self.facts = {k: result[k] for k in ("backend", "python", "numpy")}
        if result["error"]:
            return result, [result["error"].strip().splitlines()[-1]]
        if result["exit"] != op["rc"]:
            return result, [f"exit code {result['exit']}, expected {op['rc']}; "
                            f"stderr {result['stderr'].strip()[:200]!r}"]
        return result, self.check(op, result)

    def check(self, op: dict, result: dict) -> list[str]:
        """Full reference check the first time, byte identity after that."""
        seen = self.digests.get(op["key"])
        if seen is not None:
            return [] if seen == result["digest"] else [
                "document differs from an earlier pass"]
        kind, *params = op["check"]
        if kind == "oracle":
            params.append(result["totals"])
        problems = CHECKS[kind](result["stdout"], *params)
        if not problems:
            self.digests[op["key"]] = result["digest"]
        return problems

    # --------------------------------------------------------- one pass

    def run_pass(self, traced: bool):
        """Run every operation once; return (pass time, summed layer figures)."""
        wall = 0.0
        layers: dict[str, float] = {}
        spans = []
        digests, problems = {}, {}
        ops = pass_order(self.chains, self.rng)
        os.makedirs(OUT, exist_ok=True)
        cache = tempfile.mkdtemp(prefix="cache-", dir=OUT)
        try:
            for op in ops:
                self.ref_loop.append(reference_loop())
                result, problems[op["key"]] = self.run_op(op, cache, traced)
                if result is None:
                    continue
                wall += result["end"] - result["start"]
                if not traced:
                    self.op_times.setdefault(op["key"], []).append(
                        result["end"] - result["start"])
                digests[op["key"]] = result["digest"]
                if traced:
                    _add_layers(layers, result["trace"])
                    spans.append({"op": op["key"],
                                  "spans": result["trace"]["spans"],
                                  "dropped": result["trace"]["dropped"]})
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        for op in ops:
            partner = op.get("same_as")
            if partner and digests.get(op["key"]) != digests.get(partner):
                problems[op["key"]].append(
                    f"cache-served document differs from fresh {partner!r}")
            self.attempted += 1
            if problems[op["key"]]:
                self.failed += 1
                self.problems.append(f"{op['key']}: {'; '.join(problems[op['key']])}")
        if traced and self.spans is None:
            self.spans = spans
        return wall, layers

    # ---------------------------------------------------------- the run

    def measure(self, seconds: float):
        """Whole passes, stopping at the pass end nearest to `seconds`.

        Traced runs alternate an untraced and a traced pass.
        """
        start = time.perf_counter()
        min_passes = 1 if self.trace else MIN_PASSES
        plain_walls, traced_walls, traced_layers = [], [], []
        while True:
            plain_walls.append(self.run_pass(False)[0])
            if self.trace:
                wall, layers = self.run_pass(True)
                traced_walls.append(wall)
                traced_layers.append(layers)
            elapsed = time.perf_counter() - start
            next_end = elapsed * (1 + 1 / len(plain_walls))
            if len(plain_walls) >= min_passes and \
                    (elapsed + next_end) / 2 >= seconds:
                break
            if next_end > LAST_PASS_LIMIT_S:
                break
        return plain_walls, traced_walls, traced_layers


def _add_layers(layers: dict, trace: dict) -> None:
    """Fold one operation's trace into a pass's per-layer figures."""
    for name, (calls, self_s, total_s) in trace["stats"].items():
        layers[f"{name}.calls"] = layers.get(f"{name}.calls", 0) + calls
        layers[f"{name}.self_s"] = layers.get(f"{name}.self_s", 0.0) + self_s
        layers[f"{name}.total_s"] = layers.get(f"{name}.total_s", 0.0) + total_s
    for bucket in KERNEL_BUCKETS:
        if bucket in trace["stats"]:
            calls, self_s, _total = trace["stats"][bucket]
            layers["kernel.calls"] = layers.get("kernel.calls", 0) + calls
            layers["kernel.self_s"] = layers.get("kernel.self_s", 0.0) + self_s
    for name, amount in trace["counters"].items():
        layers[name] = layers.get(name, 0) + amount


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "blockcheb", "cli.py")):
        print(f"error: no blockcheb sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    run = Run(args.workload, args.seed, bool(args.trace))
    plain_walls, traced_walls, traced_layers = run.measure(args.seconds)

    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            value = overhead if name == "trace.overhead_s" else \
                statistics.median_low(layers.get(name, 0) for layers in traced_layers)
            metrics[name] = _metric(value, m["unit"])
    else:
        values = {"setup_s": statistics.median(run.setup),
                  "wall_s": statistics.median(plain_walls),
                  "peak_rss_mb": run.rss_kb / 1024}
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                   for m in spec["end_to_end"]}

    figures = {
        **run.facts,
        "nproc": len(os.sched_getaffinity(0)),
        "reference_loop_s": {"median": statistics.median(run.ref_loop),
                             "min": min(run.ref_loop), "max": max(run.ref_loop)},
        "passes": len(plain_walls),
        "pass_wall_s": plain_walls,
        "traced_pass_wall_s": traced_walls,
        "setup_samples": len(run.setup),
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"reference": figures, "metrics": metrics,
                   "op_s": run.op_times, "setup_s": run.setup,
                   "first_traced_pass": traced_layers[:1],
                   "problems": run.problems}, fh, indent=1)
    if run.spans is not None:
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(run.spans, fh)

    for line in run.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"reference": figures}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
