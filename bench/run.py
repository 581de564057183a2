"""Benchmark runner for stratifold.

    python3 bench/run.py --workload spine_sums --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client in one process sends the
workload's operations in a closed loop (the next one only after the
previous one returned).  A run is:

1. set-up: several fresh interpreters each import ``stratifold`` and
   ``stratifold.cli``; ``setup_s`` is the median time until one is ready;
2. input generation from ``--seed`` (not timed);
3. passes over the operations until ``--seconds`` have elapsed: in the
   first every answer is checked, later answers must repeat it byte for
   byte.  The later passes are the measured ones; their inputs are the
   same as the first's.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` traced and untraced passes
alternate and the object holds the per-layer metrics.
``--workload all`` runs every workload in its own process and prints
every end-to-end metric with its unit.  See RERUN.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

OP_LIMIT_S = 10.0      # an operation running longer is stopped and failed
HARD_STOP_S = 150.0    # no new operation starts after this many seconds
SETUP_REPEATS = 15     # fresh interpreters timed for setup_s (after one warm-up)
TAIL_BEYOND = 10       # samples per pass beyond the tail percentile
FAILURE_LINES = 5      # failure messages kept in the detail line

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "decided_share": "ratio",
             "peak_rss_mb": "MB"}


class OpTimeout(BaseException):
    """Raised in the running operation when it exceeds OP_LIMIT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout


# -- set-up time -------------------------------------------------------------


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported the
    package and the CLI and says it is ready; one unmeasured warm-up first
    so byte-compiled files exist."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import stratifold, stratifold.cli; print('ready', flush=True)"
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            rc = proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up interpreter failed (exit {rc})")
        if i:
            times.append(elapsed)
    return times


# -- passes ------------------------------------------------------------------


class Runner:
    """Runs passes of a workload and keeps the per-operation record."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.first: list[str | None] = [None] * len(workload.ops)
        self.start = time.perf_counter()
        self.failures: list[str] = []

    def _timed(self, op, ctx):
        """(elapsed, raw, error) for one operation under the time limit."""
        old_handler = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        start = time.perf_counter()
        try:
            elapsed, raw = op.call(ctx)
            return elapsed, raw, None
        except OpTimeout:
            return time.perf_counter() - start, None, f"exceeded {OP_LIMIT_S} s"
        except Exception as exc:  # any failure of the program under test
            return time.perf_counter() - start, None, f"raised {exc!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old_handler)

    def run_pass(self, check: bool, traced: bool = False) -> dict:
        """One pass; returns latencies, failures and indeterminate count."""
        ctx: dict = {}
        latencies, failed, indeterminate = [], 0, 0
        start = time.perf_counter()
        for i, op in enumerate(self.workload.ops):
            if time.perf_counter() - self.start > HARD_STOP_S:
                failed += len(self.workload.ops) - i
                self._fail(f"run passed {HARD_STOP_S} s; {len(self.workload.ops) - i}"
                           " operations not run")
                break
            if traced:
                self.tracer.op = i
            try:
                elapsed, raw, err = self._timed(op, ctx)
            finally:
                if traced:
                    self.tracer.op = None
            latencies.append(elapsed)
            if err is None:
                digest = hashlib.sha256(repr(raw).encode()).hexdigest()
                if check:
                    err = self._check(op, raw, ctx)
                    self.first[i] = digest
                elif digest != self.first[i]:
                    err = "answer differs from the check pass"
                indeterminate += err is None and op.indeterminate(raw)
            if err is not None:
                failed += 1
                self._fail(f"op {i} ({op.kind}): {err}")
        return {"latencies": latencies, "failed": failed,
                "indeterminate": indeterminate,
                "wall_s": time.perf_counter() - start}

    def _check(self, op, raw, ctx) -> str | None:
        try:
            return op.check(raw, ctx)
        except Exception as exc:  # a malformed answer fails its check
            return f"check raised {exc!r}"

    def _fail(self, message: str) -> None:
        if len(self.failures) < FAILURE_LINES:
            self.failures.append(message)

    def traced_pass(self) -> dict:
        """One pass with the tracer installed; adds its work counters."""
        before = dict(self.tracer.counters)
        self.tracer.install()
        try:
            result = self.run_pass(check=False, traced=True)
        finally:
            self.tracer.uninstall()
        result["counters"] = {k: v - before[k] for k, v in self.tracer.counters.items()}
        return result

    def measured(self, seconds: float) -> list[dict]:
        """Untraced passes until ``seconds`` have elapsed (at least one)."""
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            if time.perf_counter() - self.start > HARD_STOP_S:
                break
            passes.append(self.run_pass(check=False))
        return passes


# -- statistics --------------------------------------------------------------


def decile(values: list[float], k: int) -> float:
    """The k-th decile (k in 1..9) of ``values``, interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def latency_stats(passes: list[dict], ops_per_pass: int) -> dict:
    """Throughput, median and tail latency of the measured passes.

    Every pass repeats the same inputs.  Other tenants of a shared
    machine only ever add time, in bursts that slow whole passes by up to
    half, so each figure is taken from the fast decile of the passes:
    throughput is the 9th decile over passes of the operations a pass
    completed divided by its wall-clock time, and each operation's
    latency is the 1st decile of its latencies over the passes.  The p50
    and the tail are quantiles of those per-operation latencies; the tail
    is the highest percentile with TAIL_BEYOND operations beyond it,
    100 * (1 - TAIL_BEYOND / ops_per_pass), so it does not move with the
    number of passes a run happens to complete.
    """
    per_pass = [len(p["latencies"]) / p["wall_s"] for p in passes]
    per_op = [decile([p["latencies"][i] for p in passes if len(p["latencies"]) > i], 1)
              for i in range(max(len(p["latencies"]) for p in passes))]
    cut = len(per_op) - TAIL_BEYOND
    return {
        "samples": sum(len(p["latencies"]) for p in passes),
        "estimator": "9th decile of pass throughput; "
                     "1st decile of each operation's latency",
        "ops_per_s": decile(per_pass, 9),
        "p50_s": statistics.median(per_op),
        "tail_percentile": round(100 * cut / len(per_op), 3),
        "tail_s": statistics.quantiles(per_op, n=len(per_op), method="inclusive")[cut - 1],
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


# -- one workload --------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = measure_setup() if not trace else []
    import tracing
    import workloads

    workload = workloads.build(name, seed)
    ops_per_pass = len(workload.ops)
    tracer = tracing.Tracer() if trace else None
    runner = Runner(workload, tracer)
    # keep the generated corpus out of the collector's way during the run
    gc.collect()
    gc.freeze()
    # the check pass warms the program up and opens the measured window;
    # its answers are checked between operations, so it gives no samples
    window = time.perf_counter()
    check = runner.run_pass(check=True)
    passes, traced = [], []
    if not trace:
        passes = runner.measured(seconds - (time.perf_counter() - window))
    else:
        # alternate untraced and traced passes, so drift in machine speed
        # falls on both sides of the overhead ratio alike
        while len(traced) < 2 or time.perf_counter() - window < seconds:
            if time.perf_counter() - runner.start > HARD_STOP_S:
                break
            traced.append(runner.traced_pass())
            passes.append(runner.run_pass(check=False))

    everything = [check] + passes + traced
    attempted = sum(len(p["latencies"]) for p in everything)
    failed = sum(p["failed"] for p in everything)
    measured_indet = [p["indeterminate"] for p in everything]
    repeat_errors = []
    if any(x != check["indeterminate"] for x in measured_indet):
        repeat_errors.append("indeterminate count differs between passes")
    stats = latency_stats(passes, ops_per_pass)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "ops_per_pass": ops_per_pass, "sizes": workload.sizes,
        "timed_passes": len(passes), "latency": stats,
        "failed_share": failed / attempted,
        "indeterminate_share": check["indeterminate"] / ops_per_pass,
        "basis": "indeterminate_share per operation of one pass",
        "failures": runner.failures,
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": stats["ops_per_s"],
            "latency_p50_ms": 1e3 * stats["p50_s"],
            "latency_tail_ms": 1e3 * stats["tail_s"],
            "decided_share": 1 - check["indeterminate"] / ops_per_pass,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: _metric(v, E2E_UNITS[k]) for k, v in metrics.items()}
        detail["setup_samples_s"] = setup
    else:
        metrics, counters = per_layer_metrics(tracer, passes, traced, tracing)
        metrics["indeterminate_share"] = _metric(detail["indeterminate_share"], "ratio")
        metrics["failed_share"] = _metric(detail["failed_share"], "ratio")
        if any(p["counters"] != counters for p in traced):
            repeat_errors.append("work counters differ between traced passes")
        detail["counters"] = counters
        detail["counters_basis"] = "per pass of the corpus"
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        spans_file = out / f"{name}-seed{seed}.spans.json"
        tracer.write(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    detail["repeat_errors"] = repeat_errors
    correct = failed == 0 and not repeat_errors
    return {"detail": detail,
            "result": {"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def per_layer_metrics(tracer, untraced, traced, tracing):
    """Per-pass layer times and counters from the traced passes, plus the
    tracing overhead against the untraced passes of the same run."""
    n = len(traced)
    metrics = {}
    for layer, row in tracer.layer_times().items():
        metrics[f"{layer}.calls"] = _metric(row["calls"] / n, "count")
        metrics[f"{layer}.busy_s"] = _metric(row["busy_s"] / n, "s")
        metrics[f"{layer}.self_s"] = _metric(row["self_s"] / n, "s")
    counters = traced[0]["counters"]
    for name in tracing.COUNTER_NAMES:
        metrics[name] = _metric(counters[name], "count")
    tc_calls = tracer.layer_times()["algebra.tc"]["calls"] / n
    metrics["algebra.tc.closed_ratio"] = _metric(
        counters["algebra.tc.closed"] / tc_calls if tc_calls else 0.0, "ratio")

    ops = len(untraced[0]["latencies"])
    plain = latency_stats(untraced, ops)["ops_per_s"]
    slow = latency_stats(traced, ops)["ops_per_s"]
    metrics["trace.untraced_ops_per_s"] = _metric(plain, "1/s")
    metrics["trace.traced_ops_per_s"] = _metric(slow, "1/s")
    metrics["trace.overhead_ratio"] = _metric(plain / slow, "ratio")
    return metrics, counters


# -- all workloads -------------------------------------------------------------


def run_all(names, seed: int, seconds: float) -> int:
    """Each workload in a fresh process; a table of every end-to-end metric."""
    results, bad = {}, 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: failed with exit code {proc.returncode}")
            bad += 1
            continue
        result = json.loads(lines[-1])
        results[name] = result
        bad += not result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}"
              f" failed_share={result['failed'] / result['attempted']:.4g}")
        for key, m in result["metrics"].items():
            print(f"  {key:<18} {m['value']:>12.6g} {m['unit']}")
    print(json.dumps({"correct": bad == 0, "workloads": results}))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stratifold" / "__init__.py").is_file():
        print(f"no stratifold package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(WORKLOADS, args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
