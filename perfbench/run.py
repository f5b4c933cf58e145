"""rdiagram benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload small_cli --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Load is a closed loop with one caller in one process: each op is issued
after the previous one returns, in-process, so interpreter start-up and
imports are excluded.  ``--trace 0`` repeats set-up (generation, document
serialisation, one warm-up op) and reports its median, then issues ops
for ``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs a
fixed op list twice, untraced and then with every layer wrapped, and
reports the per-layer metrics; the op list does not depend on timing, so
every count repeats exactly for a seed.  Outputs are checked against the
independent oracle outside the timed region.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
metadata.  The exit code is 0 when every output is correct, 1 when one is
not, and 2 when the benchmark cannot run at all (for example when
``src/rdiagram`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("small_cli", "cli_stages", "coeff_growth", "big_prime")
SETUP_REPEATS = 3
# Ops in the traced run: enough for each layer's counts to be stable, few
# enough that the untraced and traced passes together stay well under a minute.
TRACE_OPS = {"small_cli": 60, "cli_stages": 30, "coeff_growth": 60, "big_prime": 6}
TAIL_BEYOND = 10


def _fatal(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import rdiagram
    except ImportError as exc:
        _fatal(f"cannot import rdiagram from {SRC}: {exc}")
    if Path(rdiagram.__file__).resolve().parent != SRC / "rdiagram":
        _fatal(f"rdiagram was imported from {rdiagram.__file__}, not from {SRC}")


def git_sha() -> str:
    """The checked-out commit, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_s() -> float:
    """A fixed pure-Python loop, timed to show machine drift next to the metrics.

    It is never used to normalise a metric.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ``TAIL_BEYOND`` samples beyond it.

    With fewer samples than that the maximum is returned as the 100th percentile.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, ordered[k]


def _setup(name: str, seed: int, size: int | None, repeats: int):
    """Build the workload ``repeats`` times; return the last build and the median time."""
    from workloads import build

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload = build(name, seed, size)
        workload.attempt(workload.ops[0])  # warm-up
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def _gate(workload, results) -> dict:
    """Check every (op, output, failure) outside timing.

    Wrong outputs make the run incorrect; capped ops are failed ops whose
    instance seeds are listed.
    """
    from workloads import CAPPED, Gate

    gate = Gate(workload)
    wrong, capped, capped_seeds = [], [], set()
    for op, output, failure in results:
        if failure is None:
            failure = gate.check(op, output)
        if failure is None:
            continue
        if failure.startswith(CAPPED):
            capped.append(f"op {op}: {failure}")
            capped_seeds.add(workload.instances[op[0]].seed)
        else:
            wrong.append(f"op {op}: {failure}")
    return {
        "wrong": wrong,
        "capped": capped,
        "capped_seeds": sorted(capped_seeds),
        "stdout_sha256": gate.stdout_digest(),
    }


def measure(name: str, seed: int, seconds: float, size: int | None = None,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """The untraced run: set-up, then a closed loop of ops for ``seconds``."""
    calib_before = calibration_s()
    workload, setup_s = _setup(name, seed, size, setup_repeats)
    latencies, results = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        op = workload.ops[i % len(workload.ops)]
        elapsed, output, failure = workload.attempt(op)
        latencies.append(elapsed)
        results.append((op, output, failure))
        i += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the gate
    busy = sum(latencies)
    checked = _gate(workload, results)
    pct, tail_s = tail(latencies)
    attempted = len(results)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (attempted / busy, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    meta = {
        "tail_percentile": round(pct, 3),
        "latency_samples": attempted,
        "failure_rate": (len(checked["wrong"]) + len(checked["capped"])) / attempted,
        "pool_ops": len(workload.ops),
        "distinct_ops_run": len(set(op for op, _, _ in results)),
        "busy_s": busy,
        "calibration_s": [calib_before, calibration_s()],
    }
    return _result(name, seed, seconds, metrics, attempted, checked, meta)


def trace(name: str, seed: int, ops: int | None = None, size: int | None = None,
          spans_path: Path | None = None) -> dict:
    """The traced run: one untraced and one traced pass over a fixed op list."""
    from layers import PER_LAYER, Tracer

    calib_before = calibration_s()
    workload, setup_s = _setup(name, seed, size, 1)
    op_list = workload.ops[: TRACE_OPS[name] if ops is None else ops]

    start = time.perf_counter()
    for op in op_list:
        workload.attempt(op)
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    results = []
    try:
        start = time.perf_counter()
        for op in op_list:
            with tracer.op():
                results.append((op, *workload.attempt(op)[1:]))
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    checked = _gate(workload, results)
    values = tracer.metrics()
    values["trace_overhead_s"] = traced_s - untraced_s
    metrics = {metric: (values[metric], unit) for metric, unit in PER_LAYER}
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_path)
    meta = {
        "traced_ops": len(op_list),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)) if spans_path else None,
        "setup_s": setup_s,
        "calibration_s": [calib_before, calibration_s()],
    }
    return _result(name, seed, None, metrics, len(op_list), checked, meta)


def _result(name, seed, seconds, metrics, attempted, checked, meta) -> dict:
    from workloads import CAP_S

    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cap_s": CAP_S,
        "load": "closed loop, 1 caller, in-process; process start-up excluded",
        **meta,
        "stdout_sha256": checked["stdout_sha256"],
        "capped_seeds": checked["capped_seeds"],
        "failures": (checked["wrong"] + checked["capped"])[:20],
    }
    return {
        "meta": meta,
        "line": {
            "correct": not checked["wrong"],
            "attempted": attempted,
            "failed": len(checked["wrong"]) + len(checked["capped"]),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def _print(result: dict) -> None:
    meta, line = result["meta"], result["line"]
    for key, m in line["metrics"].items():
        print(f"{meta['workload']:>12}  {key:<48} {m['value']:>14.6g} {m['unit']}")
    if "failure_rate" in meta:
        print(f"{meta['workload']:>12}  {'failure_rate':<48} {meta['failure_rate']:>14.6g} failed/attempted")
    for failure in meta["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            _fatal(f"workload {name} could not run (exit {proc.returncode})")
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for key, m in line["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return _run_all(args)
    if args.trace:
        spans = ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.json"
        result = trace(args.workload, args.seed, spans_path=spans)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    _print(result)
    print(json.dumps({"meta": result["meta"]}))
    print(json.dumps(result["line"]))
    return 0 if result["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
