"""Self-check of the benchmark on a tiny seed.

    python3 perfbench/selfcheck.py

For every workload it asserts that each metric named in ``BENCHMARK.json``
is emitted with its unit, that outputs pass the correctness gate, that
the counts (``*.calls``, ``*.max_bits``) of two traced runs are identical,
and that the layer wrappers leave every ``rdiagram`` module and class as
they found it.  Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 7


def _snapshot() -> dict:
    """Every attribute of the rdiagram modules and of the classes they define."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if name != "rdiagram" and not name.startswith("rdiagram."):
            continue
        for attr, obj in vars(mod).items():
            state[(name, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == name:
                for member, raw in vars(obj).items():
                    state[(name, attr, member)] = raw
    return state


def _check_line(line: dict, declared: list, label: str) -> None:
    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if emitted != wanted:
        raise AssertionError(f"{label}: emitted {emitted}, declared {wanted}")
    if not (line["correct"] and line["failed"] == 0 and line["attempted"] >= 1):
        raise AssertionError(f"{label}: correct={line['correct']} failed={line['failed']}")


def _counts(line: dict) -> dict:
    return {
        name: m["value"]
        for name, m in line["metrics"].items()
        if name.endswith((".calls", ".max_bits"))
    }


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run._import_program()
    import rdiagram.cli  # noqa: F401  (load every layer before the snapshot)
    import rdiagram.randomgen  # noqa: F401

    before = _snapshot()
    for name in run.WORKLOADS:
        line = run.measure(name, SEED, seconds=0.2, size=3, setup_repeats=1)["line"]
        _check_line(line, spec["end_to_end"], f"{name} --trace 0")
        first = run.trace(name, SEED, ops=3, size=2)["line"]
        second = run.trace(name, SEED, ops=3, size=2)["line"]
        _check_line(first, spec["per_layer"], f"{name} --trace 1")
        if _counts(first) != _counts(second):
            raise AssertionError(f"{name}: counts differ between two traced runs")
        after = _snapshot()
        if after.keys() != before.keys() or any(after[k] is not v for k, v in before.items()):
            raise AssertionError(f"{name}: rdiagram modules still patched after tracing")
        print(f"selfcheck: {name} ok")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
