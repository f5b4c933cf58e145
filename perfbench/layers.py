"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions and public methods of each
layer module (plus ``fplinalg._rref``) and rebinds every name under which
any ``rdiagram`` module holds them, since ``from .intlinalg import hnf``
copies the binding.  ``Tracer.uninstall`` puts every original back.

A wrapper only appends one tuple per call, (function, parent span, start,
end); self times, counts, entry sizes and distinct-input ratios are
computed from the spans after the run.  The inputs of ``hnf`` and
``is_separated`` and the outputs of ``hnf`` and ``snf`` are kept by
reference for that.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("intlinalg", "fplinalg", "presentations", "pullback", "reduction", "homology", "oracle", "cli")
PRIVATE_TRACED = {"fplinalg": ("_rref",)}

# Functions whose outputs are scanned for the largest entry, and functions
# whose first argument is fingerprinted to count distinct inputs per op.
OUTPUT_BITS = ("intlinalg.hnf", "intlinalg.snf")


def _matrix_key(M):
    return (M.rows, M.cols, M.entries)


def _diagram_key(D):
    return (
        D.p, D.mbar_dim,
        D.M1.gens, D.M1.relations.basis, D.M2.gens, D.M2.relations.basis,
        D.p1.entries, D.p2.entries,
    )


INPUT_KEYS = {"intlinalg.hnf": _matrix_key, "pullback.is_separated": _diagram_key}

# Metric prefix -> traced function, where the issue's short name differs.
ALIASES = {"presentations.normal_form": "presentations.ZModulePresentation.normal_form"}

_UNITS = {"self_s": "s", "calls": "count", "max_bits": "bits", "distinct_ratio": "ratio"}
_NAMES = [
    "intlinalg.self_s",
    "intlinalg.hnf.calls", "intlinalg.hnf.self_s", "intlinalg.hnf.max_bits", "intlinalg.hnf.distinct_ratio",
    "intlinalg.snf.calls", "intlinalg.snf.self_s", "intlinalg.snf.max_bits",
    "intlinalg.kernel_basis.calls", "intlinalg.kernel_basis.self_s",
    "intlinalg.lattice_intersection.calls", "intlinalg.lattice_intersection.self_s",
    "intlinalg.IntMatrix.from_cols.calls", "intlinalg.IntMatrix.from_cols.self_s",
    "fplinalg.self_s",
    "fplinalg.validate_prime.calls", "fplinalg.validate_prime.self_s",
    "fplinalg._rref.calls", "fplinalg._rref.self_s",
    "presentations.self_s", "presentations.normal_form.calls",
    "pullback.self_s",
    "pullback.is_separated.calls", "pullback.is_separated.self_s", "pullback.is_separated.distinct_ratio",
    "pullback.separate_presented.calls",
    "reduction.self_s",
    "reduction.reduce_combined.calls", "reduction.reduce_K.calls", "reduction.reduce_barf.calls",
    "reduction.reduce_monos.calls", "reduction.validate_rdiagram.calls",
    "homology.self_s",
    "homology.validate_complex.calls", "homology.generator_sets.calls",
    "homology.canonical_kernel_presentation.calls", "homology.homology_presentation.calls",
    "homology.canonical_kernel_presentation.self_s", "homology.closed_form_components.self_s",
    "oracle.self_s", "oracle.integer_homology_invariants.calls",
    "cli.self_s", "cli.load_document.self_s",
]
# (metric name, unit) for every per-layer metric, in report order.
PER_LAYER = [(name, _UNITS[name.rsplit(".", 1)[1]]) for name in _NAMES]
PER_LAYER.append(("trace_overhead_s", "s"))


def _max_bits(matrices) -> int:
    return max((abs(x).bit_length() for M in matrices for row in M.entries for x in row), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index or -1 for an op, parent span, start, end)
        self.ops: list[int] = []  # span index of each op's root span
        self.inputs: dict[int, object] = {}
        self.outputs: dict[int, object] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # --- wrapping -----------------------------------------------------

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        inputs = self.inputs if name in INPUT_KEYS else None
        outputs = self.outputs if name in OUTPUT_BITS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, parent, start, end)
            if inputs is not None:
                inputs[slot] = args[0]
            if outputs is not None:
                outputs[slot] = result
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}  # original function -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"rdiagram.{layer}"]
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (
                    not attr.startswith("_") or attr in PRIVATE_TRACED.get(layer, ())
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for method, raw in list(vars(obj).items()):
                        fn = getattr(raw, "__func__", raw)  # unwrap static/class methods
                        if method.startswith("_") or not inspect.isfunction(fn):
                            continue
                        wrapped = self._wrap(fn, f"{layer}.{attr}.{method}")
                        self._set(obj, method, wrapped if fn is raw else type(raw)(wrapped))
        for name, mod in list(sys.modules.items()):
            if name == "rdiagram" or name.startswith("rdiagram."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._set(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def op(self):
        """Root span of one op; the spans it contains share its identifier."""
        slot = len(self.spans)
        self.spans.append(None)
        self.ops.append(slot)
        self._stack.append(slot)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[slot] = (-1, -1, start, end)

    # --- results ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace_overhead_s``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (index, _, start, end) in enumerate(spans):
            if index < 0:
                continue
            name = self.names[index]
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            self_s[name.split(".", 1)[0]] += own
        max_bits: dict[str, int] = defaultdict(int)
        for slot, result in self.outputs.items():
            name = self.names[spans[slot][0]]
            max_bits[name] = max(max_bits[name], _max_bits(result))
        distinct: dict[str, tuple[int, int]] = {}
        for name, key_of in INPUT_KEYS.items():
            per_op: dict[int, list] = defaultdict(list)
            for slot, arg in self.inputs.items():
                if self.names[spans[slot][0]] == name:
                    per_op[bisect.bisect_right(self.ops, slot)].append(key_of(arg))
            distinct[name] = (
                sum(len(set(keys)) for keys in per_op.values()),
                sum(len(keys) for keys in per_op.values()),
            )
        out = {}
        for metric, _ in PER_LAYER[:-1]:
            prefix, quantity = metric.rsplit(".", 1)
            fn = ALIASES.get(prefix, prefix)
            if quantity == "calls":
                out[metric] = calls[fn]
            elif quantity == "self_s":
                out[metric] = self_s[fn]
            elif quantity == "max_bits":
                out[metric] = max_bits[fn]
            else:
                unique, total = distinct[fn]
                out[metric] = unique / total if total else 0.0
        return out

    def dump(self, path) -> None:
        """Write every span, with times relative to the first, as one JSON document."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "ops": self.ops,
                    "fields": ["function", "parent", "start_s", "end_s"],
                    "spans": [
                        [index, parent, round(start - origin, 7), round(end - origin, 7)]
                        for index, parent, start, end in self.spans
                    ],
                },
                fh,
            )
