"""Seeded inputs, operations and the correctness gate of each workload.

Every input comes from ``rdiagram.randomgen`` driven by a per-instance
seed string derived from the workload name and the ``--seed`` argument, so
the same seed gives the same inputs and a failing instance can be
regenerated on its own.  The program under test only ever sees the
generated complexes (as ``ChainComplexR`` objects or as JSON documents).

One *op* is one CLI document for the ``cli_*`` workloads and one
``homology_rdiagram(C, n)`` degree for the others.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import sys
import time
from dataclasses import dataclass

from rdiagram import cli, homology, oracle, reduction
from rdiagram.homology import ChainComplexR
from rdiagram.randomgen import random_complex_differentials

# Wall-clock cap on generating one instance and on one op.  At the commit
# that introduced the benchmark the slowest instance of any workload took
# under 1.5 s, so a capped op is a hang, not a slow input.
CAP_S = 20.0

# CLI documents whose stdout goes into ``stdout_sha256``: a fixed prefix of
# the pool, so two commits can be compared for byte-identical JSON.
DIGEST_DOCS = 24

BIG_PRIME = 1_000_000_007

# Failure reasons of capped ops start with this; they count as failed ops
# but, unlike wrong outputs, do not make the run incorrect.
CAPPED = "capped"


class CapExceeded(BaseException):
    """Raised by the alarm when an instance or op runs past ``CAP_S``.

    A ``BaseException`` so that no ``except Exception`` in the program
    under test can swallow it.
    """


def _on_alarm(signum, frame):
    raise CapExceeded()


@contextlib.contextmanager
def capped(seconds: float = CAP_S):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Instance:
    seed: str
    terms: int
    complex: ChainComplexR | None  # None when generation hit the cap
    doc: str | None = None


@dataclass
class Workload:
    name: str
    kind: str  # "cli" or "library"
    cli_flags: tuple[str, ...]
    instances: list[Instance]
    ops: list[tuple[int, int]]  # (instance index, degree; -1 for a whole CLI document)

    def attempt(self, op: tuple[int, int]) -> tuple[float, object, str | None]:
        """Run one op under the cap: (seconds, output, failure reason or None).

        An op of an instance whose generation was capped, or an op that
        hits the cap itself, is a failure with its latency set to the cap.
        """
        inst = self.instances[op[0]]
        if inst.complex is None:
            return CAP_S, None, f"{CAPPED} in generation (instance seed {inst.seed!r})"
        start = time.perf_counter()
        try:
            with capped():
                if self.kind == "cli":
                    output = run_cli(inst.doc, self.cli_flags)
                else:
                    output = homology.homology_rdiagram(inst.complex, op[1])
                elapsed = time.perf_counter() - start
        except CapExceeded:
            return CAP_S, None, f"{CAPPED} in the op (instance seed {inst.seed!r})"
        except Exception as exc:  # any exception is a failed op, reported by the gate
            return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
        return elapsed, output, None


def run_cli(doc: str, flags: tuple[str, ...]) -> tuple[int, str]:
    """``rdiagram - --all`` in-process on one document; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["rdiagram", "-", "--all", *flags])
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def _small_sizes(rng: random.Random, i: int) -> list[int]:
    """Term ranks shaped like ``complex_corpus`` in the acceptance tests."""
    if i % 2:
        return [rng.randint(1, 6), rng.randint(1, 6)]
    return [rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)]


def _instance(seed: str, i: int, primes, sizes_of) -> Instance:
    """Instance ``i``; primes and shapes take turns so every seed gets the same mix."""
    rng = random.Random(seed)
    p = primes[(i // 2) % len(primes)]
    sizes = sizes_of(rng, i)
    try:
        with capped():
            C = ChainComplexR(p, random_complex_differentials(rng, p, sizes, bound=2))
    except CapExceeded:
        return Instance(seed, len(sizes), None)
    return Instance(seed, C.terms, C)


def document(C: ChainComplexR) -> str:
    return json.dumps(
        {
            "p": C.p,
            "ranks": list(C.ranks),
            "differentials": [
                {"d1": [list(r) for r in d1.entries], "d2": [list(r) for r in d2.entries]}
                for d1, d2 in C.degrees
            ],
        }
    )


# name -> (kind, CLI flags, primes, term ranks, default pool size in instances)
SPECS = {
    "small_cli": ("cli", (), (2, 3, 5), _small_sizes, 600),
    "cli_stages": ("cli", ("--trace",), (2, 3, 5), _small_sizes, 320),
    "coeff_growth": ("library", (), (2, 3), lambda rng, i: [5, 10, 5], 110),
    "big_prime": ("library", (), (BIG_PRIME,), _small_sizes, 24),
}


def build(name: str, seed: int, size: int | None = None) -> Workload:
    """Generate the workload's instances (and documents) for ``seed``."""
    kind, flags, primes, sizes_of, default_size = SPECS[name]
    instances = [
        _instance(f"{name}:{seed}:{i}", i, primes, sizes_of)
        for i in range(default_size if size is None else size)
    ]
    if kind == "cli":
        for inst in instances:
            if inst.complex is not None:
                inst.doc = document(inst.complex)
        ops = [(i, -1) for i in range(len(instances))]
    else:
        ops = [(i, n) for i, inst in enumerate(instances) for n in range(inst.terms)]
    return Workload(name, kind, flags, instances, ops)


class Gate:
    """Checks op outputs against the independent oracle, outside any timing.

    The oracle value of each (instance, degree) is computed once and reused
    for every op that repeats it.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self._oracle: dict[tuple[int, int], tuple] = {}
        self._first_stdout: dict[int, str] = {}

    def _expected(self, i: int, n: int) -> tuple:
        key = (i, n)
        if key not in self._oracle:
            inv = oracle.integer_homology_invariants(self.workload.instances[i].complex, n)
            self._oracle[key] = (inv.free_rank, tuple(inv.invariant_factors))
        return self._oracle[key]

    def check(self, op: tuple[int, int], output) -> str | None:
        """None when the output is correct, else the reason it is not."""
        i, n = op
        if self.workload.kind == "library":
            if not reduction.validate_rdiagram(output).ok:
                return f"degree {n}: validate_rdiagram failed"
            got = oracle.underlying_invariants_of_rdiagram(output)
            if (got.free_rank, tuple(got.invariant_factors)) != self._expected(i, n):
                return f"degree {n}: underlying group differs from the oracle"
            return None
        code, stdout = output
        if code != 0:
            return f"exit code {code}"
        first = self._first_stdout.setdefault(i, stdout)
        if stdout != first:
            return "stdout differs from an earlier run of the same document"
        try:
            degrees = json.loads(stdout)["degrees"]
        except (ValueError, KeyError, TypeError):
            return "stdout is not an rdiagram JSON document"
        if [d["degree"] for d in degrees] != list(range(self.workload.instances[i].terms)):
            return "missing degrees"
        for d in degrees:
            if d["valid"] is not True:
                return f"degree {d['degree']}: valid is not true"
            group = (d["oracle"]["rank"], tuple(int(f) for f in d["oracle"]["factors"]))
            if group != self._expected(i, d["degree"]):
                return f"degree {d['degree']}: underlying group differs from the oracle"
        return None

    def stdout_digest(self) -> str | None:
        """sha256 over the stdout of the first ``DIGEST_DOCS`` documents.

        Documents that no checked op covered are run here, untimed.
        """
        if self.workload.kind != "cli":
            return None
        digest = hashlib.sha256()
        for i in range(min(DIGEST_DOCS, len(self.workload.instances))):
            if i not in self._first_stdout:
                _, output, failure = self.workload.attempt((i, -1))
                if failure is None:
                    self._first_stdout[i] = output[1]
            digest.update(self._first_stdout.get(i, "").encode())
        return digest.hexdigest()
