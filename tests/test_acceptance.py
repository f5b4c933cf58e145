"""The ten build acceptance criteria.

Each criterion has exactly one test that prints a PASS/FAIL line (visible
under ``pytest -s`` or in the captured output of a failing run).  The two
expensive random corpora are module-scoped fixtures shared by the criteria
that quantify over them.
"""

import random
import time
from types import SimpleNamespace

import pytest

from rdiagram.homology import (
    ChainComplexR,
    canonical_kernel_presentation,
    closed_form_components,
    congruent_kernel_lattice,
    homology_presentation,
    homology_rdiagram,
    _divisibility_check,
)
from rdiagram.intlinalg import IntMatrix, hnf, kernel_basis, snf
from rdiagram.oracle import (
    GroupInvariants,
    invariants_equal,
    underlying_invariants_of_presentation,
    underlying_invariants_of_rdiagram,
)
from rdiagram.morphisms import (
    epi_conditions,
    is_mono,
    is_mono_direct,
    random_block_morphism,
)
from rdiagram.pullback import LatticeRModule, separate
from rdiagram.intlinalg import Lattice
from rdiagram.randomgen import (
    random_complex_differentials,
    random_congruent_pair,
    random_int_matrix,
    random_presentation,
    random_rmodule,
    random_unimodular,
)
from rdiagram.reduction import (
    reduce_K,
    reduce_barf,
    reduce_combined,
    reduce_monos,
    reduce_sequential,
    validate_rdiagram,
)

PRIMES = (2, 3, 5)
SEED = 20260814


def _announce(num: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} failed ({label}) {detail}"


def _normal_forms(rd):
    return (rd.kdim, rd.S.M1.normal_form(), rd.S.M2.normal_form(), rd.S.mbar_dim)


@pytest.fixture(scope="module")
def presentation_corpus():
    """1000 random separated presentations pushed through every reduction."""
    rng = random.Random(SEED)
    runs = []
    t0 = time.monotonic()
    for i in range(1000):
        p = PRIMES[i % 3]
        pres = random_presentation(
            rng,
            p,
            a=rng.randint(1, 3),
            b=rng.randint(1, 3),
            max_rank=rng.randint(0, 4),
            max_gens=rng.randint(0, 5),
        )
        base = underlying_invariants_of_presentation(pres)
        after_K = reduce_K(pres)
        after_barf = reduce_barf(after_K)
        after_monos = reduce_monos(after_barf)
        combined = reduce_combined(pres)
        sequential = reduce_sequential(pres)
        stage_invariants = tuple(
            underlying_invariants_of_presentation(stage)
            for stage in (after_K, after_barf, after_monos)
        )
        runs.append(
            SimpleNamespace(
                base=base,
                stage_invariants=stage_invariants,
                combined=combined,
                sequential=sequential,
                combined_invariants=underlying_invariants_of_rdiagram(combined),
            )
        )
    elapsed = time.monotonic() - t0
    return SimpleNamespace(runs=runs, elapsed=elapsed)


@pytest.fixture(scope="module")
def complex_corpus():
    """300 random two- and three-term complexes with per-degree pipelines."""
    rng = random.Random(SEED + 1)
    entries = []
    for i in range(300):
        p = PRIMES[i % 3]
        if i % 2:
            sizes = [rng.randint(1, 6), rng.randint(1, 6)]
        else:
            sizes = [rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)]
        C = ChainComplexR(p, random_complex_differentials(rng, p, sizes, bound=2))
        per_degree = []
        for n in range(C.terms):
            rd = homology_rdiagram(C, n)
            cf = closed_form_components(homology_presentation(C, n))
            per_degree.append((n, rd, cf))
        entries.append((C, per_degree))
    return entries


def test_criterion_1_oracle_preservation(presentation_corpus):
    runs = presentation_corpus.runs
    bad = sum(
        1
        for run in runs
        if not all(invariants_equal(run.base, inv) for inv in run.stage_invariants)
        or not invariants_equal(run.base, run.combined_invariants)
    )
    in_time = presentation_corpus.elapsed < 60.0
    _announce(
        1,
        "oracle preservation through every reduction stage",
        bad == 0 and in_time,
        f"{len(runs)} presentations, {bad} violations, {presentation_corpus.elapsed:.1f}s",
    )


def test_criterion_2_rdiagram_validity(presentation_corpus, complex_corpus):
    failures = sum(
        1 for run in presentation_corpus.runs if not validate_rdiagram(run.combined).ok
    )
    checked = len(presentation_corpus.runs)
    for _, per_degree in complex_corpus:
        for _, rd, _ in per_degree:
            checked += 1
            if not validate_rdiagram(rd).ok:
                failures += 1
    _announce(
        2,
        "validate_rdiagram on every pipeline output",
        failures == 0,
        f"{checked} diagrams from {len(complex_corpus)} complexes + presentations, {failures} failures",
    )


def test_criterion_3_combined_equals_sequential(presentation_corpus):
    runs = presentation_corpus.runs
    bad = sum(
        1 for run in runs if _normal_forms(run.combined) != _normal_forms(run.sequential)
    )
    _announce(
        3,
        "combined reduction matches the three-step sequence",
        bad == 0,
        f"{len(runs)} trials, {bad} mismatches",
    )


def test_criterion_4_closed_form_agreement(complex_corpus):
    checked = bad = 0
    for _, per_degree in complex_corpus:
        for _, rd, cf in per_degree:
            checked += 1
            if _normal_forms(rd) != (cf.kdim, cf.s1.normal_form(), cf.s2.normal_form(), cf.sbar_dim):
                bad += 1
    _announce(
        4,
        "closed-form components equal the generic pipeline",
        bad == 0,
        f"{len(complex_corpus)} complexes, {checked} degrees, {bad} mismatches",
    )


def test_criterion_5_canonical_kernel_presentations():
    rng = random.Random(SEED + 2)
    trials = 500
    for i in range(trials):
        p = PRIMES[i % 3]
        d1, d2 = random_congruent_pair(
            rng, p, rng.randint(1, 6), rng.randint(1, 6), bound=3
        )
        canon = canonical_kernel_presentation(d1, d2, p)
        assert canon.separation.embedded_pullback_lattice() == congruent_kernel_lattice(p, d1, d2)
    _announce(
        5,
        "embedded pullback equals the brute-force kernel lattice",
        True,
        f"{trials} differential pairs",
    )


def test_criterion_6_worked_example():
    t0 = time.monotonic()
    C = ChainComplexR(2, [(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[0]]))])
    rd = homology_rdiagram(C, 1)
    oracle = underlying_invariants_of_rdiagram(rd)
    elapsed = time.monotonic() - t0
    ok = (
        rd.kdim == 0
        and rd.S.M1.normal_form() == (0, (2,))
        and rd.S.mbar_dim == 1
        and rd.S.M2.normal_form() == (1, ())
        and oracle == GroupInvariants(1, [])
        and elapsed < 1.0
    )
    _announce(6, "multiplication-by-(2,0) worked example", ok, f"{elapsed * 1000:.0f}ms")


def test_criterion_7_separated_diagram_uniqueness():
    rng = random.Random(SEED + 3)
    trials = 200
    for i in range(trials):
        p = PRIMES[i % 3]
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        mod = random_rmodule(rng, p, a, b, max_gens=4)
        forms = []
        for _ in range(2):
            U1 = random_unimodular(rng, a)
            U2 = random_unimodular(rng, b)
            moved = [
                tuple(U1.mul_vec(v[:a])) + tuple(U2.mul_vec(v[a:]))
                for v in mod.lattice.basis
            ]
            emb = LatticeRModule(p, a, b, Lattice.from_generators(a + b, moved))
            sep = separate(emb)
            forms.append(
                (
                    sep.diagram.M1.normal_form(),
                    sep.diagram.M2.normal_form(),
                    sep.diagram.mbar_dim,
                )
            )
        assert forms[0] == forms[1], (i, forms)
    _announce(
        7,
        "separation is embedding-independent",
        True,
        f"{trials} modules x 2 ambient changes",
    )


def test_criterion_8_morphism_criteria():
    rng = random.Random(SEED + 4)
    trials = 500
    epi_hits = 0
    for i in range(trials):
        p = PRIMES[i % 3]
        src = random_rmodule(rng, p, rng.randint(1, 2), rng.randint(1, 2), max_gens=3)
        m, _, _ = random_block_morphism(
            rng, src, rng.randint(1, 2), rng.randint(1, 2)
        )
        assert is_mono(m) == is_mono_direct(m), i
        rep = epi_conditions(m)
        for cond in (rep.cond1, rep.cond2, rep.cond3, rep.cond4):
            if cond:
                epi_hits += 1
                assert rep.direct, i
    _announce(
        8,
        "mono/epi criteria match direct checks",
        True,
        f"{trials} morphisms, {epi_hits} epi-condition hits",
    )


def _is_unimodular(U: IntMatrix) -> bool:
    return U.rows == U.cols and hnf(U)[0] == IntMatrix.identity(U.rows)


def test_criterion_9_exact_linalg_self_verification():
    rng = random.Random(SEED + 5)
    trials = 1000
    t0 = time.monotonic()
    for i in range(trials):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        M = random_int_matrix(rng, r, c, bound=100)
        U, D, V = snf(M)
        assert D == U @ M @ V, i
        assert _is_unimodular(U) and _is_unimodular(V), i
        diag = [D.entries[j][j] for j in range(min(r, c))]
        assert all(
            D.entries[a][b] == 0 for a in range(r) for b in range(c) if a != b
        ), i
        assert all(x >= 0 for x in diag), i
        chain = [x for x in diag if x]
        assert all(chain[j] % chain[j - 1] == 0 for j in range(1, len(chain))), i
        H, W = hnf(M)
        assert M @ W == H and _is_unimodular(W), i
        ker = kernel_basis(M)
        assert ker.rank == c - len(chain), i
        for v in ker.basis:
            assert all(x == 0 for x in M.mul_vec(v)), i
        if ker.rank:
            _, DK, _ = snf(ker.basis_matrix())
            assert all(
                DK.entries[j][j] == 1 for j in range(ker.rank)
            ), i  # saturated kernels have unit invariant factors
    elapsed = time.monotonic() - t0
    _announce(
        9,
        "integer linear algebra reconstruction identities",
        elapsed < 30.0,
        f"{trials} matrices, {elapsed:.1f}s",
    )


def test_criterion_10_divisibility_assertion(complex_corpus):
    checked = 0
    for C, per_degree in complex_corpus:
        for n, _, _ in per_degree:
            outgoing = C.pair(n)
            canon = canonical_kernel_presentation(*outgoing, C.p)
            _divisibility_check(C.p, canon.sets, outgoing, C.pair(n - 1))  # fatal if violated
            checked += 1
    _announce(
        10,
        "one-sided images stay divisible by p",
        True,
        f"{checked} pipeline degrees re-checked",
    )
