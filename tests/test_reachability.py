"""The pipeline modules define only what a real run calls.

One in-process run goes under ``sys.setprofile``: the command line
(``rdiagram --all`` as JSON, as text and with ``--trace``, ``invariants
--all``, ``validate --p-check`` and a short ``selftest``), the CI steps that
round-trip emitted degrees and check the mono/epi criteria, and the
README's library tour.  Every public function and method of a pipeline
module, operator methods included, must be called by it or be named in
``ALLOWED`` with the reason it stays.  Test-only constructors live in
``tests/helpers.py``; ``rdiagram.morphisms`` and ``rdiagram.randomgen``
are outside the pipeline and not checked.
"""

import contextlib
import importlib
import inspect
import io
import json
import random
import sys

PIPELINE = ("intlinalg", "fplinalg", "presentations", "pullback", "reduction", "homology", "oracle", "cli")

# p = 3, three terms: a degree with no incoming map, a middle one and one with no outgoing map
DOCUMENT = (
    '{"p": 3, "differentials": [{"d1": [[0, 0], [1, -1]], "d2": [[12, -21], [16, -28]]},'
    ' {"d1": [[-1, 0]], "d2": [[-4, 3]]}]}'
)

ALLOWED = {
    "intlinalg.hnf": "the canonical HNF with its transform; tests and criterion 9 check the kernel by it",
    "intlinalg.snf": "the Smith form with both transforms; tests and criterion 9 check the kernel by it",
    "intlinalg.det": "ROADMAP item 7's certificates check unimodular transforms with it",
    "intlinalg.is_unimodular": "ROADMAP items 5 and 7 check basis changes and transforms with it",
    "reduction.reduce_sequential": "criterion 3's reference route; selftest runs its stages one by one",
    "reduction.HypothesisViolation.__init__": "raised only when a reduction hypothesis fails",
    "reduction.RDiagramReport.failed": "names the failed checks when the oracle is given an invalid R-diagram",
    "fplinalg.FpMatrix.from_rows": "plain-data constructor",
    "fplinalg.FpMatrix.zeros": "plain-data constructor",
    "pullback.LatticeRModule.from_generators": "plain-data constructor",
}


def public_callables() -> dict:
    """``{"module.name": code}`` for every public function and method of the pipeline modules.

    Methods are the functions, static methods and property getters written
    in a public class's body under a public or dunder name; the methods a
    dataclass generates are not written in the module and are skipped.
    """
    found = {}
    for layer in PIPELINE:
        mod = importlib.import_module(f"rdiagram.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{layer}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for member, raw in vars(obj).items():
                    if member.startswith("_") and not (member.startswith("__") and member.endswith("__")):
                        continue
                    fn = raw.fget if isinstance(raw, property) else getattr(raw, "__func__", raw)
                    if inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__:
                        found[f"{layer}.{name}.{member}"] = fn.__code__
    return found


def _run(path: str) -> None:
    from rdiagram import cli
    from rdiagram.homology import ChainComplexR, homology_rdiagram
    from rdiagram.intlinalg import IntMatrix
    from rdiagram.morphisms import epi_conditions, is_mono, is_mono_direct, random_block_morphism
    from rdiagram.oracle import underlying_invariants_of_rdiagram
    from rdiagram.randomgen import random_rmodule
    from rdiagram.reduction import validate_rdiagram

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["rdiagram", path, "--all"]) == 0
    emitted = json.loads(out.getvalue())
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            cli.main(["rdiagram", path, "--all", "--format", "text"]),
            cli.main(["rdiagram", path, "--all", "--trace"]),
            cli.main(["invariants", path, "--all"]),
            cli.main(["validate", path, "--p-check"]),
            cli.main(["selftest", "--seed", "1", "--trials", "4"]),
        ]
    assert codes == [0] * 5, codes

    # the CI round trip: every emitted degree rebuilds to a valid R-diagram
    for block in emitted["degrees"]:
        assert validate_rdiagram(cli.rdiagram_from_payload(emitted["p"], block)).ok

    # the README's library tour
    rows = IntMatrix.from_rows
    rd = homology_rdiagram(ChainComplexR(2, [(rows([[2]]), rows([[0]]))]), 1)
    assert underlying_invariants_of_rdiagram(rd).free_rank == 1

    # the CI's mono/epi step (criterion 8 at seed 2)
    rng = random.Random(2)
    for i in range(500):
        p = (2, 3, 5)[i % 3]
        src = random_rmodule(rng, p, rng.randint(1, 2), rng.randint(1, 2), max_gens=3)
        m, _, _ = random_block_morphism(rng, src, rng.randint(1, 2), rng.randint(1, 2))
        assert is_mono(m) == is_mono_direct(m), i
        rep = epi_conditions(m)
        assert rep.direct or not (rep.cond1 or rep.cond2 or rep.cond3 or rep.cond4), i


def test_every_public_function_of_the_pipeline_is_called_or_allowed(tmp_path):
    path = tmp_path / "complex.json"
    path.write_text(DOCUMENT)
    found = public_callables()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _run(str(path))
    finally:
        sys.setprofile(previous)
    uncalled = sorted(name for name, code in found.items() if code not in called)
    # a hand-written __repr__ serves debugging and error messages, which a passing run never builds
    unexplained = [name for name in uncalled if name not in ALLOWED and not name.endswith(".__repr__")]
    assert not unexplained, f"public API that no run calls: {unexplained}"
    stale = sorted(set(ALLOWED) - set(uncalled))
    assert not stale, f"allowed names that are called or gone: {stale}"
