"""Command-line front end.

Subcommands: ``validate`` (congruence and composition checks),
``rdiagram`` (homology R-diagrams per degree), ``invariants``
(independent oracle vs pipeline, with an agreement flag), ``selftest``
(seeded randomized cross-checks).

Input documents are JSON: ``{"p": int, "differentials": [{"d1":
[[int|str]], "d2": [[int|str]]}], "ranks": [...], "labels": [...]}``
with matrices row-major; the matrix at position k maps term k to term
k+1.  ``ranks`` is required when there are no differentials and
cross-checked otherwise; ``labels`` is a list of strings, echoed into
reports (an entry that is not a string is an input error, exit 2).
Integer entries may be decimal strings and are always emitted as
strings, since Smith-form intermediates overflow the float-safe range
long before the inputs look big.  A document may have at most
``MAX_DOCUMENT_CHARS`` characters, checked before it is parsed, and at
most ``MAX_TERMS`` terms, each of rank at most ``MAX_RANK``, with
entries of at most ``MAX_ENTRY_BITS`` bits; past a cap it is rejected
(exit 2) before any normal form runs.

Exit codes: 0 success, 1 invalid input mathematics (bad complex),
2 unreadable input or a usage error (bad degree, bad option value),
3 internal consistency failure (pipeline/oracle disagreement — a bug,
reported with a reproducer).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import random
import re
import sys

from .intlinalg import IntMatrix, Lattice
from .fplinalg import FpMatrix, validate_prime
from .presentations import ZModulePresentation
from .pullback import PullbackDiagram
from .homology import (
    ChainComplexR,
    homology_presentations,
    reduce_homology,
    validate_complex,
)
from .oracle import (
    integer_homology_invariants,
    invariants_equal,
    underlying_invariants_of_presentation,
    underlying_invariants_of_rdiagram,
)
from .pullback import quotient_ring_check
from .reduction import (
    HypothesisViolation,
    RDiagram,
    _extract_rdiagram,
    reduce_K,
    reduce_barf,
    reduce_combined,
    reduce_monos,
    validate_rdiagram,
)

__all__ = ["main", "load_document", "rdiagram_from_payload"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

# Input caps.  The cost grows about as rank^2.8 per term and with the entry
# size, so each is bounded; a document at all three caps, with dense
# differentials, still finishes in well under a minute.
MAX_TERMS = 16
MAX_RANK = 32
MAX_ENTRY_BITS = 64
# The document's length, checked before it is parsed, so that parsing a huge
# document cannot take the time and memory the caps above bound.  A document
# at every cap has 2 * (MAX_TERMS - 1) matrices of MAX_RANK**2 entries.  An
# entry at the bit cap is at most 23 characters as a signed, quoted decimal
# string, and about 35 once indent=2 puts it on its own line.  Allowing 64
# characters for each entry of 2 * MAX_TERMS such matrices leaves room for
# the row brackets, ranks and labels: 2 * 16 * 32**2 * 64 = 2 MiB.
MAX_DOCUMENT_CHARS = 2 * MAX_TERMS * MAX_RANK**2 * 64


class DocumentError(Exception):
    """The input document cannot be turned into a complex."""


_DECIMAL = re.compile(r"-?[0-9]+")


def _parse_entry(x, where: str) -> int:
    if isinstance(x, bool):
        raise DocumentError(f"{where}: boolean is not an integer entry")
    if isinstance(x, str):
        value = None
        if _DECIMAL.fullmatch(x):
            try:
                value = int(x)
            except ValueError:  # more digits than int() converts
                pass
        if value is None:
            raise DocumentError(f"{where}: {x!r} is not a decimal integer")
        x = value
    elif not isinstance(x, int):
        raise DocumentError(f"{where}: entries must be integers or decimal strings")
    if x.bit_length() > MAX_ENTRY_BITS:
        raise DocumentError(
            f"{where}: an entry of {x.bit_length()} bits exceeds the cap of {MAX_ENTRY_BITS} bits"
        )
    return x


def _parse_matrix(data, where: str) -> IntMatrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise DocumentError(f"{where}: expected a list of rows")
    for size in (len(data), *map(len, data)):
        if size > MAX_RANK:
            raise DocumentError(f"{where}: a side of {size} exceeds the rank cap of {MAX_RANK}")
    rows = [
        [_parse_entry(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(data)
    ]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise DocumentError(f"{where}: ragged rows")
    cols = widths.pop() if widths else 0
    return IntMatrix.from_rows(rows, cols=cols)


def load_document(text: str) -> tuple[ChainComplexR, list]:
    """Parse a JSON complex document; raises DocumentError on any defect."""
    if len(text) > MAX_DOCUMENT_CHARS:
        raise DocumentError(f"the document exceeds the cap of {MAX_DOCUMENT_CHARS} characters")
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer literal past int()'s digit limit
        raise DocumentError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError("top level must be an object")
    if "p" not in doc or not isinstance(doc["p"], int) or isinstance(doc["p"], bool):
        raise DocumentError('"p" must be an integer')
    diffs = doc.get("differentials")
    if not isinstance(diffs, list):
        raise DocumentError('"differentials" must be a list')
    degrees = []
    ranks = doc.get("ranks")
    if ranks is not None and not (
        isinstance(ranks, list) and all(type(r) is int and r >= 0 for r in ranks)
    ):
        raise DocumentError('"ranks" must be a list of non-negative integers')
    terms = max(len(diffs) + 1, len(ranks or ()))
    if terms > MAX_TERMS:
        raise DocumentError(f"{terms} terms exceed the cap of {MAX_TERMS} terms")
    for k, r in enumerate(ranks or ()):
        if r > MAX_RANK:
            raise DocumentError(f"ranks[{k}] = {r} exceeds the rank cap of {MAX_RANK}")
    for k, item in enumerate(diffs):
        if not isinstance(item, dict) or "d1" not in item or "d2" not in item:
            raise DocumentError(f"differential {k} must be an object with d1 and d2")
        # a matrix written as [] has no row to carry its column count; ranks give it
        width = ranks[k] if ranks is not None and k < len(ranks) else 0
        d1, d2 = (
            IntMatrix.zeros(0, width)
            if item[key] == []
            else _parse_matrix(item[key], f"differentials[{k}].{key}")
            for key in ("d1", "d2")
        )
        degrees.append((d1, d2))
    labels = doc.get("labels", [])
    if not isinstance(labels, list):
        raise DocumentError('"labels" must be a list')
    for k, label in enumerate(labels):
        if not isinstance(label, str):
            raise DocumentError(f"labels[{k}] must be a string")
    try:
        C = ChainComplexR(doc["p"], degrees, ranks=ranks)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    return C, labels


def _read_input(path: str) -> str:
    """The document text, decoded as UTF-8 from a file or from stdin (``-``).

    At most ``MAX_DOCUMENT_CHARS + 1`` characters are read, enough for
    ``load_document`` to see that a longer document is past the cap.
    """
    limit = MAX_DOCUMENT_CHARS + 1
    try:
        if path == "-":
            raw = getattr(sys.stdin, "buffer", None)
            if raw is None:
                return sys.stdin.read(limit)
            text = io.TextIOWrapper(raw, encoding="utf-8", newline="")
            try:
                return text.read(limit)
            finally:
                text.detach()  # leave stdin open
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(limit)
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


def _module_name(rank: int, factors) -> str:
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in factors)
    return " + ".join(parts) if parts else "0"


def _group_json(rank: int, factors) -> dict:
    return {"rank": rank, "factors": [str(d) for d in factors]}


def _matrix_rows(M) -> list:
    return [[str(x) for x in row] for row in M.entries]


def _presentation_json(P) -> dict:
    return {
        "gens": P.gens,
        "relations": [[str(x) for x in v] for v in P.relations.basis],
    }


def rdiagram_from_payload(p: int, payload: dict) -> RDiagram:
    """Rebuild an R-diagram from an emitted JSON degree block.

    Inverse of the ``rdiagram`` output: used to check that documents
    round-trip to an object with the identical validation report.
    """

    def pres(d):
        gens = d["gens"]
        vecs = [[int(x) for x in v] for v in d["relations"]]
        return ZModulePresentation(gens, Lattice.from_generators(gens, vecs))

    S1 = pres(payload["S1_presentation"])
    S2 = pres(payload["S2_presentation"])
    sbar = payload["Sbar_dim"]

    def intmat(rows, cols):
        return IntMatrix.from_rows([[int(x) for x in r] for r in rows], cols=cols)

    p1 = FpMatrix.from_int(intmat(payload["p1"], S1.gens), p)
    p2 = FpMatrix.from_int(intmat(payload["p2"], S2.gens), p)
    S = PullbackDiagram(p, S1, S2, sbar, p1, p2)
    k = payload["K_dim"]
    q1 = intmat(payload["q1"], k)
    q2 = intmat(payload["q2"], k)
    return RDiagram(p, k, S, q1, q2)


def _diagram_summary(D) -> dict:
    def side(P):
        r, f = P.normal_form()
        return _group_json(r, f)

    return {"M1": side(D.M1), "M2": side(D.M2), "Mbar_dim": D.mbar_dim}


def _rdiagram_payload(n: int, pres, labels, trace: bool) -> dict:
    rd = reduce_homology(pres)
    report = validate_rdiagram(rd)
    oracle = underlying_invariants_of_rdiagram(rd)
    r1, f1 = rd.S.M1.normal_form()
    r2, f2 = rd.S.M2.normal_form()
    payload = {
        "degree": n,
        "K_dim": rd.kdim,
        "S1": _group_json(r1, f1),
        "Sbar_dim": rd.S.mbar_dim,
        "S2": _group_json(r2, f2),
        "q1": _matrix_rows(rd.q1),
        "q2": _matrix_rows(rd.q2),
        "p1": _matrix_rows(rd.S.p1),
        "p2": _matrix_rows(rd.S.p2),
        "valid": report.ok,
        "oracle": _group_json(oracle.free_rank, oracle.invariant_factors),
        "S1_presentation": _presentation_json(rd.S.M1),
        "S2_presentation": _presentation_json(rd.S.M2),
    }
    if n < len(labels):
        payload["label"] = labels[n]
    if trace:
        # the presentation this run reduced, and the R-diagram it produced
        # read as one from K = (Z/p)^K_dim, with Kbar = F_p^K_dim, into S
        K = _group_json(0, [rd.p] * rd.kdim)
        reduced = {"M1": K, "M2": K, "Mbar_dim": rd.kdim}
        payload["trace"] = [
            {
                "stage": "presentation",
                "source": _diagram_summary(pres.K),
                "target": _diagram_summary(pres.S),
            },
            {"stage": "reduce_combined", "source": reduced, "target": _diagram_summary(rd.S)},
        ]
    return payload


def _render_text(p: int, payload: dict) -> str:
    kname = f"(Z/{p})^{payload['K_dim']}"
    s1 = _module_name(payload["S1"]["rank"], payload["S1"]["factors"])
    s2 = _module_name(payload["S2"]["rank"], payload["S2"]["factors"])
    sbar = f"F_{p}^{payload['Sbar_dim']}"
    lines = [
        f"degree {payload['degree']}" + (f" ({payload['label']})" if "label" in payload else ""),
        f"            K = {kname}",
        "        q1 /        \\ q2",
        "          v          v",
        f"  S1 = {s1}    S2 = {s2}",
        "        p1 \\        / p2",
        "            v      v",
        f"         Sbar = {sbar}",
    ]

    def mat(rows, shape):
        if not rows or not rows[0]:
            return f"[] ({shape[0]}x{shape[1]})"
        return "[" + "; ".join(" ".join(r) for r in rows) + "]"

    k = payload["K_dim"]
    lines.append(f"  q1 = {mat(payload['q1'], (len(payload['q1']), k))}")
    lines.append(f"  q2 = {mat(payload['q2'], (len(payload['q2']), k))}")
    lines.append(f"  p1 = {mat(payload['p1'], (payload['Sbar_dim'], len(payload['q1'])))} (mod {p})")
    lines.append(f"  p2 = {mat(payload['p2'], (payload['Sbar_dim'], len(payload['q2'])))} (mod {p})")
    lines.append(f"  valid: {'yes' if payload['valid'] else 'NO'}")
    o = payload["oracle"]
    lines.append(f"  underlying group: {_module_name(o['rank'], o['factors'])}")
    if "trace" in payload:
        for st in payload["trace"]:
            s, t = st["source"], st["target"]
            lines.append(
                f"  [{st['stage']}] source M1={_module_name(s['M1']['rank'], s['M1']['factors'])}"
                f" M2={_module_name(s['M2']['rank'], s['M2']['factors'])} Mbar=F_{p}^{s['Mbar_dim']}"
                f" | target M1={_module_name(t['M1']['rank'], t['M1']['factors'])}"
                f" M2={_module_name(t['M2']['rank'], t['M2']['factors'])} Mbar=F_{p}^{t['Mbar_dim']}"
            )
    return "\n".join(lines)


def _degree_list(C: ChainComplexR, args) -> list[int]:
    """The requested degrees; a missing or out-of-range one is a usage error."""
    if args.all:
        return list(range(C.terms))
    if args.degree is None:
        raise DocumentError("one of --degree or --all is required")
    if not 0 <= args.degree < C.terms:
        raise DocumentError(f"degree {args.degree} outside the complex (0..{C.terms - 1})")
    return [args.degree]


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _prime(text: str) -> int:
    try:
        return validate_prime(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a prime below 2**32, got {text!r}") from None


def cmd_validate(args) -> int:
    C, _ = load_document(_read_input(args.input))
    if args.p_check and not quotient_ring_check(C.p):
        print(f"ring self-check failed for p = {C.p}")
        return EXIT_INTERNAL
    report = validate_complex(C)
    if report.ok:
        ranks = " -> ".join(str(r) for r in C.ranks)
        print(f"valid complex: p = {C.p}, ranks {ranks}")
        return EXIT_OK
    for kind, degree, (i, j) in report.failures:
        print(f"{kind} violation at degree {degree}, entry ({i}, {j})")
    return EXIT_INVALID


def cmd_rdiagram(args) -> int:
    C, labels = load_document(_read_input(args.input))
    degrees = _degree_list(C, args)
    presentations = homology_presentations(C, degrees)
    payloads = [_rdiagram_payload(n, pres, labels, args.trace) for n, pres in zip(degrees, presentations)]
    if args.format == "json":
        print(json.dumps({"p": C.p, "degrees": payloads}, indent=2, sort_keys=True))
    else:
        blocks = [f"p = {C.p}"] + [_render_text(C.p, pl) for pl in payloads]
        print("\n\n".join(blocks))
    if any(not pl["valid"] for pl in payloads):
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_invariants(args) -> int:
    C, labels = load_document(_read_input(args.input))
    degrees = _degree_list(C, args)
    rows = []
    agree_all = True
    for n, pres in zip(degrees, homology_presentations(C, degrees)):
        byint = integer_homology_invariants(C, n)
        bypipe = underlying_invariants_of_rdiagram(reduce_homology(pres))
        agree = invariants_equal(byint, bypipe)
        agree_all = agree_all and agree
        row = {
            "degree": n,
            "oracle": _group_json(byint.free_rank, byint.invariant_factors),
            "pipeline": _group_json(bypipe.free_rank, bypipe.invariant_factors),
            "agree": agree,
        }
        if n < len(labels):
            row["label"] = labels[n]
        rows.append(row)
    print(json.dumps({"p": C.p, "degrees": rows}, indent=2, sort_keys=True))
    if not agree_all:
        print("oracle/pipeline disagreement — this is a bug", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .randomgen import random_complex_differentials, random_presentation

    rng = random.Random(args.seed)
    ps = [args.p] if args.p is not None else [2, 3, 5]
    failures = 0
    for trial in range(args.trials):
        p = ps[trial % len(ps)]
        pres = random_presentation(rng, p)
        base = underlying_invariants_of_presentation(pres)
        stages = [("reduce_K", reduce_K(pres))]
        stages.append(("reduce_barf", reduce_barf(stages[-1][1])))
        stages.append(("reduce_monos", reduce_monos(stages[-1][1])))
        for name, stage in stages:
            got = underlying_invariants_of_presentation(stage)
            if not invariants_equal(base, got):
                print(f"trial {trial}: {name} changed invariants {base} -> {got}")
                failures += 1
        rd = reduce_combined(pres)
        seq = _extract_rdiagram(stages[-1][1])  # reduce_sequential(pres)
        if not validate_rdiagram(rd).ok:
            print(f"trial {trial}: combined output fails validation")
            failures += 1
        if rd.S.M1.normal_form() != seq.S.M1.normal_form() or rd.S.M2.normal_form() != seq.S.M2.normal_form() or rd.kdim != seq.kdim or rd.S.mbar_dim != seq.S.mbar_dim:
            print(f"trial {trial}: combined and sequential reductions disagree")
            failures += 1
        if not invariants_equal(base, underlying_invariants_of_rdiagram(rd)):
            print(f"trial {trial}: reduction changed the underlying group")
            failures += 1
    sizes = [2, 3, 2]
    for trial in range(max(1, args.trials // 4)):
        p = ps[trial % len(ps)]
        C = ChainComplexR(p, random_complex_differentials(rng, p, sizes, bound=2))
        for n, pres in enumerate(homology_presentations(C, range(C.terms))):
            a = integer_homology_invariants(C, n)
            b = underlying_invariants_of_rdiagram(reduce_homology(pres))
            if not invariants_equal(a, b):
                print(f"complex trial {trial} degree {n}: oracle {a} vs pipeline {b}")
                failures += 1
    if failures:
        print(f"selftest: {failures} failure(s)")
        return EXIT_INTERNAL
    print(f"selftest: ok ({args.trials} presentation trials, seed {args.seed})")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    top = argparse.ArgumentParser(
        prog="rdiagram",
        description="Homology of complexes over a p-pullback ring, as R-diagrams.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check congruence and compositions")
    v.add_argument("input", help="JSON complex document, or - for stdin")
    v.add_argument("--p-check", action="store_true", help="also self-check the ring quotient invariants")
    v.set_defaults(func=cmd_validate)

    def degree_flags(p):
        p.add_argument("--degree", type=int, default=None, help="single degree")
        p.add_argument("--all", action="store_true", help="every degree of the complex")

    r = sub.add_parser("rdiagram", help="reduced R-diagram of homology")
    r.add_argument("input")
    degree_flags(r)
    r.add_argument("--format", choices=["json", "text"], default="json")
    r.add_argument(
        "--trace",
        action="store_true",
        help="include the input presentation and the reduced diagram of this run",
    )
    r.set_defaults(func=cmd_rdiagram)

    i = sub.add_parser("invariants", help="oracle vs pipeline underlying groups")
    i.add_argument("input")
    degree_flags(i)
    i.set_defaults(func=cmd_invariants)

    s = sub.add_parser("selftest", help="seeded randomized cross-checks")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trials", type=_non_negative_int, default=50)
    s.add_argument("--p", type=_prime, default=None, help="restrict to a single prime")
    s.set_defaults(func=cmd_selftest)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (HypothesisViolation, AssertionError, ArithmeticError) as exc:
        # HypothesisViolation is a ValueError, but its message names a failed
        # reduction hypothesis: a bug, not bad input
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        print("reproducer: rerun with the same input document", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
