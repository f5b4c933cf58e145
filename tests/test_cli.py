"""Command-line interface: exit codes, document handling, determinism."""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdiagram.cli as cli
import rdiagram.homology as homology
import rdiagram.presentations as presentations
import rdiagram.pullback as pullback
import rdiagram.reduction as reduction
from rdiagram.cli import load_document, main, rdiagram_from_payload, DocumentError
from rdiagram.randomgen import random_complex_differentials
from rdiagram.reduction import validate_rdiagram

WORKED = {"p": 2, "differentials": [{"d1": [[2]], "d2": [[0]]}]}


def write(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadDocument:
    def test_accepts_decimal_string_entries(self):
        C, _ = load_document(
            '{"p": 2, "differentials": [{"d1": [["4", -2]], "d2": [["0", "0"]]}]}'
        )
        assert C.degrees[0][0].entries == ((4, -2),)

    @pytest.mark.parametrize("entry", [" 2", "1_000", "+5", "\u0663", "2\n"])
    def test_rejects_strings_that_are_not_plain_decimals(self, entry, tmp_path, capsys):
        doc = {"p": 2, "differentials": [{"d1": [[entry]], "d2": [["0"]]}]}
        with pytest.raises(DocumentError, match="not a decimal integer"):
            load_document(json.dumps(doc))
        assert main(["validate", write(tmp_path, doc)]) == 2
        assert "not a decimal integer" in capsys.readouterr().err

    def test_rejects_floats_and_booleans(self):
        with pytest.raises(DocumentError, match="integer"):
            load_document('{"p": 2, "differentials": [{"d1": [[1.5]], "d2": [[0]]}]}')
        with pytest.raises(DocumentError, match="boolean"):
            load_document('{"p": 2, "differentials": [{"d1": [[true]], "d2": [[0]]}]}')

    def test_rejects_ragged_rows(self):
        with pytest.raises(DocumentError, match="ragged"):
            load_document('{"p": 2, "differentials": [{"d1": [[1], [1, 2]], "d2": [[0], [0]]}]}')

    @pytest.mark.parametrize("ranks", [[], [0, 0], [1, 2]])
    def test_without_differentials_ranks_name_one_term(self, ranks, tmp_path, capsys):
        # [1, 2] used to load, and `rdiagram --all` then failed on the missing map (exit 3)
        doc = {"p": 2, "differentials": [], "ranks": ranks}
        with pytest.raises(DocumentError, match="exactly one entry"):
            load_document(json.dumps(doc))
        assert main(["rdiagram", write(tmp_path, doc), "--all"]) == 2
        assert "exactly one entry" in capsys.readouterr().err

    def test_ranks_disambiguate_empty_matrices(self):
        C, _ = load_document('{"p": 3, "differentials": [{"d1": [], "d2": []}], "ranks": [2, 0]}')
        assert C.ranks == (2, 0)

    @pytest.mark.parametrize(
        "d1, d2, code",
        [([], [[1, 1]], 2), ([[1, 1]], [], 2), ([], [], 0)],
    )
    def test_empty_matrix_takes_its_width_from_ranks_alone(self, d1, d2, code, tmp_path):
        # only the matrix written as [] is widened; a non-empty partner is kept
        doc = {"p": 2, "ranks": [2, 0], "differentials": [{"d1": d1, "d2": d2}]}
        assert main(["validate", write(tmp_path, doc)]) == code

    @pytest.mark.parametrize(
        "doc",
        [
            '{"p": 2, "differentials": [], "ranks": 5}',
            '{"p": 2, "differentials": [{"d1": [], "d2": []}], "ranks": "ab"}',
            '{"p": 2, "differentials": [], "ranks": [1.7]}',
            '{"p": 2, "differentials": [], "ranks": [true]}',
            '{"p": 2, "differentials": [], "ranks": ["1"]}',
            '{"p": 2, "differentials": [], "ranks": [-1]}',
        ],
    )
    def test_rejects_malformed_ranks(self, doc, tmp_path, capsys):
        with pytest.raises(DocumentError, match="ranks"):
            load_document(doc)
        path = tmp_path / "input.json"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 2
        assert "ranks" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "labels",
        ["0", "false", '""', "{}", "5", "[null]", '["H0", true]', "[1.5]", '["H0", "H1", {}]'],
    )
    def test_rejects_labels_that_are_not_a_list(self, labels, tmp_path, capsys):
        doc = f'{{"p": 2, "differentials": [], "ranks": [1], "labels": {labels}}}'
        with pytest.raises(DocumentError, match="labels"):
            load_document(doc)
        path = tmp_path / "input.json"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 2
        assert "labels" in capsys.readouterr().err

    def test_oversized_prime_fails_fast(self, monkeypatch, capsys):
        # 2**61 - 1 is prime, and trial division on it would run for minutes
        doc = '{"p": 2305843009213693951, "differentials": [{"d1": [[1]], "d2": [[1]]}]}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        start = time.perf_counter()
        assert main(["rdiagram", "-", "--all"]) == 2
        assert time.perf_counter() - start < 0.5
        assert "below 2**32" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "labels,index", [("[null]", 0), ('["H0", true]', 1), ('["H0", "H1", 1.5]', 2)]
    )
    def test_a_label_that_is_not_a_string_is_named_by_its_index(self, labels, index):
        doc = f'{{"p": 2, "differentials": [], "ranks": [1], "labels": {labels}}}'
        with pytest.raises(DocumentError, match=re.escape(f"labels[{index}] must be a string")):
            load_document(doc)

    def test_labels_are_passed_through(self):
        _, labels = load_document(
            '{"p": 2, "differentials": [], "ranks": [1], "labels": ["H0"]}'
        )
        assert labels == ["H0"]


def _zero_complex(terms, rank):
    """A document of ``terms`` terms of rank ``rank`` with zero differentials."""
    zero = [[0] * rank for _ in range(rank)]
    diffs = [{"d1": zero, "d2": zero} for _ in range(terms - 1)]
    return {"p": 2, "ranks": [rank] * terms, "differentials": diffs}


def _one_row(row):
    return {"p": 2, "differentials": [{"d1": [row], "d2": [row]}]}


def _one_entry(entry):
    return _one_row([entry])


class TestInputCaps:
    """Each cap accepts a document at the cap and rejects one past it with exit 2."""

    CASES = {
        "terms": (
            _zero_complex(cli.MAX_TERMS, 1),
            _zero_complex(cli.MAX_TERMS + 1, 1),
            f"cap of {cli.MAX_TERMS} terms",
        ),
        "rank": (
            {"p": 2, "ranks": [cli.MAX_RANK], "differentials": []},
            {"p": 2, "ranks": [cli.MAX_RANK + 1], "differentials": []},
            f"rank cap of {cli.MAX_RANK}",
        ),
        "matrix side": (
            _zero_complex(2, cli.MAX_RANK),
            _one_row([0] * (cli.MAX_RANK + 1)),
            f"rank cap of {cli.MAX_RANK}",
        ),
        "entry": (
            _one_entry(-(2**cli.MAX_ENTRY_BITS - 1)),
            _one_entry(2**cli.MAX_ENTRY_BITS),
            f"cap of {cli.MAX_ENTRY_BITS} bits",
        ),
        "decimal entry": (
            _one_entry(str(2**cli.MAX_ENTRY_BITS - 1)),
            _one_entry(str(-(2**cli.MAX_ENTRY_BITS))),
            f"cap of {cli.MAX_ENTRY_BITS} bits",
        ),
    }

    @pytest.mark.parametrize("cap", sorted(CASES))
    def test_at_the_cap_is_accepted_and_past_it_exits_2(self, cap, tmp_path, capsys):
        at, past, message = self.CASES[cap]
        load_document(json.dumps(at))
        assert main(["validate", write(tmp_path, at)]) == 0
        with pytest.raises(DocumentError, match=re.escape(message)):
            load_document(json.dumps(past))
        capsys.readouterr()
        assert main(["rdiagram", write(tmp_path, past), "--all"]) == 2
        assert message in capsys.readouterr().err

    @staticmethod
    def _source(text, how, tmp_path, monkeypatch):
        """The argument that makes ``main`` read ``text`` from a file or stdin."""
        if how == "file":
            path = tmp_path / "input.json"
            path.write_text(text, encoding="utf-8")
            return str(path)
        stdin = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        return "-"

    @pytest.mark.parametrize("how", ["file", "stdin"])
    def test_a_document_past_the_length_cap_is_not_parsed(self, how, tmp_path, monkeypatch, capsys):
        text = json.dumps(WORKED)
        text += " " * (cli.MAX_DOCUMENT_CHARS + 1 - len(text))
        parsed = []
        monkeypatch.setattr(cli.json, "loads", lambda *a, **k: parsed.append(a))
        assert main(["validate", self._source(text, how, tmp_path, monkeypatch)]) == 2
        assert parsed == []
        assert f"cap of {cli.MAX_DOCUMENT_CHARS} characters" in capsys.readouterr().err
        # a longer document is read only as far as the cap needs
        source = self._source(text * 2, how, tmp_path, monkeypatch)
        assert len(cli._read_input(source)) == cli.MAX_DOCUMENT_CHARS + 1

    @pytest.mark.parametrize("how", ["file", "stdin"])
    def test_the_largest_document_at_every_cap_loads(self, how, tmp_path, monkeypatch):
        entry = str(-(2**cli.MAX_ENTRY_BITS - 1))
        matrix = [[entry] * cli.MAX_RANK for _ in range(cli.MAX_RANK)]
        doc = {
            "p": 4294967291,
            "differentials": [{"d1": matrix, "d2": matrix}] * (cli.MAX_TERMS - 1),
            "ranks": [cli.MAX_RANK] * cli.MAX_TERMS,
            "labels": [f"H{k}" for k in range(cli.MAX_TERMS)],
        }
        text = json.dumps(doc, indent=2)
        C, labels = load_document(cli._read_input(self._source(text, how, tmp_path, monkeypatch)))
        assert C.terms == cli.MAX_TERMS and labels == doc["labels"]
        # padded to the cap with whitespace, it still loads
        text += " " * (cli.MAX_DOCUMENT_CHARS - len(text))
        C, _ = load_document(cli._read_input(self._source(text, how, tmp_path, monkeypatch)))
        assert C.ranks == (cli.MAX_RANK,) * cli.MAX_TERMS

    def test_a_large_zero_complex_fails_fast(self, monkeypatch, capsys):
        # rank 200 ran `rdiagram --all` for seconds and printed over a megabyte
        doc = '{"p": 2, "ranks": [200], "differentials": []}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        start = time.perf_counter()
        assert main(["rdiagram", "-", "--all"]) == 2
        assert time.perf_counter() - start < 0.5
        assert "rank cap" in capsys.readouterr().err


class TestValidateCommand:
    def test_valid_document(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, WORKED)]) == 0
        assert "valid complex" in capsys.readouterr().out

    def test_zero_complex_document(self, tmp_path, capsys):
        doc = {"p": 5, "differentials": [], "ranks": [3]}
        assert main(["validate", write(tmp_path, doc)]) == 0

    def test_congruence_violation_names_the_entry(self, tmp_path, capsys):
        doc = {"p": 2, "differentials": [{"d1": [[2, 0]], "d2": [[1, 0]]}]}
        assert main(["validate", write(tmp_path, doc)]) == 1
        assert "degree 0, entry (0, 0)" in capsys.readouterr().out

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["validate", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts integer literals of any length",
    )
    @pytest.mark.parametrize("command", [["validate"], ["rdiagram", "--all"]])
    def test_integer_literal_past_the_digit_limit_is_unreadable(
        self, command, tmp_path, capsys
    ):
        # json.loads raises a plain ValueError for literals int() refuses to convert
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        doc = '{"p": 2, "differentials": [{"d1": [[%s]], "d2": [[1]]}]}' % digits
        with pytest.raises(DocumentError, match="not valid JSON"):
            load_document(doc)
        path = tmp_path / "input.json"
        path.write_text(doc)
        assert main([command[0], str(path), *command[1:]]) == 2
        assert "digits" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/input.json"]) == 2

    def test_ring_self_check_flag(self, tmp_path):
        assert main(["validate", write(tmp_path, WORKED), "--p-check"]) == 0


# a document that is not UTF-8, and one nested past the recursion limit
UNREADABLE = {
    "not-utf-8": b'{"p": 2, "labels": ["\xff"], "differentials": []}',
    "too-deep": b"[" * 200_000,
}
UNREADABLE_COMMANDS = [["validate"], ["rdiagram", "--all"]]


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
@pytest.mark.parametrize("command", UNREADABLE_COMMANDS)
def test_unreadable_file_exits_2(kind, command, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(UNREADABLE[kind])
    assert main([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
@pytest.mark.parametrize("command", UNREADABLE_COMMANDS)
def test_unreadable_stdin_exits_2(kind, command, monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(UNREADABLE[kind]), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main([command[0], "-", *command[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    path = write(tmp_path, WORKED)
    assert main(["rdiagram", path, "--all", "--trace"]) == 0
    assert all("trace" in block for block in json.loads(capsys.readouterr().out)["degrees"])
    assert main(["rdiagram", path, "--all"]) == 0
    assert all("trace" not in block for block in json.loads(capsys.readouterr().out)["degrees"])
    assert main(["validate", path]) == 0
    assert "valid complex" in capsys.readouterr().out
    assert main(["selftest", "--seed", "2", "--trials", "2"]) == 0
    assert "selftest: ok (2 presentation trials, seed 2)" in capsys.readouterr().out
    assert cli._build_parser() is cli._build_parser()


class TestRDiagramCommand:
    def test_worked_example_json(self, tmp_path, capsys):
        assert main(["rdiagram", write(tmp_path, WORKED), "--degree", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        block = doc["degrees"][0]
        assert block["K_dim"] == 0
        assert block["S1"] == {"rank": 0, "factors": ["2"]}
        assert block["S2"] == {"rank": 1, "factors": []}
        assert block["Sbar_dim"] == 1
        assert block["valid"] is True
        assert block["oracle"] == {"rank": 1, "factors": []}

    def test_zero_complex_of_rank_one_is_free(self, tmp_path, capsys):
        doc = {"p": 2, "differentials": [], "ranks": [1]}
        assert main(["rdiagram", write(tmp_path, doc), "--degree", "0"]) == 0
        block = json.loads(capsys.readouterr().out)["degrees"][0]
        assert block["S1"] == {"rank": 1, "factors": []}
        assert block["S2"] == {"rank": 1, "factors": []}
        assert block["Sbar_dim"] == 1 and block["K_dim"] == 0

    def test_all_produces_one_block_per_degree(self, tmp_path, capsys):
        doc = {
            "p": 2,
            "differentials": [
                {"d1": [[0], [0]], "d2": [[0], [2]]},
                {"d1": [[0, 2]], "d2": [[0, 0]]},
            ],
        }
        assert main(["rdiagram", write(tmp_path, doc), "--all"]) == 0
        blocks = json.loads(capsys.readouterr().out)["degrees"]
        assert [b["degree"] for b in blocks] == [0, 1, 2]

    def test_text_format_draws_the_diagram(self, tmp_path, capsys):
        assert main([
            "rdiagram", write(tmp_path, WORKED), "--degree", "1", "--format", "text",
        ]) == 0
        out = capsys.readouterr().out
        assert "S1 = Z/2" in out
        assert "S2 = Z" in out
        assert "Sbar = F_2^1" in out
        assert "q1" in out and "p2" in out

    def test_trace_includes_stages(self, tmp_path, capsys):
        assert main(["rdiagram", write(tmp_path, WORKED), "--degree", "1", "--trace"]) == 0
        block = json.loads(capsys.readouterr().out)["degrees"][0]
        names = [st["stage"] for st in block["trace"]]
        assert names == ["presentation", "reduce_combined"]
        # the last stage is the R-diagram the block reports
        last = block["trace"][-1]
        assert last["target"] == {
            "M1": block["S1"], "M2": block["S2"], "Mbar_dim": block["Sbar_dim"]
        }
        assert last["source"]["Mbar_dim"] == block["K_dim"]

    def test_emitted_documents_revalidate_identically(self, tmp_path, capsys):
        assert main(["rdiagram", write(tmp_path, WORKED), "--all"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for block in doc["degrees"]:
            rebuilt = rdiagram_from_payload(doc["p"], block)
            report = validate_rdiagram(rebuilt)
            assert report.ok == block["valid"]
            assert report.ok

    def test_output_is_byte_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, WORKED)
        main(["rdiagram", path, "--all"])
        first = capsys.readouterr().out
        main(["rdiagram", path, "--all"])
        assert capsys.readouterr().out == first

    def test_invalid_degree(self, tmp_path, capsys):
        # a usage error (exit 2), raised before any degree is built
        assert main(["rdiagram", write(tmp_path, WORKED), "--degree", "9"]) == 2
        assert "degree 9 outside the complex (0..1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, degree",
        [("rdiagram", "2"), ("rdiagram", "-1"), ("invariants", "9"), ("invariants", "-1")],
    )
    def test_degree_outside_the_complex_is_a_usage_error(
        self, command, degree, tmp_path, capsys
    ):
        assert main([command, write(tmp_path, WORKED), "--degree", degree]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"degree {degree} outside the complex (0..1)" in captured.err

    def test_degree_flag_is_required(self, tmp_path, capsys):
        assert main(["rdiagram", write(tmp_path, WORKED)]) == 2

    def test_invalid_complex_is_a_math_error(self, tmp_path, capsys):
        doc = {"p": 2, "differentials": [{"d1": [[1]], "d2": [[0]]}]}
        assert main(["rdiagram", write(tmp_path, doc), "--degree", "0"]) == 1


@pytest.mark.parametrize("command", ["rdiagram", "invariants"])
class TestExitCodes:
    """An invalid complex is bad input; any failure on a valid one is a bug."""

    def test_invalid_complex_exits_1_with_its_report(self, command, tmp_path, capsys):
        doc = {"p": 2, "differentials": [{"d1": [[1]], "d2": [[0]]}]}
        assert main([command, write(tmp_path, doc), "--all"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid complex: ComplexReport([('congruence', 0, (0, 0))])\n"

    def test_pipeline_fault_on_a_valid_complex_is_internal(self, command, monkeypatch, tmp_path, capsys):
        # a quotient that drops its extra generators breaks a map's well-definedness
        monkeypatch.setattr(presentations.ZModulePresentation, "quotient_by", lambda self, extra: self)
        assert main([command, write(tmp_path, WORKED), "--all"]) == 3
        err = capsys.readouterr().err
        assert "internal consistency failure: map does not carry source relations" in err
        assert "reproducer: rerun with the same input document" in err

    def test_square_2_fault_is_internal(self, command, monkeypatch, tmp_path, capsys):
        # one more on a side-2 coordinate moves its bar image
        real = pullback.Separation.class_coordinates

        def corrupted(self, vectors, side):
            cols = real(self, vectors, side)
            return [(cols[0][0] + 1,) + cols[0][1:]] + cols[1:] if side == 2 and cols else cols

        monkeypatch.setattr(pullback.Separation, "class_coordinates", corrupted)
        assert main([command, write(tmp_path, WORKED), "--all"]) == 3
        err = capsys.readouterr().err
        assert "internal consistency failure: square 2 does not commute" in err
        assert "reproducer: rerun with the same input document" in err


# calls per degree built alone: each builder runs once, and only reduce_combined reduces
PER_DEGREE = {
    "canonical_kernel_presentation": 1,
    "generator_sets": 1,
    "reduce_K": 0,
    "reduce_barf": 0,
    "reduce_monos": 0,
}
# these keep their result on their argument; a call that finds it kept is not counted
MEMO_FIELDS = {"validate_complex": "_report", "kernel_basis": "_kernel"}


@pytest.fixture
def build_counts(monkeypatch):
    """Count the calls that build and reduce a degree's presentation."""
    counts = dict.fromkeys([*PER_DEGREE, *MEMO_FIELDS], 0)
    for module in (homology, reduction, cli):
        for name in counts:
            if not hasattr(module, name):
                continue
            original = getattr(module, name)

            def shim(*args, _name=name, _original=original):
                memo = MEMO_FIELDS.get(_name)
                if memo is None or getattr(args[0], memo, None) is None:
                    counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, shim)
    return counts


@pytest.mark.parametrize("flags", [["rdiagram"], ["rdiagram", "--trace"], ["invariants"]])
def test_each_degree_is_built_once(build_counts, flags, tmp_path, capsys):
    diffs = random_complex_differentials(random.Random(7), 3, [2, 3, 2], bound=2)
    doc = {
        "p": 3,
        "differentials": [
            {"d1": [list(r) for r in d1.entries], "d2": [list(r) for r in d2.entries]}
            for d1, d2 in diffs
        ],
    }
    # parsed anew, so no kernel of its matrices has been taken yet
    C, _ = load_document(json.dumps(doc))
    build_counts.update(dict.fromkeys(build_counts, 0))
    for n in range(C.terms):
        before = dict(build_counts)
        homology.homology_rdiagram(C, n)
        assert {name: build_counts[name] - before[name] for name in PER_DEGREE} == PER_DEGREE
    # the complex is validated once; each differential has its two kernel
    # bases taken once, each zero pair at either end one (both of its sides
    # are one matrix), and each degree takes one inner kernel
    per_run = {name: k * C.terms for name, k in PER_DEGREE.items()}
    per_run.update(validate_complex=1, kernel_basis=2 * (C.terms - 1) + 2 + C.terms)
    assert build_counts == per_run
    build_counts.update(dict.fromkeys(build_counts, 0))
    assert main([*flags, write(tmp_path, doc), "--all"]) == 0
    assert len(json.loads(capsys.readouterr().out)["degrees"]) == C.terms
    assert build_counts == per_run


# objects built per degree: the free source's presentation and the reduced
# one, each with its morphism and two component maps; separation is decided
# for the canonical kernel diagram, the free source and the reduced K and S.
# The R-diagram is read off the reduced presentation without building another.
OBJECTS_PER_DEGREE = {
    "SeparatedPresentation": 2,
    "DiagramMorphism": 2,
    "ModuleMap": 4,
    "_separation_report": 4,
}


@pytest.fixture
def object_counts(monkeypatch):
    """Count the presentations, morphisms and maps built, and the separation reports."""
    counts = dict.fromkeys(OBJECTS_PER_DEGREE, 0)
    for cls in (reduction.SeparatedPresentation, pullback.DiagramMorphism, presentations.ModuleMap):
        original = cls.__post_init__

        def shim(self, _name=cls.__name__, _original=original):
            counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", shim)
    report = pullback._separation_report

    def counted_report(D):
        counts["_separation_report"] += 1
        return report(D)

    monkeypatch.setattr(pullback, "_separation_report", counted_report)
    return counts


def test_each_degree_builds_each_object_once(object_counts, tmp_path, capsys):
    diffs = random_complex_differentials(random.Random(7), 3, [2, 3, 2], bound=2)
    C = homology.ChainComplexR(3, diffs)
    for n in range(C.terms):
        object_counts.update(dict.fromkeys(object_counts, 0))
        homology.homology_rdiagram(C, n)
        assert object_counts == OBJECTS_PER_DEGREE
    doc = {
        "p": 3,
        "differentials": [
            {"d1": [list(r) for r in d1.entries], "d2": [list(r) for r in d2.entries]}
            for d1, d2 in diffs
        ],
    }
    per_run = {name: k * C.terms for name, k in OBJECTS_PER_DEGREE.items()}
    # the trace summarises the R-diagram it emits without re-wrapping it
    for flags in (["--all"], ["--all", "--trace"]):
        object_counts.update(dict.fromkeys(object_counts, 0))
        assert main(["rdiagram", write(tmp_path, doc), *flags]) == 0
        assert len(json.loads(capsys.readouterr().out)["degrees"]) == C.terms
        assert object_counts == per_run


def test_each_rdiagram_is_checked_once(monkeypatch, tmp_path, capsys):
    # the reduction, the payload and the oracle share one evaluation per degree
    evaluated = []
    evaluate = reduction._rdiagram_checks

    def shim(rd):
        evaluated.append(rd)
        return evaluate(rd)

    monkeypatch.setattr(reduction, "_rdiagram_checks", shim)
    assert main(["rdiagram", write(tmp_path, WORKED), "--all"]) == 0
    assert len(evaluated) == len(json.loads(capsys.readouterr().out)["degrees"])


class TestInvariantsCommand:
    def test_zero_complex_doubles_the_rank(self, tmp_path, capsys):
        doc = {"p": 3, "differentials": [], "ranks": [2]}
        assert main(["invariants", write(tmp_path, doc), "--degree", "0"]) == 0
        row = json.loads(capsys.readouterr().out)["degrees"][0]
        assert row["oracle"] == {"rank": 4, "factors": []}
        assert row["agree"] is True

    def test_worked_example_agrees(self, tmp_path, capsys):
        assert main(["invariants", write(tmp_path, WORKED), "--all"]) == 0
        rows = json.loads(capsys.readouterr().out)["degrees"]
        assert all(r["agree"] for r in rows)
        assert rows[1]["pipeline"] == {"rank": 1, "factors": []}


class TestSelftestCommand:
    def test_small_run_passes(self, capsys):
        assert main(["selftest", "--seed", "5", "--trials", "6"]) == 0
        assert "selftest: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("trials", ["-3", "-1", "x"])
    def test_trials_must_be_a_non_negative_integer(self, trials, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--trials", trials])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--trials" in captured.err
        assert "selftest: ok" not in captured.out

    def test_zero_trials_still_runs_one_complex_trial(self, capsys):
        assert main(["selftest", "--seed", "1", "--trials", "0"]) == 0
        assert "selftest: ok (0 presentation trials, seed 1)" in capsys.readouterr().out

    def test_single_prime_restriction(self, capsys):
        assert main(["selftest", "--seed", "1", "--trials", "4", "--p", "3"]) == 0

    @pytest.mark.parametrize("p", ["0", "4", "4294967311", "x"])
    def test_p_must_be_a_prime_below_the_bound(self, p, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--trials", "1", "--p", p])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--p" in captured.err
        assert "selftest: ok" not in captured.out

    def test_failed_reduction_hypothesis_is_an_internal_failure(self, monkeypatch, capsys):
        def broken(pres):
            raise reduction.HypothesisViolation("u1-not-surjective", "injected")

        monkeypatch.setattr(cli, "reduce_K", broken)
        assert main(["selftest", "--seed", "1", "--trials", "2"]) == 3
        assert "u1-not-surjective" in capsys.readouterr().err


def test_console_entry_point_runs():
    # the child sees the package where this process found it, installed or not
    src = os.path.dirname(os.path.dirname(homology.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rdiagram.cli", "selftest", "--trials", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "selftest: ok" in proc.stdout


def golden_corpus():
    """Thirty seeded complexes, p cycling through 2, 3, 5, as CLI documents."""
    docs = []
    for seed in range(30):
        p = (2, 3, 5)[seed % 3]
        rng = random.Random(seed)
        ranks = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
        diffs = random_complex_differentials(rng, p, ranks, bound=2)
        differentials = [
            {"d1": [list(r) for r in d1.entries], "d2": [list(r) for r in d2.entries]}
            for d1, d2 in diffs
        ]
        docs.append(json.dumps({"p": p, "ranks": ranks, "differentials": differentials}))
    return docs


# sha256 of the concatenated `rdiagram - --all [--trace]` outputs on golden_corpus();
# any change to a normal form, a chosen generator or the JSON layout moves it
GOLDEN_SHA256 = {
    (): "85f32ff63b877c6aa07b9d9d95d2e3745dca16e5e49b196426efc7cd04bee9a4",
    ("--trace",): "5901c6c48a2948f28e29354064bf5b348733a973f0d8a0859f9fe75b39c7a754",
}


# sha256 of the concatenated `invariants - --all` outputs on golden_corpus()
INVARIANTS_SHA256 = "27fe8314b292a46d1a5f139061af41de684f638fa532f62add79fb3a07b2b7d0"


def corpus_digest(argv, monkeypatch, capsys) -> str:
    """sha256 of the concatenated stdout of ``main(argv)`` on each golden_corpus() document."""
    digest = hashlib.sha256()
    for doc in golden_corpus():
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("flags", sorted(GOLDEN_SHA256))
def test_rdiagram_output_matches_the_golden_digest(flags, monkeypatch, capsys):
    digest = corpus_digest(["rdiagram", "-", "--all", *flags], monkeypatch, capsys)
    assert digest == GOLDEN_SHA256[flags]


def test_invariants_output_matches_the_golden_digest(monkeypatch, capsys):
    assert corpus_digest(["invariants", "-", "--all"], monkeypatch, capsys) == INVARIANTS_SHA256


# values a perturbed document may hold in place of any part of a valid one
JUNK = st.sampled_from(
    [None, True, False, 0, 1, -1, 4, 2**32, 4294967291, 2**70, 1.5, "", "x", "7", "-3",
     "1" * 40, [], [[]], [[1]], [[1, 2], [3]], [["2", 0]], {}, {"d1": [], "d2": []}]
)


def _paths(node, here=()):
    """Every position in a JSON tree: keys of objects, indices of lists."""
    yield here
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, here + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, here + (i,))


def _perturb(doc, data):
    """One change to ``doc``: replace, delete or duplicate a part, or add a key."""

    def junk():  # a copy, since later changes may edit it in place
        return copy.deepcopy(data.draw(JUNK))

    path = data.draw(st.sampled_from(list(_paths(doc))))
    kind = data.draw(st.sampled_from(["replace", "delete", "duplicate", "add"]))
    if not path:
        return junk() if kind == "replace" else doc
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if kind == "replace":
        parent[last] = junk()
    elif kind == "delete":
        del parent[last]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(last, copy.deepcopy(parent[last]))
    elif isinstance(parent, dict):
        parent[data.draw(st.sampled_from(["p", "ranks", "labels", "d1", "d2", "extra"]))] = junk()
    return doc


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    seed=st.integers(0, 10**9),
    ranks=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_any_perturbed_document_is_a_complex_or_a_document_error(p, seed, ranks, data):
    pairs = random_complex_differentials(random.Random(seed), p, ranks, bound=2)
    doc = {
        "p": p,
        "ranks": ranks,
        "labels": [f"C{k}" for k in range(len(ranks))],
        "differentials": [
            {"d1": [list(r) for r in d1.entries], "d2": [list(r) for r in d2.entries]}
            for d1, d2 in pairs
        ],
    }
    for _ in range(data.draw(st.integers(0, 3))):
        doc = _perturb(doc, data)
    text = json.dumps(doc)
    if data.draw(st.booleans()):  # sometimes not JSON at all
        cut = data.draw(st.integers(0, len(text)))
        text = text[:cut] + data.draw(st.sampled_from(["", "}", "[", ",", "\x00", "\u00e9"])) + text[cut:]
    try:
        C, _ = load_document(text)
    except DocumentError:
        pass
    else:
        assert isinstance(C, homology.ChainComplexR)
    # the pipeline accepts or refuses it, but never fails on it
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["rdiagram", "-", "--all"])
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2)
