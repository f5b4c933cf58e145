"""Module layout: every export resolves, and the pipeline never loads ``rdiagram.morphisms``."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import rdiagram

MODULES = sorted(info.name for info in pkgutil.iter_modules(rdiagram.__path__))


@pytest.mark.parametrize("name", ["rdiagram"] + [f"rdiagram.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


PIPELINE_RUN = """
import contextlib, io, sys
from rdiagram.cli import main
from rdiagram.homology import ChainComplexR, homology_rdiagram
from rdiagram.intlinalg import IntMatrix

path = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["validate", path]),
        main(["rdiagram", path, "--all", "--trace"]),
        main(["invariants", path, "--all"]),
        main(["selftest", "--trials", "2"]),
    ]
assert codes == [0, 0, 0, 0], codes
rows = IntMatrix.from_rows
homology_rdiagram(ChainComplexR(2, [(rows([[2]]), rows([[0]]))]), 1)
assert "rdiagram.morphisms" not in sys.modules, "the pipeline loaded rdiagram.morphisms"
print("ok")
"""


def test_the_pipeline_never_loads_morphisms(tmp_path):
    doc = tmp_path / "complex.json"
    doc.write_text(
        '{"p": 3, "differentials": [{"d1": [[0, 0], [1, -1]], "d2": [[12, -21], [16, -28]]},'
        ' {"d1": [[-1, 0]], "d2": [[-4, 3]]}]}'
    )
    # the child sees the package where this process found it, installed or not
    src = os.path.dirname(os.path.dirname(rdiagram.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE_RUN, str(doc)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
