"""The seeded generators stay pinned: the same seeds draw the same inputs.

Each digest covers every matrix and relation basis of the morphisms drawn:
both diagrams (components, middle dimension, structure maps) and f_1,
f_2, fbar.  The constants were taken before ``random_block_morphism``
moved into ``rdiagram.morphisms`` and ``random_presentation`` stopped
going through the pullback group; a change to either generator, or to
anything they call, changes them.
"""

import hashlib
import random

from rdiagram.morphisms import random_block_morphism
from rdiagram.randomgen import random_presentation, random_rmodule

PRESENTATIONS_SHA256 = "bd527870a6a2a02f62c8e140bb9ce615dd0f8058dc095ff13ff2ca547ea7b8fd"
BLOCK_MORPHISMS_SHA256 = "6a36b72aedc3e7b50b453321cd7b89bad10e8b6b704904a0c072031398e22b41"


def _diagram_key(D):
    return (
        D.p, D.mbar_dim, D.M1.gens, D.M1.relations.basis, D.M2.gens,
        D.M2.relations.basis, D.p1.entries, D.p2.entries,
    )


def _morphism_key(m):
    return (
        _diagram_key(m.source), _diagram_key(m.target),
        m.f1.matrix.entries, m.f2.matrix.entries, m.fbar.entries,
    )


def test_random_presentation_is_pinned():
    h = hashlib.sha256()
    for seed in range(30):
        for p in (2, 3, 5):
            pres = random_presentation(random.Random(seed), p)
            h.update(repr(_morphism_key(pres.morphism)).encode())
    assert h.hexdigest() == PRESENTATIONS_SHA256


def test_random_block_morphism_is_pinned_on_criterion_8s_draws():
    # the same draws as acceptance criterion 8
    h = hashlib.sha256()
    rng = random.Random(20260814 + 4)
    for i in range(500):
        p = (2, 3, 5)[i % 3]
        src = random_rmodule(rng, p, rng.randint(1, 2), rng.randint(1, 2), max_gens=3)
        m, _, _ = random_block_morphism(rng, src, rng.randint(1, 2), rng.randint(1, 2))
        h.update(repr(_morphism_key(m)).encode())
    assert h.hexdigest() == BLOCK_MORPHISMS_SHA256
