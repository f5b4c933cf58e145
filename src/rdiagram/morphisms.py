"""Morphisms of pullback diagrams: the paper's mono/epi criteria.

``is_mono`` and each condition of ``epi_conditions`` sit beside the direct
checks on pullback modules they are compared with, and
``random_block_morphism`` draws the morphisms they run on.  Acceptance
criterion 8 and the tests are the only callers; the pipeline never
imports this module.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .intlinalg import IntMatrix, Lattice, lattice_intersection
from .fplinalg import FpMatrix, FpSubspace
from .presentations import ModuleMap, ZModulePresentation
from .pullback import DiagramMorphism, LatticeRModule, PullbackDiagram, Separation
from .pullback import _matching_lattice, is_separated, separate
from .randomgen import random_int_matrix, rclose

__all__ = [
    "PullbackModule",
    "pullback_group",
    "separate_morphism",
    "KernelDiagram",
    "kernel_diagram",
    "is_mono",
    "is_mono_direct",
    "induced_pullback_map",
    "EpiReport",
    "epi_conditions",
    "random_block_morphism",
]


@dataclass(frozen=True, slots=True, eq=False)
class PullbackModule:
    """The module of matching pairs of a pullback diagram.

    ``matching`` is the lattice {(m1, m2) : p1 m1 = p2 m2 mod p} inside the
    combined generator space, ``relations`` the copy of Rel(M_1) + Rel(M_2)
    inside it, and ``presentation`` the quotient on the matching basis.
    Built by ``pullback_group``; the diagram itself is not kept.
    """

    matching: Lattice
    relations: Lattice
    presentation: ZModulePresentation


def _coordinates(L: Lattice, vectors: Iterable[Sequence[int]], failure: str) -> list:
    """Each vector's coordinates in ``L``'s basis; ``AssertionError(failure)`` if one is outside."""
    coords = []
    for v in vectors:
        c = L.solve(v)
        if c is None:
            raise AssertionError(failure)
        coords.append(c)
    return coords


def _direct_sum(A: Lattice, B: Lattice) -> Lattice:
    """Block sum inside ``Z^(a+b)``: first block ``A``, second block ``B``."""
    a, b = A.ambient, B.ambient
    gens = [col + (0,) * b for col in A.basis]
    gens += [(0,) * a + col for col in B.basis]
    return Lattice.from_generators(a + b, gens)


def pullback_group(D: PullbackDiagram) -> PullbackModule:
    """Matching pairs of D; see ``PullbackModule``."""
    matching = _matching_lattice(D.p1, D.p2)
    relations = _direct_sum(D.M1.relations, D.M2.relations)
    rel_coords = _coordinates(
        matching, relations.basis, "component relations escaped the matching lattice"
    )
    pres = ZModulePresentation(
        matching.rank, Lattice.from_generators(matching.rank, rel_coords)
    )
    return PullbackModule(matching, relations, pres)


def separate_morphism(
    block1: IntMatrix,
    block2: IntMatrix,
    src: Separation,
    tgt: Separation,
) -> DiagramMorphism:
    """Separate the block map (x, y) -> (block1 x, block2 y) of R-modules.

    The map must carry the source module into the target module and the
    source relations into the target relations (checked on generators;
    blockwise maps are automatically R-linear).  The components express
    each image class in the target generators modulo P_2 T and P_1 T
    respectively.  Although those integer coordinates involve a choice,
    the induced maps do not; this is re-verified by recomputing one column
    with a shifted solution and comparing classes.
    """
    if src.p != tgt.p:
        raise ValueError("modules have different p")
    if block1.cols != src.a or block1.rows != tgt.a or block2.cols != src.b or block2.rows != tgt.b:
        raise ValueError("block shapes do not match the modules")

    def apply(v):
        return tuple(block1.mul_vec(v[: src.a])) + tuple(block2.mul_vec(v[src.a :]))

    for r in src.relations.basis:
        if not tgt.relations.contains(apply(r)):
            raise ValueError(f"image of relation {r} leaves the target relations")
    images = []
    for g in src.generators:
        img = apply(g)
        if not tgt.module_lattice.contains(img):
            raise ValueError(f"image of generator {g} is not in the target module")
        images.append(img)

    cols1 = tgt.class_coordinates(images, side=1)
    cols2 = tgt.class_coordinates(images, side=2)
    kt = tgt.gen_matrix.cols
    f1 = ModuleMap(
        src.diagram.M1, tgt.diagram.M1, IntMatrix.from_cols(cols1, rows=kt)
    )
    f2 = ModuleMap(
        src.diagram.M2, tgt.diagram.M2, IntMatrix.from_cols(cols2, rows=kt)
    )
    p = src.p
    proj = tgt.diagram.p1
    fbar = proj @ FpMatrix.from_int(f1.matrix, p) @ src.section
    fbar_via_2 = proj @ FpMatrix.from_int(f2.matrix, p) @ src.section
    if fbar != fbar_via_2:
        raise AssertionError("the two components induce different maps on Sbar")
    # lift-independence: nudge the first expressible column by a relation
    # of the target and confirm the class is unchanged
    if cols1 and tgt.diagram.M1.relations.basis:
        shift = tgt.diagram.M1.relations.basis[0]
        moved = tuple(a + b for a, b in zip(cols1[0], shift))
        if not tgt.diagram.M1.elements_equal(moved, cols1[0]):
            raise AssertionError("class coordinates depend on the chosen lift")
    return DiagramMorphism(src.diagram, tgt.diagram, f1, f2, fbar)


@dataclass(frozen=True, slots=True, eq=False)
class KernelDiagram:
    """The componentwise kernel (ker f_1, ker fbar, ker f_2) of a morphism.

    ``diagram`` presents each ker f_i on the basis of its kernel lattice,
    with structure maps c_i (``diagram.p1``/``p2``) landing in ``kerfbar``
    realized on its echelon basis.  This is in general only a pullback
    diagram of ker f, not a separated one (the c_i need not be onto).
    """

    diagram: PullbackDiagram
    kerfbar: FpSubspace


def kernel_diagram(m: DiagramMorphism) -> KernelDiagram:
    p = m.source.p
    kerfbar = m.fbar.kernel()
    dims = kerfbar.dim
    presentations = []
    cmaps = []
    for i in (1, 2):
        L = m.component(i).kernel_lattice()
        n = L.rank
        rel_coords = _coordinates(
            L, m.source.component(i).relations.basis,
            "source relations escaped the kernel lattice",
        )
        presentations.append(ZModulePresentation(n, Lattice.from_generators(n, rel_coords)))
        ccols = []
        for col in L.basis:
            bar = m.source.structure_map(i).mul_vec(col)
            coords = kerfbar.coords_in(bar)
            if coords is None:
                raise AssertionError("structure map failed to land in ker fbar")
            ccols.append(coords)
        crows = tuple(tuple(ccols[j][r] for j in range(n)) for r in range(dims))
        cmaps.append(FpMatrix(p, dims, n, crows))
    diagram = PullbackDiagram(p, presentations[0], presentations[1], dims, cmaps[0], cmaps[1])
    return KernelDiagram(diagram, kerfbar)


def is_mono(m: DiagramMorphism) -> bool:
    """Injectivity via the criterion on (m1, m2) -> p1(m1) - p2(m2).

    The map is injective iff no pair of kernel elements has matching images
    in the source middle space, except pairs that are zero already.  On
    lattices: the matching sublattice of ker f_1 + ker f_2 must be
    contained in the relations.
    """
    src = m.source
    L1 = m.f1.kernel_lattice()
    L2 = m.f2.kernel_lattice()
    dom = _direct_sum(L1, L2)
    Z = lattice_intersection(dom, _matching_lattice(src.p1, src.p2))
    rels = _direct_sum(src.M1.relations, src.M2.relations)
    return rels.contains_lattice(Z)


def induced_pullback_map(m: DiagramMorphism) -> ModuleMap:
    """The map the morphism induces on the modules of matching pairs."""
    src_group = pullback_group(m.source)
    tgt_group = pullback_group(m.target)
    g1 = m.source.M1.gens
    images = (
        tuple(m.f1.matrix.mul_vec(col[:g1])) + tuple(m.f2.matrix.mul_vec(col[g1:]))
        for col in src_group.matching.basis
    )
    cols = _coordinates(
        tgt_group.matching, images, "image of a matching pair fails to match"
    )
    W = IntMatrix.from_cols(cols, rows=tgt_group.matching.rank)
    return ModuleMap(src_group.presentation, tgt_group.presentation, W)


def is_mono_direct(m: DiagramMorphism) -> bool:
    """Ground truth: kernel triviality of the induced map on pullbacks."""
    return induced_pullback_map(m).is_injective()


@dataclass(frozen=True, slots=True, eq=False)
class EpiReport:
    """The four sufficient surjectivity conditions plus the ground truth."""

    cond1: bool
    cond2: bool
    cond3: bool
    cond4: bool
    direct: bool


def _mixed_pullback_map(m: DiagramMorphism, side: int) -> ModuleMap:
    """Canonical map M_side -> pullback of (Mbar -> Nbar <- N_side).

    The target mixes an F_p space with a presented group; it is presented
    on the matching lattice inside Z^dm + Z^(gens), with p Z^dm and the
    N_side relations as relations.
    """
    p = m.source.p
    dm = m.source.mbar_dim
    q = m.target.structure_map(side)
    Nside = m.target.component(side)
    match = _matching_lattice(m.fbar, q)
    rels = _direct_sum(Lattice.scaled_full(dm, p), Nside.relations)
    rel_coords = _coordinates(match, rels.basis, "mixed pullback lost its relations")
    P = ZModulePresentation(match.rank, Lattice.from_generators(match.rank, rel_coords))
    Mside = m.source.component(side)
    psrc = m.source.structure_map(side)
    fside = m.component(side)
    images = (psrc.column(j) + fside.matrix.column(j) for j in range(Mside.gens))
    cols = _coordinates(match, images, "canonical map misses the mixed pullback")
    return ModuleMap(Mside, P, IntMatrix.from_cols(cols, rows=match.rank))


def epi_conditions(m: DiagramMorphism) -> EpiReport:
    """Evaluate the four sufficient epimorphism conditions and ground truth.

    Requires the target diagram to be preseparated; each condition is
    sufficient but not necessary, so the one guaranteed implication is
    condition => direct.  Each side's mixed pullback map is built at most
    once, and only when a condition reaches it.
    """
    if not is_separated(m.target).preseparated:
        raise ValueError("epimorphism conditions require a preseparated target")
    f1_epi = m.f1.is_surjective()
    f2_epi = m.f2.is_surjective()
    kd = kernel_diagram(m)
    kerdim = kd.kerfbar.dim
    c1_epi = kd.diagram.p1.rank() == kerdim
    c2_epi = kd.diagram.p2.rank() == kerdim
    mixed_epi = functools.cache(lambda side: _mixed_pullback_map(m, side).is_surjective())
    cond1 = f1_epi and f2_epi and (c1_epi or c2_epi)
    cond2 = f1_epi and mixed_epi(2)
    cond3 = f2_epi and mixed_epi(1)
    fbar_epi = m.fbar.rank() == m.target.mbar_dim
    cond4 = fbar_epi and mixed_epi(1) and mixed_epi(2)
    direct = induced_pullback_map(m).is_surjective()
    return EpiReport(cond1, cond2, cond3, cond4, direct)


def random_block_morphism(
    rng: random.Random,
    src: LatticeRModule,
    ta: int,
    tb: int,
    extra_target_gens: int = 1,
    bound: int = 2,
) -> tuple[DiagramMorphism, Separation, Separation]:
    """A random blockwise map out of ``src`` into a module built around its image.

    The target is the R-closure of the image plus a few extra random
    elements, so the map always lands inside it; with no extras the map is
    onto by construction.
    """
    A = random_int_matrix(rng, ta, src.a, bound)
    B = random_int_matrix(rng, tb, src.b, bound)
    images = [
        tuple(A.mul_vec(col[: src.a])) + tuple(B.mul_vec(col[src.a :]))
        for col in src.lattice.basis
    ]
    extras = [
        tuple(rng.randint(-bound, bound) for _ in range(ta + tb))
        for _ in range(rng.randint(0, extra_target_gens))
    ]
    tgt_lat = rclose(src.p, ta, tb, Lattice.from_generators(ta + tb, images + extras))
    tgt = LatticeRModule(src.p, ta, tb, tgt_lat)
    ssep = separate(src)
    tsep = separate(tgt)
    return separate_morphism(A, B, ssep, tsep), ssep, tsep
