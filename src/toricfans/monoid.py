"""Toric monoids, face inclusions between them, and functional extension.

A toric monoid is the monoid of lattice points of a pointed cone, so a
Cone stands for it here: its ambient rank is the monoid's lattice rank,
and its group completion is cone.gp.
Morphisms are lattice maps carrying the source cone isomorphically onto a
face of the target cone, with the group completion landing as a saturated
sublattice.  T1 lemma: an injective map sends extreme rays onto the image
cone's extreme rays, and a face's extreme rays are rays of the target, so
the image of an injective map is a face exactly when it has a ray map
(FaceMorphism.ray_map) whose rays make up one of the target's face masks.
extend_functional pushes a functional on a face out to the whole monoid,
optionally making it strictly positive away from that face.
"""

from __future__ import annotations

from functools import cached_property

from .cone import (
    Cone,
    Functional,
    face_masks,
    gp,
    index_mask,
    ray_indices,
    subcone,
    supporting_functional,
)
from .errors import DomainError, InternalError
from .frozen import Frozen
from .intlin import IntMatrix, invariant_factors, reduce_basis


class NegativeOnFace(DomainError):
    """Raised when a positive-mode extension starts from a functional that is
    already negative somewhere on the face."""


class FaceMorphism(Frozen):
    """A lattice map meant to include source as a face of target.

    Only shapes are checked here; the semantic conditions are the business of
    verify_face_morphism.
    """

    __slots__ = ("source", "target", "map", "__dict__")

    def __init__(self, source: Cone, target: Cone, map: IntMatrix):
        if map.rows != target.ambient_rank or map.cols != source.ambient_rank:
            raise ValueError("morphism matrix shape does not match the lattices")
        object.__setattr__(self, "source", source)  # as IntMatrix does: one is built per edge
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "map", map)

    @cached_property
    def ray_map(self) -> tuple[int, ...] | None:
        """For each source ray, the index in target.rays of the ray its image
        is a positive multiple of; None when some image is no such multiple.
        Through the shared identity the images are the source rays."""
        m = self.map
        images = self.source.rays if m is IntMatrix.identity(m.cols) else [m.apply(r) for r in self.source.rays]
        return ray_indices(self.target, images)


def image_cone(f: FaceMorphism) -> Cone:
    """The cone generated by the images of the source's extreme rays."""
    return subcone(f.target, [f.map.apply(r) for r in f.source.rays])


def verify_face_morphism(f: FaceMorphism) -> tuple[str, ...]:
    """Check that f includes its source as a proper face of its target.

    Returns the violations found (empty tuple means ok): "not injective",
    "image not a face", "not saturated", "face not proper".  One Smith
    reduction of the map decides injectivity, and when all its invariant
    factors are 1 the map splits, so it keeps the saturated gp saturated;
    only otherwise is the image of gp reduced.  The image is then read off
    the ray map, by the module's T1 lemma: no ray map means no face.
    """
    factors = invariant_factors(f.map)
    if len(factors) != f.map.cols:
        return ("not injective",)
    violations = []
    mask = index_mask(f.ray_map)
    if mask not in face_masks(f.target):
        violations.append("image not a face")
    if any(x != 1 for x in factors):
        s = f.map @ gp(f.source)
        if invariant_factors(s) != tuple([1] * s.cols):
            violations.append("not saturated")
    if not violations and mask == (1 << len(f.target.rays)) - 1:
        violations.append("face not proper")
    return tuple(violations)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def extend_functional(f: FaceMorphism, psi: Functional, mode: str = "nonneg_positive_away") -> Functional:
    """Extend psi, a functional on the source lattice of f, to the target.

    The extension is deterministic: lift psi's values on the gp basis of
    the source, carried in by f, to the functional that vanishes on the
    basis's complement summand (ReducedBasis.lift), and in mode
    "nonneg_positive_away" add the smallest multiple of the face's
    supporting functional that makes the value at least 1 on every ray
    outside the face.  Only psi's values on gp of the source matter.  The
    improper face is accepted and simply re-expresses psi.

    Raises NegativeOnFace in positive mode when psi is negative on a source
    ray; restriction along f is exact in both modes.
    """
    if mode not in ("arbitrary", "nonneg_positive_away"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(psi.coefficients) != f.source.ambient_rank:
        raise ValueError("coefficient length does not match the source lattice")

    basis = gp(f.source)
    s = f.map @ basis
    w = [psi(basis.col(j)) for j in range(basis.cols)]
    chi0 = reduce_basis(s).lift(w)

    if mode == "arbitrary":
        out = Functional(chi0)
    else:
        for r in f.source.rays:
            if psi(r) < 0:
                raise NegativeOnFace(f"negative on source ray {r}")
        chi_face = supporting_functional(f.target, image_cone(f))
        k = 0
        for r in f.target.rays:
            gap = chi_face(r)
            if gap:  # rays on the face have gap 0 and stay untouched
                have = sum(a * b for a, b in zip(chi0, r))
                if have < 1:
                    k = max(k, _ceil_div(1 - have, gap))
        out = Functional(tuple(a + k * b for a, b in zip(chi0, chi_face.coefficients)))

    # restriction along f must reproduce psi on the nose
    if [out(s.col(j)) for j in range(s.cols)] != w:
        raise InternalError("extended functional does not restrict to the given one")
    return out
