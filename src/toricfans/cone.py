"""Pointed rational polyhedral cones with exact integer arithmetic.

A Cone is stored canonically: primitive extreme ray generators, sorted
lexicographically, so equality and hashing are structural.  Facet normals
are found by enumerating hyperplanes through generator subsets: every facet
of a generated cone is generated by the generators lying on it, so its
normal is the kernel of d-1 independent generators, oriented to be
nonnegative on the rest.  Each set of generators is analysed once into one
record behind one bounded cache, and the public functions only read records
(a Cone's is that of its rays): span, facets, extreme rays, dual and faces.
The dual of a cone spanning a proper subspace contains the annihilator of
the span as lines and comes back as a NonPointedCone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Sequence

from .errors import InternalError
from .intlin import (
    IntMatrix,
    complement_summand,
    kernel_basis,
    lattice_coordinates,
    primitivize,
    rank,
)


class NotPointed(ValueError):
    """Raised when generators span a cone containing a line."""


class NotAFace(ValueError):
    """Raised when a claimed face is not a face of the given cone."""


@dataclass(frozen=True)
class Functional:
    """Integer linear functional on an ambient lattice."""

    coefficients: tuple[int, ...]

    def __call__(self, v: Sequence[int]) -> int:
        if len(v) != len(self.coefficients):
            raise ValueError("length mismatch in pairing")
        return sum(a * b for a, b in zip(self.coefficients, v))


@dataclass(frozen=True)
class Cone:
    """Pointed cone, canonical form: primitive extreme rays, lex-sorted.

    Build through cone_from_rays; the constructor trusts its input.
    """

    ambient_rank: int
    rays: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for r in self.rays:
            if len(r) != self.ambient_rank:
                raise ValueError("ray length does not match ambient rank")

    def is_zero(self) -> bool:
        return not self.rays


@dataclass(frozen=True)
class NonPointedCone:
    """A cone containing lines: pointed-part generators plus a lineality basis.

    The split into pointed part and lineality is a choice, not an invariant,
    so instances describe generators rather than a canonical form.
    """

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...]
    lineality: tuple[tuple[int, ...], ...]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _clean_generators(ambient_rank, generators):
    seen = set()
    vecs = []
    for g in generators:
        g = tuple(int(x) for x in g)
        if len(g) != ambient_rank:
            raise ValueError("generator length does not match ambient rank")
        if not any(g):
            continue
        g = primitivize(g)
        if g not in seen:
            seen.add(g)
            vecs.append(g)
    return tuple(sorted(vecs))


def _facet_normals(coords, dim):
    """Facet normals of the cone generated by coords, full-dimensional in
    Z^dim.  Primitive, deduplicated, sorted.

    Each candidate hyperplane is the kernel of dim - 1 of the generators; it
    supports a facet exactly when the kernel is a line and all generators
    sit weakly on one side of it.
    """
    if dim == 0:
        return ()
    out = set()
    for subset in combinations(coords, dim - 1):
        ker = kernel_basis(IntMatrix.from_rows(subset, cols=dim))
        if ker.cols != 1:
            continue
        n = primitivize(ker.col(0))
        values = [_dot(n, c) for c in coords]
        if all(v >= 0 for v in values):
            out.add(n)
        elif all(v <= 0 for v in values):
            out.add(tuple(-x for x in n))
    return tuple(sorted(out))


@dataclass(frozen=True)
class _Analysis:
    """What the module knows about the cone generated by vecs (cleaned).

    ``facets`` are in span coordinates.  A full-dimensional cone is pointed
    exactly when its facet normals span: any lineality would force every
    valid inequality into its annihilator.
    """

    ambient_rank: int
    vecs: tuple[tuple[int, ...], ...]
    lineality: tuple[tuple[int, ...], ...]  # sorted annihilator basis of the span
    basis: IntMatrix  # saturated basis of the lattice points in the span, as columns
    coords: tuple[tuple[int, ...], ...]  # vecs in basis coordinates
    facets: tuple[tuple[int, ...], ...]
    pointed: bool

    @cached_property
    def cone(self) -> Cone:
        """For a pointed cone, the extreme generators: those on d - 1
        independent facets."""
        d = self.basis.cols
        return Cone(self.ambient_rank, tuple(
            v for v, c in zip(self.vecs, self.coords)
            if rank(IntMatrix.from_rows([f for f in self.facets if _dot(f, c) == 0], cols=d)) == d - 1
        ))

    @cached_property
    def dual_generators(self) -> tuple[tuple[int, ...], ...]:
        """Facet normals lifted to the ambient dual lattice by the projection
        that is the identity on the span basis and kills a complement summand,
        primitive and sorted."""
        if not self.facets:
            return ()
        square = self.basis.hstack(complement_summand(self.basis))
        proj = lattice_coordinates(square, IntMatrix.identity(self.ambient_rank)).entries[: self.basis.cols]
        return tuple(sorted(primitivize(tuple(_dot(h, col) for col in zip(*proj))) for h in self.facets))

    @cached_property
    def faces(self) -> tuple[Cone, ...]:
        """Faces of the cone whose rays are vecs; see faces()."""
        facet_sets = [frozenset(r for r in self.vecs if _dot(g, r) == 0) for g in self.dual_generators]
        found = {frozenset(self.vecs)}
        frontier = set(facet_sets)
        while frontier:
            found |= frontier
            frontier = {a & b for a in frontier for b in facet_sets if a & b not in found}
        if self.vecs:
            found.add(frozenset())  # the zero face: intersection of all facets
        out = (Cone(self.ambient_rank, tuple(sorted(rs))) for rs in found)
        return tuple(sorted(out, key=lambda f: (len(f.rays), f.rays)))


@lru_cache(maxsize=2048)
def _analyse(ambient_rank: int, vecs: tuple[tuple[int, ...], ...]) -> _Analysis:
    ann = kernel_basis(IntMatrix.from_rows(vecs, cols=ambient_rank))
    basis = kernel_basis(ann.transpose())
    coords = tuple(lattice_coordinates(basis, IntMatrix.from_cols(vecs, rows=ambient_rank)).columns())
    facets = _facet_normals(coords, basis.cols)
    pointed = rank(IntMatrix.from_rows(facets, cols=basis.cols)) == basis.cols
    return _Analysis(ambient_rank, vecs, tuple(sorted(ann.columns())), basis, coords, facets, pointed)


def _of(c: Cone) -> _Analysis:
    # a Cone's rays are already clean generators
    return _analyse(c.ambient_rank, c.rays)


def cone_from_rays(ambient_rank: int, generators: Sequence[Sequence[int]]) -> Cone:
    """Canonical pointed cone from arbitrary integer generators.

    Generators are primitivized and deduplicated, non-extreme ones dropped,
    and the survivors sorted.  Raises NotPointed when the generated cone
    contains a line.
    """
    a = _analyse(ambient_rank, _clean_generators(ambient_rank, generators))
    if not a.pointed:
        raise NotPointed("generators span a cone containing a line")
    return a.cone


def cone_dual_of_generated(ambient_rank: int, generators: Sequence[Sequence[int]]) -> Cone | NonPointedCone:
    """Dual of the (possibly non-pointed) cone generated by the given vectors.

    The pointed part is computed in span coordinates, where facet normals of
    the generated cone are exactly the extreme rays of its dual, then lifted
    to the ambient dual lattice by the projection that kills a complement of
    the span.  Lines appear exactly when the generators do not span, and the
    lineality returned is the annihilator of their span.
    """
    a = _analyse(ambient_rank, _clean_generators(ambient_rank, generators))
    if not a.lineality:
        return Cone(ambient_rank, a.dual_generators)
    return NonPointedCone(ambient_rank, a.dual_generators, a.lineality)


def dual_cone(c: Cone) -> Cone | NonPointedCone:
    """Dual of c: a Cone when c is full-dimensional, otherwise a
    NonPointedCone whose lineality annihilates the span of c."""
    return cone_dual_of_generated(c.ambient_rank, c.rays)


def contains(c: Cone, v: Sequence[int]) -> bool:
    """Exact membership: v pairs nonnegatively with every dual generator and
    pairs to zero with the dual lineality (so v lies in the span of c)."""
    v = tuple(int(x) for x in v)
    if len(v) != c.ambient_rank:
        raise ValueError("vector length does not match ambient rank")
    a = _of(c)
    if any(_dot(l, v) != 0 for l in a.lineality):
        return False
    return all(_dot(g, v) >= 0 for g in a.dual_generators)


def faces(c: Cone) -> tuple[Cone, ...]:
    """All faces of c, the zero face and c itself included.

    Every face is an intersection of facets, so the face lattice is the
    closure of the facet ray-sets under intersection.  Rays of c lying in a
    face are exactly that face's extreme rays, which keeps the construction
    canonical.  Sorted by (ray count, rays).
    """
    return _of(c).faces


def is_face(c: Cone, f: Cone) -> bool:
    return f in faces(c)


def supporting_functional(c: Cone, f: Cone) -> Functional:
    """Functional that is >= 0 on c, vanishes exactly on f, and is >= 1 on
    every extreme ray of c outside f.

    Deterministic: the primitivized sum of all facet normals of c vanishing
    on f.  The improper face gets the zero functional.  Raises NotAFace when
    f is not a face of c.
    """
    a = _of(c)
    if f not in a.faces:
        raise NotAFace("second cone is not a face of the first")
    on_f = [g for g in a.dual_generators if all(_dot(g, r) == 0 for r in f.rays)]
    chi = primitivize(tuple(sum(g[i] for g in on_f) for i in range(c.ambient_rank)))
    face_rays = set(f.rays)
    if any(_dot(chi, r) != 0 for r in f.rays):
        raise InternalError("supporting functional does not vanish on the face")
    if any(_dot(chi, r) < 1 for r in c.rays if r not in face_rays):
        raise InternalError("supporting functional is not positive away from the face")
    return Functional(chi)


def span_sublattice(c: Cone) -> IntMatrix:
    """Saturated basis (as columns) of the lattice points in the span of c."""
    return _of(c).basis


def intersection(a: Cone, b: Cone) -> Cone:
    """Intersection of two pointed cones in the same ambient lattice.

    Dualize the sum of the duals: the dual generators of both cones (lines
    opened up into opposite pairs) generate a full-dimensional cone whose
    dual is the intersection, and an intersection of pointed cones is again
    pointed.
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    gens: list[tuple[int, ...]] = []
    for c in (a, b):
        known = _of(c)
        gens.extend(known.dual_generators)
        gens.extend(w for l in known.lineality for w in (l, tuple(-x for x in l)))
    met = cone_dual_of_generated(a.ambient_rank, gens)
    if not isinstance(met, Cone):
        raise InternalError("intersection of pointed cones is not pointed")
    return met
