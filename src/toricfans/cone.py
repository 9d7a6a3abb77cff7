"""Pointed rational polyhedral cones with exact integer arithmetic.

A Cone is stored canonically: primitive extreme ray generators, sorted
lexicographically, so equality and hashing are structural.  Facet normals
come from the double description method in span coordinates: start from
the simplicial cone of d independent generators, then add the other
generators one at a time, combining every adjacent pair of current normals
on opposite sides of the new one into a normal through it.  Adjacency is
decided on the normals' zero sets alone.  Each facet keeps the generators
lying on it as an int bitmask, and the extreme rays and the faces are read
off that incidence.  Each set of generators is analysed once into one
record behind one bounded cache, and the public functions only read records
(a Cone's is that of its rays, held on the Cone once read): gp (the
saturated span basis), ray coordinates in it, facets, extreme rays, dual
and faces.  The record keeps the faces as bitmasks over the rays (the
facets' closure under intersection), so is_face is a lookup and join_mask
an AND of facets; ray_indices finds the rays vectors are positive
multiples of, and subcone reads a cone generated by some rays off them
with no analysis at all.
Generators that span Q^n skip the lattice layer: the double description
runs on them directly, and when no line is left the span is everything,
gp is the shared identity and the coordinates are the generators, so the
record needs no Smith reduction.  A supporting functional sums the facet
normals whose incidence holds the face, and meets_in_shared_face tries
sums of facet normals as a functional separating two cones along the rays
they share, which proves their intersection a face of both.
The dual of a cone spanning a proper subspace contains the annihilator of
the span as lines and comes back as a NonPointedCone.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from operator import and_, mul, sub
from typing import NamedTuple, Sequence

from .errors import DomainError, InternalError
from .frozen import Frozen
from .intlin import (
    IntMatrix,
    int_vector,
    kernel_basis,
    primitivize,
    reduce_basis,
)


class NotPointed(DomainError):
    """Raised when generators span a cone containing a line."""


class NotAFace(DomainError):
    """Raised when a claimed face is not a face of the given cone."""


class Functional(NamedTuple):
    """Integer linear functional on an ambient lattice."""

    coefficients: tuple[int, ...]

    def __call__(self, v: Sequence[int]) -> int:
        if len(v) != len(self.coefficients):
            raise ValueError("length mismatch in pairing")
        return sum(a * b for a, b in zip(self.coefficients, v))


class Cone(Frozen):
    """Pointed cone, canonical form: primitive extreme rays, lex-sorted.

    Build through cone_from_rays; the constructor checks ray lengths only.
    """

    __slots__ = ("ambient_rank", "rays", "__dict__")

    def __init__(self, ambient_rank: int, rays: tuple[tuple[int, ...], ...]):
        for r in rays:
            if len(r) != ambient_rank:
                raise ValueError("ray length does not match ambient rank")
        object.__setattr__(self, "ambient_rank", ambient_rank)  # as IntMatrix does: cones are built often
        object.__setattr__(self, "rays", rays)

    def is_zero(self) -> bool:
        return not self.rays

    @cached_property
    def _record(self) -> _Analysis:  # no field: equality and hashing ignore it
        return _analyse(self.ambient_rank, self.rays)


class NonPointedCone(NamedTuple):
    """A cone containing lines: pointed-part generators plus a lineality basis.

    The split into pointed part and lineality is a choice, not an invariant,
    so instances describe generators rather than a canonical form.
    """

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...]
    lineality: tuple[tuple[int, ...], ...]


def _dot(a, b):
    return sum(map(mul, a, b))


def _clean_generators(ambient_rank, generators):
    seen = set()
    vecs = []
    for g in generators:
        g = int_vector(g)
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
    """Facet normals of the cone generated by coords and the generators on
    each facet as a bitmask over coords: primitive normals, sorted, with
    their masks in the same order; None when coords do not span Q^dim,
    which is when some line is left after the last generator.

    Double description: the normals are the extreme rays of the dual cone
    {y : c.y >= 0 for every generator c}, built up one generator at a time
    from all of Q^dim.  While the generators met so far do not span, the
    dual has lines, kept as a basis.  A generator independent of those met
    so far turns one line, oriented positive on it, into a normal and moves
    the rest into its kernel along that line; after dim of them the dual is
    the simplicial cone of dim independent generators, and pointed from
    then on.  Any other generator keeps the normals positive on it, keeps
    those vanishing on it with its bit set, drops the negative ones, and
    combines each adjacent (positive, negative) pair into a normal vanishing
    on it.  Modulo the lines the dual is pointed, so two of its normals are
    adjacent exactly when no third one vanishes on every generator both
    vanish on (Fukuda and Prodon 1996); at least dim - 2 such generators,
    less the lines, are needed first.  A cone containing a line is fine: its
    dual is pointed whenever the generators span.
    """
    lines = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []  # (normal, mask of the generators it vanishes on)
    for k, c in enumerate(coords):
        bit = 1 << k
        values = [_dot(c, l) for l in lines]
        j = next((j for j, v in enumerate(values) if v), None)
        if j is not None:
            s, l = abs(values[j]), lines.pop(j)
            l = l if values[j] > 0 else tuple(-x for x in l)
            del values[j]
            lines = [primitivize(tuple(s * x - v * y for x, y in zip(m, l))) for m, v in zip(lines, values)]
            rays = [
                (primitivize(tuple(s * x - v * w for x, w in zip(y, l))), z | bit)
                for (y, z), v in zip(rays, [_dot(c, y) for y, _ in rays])
            ]
            rays.append((l, bit - 1))
            continue
        kept, pos, neg = [], [], []
        for y, z in rays:
            value = _dot(c, y)
            if value > 0:
                kept.append((y, z))
                pos.append((value, y, z))
            elif value < 0:
                neg.append((value, y, z))
            else:
                kept.append((y, z | bit))
        masks = [z for _, z in rays]
        for vp, yp, zp in pos:
            for vn, yn, zn in neg:
                common = zp & zn
                if common.bit_count() < dim - len(lines) - 2:
                    continue
                if any(z & common == common and z != zp and z != zn for z in masks):
                    continue
                kept.append((primitivize(tuple(vp * b - vn * a for a, b in zip(yp, yn))), common | bit))
        rays = kept
    if lines:
        return None
    rays.sort()
    return tuple(y for y, _ in rays), tuple(z for _, z in rays)


class _Analysis(Frozen):
    """What the module knows about the cone generated by vecs (cleaned).

    ``lineality`` is the sorted annihilator basis of the span, ``basis`` a
    saturated basis of the lattice points in the span, as columns, and
    ``reduced`` that basis row reduced once, for ``coords``, vecs in its
    coordinates.  ``facets`` are in span coordinates, and ``incidence[f]``
    has bit i set when vecs[i] lies on facet f.  The cone is pointed exactly
    when no generator lies on every facet: the lineality space is the
    smallest face, the intersection of the facets (everything when there
    are none), and like every face it is generated by the generators in it.
    """

    __slots__ = ("ambient_rank", "vecs", "lineality", "basis", "reduced", "coords", "facets", "incidence",
                 "__dict__")

    @cached_property
    def pointed(self) -> bool:
        common = (1 << len(self.vecs)) - 1
        for z in self.incidence:
            common &= z
        return not common

    @cached_property
    def cone(self) -> Cone:
        """For a pointed cone, the extreme generators: those whose set of
        facets is contained in no other generator's (generators are distinct
        and primitive, and a ray of a pointed cone is the intersection of the
        facets through it)."""
        on = [sum(1 << f for f, z in enumerate(self.incidence) if z >> i & 1) for i in range(len(self.vecs))]
        return Cone(self.ambient_rank, tuple(
            v for v, s in zip(self.vecs, on) if sum(t & s == s for t in on) == 1
        ))

    @cached_property
    def lifts(self) -> tuple[tuple[int, ...], ...]:
        """Facet normals lifted to the ambient dual lattice through the span
        basis's own row reduction, vanishing on a complement summand,
        primitive, in facet order (the normals themselves when the span is
        everything and gp the identity)."""
        if not self.lineality:
            return self.facets
        return tuple(primitivize(self.reduced.lift(h)) for h in self.facets)

    @cached_property
    def dual_generators(self) -> tuple[tuple[int, ...], ...]:
        """The lifts, sorted."""
        return tuple(sorted(self.lifts))

    def facet_sum(self, mask: int) -> tuple[int, ...]:
        """The sum of the lifts of the facets holding every generator in
        mask (zero when no facet does)."""
        on = [g for g, z in zip(self.lifts, self.incidence) if z & mask == mask]
        return tuple(map(sum, zip(*on))) if on else (0,) * self.ambient_rank

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """Each generator's position in vecs."""
        return {v: i for i, v in enumerate(self.vecs)}

    @cached_property
    def face_masks(self) -> frozenset[int]:
        """The faces of the cone whose rays are vecs as bitmasks over vecs:
        the closure of the facets' generator sets under intersection, with
        the full mask for the cone itself.  The zero face is the
        intersection of all facets."""
        found = {(1 << len(self.vecs)) - 1}
        frontier = set(self.incidence)
        while frontier:
            found |= frontier
            frontier = {a & b for a in frontier for b in self.incidence} - found
        return frozenset(found)

    def mask_of(self, rays) -> int | None:
        """The bitmask of rays over vecs, or None unless they are distinct
        generators listed in the order of vecs."""
        mask, last = 0, -1
        for r in rays:
            i = self.index.get(r, -1)
            if i <= last:
                return None
            mask |= 1 << i
            last = i
        return mask

    def cone_on(self, mask: int) -> Cone:
        """The Cone whose rays are the generators with their bits set in mask."""
        return Cone(self.ambient_rank, tuple(v for i, v in enumerate(self.vecs) if mask >> i & 1))

    @cached_property
    def faces(self) -> tuple[Cone, ...]:
        """Faces of the cone whose rays are vecs, see faces()."""
        return tuple(sorted(map(self.cone_on, self.face_masks), key=lambda f: (len(f.rays), f.rays)))


@lru_cache(maxsize=2048)
def _analyse(ambient_rank: int, vecs: tuple[tuple[int, ...], ...]) -> _Analysis:
    if len(vecs) >= ambient_rank and (found := _facet_normals(vecs, ambient_rank)):
        # vecs span Q^n: no annihilator, gp is the identity and coordinates are vecs
        basis = IntMatrix.identity(ambient_rank)
        return _Analysis(ambient_rank, vecs, (), basis, reduce_basis(basis), vecs, *found)
    # vecs are clean generators, so the matrix needs no entry check
    gens = IntMatrix(len(vecs), ambient_rank, vecs)
    ann = kernel_basis(gens)
    basis = kernel_basis(ann.transpose())
    reduced = reduce_basis(basis)
    coords = tuple(reduced.coordinates(gens.transpose()).columns())
    facets, incidence = _facet_normals(coords, basis.cols)
    return _Analysis(ambient_rank, vecs, tuple(sorted(ann.columns())), basis, reduced, coords, facets, incidence)


def _of(c: Cone) -> _Analysis:
    return c._record


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
    v = int_vector(v)
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
    """Whether f is one of faces(c), read off the face masks: f's rays must
    be rays of c, in c's order, and make up a face's mask."""
    if f.ambient_rank != c.ambient_rank:
        return False
    a = _of(c)
    return a.mask_of(f.rays) in a.face_masks


def face_masks(c: Cone) -> frozenset[int]:
    """The faces of c as bitmasks over c.rays, see faces()."""
    return _of(c).face_masks


def ray_indices(c: Cone, generators: Sequence[tuple[int, ...]]) -> tuple[int, ...] | None:
    """The index in c.rays of the ray each generator (a tuple of ints) is a
    positive multiple of; None when some generator is no such multiple."""
    index = _of(c).index
    found = tuple(index.get(primitivize(g)) for g in generators)
    return None if None in found else found


def index_mask(indices: Sequence[int] | None) -> int | None:
    """The bitmask with bit k set for each k in indices; None for None."""
    if indices is None:
        return None
    mask = 0
    for k in indices:
        mask |= 1 << k
    return mask


def subcone(c: Cone, generators: Sequence[Sequence[int]]) -> Cone:
    """The same as cone_from_rays(c.ambient_rank, generators), read off the
    rays of c with no analysis when ray_indices finds them all: any set of
    extreme rays of a pointed cone is the set of extreme rays of the cone it
    generates.  Any other input goes to cone_from_rays, which raises its
    errors.
    """
    mask = index_mask(ray_indices(c, [int_vector(g) for g in generators]))
    if mask is None:
        return cone_from_rays(c.ambient_rank, generators)
    return _of(c).cone_on(mask)


def join_mask(c: Cone, mask: int) -> int:
    """The mask of the smallest face of c holding the rays in mask: the AND
    of the facets holding them all (every ray when none does)."""
    a = _of(c)
    return reduce(and_, (z for z in a.incidence if z & mask == mask), (1 << len(a.vecs)) - 1)


def face_join(c: Cone, f: Cone, g: Cone) -> Cone:
    """The smallest face of c containing the faces f and g of c, see
    join_mask.  Raises NotAFace when f or g is not a face of c."""
    if not (is_face(c, f) and is_face(c, g)):
        raise NotAFace("joined cones are not faces of the cone")
    a = _of(c)
    return a.cone_on(join_mask(c, a.mask_of(f.rays) | a.mask_of(g.rays)))


def supporting_functional(c: Cone, f: Cone) -> Functional:
    """Functional that is >= 0 on c, vanishes exactly on f, and is >= 1 on
    every extreme ray of c outside f.

    Deterministic: the primitivized sum of all facet normals of c vanishing
    on f, the facets whose incidence holds f's rays.  The improper face gets
    the zero functional.  Raises NotAFace when f is not a face of c.
    """
    if not is_face(c, f):
        raise NotAFace("second cone is not a face of the first")
    a = _of(c)
    chi = primitivize(a.facet_sum(a.mask_of(f.rays)))
    face_rays = set(f.rays)
    if any(_dot(chi, r) != 0 for r in f.rays):
        raise InternalError("supporting functional does not vanish on the face")
    if any(_dot(chi, r) < 1 for r in c.rays if r not in face_rays):
        raise InternalError("supporting functional is not positive away from the face")
    return Functional(chi)


def gp(c: Cone) -> IntMatrix:
    """Saturated basis (as columns) of the lattice points in the span of c:
    the group completion of c's monoid."""
    return _of(c).basis


def ray_coordinates(c: Cone) -> tuple[tuple[int, ...], ...]:
    """The rays of c, in order, in the coordinates of gp(c)."""
    return _of(c).coords


def span_coordinates(c: Cone, target: IntMatrix) -> IntMatrix:
    """The columns of target in the coordinates of gp(c), solved against
    the basis the record reduced once; raises NotInLattice when one is not
    in that lattice."""
    return _of(c).reduced.coordinates(target)


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


def _signs(u, rays, mask, sign):
    """Whether u vanishes on the rays with their bit set in mask and sign * u
    is positive on the others."""
    return all(v == 0 if mask >> i & 1 else v * sign > 0 for i, v in enumerate(_dot(u, r) for r in rays))


def meets_in_shared_face(a: Cone, b: Cone) -> bool:
    """Whether a functional from the records shows that a and b meet in the
    cone on the rays they share, a face of both; False decides nothing.

    By the separation lemma (Cox, Little and Schenck, Lemma 1.2.13), some u
    that is >= 0 on a, <= 0 on b and vanishes on exactly the shared rays
    puts a and b on either side of the hyperplane u = 0, which meets each
    in the face on the shared rays.  The candidates are s_a, -s_b and
    s_a - s_b, where s_x is the facet_sum of x over the shared rays.
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    ra, rb = _of(a), _of(b)
    ma = index_mask([i for i, r in enumerate(a.rays) if r in rb.index])
    mb = index_mask([i for i, r in enumerate(b.rays) if r in ra.index])
    sa, sb = ra.facet_sum(ma), rb.facet_sum(mb)
    return any(
        _signs(u, a.rays, ma, 1) and _signs(u, b.rays, mb, -1)
        for u in (sa, tuple(-x for x in sb), tuple(map(sub, sa, sb)))
    )
