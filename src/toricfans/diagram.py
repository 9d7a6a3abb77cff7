"""Tight diagrams of toric monoids: validation, colimits, functional extension.

A diagram is a finite id-indexed collection of cones, each standing for its
monoid of lattice points, plus face morphisms between them (identities
implicit).  Tightness is the conjunction of four conditions: every listed
morphism is a proper face inclusion (T1), every face of every object is
realized inside the diagram (T2), parallel composites agree (T3), and every
pair of objects has a unique maximal common face (T4).  Ids are strings so
reports and tie-breaking stay deterministic.

The colimit is presented on the poset-maximal objects only: their group
completions generate, and one relation block per maximal pair glues along
the pair's unique maximal common face.  This is the same colimit as the
full per-morphism coequalizer (any compatible cocone factors through it the
same way) and keeps the Smith reductions small.

Every operation reads one DiagramAnalysis, built in a single pass on first
use and cached on the diagram as ``d.analysis``: the topological order and
each object's below-set as a bitmask over it, the path composites, the
maximal ids, the composite images as ray bitmasks and their realizers, the
violations, and, on first use, the colimit and the objects' image cones in
it.  A subdiagram's tightness and join closure are read off its parent's
analysis too.  The cache is never refreshed, so a diagram must not be
mutated after it is built.  Order questions are bit operations: a set of
ids has a unique maximal element exactly when its last id in that order
has all of it below (T4, the colimit's meets, the extension's maximum
processed face).  So are face questions, on the cone records' face masks:
each composite carries a ray map, source ray -> target ray, composed from
its edges' FaceMorphism.ray_map, and its image is the mask of the rays it
hits; a join inside a parent is an AND of facets (cone.join_mask).
Gluing and extension descend to the colimit through one solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from types import MappingProxyType
from typing import Mapping, Sequence

from .cone import (
    Cone,
    Functional,
    NotPointed,
    cone_from_rays,
    face_masks,
    faces,
    gp,
    index_mask,
    is_face,
    join_mask,
    ray_coordinates,
    ray_indices,
    span_coordinates,
    subcone,
    supporting_functional,
)
from .errors import DomainError, InternalError
from .intlin import (
    IntMatrix,
    NotInLattice,
    int_vector,
    kernel_basis,
    rank,
    reduce_basis,
)
from .monoid import (
    FaceMorphism,
    NegativeOnFace,
    extend_functional,
    verify_face_morphism,
)


class NotTight(DomainError):
    """Raised when an operation requires a tight diagram and validation fails."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = tuple(violations)


class NotTightSubdiagram(DomainError):
    """Raised when subdiagram members do not themselves form a tight diagram."""


class NotJoinClosed(DomainError):
    """Raised when a subdiagram misses the join of two of its members."""

    def __init__(self, witness):
        a, b, join_id = witness
        super().__init__(f"members {a!r}, {b!r} have join {join_id!r} outside the subdiagram")
        self.witness = witness


class IncompatibleFamily(DomainError):
    """Raised when given functionals cannot come from one functional on the colimit."""


class NegativeOnSub(DomainError):
    """Raised in positive mode when a given functional is negative on a member ray."""


@dataclass(frozen=True)
class DiagramMorphism:
    """An edge of the diagram, endpoints referenced by object id."""

    source_id: str
    target_id: str
    matrix: IntMatrix


class TightDiagram:
    """Candidate diagram; construction checks shapes only, not tightness."""

    def __init__(self, objects: Mapping[str, Cone], morphisms: Sequence[DiagramMorphism]):
        self.objects = dict(objects)
        for key in self.objects:
            if not isinstance(key, str):
                raise TypeError("object ids must be strings")
        self.morphisms = tuple(morphisms)
        for e in self.morphisms:
            if e.source_id not in self.objects or e.target_id not in self.objects:
                raise ValueError(f"morphism {e.source_id!r}->{e.target_id!r} references unknown object")
            src, tgt = self.objects[e.source_id], self.objects[e.target_id]
            if e.matrix.rows != tgt.ambient_rank or e.matrix.cols != src.ambient_rank:
                raise ValueError(f"morphism {e.source_id!r}->{e.target_id!r} has wrong matrix shape")

    def __eq__(self, other):
        if not isinstance(other, TightDiagram):
            return NotImplemented
        return self.objects == other.objects and set(self.morphisms) == set(other.morphisms)

    @cached_property
    def edges(self) -> tuple[DiagramMorphism, ...]:
        """The distinct morphisms by (source, target, entries): the order of
        T1 reports and of encoded documents."""
        return tuple(sorted(set(self.morphisms), key=lambda e: (e.source_id, e.target_id, e.matrix.entries)))

    @cached_property
    def analysis(self) -> DiagramAnalysis:
        return _analyse(self)


@dataclass(frozen=True)
class Subdiagram:
    parent: TightDiagram
    member_ids: frozenset

    def __post_init__(self):
        unknown = set(self.member_ids) - set(self.parent.objects)
        if unknown:
            raise ValueError(f"unknown member ids: {sorted(unknown)}")


@dataclass(frozen=True)
class ColimitResult:
    cone: Cone  # its ambient_rank is the rank of the colimit lattice
    embeddings: Mapping[str, IntMatrix]  # id -> (cone.ambient_rank x gp-rank of object)


@dataclass(frozen=True)
class DiagramAnalysis:
    """What one diagram's operations need to know about it; derived once, never modified.

    ``below`` is the one encoding of the order.  On a directed morphism
    cycle only ``objects`` and ``violations`` are filled in; everything else
    is empty.  ``images`` holds None where a composite's image cone is not
    made of rays of its target, which only happens when T1 fails.
    ``colimit`` and ``object_images`` are computed on first use, handed
    read-only to every caller, and raise NotTight unless the diagram is
    tight; so does ``descend``, the one way down to the colimit lattice.
    """

    objects: Mapping[str, Cone]
    order: tuple[str, ...]  # topological, sources first; bit k of a mask is order[k]
    below: Mapping[str, int]  # y -> mask of every x with a path x -> y, y included
    composites: Mapping[str, Mapping[str, IntMatrix]]  # x -> y -> matrix of the path x -> y
    maximal_ids: tuple[str, ...]  # sorted ids with nothing above them
    images: Mapping[tuple[str, str], int | None]  # (x, y) -> x's image in y, a mask over y's rays
    realizers: Mapping[str, Mapping[int | None, list[str]]]  # y -> image mask in y -> sorted x with it
    violations: tuple[str, ...]

    def require_tight(self) -> None:
        if self.violations:
            raise NotTight(self.violations)

    def meet(self, a: str, b: str) -> str | None:
        """The unique maximal common face of a and b, or None where T4 fails."""
        return _top(self.below[a] & self.below[b], self.order, self.below)

    def gp_matrix(self, src: str, tgt: str) -> IntMatrix:
        """The composite src -> tgt on gp bases: gp(src) columns expressed in
        gp(tgt) coordinates."""
        return span_coordinates(self.objects[tgt], self.composites[src][tgt] @ gp(self.objects[src]))

    @cached_property
    def colimit(self) -> ColimitResult:
        self.require_tight()
        widths = {m: gp(self.objects[m]).cols for m in self.maximal_ids}
        offsets = {}
        total = 0
        for m in self.maximal_ids:
            offsets[m] = total
            total += widths[m]

        relation_cols = []
        for i, m1 in enumerate(self.maximal_ids):
            for m2 in self.maximal_ids[i + 1 :]:
                z = self.meet(m1, m2)
                x1 = self.gp_matrix(z, m1)
                x2 = self.gp_matrix(z, m2)
                for j in range(x1.cols):
                    col = [0] * total
                    col[offsets[m1] : offsets[m1] + widths[m1]] = x1.col(j)
                    col[offsets[m2] : offsets[m2] + widths[m2]] = [-v for v in x2.col(j)]
                    relation_cols.append(tuple(col))

        phi = kernel_basis(IntMatrix(len(relation_cols), total, tuple(relation_cols))).transpose()
        L = phi.rows

        embeddings = {
            m: IntMatrix(L, widths[m], tuple(row[offsets[m] : offsets[m] + widths[m]] for row in phi.entries))
            for m in self.maximal_ids
        }
        for i in sorted(self.objects):
            if i in embeddings:
                continue
            carrier = min(m for m in self.maximal_ids if m in self.composites[i])
            embeddings[i] = embeddings[carrier] @ self.gp_matrix(i, carrier)

        rays = [r for m in self.maximal_ids for r in _embedded_rays(self.objects[m], embeddings[m])]
        return ColimitResult(cone_from_rays(L, rays), MappingProxyType(embeddings))

    def descend(self, restrictions: Mapping[str, IntMatrix], rows: int) -> IntMatrix:
        """The matrix of rows functionals on the colimit lattice (of rank the
        colimit cone's ambient_rank) that restrict to the rows of
        restrictions[m] (rows x gp rank of m) on each maximal object m's gp
        basis.  The maximal objects' embeddings have independent stacked
        rows, so the answer is unique; NotInLattice when it is not integral."""
        c = self.colimit
        ms = self.maximal_ids
        basis = IntMatrix.from_rows(
            [col for m in ms for col in c.embeddings[m].columns()], cols=c.cone.ambient_rank
        )
        target = IntMatrix.from_rows([col for m in ms for col in restrictions[m].columns()], cols=rows)
        return reduce_basis(basis).coordinates(target).transpose()

    @cached_property
    def object_images(self) -> Mapping[str, Cone]:
        """Each object's cone inside the colimit lattice."""
        c = self.colimit
        return MappingProxyType({
            i: subcone(c.cone, _embedded_rays(obj, c.embeddings[i])) for i, obj in self.objects.items()
        })


def _analyse(d: TightDiagram) -> DiagramAnalysis:
    """The one pass behind ``TightDiagram.analysis``.

    Composites come from edge-local dynamic programming over reverse
    topological order; agreeing on every one-edge extension is the same as
    agreeing on all paths.  Beside each stored composite goes its ray map,
    source ray index -> target ray index, composed from the edges' maps, or
    None once some edge sends a ray elsewhere; a composite image is the mask
    of its ray map, and only where there is none are the rays' images mapped.
    A face of an object counts as present (T2) when some object's composite
    image is its mask; the object itself stands for its improper face.
    T4 asks each pair's common below-set for a top element.
    """
    objects = d.objects
    violations = []
    succ = {i: [] for i in objects}
    preds = {i: [] for i in sorted(objects)}  # lists, not sets: the order ignores hash seeds
    for e in d.edges:
        f = FaceMorphism(objects[e.source_id], objects[e.target_id], e.matrix)
        for problem in verify_face_morphism(f):
            violations.append(f"T1: morphism {e.source_id!r}->{e.target_id!r}: {problem}")
        succ[e.source_id].append((e.target_id, f))
        preds[e.target_id].append(e.source_id)
    try:
        order = list(TopologicalSorter(preds).static_order())
    except CycleError:
        violations.append("T3: the diagram contains a directed morphism cycle")
        return DiagramAnalysis(objects, (), {}, {}, (), {}, {}, tuple(violations))

    comp = {i: {} for i in objects}
    maps = {i: {} for i in objects}  # x -> y -> ray map of comp[x][y], or None
    conflicts = set()
    for x in reversed(order):
        comp[x][x] = IntMatrix.identity(objects[x].ambient_rank)
        maps[x][x] = tuple(range(len(objects[x].rays)))
        for y, f in succ[x]:
            step = f.ray_map
            for tgt, tail in sorted(comp[y].items()):
                candidate = tail @ f.map
                known = comp[x].get(tgt)
                if known is None:
                    comp[x][tgt] = candidate
                    tail_map = maps[y][tgt]
                    maps[x][tgt] = None if step is None or tail_map is None else tuple(tail_map[k] for k in step)
                elif known != candidate:
                    conflicts.add(f"T3: parallel composites {x!r}->{tgt!r} disagree")
    violations.extend(sorted(conflicts))

    position = {i: k for k, i in enumerate(order)}
    below = dict.fromkeys(objects, 0)
    images = {}
    realizers = {i: {} for i in objects}
    for x in sorted(objects):
        for p, matrix in comp[x].items():
            below[p] |= 1 << position[x]
            image = index_mask(maps[x][p])
            if image is None:
                try:
                    spanned = subcone(objects[p], [matrix.apply(r) for r in objects[x].rays])
                    image = index_mask(ray_indices(objects[p], spanned.rays))
                except NotPointed:
                    pass  # the images span a line: no image cone at all
            images[x, p] = image
            realizers[p].setdefault(image, []).append(x)

    ids = sorted(objects)
    for i in ids:
        if face_masks(objects[i]) <= realizers[i].keys():
            continue
        for f in faces(objects[i]):
            if index_mask(ray_indices(objects[i], f.rays)) not in realizers[i]:
                violations.append(f"T2: object {i!r} is missing its face with rays {f.rays}")

    for a_pos, a in enumerate(ids):
        below_a = below[a]
        for b in ids[a_pos + 1 :]:
            common = below_a & below[b]
            if _top(common, order, below) is None:
                count = _maximal_bits(common, order, below).bit_count()
                violations.append(f"T4: objects {a!r}, {b!r} have {count} maximal common faces")

    maximal_ids = tuple(i for i in ids if len(comp[i]) == 1)
    return DiagramAnalysis(
        objects, tuple(order), below, comp, maximal_ids, images, realizers, tuple(violations)
    )


def _top(mask: int, order, below) -> str | None:
    """The unique maximal id of a mask, or None.  Any nonempty set of ids has
    one exactly when its last id in topological order has all of it below."""
    top = order[mask.bit_length() - 1] if mask else None
    return top if mask and mask & ~below[top] == 0 else None


def _maximal_bits(mask: int, order, below) -> int:
    """The bits of mask minus everything strictly below them."""
    covered = 0
    for i in _ids(mask, order):
        covered |= below[i] & ~(1 << below[i].bit_length() - 1)  # an id's own bit is its highest
    return mask & ~covered


def _ids(mask: int, order) -> list[str]:
    """The ids with their bits set in mask, in topological order."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(order[low.bit_length() - 1])
        mask ^= low
    return ids


def validate_tight(d: TightDiagram) -> tuple[str, ...]:
    """All violations of the four tightness conditions (empty tuple = tight):
    T1 by sorted edge, then on a morphism cycle only that, else T3, T2, T4."""
    return d.analysis.violations


def colimit(d: TightDiagram) -> ColimitResult:
    """Colimit of a tight diagram in free abelian groups, with its cone.

    Generators: the gp bases of the poset-maximal objects.  Relations: for
    each maximal pair, the two images of their unique maximal common face
    are identified.  The quotient by the saturated relation lattice is free;
    its matrix doubles as the maximal objects' embeddings, and every other
    object embeds through any maximal object above it (the relations make
    the choice immaterial).
    """
    return d.analysis.colimit


def verify_face_embeddings(d: TightDiagram, c: ColimitResult) -> tuple[str, ...]:
    """Check each object lands in the colimit as a face: embedding injective
    on gp, image cone a face of the colimit cone, supporting functional
    available.  Any violation on a validated tight diagram is a bug."""
    violations = []
    for i in sorted(d.objects):
        emb = c.embeddings[i]
        if rank(emb) != emb.cols:
            violations.append(f"embedding of {i!r} is not injective")
            continue
        img = subcone(c.cone, _embedded_rays(d.objects[i], emb))
        if not is_face(c.cone, img):
            violations.append(f"image of {i!r} is not a face of the colimit cone")
            continue
        supporting_functional(c.cone, img)
    return tuple(violations)


def _embedded_rays(obj: Cone, emb: IntMatrix) -> list[tuple[int, ...]]:
    """The object's extreme rays carried into the colimit by its embedding."""
    return [emb.apply(x) for x in ray_coordinates(obj)]


def is_join_closed(sub: Subdiagram):
    """Whether the member set is closed under joins taken inside any parent
    object above a member pair.

    Returns (True, None) or (False, (a, b, join_object_id)).  Raises NotTight
    when the parent is not tight and NotTightSubdiagram when members do not
    form a tight diagram on their own.  The parent's composites between
    members pass T1 and T3 as the parent does, so that is T2 (a member among
    the realizers of each face of a member) and T4 (a top element of each
    member pair's common below-set, cut down to the members).  A pair with
    one member below the other is not checked: in a tight parent the lower
    one's image lies in the upper one's, so the join is the upper one's
    image, which it realizes.
    """
    d = sub.parent
    analysis = d.analysis
    analysis.require_tight()
    comp, images, realizers = analysis.composites, analysis.images, analysis.realizers
    order, below = analysis.order, analysis.below
    members = sorted(sub.member_ids)
    bit = {i: 1 << k for k, i in enumerate(order) if i in sub.member_ids}
    inside = sum(bit.values())
    realized = all(any(x in sub.member_ids for x in xs) for p in members for xs in realizers[p].values())
    if not realized or any(
        _top(below[a] & below[b] & inside, order, below) is None
        for i, a in enumerate(members)
        for b in members[i + 1 :]
    ):
        raise NotTightSubdiagram("members do not form a tight diagram")
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if below[b] & bit[a] or below[a] & bit[b]:
                continue  # the join is the upper one's image, which it realizes
            for p in sorted(comp[a].keys() & comp[b].keys()):
                holders = realizers[p][join_mask(d.objects[p], images[a, p] | images[b, p])]
                if not any(x in sub.member_ids for x in holders):
                    return False, (a, b, holders[0])
    return True, None


def extend_diagram_functional(
    sub: Subdiagram,
    chi: Mapping[str, Sequence[int]],
    mode: str = "nonneg_positive_away",
) -> Functional:
    """Extend a compatible family of functionals off a join-closed subdiagram
    to a single functional on the colimit lattice of its parent.

    Follows the inductive proof: repeatedly take the maximal outside object b
    (lexicographically smallest id on ties); when nothing processed sits
    above b, extend from the maximum processed face D_m of b (existence and
    uniqueness checked); otherwise b's value is forced by restriction.  The
    down-set of b then fills in by restriction.  In positive mode the result
    is >= 0 on every ray of every object and >= 1 on every ray whose colimit
    image lies outside the members' images.

    chi maps member id to int coefficients in that member's ambient dual;
    floats and bools raise TypeError.  The family is kept as one-row
    matrices, so restriction along a composite is a product.
    Raises NotJoinClosed, IncompatibleFamily, NegativeOnSub.
    """
    if mode not in ("arbitrary", "nonneg_positive_away"):
        raise ValueError(f"unknown mode {mode!r}")
    d = sub.parent
    analysis = d.analysis
    closed, witness = is_join_closed(sub)
    if not closed:
        raise NotJoinClosed(witness)

    members = sorted(sub.member_ids)
    if set(chi) != set(members):
        raise IncompatibleFamily("family keys do not match the member ids")
    values = {}
    for i in members:
        coeffs = int_vector(chi[i])
        if len(coeffs) != d.objects[i].ambient_rank:
            raise IncompatibleFamily(f"coefficients for {i!r} have the wrong length")
        values[i] = IntMatrix(1, len(coeffs), (coeffs,))

    comp, order, below = analysis.composites, analysis.order, analysis.below
    for x in members:
        on_gp = values[x] @ gp(d.objects[x])
        for y in members:
            if x != y and y in comp[x] and values[y] @ comp[x][y] @ gp(d.objects[x]) != on_gp:
                raise IncompatibleFamily(f"functionals on {x!r} and {y!r} disagree along {x!r}->{y!r}")

    if mode == "nonneg_positive_away":
        for i in members:
            for r in d.objects[i].rays:
                if values[i].apply(r)[0] < 0:
                    raise NegativeOnSub(f"negative on ray {r} of member {i!r}")

    bit = {i: 1 << k for k, i in enumerate(order)}
    everything = (1 << len(order)) - 1
    current = sum(bit[i] for i in members)
    while current != everything:
        b = min(_ids(_maximal_bits(everything & ~current, order, below), order))
        uppers = sorted(j for j in comp[b] if j != b and current & bit[j])
        if uppers:
            values[b] = values[uppers[0]] @ comp[b][uppers[0]]
        else:
            processed_faces = below[b] & current
            if processed_faces:
                dm = _top(processed_faces, order, below)
                if dm is None:
                    raise InternalError(f"no unique maximum processed face of {b!r}")
                morphism = FaceMorphism(d.objects[dm], d.objects[b], comp[dm][b])
                psi = Functional(values[dm].row(0))
            else:
                origin = cone_from_rays(0, [])
                morphism = FaceMorphism(origin, d.objects[b], IntMatrix.zeros(d.objects[b].ambient_rank, 0))
                psi = Functional(())
            try:
                extended = extend_functional(morphism, psi, mode).coefficients
            except NegativeOnFace as exc:  # family was checked, so only forced values trip this
                raise IncompatibleFamily(str(exc)) from exc
            values[b] = IntMatrix(1, len(extended), (extended,))
        current |= bit[b]
        for x in _ids(below[b] & ~current, order):
            values[x] = values[b] @ comp[x][b]
        current |= below[b]

    restrictions = {m: values[m] @ gp(d.objects[m]) for m in analysis.maximal_ids}
    try:
        row = analysis.descend(restrictions, 1)
    except NotInLattice as exc:
        raise IncompatibleFamily("family does not descend to the colimit") from exc

    colim = analysis.colimit
    for i in members:
        if row @ colim.embeddings[i] != values[i] @ gp(d.objects[i]):
            raise IncompatibleFamily("family does not descend to the colimit")

    phi = Functional(row.row(0))
    if mode == "nonneg_positive_away":
        images = analysis.object_images
        member_rays = {r for i in members for r in images[i].rays}
        for i in sorted(d.objects):
            for r in images[i].rays:
                val = phi(r)
                if val < 0:
                    raise InternalError(f"negative value on a ray of {i!r}")
                if val < 1 and r not in member_rays:
                    raise InternalError(f"non-positive value away from the subdiagram at {r}")
    return phi


def face_diagram(c: Cone) -> TightDiagram:
    """The diagram of all faces of a cone, every object in the ambient
    lattice, edges along face covers with identity matrices.

    Ids: "f" + joined ray indices into the sorted ray list of c ("f" alone
    is the zero face).  This diagram is tight; its colimit recovers c in
    gp(c) coordinates.
    """
    n = c.ambient_rank
    ray_index = {r: k for k, r in enumerate(c.rays)}
    all_faces = faces(c)
    names = ["f" + "".join(f"_{ray_index[r]}" for r in f.rays) for f in all_faces]
    objects = dict(zip(names, all_faces))
    # faces of one cone are ordered by their ray bitmasks and come sorted by
    # ray count, so g covers f unless a cover of f met earlier lies inside g
    masks = [sum(1 << ray_index[r] for r in f.rays) for f in all_faces]
    edges = []
    for k, fm in enumerate(masks):
        covers = []
        for j in range(k + 1, len(masks)):
            gm = masks[j]
            if fm & ~gm == 0 and all(h & ~gm for h in covers):
                covers.append(gm)
                edges.append(DiagramMorphism(names[k], names[j], IntMatrix.identity(n)))
    return TightDiagram(objects, edges)


def coproduct(a: TightDiagram, b: TightDiagram) -> TightDiagram:
    """Disjoint union glued along a fresh rank-0 origin object.

    Component ids are prefixed "a:"/"b:"; each component's own zero objects
    are dropped in favor of the shared origin "0", which maps into every
    remaining object through empty matrices.
    """
    objects = {"0": cone_from_rays(0, [])}
    edges = []
    for prefix, d in (("a:", a), ("b:", b)):
        zero_ids = {i for i, o in d.objects.items() if o.is_zero()}
        for i, obj in d.objects.items():
            if i in zero_ids:
                continue
            objects[prefix + i] = obj
        for e in d.morphisms:
            if e.source_id in zero_ids or e.target_id in zero_ids:
                continue
            edges.append(DiagramMorphism(prefix + e.source_id, prefix + e.target_id, e.matrix))
        for i, obj in d.objects.items():
            if i not in zero_ids:
                edges.append(DiagramMorphism("0", prefix + i, IntMatrix.zeros(obj.ambient_rank, 0)))
    return TightDiagram(objects, edges)
