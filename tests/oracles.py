"""Independent oracle computations used by the test suite.

Everything here is deliberately implemented from scratch, without calling the
library paths under test: the triple-loop matrix product, fraction-free
elimination for ranks and determinants, minor gcds for saturation, subset search for facets and
supporting functionals, closures of ray subsets for faces, Caratheodory
search for cone membership, a scan of every entry for the Smith pivot,
set inclusion with nothing between for face covers, a subdiagram's
members built into a diagram of their own and validated in full, gcd
steps for the rank and index of a lattice, and a diagram's full
per-morphism coequalizer for its colimit.  Six
keep a longer library route as the reference for a shorter one: a lift
off a saturated basis through an explicit complement summand, T1's
saturation test on the image of gp whatever the map's invariant factors,
coordinates in a reduced basis through a pivot list read off its
echelon form, with every row checked after the back-substitution, a cone
record by Smith reduction whether or not its generators span, fan
validation with every pair's exact intersection, and supporting
functionals by a dot-product scan of the dual generators.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from unittest import mock

from toricfans import stackyfan
from toricfans.cone import Cone, _facet_normals, dual_cone, is_face
from toricfans.diagram import DiagramMorphism, TightDiagram
from toricfans.intlin import (
    IntMatrix,
    NotInLattice,
    ReducedBasis,
    _row_echelon_transform,
    complement_summand,
    invariant_factors,
    kernel_basis,
    rank,
    reduce_basis,
)
from toricfans.monoid import gp, image_cone


def matrix_product(a, b, cols):
    """Product of the matrices with rows a and rows b, by the triple loop over
    entry tuples; cols is the column count of b, which its rows cannot tell
    when it has none."""
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc = 0
            for k in range(len(row)):
                acc += row[k] * b[k][j]
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def bareiss_det(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def fraction_free_rank(rows, cols=None):
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    height, width = len(m), len(m[0])
    r = 0
    prev = 1
    for j in range(width):
        pivot = None
        for i in range(r, height):
            if m[i][j]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, height):
            for jj in range(j + 1, width):
                m[i][jj] = (m[i][jj] * m[r][j] - m[i][j] * m[r][jj]) // prev
            m[i][j] = 0
        prev = m[r][j]
        r += 1
        if r == height:
            break
    return r


def maximal_minor_gcd(cols):
    """gcd of all maximal minors of the matrix with the given columns.

    For a full-column-rank integer matrix this is the index of the column
    lattice inside its saturation; the lattice is saturated iff it is 1.
    """
    k = len(cols)
    if k == 0:
        return 1
    n = len(cols[0])
    g = 0
    for rows_idx in combinations(range(n), k):
        minor = bareiss_det([[cols[c][i] for c in range(k)] for i in rows_idx])
        g = gcd(g, minor)
    return abs(g)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def search_supporting_functional(dual_generators, face_rays, other_rays):
    """Brute-force search for a sum of dual generators that vanishes on all
    face rays and is >= 1 on all the other rays.  Returns the functional or
    None.  Tries the full candidate set first, then every other subset.
    """
    candidates = [g for g in dual_generators if all(dot(g, r) == 0 for r in face_rays)]
    n = len(candidates[0]) if candidates else (len(face_rays[0]) if face_rays else len(other_rays[0]) if other_rays else 0)

    def good(subset):
        chi = [0] * n
        for g in subset:
            for i, x in enumerate(g):
                chi[i] += x
        if any(dot(chi, r) != 0 for r in face_rays):
            return None
        if any(dot(chi, r) < 1 for r in other_rays):
            return None
        return tuple(chi)

    found = good(candidates)
    if found is not None:
        return found
    for size in range(len(candidates), -1, -1):
        for subset in combinations(candidates, size):
            found = good(subset)
            if found is not None:
                return found
    return None


def _adjugate(rows):
    """Adjugate of a square integer matrix (inverse times determinant)."""
    n = len(rows)
    if n == 0:
        return []
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            out[j][i] = (-1) ** (i + j) * bareiss_det(sub)
    return out


def caratheodory_member(rays, v):
    """Exact membership of v in the cone generated by rays.

    Searches independent ray subsets of size <= dim and solves each square
    subsystem with integer adjugates; no elimination code shared with the
    library.  Returns True iff v is a nonnegative rational combination.
    """
    if all(x == 0 for x in v):
        return True
    if not rays:
        return False
    n = len(v)
    amb_rank = fraction_free_rank(rays)
    for size in range(1, min(n, len(rays), amb_rank) + 1):
        for subset in combinations(rays, size):
            cols = list(subset)
            if fraction_free_rank(cols) != size:
                continue
            # pick `size` independent rows of the n x size system
            row_idx = _independent_rows(cols, size)
            if row_idx is None:
                continue
            m = [[cols[c][i] for c in range(size)] for i in row_idx]
            det = bareiss_det(m)
            if det == 0:
                continue
            adj = _adjugate(m)
            lam = [sum(adj[r][c] * v[row_idx[c]] for c in range(size)) for r in range(size)]
            # consistency on every ambient row: sum_c cols[c][i]*lam[c] == det*v[i]
            if any(sum(cols[c][i] * lam[c] for c in range(size)) != det * v[i] for i in range(n)):
                continue
            if det > 0 and all(x >= 0 for x in lam):
                return True
            if det < 0 and all(x <= 0 for x in lam):
                return True
    return False


def _independent_rows(cols, size):
    n = len(cols[0])
    for row_idx in combinations(range(n), size):
        m = [[cols[c][i] for c in range(size)] for i in row_idx]
        if bareiss_det(m) != 0:
            return row_idx
    return None


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g else tuple(v)


def kernel_line(rows, dim):
    """Primitive generator of the kernel of dim - 1 integer rows in Q^dim, by
    cofactors (the generalized cross product), or None when the rows are
    dependent and the kernel is more than a line."""
    n = [(-1) ** j * bareiss_det([[r[c] for c in range(dim) if c != j] for r in rows]) for j in range(dim)]
    return _primitive(n) if any(n) else None


def subset_facets(coords, dim):
    """Facet normals of the cone generated by coords, which span Q^dim, by
    trying every hyperplane through dim - 1 of them: it supports a facet when
    the generators sit weakly on one side.  Primitive, sorted."""
    if dim == 0:
        return ()
    out = set()
    for subset in combinations(coords, dim - 1):
        n = kernel_line(subset, dim)
        if n is None:
            continue
        values = [dot(n, c) for c in coords]
        if all(v >= 0 for v in values):
            out.add(n)
        elif all(v <= 0 for v in values):
            out.add(tuple(-x for x in n))
    return tuple(sorted(out))


def extreme_generators(gens, facets, dim):
    """Generators of a pointed cone in Q^dim, with the given facet normals,
    that lie on dim - 1 independent facets."""
    return [g for g in gens if fraction_free_rank([f for f in facets if dot(f, g) == 0]) == dim - 1]


def face_ray_sets(gens, facets):
    """Faces of the pointed cone whose extreme rays are gens, as frozensets of
    rays: the closure of every subset of rays, i.e. the rays on every facet
    that holds the whole subset."""
    on = {g: frozenset(i for i, f in enumerate(facets) if dot(f, g) == 0) for g in gens}
    everything = frozenset(range(len(facets)))
    found = set()
    for size in range(len(gens) + 1):
        for subset in combinations(gens, size):
            through = everything.intersection(*(on[g] for g in subset))
            found.add(frozenset(g for g in gens if on[g] >= through))
    return found


def smallest_pivot(rows, t):
    """(row, column) of the smallest nonzero absolute value in rows[t:][t:],
    ties to the lowest row, then the lowest column; None when all are zero."""
    entries = [(abs(v), i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v and min(i, j) >= t]
    return min(entries)[1:] if entries else None


def cover_pairs(ray_sets):
    """Index pairs (i, j), i-major in list order, where ray set j covers ray
    set i: strict inclusion with no listed set strictly between."""
    sets = [frozenset(s) for s in ray_sets]
    return [
        (i, j)
        for i, f in enumerate(sets)
        for j, g in enumerate(sets)
        if f < g and not any(f < h < g for h in sets)
    ]


def induced_subdiagram(sub):
    """The members of a subdiagram of a tight parent as a diagram of their
    own, with an edge for every parent composite between distinct members.
    Its full validation is the reference for the members' tightness."""
    comp = sub.parent.analysis.composites
    members = sorted(sub.member_ids)
    edges = [DiagramMorphism(x, y, comp[x][y]) for x in members for y in members if x != y and y in comp[x]]
    return TightDiagram({i: sub.parent.objects[i] for i in members}, edges)


def lift_by_complement(basis, values):
    """The functional taking values on the columns of a saturated basis and
    vanishing on complement_summand(basis): solve phi @ [basis | complement]
    == values followed by zeros, the square being unimodular."""
    square = basis.hstack(complement_summand(basis))
    rhs = IntMatrix.from_cols([tuple(values) + (0,) * (basis.rows - basis.cols)], rows=basis.rows)
    return reduce_basis(square.transpose()).coordinates(rhs).col(0)


def coordinates_by_full_check(reduced, target):
    """X with basis @ X == target from a ReducedBasis the long way: the
    pivots are read off its echelon form (each nonzero row's first nonzero
    entry), back-substitution runs through them, and then every row of
    echelon @ X == u @ target is checked, pivot rows included.  Raises
    NotInLattice with the library's messages, in the library's order."""
    ech = reduced.echelon.entries
    pivots = [(i, next(j for j, v in enumerate(row) if v)) for i, row in enumerate(ech) if any(row)]
    k = len(pivots)
    rhs = matrix_product(reduced.u.entries, target.entries, target.cols)
    cols = []
    for c in range(target.cols):
        col = [row[c] for row in rhs]
        x = [0] * k
        for idx in range(k - 1, -1, -1):
            i, j = pivots[idx]
            acc = col[i] - sum(ech[i][pivots[later][1]] * x[later] for later in range(idx + 1, k))
            if acc % ech[i][j]:
                raise NotInLattice("target is not in the column lattice")
            x[idx] = acc // ech[i][j]
        for i, row in enumerate(ech):
            if sum(row[pivots[idx][1]] * x[idx] for idx in range(k)) != col[i]:
                raise NotInLattice("target is not in the column span")
        cols.append(x)
    return IntMatrix.from_cols(cols, rows=k)


def face_morphism_violations(f):
    """T1 for a FaceMorphism in two steps: the map's rank for injectivity,
    then the invariant factors of the image of gp for saturation."""
    if rank(f.map) != f.map.cols:
        return ("not injective",)
    violations = []
    img = image_cone(f)
    if not is_face(f.target, img):
        violations.append("image not a face")
    s = f.map @ gp(f.source)
    if invariant_factors(s) != tuple([1] * s.cols):
        violations.append("not saturated")
    if not violations and img == f.target:
        violations.append("face not proper")
    return tuple(violations)


def smith_route_record(ambient_rank, vecs):
    """The fields of the cone record of clean generators vecs, in the order
    of cone._Analysis after ambient_rank, by the route that does not ask
    whether vecs span: the annihilator and the saturated span by Smith
    reduction, the span row reduced afresh (never the shared identity
    reduction), coordinates by the full check, and the facets in them."""
    gens = IntMatrix(len(vecs), ambient_rank, vecs)
    ann = kernel_basis(gens)
    basis = kernel_basis(ann.transpose())
    u, echelon, _ = _row_echelon_transform(basis, False)
    reduced = ReducedBasis(u, echelon)
    coords = tuple(coordinates_by_full_check(reduced, gens.transpose()).columns())
    facets, incidence = _facet_normals(coords, basis.cols)
    return vecs, tuple(sorted(ann.columns())), basis, reduced, coords, facets, incidence


def validate_fan_by_intersections(fan):
    """validate_fan with the separating-functional shortcut turned off, so
    every pair of maximal cones gets its exact intersection."""
    with mock.patch.object(stackyfan, "meets_in_shared_face", lambda a, b: False):
        return stackyfan.validate_fan(fan)


def supporting_functional_by_scan(c, f):
    """The coefficients of the primitive sum of the dual generators of c that
    pair to zero with every ray of the face f, found by pairing each one."""
    d = dual_cone(c)
    gens = d.rays if isinstance(d, Cone) else d.generators
    on_f = [g for g in gens if all(dot(g, r) == 0 for r in f.rays)]
    return _primitive(tuple(sum(g[i] for g in on_f) for i in range(c.ambient_rank)))


def lattice_pivots(vectors, dim):
    """The diagonal of a triangular basis of the lattice that integer vectors
    of length dim generate, found coordinate by coordinate with gcd steps
    among the vectors that vanish before it: its length is the lattice's
    rank, and at rank dim its product is the index in Z^dim up to sign."""
    rest = [list(v) for v in vectors]
    pivots = []
    for i in range(dim):
        live = [v for v in rest if v[i]]
        rest = [v for v in rest if not v[i]]
        while len(live) > 1:
            p = min(live, key=lambda v: abs(v[i]))
            kept = [p]
            for v in live:
                if v is not p:
                    q = v[i] // p[i]
                    w = [a - q * b for a, b in zip(v, p)]
                    (kept if w[i] else rest).append(w)
            live = kept
        if live:
            pivots.append(live[0][i])
    return pivots


def coequalizer_relations(d):
    """The full per-morphism coequalizer of a diagram's group completions,
    presented on ⊕ gp(x) over every object in id order: each object's offset
    into it, its rank, and one relation ι_y(g v) − ι_x(v) for every edge
    x -> y and every basis vector v of gp(x), with g the edge on gp bases
    (coordinates by the full check)."""
    offsets, total = {}, 0
    for i in sorted(d.objects):
        offsets[i] = total
        total += gp(d.objects[i]).cols
    relations = []
    for e in d.morphisms:
        gx, gy = gp(d.objects[e.source_id]), gp(d.objects[e.target_id])
        step = coordinates_by_full_check(reduce_basis(gy), e.matrix @ gx)
        for j in range(gx.cols):
            rel = [0] * total
            for k, v in enumerate(step.col(j)):
                rel[offsets[e.target_id] + k] = v
            rel[offsets[e.source_id] + j] = -1
            relations.append(tuple(rel))
    return offsets, total, relations


def colimit_against_coequalizer(d, c):
    """(cocone, unimodular) for a colimit result c of d: whether c's
    embeddings, stacked in id order as E, kill every coequalizer relation,
    so they commute along every edge and not only at the maximal objects;
    and whether the map E induces from the coequalizer's free part, ⊕ gp(x)
    modulo the saturated relations, to Z^L is an isomorphism: the relations
    have rank total − L and the columns of E generate Z^L."""
    _, total, relations = coequalizer_relations(d)
    cols = [col for i in sorted(d.objects) for col in c.embeddings[i].columns()]
    L = c.cone.ambient_rank
    cocone = all(
        all(sum(col[r] * x for col, x in zip(cols, rel)) == 0 for r in range(L)) for rel in relations
    )
    onto = lattice_pivots(cols, L)
    unimodular = len(lattice_pivots(relations, total)) == total - L and len(onto) == L and all(
        abs(p) == 1 for p in onto
    )
    return cocone, unimodular
