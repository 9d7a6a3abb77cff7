"""Seeded random generators for the acceptance suite.

Everything takes an explicit random.Random so each criterion runs on a
reproducible corpus.
"""

from __future__ import annotations

from functools import cmp_to_key

from toricfans.cone import Cone, NotPointed, cone_from_rays, faces, gp
from toricfans.diagram import (
    DiagramMorphism,
    Subdiagram,
    TightDiagram,
    coproduct,
    face_diagram,
    is_join_closed,
)
from toricfans.intlin import IntMatrix, primitivize
from toricfans.intlin import rank as matrix_rank
from toricfans.stackyfan import ChartData, Fan


def random_pointed_cone(rng, max_rank=4, max_rays=8, full_dim=False, span=5, min_rank=1) -> Cone:
    """Rejection-sample a pointed cone with small integer ray entries."""
    while True:
        n = rng.randint(min_rank, max_rank)
        k = rng.randint(n if full_dim else 1, max_rays)
        rays = [tuple(rng.randint(-span, span) for _ in range(n)) for _ in range(k)]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        try:
            c = cone_from_rays(n, rays)
        except NotPointed:
            continue
        if full_dim and matrix_rank(IntMatrix.from_cols(c.rays, rows=n)) != n:
            continue
        return c


def paraboloid_cone(rng, d: int, n: int) -> Cone:
    """The cone over n distinct lifted points (1, x, |x|^2), x drawn from
    [-2, 2]^(d - 2); every generator is extreme.  The face-diagram ladder
    draws rung (d, n) with random.Random(1000 * d + n)."""
    points: set[tuple[int, ...]] = set()
    while len(points) < n:
        points.add(tuple(rng.randint(-2, 2) for _ in range(d - 2)))
    return cone_from_rays(d, [(1, *x, sum(v * v for v in x)) for x in sorted(points)])


def random_tight_diagram(rng) -> TightDiagram:
    """A face diagram of one random cone, or a coproduct of two."""
    if rng.random() < 0.4:
        a = face_diagram(random_pointed_cone(rng, max_rank=3, max_rays=5))
        b = face_diagram(random_pointed_cone(rng, max_rank=3, max_rays=5))
        return coproduct(a, b)
    return face_diagram(random_pointed_cone(rng))


def below_sets(d: TightDiagram) -> dict[str, set[str]]:
    """id -> ids reachable backwards along morphisms, including itself."""
    ins: dict[str, set[str]] = {i: set() for i in d.objects}
    for e in d.morphisms:
        ins[e.target_id].add(e.source_id)
    changed = True
    while changed:
        changed = False
        for s in ins.values():
            add = set().union(*(ins[j] for j in s)) - s if s else set()
            if add:
                s |= add
                changed = True
    return {i: s | {i} for i, s in ins.items()}


def random_join_closed_members(rng, d: TightDiagram) -> frozenset[str]:
    """A down-closed, join-closed member set grown from a random seed."""
    below = below_sets(d)
    ids = sorted(d.objects)
    members: set[str] = set()
    for i in rng.sample(ids, rng.randint(1, max(1, len(ids) // 2))):
        members |= below[i]
    while True:
        ok, witness = is_join_closed(Subdiagram(d, frozenset(members)))
        if ok:
            return frozenset(members)
        members.add(witness[2])
        members |= below[witness[2]]


def random_unimodular(rng, n: int, shears: int = 4) -> IntMatrix:
    """Product of random elementary row operations on the identity."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    return IntMatrix.from_rows([tuple(r) for r in rows], cols=n)


def _angle_cmp(a, b) -> int:
    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    if half(a) != half(b):
        return half(a) - half(b)
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def random_complete_fan_rank2(rng, extra_rays=3) -> Fan:
    """Counterclockwise-consecutive cones on the axes plus random rays."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for _ in range(rng.randint(0, extra_rays)):
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        if v != (0, 0):
            rays.add(primitivize(v))
    ordered = sorted(rays, key=cmp_to_key(_angle_cmp))
    index = {r: i for i, r in enumerate(sorted(ordered))}
    cones = []
    for k, r in enumerate(ordered):
        s = ordered[(k + 1) % len(ordered)]
        cones.append(tuple(sorted((index[r], index[s]))))
    return Fan(2, tuple(sorted(ordered)), tuple(sorted(cones)))


def orthant_fan(rng) -> Fan:
    """The eight-octant fan, sheared by a random unimodular map."""
    u = random_unimodular(rng, 3)
    axes = []
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        axes.append(u.apply(e))
        axes.append(u.apply(tuple(-x for x in e)))
    rays = tuple(sorted(primitivize(r) for r in axes))
    index = {r: i for i, r in enumerate(rays)}
    cones = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                triple = [
                    u.apply((sx, 0, 0)),
                    u.apply((0, sy, 0)),
                    u.apply((0, 0, sz)),
                ]
                cones.append(tuple(sorted(index[primitivize(r)] for r in triple)))
    return Fan(3, rays, tuple(sorted(cones)))


def random_complete_or_affine_fan(rng) -> Fan:
    roll = rng.random()
    if roll < 0.4:
        n = rng.randint(1, 3)
        c = random_pointed_cone(rng, max_rank=n, min_rank=n, max_rays=6, full_dim=True)
        return Fan(n, c.rays, (tuple(range(len(c.rays))),))
    if roll < 0.8:
        return random_complete_fan_rank2(rng)
    if roll < 0.9:
        return Fan(1, ((-1,), (1,)), ((0,), (1,)))
    return orthant_fan(rng)


def charts_of(fan: Fan) -> ChartData:
    """The chart diagram of a fan with distinct rays, and its betas.

    The objects are the fan's cones, every face of every maximal cone once,
    with id "c" followed by "_k" for each index k into fan.rays of its rays
    ("c" alone is the zero cone).  The edges are identity matrices along
    covers, and each chart's beta is its gp basis.
    """
    index = {r: k for k, r in enumerate(fan.rays)}
    masks = {}
    for k in range(len(fan.maximal_cones)):
        for f in faces(fan.cone(k)):
            masks[sum(1 << index[r] for r in f.rays)] = f
    order = sorted(masks, key=lambda m: (m.bit_count(), m))
    name = {m: "c" + "".join(f"_{k}" for k in range(len(fan.rays)) if m >> k & 1) for m in order}
    edges = []
    for i, fm in enumerate(order):
        covers = []  # by ray count, g covers f unless a cover of f met earlier lies inside g
        for gm in order[i + 1 :]:
            if fm & ~gm == 0 and all(h & ~gm for h in covers):
                covers.append(gm)
                edges.append(DiagramMorphism(name[fm], name[gm], IntMatrix.identity(fan.lattice_rank)))
    d = TightDiagram({name[m]: masks[m] for m in order}, edges)
    return ChartData(d, {name[m]: gp(c) for m, c in masks.items()}, fan.lattice_rank)
