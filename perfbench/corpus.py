"""Seeded corpus generator for the toricfans benchmark.

    python3 perfbench/corpus.py --workload NAME --seed N --out FILE

Runs in its own process before the timed one.  The timed process receives
only what this script writes: serialized documents with the command line
and exit code each one expects, so every cache in the program starts cold
there.  The same seed gives the same bytes.  Nothing here imports from
tests/, so editing a test cannot change the inputs.

Output format: a header line {"workload", "seed", "warmup": [document
text, ...]}, then per operation a line {"args": [...], "expect": exit code,
"kind": output kind or null, "chars": n} followed by the n characters of
the input document.  Input documents are compact JSON.  Operations come in
whole rounds, each round holding the workload's whole mix.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import combinations
from math import atan2, gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from toricfans import documents  # noqa: E402
from toricfans.cone import cone_from_rays, dual_cone  # noqa: E402
from toricfans.diagram import coproduct, face_diagram  # noqa: E402
from toricfans.intlin import IntMatrix  # noqa: E402
from toricfans.monoid import gp  # noqa: E402

# Operations per corpus, whole rounds, fixed so that every version of the
# program is timed on the same documents.  A trial of five passes over one
# takes 25 to 50 s at the first benchmarked commit on 2 vCPUs (about 160 to
# 220 ms per diagram-pipeline operation, 125 ms per cone-ladder one and 12
# to 20 ms per small-docs one).
SIZES = {"diagram-pipeline": 50, "cone-ladder": 60, "small-docs": 13 + 15 * 22}

WORKLOADS = tuple(SIZES)


def doc_text(kind: str, payload) -> str:
    body = {"kind": kind, "payload": payload, "version": "1"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


class Ops(list):
    """Operations, each (command line, document) pair at most once."""

    def __init__(self):
        super().__init__()
        self.seen: set[str] = set()

    def add(self, expect: int, kind, build) -> None:
        """Append the first distinct operation build() yields; build returns
        the command line and the document text."""
        for _ in range(1000):
            args, text = build()
            key = " ".join(args) + "\n" + text
            if key not in self.seen:
                self.seen.add(key)
                self.append({"args": list(args), "expect": expect, "kind": kind, "text": text})
                return
        raise RuntimeError(f"no new distinct document for {' '.join(args)}")


# -- small exact helpers, independent of the program ------------------------


def unimodular(rng, n: int, shears: int) -> list[list[int]]:
    """Product of elementary row operations on the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    return rows


def apply(m, v) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def nonsingular(rng, n: int, span: int = 3) -> list[list[int]]:
    while True:
        b = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        if det(b) != 0:
            return b


def det(m) -> int:
    """Bareiss fraction-free determinant."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def paraboloid_points(rng, dim: int, count: int, box: int) -> list[tuple[int, ...]]:
    """Distinct integer points x in [-box, box]^dim lifted to (x, |x|^2).

    Lifted points of a strictly convex function are all vertices of their
    convex hull, so the cone over (1, x, |x|^2) has every generator extreme.
    """
    pts: set[tuple[int, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(rng.randint(-box, box) for _ in range(dim)))
    return [x + (sum(v * v for v in x),) for x in sorted(pts)]


def full_rank(vectors, n: int) -> bool:
    return any(det(list(sub)) != 0 for sub in combinations(vectors, n))


def extreme_cone_rays(rng, n: int, k: int, shears: int):
    """k rays of a full-dimensional pointed cone in Z^n, every one extreme,
    moved off the paraboloid by a random unimodular map."""
    if n == 1:
        return [(1,)]
    if n == 2:
        rays = [(1, x) for x in rng.sample(range(-3, 4), k)]
    else:
        box = 1 if 3 ** (n - 2) >= 2 * k else 2
        while True:
            rays = [(1,) + p for p in paraboloid_points(rng, n - 2, k, box)]
            if full_rank(rays, n):
                break
    u = unimodular(rng, n, shears)
    return sorted(apply(u, r) for r in rays)


def face_ray_sets(ids) -> dict[str, frozenset]:
    """Face-diagram id "f_0_2" (maybe prefixed "a:") -> its ray indices."""
    out = {}
    for i in ids:
        tail = i.rsplit(":", 1)[-1]
        out[i] = frozenset(int(x) for x in tail.split("_")[1:])
    return out


# -- document builders on top of the program's public constructors ---------


class Pool:
    """Cones, their face diagrams and dual rays, built once per corpus."""

    def __init__(self, cones):
        self.cones = cones
        self.diagrams = [face_diagram(c) for c in cones]
        self.duals = [dual_cone(c).rays for c in cones]


def diagram_payload(d) -> dict:
    return documents.encode_diagram(d)


def charts_payload(d, beta_of, target_rank: int) -> dict:
    return {
        "diagram": diagram_payload(d),
        "betas": {i: documents.encode_matrix(beta_of(i, o)) for i, o in sorted(d.objects.items())},
        "target_rank": target_rank,
    }


def face_charts(rng, pool: Pool, k: int) -> dict:
    """Criterion-5 style charts: the face diagram of one cone with betas
    B @ gp(object) for one nonsingular B."""
    c = pool.cones[k]
    b = IntMatrix.from_rows(nonsingular(rng, c.ambient_rank), cols=c.ambient_rank)
    return charts_payload(pool.diagrams[k], lambda i, o: b @ gp(o), c.ambient_rank)


def coproduct_charts(rng, pool: Pool, ka: int, kb: int) -> dict:
    """Two face diagrams glued at the origin, betas from one unimodular map
    split into a block per component."""
    d = coproduct(pool.diagrams[ka], pool.diagrams[kb])
    na, nb = pool.cones[ka].ambient_rank, pool.cones[kb].ambient_rank
    u = unimodular(rng, na + nb, 4)
    cols = list(zip(*u))
    blocks = {
        "a:": IntMatrix.from_cols(cols[:na], rows=na + nb),
        "b:": IntMatrix.from_cols(cols[na:], rows=na + nb),
    }

    def beta(i, o):
        if i == "0":
            return IntMatrix.zeros(na + nb, 0)
        return blocks[i[:2]] @ gp(o)

    return charts_payload(d, beta, na + nb)


def nonneg_psi(rng, dual_rays, n: int) -> list[int]:
    psi = [0] * n
    for g in dual_rays:
        a = rng.randint(0, 3)
        psi = [p + a * x for p, x in zip(psi, g)]
    return psi


def member_chi(rng, members, rays_of, cone_rays, dual_rays, psi) -> dict:
    """psi plus, per member, a combination of the facet normals vanishing on
    that member's face: a compatible family that is not one functional."""
    chi = {}
    for i in members:
        face = [cone_rays[k] for k in rays_of[i]]
        delta = list(psi)
        for g in dual_rays:
            if all(sum(a * b for a, b in zip(g, r)) == 0 for r in face):
                a = rng.randint(-2, 2)
                delta = [x + a * y for x, y in zip(delta, g)]
        chi[i] = delta
    return chi


def extend_request(rng, pool: Pool, parts, mode: str, top_at: float | None = None) -> dict:
    """Members are principal down-sets of one face per component (plus the
    shared origin of a coproduct), which are join-closed and tight.  The
    face is random, or the one at the fraction top_at of the component's
    faces ordered by ray count."""
    if len(parts) == 1:
        d = pool.diagrams[parts[0]]
        prefixes = [""]
    else:
        d = coproduct(pool.diagrams[parts[0]], pool.diagrams[parts[1]])
        prefixes = ["a:", "b:"]
    rays_of = face_ray_sets(d.objects)
    members, chi = [], {}
    if len(parts) > 1:
        members.append("0")
        chi["0"] = []
    for prefix, k in zip(prefixes, parts):
        own = sorted(i for i in d.objects if i.startswith(prefix) and i != "0")
        if top_at is None:
            top = rng.choice(own)
        else:
            by_size = sorted(own, key=lambda i: (len(rays_of[i]), i))
            top = by_size[round(top_at * (len(by_size) - 1))]
        down = [i for i in own if rays_of[i] <= rays_of[top]]
        n = pool.cones[k].ambient_rank
        if mode == "arbitrary":
            psi = [rng.randint(-3, 3) for _ in range(n)]
        else:
            psi = nonneg_psi(rng, pool.duals[k], n)
        chi.update(member_chi(rng, down, rays_of, pool.cones[k].rays, pool.duals[k], psi))
        members.extend(down)
    return {
        "diagram": diagram_payload(d),
        "members": sorted(members),
        "chi": {i: chi[i] for i in sorted(chi)},
        "mode": mode,
    }


# -- warm-up documents: one small valid document per kind -------------------

_CONE = {"ambient_rank": 1, "rays": [[1]]}
_MONOID = {"lattice_rank": 1, "cone": _CONE}
_ORIGIN = {"lattice_rank": 0, "cone": {"ambient_rank": 0, "rays": []}}
_DIAGRAM = {
    "objects": {"0": _ORIGIN, "r": _MONOID},
    "morphisms": [{"from": "0", "to": "r", "matrix": [[]]}],
}
_FAN = {"lattice_rank": 1, "rays": [[1]], "maximal_cones": [[0]]}
_GROUP = {"torus_rank": 0, "torsion": [2]}
WARMUP_PAYLOADS = {
    "monoid": _MONOID,
    "diagram": _DIAGRAM,
    "fan": _FAN,
    "stackyfan": {
        "fan": _FAN,
        "beta": [["9007199254740993"]],
        "target_rank": 1,
        "reports": {"is_smooth": True, "is_cohomologically_affine": True, "group_description": _GROUP},
    },
    "charts": {"diagram": _DIAGRAM, "betas": {"0": [[]], "r": [[1]]}, "target_rank": 1},
    "functional-request": {"diagram": _DIAGRAM, "members": ["0"], "chi": {"0": []}, "mode": "arbitrary"},
    "colimit": {
        "colimit_rank": 1,
        "cone": _CONE,
        "embeddings": {"r": [[1]]},
        "face_embeddings": {"ok": True, "violations": []},
    },
    "functional": {
        "coefficients": [1],
        "mode": "arbitrary",
        "certificate": [{"object": "r", "rays": [{"ray": [1], "value": 1, "strict": False}]}],
    },
    "report": {"ok": False, "violations": [{"condition": "T4", "detail": "x"}], "result": _GROUP},
}


# -- diagram-pipeline --------------------------------------------------------

# Cones over fixed polytopes, moved by a random unimodular map: every seed
# gets the same face lattices, so the cost of a round does not depend on
# the seed's luck, while entries, and so documents, still differ.
POLYTOPES = {
    "simplex3": ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "square-pyramid": ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)),
    "prism": ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)),
    "cube": tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)),
    "simplex4": ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
}
# components of coproducts, whose colimit rank is the sum of theirs
SMALL_POLYTOPES = {
    "segment": ((0,), (1,)),
    "triangle": ((0, 0), (1, 0), (0, 1)),
    "square": ((0, 0), (1, 0), (0, 1), (1, 1)),
    "pentagon": ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1)),
}
BIG_COPIES = 4
SMALL_COPIES = 6


def polytope_cone(rng, vertices, shears: int):
    """The cone over a lattice polytope at height 1, moved by a random
    unimodular map; its rays are exactly the moved vertices."""
    n = len(vertices[0]) + 1
    u = unimodular(rng, n, shears)
    return cone_from_rays(n, [apply(u, (1,) + v) for v in vertices])


def polytope_pool(rng, polytopes, shears: int, copies: int) -> Pool:
    """copies cones per polytope, the copies of one polytope adjacent."""
    return Pool([polytope_cone(rng, v, shears) for v in polytopes.values() for _ in range(copies)])


def diagram_pipeline(rng, count: int) -> list[dict]:
    big = polytope_pool(rng, POLYTOPES, 4, BIG_COPIES)
    small = polytope_pool(rng, SMALL_POLYTOPES, 3, SMALL_COPIES)
    ops = Ops()
    r = 0

    # Which polytope, how many parts and which face tops an extension's
    # members all cycle with the round, the same for every seed; the seed
    # picks copies and entries.  So the cost of a corpus of a few rounds
    # does not depend on the seed's luck.
    def big_at(offset):
        return (r + offset) % len(POLYTOPES) * BIG_COPIES + rng.randrange(BIG_COPIES)

    def smalls(offset, count):
        shapes = len(SMALL_POLYTOPES)
        return [(r + offset + j) % shapes * SMALL_COPIES + rng.randrange(SMALL_COPIES) for j in range(count)]

    def top_at(offset):
        return (0.25, 0.5, 0.75)[(r + offset) % 3]

    def doc(args, payload_kind, payload_of):
        return lambda: (args, doc_text(payload_kind, payload_of()))

    def with_small(offset):
        # a shared big cone next to a small one: distinct documents, shared cones
        return lambda: diagram_payload(coproduct(
            big.diagrams[big_at(offset)], small.diagrams[smalls(offset, 1)[0]]))

    def of_small(offset, parts):
        def build():
            d = [small.diagrams[k] for k in smalls(offset, parts)]
            pair = coproduct(d[0], d[1])
            return diagram_payload(coproduct(pair, d[2]) if parts == 3 else pair)
        return build

    while len(ops) < count:
        ops.add(0, "report", doc(["validate"], "diagram", with_small(0)))
        ops.add(0, "report", doc(["validate"], "diagram", of_small(0, 2 + r % 2)))
        ops.add(0, "colimit", doc(["colimit"], "diagram", with_small(1)))
        ops.add(0, "colimit", doc(["colimit"], "diagram", of_small(1, 3 - r % 2)))
        ops.add(0, "stackyfan", doc(["glue"], "charts", lambda: face_charts(rng, big, big_at(2))))
        ops.add(0, "stackyfan", doc(["glue"], "charts", lambda: coproduct_charts(rng, small, *smalls(2, 2))))
        for k, mode in enumerate(("arbitrary", "nonneg_positive_away")):
            ops.add(0, "functional", doc(["extend"], "functional-request", lambda: extend_request(
                rng, big, [big_at(3 + k)], mode, top_at(k))))
            ops.add(0, "functional", doc(["extend"], "functional-request", lambda: extend_request(
                rng, small, smalls(3 + k, 2), mode, top_at(k))))
        r += 1
    return ops[:count]


# -- cone-ladder -------------------------------------------------------------

# (rank, generator count): facet enumeration grows with C(count, rank - 1).
# With the fans below a round has five cheap operations, four middle ones
# and three of the top rung, so the median and the 83rd percentile latency
# each sit inside a group rather than on the boundary between two.
LADDER_MONOIDS = ((5, 8), (5, 11), (6, 9), (6, 12), (6, 12), (7, 10), (7, 12), (7, 12), (7, 12))
# (rank, rays on the shared facet, rays on each side)
LADDER_FANS = ((5, 4, 1), (5, 5, 1), (6, 5, 1))


def glued_pair(rng, n: int, on_facet: int, per_side: int):
    """Two full-dimensional cones meeting in a common facet, in Z^n.

    In the slice x1 = 1 the rays are points (x0, y, |y|^2): the facet rays
    have x0 = 0, one cone adds x0 = 1 and the other x0 = -1.  Every point is
    a vertex of its side's hull, and x0 = 0 supports both cones exactly on
    the facet, so the pair is a fan.
    """
    while True:
        facet = [(0, 1) + p for p in paraboloid_points(rng, n - 3, on_facet, 2)]
        if full_rank([r[1:] for r in facet], n - 1):
            break
    plus = [(1, 1) + p for p in paraboloid_points(rng, n - 3, per_side, 2)]
    minus = [(-1, 1) + p for p in paraboloid_points(rng, n - 3, per_side, 2)]
    u = unimodular(rng, n, 3)
    rays = sorted({apply(u, r) for r in facet + plus + minus})
    index = {r: i for i, r in enumerate(rays)}
    cones = [sorted(index[apply(u, r)] for r in facet + side) for side in (plus, minus)]
    return {"lattice_rank": n, "rays": [list(r) for r in rays], "maximal_cones": cones}


def cone_ladder(rng, count: int) -> list[dict]:
    ops = Ops()

    def monoid(n, k):
        rays = [list(r) for r in extreme_cone_rays(rng, n, k, 3)]
        return ["validate"], doc_text("monoid", {"lattice_rank": n, "cone": {"ambient_rank": n, "rays": rays}})

    def fan(shape):
        return ["check", "--which", rng.choice(("smooth", "group"))], doc_text("fan", glued_pair(rng, *shape))

    while len(ops) < count:
        for n, k in LADDER_MONOIDS:
            ops.add(0, "report", lambda: monoid(n, k))
        for shape in LADDER_FANS:
            ops.add(0, "report", lambda: fan(shape))
    return ops[:count]


# -- small-docs --------------------------------------------------------------

FIXTURE_OPS = (
    ("quadrant-face-diagram.json", ["validate"], 0, "report"),
    ("quadrant-face-diagram.json", ["colimit"], 0, "colimit"),
    ("octant-triple-glue.json", ["validate"], 0, "report"),
    ("octant-triple-glue.json", ["colimit"], 0, "colimit"),
    ("doubled-line-charts.json", ["validate"], 0, "report"),
    ("doubled-line-charts.json", ["glue"], 0, "stackyfan"),
    ("doubled-plane-charts.json", ["validate"], 1, "report"),
    ("doubled-plane-charts.json", ["glue"], 1, "report"),
    ("a1-cone-fan.json", ["validate"], 0, "report"),
    ("a1-cone-fan.json", ["check", "--which", "smooth"], 0, "report"),
    ("a1-cone-fan.json", ["check", "--which", "cohaffine"], 0, "report"),
    ("a1-cone-fan.json", ["check", "--which", "group"], 0, "report"),
    ("a1-cone-fan.json", ["check", "--which", "canonical"], 0, "stackyfan"),
)

WHICH = ("smooth", "cohaffine", "group", "canonical")


def doubled_cone_charts(rng) -> dict:
    """Two copies of a 2-dimensional cone glued along each ray separately:
    every pair is fine except the two copies, which share two maximal common
    faces, so the charts fail exactly T4.  Tightness is checked before the
    betas are used, so they only need the right shapes."""
    u, v = plane_basis(rng)
    cone = {"ambient_rank": 2, "rays": [list(r) for r in sorted((u, v))]}
    ray = {"lattice_rank": 1, "cone": {"ambient_rank": 1, "rays": [[1]]}}
    objects = {"0": _ORIGIN, "r1": ray, "r2": ray, "sA": {"lattice_rank": 2, "cone": cone},
               "sB": {"lattice_rank": 2, "cone": cone}}
    morphisms = [{"from": "0", "to": t, "matrix": [[]] * (2 if t[0] == "s" else 1)}
                 for t in ("r1", "r2", "sA", "sB")]
    for s in ("sA", "sB"):
        morphisms.append({"from": "r1", "to": s, "matrix": [[u[0]], [u[1]]]})
        morphisms.append({"from": "r2", "to": s, "matrix": [[v[0]], [v[1]]]})
    morphisms.sort(key=lambda m: (m["from"], m["to"]))
    b = nonsingular(rng, 2)
    betas = {"0": [[], []], "r1": [[apply(b, u)[0]], [apply(b, u)[1]]],
             "r2": [[apply(b, v)[0]], [apply(b, v)[1]]], "sA": b, "sB": b}
    return {"diagram": {"objects": objects, "morphisms": morphisms}, "betas": betas, "target_rank": 2}


def plane_basis(rng):
    """A random basis of Z^2, the rays of a smooth 2-dimensional cone."""
    m = unimodular(rng, 2, 3)
    return tuple(r[0] for r in m), tuple(r[1] for r in m)


def complete_fan_rank2(rng) -> dict:
    """Consecutive cones around the origin through the axes plus random rays."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for _ in range(rng.randint(0, 3)):
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        if v != (0, 0):
            g = gcd(*v)
            rays.add((v[0] // g, v[1] // g))
    ordered = sorted(rays, key=lambda r: atan2(r[1], r[0]))
    index = {r: i for i, r in enumerate(sorted(rays))}
    cones = sorted(
        sorted((index[r], index[ordered[(k + 1) % len(ordered)]])) for k, r in enumerate(ordered)
    )
    return {"lattice_rank": 2, "rays": [list(r) for r in sorted(rays)], "maximal_cones": cones}


def affine_fan(rng) -> dict:
    n = rng.randint(1, 3)
    k = n if n < 3 else rng.randint(3, 5)
    rays = extreme_cone_rays(rng, n, k, 2)
    return {"lattice_rank": n, "rays": [list(r) for r in rays], "maximal_cones": [list(range(len(rays)))]}


MALFORMATIONS = ("json", "version", "kind", "extra", "payload", "schema", "wrong-kind")


def malformed(rng, what: str, good: str) -> tuple[list[str], str]:
    """A document the CLI must refuse with exit 2, derived from a good one."""
    body = json.loads(good)
    if what == "json":
        return ["validate"], good[: rng.randint(1, len(good) - 1)]
    if what == "version":
        body["version"] = "2"
    elif what == "kind":
        body["kind"] = "cones"
    elif what == "extra":
        body["comment"] = "unexpected"
    elif what == "payload":
        del body["payload"]
    elif what == "schema":
        body["payload"]["lattice_rank"] = "two"
    else:
        return ["colimit"], good
    return ["validate"], json.dumps(body, sort_keys=True, separators=(",", ":"))


def small_docs(rng, count: int) -> list[dict]:
    pool = Pool([
        cone_from_rays(n, extreme_cone_rays(rng, n, k, 2))
        for n, k in ((2, 2), (2, 2), (3, 3), (3, 4)) * 8
    ])
    m = len(pool.cones)
    ops = Ops()
    for name, args, expect, kind in FIXTURE_OPS:
        text = (ROOT / "fixtures" / name).read_text("utf-8")
        ops.add(expect, kind, lambda: (args, text))

    def monoid():
        n = rng.randint(1, 3)
        rays = [list(r) for r in extreme_cone_rays(rng, n, n if n < 3 else rng.randint(3, 4), 2)]
        return {"lattice_rank": n, "cone": {"ambient_rank": n, "rays": rays}}

    def pair():
        return coproduct(*(pool.diagrams[k] for k in rng.sample(range(m), 2)))

    def stackyfan(rng):
        return {"fan": complete_fan_rank2(rng), "beta": nonsingular(rng, 2), "target_rank": 2}

    while len(ops) < count:
        ops.add(0, "report", lambda: (["validate"], doc_text("monoid", monoid())))
        ops.add(0, "report", lambda: (["validate"], doc_text("diagram", diagram_payload(pair()))))
        ops.add(0, "colimit", lambda: (["colimit"], doc_text("diagram", diagram_payload(pair()))))
        ops.add(0, "stackyfan", lambda: (
            ["glue"], doc_text("charts", face_charts(rng, pool, rng.randrange(m)))))
        ops.add(0, "report", lambda: (
            ["validate"], doc_text("charts", coproduct_charts(rng, pool, *rng.sample(range(m), 2)))))
        for mode in ("arbitrary", "nonneg_positive_away"):
            ops.add(0, "functional", lambda: (["extend"], doc_text(
                "functional-request", extend_request(rng, pool, [rng.randrange(m)], mode))))
        ops.add(0, "report", lambda: (["validate"], doc_text(
            "fan", complete_fan_rank2(rng) if rng.random() < 0.5 else affine_fan(rng))))
        # canonical answers with a stacky fan, the other properties with a report
        for kind, make in (("fan", affine_fan), ("fan", complete_fan_rank2), ("stackyfan", stackyfan)):
            which = rng.choice(WHICH)
            out = "stackyfan" if which == "canonical" else "report"
            ops.add(0, out, lambda: (["check", "--which", which], doc_text(kind, make(rng))))
        # rejected on purpose: T4 charts, a request that is not join-closed,
        # and a malformed envelope
        ops.add(1, "report", lambda: (
            [rng.choice(("validate", "glue"))], doc_text("charts", doubled_cone_charts(rng))))
        ops.add(1, "report", lambda: (
            ["extend"], doc_text("functional-request", not_join_closed(rng, pool))))
        ops.add(2, None, lambda: malformed(
            rng, rng.choice(MALFORMATIONS), doc_text("monoid", monoid())))
    return ops[:count]


def not_join_closed(rng, pool: Pool) -> dict:
    """Two rays of a cone of rank >= 2 with the zero face, but not the face
    they span: the join is missing, so extend must refuse."""
    k = rng.choice([j for j, c in enumerate(pool.cones) if c.ambient_rank >= 2])
    d = pool.diagrams[k]
    rays_of = face_ray_sets(d.objects)
    a, b = rng.sample(range(len(pool.cones[k].rays)), 2)
    members = sorted(i for i, s in rays_of.items() if s in (frozenset(), {a}, {b}))
    n = pool.cones[k].ambient_rank
    chi = {i: [rng.randint(-2, 2) for _ in range(n)] for i in members}
    return {"diagram": diagram_payload(d), "members": members, "chi": chi, "mode": "arbitrary"}


BUILDERS = {"diagram-pipeline": diagram_pipeline, "cone-ladder": cone_ladder, "small-docs": small_docs}

# kinds each workload reads or writes, whose schema validators set-up compiles
KINDS_USED = {
    "diagram-pipeline": ("diagram", "charts", "functional-request", "report", "colimit", "stackyfan",
                         "functional"),
    "cone-ladder": ("monoid", "fan", "report"),
    "small-docs": ("diagram", "charts", "functional-request", "monoid", "fan", "stackyfan", "report",
                   "colimit", "functional"),
}


def generate(workload: str, seed: int) -> str:
    rng = random.Random(f"{workload}/{seed}")
    ops = BUILDERS[workload](rng, SIZES[workload])
    warmup = [doc_text(k, WARMUP_PAYLOADS[k]) for k in KINDS_USED[workload]]
    header = {"workload": workload, "seed": seed, "warmup": warmup}
    out = [json.dumps(header, sort_keys=True), "\n"]
    for o in ops:
        meta = {"args": o["args"], "expect": o["expect"], "kind": o["kind"], "chars": len(o["text"])}
        out += [json.dumps(meta, sort_keys=True), "\n", o["text"]]
    return "".join(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    Path(args.out).write_text(generate(args.workload, args.seed), "utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
