"""Eight-part acceptance suite, exact arithmetic throughout.

Every part records exactly one ``criterion N: PASS/FAIL`` line — printed
after the run by the conftest summary hook, outside pytest's capture — and
then asserts.  All corpora are seeded and reproducible.
"""

from __future__ import annotations

import functools
import random
import time
from pathlib import Path

import acceptance_report
from oracles import bareiss_det, caratheodory_member, dot, fraction_free_rank, search_supporting_functional
from randomgen import (
    random_complete_or_affine_fan,
    random_join_closed_members,
    random_pointed_cone,
    random_unimodular,
)

from toricfans import documents
from toricfans.cone import cone_from_rays, contains, dual_cone, is_face
from toricfans.diagram import (
    ColimitResult,
    Subdiagram,
    TightDiagram,
    colimit,
    coproduct,
    extend_diagram_functional,
    face_diagram,
    validate_tight,
    verify_face_embeddings,
)
from toricfans.intlin import (
    CokernelInvariants,
    IntMatrix,
    complement_summand,
    kernel_basis,
    reduce_basis,
    saturate,
    smith_normal_form,
)
from toricfans.monoid import gp
from toricfans.stackyfan import (
    ChartData,
    canonical_cover,
    glue,
    group_description,
    is_smooth,
    validate_fan,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def criterion(n: int):
    """Record one pass/fail line for this criterion, whatever happens."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                first = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                acceptance_report.record(n, "FAIL", first)
                raise
            acceptance_report.record(n, "PASS", detail)

        return wrapper

    return deco


def image_cone(d: TightDiagram, colim: ColimitResult, i: str):
    """Image of object i's cone in the colimit lattice."""
    obj = d.objects[i]
    span = gp(obj)
    emb = colim.embeddings[i]
    rays = []
    for r in obj.rays:
        coords = reduce_basis(span).coordinates(IntMatrix.from_cols([r], rows=len(r)))
        rays.append(emb.apply(coords.col(0)))
    return cone_from_rays(colim.cone.ambient_rank, rays)


@criterion(1)
def test_criterion_1_face_embeddings_certified():
    rng = random.Random(101)
    start = time.monotonic()
    certificates = 0
    for k in range(500):
        if k % 5 < 3:
            d = face_diagram(random_pointed_cone(rng))
        else:
            d = coproduct(
                face_diagram(random_pointed_cone(rng, max_rank=3, max_rays=5)),
                face_diagram(random_pointed_cone(rng, max_rank=3, max_rays=5)),
            )
        colim = colimit(d)
        assert verify_face_embeddings(d, colim) == ()
        big = colim.cone
        dual_gens = dual_cone(big).rays  # colimit cone is full-dimensional here
        for i in sorted(d.objects):
            img = image_cone(d, colim, i)
            outside = [r for r in big.rays if r not in set(img.rays)]
            found = search_supporting_functional(dual_gens, list(img.rays), outside)
            assert found is not None, f"no supporting functional certifies object {i!r}"
            certificates += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"took {elapsed:.1f}s, budget 60s"
    return f"500 diagrams, {certificates} brute-force face certificates, {elapsed:.1f}s"


@criterion(2)
def test_criterion_2_functional_extension():
    rng = random.Random(202)
    start = time.monotonic()
    for _ in range(200):
        c = random_pointed_cone(rng, max_rank=4, max_rays=6, full_dim=True)
        d = face_diagram(c)
        members = random_join_closed_members(rng, d)
        n = c.ambient_rank
        psi = [0] * n
        for g in dual_cone(c).rays:
            a = rng.randint(0, 3)
            psi = [p + a * x for p, x in zip(psi, g)]
        chi = {}
        for i in members:
            # perturb off the face's span so the family is not one global functional
            ann = kernel_basis(gp(d.objects[i]).transpose())
            delta = [0] * n
            for j in range(ann.cols):
                a = rng.randint(-2, 2)
                delta = [x + a * y for x, y in zip(delta, ann.col(j))]
            chi[i] = tuple(p + x for p, x in zip(psi, delta))
        phi = extend_diagram_functional(Subdiagram(d, members), chi)

        colim = colimit(d)
        for i in members:
            span, emb = gp(d.objects[i]), colim.embeddings[i]
            for j in range(span.cols):
                assert dot(phi.coefficients, emb.col(j)) == dot(chi[i], span.col(j))
        member_rays = set()
        for i in members:
            member_rays.update(image_cone(d, colim, i).rays)
        for i in sorted(d.objects):
            for r in image_cone(d, colim, i).rays:
                value = phi(r)
                assert value >= 0
                if r not in member_rays:
                    assert value >= 1
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, f"took {elapsed:.1f}s, budget 30s"
    return f"200 extension triples exact, nonnegative, strict off the subdiagram, {elapsed:.1f}s"


@criterion(3)
def test_criterion_3_doubled_line_presentation():
    doc = documents.loads((FIXTURES / "doubled-line-charts.json").read_text("utf-8"))
    sf = glue(documents.decode_charts(doc.payload))
    assert sf.beta.entries == ((1, 1),)
    assert sf.beta.rows == 1
    assert sf.fan.lattice_rank == 2
    assert sf.fan.rays == ((0, 1), (1, 0))
    assert sf.fan.maximal_cones == ((0,), (1,))
    assert group_description(sf) == CokernelInvariants(1, ())
    return "beta = [1 1] on Z^2, fan {0, e1-ray, e2-ray}, group (1, [])"


@criterion(4)
def test_criterion_4_doubled_plane_rejection():
    doc = documents.loads((FIXTURES / "doubled-plane-charts.json").read_text("utf-8"))
    charts = documents.decode_charts(doc.payload)
    violations = validate_tight(charts.diagram)
    codes = [v.partition(":")[0] for v in violations]
    assert codes == ["T4"], f"expected exactly T4, got {codes}"
    return "rejected with exactly condition T4"


@criterion(5)
def test_criterion_5_glued_fan_is_subfan_of_one_cone():
    rng = random.Random(505)
    cones_checked = 0
    for k in range(100):
        if k % 10 < 7:
            c = random_pointed_cone(rng, max_rank=3, max_rays=6, full_dim=True)
            d = face_diagram(c)
            n = c.ambient_rank
            while True:
                b = IntMatrix.from_rows(
                    [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)], cols=n
                )
                if bareiss_det(b.entries) != 0:
                    break
            charts = ChartData(d, {i: b @ gp(obj) for i, obj in d.objects.items()}, n)
        else:
            da = face_diagram(random_pointed_cone(rng, max_rank=2, max_rays=4, full_dim=True))
            db = face_diagram(random_pointed_cone(rng, max_rank=2, max_rays=4, full_dim=True))
            d = coproduct(da, db)
            na = next(o.ambient_rank for i, o in d.objects.items() if i.startswith("a:"))
            nb = next(o.ambient_rank for i, o in d.objects.items() if i.startswith("b:"))
            u = random_unimodular(rng, na + nb)
            block_a = IntMatrix.from_cols([u.col(j) for j in range(na)], rows=na + nb)
            block_b = IntMatrix.from_cols([u.col(j) for j in range(na, na + nb)], rows=na + nb)
            betas = {}
            for i, obj in d.objects.items():
                if i == "0":
                    betas[i] = IntMatrix.zeros(na + nb, 0)
                else:
                    betas[i] = (block_a if i.startswith("a:") else block_b) @ gp(obj)
            charts = ChartData(d, betas, na + nb)
        sf = glue(charts)
        assert validate_fan(sf.fan) == ()
        big = colimit(d).cone
        for ixs in sf.fan.maximal_cones:
            geometric = cone_from_rays(sf.fan.lattice_rank, [sf.fan.rays[i] for i in ixs])
            assert is_face(big, geometric)
            cones_checked += 1
    return f"100 glues, {cones_checked} output cones all faces of the colimit cone"


@criterion(6)
def test_criterion_6_integer_linear_algebra():
    rng = random.Random(606)
    start = time.monotonic()
    for _ in range(1000):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = IntMatrix.from_rows(
            [tuple(rng.randint(-20, 20) for _ in range(n)) for _ in range(m)], cols=n
        )
        u, dmat, v = smith_normal_form(a)
        assert u @ a @ v == dmat
        assert abs(bareiss_det(u.entries)) == 1
        assert abs(bareiss_det(v.entries)) == 1
        diag = [dmat.entries[i][i] for i in range(min(m, n))]
        assert all(
            dmat.entries[i][j] == 0 for i in range(m) for j in range(n) if i != j
        )
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0 if x else y == 0
        # greedy independent columns, saturate, and complete to a basis
        cols: list = []
        for j in range(n):
            cand = cols + [a.col(j)]
            if fraction_free_rank([[col[r] for col in cand] for r in range(m)]) == len(cand):
                cols = cand
        s = saturate(IntMatrix.from_cols(cols, rows=m))
        full = s.hstack(complement_summand(s))
        assert abs(bareiss_det(full.entries)) == 1
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, f"took {elapsed:.1f}s, budget 30s"
    return f"1000 Smith decompositions and basis completions exact, {elapsed:.1f}s"


@criterion(7)
def test_criterion_7_canonical_cover_postconditions():
    rng = random.Random(707)
    for _ in range(100):
        f = random_complete_or_affine_fan(rng)
        assert validate_fan(f) == ()
        cover = canonical_cover(f)
        assert is_smooth(cover)
        assert validate_fan(cover.fan) == ()
    doc = documents.loads((FIXTURES / "a1-cone-fan.json").read_text("utf-8"))
    a1 = documents.decode_fan(doc.payload)
    g = group_description(canonical_cover(a1))
    assert g == CokernelInvariants(0, (2,))
    return "100 covers smooth; half-plane quotient cover has group (0, [2])"


@criterion(8)
def test_criterion_8_double_duality_and_membership():
    rng = random.Random(808)
    points = 0
    for _ in range(200):
        c = random_pointed_cone(rng, max_rank=4, max_rays=8, full_dim=True)
        dual = dual_cone(c)
        assert dual_cone(dual) == c
        n = c.ambient_rank
        samples = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(25)]
        for _ in range(25):
            v = [0] * n
            for r in rng.sample(c.rays, min(len(c.rays), 3)):
                a = rng.randint(0, 3)
                v = [x + a * y for x, y in zip(v, r)]
            samples.append(tuple(v))
        for idx, p in enumerate(samples):
            inside = contains(c, p)
            assert inside == all(dot(g, p) >= 0 for g in dual.rays)
            if idx < 3:  # slower fully independent oracle on a slice
                assert inside == caratheodory_member(c.rays, p)
            points += 1
    assert points == 10000
    return f"200 double duals are identities; membership agrees on {points} lattice points"
