"""Fans and stacky fans: chart gluing, smoothness, stabilizer group data.

A Fan here is combinatorial: a list of rays (repetition is legal, which is
what lets non-separated gluings like the doubled line be written down) and
maximal cones given as ray-index sets.  A StackyFan pairs a fan on a
lattice L with a finite-cokernel map beta: L -> N.  glue() turns tight
chart data into the stacky fan whose cones are the chart images inside the
single colimit cone.
"""

from __future__ import annotations

from typing import Mapping

from .cone import NotPointed, cone_from_rays, gp, intersection, is_face, meets_in_shared_face
from .diagram import TightDiagram
from .errors import DomainError
from .frozen import Frozen
from .intlin import (
    CokernelInvariants,
    IntMatrix,
    cokernel_invariants,
    int_vector,
    invariant_factors,
    primitivize,
    rank,
)


class InfiniteCokernel(DomainError):
    """Raised when a beta map does not have finite cokernel."""


class IncompatibleBetas(DomainError):
    """Raised when per-chart beta maps disagree along a diagram morphism."""


class RaysDoNotSpan(DomainError):
    """Raised when a construction needs the fan rays to span the lattice."""


class Fan(Frozen):
    """Rays by value, maximal cones by ray index; construction checks shapes
    and refuses entries that are not ints with TypeError."""

    __slots__ = ("lattice_rank", "rays", "maximal_cones")

    def __init__(
        self, lattice_rank: int, rays: tuple[tuple[int, ...], ...], maximal_cones: tuple[tuple[int, ...], ...]
    ):
        rays = tuple(int_vector(r) for r in rays)
        for r in rays:
            if len(r) != lattice_rank:
                raise ValueError("ray length does not match the lattice rank")
        cones = []
        for ixs in maximal_cones:
            out = tuple(sorted(set(int_vector(ixs))))
            if any(i < 0 or i >= len(rays) for i in out):
                raise ValueError("maximal cone references a ray that does not exist")
            cones.append(out)
        super().__init__(lattice_rank, rays, tuple(cones))

    def cone(self, k: int):
        return cone_from_rays(self.lattice_rank, [self.rays[i] for i in self.maximal_cones[k]])


class StackyFan(Frozen):
    """A fan on L plus beta: L -> N with finite cokernel; N is Z^beta.rows."""

    __slots__ = ("fan", "beta")

    def __init__(self, fan: Fan, beta: IntMatrix):
        if beta.cols != fan.lattice_rank:
            raise ValueError("beta shape does not match the fan and target lattices")
        if cokernel_invariants(beta).free_rank != 0:
            raise InfiniteCokernel("beta does not have finite cokernel")
        super().__init__(fan, beta)


class ChartData(Frozen):
    """Tight chart diagram with one beta per object, given on gp of the
    object (faces then restrict automatically), all into Z^target_rank."""

    __slots__ = ("diagram", "betas", "target_rank")

    def __init__(self, diagram: TightDiagram, betas: Mapping[str, IntMatrix], target_rank: int):
        if set(betas) != set(diagram.objects):
            raise ValueError("betas must be indexed exactly by the diagram objects")
        for i, obj in diagram.objects.items():
            b = betas[i]
            if (b.rows, b.cols) != (target_rank, gp(obj).cols):
                raise ValueError(f"beta for object {i!r} has the wrong shape")
        super().__init__(diagram, betas, target_rank)


def validate_fan(f: Fan) -> tuple[str, ...]:
    """All violations of the fan axioms (empty tuple = valid fan).

    Rays must be primitive and each maximal cone must list exactly the
    extreme rays of a pointed cone.  Pairs are compared combinatorially on
    index sets (so two cones over coincident rays are distinct, which is the
    doubled-line situation) and geometrically on overlap shape: the
    intersection of two listed cones must be a face of both.  A pair that
    cone.meets_in_shared_face separates by a functional from the cone
    records meets in a face of both; only the others have their exact
    intersection computed, and violations come in the same order either way.
    """
    violations = []
    for i, r in enumerate(f.rays):
        if all(x == 0 for x in r) or primitivize(r) != r:
            violations.append(f"ray {i} is not primitive")
    cones = {}
    for k, ixs in enumerate(f.maximal_cones):
        listed = [f.rays[i] for i in ixs]
        if len(set(listed)) != len(listed):
            violations.append(f"maximal cone {k} repeats a ray")
            continue
        try:
            c = f.cone(k)
        except NotPointed:
            violations.append(f"maximal cone {k} is not pointed")
            continue
        # compare primitivized so an imprimitive ray is reported once, above
        if tuple(sorted({primitivize(r) for r in listed})) != c.rays:
            violations.append(f"maximal cone {k} lists rays that are not its extreme rays")
            continue
        cones[k] = c
    for a in sorted(cones):
        for b in sorted(cones):
            if b <= a:
                continue
            sa, sb = set(f.maximal_cones[a]), set(f.maximal_cones[b])
            if sa <= sb or sb <= sa:
                violations.append(f"maximal cones {a} and {b}: one is a face of the other")
                continue
            if meets_in_shared_face(cones[a], cones[b]):
                continue
            met = intersection(cones[a], cones[b])
            if not (is_face(cones[a], met) and is_face(cones[b], met)):
                violations.append(f"maximal cones {a} and {b} intersect in a non-face")
    return tuple(violations)


def glue(charts: ChartData) -> StackyFan:
    """Glue tight chart data into one stacky fan.

    The lattice is the diagram colimit, beta is the unique map the chart
    betas induce on it (each row descends from the maximal charts' rows,
    integrally because the betas agree along every morphism), and the fan
    collects the inclusion-maximal images of chart objects inside the
    colimit cone (their faces are implied, and by tightness every face is
    itself a chart image).
    """
    analysis = charts.diagram.analysis
    analysis.require_tight()
    for e in charts.diagram.morphisms:
        step = analysis.gp_matrix(e.source_id, e.target_id)
        if charts.betas[e.target_id] @ step != charts.betas[e.source_id]:
            raise IncompatibleBetas(f"betas disagree along {e.source_id!r}->{e.target_id!r}")

    beta = analysis.descend(charts.betas, charts.target_rank)

    distinct = {frozenset(c.rays) for c in analysis.object_images.values()}
    keep = [s for s in distinct if not any(s < t for t in distinct)]
    fan_rays = sorted(set().union(*keep))
    ray_index = {r: k for k, r in enumerate(fan_rays)}
    maximal_cones = sorted(tuple(sorted(ray_index[r] for r in s)) for s in keep)
    fan = Fan(analysis.colimit.cone.ambient_rank, tuple(fan_rays), tuple(maximal_cones))
    return StackyFan(fan, beta)


def is_smooth(sf: StackyFan) -> bool:
    """True iff every maximal cone's rays extend to a basis of the lattice."""
    for ixs in sf.fan.maximal_cones:
        m = IntMatrix.from_cols(
            [sf.fan.rays[i] for i in ixs], rows=sf.fan.lattice_rank
        )
        if invariant_factors(m) != (1,) * m.cols:
            return False
    return True


def is_cohomologically_affine(sf: StackyFan) -> bool:
    """True iff the fan is the face fan of a single cone."""
    return len(sf.fan.maximal_cones) == 1


def group_description(sf: StackyFan) -> CokernelInvariants:
    """Stabilizer group data: the cokernel invariants of beta transpose, whose
    free rank is the torus rank that documents write as "torus_rank"."""
    return cokernel_invariants(sf.beta.transpose())


def canonical_cover(f: Fan) -> StackyFan:
    """Coordinate-lift presentation: one basis direction per listed ray,
    beta sending it to that ray, cones lifted index-wise.

    The cover fan consists of faces of coordinate octants, so the result is
    always smooth; beta has finite cokernel exactly because the rays span.
    """
    mat = IntMatrix.from_cols(f.rays, rows=f.lattice_rank)
    if rank(mat) != f.lattice_rank:
        raise RaysDoNotSpan("fan rays do not span the lattice")
    n = len(f.rays)
    cover = Fan(n, IntMatrix.identity(n).entries, f.maximal_cones)
    return StackyFan(cover, mat)
