"""Monge-Ampere measures of finite-valued piecewise affine convex functions.

For a finite-valued max-of-affines v, the measure B -> V_n(subdifferential
image of B) is purely atomic: atoms sit at the vertices of the activity
subdivision of R^n and the mass at a vertex is the volume of the convex hull
of the gradients active there.  Both come from the lower convex hull of the
lifted points (g_i, -c_i), the same regular subdivision that conjugation
builds: the slope of a lower facet is a vertex of the activity subdivision,
and the gradient simplices of the facets sharing that slope tile its
subdifferential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import LinearNDInterpolator

from .errors import NotFiniteValued
from .funcs import PAFn, _dedupe_pieces, lower_facets
from .geometry import _affine_chart, hull, near_duplicate_leaders
from .numerics import ATOM_MERGE_TOL, EPS_GEOM, MASS_TOL, WEAK_PROBE_TOL, scale_of
from .report import CheckReport


@dataclass(frozen=True)
class MAMeasure:
    """Purely atomic measure: (location, mass) pairs with positive masses."""

    atoms: tuple

    @property
    def total_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))

    def integrate(self, beta) -> float:
        """Integral of a function given as a callable on atom locations."""
        return float(sum(m * float(beta(x)) for x, m in self.atoms))

    def masses_split_by_hyperplane(self, a, beta: float):
        """(mass strictly below, mass on, mass strictly above) the hyperplane
        <a, x> = beta; every atom lands in exactly one bucket."""
        a = np.asarray(a, dtype=float)
        below = on = above = 0.0
        for x, m in self.atoms:
            s = float(a @ x - beta)
            if s < -EPS_GEOM:
                below += m
            elif s > EPS_GEOM:
                above += m
            else:
                on += m
        return below, on, above


def monge_ampere_pa(v: PAFn) -> MAMeasure:
    """Atomic Monge-Ampere measure of a finite-valued max-of-affines."""
    if v.domain is not None:
        raise NotFiniteValued("the function must be finite on all of R^n")
    n = v.dim
    G, c = _dedupe_pieces(v.G, v.cvec)
    if _affine_chart(G)[2] < n:
        return MAMeasure(())
    slopes, _, simplices = lower_facets(G, -c)
    if simplices is None:
        # intercepts affine in the gradients: one vertex where all are active
        vols = np.array([hull(G).volume])
    else:
        edges = G[simplices[:, 1:]] - G[simplices[:, :1]]
        vols = np.abs(np.linalg.det(edges)) / math.factorial(n)
    # each atom's own scale: one far vertex must not merge the atoms near 0
    keep, group = near_duplicate_leaders(
        slopes, ATOM_MERGE_TOL * np.maximum(1.0, np.abs(slopes).max(axis=1)))
    masses = np.bincount(group, weights=vols, minlength=len(keep))
    floor = MASS_TOL * scale_of(G, c) ** n
    atoms = [(slopes[i], float(m)) for i, m in zip(keep, masses) if m > floor]
    atoms.sort(key=lambda a: tuple(a[0]))
    return MAMeasure(tuple(atoms))


def ma_total_mass(v: PAFn):
    """(total atomic mass, volume of the conjugate's domain); the two agree."""
    from .transforms import legendre_pa

    measure = monge_ampere_pa(v)
    dual = legendre_pa(v)
    return measure.total_mass, dual.domain.volume


def ma_weak_probe(v_seq, v: PAFn, testfns, support_box=None) -> list[CheckReport]:
    """Weak-convergence probe: per test function, the integral along the
    sequence and the gap at the last index against the limit.

    Test functions are either callables or (points, values) grid samples that
    are linearly interpolated (zero outside the sampled hull).  When a common
    support box is supplied, the test functions are clipped to zero outside
    of it.
    """
    limit = monge_ampere_pa(v)
    seq_measures = [monge_ampere_pa(vk) for vk in v_seq]
    reports = []
    for ti, tf in enumerate(testfns):
        beta = _as_testfn(tf, v.dim)
        if support_box is not None:
            inner, B = beta, support_box
            beta = lambda x, inner=inner, B=B: (inner(x) if B.contains(x) else 0.0)
        target = limit.integrate(beta)
        values = [mk.integrate(beta) for mk in seq_measures]
        gap = abs(values[-1] - target) if values else abs(target)
        scale = 1.0 + abs(target)
        reports.append(
            CheckReport(
                f"weak_convergence_testfn_{ti}",
                gap,
                WEAK_PROBE_TOL * scale,
                witnesses=tuple(values) + (target,),
            )
        )
    return reports


def _as_testfn(tf, dim: int):
    if callable(tf):
        return tf
    pts, vals = tf
    pts = np.asarray(pts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if dim == 1:
        order = np.argsort(pts[:, 0])
        xs, ys = pts[order, 0], vals[order]
        return lambda x: float(np.interp(np.asarray(x, dtype=float)[0], xs, ys, left=0.0, right=0.0))
    interp = LinearNDInterpolator(pts, vals, fill_value=0.0)
    return lambda x: float(np.ravel(interp(np.asarray(x, dtype=float)))[0])
