"""The concave weight class, the functional Z_zeta, and the full valuation
c0 + c1 * V_n(dom u) + Z_zeta(u).

Z_zeta integrates zeta(det Hessian) over the domain.  On piecewise
linear-quadratic functions the integral has the exact closed form
sum over cells of zeta(det A_cell) * V_n(cell); piecewise affine and
cylinder inputs give exactly zero.  A midpoint-quadrature estimator with
finite-difference Hessians covers pointwise-evaluable functions.

The weight zeta must be nonnegative and concave on [0, inf) with
zeta(0+) = 0 and zeta(t)/t -> 0; validation checks these on a log-spaced
grid with a finite-horizon proxy for the tail limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import geometry
from .errors import (BadInput, BadParameter, BadTransform, EvalError, NotAValuation, NotConc,
                     NotConvex, NumericalLimit)
from .funcs import ConvexFn, PAFn, PLQFn, QuadFn, QuadraticFn, join, meet
from .geometry import AffineMap, Polytope, box, cube
from .numerics import (FD_STEP_QUADRATURE, TAIL_EXPONENT_MAX, TAIL_SLOPE_MAX, TAIL_T,
                       VALUATION_TOL, ZETA_SIGN_TOL, ZETA_TOL)
from .report import CheckReport


# ---------------------------------------------------------------------------
# the weight class


@dataclass(frozen=True, eq=False)
class ConcFn:
    """Nonnegative concave weight on [0, inf) with zero tail slope.

    ``kind`` is one of ``power``, ``pwl``, ``custom``; the evaluator is
    vectorized over numpy arrays.  ``certificate`` stores the residuals of
    the validation run that produced the instance.
    """

    kind: str
    evaluator: object
    params: tuple = ()
    certificate: dict | None = None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.evaluator(t)
        return float(out) if np.ndim(out) == 0 else out

    def dual(self) -> "ConcFn":
        return zeta_dual(self)


def power_zeta(p: float) -> ConcFn:
    """zeta(t) = t^p for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise BadParameter(f"power exponent must lie in (0,1), got {p}")
    return validate_conc(lambda t: np.power(np.maximum(t, 0.0), p), kind="power", params=(p,))


def sqrt_zeta() -> ConcFn:
    return power_zeta(0.5)


def pwl_concave(knots) -> ConcFn:
    """Piecewise linear weight through (t, v) knots, constant after the last
    knot; a leading knot (0, 0) is inserted if absent."""
    pts = sorted((float(t), float(v)) for t, v in knots)
    if not pts or pts[0][0] > 0.0:
        pts.insert(0, (0.0, 0.0))
    ts = np.array([t for t, _ in pts])
    vs = np.array([v for _, v in pts])
    return validate_conc(
        lambda t: np.interp(np.maximum(t, 0.0), ts, vs),
        kind="pwl",
        params=tuple(pts),
    )


def _validation_grid() -> np.ndarray:
    return np.concatenate([[0.0], np.logspace(-6, 6, 121)])


def validate_conc(evaluator, kind: str = "custom", params: tuple = ()) -> ConcFn:
    """Certify an evaluator as a member of the weight class or raise NotConc.

    Checks: value 0 at 0, nonnegativity, midpoint concavity over all pairs of
    a log-spaced grid in [1e-6, 1e6], and tail slope zeta(1e6)/1e6 below
    1e-3 as a finite-horizon stand-in for a vanishing limit.
    """
    if isinstance(evaluator, ConcFn):
        return validate_conc(evaluator.evaluator, evaluator.kind, evaluator.params)
    grid = _validation_grid()
    vals = np.asarray(evaluator(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NotConc("non-finite weight values on the validation grid")
    scale = 1.0 + float(np.abs(vals).max())
    at_zero = abs(float(vals[0]))
    if at_zero > ZETA_TOL * scale:
        raise NotConc(f"value at 0 is {vals[0]:.3e}, expected 0")
    if vals.min() < -ZETA_SIGN_TOL * scale:
        t_bad = grid[int(np.argmin(vals))]
        raise NotConc(f"negative value at t = {t_bad:.3e}")
    i, j = np.triu_indices(len(grid), k=1)
    mids = 0.5 * (grid[i] + grid[j])
    mid_vals = np.asarray(evaluator(mids), dtype=float)
    resid = 0.5 * (vals[i] + vals[j]) - mid_vals
    worst = float(resid.max())
    if worst > ZETA_TOL * scale:
        t_bad = mids[int(np.argmax(resid))]
        raise NotConc(f"midpoint concavity fails by {worst:.3e} near t = {t_bad:.3e}")
    tail = float(vals[-1] / grid[-1])
    exponent = 0.0
    if tail >= TAIL_SLOPE_MAX:
        lo_t = grid[-1] / 100.0
        lo_v = float(np.asarray(evaluator(np.array([lo_t])), dtype=float)[0])
        # a nonnegative concave weight vanishing at 0 cannot vanish at lo_t
        # while being positive at the horizon, so the ratio is well defined
        exponent = float(np.log(vals[-1] / lo_v) / np.log(100.0))
        if exponent > TAIL_EXPONENT_MAX:
            raise NotConc(
                f"tail growth exponent {exponent:.4f} at t = {TAIL_T:g} "
                f"is essentially linear; limit proxy fails")
    cert = {
        "value_at_zero": at_zero,
        "max_concavity_violation": worst,
        "tail_slope": tail,
        "tail_exponent": exponent,
    }
    return ConcFn(kind, evaluator, params, cert)


def zeta_dual(zeta: ConcFn) -> ConcFn:
    """The dual weight t -> t * zeta(1/t), with value 0 at 0."""
    if zeta.kind == "power":
        return power_zeta(1.0 - zeta.params[0])

    base = zeta.evaluator

    def ev(t):
        t = np.asarray(t, dtype=float)
        safe = np.where(t > 0, t, 1.0)
        out = np.where(t > 0, safe * np.asarray(base(1.0 / safe), dtype=float), 0.0)
        return out

    return validate_conc(ev, kind="dual-" + zeta.kind, params=zeta.params)


# ---------------------------------------------------------------------------
# Z_zeta


def z_zeta(u: ConvexFn, zeta: ConcFn) -> float:
    """Z_zeta(u), exact on cell representations and by quadrature otherwise."""
    if u.domain is None and not u.is_cylinder:
        raise BadInput("Z_zeta needs a compact domain")
    if u.is_cylinder or isinstance(u, (PAFn, QuadFn, PLQFn)):
        return z_zeta_plq(u, zeta)
    return z_zeta_numeric(u, u.domain, zeta)


def z_zeta_plq(u: ConvexFn, zeta: ConcFn) -> float:
    """Closed form: sum over cells of zeta(det Hessian) * cell volume."""
    if u.is_cylinder or isinstance(u, PAFn) or (u.domain is not None and u.domain.is_degenerate):
        return 0.0
    if isinstance(u, QuadFn):
        u = u.as_plq()
    if not isinstance(u, PLQFn):
        raise BadInput(f"expected a cell representation, got {type(u).__name__}")
    total = 0.0
    for P, q in u.cells:
        total += float(zeta(max(q.det_hessian, 0.0))) * P.volume
    return total


def _hessian_stencil(n: int, h: float):
    offsets = [np.zeros(n)]
    for i in range(n):
        for s in (1.0, -1.0):
            e = np.zeros(n)
            e[i] = s * h
            offsets.append(e)
    for i, j in itertools.combinations(range(n), 2):
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            e = np.zeros(n)
            e[i], e[j] = si * h, sj * h
            offsets.append(e)
    return np.array(offsets)


def _fd_hessians(f_vals: np.ndarray, n: int, h: float) -> np.ndarray:
    """Central-difference Hessians from values on `_hessian_stencil`, one
    row of values per point."""
    m = len(f_vals)
    H = np.zeros((m, n, n))
    idx = 1
    for i in range(n):
        H[:, i, i] = (f_vals[:, idx] - 2 * f_vals[:, 0] + f_vals[:, idx + 1]) / (h * h)
        idx += 2
    for i, j in itertools.combinations(range(n), 2):
        pp, pm, mp, mm = f_vals[:, idx], f_vals[:, idx + 1], f_vals[:, idx + 2], f_vals[:, idx + 3]
        val = (pp - pm - mp + mm) / (4 * h * h)
        H[:, i, j] = H[:, j, i] = val
        idx += 4
    return H


def z_zeta_numeric(f, dom: Polytope, zeta: ConcFn, grid: int | None = None) -> float:
    """Midpoint quadrature of zeta(det Hessian) over the domain.

    Hessians use central differences with step h = FD_STEP_QUADRATURE times
    the domain diameter.  Cells crossing the boundary are clipped, by the
    facets that cut them only, to their exact intersection volume; midpoints
    within 2h of the boundary take the integrand of the nearest safe one.

    The estimator never looks at the cell structure of the input, so its
    error on piecewise inputs is the usual midpoint-rule O(spacing) band
    misassignment; when interior kink lines of the input are commensurate
    with the grid these errors stop cancelling, and an incommensurate `grid`
    (e.g. 129) restores the expected accuracy.
    """
    if dom.is_degenerate:
        return 0.0
    n = dom.dim
    if grid is None:
        grid = 128 if n <= 2 else 32
    h = FD_STEP_QUADRATURE * dom.diameter
    eval_many = f.eval_many if hasattr(f, "eval_many") else lambda X: np.asarray(f(X), dtype=float)
    lo, hi = dom.bbox
    delta = (hi - lo) / grid
    axes = [lo[i] + delta[i] * (np.arange(grid) + 0.5) for i in range(n)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    dist = dom.boundary_distances(centers)
    r_cell = 0.5 * float(np.linalg.norm(delta))

    weights = np.zeros(len(centers))
    weights[dist <= -r_cell] = np.prod(delta)
    boundary = (dist > -r_cell) & (dist < r_cell)
    weights[boundary] = geometry.box_clip_volumes(dom, centers[boundary], delta)

    covered = weights > 0
    if not covered.any():
        return 0.0
    margin = 2.0 * h
    safe = covered & (dist <= -margin)
    integrand = np.zeros(len(centers))
    if safe.any():
        pts = centers[safe]
        stencil = _hessian_stencil(n, h)
        batch = (pts[:, None, :] + stencil[None, :, :]).reshape(-1, n)
        vals = np.asarray(eval_many(batch), dtype=float).reshape(len(pts), -1)
        if not np.all(np.isfinite(vals)):
            raise EvalError("non-finite sample inside the integration domain")
        with np.errstate(over="ignore", invalid="ignore"):
            H = _fd_hessians(vals, n, h)
            dets = np.linalg.det(H)
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(dets))):
            raise NumericalLimit(f"values up to {np.abs(vals).max():.3g} in magnitude overflow "
                                 f"the finite-difference Hessians of step {h:.3g}")
        dets = np.maximum(dets, 0.0)
        integrand[safe] = zeta(dets)
        rest = covered & ~safe
        if rest.any():
            tree = cKDTree(pts)
            _, nearest = tree.query(centers[rest])
            integrand[np.where(rest)[0]] = integrand[np.where(safe)[0][nearest]]
    return float(np.sum(weights * integrand))


# ---------------------------------------------------------------------------
# the full valuation


@dataclass(frozen=True, eq=False)
class Valuation:
    """Z(u) = c0 + c1 * V_n(dom u) + Z_zeta(u)."""

    c0: float
    c1: float
    zeta: ConcFn

    def __call__(self, u: ConvexFn) -> float:
        return apply(self, u)


def apply(val: Valuation, u: ConvexFn) -> float:
    if u.domain is None:
        raise BadInput("the valuation is defined for compact domains")
    return float(val.c0 + val.c1 * u.domain.volume + z_zeta(u, val.zeta))


def valuation_identity_check(val: Valuation, u: ConvexFn, v: ConvexFn) -> CheckReport:
    """Residual of Z(min) + Z(max) = Z(u) + Z(v); pairs whose pointwise min
    is not convex are reported as skipped, not failed."""
    zu, zv = apply(val, u), apply(val, v)
    tol = VALUATION_TOL * (1.0 + abs(zu) + abs(zv))
    try:
        m = meet(u, v)
    except NotConvex as exc:
        return CheckReport("valuation_identity", 0.0, tol, note=f"skipped: {exc}")
    j = join(u, v)
    residual = abs(apply(val, m) + apply(val, j) - zu - zv)
    return CheckReport("valuation_identity", residual, tol)


def invariance_check(val: Valuation, u: ConvexFn, transform) -> CheckReport:
    """Residual of Z_zeta under a unimodular map, a translation, a vertical
    shift, or an added affine function.  Requires c0 = c1 = 0."""
    if val.c0 != 0.0 or val.c1 != 0.0:
        raise BadParameter("invariance checks apply to the pure integral term")
    kind, arg = transform
    if kind == "unimodular":
        phi: AffineMap = arg
        if not phi.is_unimodular():
            raise BadTransform(f"|det| = {abs(phi.det):.6g}")
        u2 = u.compose_affine(phi.matrix, phi.shift)
    elif kind == "translate":
        u2 = u.translate(np.asarray(arg, dtype=float))
    elif kind == "vshift":
        u2 = u.plus_const(float(arg))
    elif kind == "add_affine":
        u2 = u.plus_affine(arg)
    else:
        raise BadParameter(f"unknown transform kind {kind!r}")
    z1 = apply(val, u)
    z2 = apply(val, u2)
    return CheckReport(f"invariance_{kind}", abs(z2 - z1), VALUATION_TOL * (1.0 + abs(z1)))


def extract_zeta(blackbox, a_grid, dim: int) -> ConcFn:
    """Sample the weight of a black-box functional on quadratic-plus-box
    inputs: the ratio Z(a*q + I_C) / V_n(C) at Hessian determinant a^dim.

    The same ratio over the unit box must agree (domain independence);
    otherwise the black box is rejected as NotAValuation.  The sampled weight
    is interpolated piecewise linearly, held constant beyond the last sample,
    and validated; validation failures raise NotConc.
    """
    C = cube(dim)
    P2 = box(np.zeros(dim), np.ones(dim))
    samples = []
    for a in sorted(set(float(a) for a in a_grid) | {0.0}):
        q = QuadraticFn(a * np.eye(dim), np.zeros(dim), 0.0)
        r1 = float(blackbox(QuadFn(q, C))) / C.volume
        r2 = float(blackbox(QuadFn(q, P2))) / P2.volume
        if abs(r1 - r2) > VALUATION_TOL * (1.0 + abs(r1)):
            raise NotAValuation(
                f"ratio differs across domains at a = {a:g}: {r1:.12g} vs {r2:.12g}")
        samples.append((a ** dim, r1))
    ts = np.array([t for t, _ in samples])
    vs = np.array([v for _, v in samples])
    return validate_conc(
        lambda t: np.interp(np.maximum(np.asarray(t, dtype=float), 0.0), ts, vs),
        kind="sampled",
        params=tuple(samples),
    )
