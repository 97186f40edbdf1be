"""Convergence probes and structured generator families.

Contains the approximation and rigidity gadgets used to exercise the
valuation machinery: supporting-plane approximants, staircase gluings of
tangent-matched quadratics, degenerate anisotropic quadratics, zonotope-style
segment approximations of a box-restricted parabola, touching quadratic
patches around envelope points, and unimodular anisotropic scalings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, DegenerateDomain
from .funcs import (
    AffineFn,
    ConvexFn,
    PAFn,
    PLQFn,
    QuadFn,
    QuadraticFn,
    certify_plq,
    lipschitz_constant,
    subdifferential,
)
from .geometry import AffineMap, Polytope, box, cube
from .numerics import (CURVATURE_MIN, FD_STEP_PATCH, GRID_INSET, INTERIOR_MARGIN, PATCH_EXCESS_TOL,
                       PATCH_SLACK, TANGENCY_TOL, TAU_GAP_TOL, USC_TOL, scale_of)
from .report import CheckReport
from .transforms import EnvelopeFn, envelope_eval, inf_conv_pa, separable_clip_plq
from .valuations import ConcFn, Valuation, _fd_hessians, _hessian_stencil, apply


# ---------------------------------------------------------------------------
# PA approximation by supporting planes


def pa_approximate(u: ConvexFn, k: int) -> PAFn:
    """Max of supporting affine planes of u at a k-per-axis interior grid,
    restricted to dom u.  The result is a pointwise minorant of u whose
    Lipschitz constant does not exceed that of u."""
    dom = u.domain
    if dom is None or dom.is_degenerate:
        raise DegenerateDomain("PA approximation needs a full-dimensional domain")
    lo, hi = dom.bbox
    eps = GRID_INSET * dom.diameter
    axes = [np.linspace(lo[i] + eps, hi[i] - eps, k) for i in range(dom.dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dom.dim)
    pts = mesh[dom.boundary_distances(mesh) < -eps / 2]
    if len(pts) == 0:
        pts = dom.barycenter[None, :]
    pieces = []
    seen = set()
    for x in pts:
        val = u.evaluate(x)
        if not np.isfinite(val):
            continue
        g = subdifferential(u, x).bounded_part.vertices[0]
        key = tuple(np.round(g, 12)) + (round(val - float(g @ x), 12),)
        if key in seen:
            continue
        seen.add(key)
        pieces.append(AffineFn(g, val - float(g @ x)))
    return PAFn(pieces, dom)


# ---------------------------------------------------------------------------
# tau-convergence probe


@dataclass(frozen=True)
class TauProbe:
    """Uniform-gap and Lipschitz evidence for a sequence against a limit."""

    compacts: tuple
    lipschitz_bound: float
    sup_gaps: tuple        # per index: tuple of sup gaps, one per compact
    lipschitz_values: tuple
    gap_tolerance: float
    gaps_ok: bool = field(init=False)
    lipschitz_ok: bool = field(init=False)
    tau_consistent: bool = field(init=False)

    def __post_init__(self):
        final_ok = bool(self.sup_gaps) and all(
            g <= self.gap_tolerance for g in self.sup_gaps[-1]
        )
        lip_ok = all(l <= self.lipschitz_bound for l in self.lipschitz_values)
        object.__setattr__(self, "gaps_ok", final_ok)
        object.__setattr__(self, "lipschitz_ok", lip_ok)
        object.__setattr__(self, "tau_consistent", final_ok and lip_ok)


def tau_probe(u_seq, u: ConvexFn, compacts=None, lipschitz_bound: float | None = None,
              per_axis: int = 9) -> TauProbe:
    """Sup-gaps of a sequence to its limit on interior compacts, together with
    per-member Lipschitz estimates; the sequence is tau-consistent when the
    final gaps drop below TAU_GAP_TOL and the Lipschitz values stay bounded."""
    if compacts is None:
        compacts = [u.domain.shrink(0.95)]
    sample_sets = []
    for K in compacts:
        pts = K.grid_points(per_axis) if not K.is_degenerate else K.vertices
        sample_sets.append(np.vstack([pts, K.vertices]))
    if lipschitz_bound is None:
        lipschitz_bound = 5.0 * (1.0 + lipschitz_constant(u))
    gaps = []
    lips = []
    for uk in u_seq:
        row = []
        for pts in sample_sets:
            vu = u.eval_many(pts)
            vk = uk.eval_many(pts)
            finite = np.isfinite(vu) & np.isfinite(vk)
            if not finite.all():
                row.append(np.inf)
            else:
                row.append(float(np.abs(vk - vu).max()))
        gaps.append(tuple(row))
        lips.append(lipschitz_constant(uk))
    return TauProbe(tuple(compacts), float(lipschitz_bound), tuple(gaps),
                    tuple(lips), TAU_GAP_TOL)


# ---------------------------------------------------------------------------
# staircase gluing of tangent-matched quadratics


@dataclass(frozen=True)
class StaircaseSpec:
    """Parameters of the alternating tangent-matched staircase on the box
    R = [-t1, t1] x [-t2, t2] (x [-1, 1]^(n-2) for n > 2)."""

    s: float
    a: float
    r: float
    t1: float = 1.0
    t2: float = 1.0
    m: int = 1
    n: int = 2

    def __post_init__(self):
        if not (0.0 <= self.s < self.a < self.r):
            raise BadParameter(f"need 0 <= s < a < r, got {self.s}, {self.a}, {self.r}")
        if self.t1 <= 0 or self.t2 <= 0:
            raise BadParameter("half-widths must be positive")
        if self.m < 1:
            raise BadParameter("m must be a positive integer")
        if self.n < 2:
            raise BadParameter("the staircase needs dimension >= 2")

    @property
    def mixing_weight(self) -> float:
        """(s - a) / (s - r) in (0, 1): the fraction of steep cells."""
        return (self.s - self.a) / (self.s - self.r)

    def base_box(self) -> Polytope:
        lo = np.array([-self.t1, -self.t2] + [-1.0] * (self.n - 2))
        return box(lo, -lo)


def staircase_sequence(spec: StaircaseSpec) -> PLQFn:
    """The alternating shallow/steep quadratic staircase as a certified PLQ.

    Cell boundaries follow the tangent-matching points; shallow pieces touch
    the reference quadratic a*x1^2 + x2^2 (+ sum x_j^2) at equally spaced
    heights, steep pieces interpolate between consecutive shallow pieces with
    matching values and gradients, so the gluing is C^1 and certification is
    exact.  The number of cells is 2m + 1.
    """
    s, a, r, m, n = spec.s, spec.a, spec.r, spec.m, spec.n
    t1, t2 = spec.t1, spec.t2
    lam = spec.mixing_weight
    delta = 2.0 * t2 / m
    eta = np.array([-t2 + delta * i for i in range(m + 1)])

    extra = n - 2
    pad = 2.0 * np.ones(extra)  # Hessian entries for unit quadratics x_j^2

    def quad(axx: float, ayy: float, by: float, c0: float) -> QuadraticFn:
        A = np.diag(np.concatenate([[2.0 * axx, 2.0 * ayy], pad]))
        b = np.concatenate([[0.0, by], np.zeros(extra)])
        return QuadraticFn(A, b, c0)

    def shallow(i: int) -> QuadraticFn:
        coef = 1.0 - s / a
        return quad(a, s / a, 2.0 * coef * eta[i], -coef * eta[i] ** 2)

    def steep(i: int) -> QuadraticFn:
        y_prev = 0.5 * (eta[i - 1] + eta[i]) - 0.5 * lam * delta
        h2 = 2.0 * (s - r) / a * y_prev + 2.0 * (1.0 - s / a) * eta[i - 1]
        h3 = ((s - r) / a * y_prev ** 2
              + 2.0 * (1.0 - s / a) * eta[i - 1] * y_prev
              - (1.0 - s / a) * eta[i - 1] ** 2
              - h2 * y_prev)
        return quad(a, r / a, h2, h3)

    # tangency: values and x2-gradients agree at both matching heights of
    # every steep piece, up to rounding in the largest summand compared
    for i in range(1, m + 1):
        mid = 0.5 * (eta[i - 1] + eta[i])
        for y, j in ((mid - 0.5 * lam * delta, i - 1), (mid + 0.5 * lam * delta, i)):
            qs, qr = shallow(j), steep(i)
            pt = np.concatenate([[t1, y], np.zeros(extra)])
            value_gap = abs(qs(pt) - qr(pt))
            slope_gap = abs(qs.gradient(pt)[1] - qr.gradient(pt)[1])
            value_terms = [(0.5 * pt @ q.A @ pt, q.b @ pt, q.c) for q in (qs, qr)]
            slope_terms = [(q.A[1] @ pt, q.b[1]) for q in (qs, qr)]
            if (value_gap > TANGENCY_TOL * scale_of(value_terms)
                    or slope_gap > TANGENCY_TOL * scale_of(slope_terms)):
                raise BadParameter(f"staircase pieces do not match at x2 = {y:.6g}; "
                                   f"the spec is too ill-conditioned")

    cuts = [-t2]
    quads = []
    for i in range(1, m + 1):
        mid = 0.5 * (eta[i - 1] + eta[i])
        cuts.extend([mid - 0.5 * lam * delta, mid + 0.5 * lam * delta])
        quads.extend([shallow(i - 1), steep(i)])
    cuts.append(t2)
    quads.append(shallow(m))

    lo_tail = [-1.0] * extra
    hi_tail = [1.0] * extra
    cells = []
    for j, q in enumerate(quads):
        lo = np.array([-t1, cuts[j]] + lo_tail)
        hi = np.array([t1, cuts[j + 1]] + hi_tail)
        cells.append((box(lo, hi), q))
    return certify_plq(cells, domain=spec.base_box())


def staircase_reference(spec: StaircaseSpec) -> QuadFn:
    """The quadratic the staircase converges to: a*x1^2 + x2^2 (+ sum x_j^2)
    on the staircase box."""
    diag = np.concatenate([[2.0 * spec.a, 2.0], 2.0 * np.ones(spec.n - 2)])
    q = QuadraticFn(np.diag(diag), np.zeros(spec.n), 0.0)
    return QuadFn(q, spec.base_box())


def staircase_z_closed_form(spec: StaircaseSpec, zeta: ConcFn) -> float:
    """lam * zeta(2^n r) * V(R) + (1 - lam) * zeta(2^n s) * V(R): the cell sum
    collapses because the Hessian determinants do not depend on the cell index
    and the steep cells occupy exactly a lam-fraction of the box."""
    lam = spec.mixing_weight
    vol = spec.base_box().volume
    scale = 2.0 ** spec.n
    return float(lam * zeta(scale * spec.r) * vol + (1.0 - lam) * zeta(scale * spec.s) * vol)


# ---------------------------------------------------------------------------
# degenerate anisotropic quadratics


def degenerate_sequence(k: int, n: int) -> PLQFn:
    """<x, diag(k 2^-n, 1, ..., 1) x> on [0, 1/k] x [0, 1]^(n-1) as a
    single-cell PLQ; its Hessian determinant is exactly k and the cell volume
    is 1/k, so the weight evaluates to zeta(k)/k."""
    if k < 1:
        raise BadParameter("k must be a positive integer")
    diag = np.concatenate([[2.0 * k * 2.0 ** (-n)], 2.0 * np.ones(n - 1)])
    q = QuadraticFn(np.diag(diag), np.zeros(n), 0.0)
    lo = np.zeros(n)
    hi = np.concatenate([[1.0 / k], np.ones(n - 1)])
    return PLQFn([(box(lo, hi), q)], certificate="single-cell")


# ---------------------------------------------------------------------------
# zonotope-style segment approximation of the box-restricted parabola


@dataclass(frozen=True)
class ZonotopeApprox:
    segments: tuple          # the 1-d affine-on-a-segment factors
    composite: PAFn          # their infimal convolution, repositioned
    sup_gap: float           # sup |composite - target| on [-mu, mu]
    max_slope: float


def zonotope_segment_approx(mu: float, m: int) -> ZonotopeApprox:
    """Approximate x^2/2 + indicator of [-mu, mu] by the epi-sum of m affine
    segment functions (the edges of an inscribed centrally symmetric 2m-gon).

    All slopes stay within [-2mu, 2mu]; the supremum gap to the target decays
    as the number of segments grows.
    """
    if mu <= 0:
        raise BadParameter("mu must be positive")
    if m < 2:
        raise BadParameter("need at least two segments")
    xs = np.linspace(-mu, mu, m + 1)
    vals = 0.5 * xs ** 2
    segments = []
    for i in range(m):
        dx = xs[i + 1] - xs[i]
        slope = (vals[i + 1] - vals[i]) / dx
        segments.append(PAFn([AffineFn([slope], 0.0)], box([0.0], [dx])))
    composite = segments[0]
    for seg in segments[1:]:
        composite = inf_conv_pa(composite, seg)
    composite = composite.translate([-mu]).plus_const(float(vals[0]))
    grid = np.linspace(-mu, mu, 801)[:, None]
    gap = float(np.abs(composite.eval_many(grid) - 0.5 * grid[:, 0] ** 2).max())
    max_slope = float(np.abs(composite.G).max())
    return ZonotopeApprox(tuple(segments), composite, gap, max_slope)


# ---------------------------------------------------------------------------
# touching quadratic patches


def patch_smallness_bound(rho: float, lam: float, n: int, zeta: ConcFn) -> float:
    """Largest admissible sharpening parameter t for the touching patch so
    that the slack rho controls both volume-ratio estimates; always < 1/16."""
    cap = 1.0 / 16.0 - PATCH_SLACK
    z = float(zeta(2.0 ** n * lam ** n))
    if z <= 0.0:
        return cap
    frac = rho / (4.0 * z)
    b1 = (1.0 - max(0.0, 1.0 - frac) ** (1.0 / n)) / 4.0
    b2 = ((1.0 + frac) ** (1.0 / n) - 1.0) / 2.0
    return float(min(cap, b1 ** 2, b2 ** 2))


def touching_patch(env: EnvelopeFn, x0, t: float, r: float, lc: PAFn) -> PLQFn:
    """Quadratic patch around an envelope point: the clipped extension of the
    sharpened touching quadratic over the shrunken core box, restricted to
    the r-box around x0.

    The patch shares the supporting hyperplane of the envelope at x0, exceeds
    the envelope only inside the r-box, stays above the given minorant on the
    r-box, and is a certified PLQ (quadratic core, singular-Hessian collars).
    """
    x0 = np.asarray(x0, dtype=float)
    n = env.dim
    if not 0.0 < t < 1.0 / 16.0:
        raise BadParameter(f"t must lie in (0, 1/16), got {t}")
    if env.domain.boundary_distance(x0) > -INTERIOR_MARGIN:
        raise BadParameter("x0 must be interior to the envelope domain")
    h = FD_STEP_PATCH * scale_of(env.domain.diameter)
    hess = _fd_hessians(env.eval_many(x0 + _hessian_stencil(n, h))[None, :], n, h)[0]
    min_eig = float(np.linalg.eigvalsh(hess).min())
    if min_eig <= CURVATURE_MIN * env.lam:
        raise BadParameter(
            f"envelope curvature at x0 is degenerate (min eigenvalue "
            f"{min_eig:.3e}); the quadratic patch needs a positive definite point")
    probe = np.vstack([env.domain.grid_points(9), env.domain.vertices])
    ev = env.eval_many(probe)
    lv = lc.eval_many(probe)
    if not np.all(lv < ev + PATCH_SLACK):
        raise BadParameter("the minorant must lie strictly below the envelope")
    value, y0, _ = envelope_eval(env, x0)
    lam = env.lam
    g = lam * (x0 - y0)
    tangent = AffineFn(g, value - float(g @ x0))
    alpha = (1.0 + t) * lam
    core = (1.0 - 4.0 * np.sqrt(t)) * r
    if core <= 0:
        raise BadParameter("core box is empty; decrease t or increase r")
    window = cube(n, r)
    ext = separable_clip_plq(alpha * np.ones(n), np.zeros(n), 0.0,
                             -core * np.ones(n), core * np.ones(n), window)
    patch = ext.translate(x0).plus_affine(tangent)
    rbox = cube(n, r).translate(x0)
    core_pts = np.vstack([rbox.grid_points(7), rbox.vertices])
    pv = patch.eval_many(core_pts)
    lv2 = lc.eval_many(core_pts)
    if not np.all(lv2 <= pv + PATCH_SLACK):
        raise BadParameter("the minorant crosses the patch inside the r-box")
    # the patch may exceed the envelope only inside the r-box
    inside_env = env.domain.contains_many(probe)
    outside_core = ~rbox.contains_many(probe)
    sel = inside_env & outside_core
    if sel.any():
        ext_big = separable_clip_plq(
            alpha * np.ones(n), np.zeros(n), 0.0,
            -core * np.ones(n), core * np.ones(n),
            box(np.minimum(env.domain.bbox[0] - x0, -r * np.ones(n)),
                np.maximum(env.domain.bbox[1] - x0, r * np.ones(n))),
        ).translate(x0).plus_affine(tangent)
        vr = np.maximum(ext_big.eval_many(probe[sel]), lc.eval_many(probe[sel]))
        excess = float((vr - ev[sel]).max())
        if excess > PATCH_EXCESS_TOL * (1.0 + float(np.abs(ev[sel]).max())):
            raise BadParameter(
                f"patch exceeds the envelope outside the r-box by {excess:.3e}")
    return certify_plq(patch.cells, domain=rbox)


# ---------------------------------------------------------------------------
# unimodular anisotropic scalings


def anisotropic_scaling(t: float, axis: int, n: int) -> AffineMap:
    """diag with t on every axis except `axis`, which gets 1/t^(n-1); the
    determinant is 1."""
    if t <= 0:
        raise BadParameter("t must be positive")
    if not 0 <= axis < n:
        raise BadParameter(f"axis {axis} out of range for dimension {n}")
    diag = np.full(n, float(t))
    diag[axis] = t ** (-(n - 1))
    return AffineMap(np.diag(diag), np.zeros(n))


# ---------------------------------------------------------------------------
# upper-semicontinuity experiment


def usc_experiment(Z: Valuation, seq, limit: ConvexFn) -> CheckReport:
    """Finite-horizon evidence for Z(limit) >= limsup Z(u_k): evaluates the
    sequence, takes the max of the tail values and reports the gap."""
    values = [apply(Z, uk) for uk in seq]
    z_limit = apply(Z, limit)
    max_tail = max(values) if values else -np.inf
    gap = z_limit - max_tail
    return CheckReport(
        "usc_gap",
        max(0.0, -gap),
        USC_TOL,
        witnesses=tuple(values) + (z_limit,),
        note=f"gap={gap:.6g}",
    )
