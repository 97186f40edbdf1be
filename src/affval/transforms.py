"""Legendre transforms, infimal convolutions and box-constrained envelopes.

Conjugation of piecewise affine functions runs in both directions:

* compact-domain max-of-affines -> finite-valued max-of-affines, built from
  the vertices of the activity subdivision, i.e. of the epigraph over the
  domain, which one Qhull halfspace intersection finds
  (`funcs._activity_regions`);
* finite-valued max-of-affines -> compact-domain function, built as the lower
  convex hull of the lifted points (gradient, -intercept).

Infimal convolution is computed through the conjugate sum identity
(u box v)* = u* + v*.  The box-constrained envelope
u_{lam,mu} = u box (lam/2 ||.||^2 + I_{mu C}) is kept implicit: evaluation
solves the inner problem exactly by enumerating active sets of the
piece-restricted strictly convex QP, which also yields the minimizer and the
touching quadratic.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import geometry
from .errors import (
    BadInput,
    BadParameter,
    BadTransform,
    OutsideDomain,
    SingularHessian,
)
from .funcs import (
    AffineFn,
    ConvexFn,
    PAFn,
    PLQFn,
    QuadFn,
    QuadraticFn,
    _as_plq,
    _dedupe_pieces,
    certify_plq,
    lower_hull_pieces,
)
from .geometry import AffineMap, Polytope, cube, hull, intersect, minkowski_sum
from .numerics import BBOX_SLACK, CONJ_CHECK_TOL, EPS_GEOM, QP_FEAS_TOL, THIN_CELL_TOL, scale_of
from .report import CheckReport


# ---------------------------------------------------------------------------
# Legendre transforms


def legendre_pa(u: PAFn) -> PAFn:
    """Convex conjugate of a piecewise affine function.

    A compact-domain input yields a finite-valued conjugate and vice versa;
    applying the transform twice reproduces the input.
    """
    if u.domain is None:
        return PAFn(*lower_hull_pieces(u.G, -u.cvec))
    pts, vals = u.subdivision_vertices()
    w = PAFn([AffineFn(p, -float(t)) for p, t in zip(pts, vals)], None)
    return w.pruned()


def legendre_quadratic(q: QuadraticFn) -> QuadraticFn:
    """Conjugate of a positive definite quadratic on all of R^n."""
    if q.min_eigenvalue <= EPS_GEOM:
        raise SingularHessian(f"min eigenvalue {q.min_eigenvalue:.3e}")
    inv = np.linalg.inv(q.A)
    return QuadraticFn(inv, -inv @ q.b, float(0.5 * q.b @ inv @ q.b - q.c))


def _add_pa(u: PAFn, v: PAFn) -> PAFn:
    """Sum of two max-of-affines functions: max over index pairs."""
    pieces = [AffineFn(gu + gv, cu + cv)
              for gu, cu in zip(u.G, u.cvec)
              for gv, cv in zip(v.G, v.cvec)]
    if u.domain is None:
        dom = v.domain
    elif v.domain is None:
        dom = u.domain
    else:
        dom = intersect(u.domain, v.domain)
        if dom is None:
            raise BadInput("summands have disjoint domains")
    G = np.array([p.grad for p in pieces])
    c = np.array([p.c for p in pieces])
    G, c = _dedupe_pieces(G, c)
    return PAFn([AffineFn(g, ci) for g, ci in zip(G, c)], dom)


def inf_conv_pa(u: PAFn, v: PAFn) -> PAFn:
    """Infimal convolution via the conjugate-sum identity."""
    s = _add_pa(legendre_pa(u), legendre_pa(v))
    return legendre_pa(s)


# ---------------------------------------------------------------------------
# exact small QPs


def min_quadratic_over_polytope(H, f, A, b):
    """Exact minimum of 0.5 y'Hy + f'y over {A y <= b} (H PSD, PD on the
    feasible affine hull).  Enumerates active subsets of size 0..n and keeps
    the best feasible KKT point; returns (inf, None) when infeasible."""
    H = np.asarray(H, dtype=float)
    f = np.asarray(f, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = H.shape[0]
    m = len(A)
    try:
        y0 = np.linalg.solve(H, -f)
        if np.all(A @ y0 - b <= QP_FEAS_TOL * scale_of(y0)):
            return float(0.5 * y0 @ H @ y0 + f @ y0), y0
    except np.linalg.LinAlgError:
        pass
    best_val, best_y = np.inf, None
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(m), k):
            As = A[list(subset)]
            kkt = np.block([[H, As.T], [As, np.zeros((k, k))]])
            rhs = np.concatenate([-f, b[list(subset)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            y = sol[:n]
            if not np.all(np.isfinite(y)):
                continue
            if np.all(A @ y - b <= QP_FEAS_TOL * scale_of(y)):
                val = float(0.5 * y @ H @ y + f @ y)
                if val < best_val:
                    best_val, best_y = val, y
    return best_val, best_y


# ---------------------------------------------------------------------------
# box-constrained Moreau envelope


class EnvelopeFn(ConvexFn):
    """u box (lam/2 ||.||^2 + indicator of the mu-cube), kept implicit.

    The domain (dom u + mu C) is cached; evaluation solves the inner problem
    exactly and also returns the minimizer and the touching quadratic.
    """

    def __init__(self, base: ConvexFn, lam: float, mu: float):
        if not (0 < lam < np.inf and 0 < mu < np.inf):
            raise BadParameter(f"lambda and mu must be finite and positive, got {lam}, {mu}")
        if base.domain is None:
            raise BadInput("the envelope base needs a compact domain")
        self.base = base
        self.lam = float(lam)
        self.mu = float(mu)
        self.dim = base.dim
        self.domain = minkowski_sum(base.domain, cube(base.dim, mu))
        self.is_cylinder = False
        self._cells = _as_plq(base).cells

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        if not self.domain.contains(x):
            return np.inf
        return self._solve(x)[0]

    def _solve(self, x: np.ndarray):
        x = np.asarray(x, dtype=float).reshape(-1)
        n = self.dim
        eye = np.eye(n)
        box_A = np.vstack([eye, -eye])
        box_b = np.concatenate([x + self.mu, self.mu - x])
        best = (np.inf, None, None)
        for P, q in self._cells:
            # skip cells out of reach of the mu-box around x
            lo, hi = P.bbox
            if np.any(lo > x + self.mu + BBOX_SLACK) or np.any(hi < x - self.mu - BBOX_SLACK):
                continue
            A_c, b_c = P.halfspaces
            A = np.vstack([A_c, box_A])
            b = np.concatenate([b_c, box_b])
            H = q.A + self.lam * eye
            f = q.b - self.lam * x
            val, y = min_quadratic_over_polytope(H, f, A, b)
            if y is None:
                continue
            total = val + q.c + 0.5 * self.lam * float(x @ x)
            if total < best[0]:
                best = (float(total), y, q)
        return best

    def gradient(self, x) -> np.ndarray:
        _, y0, _ = self._solve(np.asarray(x, dtype=float))
        return self.lam * (np.asarray(x, dtype=float) - y0)

    def lipschitz_estimate(self, per_axis: int = 9) -> float:
        pts = np.vstack([self.domain.grid_points(per_axis), self.domain.vertices])
        worst = 0.0
        for p in pts:
            if self.domain.contains(p):
                worst = max(worst, float(np.linalg.norm(self.gradient(p))))
        return worst


def moreau_box(u: ConvexFn, lam: float, mu: float) -> EnvelopeFn:
    """Envelope handle with cached domain dom u + mu [-1,1]^n."""
    return EnvelopeFn(u, lam, mu)


def envelope_eval(env: EnvelopeFn, x):
    """(value, minimizer, touching quadratic) at a domain point.

    The touching quadratic t(z) = u(y0) + lam/2 ||z - y0||^2 satisfies
    t(x) = value and t >= envelope on y0 + mu C.
    """
    x = np.asarray(x, dtype=float)
    if not env.domain.contains(x):
        raise OutsideDomain(f"{x.tolist()} outside the envelope domain")
    value, y0, q = env._solve(x)
    if y0 is None:
        raise OutsideDomain("inner problem infeasible")
    base_val = q(y0)
    touch = QuadraticFn(
        env.lam * np.eye(env.dim),
        -env.lam * y0,
        base_val + 0.5 * env.lam * float(y0 @ y0),
    )
    return float(value), y0, touch


# ---------------------------------------------------------------------------
# tangential extension


def separable_clip_plq(coeffs, lin, const, lo, hi, window: Polytope) -> PLQFn:
    """PLQ form of  y -> sum_i a_i * psi_i(y_i) + <lin, y> + const  on `window`,
    where psi_i is y^2/2 clipped to linear growth outside [lo_i, hi_i].

    This is the tangential extension of the diagonal quadratic
    0.5 sum a_i x_i^2 + <lin, x> + const beyond the box [lo, hi], and equally
    the conjugate shape arising from box-restricted diagonal quadratics.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    lin = np.asarray(lin, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = len(coeffs)
    wlo, whi = window.bbox
    regions: list[list[tuple[float, float, str]]] = []
    for i in range(n):
        if coeffs[i] > EPS_GEOM:
            spans = []
            if wlo[i] < lo[i]:
                spans.append((wlo[i], lo[i], "lo"))
            spans.append((max(wlo[i], lo[i]), min(whi[i], hi[i]), "mid"))
            if whi[i] > hi[i]:
                spans.append((hi[i], whi[i], "hi"))
            regions.append(spans)
        else:
            regions.append([(wlo[i], whi[i], "mid")])
    cells = []
    for combo in itertools.product(*regions):
        A = np.zeros((n, n))
        b = lin.copy()
        c = const
        blo, bhi = np.zeros(n), np.zeros(n)
        for i, (a0, a1, tag) in enumerate(combo):
            blo[i], bhi[i] = a0, a1
            if coeffs[i] <= EPS_GEOM:
                continue
            if tag == "mid":
                A[i, i] = coeffs[i]
            else:
                cap = lo[i] if tag == "lo" else hi[i]
                b[i] += coeffs[i] * cap
                c -= 0.5 * coeffs[i] * cap * cap
        if np.any(bhi - blo <= THIN_CELL_TOL):
            continue
        cells.append((geometry.box(blo, bhi), QuadraticFn(A, b, c)))
    return certify_plq(cells, domain=geometry.box(wlo, whi))


class TangentialExtensionFn(ConvexFn):
    """Pointwise-exact maximal-minorant extension of a quadratic beyond K."""

    def __init__(self, w: QuadFn, K: Polytope, window: Polytope):
        self.w = w
        self.K = K
        self.domain = window
        self.dim = K.dim

    def evaluate(self, y) -> float:
        y = np.asarray(y, dtype=float)
        if not self.domain.contains(y):
            return np.inf
        if self.K.contains(y):
            return self.w.q(y)
        # sup over boundary-tight affine minorants: maximize the concave
        # function phi(x) = -0.5 x'Ax + x'Ay + (c + b'y) over each facet of K
        q = self.w.q
        f_const = q.c + float(q.b @ y)
        A_K, b_K = self.K.halfspaces
        best = -np.inf
        for idx in range(len(A_K)):
            a = A_K[idx]
            beta = b_K[idx]
            rows = np.vstack([A_K, -a[None, :]])
            offs = np.append(b_K, -beta)
            val, xs = min_quadratic_over_polytope(q.A, -(q.A @ y), rows, offs)
            if xs is None:
                continue
            phi = -val + f_const
            best = max(best, phi)
        return float(best)


def _is_axis_box(K: Polytope) -> bool:
    if K.is_degenerate or len(K.vertices) != 2 ** K.dim:
        return False
    lo, hi = K.bbox
    return abs(K.volume - float(np.prod(hi - lo))) <= EPS_GEOM * (1.0 + K.volume)


def tangential_extension(w: ConvexFn, K: Polytope, window: Polytope | None = None) -> ConvexFn:
    """Extend w beyond K by the supremum of its affine minorants that are
    tight at boundary points of K; the result agrees with w on K and is the
    least convex extension.  Materialized on a bounded window."""
    if window is None:
        c = K.barycenter
        window = hull(c + 3.0 * (K.vertices - c))
    if isinstance(w, PAFn) and len(w.pieces) == 1:
        return PAFn([w.pieces[0]], window)
    if isinstance(w, (QuadFn, QuadraticFn)):
        q = w.q if isinstance(w, QuadFn) else w
        if not np.all(np.isfinite(q.eval_many(K.vertices))):
            raise BadInput("w must be finite on K")
        off_diag = np.abs(q.A - np.diag(np.diag(q.A))).max(initial=0.0)
        if _is_axis_box(K) and off_diag <= EPS_GEOM:
            lo, hi = K.bbox
            return separable_clip_plq(np.diag(q.A), q.b, q.c, lo, hi, window)
        return TangentialExtensionFn(QuadFn(q), K, window)
    raise BadInput(f"unsupported input {type(w).__name__}")


# ---------------------------------------------------------------------------
# conjugate identity harness


def _dual_grid(u: PAFn, extra: float, per_axis: int = 9) -> np.ndarray:
    r = float(np.abs(u.G).max(initial=1.0)) + extra + 1.0
    axes = [np.linspace(-r, r, per_axis)] * u.dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, u.dim)


def conjugate_identities_check(u: PAFn, y, c: float, phi: AffineMap) -> list[CheckReport]:
    """Residuals of the four standard conjugate identities and the lattice
    duality (min <-> max swap) on a dual-side grid."""
    y = np.asarray(y, dtype=float)
    if not phi.is_unimodular():
        raise BadTransform(f"|det phi| = {abs(phi.det):.6g} != 1")
    us = legendre_pa(u)
    grid = _dual_grid(u, float(np.abs(y).max(initial=0.0)))

    def sup_gap(a: PAFn, b: PAFn) -> float:
        return float(np.abs(a.eval_many(grid) - b.eval_many(grid)).max())

    reports = []
    scale = 1.0 + float(np.abs(us.eval_many(grid)).max())
    tol = CONJ_CHECK_TOL * scale

    lhs = legendre_pa(u.plus_const(c))
    reports.append(CheckReport("conjugate_of_vertical_shift", sup_gap(lhs, us.plus_const(-c)), tol))

    M = phi.matrix
    lhs = legendre_pa(u.compose_affine(M, np.zeros(u.dim)))
    rhs = us.compose_affine(np.linalg.inv(M).T, np.zeros(u.dim))
    reports.append(CheckReport("conjugate_of_unimodular_compose", sup_gap(lhs, rhs), tol))

    lhs = legendre_pa(u.compose_affine(np.eye(u.dim), -y))
    rhs = us.plus_affine(AffineFn(y, 0.0))
    reports.append(CheckReport("conjugate_of_translation", sup_gap(lhs, rhs), tol))

    lhs = legendre_pa(u.plus_affine(AffineFn(y, 0.0)))
    rhs = us.translate(y)
    reports.append(CheckReport("conjugate_of_added_linear", sup_gap(lhs, rhs), tol))

    # lattice duality on a split of the domain into two halves
    P = u.domain
    a = np.zeros(u.dim)
    a[0] = 1.0
    beta = float(a @ P.barycenter)
    u1 = u.restrict(geometry.halfspace_cut(P, a, beta))
    u2 = u.restrict(geometry.halfspace_cut(P, -a, -beta))
    s1, s2 = legendre_pa(u1), legendre_pa(u2)
    v1 = np.maximum(s1.eval_many(grid), s2.eval_many(grid))
    gap_meet = float(np.abs(v1 - us.eval_many(grid)).max())
    reports.append(CheckReport("lattice_duality_min_side", gap_meet, tol))

    slice_dom = intersect(u1.domain, u2.domain)
    u_slice = PAFn(u.pieces, slice_dom)
    s_slice = legendre_pa(u_slice)
    v2 = np.minimum(s1.eval_many(grid), s2.eval_many(grid))
    gap_join = float(np.abs(v2 - s_slice.eval_many(grid)).max())
    reports.append(CheckReport("lattice_duality_max_side", gap_join, tol))
    return reports
