"""Convex functions with polytopal structure.

Representations:

* ``AffineFn``     -- l(x) = <grad, x> + c (a building block, not a ConvexFn);
* ``PAFn``         -- max of affine pieces plus the indicator of a domain
                      polytope; ``domain=None`` means finite-valued on R^n;
* ``QuadFn``       -- a single convex quadratic, optionally restricted;
* ``PLQFn``        -- quadratic on each cell of a polyhedral subdivision;
* ``CylinderFn``   -- epi-sum of a lower-dimensional function with an affine
                      function on a segment, evaluated by 1-d reduction.

Indicator functions are ``PAFn`` values with a single zero piece, so that
functionals that vanish on indicators can be tested directly.  Lattice
operations construct certified representations: ``meet`` reconstructs the
convexification of the pointwise minimum and accepts it only when a grid
certificate confirms it equals the minimum; ``join`` refines cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog  # noqa: F401  only the benchmark tracer counts calls to it

from . import geometry
from .errors import (
    BadInput,
    BadSegment,
    DegenerateDomain,
    DimMismatch,
    EmptyDomain,
    NotConvex,
    NumericalLimit,
    OutsideDomain,
)
from .geometry import Polytope, hull, intersect, minkowski_sum
from .numerics import (ACTIVE_TOL, CERT_TOL, DOMINATE_TOL, EPS_GEOM, FEAS_TOL,
                       GRAD_TOL, LINE_COEF_TOL, LOWER_FACET_TOL, MERGE_TOL, OVERLAP_TOL,
                       QHULL_VERTEX_TOL, SUBDIVISION_MERGE_TOL, VERTEX_MERGE_TOL, scale_of)


# ---------------------------------------------------------------------------
# building blocks


@dataclass(frozen=True, eq=False)
class AffineFn:
    """l(x) = <grad, x> + c."""

    grad: np.ndarray
    c: float

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.grad, dtype=float))
        if not (np.all(np.isfinite(g)) and np.isfinite(self.c)):
            raise ValueError("non-finite affine data")
        object.__setattr__(self, "grad", g)
        object.__setattr__(self, "c", float(self.c))

    @property
    def dim(self) -> int:
        return len(self.grad)

    def __call__(self, x) -> float:
        return float(self.grad @ np.asarray(x, dtype=float) + self.c)

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        return X @ self.grad + self.c


@dataclass(frozen=True, eq=False)
class QuadraticFn:
    """q(x) = 0.5 <x, A x> + <b, x> + c with symmetric A."""

    A: np.ndarray
    b: np.ndarray
    c: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if np.abs(A - A.T).max(initial=0.0) > EPS_GEOM * scale_of(A):
            raise BadInput("quadratic matrix is not symmetric")
        object.__setattr__(self, "A", 0.5 * (A + A.T))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", float(self.c))

    @property
    def dim(self) -> int:
        return len(self.b)

    @cached_property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.A).min())

    @cached_property
    def det_hessian(self) -> float:
        return float(np.linalg.det(self.A))

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.A @ x + self.b @ x + self.c)

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        return 0.5 * np.einsum("ij,jk,ik->i", X, self.A, X) + X @ self.b + self.c

    def gradient(self, x) -> np.ndarray:
        return self.A @ np.asarray(x, dtype=float) + self.b

    def compose_affine(self, M: np.ndarray, s: np.ndarray) -> "QuadraticFn":
        """q(Mx + s) as a quadratic in x."""
        M = np.asarray(M, dtype=float)
        s = np.asarray(s, dtype=float)
        A2 = M.T @ self.A @ M
        b2 = M.T @ (self.A @ s + self.b)
        c2 = 0.5 * s @ self.A @ s + self.b @ s + self.c
        return QuadraticFn(A2, b2, float(c2))

    def plus_affine(self, l: AffineFn) -> "QuadraticFn":
        return QuadraticFn(self.A, self.b + l.grad, self.c + l.c)

    def plus_const(self, t: float) -> "QuadraticFn":
        return QuadraticFn(self.A, self.b, self.c + t)


@dataclass(frozen=True, eq=False)
class SubdiffSet:
    """Subdifferential at a point: bounded part plus normal-cone generators."""

    bounded_part: Polytope
    cone_generators: np.ndarray

    @property
    def is_at_interior_point(self) -> bool:
        return len(self.cone_generators) == 0


# ---------------------------------------------------------------------------
# convex function base


class ConvexFn:
    dim: int
    domain: Polytope | None
    is_cylinder: bool = False

    def evaluate(self, x) -> float:
        raise NotImplementedError

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.evaluate(x) for x in np.asarray(X, dtype=float)])

    def __call__(self, x) -> float:
        return self.evaluate(x)


class PAFn(ConvexFn):
    """max of affine pieces, +inf outside the domain polytope (if any)."""

    def __init__(self, pieces, domain: Polytope | None = None, is_cylinder: bool = False):
        ps = tuple(p if isinstance(p, AffineFn) else AffineFn(*p) for p in pieces)
        if not ps:
            raise BadInput("a piecewise affine function needs at least one piece")
        n = ps[0].dim
        if any(p.dim != n for p in ps):
            raise DimMismatch("pieces of mixed dimension")
        if domain is not None and domain.dim != n:
            raise DimMismatch("domain dimension does not match pieces")
        self.pieces = ps
        self.domain = domain
        self.dim = n
        self.is_cylinder = is_cylinder

    @classmethod
    def indicator(cls, P: Polytope) -> "PAFn":
        return cls([AffineFn(np.zeros(P.dim), 0.0)], P)

    @classmethod
    def affine(cls, l: AffineFn, domain: Polytope | None = None) -> "PAFn":
        return cls([l], domain)

    @cached_property
    def G(self) -> np.ndarray:
        return np.array([p.grad for p in self.pieces])

    @cached_property
    def cvec(self) -> np.ndarray:
        return np.array([p.c for p in self.pieces])

    def max_values(self, X: np.ndarray) -> np.ndarray:
        """max over pieces, ignoring the domain."""
        return (X @ self.G.T + self.cvec).max(axis=1)

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self.domain is not None and not self.domain.contains(x):
            return np.inf
        return float(np.max(self.G @ x + self.cvec))

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        vals = self.max_values(X)
        if self.domain is not None:
            vals = np.where(self.domain.contains_many(X), vals, np.inf)
        return vals

    def active_gradients(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals = self.G @ x + self.cvec
        top = vals.max()
        return self.G[vals >= top - ACTIVE_TOL * scale_of(top)]

    @cached_property
    def _regions(self) -> list[np.ndarray]:
        if self.domain is None:
            raise BadInput("the activity subdivision needs a compact domain")
        return _activity_regions(self.G, self.cvec, self.domain)

    def subdivision_vertices(self):
        """Vertices of the activity subdivision of the domain, with values."""
        z = geometry._lex_sorted(np.vstack(self._regions))
        tol = SUBDIVISION_MERGE_TOL * self.domain.diameter
        z = z[geometry.near_duplicate_leaders(z, tol)[0]]
        origin, Q = self.domain.chart
        x = origin + z @ Q.T
        return x, self.max_values(x)

    @cached_property
    def cells(self):
        """Activity cells: list of (Polytope, AffineFn); full-dimensional
        relative to the domain, empty or thin cells are dropped."""
        cells = _region_cells(self._regions, self.domain)
        return [(cell, piece) for cell, piece in zip(cells, self.pieces) if cell is not None]

    def lipschitz(self) -> float:
        return float(np.linalg.norm(self.G, axis=1).max())

    # -- structural transforms ------------------------------------------------

    def compose_affine(self, M: np.ndarray, s) -> "PAFn":
        """x -> u(Mx + s); domain is mapped by the inverse."""
        M = np.asarray(M, dtype=float)
        s = np.asarray(s, dtype=float)
        pieces = [AffineFn(M.T @ p.grad, p.c + p.grad @ s) for p in self.pieces]
        dom = None
        if self.domain is not None:
            inv = np.linalg.inv(M)
            dom = hull((self.domain.vertices - s) @ inv.T)
        return PAFn(pieces, dom, self.is_cylinder)

    def translate(self, y) -> "PAFn":
        """u composed with translation by -y: x -> u(x - y)."""
        y = np.asarray(y, dtype=float)
        return self.compose_affine(np.eye(self.dim), -y)

    def plus_affine(self, l: AffineFn) -> "PAFn":
        pieces = [AffineFn(p.grad + l.grad, p.c + l.c) for p in self.pieces]
        return PAFn(pieces, self.domain, self.is_cylinder)

    def plus_const(self, t: float) -> "PAFn":
        return PAFn([AffineFn(p.grad, p.c + t) for p in self.pieces], self.domain, self.is_cylinder)

    def restrict(self, P: Polytope) -> "PAFn":
        dom = P if self.domain is None else intersect(self.domain, P)
        if dom is None:
            raise EmptyDomain("restriction is empty")
        return PAFn(self.pieces, dom, self.is_cylinder)

    def pruned(self) -> "PAFn":
        if len(self.pieces) == 1:
            return self
        G, c = _dedupe_pieces(self.G, self.cvec)
        if self.domain is None:
            mask = essential_mask_global(G, c)
        else:
            mask = essential_mask_on_domain(G, c, self.domain)
        if not mask.any():
            mask[0] = True
        pieces = [AffineFn(g, ci) for g, ci in zip(G[mask], c[mask])]
        return PAFn(pieces, self.domain, self.is_cylinder)

    def __repr__(self):
        dom = "R^n" if self.domain is None else "poly"
        return f"PAFn(k={len(self.pieces)}, dim={self.dim}, dom={dom})"


class QuadFn(ConvexFn):
    """A convex quadratic, optionally restricted to a polytope."""

    def __init__(self, q: QuadraticFn, domain: Polytope | None = None, is_cylinder: bool = False):
        if q.min_eigenvalue < -EPS_GEOM * scale_of(q.A):
            raise NotConvex(f"quadratic part has eigenvalue {q.min_eigenvalue:.3e}")
        if domain is not None and domain.dim != q.dim:
            raise DimMismatch("domain dimension mismatch")
        self.q = q
        self.domain = domain
        self.dim = q.dim
        self.is_cylinder = is_cylinder

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self.domain is not None and not self.domain.contains(x):
            return np.inf
        return self.q(x)

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        vals = self.q.eval_many(X)
        if self.domain is not None:
            vals = np.where(self.domain.contains_many(X), vals, np.inf)
        return vals

    def as_plq(self) -> "PLQFn":
        if self.domain is None:
            raise BadInput("cannot convert an unrestricted quadratic to cells")
        return PLQFn([(self.domain, self.q)], self.domain, certificate="single-cell")

    def lipschitz(self) -> float:
        if self.domain is None:
            raise BadInput("unbounded quadratic has no Lipschitz constant")
        g = self.domain.vertices @ self.q.A.T + self.q.b
        return float(np.linalg.norm(g, axis=1).max())


class PLQFn(ConvexFn):
    """Quadratic on each cell of a polyhedral subdivision of the domain."""

    def __init__(self, cells, domain: Polytope | None = None, certificate=None,
                 is_cylinder: bool = False):
        cs = tuple((P, q) for P, q in cells)
        if not cs:
            raise BadInput("a PLQ function needs at least one cell")
        n = cs[0][0].dim
        self.cells = cs
        self.dim = n
        self.domain = domain if domain is not None else hull(
            np.vstack([P.vertices for P, _ in cs])
        )
        self.certificate = certificate
        self.is_cylinder = is_cylinder

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        best = np.inf
        for P, q in self.cells:
            if P.contains(x):
                best = min(best, q(x))
        return float(best)

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        vals = np.full(len(X), np.inf)
        for P, q in self.cells:
            mask = P.contains_many(X)
            if mask.any():
                vals[mask] = np.minimum(vals[mask], q.eval_many(X[mask]))
        return vals

    def active_gradients(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        val = self.evaluate(x)
        tol = ACTIVE_TOL * scale_of(val)
        out = [q.gradient(x) for P, q in self.cells if P.contains(x) and abs(q(x) - val) <= tol]
        return np.array(out)

    def lipschitz(self) -> float:
        worst = 0.0
        for P, q in self.cells:
            g = P.vertices @ q.A.T + q.b
            worst = max(worst, float(np.linalg.norm(g, axis=1).max()))
        return worst

    def compose_affine(self, M: np.ndarray, s) -> "PLQFn":
        M = np.asarray(M, dtype=float)
        s = np.asarray(s, dtype=float)
        inv = np.linalg.inv(M)
        cells = [(hull((P.vertices - s) @ inv.T), q.compose_affine(M, s))
                 for P, q in self.cells]
        return PLQFn(cells, certificate=self.certificate, is_cylinder=self.is_cylinder)

    def translate(self, y) -> "PLQFn":
        return self.compose_affine(np.eye(self.dim), -np.asarray(y, dtype=float))

    def plus_affine(self, l: AffineFn) -> "PLQFn":
        return PLQFn([(P, q.plus_affine(l)) for P, q in self.cells],
                     self.domain, self.certificate, self.is_cylinder)

    def plus_const(self, t: float) -> "PLQFn":
        return PLQFn([(P, q.plus_const(t)) for P, q in self.cells],
                     self.domain, self.certificate, self.is_cylinder)

    def restrict(self, P: Polytope) -> "PLQFn":
        cells = []
        for C, q in self.cells:
            R = intersect(C, P)
            if R is not None and not R.is_degenerate:
                cells.append((R, q))
        if not cells:
            raise EmptyDomain("restriction has no full-dimensional cells")
        return PLQFn(cells, certificate="restriction", is_cylinder=self.is_cylinder)


class CylinderFn(ConvexFn):
    """A quadratic w epi-summed with (v + indicator of a segment J); evaluated
    by reducing the infimum to one variable along J.  Piecewise affine bases
    go through `make_cylinder`, which builds a PAFn instead."""

    def __init__(self, w: QuadFn, v: AffineFn, J: Polytope):
        self.w = w
        self.v = v
        self.J = J
        self.dim = v.dim
        self.is_cylinder = True
        self.p0 = J.vertices[0]
        self.p1 = J.vertices[-1]
        self.direction = self.p1 - self.p0
        self.domain = minkowski_sum(w.domain, J)

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        A, b = self.w.domain.halfspaces
        z = x - self.p0
        a = -(A @ self.direction)
        r = b - A @ z
        t_lo, t_hi = 0.0, 1.0
        for ai, ri in zip(a, r):
            if abs(ai) < LINE_COEF_TOL:
                if ri < -FEAS_TOL:
                    return np.inf
                continue
            bound = ri / ai
            if ai > 0:
                t_hi = min(t_hi, bound)
            else:
                t_lo = max(t_lo, bound)
        if t_lo > t_hi + FEAS_TOL:
            return np.inf
        t_lo, t_hi = min(t_lo, t_hi), max(t_lo, t_hi)
        e = self.direction
        q = self.w.q
        alpha = 0.5 * float(e @ q.A @ e)
        beta = -float(z @ q.A @ e + q.b @ e) + float(self.v.grad @ e)
        const = q(z) + self.v(self.p0)
        if alpha > LINE_COEF_TOL:
            t = float(np.clip(-beta / (2 * alpha), t_lo, t_hi))
        else:
            t = t_lo if beta >= 0 else t_hi
        return alpha * t * t + beta * t + const


# ---------------------------------------------------------------------------
# evaluation / subdifferential / Lipschitz


def subdifferential(u: ConvexFn, x) -> SubdiffSet:
    """Convex hull of active gradients plus normal-cone generators at the
    domain boundary.  Raises OutsideDomain when u(x) = +inf."""
    x = np.asarray(x, dtype=float)
    if u.domain is not None and not u.domain.contains(x):
        raise OutsideDomain(f"{x.tolist()} is outside the domain")
    if isinstance(u, (PAFn, PLQFn)):
        grads = u.active_gradients(x)
    elif isinstance(u, QuadFn):
        grads = u.q.gradient(x)[None, :]
    elif hasattr(u, "gradient"):
        grads = np.asarray(u.gradient(x), dtype=float)[None, :]
    else:
        raise BadInput(f"no subdifferential rule for {type(u).__name__}")
    bounded = hull(grads)
    if u.domain is None or u.domain.boundary_distance(x) < -FEAS_TOL:
        cone = np.zeros((0, u.dim))
    else:
        cone = u.domain.normal_cone_generators(x)
    return SubdiffSet(bounded, cone)


def lipschitz_constant(u: ConvexFn) -> float:
    """Exact Lipschitz constant for PA / PLQ / restricted quadratics."""
    if u.domain is not None and u.domain.is_degenerate:
        raise DegenerateDomain("Lipschitz constant needs a full-dimensional domain")
    if isinstance(u, (PAFn, PLQFn, QuadFn)):
        return u.lipschitz()
    if hasattr(u, "lipschitz_estimate"):
        return float(u.lipschitz_estimate())
    raise BadInput(f"no Lipschitz rule for {type(u).__name__}")


# ---------------------------------------------------------------------------
# activity subdivision and pruning


def _activity_regions(G: np.ndarray, c: np.ndarray, P: Polytope) -> list[np.ndarray]:
    """Per piece, the vertices in the chart of P of the region of P where
    that piece attains the max (empty where it never does).

    The regions are the faces of the epigraph of max_i (G_i z + c_i) over P.
    One Qhull halfspace intersection of that epigraph, capped at a height T
    above the max, finds all their vertices: piece i's region holds those
    where piece i is tight within FEAS_TOL, widened by QHULL_VERTEX_TOL of the
    epigraph's extent for Qhull's own error (no piece is tight on the cap).
    Qhull works on unit rows, with z centred at the barycentre of P and scaled
    by its half-extent per axis and t measured down from T in units of the
    epigraph's depth, so that its error is relative to the extent of the
    data rather than to its magnitude.  Qhull's coordinates only choose rows:
    each region is enumerated by `vertices_from_halfspaces` from the rows of
    [A_P; G_j - G_i], in that order, that are tight at one of its vertices.
    They include every facet of the region, and each vertex is solved from
    the same basis as when enumerating all the rows, so it has the same bits.
    A row left out that fails at a vertex found (Qhull's error hid its
    tightness) joins its system, which is enumerated again until every row
    left out holds.  Raises NumericalLimit when a Qhull vertex is tight on d
    rows or fewer, so that Qhull's error defeats the tightness test, and when
    the regions found miss a vertex of P or leave P by more than the slack,
    as on a domain thinner than the slack at its scale.

    Working inside the chart serves degenerate domains too; on a
    full-dimensional domain the chart is the identity.  Every slack is
    relative to max(min(1, diameter of P), |z|), so that it stays below the
    extent of a domain smaller than unit scale.
    """
    origin, Q = P.chart
    d = P.intrinsic_dim
    if d == 0:
        # R^0 has one point; the slack is that of vertices_from_halfspaces
        vals = G @ origin + c
        tol = FEAS_TOL * scale_of(origin)
        return [np.zeros((int(v >= vals.max() - tol), 0)) for v in vals]
    Ad, bd = P.chart_halfspaces
    Gz = G @ Q
    cz = c + G @ origin
    m, k = len(Ad), len(Gz)
    zv = P.chart_vertices
    unit = min(1.0, P.diameter)
    # rows [a, alpha, beta] of a.z + alpha t + beta <= 0: the facets of P, the pieces, the cap,
    # in Qhull's frame: z = centre + half * w, t = cap + depth * s, unit rows
    centre = zv.mean(axis=0)
    half = np.abs(zv - centre).max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        at_zv = zv @ Gz.T + cz
        top = at_zv.max()
        cap = top + scale_of(top, zv)
        depth = cap - at_zv.max(axis=1).min()
        epigraph = np.column_stack([np.vstack([Ad, Gz, np.zeros(d)]),
                                    np.concatenate([np.zeros(m), -np.ones(k), [1.0]]),
                                    np.concatenate([-bd, cz, [-cap]])])
        frame = np.column_stack([epigraph[:, :d] * half, epigraph[:, d] * depth,
                                 epigraph[:, :d] @ centre + epigraph[:, d] * cap
                                 + epigraph[:, -1]])
        norms = np.linalg.norm(frame[:, :-1], axis=1)
    # the frame holds the cap and the depth; its row norms square its entries
    if not (np.all(np.isfinite(frame)) and np.all(np.isfinite(norms))):
        raise NumericalLimit(f"gradients up to {np.abs(G).max():.3g} and intercepts up to "
                             f"{np.abs(c).max():.3g} in magnitude overflow the activity "
                             f"subdivision of a domain reaching {scale_of(P.vertices):.3g}")
    frame /= norms[:, None]
    interior = np.append(np.zeros(d), 0.5 * ((Gz @ centre + cz).max() - cap) / depth)
    verts = geometry.halfspace_vertices(frame, interior)
    z, t = centre + half * verts[:, :d], cap + depth * verts[:, d]
    # the enumeration's slack, plus Qhull's error, which grows with the epigraph
    tol = (FEAS_TOL * np.maximum(unit, np.abs(z).max(axis=1))
           + QHULL_VERTEX_TOL * (scale_of(cap, t)
                                 + np.abs(Gz).sum(axis=1).max() * scale_of(zv, floor=unit)))
    tight = norms[:, None] * (frame[:, :-1] @ verts.T + frame[:, -1:]) >= -tol
    # a vertex of the epigraph is tight on at least d + 1 of its facets
    if np.any(tight.sum(axis=0) <= d):
        raise NumericalLimit("the activity subdivision is not resolved within FEAS_TOL: "
                             "the coefficients or the domain span too many orders of magnitude")
    # piece i's rows [A_P; G_j - G_i] in the enumeration's order (row j = i is
    # zero and never kept), and those of them tight at a vertex of its region
    rows_A = np.concatenate([np.broadcast_to(Ad, (k, m, d)), Gz[None] - Gz[:, None]], axis=1)
    rows_b = np.concatenate([np.broadcast_to(bd, (k, m)), cz[:, None] - cz[None]], axis=1)
    regions = tight[m:m + k]
    kept = regions @ tight[:m + k].T
    kept[np.arange(k), m + np.arange(k)] = False
    out = [geometry.vertices_from_halfspaces(rows_A[i][kept[i]], rows_b[i][kept[i]], d, unit=unit)
           if regions[i].any() else np.zeros((0, d)) for i in range(k)]
    while True:
        # the rows left out that fail at a vertex found, with the slack of the enumeration
        owner = np.repeat(np.arange(k), [len(r) for r in out])
        pts = np.vstack(out)
        excess = np.einsum("nrd,nd->nr", rows_A[owner], pts) - rows_b[owner]
        failed = excess > FEAS_TOL * np.maximum(unit, np.abs(pts).max(axis=1, initial=0.0))[:, None]
        failed &= ~kept[owner]
        if not failed.any():
            break
        for i in np.unique(owner[failed.any(axis=1)]):
            kept[i] |= failed[owner == i].any(axis=0)
            out[i] = geometry.vertices_from_halfspaces(rows_A[i][kept[i]], rows_b[i][kept[i]], d,
                                                       unit=unit)
    # the regions tile P: each vertex of P is a region vertex and each region
    # vertex lies in P, within the slack of the enumeration at P's scale
    slack = FEAS_TOL * scale_of(zv, floor=unit)
    missing = geometry.max_norm_distances(zv, pts).min(axis=1, initial=np.inf) > slack
    if missing.any() or np.any(pts @ Ad.T - bd > slack):
        raise NumericalLimit(f"the activity subdivision of a domain of diameter {P.diameter:.3g} "
                             f"is not resolved by the enumeration slack {slack:.3g}: it "
                             f"{'misses a vertex of' if missing.any() else 'leaves'} the domain")
    return out


def _region_cells(regions: list[np.ndarray], P: Polytope) -> list[Polytope | None]:
    """Per region, its hull mapped back from the chart of P, or None unless
    it is full-dimensional relative to P."""
    origin, Q = P.chart
    cells = [hull(origin + z @ Q.T) if len(z) else None for z in regions]
    return [C if C is not None and C.intrinsic_dim == P.intrinsic_dim else None for C in cells]


def _dedupe_pieces(G: np.ndarray, c: np.ndarray):
    """Merge pieces with equal gradients, keeping the largest intercept."""
    keep, _ = geometry.near_duplicate_leaders(G, GRAD_TOL * scale_of(G), prefer=c)
    keep.sort()
    return G[keep], c[keep]


def essential_mask_global(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Mask of pieces attaining the strict max of max_i(<g_i,y> + c_i)
    somewhere; gradients assumed deduplicated.  These are the vertices of the
    lower convex hull of the lifted points (g_i, -c_i)."""
    k = len(G)
    origin, Q, d = geometry._affine_chart(G)
    mask = np.zeros(k, dtype=bool)
    if d == 0:
        mask[int(np.argmax(c))] = True
        return mask
    Z = (G - origin) @ Q
    _, _, simplices = lower_facets(Z, -c)
    if simplices is None:
        # intercepts affine in the gradients: essential = extreme gradients
        ext = hull(Z).vertices
        gap = np.abs(Z[:, None, :] - ext[None, :, :]).max(axis=2).min(axis=1)
        return gap <= EPS_GEOM * scale_of(Z)
    mask[simplices.ravel()] = True
    return mask


def essential_mask_on_domain(G: np.ndarray, c: np.ndarray, P: Polytope) -> np.ndarray:
    """Mask of the pieces that own an activity cell of P, i.e. attain the max
    on a region of P that is full-dimensional relative to P.  Reads the same
    regions and the same dimension test as `PAFn.cells`; on a point domain
    only the first piece attaining the max is kept."""
    if P.intrinsic_dim == 0:
        mask = np.zeros(len(G), dtype=bool)
        mask[int(np.argmax(G @ P.vertices[0] + c))] = True
        return mask
    cells = _region_cells(_activity_regions(G, c, P), P)
    return np.array([cell is not None for cell in cells])


# ---------------------------------------------------------------------------
# lower convex hull of lifted points -> max-of-affines


def lower_facets(z: np.ndarray, vals: np.ndarray):
    """Lower facets of the lifted points (z_i, vals_i), with z in chart
    coordinates of full column rank.

    Returns (slopes, intercepts, simplices): facet j is the graph of
    <slopes[j], .> + intercepts[j] over the simplex of the points indexed by
    simplices[j]; coplanar facets repeat their slope.  When the lifted points
    are coplanar the single affine interpolant is returned with simplices None.
    """
    d = z.shape[1]
    lifted = np.column_stack([z, vals])
    _, _, lr = geometry._affine_chart(lifted)
    if lr <= d:
        coef, *_ = np.linalg.lstsq(np.column_stack([z, np.ones(len(z))]), vals, rcond=None)
        return coef[None, :d], coef[d:], None
    ch = geometry._qhull(lifted)
    lower = ch.equations[:, d] < -LOWER_FACET_TOL
    a = ch.equations[lower]
    return -a[:, :d] / a[:, d:d + 1], -a[:, d + 1] / a[:, d], ch.simplices[lower]


def lower_hull_pieces(points: np.ndarray, values: np.ndarray):
    """Largest convex function below the given graph points, as
    (pieces, domain).  The function equals the lower convex hull of the
    lifted point set over the hull of the points."""
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    origin, Q, d = geometry._affine_chart(pts)
    z = (pts - origin) @ Q
    # merge coincident base points, keeping the lowest value
    keep, _ = geometry.near_duplicate_leaders(z, MERGE_TOL * scale_of(z), prefer=-vals)
    z, vals = z[keep], vals[keep]
    domain = hull(pts)
    if d == 0:
        return [AffineFn(np.zeros(pts.shape[1]), float(vals.min()))], domain
    slopes, intercepts, _ = lower_facets(z, vals)
    G = slopes @ Q.T
    G, c = _dedupe_pieces(G, intercepts - G @ origin)
    return [AffineFn(g, ci) for g, ci in zip(G, c)], domain


# ---------------------------------------------------------------------------
# lattice operations


def _as_plq(u: ConvexFn) -> PLQFn:
    if isinstance(u, PLQFn):
        return u
    if isinstance(u, QuadFn):
        return u.as_plq()
    if isinstance(u, PAFn):
        if u.domain is None:
            raise BadInput("cell form needs a compact domain")
        cells = [(P, QuadraticFn(np.zeros((u.dim, u.dim)), l.grad, l.c))
                 for P, l in u.cells]
        return PLQFn(cells, u.domain, certificate="from-pa")
    raise BadInput(f"cannot view {type(u).__name__} as PLQ")


def _check_pair(u: ConvexFn, v: ConvexFn):
    if u.dim != v.dim:
        raise DimMismatch(f"{u.dim} vs {v.dim}")
    if u.domain is None or v.domain is None:
        raise BadInput("lattice operations need compact domains")


def _grid_over(D: Polytope, per_axis: int) -> np.ndarray:
    if D.is_degenerate:
        origin, Q = D.chart
        d = D.intrinsic_dim
        zc = D.chart_vertices
        lo, hi = zc.min(axis=0), zc.max(axis=0)
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        return origin + mesh @ Q.T
    return D.grid_points(per_axis)


def _certificate_points(u: ConvexFn, v: ConvexFn, D: Polytope, target: int = 1000):
    """Sample D plus both input domains, so a reconstruction that misses part
    of the union cannot slip past the certificate."""
    per_axis = max(3, int(round(target ** (1.0 / D.dim))))
    parts = [_grid_over(D, per_axis), D.vertices]
    for P in (u.domain, v.domain):
        parts.append(_grid_over(P, max(3, per_axis // 2)))
        parts.append(P.vertices)
    return np.vstack(parts)


def meet(u: ConvexFn, v: ConvexFn) -> ConvexFn:
    """Pointwise minimum, accepted only when convex.

    For PA inputs the convexification of the min is rebuilt from lifted
    subdivision vertices and certified against the pointwise min on a grid;
    for PLQ inputs the cells are refined.  Raises NotConvex otherwise.
    """
    _check_pair(u, v)
    if isinstance(u, PAFn) and isinstance(v, PAFn):
        return _meet_pa(u, v)
    return _meet_plq(_as_plq(u), _as_plq(v))


def _min_certificate(w: ConvexFn, u: ConvexFn, v: ConvexFn, D: Polytope):
    pts = _certificate_points(u, v, D)
    wv = w.eval_many(pts)
    mv = np.minimum(u.eval_many(pts), v.eval_many(pts))
    finite_w = np.isfinite(wv)
    finite_m = np.isfinite(mv)
    if np.any(finite_w & ~finite_m):
        raise NotConvex("union of domains is not convex")
    both = finite_w & finite_m
    if np.any(finite_m & ~finite_w):
        raise NotConvex("reconstructed function misses part of the union")
    scale = 1.0 + float(np.abs(mv[both]).max(initial=0.0))
    gap = float(np.abs(wv[both] - mv[both]).max(initial=0.0))
    if gap > CERT_TOL * scale:
        raise NotConvex(f"pointwise min differs from its convexification by {gap:.3e}")


def _meet_pa(u: PAFn, v: PAFn) -> PAFn:
    pu, valu = u.subdivision_vertices()
    pv, valv = v.subdivision_vertices()
    pieces, dom = lower_hull_pieces(np.vstack([pu, pv]), np.concatenate([valu, valv]))
    w = PAFn(pieces, dom)
    _min_certificate(w, u, v, dom)
    return w


def _min_cells(R: Polytope, qi: QuadraticFn, qj: QuadraticFn, take_max: bool = False):
    dA = qi.A - qj.A
    if np.abs(dA).max(initial=0.0) <= EPS_GEOM * scale_of(qi.A, qj.A):
        g = qi.b - qj.b
        c0 = qi.c - qj.c
        if np.abs(g).max(initial=0.0) <= GRAD_TOL:
            pick = qi if (c0 <= 0) != take_max else qj
            return [(R, pick)]
        # difference is affine: split along its zero hyperplane
        first, second = (qi, qj) if not take_max else (qj, qi)
        out = []
        for a, beta, q in ((g, -c0, first), (-g, c0, second)):
            part = geometry.halfspace_cut(R, a, beta)
            if part is not None and not part.is_degenerate:
                out.append((part, q))
        return out if out else [(R, qi)]
    # different Hessians: only accept when one dominates throughout the cell
    samples = _cell_samples(R)
    d = qi.eval_many(samples) - qj.eval_many(samples)
    tol = DOMINATE_TOL * (1.0 + float(np.abs(d).max(initial=0.0)))
    if np.all(d <= tol):
        return [(R, qi if not take_max else qj)]
    if np.all(d >= -tol):
        return [(R, qj if not take_max else qi)]
    raise NotConvex("quadratic pieces cross inside a shared cell")


def _cell_samples(R: Polytope) -> np.ndarray:
    return np.vstack([_facet_samples(R.vertices), R.grid_points(5)])


def _refined_cells(u: PLQFn, v: PLQFn, take_max: bool):
    Du, Dv = u.domain, v.domain
    cells = []
    if not take_max:
        for P, q in u.cells:
            for part in geometry.polytope_difference(P, Dv):
                cells.append((part, q))
        for P, q in v.cells:
            for part in geometry.polytope_difference(P, Du):
                cells.append((part, q))
    for Pi, qi in u.cells:
        for Qj, qj in v.cells:
            R = intersect(Pi, Qj)
            if R is None or R.is_degenerate:
                continue
            cells.extend(_min_cells(R, qi, qj, take_max=take_max))
    return cells


def _meet_plq(u: PLQFn, v: PLQFn) -> PLQFn:
    cells = _refined_cells(u, v, take_max=False)
    if not cells:
        raise NotConvex("no full-dimensional cells in the union")
    w = certify_plq(cells)
    _min_certificate(w, u, v, w.domain)
    return w


def join(u: ConvexFn, v: ConvexFn) -> ConvexFn:
    """Pointwise maximum on the intersection of domains."""
    _check_pair(u, v)
    if isinstance(u, PAFn) and isinstance(v, PAFn):
        dom = intersect(u.domain, v.domain)
        if dom is None:
            raise EmptyDomain("domains do not intersect")
        w = PAFn(list(u.pieces) + list(v.pieces), dom)
        return w.pruned()
    up, vp = _as_plq(u), _as_plq(v)
    overlap = intersect(up.domain, vp.domain)
    if overlap is None:
        raise EmptyDomain("domains do not intersect")
    if overlap.is_degenerate:
        raise NotConvex("join over a lower-dimensional overlap is not representable")
    cells = _refined_cells(up, vp, take_max=True)
    if not cells:
        raise EmptyDomain("intersection has no full-dimensional cells")
    return certify_plq(cells)


# ---------------------------------------------------------------------------
# PLQ certification


def certify_plq(cells, domain: Polytope | None = None) -> PLQFn:
    """Validate a cell list as a convex PLQ function.

    Checks per-cell positive semidefiniteness, volume cover of the domain,
    then for every pair of cells that meets: disjoint interiors, continuity
    across their shared facet (sampled at its vertices, their mean and their
    midpoints) and monotonicity of the gradient jump along the facet normal.
    Raises NotConvex with the offending cell or pair: the first failing pair
    in `itertools.combinations` order, and for that pair its first failing
    check in that order.

    Only pairs whose bounding boxes meet within FEAS_TOL of the coordinate
    scale are examined: cells further apart share no facet and no interior.
    `_pair_meets` finds where each pair meets, two axis boxes in closed form
    and the rest by one batched enumeration, and the facet checks then run
    for all pairs at once, one batch per facet vertex count.  A shared facet
    is read from its vertices without a hull, so the residuals differ from a
    hull's by rounding; a full-dimensional overlap is hulled, to measure its
    volume.
    """
    cs = [(P, q) for P, q in cells if not P.is_degenerate]
    if not cs:
        raise NotConvex("no full-dimensional cells")
    n = cs[0][0].dim
    for idx, (P, q) in enumerate(cs):
        if q.min_eigenvalue < -EPS_GEOM * scale_of(q.A):
            raise NotConvex(f"cell {idx}: quadratic not PSD (min eig {q.min_eigenvalue:.3e})")
    dom = domain if domain is not None else hull(np.vstack([P.vertices for P, _ in cs]))
    total = sum(P.volume for P, _ in cs)
    if abs(total - dom.volume) > CERT_TOL * (1.0 + dom.volume):
        raise NotConvex(
            f"cells cover {total:.12g} of domain volume {dom.volume:.12g}")
    lo, hi = (np.array([P.bbox[k] for P, _ in cs]) for k in (0, 1))
    below = np.all(lo[:, None] <= hi[None] + FEAS_TOL * scale_of(lo, hi), axis=2)
    pairs = np.argwhere(np.triu(below & below.T, k=1))
    vol = np.array([P.volume for P, _ in cs])
    bary = np.array([P.barycenter for P, _ in cs])
    A = np.array([q.A for _, q in cs])
    b = np.array([q.b for _, q in cs])
    c = np.array([q.c for _, q in cs])
    facet = np.zeros(len(pairs), dtype=bool)
    cont, mono = np.zeros((2, len(pairs)))
    # each pair's first failing check: 1 overlap, 2 value jump, 3 gradient jump
    fault = np.zeros(len(pairs), dtype=int)
    for at, V, rank, nu in _pair_meets([P for P, _ in cs], pairs):
        i, j = pairs[at].T
        full = rank == n
        fault[at[full]] = [hull(v).volume > OVERLAP_TOL * (1.0 + min(vol[k], vol[m]))
                           for v, k, m in zip(V[full], i[full], j[full])]
        f = rank == n - 1
        at, V, i, j, nu = at[f], V[f], i[f], j[f], nu[f]
        facet[at] = True
        X = _facet_samples(V)
        vi, vj = (0.5 * np.einsum("gsk,gkl,gsl->gs", X, A[k], X)
                  + np.einsum("gsk,gk->gs", X, b[k]) + c[k, None] for k in (i, j))
        cont[at] = np.abs(vi - vj).max(axis=1)
        vscale = 1.0 + np.maximum(np.abs(vi).max(axis=1), np.abs(vj).max(axis=1))
        # turn each normal to point from cell i into cell j
        flip = np.einsum("gk,gk->g", nu, bary[j] - bary[i]) < 0
        nu[flip] = -nu[flip]
        jump = (np.einsum("gsk,glk,gl->gs", X, A[j] - A[i], nu)
                + np.einsum("gk,gk->g", b[j] - b[i], nu)[:, None])
        mono[at] = jump.min(axis=1)
        fault[at] = np.select([cont[at] > CERT_TOL * vscale,
                               mono[at] < -CERT_TOL * (1.0 + np.abs(jump).max(axis=1))], [2, 3])
    bad = np.flatnonzero(fault)
    if len(bad):
        k = bad[0]
        i, j = pairs[k].tolist()
        if fault[k] == 1:
            raise NotConvex(f"cells {i} and {j} have overlapping interiors")
        if fault[k] == 2:
            raise NotConvex(f"value jump {cont[k]:.3e} across facet of cells {i},{j}")
        raise NotConvex(f"gradient jump {mono[k]:.3e} against the facet normal of cells {i},{j}")
    checks = zip(pairs[facet].tolist(), cont[facet].tolist(), mono[facet].tolist())
    return PLQFn(cs, dom, certificate=tuple((i, j, r, s) for (i, j), r, s in checks))


def _pair_meets(cells: list[Polytope], pairs: np.ndarray):
    """Where each pair (i, j) of rows of `pairs` meets, in groups (at, V,
    rank, nu): the pairs pairs[at], whose meets have the vertices V, of shape
    (len(at), k, n), the ranks `rank` and, where the rank is n - 1, the unit
    normals nu (any sign).  Pairs that do not meet are in no group.

    Two axis boxes (`Polytope.is_box`) meet in the box [max lo, min hi] of
    their corners: no halfspace, Qhull or basis enumeration.  As in the
    enumeration, the meet is empty when some extent is below -FEAS_TOL of its
    scale, and an axis of extent at most VERTEX_MERGE_TOL of it collapses to
    its lower end, the corner the enumeration's merge keeps.  The other pairs
    take `_cell_pair_vertices`, and the rank and normal of
    `geometry._affine_chart` from one batched SVD per vertex count.
    """
    n = cells[0].dim
    boxed = np.array([P.is_box for P in cells])[pairs].all(axis=1)
    at = np.flatnonzero(boxed)
    i, j = pairs[at].T
    lo, hi = (np.array([P.bbox[k] for P in cells]) for k in (0, 1))
    lo, hi = np.maximum(lo[i], lo[j]), np.minimum(hi[i], hi[j])
    scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)).max(axis=1, initial=0.0))[:, None]
    meets = np.all(hi - lo >= -FEAS_TOL * scale, axis=1)
    thin = hi - lo <= VERTEX_MERGE_TOL * scale
    lo = np.where(thin, np.minimum(lo, hi), lo)
    # the 2^n corners in lexicographic order; a thin axis keeps its lower end
    upper = (np.arange(1 << n)[:, None] >> np.arange(n)[::-1] & 1).astype(bool)
    corners = np.where(upper, hi[:, None], lo[:, None])
    kept = ~(upper & thin[:, None]).any(axis=2)
    rank = n - thin.sum(axis=1)
    for d in np.unique(rank[meets]):
        g = meets & (rank == d)
        V = corners[g][kept[g]].reshape(-1, 1 << d, n)
        yield at[g], V, rank[g], thin[g].astype(float)
    rest = np.flatnonzero(~boxed)
    verts = _cell_pair_vertices(cells, pairs[rest])
    counts = np.array([len(v) for v in verts], dtype=int)
    for k in np.unique(counts[counts > 0]):
        g = np.flatnonzero(counts == k)
        V = np.array([verts[m] for m in g])
        _, s, vt = np.linalg.svd(V - V.mean(axis=1, keepdims=True), full_matrices=True)
        tol = EPS_GEOM * np.maximum(1.0, s.max(axis=1))
        yield rest[g], V, np.sum(s > tol[:, None], axis=1), vt[:, -1]


def _cell_pair_vertices(cells: list[Polytope], pairs) -> list[np.ndarray]:
    """For each pair (i, j), the vertices of cells[i] meet cells[j] that
    `intersect` hulls: `vertices_from_halfspaces` of their stacked rows, with
    its bits, from one batched enumeration per total row count.  Only the
    cells of some pair have their halfspaces read."""
    H = {k: cells[k].halfspaces for k in np.unique(np.asarray(pairs, dtype=int)).tolist()}
    rows = np.array([len(H[i][1]) + len(H[j][1]) for i, j in pairs], dtype=int)
    out: list[np.ndarray] = [np.zeros((0, 0))] * len(pairs)
    for m in np.unique(rows):
        at = np.flatnonzero(rows == m)
        A = np.stack([np.vstack([H[pairs[k][0]][0], H[pairs[k][1]][0]]) for k in at])
        b = np.stack([np.concatenate([H[pairs[k][0]][1], H[pairs[k][1]][1]]) for k in at])
        for k, verts in zip(at, geometry.vertices_from_halfspace_systems(A, b, cells[0].dim)):
            out[k] = verts
    return out


def _facet_samples(v: np.ndarray) -> np.ndarray:
    """The points v, their mean and the midpoints of every pair of them, over
    the last two axes, so that a stack of point sets is sampled at once."""
    i, j = np.triu_indices(v.shape[-2], 1)
    return np.concatenate([v, v.mean(axis=-2, keepdims=True), (v[..., i, :] + v[..., j, :]) / 2],
                          axis=-2)


# ---------------------------------------------------------------------------
# cylinder construction


def make_cylinder(w: ConvexFn, v: AffineFn, J: Polytope) -> ConvexFn:
    """Epi-sum of w with (v + indicator of segment J), flagged as a cylinder.

    Requires dom w to be lower-dimensional, so the result is affine along the
    direction of J and simple valuations vanish on it.
    """
    if J.intrinsic_dim != 1:
        raise BadSegment(f"J has intrinsic dimension {J.intrinsic_dim}, expected 1")
    if w.domain is None or not w.domain.is_degenerate:
        raise BadInput("a strict cylinder needs a lower-dimensional base domain")
    if isinstance(w, PAFn):
        from .transforms import inf_conv_pa

        res = inf_conv_pa(w, PAFn([v], J))
        return PAFn(res.pieces, res.domain, is_cylinder=True)
    if isinstance(w, QuadFn):
        return CylinderFn(w, v, J)
    raise BadInput(f"unsupported base type {type(w).__name__}")
