"""Polytope algebra in ambient dimensions 1-3.

Polytopes carry an irredundant vertex description; the halfspace description
is derived lazily and cached.  `hull` of the 2^n corners of an axis box whose
extents clear `BOX_EXTENT_MIN` returns them as they are, with the identity
chart: the general path would keep every corner bit for bit and find that
same chart, so the derived halfspaces and volume do not change.

Lower-dimensional ("degenerate") polytopes are first-class values with volume
zero; they expose an affine chart (origin, orthonormal basis) so that
operations can run inside the affine hull.

All values are immutable after construction and all operations are pure.
Coordinates are plain floats; the tolerances live in `numerics`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import DimMismatch, EmptyInput, NumericalLimit, SingularMap
from .numerics import (BASIS_TOL, BOX_EXTENT_MIN, COLLINEAR_TOL, EPS_GEOM, FACET_MERGE_TOL,
                       FEAS_TOL, MERGE_TOL, NORM_FLOOR, NORMAL_RANK_TOL, QHULL_JOGGLE,
                       SINGULAR_DET, VERTEX_MERGE_TOL, scale_of)

MAX_DIM = 3


def _as_point_array(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        # a flat sequence is read as several 1-d points
        pts = pts[:, None]
    return pts


_LEADER_BLOCK = 256
# _EARLIER[j, i]: row j comes before row i of a block
_EARLIER = np.triu(np.ones((_LEADER_BLOCK, _LEADER_BLOCK), dtype=bool), 1)


def max_norm_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|A_i - B_j| in the max norm for every pair of rows, 0 with no columns;
    leading axes are batch axes and broadcast.

    One column at a time: numpy reduces a short last axis slowly, and a max
    is exact, so the bits are those of `np.abs(A[..., :, None, :] -
    B[..., None, :, :]).max(axis=-1)`.
    """
    if not A.shape[-1]:
        return np.zeros(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-2]))
    D = np.abs(A[..., :, 0, None] - B[..., None, :, 0])
    for j in range(1, A.shape[-1]):
        np.maximum(D, np.abs(A[..., :, j, None] - B[..., None, :, j]), out=D)
    return D


def near_duplicate_leaders(X: np.ndarray, tol: float | np.ndarray, prefer=None):
    """Group the rows of X that lie within tol of each other (max norm).

    Row i joins the group of the first row before it, in index order, that
    leads a group and lies within tol of it; a row with no such leader leads
    a new group.  So a chain a~b~c with a and c apart gives the two groups led
    by a and c.  `tol` is a scalar or one tolerance per row, in which case the
    leader's applies.  A row with a NaN is within tol of no row and leads its
    own group.  Returns (keep, group): group[i] is the group of row i, numbered
    by leader in index order, and keep[j] the row kept for group j, the leader
    or, with `prefer`, the member of largest preference (the earliest on ties).
    """
    X = np.asarray(X, dtype=float)
    tol = np.full(len(X), tol, dtype=float)
    group = np.empty(len(X), dtype=int)
    leaders = np.zeros(0, dtype=int)
    for start in range(0, len(X), _LEADER_BLOCK):
        rows = np.arange(start, min(start + _LEADER_BLOCK, len(X)))
        if len(leaders):
            near = max_norm_distances(X[rows], X[leaders]) <= tol[leaders]
            joined = near.any(axis=1)
            group[rows[joined]] = near[joined].argmax(axis=1)
            rows = rows[~joined]
            if not len(rows):
                continue
        # near[j, i]: row i lies within tol of the earlier row j
        Xb = X[rows]
        near = max_norm_distances(Xb, Xb) <= tol[rows, None]
        near &= _EARLIER[:len(rows), :len(rows)]
        joined, first = near.any(axis=0), near.argmax(axis=0)
        # first[i] = 0 for a row that joins no earlier row, and row 0 never joins
        if joined[first].any():
            # a chain: the first near row is itself taken, so scan in order
            joined = np.zeros(len(rows), dtype=bool)
            for j in range(len(rows)):
                if not joined[j]:
                    free = near[j] & ~joined
                    first[free], joined[free] = j, True
        lead = ~joined
        ids = lead.cumsum() + (len(leaders) - 1)
        group[rows] = np.where(joined, ids[first], ids)
        leaders = np.concatenate([leaders, rows[lead]])
    if prefer is None:
        return leaders, group
    order = np.lexsort((-np.asarray(prefer, dtype=float), group))
    first = np.ones(len(order), dtype=bool)
    first[1:] = group[order[1:]] != group[order[:-1]]
    return order[first], group


def _lex_sorted(pts: np.ndarray) -> np.ndarray:
    # points in R^0 (the chart of a point) are already in order
    return pts[np.lexsort(pts.T[::-1])] if pts.shape[1] else pts


def _snap_columns(pts: np.ndarray, tol: float) -> np.ndarray:
    """Merge per-axis coordinate values closer than tol to a common
    representative.  Solve noise can leave a point an ulp outside an
    axis-aligned facet, which breaks the lexicographic ordering that hulling
    relies on; snapping restores exact ties without moving any coordinate by
    more than tol."""
    out = pts.copy()
    for j in range(pts.shape[1]):
        col = out[:, j]
        order = np.argsort(col)
        rep = col[order[0]]
        for idx in order:
            if col[idx] - rep > tol:
                rep = col[idx]
            else:
                col[idx] = rep
    return out


def _affine_chart(pts: np.ndarray):
    """Origin, orthonormal basis and rank of the affine hull of `pts`.

    Full-dimensional point sets get the identity chart so that coordinates
    pass through untouched (SVD charts would inject ulp-level rotation noise
    into quantities that are otherwise exact)."""
    n = pts.shape[1]
    origin = pts.mean(axis=0)
    centered = pts - origin
    if len(pts) == 1:
        return origin, np.zeros((n, 0)), 0
    _, s, vt = np.linalg.svd(centered, full_matrices=True)
    rank = int(np.sum(s > EPS_GEOM * scale_of(s)))
    if rank == n:
        return np.zeros(n), np.eye(n), n
    return origin, vt[:rank].T, rank


def _hull_1d(z: np.ndarray) -> np.ndarray:
    flat = z[:, 0]
    return z[[int(np.argmin(flat)), int(np.argmax(flat))]]


def _hull_2d(z: np.ndarray) -> np.ndarray:
    """Monotone chain; strictly convex corners only (collinear points dropped,
    relative to the extent, so that the result does not depend on position)."""
    extent = float((z.max(axis=0) - z.min(axis=0)).max())
    tol = COLLINEAR_TOL * extent * extent
    order = np.lexsort((z[:, 1], z[:, 0]))
    pts = z[order]

    def chain(seq):
        out: list[np.ndarray] = []
        for p in seq:
            while len(out) >= 2:
                a, b = out[-2], out[-1]
                cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                if cross <= tol:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _joggled(qhull_call, *args):
    """qhull_call(*args), retried with joggle when exact arithmetic fails; a
    second failure is a NumericalLimit, so no QhullError leaves here."""
    try:
        return qhull_call(*args)
    except QhullError:
        try:
            return qhull_call(*args, qhull_options=QHULL_JOGGLE)
        except QhullError as exc:
            lines = str(exc).splitlines()
            why = next((line for line in lines if " error" in line), lines[0] if lines else "")
            raise NumericalLimit(f"Qhull failed even with joggle: {why}") from None


def _qhull(points: np.ndarray) -> ConvexHull:
    """Qhull of the points, retried with joggle when exact arithmetic fails."""
    return _joggled(ConvexHull, points)


def halfspace_vertices(halfspaces: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """Vertices of the bounded polyhedron {x : A x + b <= 0}, given as rows
    [A b], from one Qhull halfspace intersection around a strictly interior
    point.  Coordinates carry Qhull's dual-facet error (about 1e-12
    relative): read combinatorics from them, not bits."""
    return _joggled(HalfspaceIntersection, halfspaces, interior).intersections


def _hull_3d(z: np.ndarray) -> np.ndarray:
    hull = _qhull(z)
    verts = z[hull.vertices]
    # solve noise can leave a point an ulp outside a face, which Qhull then
    # reports as a vertex; a real vertex is tight on facets whose normals
    # span the space
    eqs = hull.equations
    scale = scale_of(z)
    keep = []
    for i, v in enumerate(verts):
        tight = np.abs(eqs[:, :-1] @ v + eqs[:, -1]) <= EPS_GEOM * scale
        if np.count_nonzero(tight) >= 3 and np.linalg.matrix_rank(
                eqs[tight, :-1], tol=NORMAL_RANK_TOL) == 3:
            keep.append(i)
    return verts[keep] if keep else verts


def _hull_in_chart(z: np.ndarray, d: int) -> np.ndarray:
    if d == 0:
        return z[:1]
    if d == 1:
        return _hull_1d(z)
    if d == 2:
        return _hull_2d(z)
    return _hull_3d(z)


def _ccw_order(verts: np.ndarray) -> np.ndarray:
    c = verts.mean(axis=0)
    ang = np.arctan2(verts[:, 1] - c[1], verts[:, 0] - c[0])
    return verts[np.argsort(ang)]


def _content(v: np.ndarray) -> float:
    """Length, area or volume of the hull of points that span their space."""
    if v.shape[1] == 1:
        return float(v.max() - v.min())
    if v.shape[1] == 3:
        return float(_qhull(v).volume)
    x, y = _ccw_order(v).T
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _unit_rows(A: np.ndarray, b: np.ndarray):
    norms = np.linalg.norm(A, axis=1)
    norms[norms == 0] = 1.0
    return A / norms[:, None], b / norms


class Polytope:
    """Bounded convex polytope with synchronized V- and H-descriptions."""

    def __init__(self, vertices: np.ndarray, dim: int | None = None):
        verts = _as_point_array(vertices)
        if verts.size == 0:
            raise EmptyInput("polytope needs at least one vertex")
        n = verts.shape[1] if dim is None else dim
        if n not in (1, 2, 3):
            raise DimMismatch(f"ambient dimension {n} outside supported range 1..{MAX_DIM}")
        if not np.all(np.isfinite(verts)):
            raise ValueError("non-finite vertex coordinates")
        self.dim = n
        self.vertices = _lex_sorted(verts)
        self.vertices.setflags(write=False)

    # -- basic structure ---------------------------------------------------

    @cached_property
    def chart(self):
        """(origin, orthonormal basis (n x d)) of the affine hull."""
        origin, basis, _ = _affine_chart(self.vertices)
        return origin, basis

    @cached_property
    def intrinsic_dim(self) -> int:
        return self.chart[1].shape[1]

    @property
    def is_degenerate(self) -> bool:
        return self.intrinsic_dim < self.dim

    @cached_property
    def chart_vertices(self) -> np.ndarray:
        origin, basis = self.chart
        return (self.vertices - origin) @ basis

    @cached_property
    def bbox(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    @cached_property
    def is_box(self) -> bool:
        """Whether the vertices are the corners that `hull` takes as an axis box."""
        return _is_box(self.vertices)

    @cached_property
    def barycenter(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    @cached_property
    def diameter(self) -> float:
        lo, hi = self.bbox
        return float(np.linalg.norm(hi - lo))

    # -- H-description -----------------------------------------------------

    @cached_property
    def chart_halfspaces(self):
        """Facet inequalities of the polytope inside its own chart."""
        z = self.chart_vertices
        d = self.intrinsic_dim
        if d == 0:
            return np.zeros((0, 0)), np.zeros(0)
        if d == 1:
            flat = z[:, 0]
            A = np.array([[1.0], [-1.0]])
            b = np.array([float(flat.max()), -float(flat.min())])
            return A, b
        if d == 2:
            ordered = _ccw_order(z)
            e = np.roll(ordered, -1, axis=0) - ordered
            A = np.stack([e[:, 1], -e[:, 0]], axis=1)
            b = np.einsum("ij,ij->i", A, ordered)
            return _unit_rows(A, b)
        eqs = _qhull(z).equations
        eqs = eqs[near_duplicate_leaders(eqs, FACET_MERGE_TOL)[0]]
        return _unit_rows(eqs[:, :-1], -eqs[:, -1])

    @cached_property
    def halfspaces(self):
        """Ambient (A, b) with A x <= b.  Degenerate polytopes get paired
        +/- rows spanning the orthogonal complement of their affine hull."""
        origin, basis = self.chart
        Ac, bc = self.chart_halfspaces
        if Ac.shape[1]:
            A = Ac @ basis.T
            b = bc + Ac @ (basis.T @ origin)
        else:
            A = np.zeros((0, self.dim))
            b = np.zeros(0)
        if self.is_degenerate:
            comp = _null_complement(basis, self.dim)
            off = comp @ origin
            A = np.vstack([A, comp, -comp])
            b = np.concatenate([b, off, -off])
        return A, b

    # -- predicates ----------------------------------------------------------

    def boundary_distance(self, x) -> float:
        """max_i (a_i . x - b_i); <= 0 inside, grows outward."""
        x = np.asarray(x, dtype=float)
        A, b = self.halfspaces
        if len(A) == 0:
            return float(np.max(np.abs(x - self.vertices[0])))
        return float(np.max(A @ x - b))

    def boundary_distances(self, X: np.ndarray) -> np.ndarray:
        """`boundary_distance` of each row of X in one product."""
        A, b = self.halfspaces
        if len(A) == 0:
            return np.max(np.abs(X - self.vertices[0]), axis=1)
        return np.max(X @ A.T - b, axis=1)

    def contains(self, x, tol: float = FEAS_TOL) -> bool:
        return self.boundary_distance(x) <= tol

    def contains_many(self, X: np.ndarray, tol: float = FEAS_TOL) -> np.ndarray:
        return self.boundary_distances(X) <= tol

    def normal_cone_generators(self, x) -> np.ndarray:
        """Outer normals of facets tight at x (empty at interior points)."""
        x = np.asarray(x, dtype=float)
        A, b = self.halfspaces
        if len(A) == 0:
            return np.eye(self.dim).repeat(2, axis=0) * np.array([1, -1] * self.dim)[:, None]
        tight = np.abs(A @ x - b) <= FEAS_TOL * scale_of(b)
        return A[tight]

    # -- measures ------------------------------------------------------------

    @cached_property
    def volume(self) -> float:
        return 0.0 if self.is_degenerate else _content(self.vertices)

    # -- constructions -------------------------------------------------------

    def translate(self, y) -> "Polytope":
        return Polytope(self.vertices + np.asarray(y, dtype=float))

    def shrink(self, factor: float) -> "Polytope":
        """Contract toward the barycenter; factor in (0, 1]."""
        c = self.barycenter
        return Polytope(c + factor * (self.vertices - c))

    def grid_points(self, per_axis: int) -> np.ndarray:
        """Axis-aligned grid over the bounding box, clipped to the polytope."""
        lo, hi = self.bbox
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(self.dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        return mesh[self.contains_many(mesh)]

    def __repr__(self):
        return f"Polytope(dim={self.dim}, nverts={len(self.vertices)}, vol={self.volume:.6g})"


def _null_complement(basis: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal rows spanning the complement of the chart basis columns."""
    if basis.shape[1] == 0:
        return np.eye(n)
    full = np.linalg.svd(basis, full_matrices=True)[0]
    return full[:, basis.shape[1]:].T


# -- public constructors ------------------------------------------------------


def hull(points) -> Polytope:
    """Irredundant convex hull; lower-dimensional input yields a degenerate
    polytope (volume 0) rather than an error.

    The 2^n corners of an axis box, each column holding two values bit for
    bit and every extent above BOX_EXTENT_MIN of the scale, skip the hull:
    there the snap and the dedupe move nothing, the rank is n and the 2-d
    chain and Qhull keep every corner, so the corners are the vertices, and
    the identity chart is set as the rank test would find it (and `is_box`).
    """
    pts = _as_point_array(points)
    if pts.size == 0:
        raise EmptyInput("hull of no points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite vertex coordinates")
    n = pts.shape[1]
    if _is_box(pts):
        P = Polytope(pts)
        P.chart, P.is_box = (np.zeros(n), np.eye(n)), True
        return P
    return _general_hull(pts)


def _is_box(pts: np.ndarray) -> bool:
    """Whether the finite points are the 2^n distinct corners of their
    bounding box, with every extent above BOX_EXTENT_MIN of their scale.
    Coordinates are compared bit for bit, so a column mixing -0.0 and 0.0,
    which the general path's snap unifies, is no box."""
    n = pts.shape[1]
    if not 1 <= n <= MAX_DIM or len(pts) != 1 << n:
        return False
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    if not np.all(hi - lo > BOX_EXTENT_MIN * scale_of(pts)):
        return False
    bits = pts.view(np.int64)
    upper = bits == hi.view(np.int64)
    if not np.all(upper | (bits == lo.view(np.int64))):
        return False
    return len(set((upper @ (1 << np.arange(n))).tolist())) == len(pts)


def _general_hull(pts: np.ndarray) -> Polytope:
    """`hull` of finite points by snap, dedupe, chart and hull in the chart."""
    tol = MERGE_TOL * scale_of(pts)
    pts = _snap_columns(pts, tol)
    pts = pts[near_duplicate_leaders(pts, tol)[0]]
    n = pts.shape[1]
    origin, basis, d = _affine_chart(pts)
    if d == n:
        # identity chart: hull the raw coordinates, keeping them exact
        verts = _hull_in_chart(pts, n)
    else:
        z = (pts - origin) @ basis
        extreme = _hull_in_chart(z, d)
        verts = origin + extreme @ basis.T
    return Polytope(verts, dim=n)


def box(lo, hi) -> Polytope:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    return hull(corners)


def cube(n: int, half_width: float = 1.0) -> Polytope:
    """The centered cube [-w, w]^n."""
    return box(-half_width * np.ones(n), half_width * np.ones(n))


def segment(p, q) -> Polytope:
    return hull(np.vstack([_as_point_array([p]), _as_point_array([q])]))


def point(p) -> Polytope:
    return Polytope(_as_point_array([p]))


# -- operations ----------------------------------------------------------------


# float64 entries of one batch's largest temporary: about 1 MB
_BATCH_FLOATS = 1 << 17


def _batches(count: int, per_system: int):
    """Slices of `count` systems, each holding about _BATCH_FLOATS entries
    of temporaries at `per_system` entries per system."""
    step = max(_BATCH_FLOATS // max(per_system, 1), 1)
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


@lru_cache(maxsize=None)
def _bases(m: int, dim: int) -> np.ndarray:
    """The dim-row subsets of m rows, in `itertools.combinations` order."""
    combos = np.array(list(itertools.combinations(range(m), dim)), dtype=int).reshape(-1, dim)
    combos.setflags(write=False)
    return combos


def _basic_solutions(A: np.ndarray, b: np.ndarray, dim: int, unit: float = 1.0):
    """Basic solutions of each system {x : A[s] x <= b[s]}, A and b of shapes
    (S, m, dim) and (S, m), from one enumeration of the dim-row bases:
    (sols, feas) of shapes (S, bases, dim) and (S, bases), feas marking the
    nonsingular bases whose solution is feasible within FEAS_TOL of its
    scale, max(unit, |x|).  One right-hand side per solve and residuals
    summed column by column, so that a system has the bits it has alone."""
    combos = _bases(b.shape[1], dim)
    mats = A[:, combos]
    dets = np.abs(np.linalg.det(mats))
    row_scale = np.maximum(np.linalg.norm(A, axis=-1)[:, combos].prod(axis=-1), NORM_FLOOR)
    ok = dets > BASIS_TOL * row_scale
    sols = np.zeros(ok.shape + (dim,))
    sols[ok] = np.linalg.solve(mats[ok], b[:, combos][ok][..., None])[..., 0]
    scale = np.maximum(unit, np.abs(sols).max(axis=2))
    resid = -b[:, None, :]
    for j in range(dim):
        resid = resid + sols[:, :, j, None] * A[:, None, :, j]
    return sols, ok & np.all(resid <= (FEAS_TOL * scale)[..., None], axis=2)


def _distinct_vertices(pts: np.ndarray, unit: float = 1.0) -> np.ndarray:
    """Feasible basic solutions, sorted, one per group of points within
    VERTEX_MERGE_TOL of their scale, max(unit, |x|)."""
    pts = _lex_sorted(pts)
    return pts[near_duplicate_leaders(pts, VERTEX_MERGE_TOL * scale_of(pts, floor=unit))[0]]


def vertices_from_halfspace_systems(A: np.ndarray, b: np.ndarray, dim: int, *,
                                    unit: float = 1.0) -> list[np.ndarray]:
    """`vertices_from_halfspaces` of each system (A[s], b[s]), A and b of
    shapes (S, m, dim) and (S, m): the systems share one basis enumeration,
    in batches of about 1 MB of temporaries, and each keeps the bits it has
    alone."""
    out = []
    for part in _batches(len(b), len(_bases(b.shape[1], dim)) * max(b.shape[1], dim * dim)):
        sols, feas = _basic_solutions(A[part], b[part], dim, unit)
        out.extend(_distinct_vertices(x[f], unit) for x, f in zip(sols, feas))
    return out


def vertices_from_halfspaces(A: np.ndarray, b: np.ndarray, dim: int, *,
                             unit: float = 1.0) -> np.ndarray:
    """All vertices of {x : A x <= b} by basis enumeration.

    Suitable for the small systems arising at n <= 3; returns an empty array
    when the region is infeasible (or unbounded with no basic solutions).
    The slacks are relative to max(unit, |x|): a `unit` below 1 keeps them
    relative on regions smaller than unit scale.
    """
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    return vertices_from_halfspace_systems(A[None], b[None], dim, unit=unit)[0]


def _parallel_cuts(parallel: np.ndarray, s: np.ndarray, c: np.ndarray, tol: np.ndarray):
    """What the rows k parallel to a line (or plane) g do to it, over the
    last two axes (g, k), with s[g, k] the slack of k on g and c the cosine
    of their normals: (gone, lost).  g is lost when an earlier k with the
    same outward side (c > 0) lies on it within tol, and gone when it is
    lost or some k holds nowhere on it.  Each pair is decided from s and its
    transpose together, so that g and k agree."""
    D, E = s - np.swapaxes(s, -1, -2), s + np.swapaxes(s, -1, -2)
    tol = 2.0 * tol[(...,) + (None,) * (s.ndim - tol.ndim)]
    same = c > 0
    lost = (parallel & same & (np.abs(D) <= tol) & np.tri(s.shape[-1], k=-1, dtype=bool)).any(-1)
    cut = (parallel & np.where(same, D < -tol, E < -tol)).any(axis=-1)
    return cut | lost, lost


def _segment_lengths(a: np.ndarray, s: np.ndarray, c: np.ndarray, tol: np.ndarray,
                     live: np.ndarray | bool = True) -> np.ndarray:
    """Length of {t : a[g, k] t <= s[g, k] for every live k} on each line g,
    over the last two axes (g, k), a antisymmetric in them.  A row parallel
    to the line (|a| <= EPS_GEOM) holds on all of it or on none of it
    (`_parallel_cuts`).  Of the rows on one line only the first counts: the
    others have no segment and bound no other line."""
    parallel = np.abs(a) <= EPS_GEOM
    gone, lost = _parallel_cuts(live & parallel, s, c, tol)
    live = live & ~lost[..., None, :] & ~parallel
    bound = s / np.where(parallel, 1.0, a)
    hi = np.where(live & (a > 0), bound, np.inf).min(axis=-1)
    lo = np.where(live & (a < 0), bound, -np.inf).max(axis=-1)
    return np.where(gone, 0.0, np.maximum(hi - lo, 0.0))


def _clip_contents(A: np.ndarray, b: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Content of each polytope {x : A[s] x <= b[s]}, A and b of shapes
    (S, m, n) and (S, m), n <= 3, by Lasserre's recursion about a point
    mean[s] of it: vol_n = (1/n) sum_f h_f vol_{n-1}(F_f) over the rows f,
    h_f the distance of mean from the plane of f and F_f the part of the
    polytope on it, down to segments on lines.

    The recursion reads the rows alone, with no vertex and no tightness
    tolerance, so a facet of P that rises through the vertex merge tolerance
    across a box, or meets another in a shallow ridge, is measured as it is.
    Rows are parallel when the sine between them is at most EPS_GEOM, and
    on one plane (a facet of P on a box face up to rounding), or on one line
    within a plane, when their offsets also agree within EPS_GEOM of the
    scale: then the first of them counts and the rest bound nothing there.
    """
    n = A.shape[-1]
    norms = np.linalg.norm(A, axis=-1)
    u = A / norms[..., None]
    h = b / norms - np.einsum("smd,sd->sm", u, mean)
    tol = EPS_GEOM * np.maximum(1.0, np.abs(mean).max(axis=1))
    if n == 1:
        bound = h / u[..., 0]
        return np.maximum(np.where(u[..., 0] > 0, bound, np.inf).min(axis=1)
                          - np.where(u[..., 0] < 0, bound, -np.inf).max(axis=1), 0.0)
    # on the plane of f, at h_f u_f + y with y orthogonal to u_f, row g reads
    # (u_g - c u_f).y <= s
    c = np.einsum("sfd,sgd->sfg", u, u)
    s = h[:, None] - c * h[..., None]
    if n == 2:
        # a[f, g] = u_g . (u_f turned by +90 degrees)
        a = u[:, :, None, 0] * u[:, None, :, 1] - u[:, :, None, 1] * u[:, None, :, 0]
        return (h * _segment_lengths(a, s, c, tol)).sum(axis=1) / 2
    cross = np.cross(u[:, :, None], u[:, None])
    sine = np.linalg.norm(cross, axis=-1)
    parallel = sine <= EPS_GEOM
    gone = _parallel_cuts(parallel, s, c, tol)[0]
    # each row g not parallel to f as a line of the plane of f: w.y = rho, w a unit normal
    v = u[:, None] - c[..., None] * u[:, :, None]
    scale = np.where(parallel, 1.0, np.linalg.norm(v, axis=-1))
    w, rho = v / scale[..., None], s / scale
    # row k on the line of g in the plane of f: a[f, g, k] = u_f . (w_g x w_k)
    a = np.einsum("sfd,sfgkd->sfgk", u, np.cross(w[:, :, :, None], w[:, :, None]))
    cw = np.einsum("sfgd,sfkd->sfgk", w, w)
    lengths = _segment_lengths(a, rho[:, :, None] - cw * rho[..., None], cw, tol[:, None],
                               live=~parallel[:, :, None])
    area = 0.5 * (rho * np.where(parallel, 0.0, lengths)).sum(axis=2)
    return (h * np.where(gone, 0.0, area)).sum(axis=1) / 3


def box_clip_volumes(P: Polytope, centers: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Volumes of P intersected with each box centers[j] +/- delta / 2.

    A box is clipped only by the facets of P that cut it, a.c + |a|.delta/2 > b:
    the others hold on the whole box.  Boxes cut by the same number of facets
    share one basis enumeration of their systems [A_cut; I; -I], in batches
    of about 1 MB of temporaries.  A clip counts 0 when its distinct vertices
    fail the rank test of `Polytope.is_degenerate`; otherwise its volume comes
    from its rows by Lasserre's recursion (`_clip_contents`), with no Qhull
    call.
    """
    n = P.dim
    A, b = P.halfspaces
    out = np.zeros(len(centers))
    cut = centers @ A.T + np.abs(A) @ (delta / 2) > b
    counts = cut.sum(axis=1)
    box_A = np.vstack([np.eye(n), -np.eye(n)])
    for q in np.unique(counts):
        members = np.flatnonzero(counts == q)
        m = q + 2 * n
        # the bases' solves and residuals, or the rows' triples in `_clip_contents`
        per_box = max(len(_bases(m, n)) * max(m, n * n), n * m ** n)
        for part in _batches(len(members), per_box):
            boxes = members[part]
            c = centers[boxes]
            facets = np.nonzero(cut[boxes])[1].reshape(len(boxes), q)
            rows_A = np.concatenate([A[facets], np.broadcast_to(box_A, (len(boxes), 2 * n, n))],
                                    axis=1)
            rows_b = np.concatenate([b[facets], c + delta / 2, -(c - delta / 2)], axis=1)
            sols, feas = _basic_solutions(rows_A, rows_b, n)
            # each box's feasible solutions first; boxes with two of them within
            # the merge tolerance go through _distinct_vertices, the others keep all
            order = np.argsort(~feas, axis=1, kind="stable")[:, :feas.sum(axis=1).max(initial=0)]
            rows = np.arange(len(boxes))[:, None]
            pts, keep = sols[rows, order], feas[rows, order]
            w = keep[..., None]
            tol = VERTEX_MERGE_TOL * np.maximum(1.0, np.abs(pts * w).max(axis=(1, 2), initial=0.0))
            near = max_norm_distances(pts, pts) <= tol[:, None, None]
            near &= w & keep[:, None] & ~np.eye(pts.shape[1], dtype=bool)
            for j in np.flatnonzero(near.any(axis=(1, 2))):
                distinct = _distinct_vertices(pts[j][keep[j]])
                pts[j, :len(distinct)], keep[j] = distinct, np.arange(len(keep[j])) < len(distinct)
            # the rank test of _affine_chart, for every box in one batched SVD
            mean = (pts * w).sum(axis=1) / np.maximum(keep.sum(axis=1), 1)[:, None]
            s = np.linalg.svd((pts - mean[:, None]) * w, compute_uv=False)
            rank = np.sum(s > EPS_GEOM * np.maximum(1.0, s.max(axis=1, initial=0.0))[:, None],
                          axis=1)
            full = rank == n
            if full.any():
                out[boxes[full]] = _clip_contents(rows_A[full], rows_b[full], mean[full])
    return out


def halfspaces_bounded(A: np.ndarray) -> bool:
    """Whether {x : A x <= b} is bounded (for every b): the normals must
    positively span R^n, i.e. 0 must lie strictly inside their unit hull."""
    norms = np.linalg.norm(A, axis=1)
    U = A[norms > 0] / norms[norms > 0, None]
    if U.shape[1] == 1:
        return U.min(initial=0.0) < 0.0 < U.max(initial=0.0)
    try:
        offsets = ConvexHull(U).equations[:, -1]
    except (QhullError, ValueError):
        # too few normals, or all of them in a proper subspace
        return False
    return bool(np.all(offsets < -EPS_GEOM))


def from_halfspaces(A: np.ndarray, b: np.ndarray, dim: int) -> Polytope | None:
    """The polytope {x : A x <= b}, or None when it has no vertex."""
    pts = vertices_from_halfspaces(A, b, dim)
    return hull(pts) if len(pts) else None


def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    if P.dim != Q.dim:
        raise DimMismatch(f"{P.dim} vs {Q.dim}")
    sums = (P.vertices[:, None, :] + Q.vertices[None, :, :]).reshape(-1, P.dim)
    return hull(sums)


def intersect(P: Polytope, Q: Polytope) -> Polytope | None:
    """Intersection polytope, or None when empty."""
    if P.dim != Q.dim:
        raise DimMismatch(f"{P.dim} vs {Q.dim}")
    A1, b1 = P.halfspaces
    A2, b2 = Q.halfspaces
    return from_halfspaces(np.vstack([A1, A2]), np.concatenate([b1, b2]), P.dim)


def affine_image(P: Polytope, m: "AffineMap") -> Polytope:
    if abs(m.det) < SINGULAR_DET:
        raise SingularMap(f"|det| = {abs(m.det):.3e}")
    return hull(m.apply(P.vertices))


def polytope_difference(P: Polytope, Q: Polytope) -> list[Polytope]:
    """Partition of the closure of P \\ Q into full-dimensional polytopes."""
    if Q.is_degenerate:
        return [P] if not P.is_degenerate else []
    AQ, bQ = Q.halfspaces
    AP, bP = P.halfspaces
    parts: list[Polytope] = []
    acc_A: list[np.ndarray] = []
    acc_b: list[float] = []
    for a, beta in zip(AQ, bQ):
        A = np.vstack([AP, -a[None, :]] + [r[None, :] for r in acc_A])
        b = np.concatenate([bP, [-beta], np.asarray(acc_b)])
        piece = from_halfspaces(A, b, P.dim)
        if piece is not None and not piece.is_degenerate:
            parts.append(piece)
        acc_A.append(a)
        acc_b.append(beta)
    return parts


def halfspace_cut(P: Polytope, a, beta: float) -> Polytope | None:
    """P intersected with {x : <a, x> <= beta}, or None when empty."""
    a = np.asarray(a, dtype=float)
    A, b = P.halfspaces
    return from_halfspaces(np.vstack([A, a[None, :]]), np.append(b, float(beta)), P.dim)


def vertex_sets_equal(P: Polytope, Q: Polytope, tol: float = EPS_GEOM) -> bool:
    if P.dim != Q.dim or len(P.vertices) != len(Q.vertices):
        return False
    return bool(np.max(np.abs(P.vertices - Q.vertices)) <= tol * scale_of(P.vertices, Q.vertices))


# -- affine maps ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> matrix @ x + shift with the determinant cached."""

    matrix: np.ndarray
    shift: np.ndarray
    det: float = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        s = np.asarray(self.shift, dtype=float)
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
            raise ValueError("non-finite affine map data")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shift", s)
        object.__setattr__(self, "det", float(np.linalg.det(m)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, pts: np.ndarray) -> np.ndarray:
        pts = _as_point_array(pts)
        return pts @ self.matrix.T + self.shift

    @staticmethod
    def identity(n: int) -> "AffineMap":
        return AffineMap(np.eye(n), np.zeros(n))

    @staticmethod
    def translation(y) -> "AffineMap":
        y = np.asarray(y, dtype=float)
        return AffineMap(np.eye(len(y)), y)

    def is_unimodular(self) -> bool:
        return abs(abs(self.det) - 1.0) <= EPS_GEOM
