"""Seeded input generator owned by the benchmark.

Uses numpy only and never calls ``affval``: every input is written as raw
arrays (gradients, intercepts, vertices or halfspaces, PSD matrices, query
points) in the JSON formats the ``affval`` CLI reads.  The same
``numpy.random.Generator`` state gives the same inputs byte for byte.

Sizes are fixed by the caller; the seed only moves numbers.  Pieces are
tangent planes of a strictly convex quadratic at distinct points, so every
piece is essential and the piece count of an input is exactly the requested
``k``.  Polytopes are affine images of point sets in convex position (vertex
form) or of halfspaces tangent to the unit ball (halfspace form), so their
vertex or facet count is fixed too.  That keeps per-op cost a property of
the workload, not of the seed.
"""

from __future__ import annotations

import json

import numpy as np


def _rotation(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _sphere_directions(rng, n, count):
    """`count` well-spread unit vectors in R^n (n = 1, 2, 3)."""
    if n == 1:
        return np.array([[-1.0], [1.0]])
    if n == 2:
        ang = 2 * np.pi * (np.arange(count) + rng.uniform(-0.3, 0.3, count)) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    # a tetrahedron, the dual tetrahedron (together a cube), then face
    # centres, jittered; the first `count` are used
    corners = [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    even = [p for p in corners if np.prod(p) > 0]
    odd = [p for p in corners if np.prod(p) < 0]
    faces = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    base = np.array(even + odd + faces, dtype=float)[:count]
    base /= np.linalg.norm(base, axis=1)[:, None]
    d = base + rng.uniform(-0.12, 0.12, base.shape)
    return d / np.linalg.norm(d, axis=1)[:, None]


class Poly:
    """A random full-dimensional polytope x = centre + M z, with z in a
    unit-scale shape, in vertex or halfspace form."""

    def __init__(self, rng, n, form, count=None):
        self.n, self.form = n, form
        self.centre = rng.uniform(-1.0, 1.0, n)
        self.M = _rotation(rng, n) @ np.diag(rng.uniform(0.7, 1.3, n))
        if n == 1:
            count = 2
        if form == "vertices":
            count = count or (6 if n == 2 else 8)
            self.vertices = self.centre + _sphere_directions(rng, n, count) @ self.M.T
        else:
            if n == 3:
                count = max(count or 8, 6)
                # the six axis normals guarantee boundedness; extra ones cut corners
                axes = np.vstack([np.eye(3), -np.eye(3)])
                extra = _sphere_directions(rng, 3, 8)[: count - 6]
                u = np.vstack([axes, extra])
            else:
                count = count or 6
                u = _sphere_directions(rng, n, count)
            Minv_t = np.linalg.inv(self.M).T
            self.normals = u @ Minv_t.T
            self.offsets = 1.0 + self.normals @ self.centre

    def to_json(self) -> dict:
        if self.form == "vertices":
            return {"dim": self.n, "vertices": self.vertices.tolist()}
        return {"dim": self.n, "halfspaces": [
            {"normal": a.tolist(), "offset": float(b)} for a, b in zip(self.normals, self.offsets)]}

    def interior(self, rng, count) -> np.ndarray:
        """Points strictly inside the polytope."""
        if self.form == "vertices":
            w = rng.dirichlet(np.ones(len(self.vertices)), size=count)
            return 0.05 * self.centre + 0.95 * (w @ self.vertices)
        # the unit ball is inscribed in the halfspace shape
        d = rng.normal(size=(count, self.n))
        d /= np.linalg.norm(d, axis=1)[:, None]
        r = 0.9 * rng.uniform(0.0, 1.0, (count, 1)) ** (1.0 / self.n)
        return self.centre + (r * d) @ self.M.T


def tangent_pieces(rng, points):
    """Tangent planes of kappa/2 |x - o|^2 + <g0, x> at `points`: each piece is
    the strict maximum near its own point, so all pieces are essential."""
    n = points.shape[1]
    kappa = rng.uniform(0.6, 1.6)
    o = rng.uniform(-0.5, 0.5, n)
    g0 = rng.uniform(-0.5, 0.5, n)
    grads = kappa * (points - o) + g0
    phi = 0.5 * kappa * np.sum((points - o) ** 2, axis=1) + points @ g0
    return grads, phi - np.sum(grads * points, axis=1)


def pa_json(grads, cs, domain) -> dict:
    return {"type": "pa",
            "pieces": [{"grad": g.tolist(), "c": float(c)} for g, c in zip(grads, cs)],
            "domain": domain}


def compact_pa(rng, n, k, form, count=None):
    """(function JSON, Poly) for a k-piece PA function on a random polytope
    with `count` vertices (vertex form) or facets (halfspace form)."""
    P = Poly(rng, n, form, count)
    grads, cs = tangent_pieces(rng, P.interior(rng, k))
    return pa_json(grads, cs, P.to_json()), P


def finite_pa(rng, n, k):
    """k-piece finite-valued PA function on R^n."""
    centre = rng.uniform(-1.0, 1.0, n)
    d = rng.normal(size=(k, n))
    d /= np.linalg.norm(d, axis=1)[:, None]
    pts = centre + d * rng.uniform(0.3, 1.5, (k, 1)) ** (1.0 / n)
    grads, cs = tangent_pieces(rng, pts)
    return pa_json(grads, cs, None)


def psd_matrix(rng, n):
    """Symmetric positive definite, eigenvalues in [0.4, 2.5]."""
    Q = _rotation(rng, n)
    A = Q @ np.diag(rng.uniform(0.4, 2.5, n)) @ Q.T
    return 0.5 * (A + A.T)


def quad_cell_plq(rng, n, form):
    """(single-cell PLQ JSON, Poly): a PSD quadratic on a random polytope."""
    P = Poly(rng, n, form)
    A = psd_matrix(rng, n)
    cell = {"poly": P.to_json(), "A": A.tolist(), "b": rng.uniform(-1, 1, n).tolist(),
            "c": float(rng.uniform(-1, 1))}
    return {"type": "plq", "cells": [cell]}, P


def shift_plq(fn: dict, y, slope, const) -> dict:
    """u(x - y) + <slope, x> + const for a PLQ JSON whose cells are in
    vertex form: Hessians, cell volumes and continuity are unchanged."""
    y = np.asarray(y, dtype=float)
    slope = np.asarray(slope, dtype=float)
    cells = []
    for c in fn["cells"]:
        A = np.asarray(c["A"], dtype=float)
        b = np.asarray(c["b"], dtype=float)
        verts = np.asarray(c["poly"]["vertices"], dtype=float) + y
        cells.append({
            "poly": {"dim": c["poly"]["dim"], "vertices": verts.tolist()},
            "A": c["A"],
            "b": (b - A @ y + slope).tolist(),
            "c": float(c["c"] - b @ y + 0.5 * y @ A @ y + const),
        })
    return {"type": "plq", "cells": cells}


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)
