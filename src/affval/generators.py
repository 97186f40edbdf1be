"""Seeded random instance generators shared by the tests and the CLI checks.

All randomness flows through a numpy Generator so identical seeds reproduce
identical instances byte for byte.
"""

from __future__ import annotations

import numpy as np

from .funcs import AffineFn, PAFn, PLQFn, QuadFn, QuadraticFn
from .geometry import AffineMap, Polytope, box, hull


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def random_polytope(rng: np.random.Generator, n: int, scale: float = 2.0) -> Polytope:
    """Full-dimensional hull of a handful of random points."""
    while True:
        k = int(rng.integers(n + 2, n + 6))
        P = hull(rng.uniform(-scale, scale, size=(k, n)))
        if not P.is_degenerate:
            return P


def random_pa(rng: np.random.Generator, n: int, kmax: int = 6) -> PAFn:
    """Random compact-domain max-of-affines, pruned on its domain."""
    dom = random_polytope(rng, n)
    k = int(rng.integers(2, kmax + 1))
    pieces = [AffineFn(rng.uniform(-2, 2, n), float(rng.uniform(-1, 1)))
              for _ in range(k)]
    return PAFn(pieces, dom).pruned()


def random_finite_pa(rng: np.random.Generator, n: int, kmax: int = 7) -> PAFn:
    """Random finite-valued max-of-affines on R^n."""
    k = int(rng.integers(n + 2, max(n + 3, kmax) + 1))
    pieces = [AffineFn(rng.uniform(-2, 2, n), float(rng.uniform(-1, 1)))
              for _ in range(k)]
    return PAFn(pieces, None).pruned()


def random_psd(rng: np.random.Generator, n: int, lo: float = 0.3, hi: float = 3.0) -> np.ndarray:
    M = rng.uniform(-1, 1, size=(n, n))
    Q, _ = np.linalg.qr(M + 3 * np.eye(n))
    eigs = rng.uniform(lo, hi, n)
    return Q @ np.diag(eigs) @ Q.T


def random_unimodular(rng: np.random.Generator, n: int, shears: int = 3) -> AffineMap:
    """Product of elementary shears and a possible reflection: |det| = 1."""
    M = np.eye(n)
    if rng.integers(0, 2):
        M[0, 0] = -1.0
    for _ in range(shears if n > 1 else 0):
        i, j = rng.choice(n, size=2, replace=False)
        E = np.eye(n)
        E[i, j] = rng.uniform(-1.5, 1.5)
        M = M @ E
    return AffineMap(M, np.zeros(n))


def overlapping_box_pair(rng: np.random.Generator, n: int):
    """Two boxes equal in all axes but one, overlapping along that axis, so
    their union is convex."""
    lo = rng.uniform(-2, -1, n)
    hi = lo + rng.uniform(1.0, 2.0, n)
    axis = int(rng.integers(0, n))
    m1 = lo[axis] + 0.3 * (hi[axis] - lo[axis])
    m2 = lo[axis] + 0.7 * (hi[axis] - lo[axis])
    lo2, hi1 = lo.copy(), hi.copy()
    hi1[axis] = m2
    lo2[axis] = m1
    return box(lo, hi1), box(lo2, hi)


def meet_pair_pa(rng: np.random.Generator, n: int):
    """A PA pair whose pointwise min is convex: a shared finite max-of-affines
    restricted to two boxes with convex union."""
    base = random_finite_pa(rng, n, kmax=n + 4)
    P, Q = overlapping_box_pair(rng, n)
    return PAFn(base.pieces, P), PAFn(base.pieces, Q)


def meet_pair_plq(rng: np.random.Generator, n: int):
    """A PLQ pair with a convex pointwise min: a shared quadratic (plus a
    random affine tilt) on two boxes with convex union."""
    q = QuadraticFn(random_psd(rng, n), rng.uniform(-1, 1, n), float(rng.uniform(-1, 1)))
    P, Q = overlapping_box_pair(rng, n)
    return QuadFn(q, P), QuadFn(q, Q)


def random_plq(rng: np.random.Generator, n: int) -> PLQFn:
    """Single-cell PLQ on a random polytope."""
    q = QuadraticFn(random_psd(rng, n), rng.uniform(-1, 1, n), float(rng.uniform(-1, 1)))
    return QuadFn(q, random_polytope(rng, n)).as_plq()
