import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affval.errors import DimMismatch, EmptyInput, NumericalLimit, SingularMap
from affval.geometry import (
    AffineMap,
    _LEADER_BLOCK,
    _general_hull,
    _is_box,
    _qhull,
    affine_image,
    box,
    cube,
    from_halfspaces,
    halfspaces_bounded,
    hull,
    intersect,
    minkowski_sum,
    near_duplicate_leaders,
    point,
    polytope_difference,
    segment,
    vertex_sets_equal,
    vertices_from_halfspaces,
)
from affval.numerics import BOX_EXTENT_MIN


def test_hull_drops_redundant_points():
    P = hull([[0, 0], [1, 0], [0, 1], [0.25, 0.25]])
    assert len(P.vertices) == 3
    assert not P.is_degenerate


def test_hull_flags_degenerate_segment():
    P = hull([[0, 0], [1, 1]])
    assert P.is_degenerate
    assert P.intrinsic_dim == 1
    assert P.volume == 0.0


def test_hull_of_sign_vectors_is_cube():
    pts = [[sx, sy] for sx in (1, -1) for sy in (-1, 1)]
    P = hull(pts)
    assert len(P.vertices) == 4
    assert P.volume == pytest.approx(4.0)


def test_hull_empty_input_raises():
    with pytest.raises(EmptyInput):
        hull(np.zeros((0, 2)))


def test_volume_examples():
    assert cube(2).volume == pytest.approx(4.0)
    assert hull([[0, 0], [1, 0], [0, 1]]).volume == pytest.approx(0.5)
    assert segment([0, 0], [1, 1]).volume == 0.0
    assert cube(3).volume == pytest.approx(8.0)


def test_minkowski_sum_intervals():
    S = minkowski_sum(box([0], [1]), box([0], [2]))
    assert np.allclose(S.vertices.ravel(), [0, 3])


def test_minkowski_square_plus_segment():
    S = minkowski_sum(box([0, 0], [1, 1]), segment([0, 0], [1, 0]))
    assert S.volume == pytest.approx(2.0)
    lo, hi = S.bbox
    assert np.allclose(lo, [0, 0]) and np.allclose(hi, [2, 1])


def test_minkowski_identity_with_origin():
    P = hull([[0, 0], [2, 0], [1, 3]])
    S = minkowski_sum(P, point([0, 0]))
    assert S.volume == P.volume  # exact
    assert np.allclose(S.vertices, P.vertices)


def test_minkowski_dim_mismatch():
    with pytest.raises(DimMismatch):
        minkowski_sum(box([0], [1]), cube(2))


def test_intersect_intervals():
    S = intersect(box([0], [2]), box([1], [3]))
    assert np.allclose(S.vertices.ravel(), [1, 2])


def test_intersect_empty_is_none():
    assert intersect(cube(2), box([2, 2], [3, 3])) is None


def test_intersect_idempotent():
    P = hull([[0, 0], [2, 0], [1, 3], [0, 2]])
    S = intersect(P, P)
    assert np.allclose(S.vertices, P.vertices)


def test_affine_image_rotation_preserves_square():
    rot = AffineMap(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2))
    S = affine_image(cube(2), rot)
    assert np.allclose(S.vertices, cube(2).vertices)


def test_affine_image_shear_preserves_volume():
    shear = AffineMap(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2))
    S = affine_image(box([0, 0], [1, 1]), shear)
    assert S.volume == pytest.approx(1.0, abs=1e-12)


def test_affine_image_diagonal_scaling():
    m = AffineMap(np.diag([2.0, 0.5]), np.zeros(2))
    S = affine_image(cube(2), m)
    lo, hi = S.bbox
    assert np.allclose(lo, [-2, -0.5]) and np.allclose(hi, [2, 0.5])
    assert S.volume == pytest.approx(4.0)


def test_affine_image_singular_raises():
    with pytest.raises(SingularMap):
        affine_image(cube(2), AffineMap(np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros(2)))


def test_dimension_cap():
    with pytest.raises(DimMismatch):
        hull(np.eye(4))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10_000))
def test_volume_scales_by_determinant(n, seed):
    rng = np.random.default_rng(seed)
    P = hull(rng.uniform(-2, 2, size=(n + 3, n)))
    if P.is_degenerate:
        return
    M = rng.uniform(-1.5, 1.5, size=(n, n)) + 2 * np.eye(n)
    m = AffineMap(M, rng.uniform(-1, 1, n))
    if abs(m.det) < 1e-6:
        return
    S = affine_image(P, m)
    assert S.volume == pytest.approx(abs(m.det) * P.volume, rel=1e-9)


def test_hull_idempotent_on_vertices():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        P = hull(rng.uniform(-2, 2, size=(n + 4, n)))
        Q = hull(P.vertices)
        assert np.allclose(P.vertices, Q.vertices)


def test_halfspaces_tight_and_feasible():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(5):
            P = hull(rng.uniform(-2, 2, size=(n + 4, n)))
            if P.is_degenerate:
                continue
            A, b = P.halfspaces
            slack = P.vertices @ A.T - b
            assert slack.max() <= 1e-9 * max(1.0, np.abs(b).max())
            # every facet is tight at >= n vertices
            tight_counts = (np.abs(slack) <= 1e-7).sum(axis=0)
            assert (tight_counts >= n).all()


def test_vertices_from_halfspaces_unit_box():
    A = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    b = np.array([1.0, 0, 1, 0])
    pts = vertices_from_halfspaces(A, b, 2)
    assert len(pts) == 4


def test_from_halfspaces_box_and_empty():
    A = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    P = from_halfspaces(A, np.array([1.0, 0, 1, 0]), 2)
    assert vertex_sets_equal(P, box([0, 0], [1, 1]))
    # x <= 1 and x >= 2: no point
    assert from_halfspaces(A, np.array([1.0, -2, 1, 0]), 2) is None


@pytest.mark.parametrize("normals, bounded", [
    ([[1.0], [-1.0]], True),
    ([[1.0], [2.0]], False),
    ([[1.0, 0], [-1, 0], [0, 1], [0, -1]], True),
    ([[-1.0, 0], [0, -1], [1, -1]], False),          # a wedge
    ([[1.0, 0], [-1, 0], [0, 0]], False),            # a strip
    ([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], False),
    (np.vstack([np.eye(3), -np.eye(3)]), True),
])
def test_halfspaces_bounded(normals, bounded):
    assert halfspaces_bounded(np.asarray(normals, dtype=float)) == bounded


def test_qhull_failure_after_joggle_is_an_affval_error():
    # two points in the plane span no simplex, with or without joggle
    with pytest.raises(NumericalLimit, match="QH6214"):
        _qhull(np.array([[-0.34, 5.99e7], [0.34, 5.99e7]]))


def test_polytope_difference_partitions():
    P = box([0, 0], [2, 1])
    Q = box([1, 0], [3, 1])
    parts = polytope_difference(P, Q)
    assert sum(p.volume for p in parts) == pytest.approx(1.0)
    # disjoint from Q interior
    for p in parts:
        both = intersect(p, Q)
        assert both is None or both.volume <= 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_hull_volume_stable_under_ulp_noise(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    P = hull(rng.uniform(-2, 2, size=(n + 4, n)))
    if P.is_degenerate:
        return
    # duplicate every vertex with coordinates nudged by a few ulps and add
    # points on facet midpoints; the hull must not change materially
    verts = P.vertices
    noisy = verts + rng.integers(-4, 5, size=verts.shape) * np.spacing(np.abs(verts) + 1.0)
    mids = np.array([(a + b) / 2 for a in verts for b in verts])
    Q = hull(np.vstack([verts, noisy, mids]))
    assert Q.volume == pytest.approx(P.volume, rel=1e-9, abs=1e-12)
    assert len(Q.vertices) == len(P.vertices)


def test_hull_survives_ulp_outliers_on_vertical_edges():
    # a solve-noise point one ulp beyond the right edge must not evict corners
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    noisy = np.array([[np.nextafter(1.0, 2.0), 0.5]])
    P = hull(np.vstack([corners, noisy]))
    assert len(P.vertices) == 4
    assert P.volume == pytest.approx(1.0)


def test_hull_3d_drops_ulp_face_points():
    corners = cube(3).vertices
    mid_face = np.array([[1.0 + 1e-15, 0.3, -0.2]])
    P = hull(np.vstack([corners, mid_face]))
    assert len(P.vertices) == 8
    assert P.volume == pytest.approx(8.0)


def test_degenerate_polytope_halfspace_consistency():
    S = segment([0, 0], [1, 1])
    A, b = S.halfspaces
    # both endpoints satisfy every inequality
    assert (S.vertices @ A.T - b).max() <= 1e-9
    # a point off the affine hull is excluded
    assert not S.contains([0.5, 0.6])
    assert S.contains([0.5, 0.5])


def test_near_duplicate_chain_keeps_both_ends():
    # a~b and b~c but a and c apart: b joins a, c leads its own group
    X = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]])
    keep, group = near_duplicate_leaders(X, 0.7)
    assert keep.tolist() == [0, 2]
    assert group.tolist() == [0, 0, 1]


def test_near_duplicate_prefer_largest_then_earliest():
    X = np.array([[0.0], [1e-12], [5.0], [5.0], [-1e-12]])
    keep, group = near_duplicate_leaders(X, 1e-9, prefer=[1.0, 3.0, 2.0, 2.0, 3.0])
    assert group.tolist() == [0, 0, 1, 1, 0]
    assert keep.tolist() == [1, 2]


def test_near_duplicate_zero_columns_is_one_group():
    keep, group = near_duplicate_leaders(np.zeros((4, 0)), 1e-10, prefer=[0.0, 2.0, 1.0, 2.0])
    assert keep.tolist() == [1]
    assert group.tolist() == [0, 0, 0, 0]
    assert near_duplicate_leaders(np.zeros((0, 2)), 1e-10)[0].size == 0


def test_near_duplicate_heavy_duplication():
    rng = np.random.default_rng(5)
    centers = rng.uniform(-1, 1, (5, 3))
    X = centers[rng.integers(0, 5, 20000)] + rng.uniform(-1e-12, 1e-12, (20000, 3))
    keep, group = near_duplicate_leaders(X, 1e-9)
    assert len(keep) == 5
    assert np.allclose(X[keep][group], X, atol=1e-9)


def test_near_duplicate_per_row_tolerance_uses_leader():
    X = np.array([[0.0], [0.05], [1e6], [1e6 + 0.05]])
    keep, group = near_duplicate_leaders(X, 1e-7 * np.maximum(1.0, np.abs(X).max(axis=1)))
    assert group.tolist() == [0, 1, 2, 2]
    assert keep.tolist() == [0, 1, 2]


def test_near_duplicate_non_finite_rows_terminate():
    # a NaN row is within tol of nothing, itself included; it still leads
    X = np.array([[np.nan, 0.0], [np.nan, 0.0], [0.0, 0.0]])
    keep, group = near_duplicate_leaders(X, 1e-9)
    assert keep.tolist() == [0, 1, 2]
    assert group.tolist() == [0, 1, 2]


def near_duplicate_leaders_by_scan(X, tol, prefer=None):
    """The in-order scan that `near_duplicate_leaders` replaced, one loop
    iteration per group: the oracle for its blocked pass."""
    X = np.asarray(X, dtype=float)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (len(X),))
    group = np.empty(len(X), dtype=int)
    free = np.arange(len(X))
    leaders: list[int] = []
    while len(free):
        near = np.abs(X[free] - X[free[0]]).max(axis=1, initial=0.0) <= tol[free[0]]
        # the leader joins its own group even when a NaN defeats the test
        near[0] = True
        group[free[near]] = len(leaders)
        leaders.append(free[0])
        free = free[~near]
    if prefer is None:
        return np.array(leaders, dtype=int), group
    order = np.lexsort((-np.asarray(prefer, dtype=float), group))
    first = np.ones(len(order), dtype=bool)
    first[1:] = group[order[1:]] != group[order[:-1]]
    return order[first], group


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 * _LEADER_BLOCK + 1), st.integers(0, 3), st.integers(0, 2**32 - 1),
       st.sampled_from(["ties", "jitter", "chain", "spread"]), st.booleans(), st.booleans(),
       st.booleans())
def test_near_duplicate_leaders_matches_scan(k, d, seed, layout, nan, per_row, prefer):
    rng = np.random.default_rng(seed)
    tol = 0.5
    if layout == "chain":
        # shuffled steps of 0.3-0.45 along a diagonal: a~b and b~c, a and c apart
        X = np.cumsum(rng.uniform(0.3, 0.45, k))[rng.permutation(k), None] * np.ones(d)
    elif layout == "spread":
        X = rng.uniform(-3.0, 3.0, (k, d))
    else:
        # exact ties, some of them tol apart; or ties broken by up to 1e-12
        X = 0.5 * rng.integers(-2, 3, (4, d))[rng.integers(0, 4, k)]
        if layout == "jitter":
            X += rng.uniform(-1e-12, 1e-12, X.shape)
            tol = 1e-12
    if nan and k and d:
        X[rng.integers(0, k, 3), rng.integers(0, d)] = np.nan
    if per_row:
        tol = tol * rng.uniform(0.5, 1.5, k)
    pref = rng.integers(0, 3, k).astype(float) if prefer else None
    keep, group = near_duplicate_leaders(X, tol, prefer=pref)
    keep_scan, group_scan = near_duplicate_leaders_by_scan(X, tol, prefer=pref)
    assert np.array_equal(keep, keep_scan)
    assert np.array_equal(group, group_scan)


def test_hull_rejects_non_finite_points():
    with pytest.raises(ValueError, match="non-finite"):
        hull([[np.inf, 0.0], [0.0, 1.0], [1.0, 0.0]])


def _box_cases(rng, n):
    """(points, is a box) in R^n: shuffled box corners at offsets up to 1e6
    with extents above the margin, just above it and just below it, a
    column mixing -0.0 and 0.0, a parallelogram and a repeated corner."""
    cases = []
    for _ in range(12):
        lo = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-2, 7)
        for factor, above in ((10.0 ** rng.uniform(0, 4), True), (1.001, True), (0.999, False)):
            ext = factor * BOX_EXTENT_MIN * np.maximum(1.0, np.abs(lo).max())
            corners = np.array(np.meshgrid(*zip(lo, lo + ext), indexing="ij")).reshape(n, -1).T
            cases.append((rng.permutation(corners), above))
    signed = np.array(np.meshgrid(*[[0.0, 1.0]] * n, indexing="ij")).reshape(n, -1).T
    signed[0, 0] = -0.0
    sheared = signed @ (np.eye(n) + np.eye(n, k=1))
    repeated = signed.copy()
    repeated[-1] = repeated[0]
    # in 1-d two distinct points are always a box
    return cases + [(signed, n == 1), (sheared, n == 1), (repeated, False)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hull_of_box_corners_matches_the_general_path(n):
    rng = np.random.default_rng(n)
    for pts, above in _box_cases(rng, n):
        assert _is_box(pts) == above
        got, want = hull(pts), _general_hull(pts)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert got.intrinsic_dim == want.intrinsic_dim
        for a, b in zip(got.chart + got.halfspaces, want.chart + want.halfspaces):
            assert a.tobytes() == b.tobytes()
        assert got.volume == want.volume


def test_hull_2d_collinearity_is_relative_to_the_extent():
    # a box far below unit scale keeps its corners (the box path is off there)
    P = hull([[0, 0], [1e-6, 0], [0, 1e-6], [1e-6, 1e-6]])
    assert len(P.vertices) == 4 and P.volume == pytest.approx(1e-12)
    # and so does a triangle far from the origin
    tri = np.array([[1e6, 1e6], [1e6 + 10, 1e6], [1e6, 1e6 + 10]])
    assert len(hull(tri).vertices) == 3
