import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from affval import generators
from affval.errors import DegenerateDomain, EmptyDomain, NotConvex, NumericalLimit, OutsideDomain
from affval.funcs import (
    AffineFn,
    PAFn,
    PLQFn,
    QuadFn,
    QuadraticFn,
    _activity_regions,
    _cell_pair_vertices,
    _dedupe_pieces,
    _facet_normal,
    _facet_samples,
    certify_plq,
    join,
    lipschitz_constant,
    make_cylinder,
    meet,
    subdifferential,
)
from affval.geometry import (
    box,
    cube,
    from_halfspaces,
    hull,
    intersect,
    point,
    segment,
    vertex_sets_equal,
    vertices_from_halfspaces,
)
from affval.numerics import CERT_TOL, EPS_GEOM, FEAS_TOL, OVERLAP_TOL, scale_of


def abs_on_interval():
    return PAFn([AffineFn([1.0], 0.0), AffineFn([-1.0], 0.0)], box([-1], [1]))


def l1_on_square():
    return PAFn([AffineFn([sx, sy], 0.0) for sx in (1.0, -1.0) for sy in (1.0, -1.0)],
                cube(2))


# -- evaluation ---------------------------------------------------------------


def test_eval_pa_inside_and_outside():
    u = abs_on_interval()
    assert u.evaluate([0.5]) == pytest.approx(0.5)
    assert u.evaluate([2.0]) == np.inf


def test_eval_plq_at_boundary_point():
    q = QuadraticFn(np.eye(2), np.zeros(2), 0.0)
    u = PLQFn([(cube(2), q)])
    assert u.evaluate([1.0, 1.0]) == pytest.approx(1.0)


def test_eval_convexity_along_segments():
    rng = np.random.default_rng(0)
    for u in (abs_on_interval(), l1_on_square(), generators.random_plq(rng, 2)):
        dom = u.domain
        for _ in range(50):
            x = dom.barycenter + rng.uniform(-0.3, 0.3, dom.dim)
            z = dom.barycenter + rng.uniform(-0.3, 0.3, dom.dim)
            if not (dom.contains(x) and dom.contains(z)):
                continue
            lam = rng.uniform()
            mid = lam * x + (1 - lam) * z
            assert u.evaluate(mid) <= lam * u.evaluate(x) + (1 - lam) * u.evaluate(z) + 1e-9


# -- subdifferential ----------------------------------------------------------


def test_subdifferential_indicator_endpoint():
    sd = subdifferential(PAFn.indicator(box([0], [1])), [1.0])
    assert np.allclose(sd.bounded_part.vertices, [[0.0]])
    assert np.allclose(sd.cone_generators, [[1.0]])


def test_subdifferential_abs_at_kink():
    sd = subdifferential(abs_on_interval(), [0.0])
    assert np.allclose(sd.bounded_part.vertices.ravel(), [-1.0, 1.0])
    assert sd.is_at_interior_point


def test_subdifferential_l1_at_origin():
    sd = subdifferential(l1_on_square(), [0.0, 0.0])
    assert sd.bounded_part.volume == pytest.approx(4.0)


def test_subdifferential_outside_domain_raises():
    with pytest.raises(OutsideDomain):
        subdifferential(abs_on_interval(), [2.0])


def test_subgradient_inequality_sampled():
    rng = np.random.default_rng(7)
    for u in (l1_on_square(), generators.random_pa(rng, 2), generators.random_plq(rng, 2)):
        dom = u.domain
        zs = dom.grid_points(11)
        for _ in range(10):
            x = zs[rng.integers(len(zs))]
            sd = subdifferential(u, x)
            ux = u.evaluate(x)
            for g in sd.bounded_part.vertices:
                vals = u.eval_many(zs)
                assert np.all(vals >= ux + (zs - x) @ g - 1e-9)


# -- Lipschitz ----------------------------------------------------------------


def test_lipschitz_examples():
    u = PAFn([AffineFn([2.0], 0.0), AffineFn([-1.0], 0.0)], box([-1], [1]))
    assert lipschitz_constant(u) == pytest.approx(2.0)
    q = QuadFn(QuadraticFn(np.eye(2), np.zeros(2), 0.0), cube(2))
    assert lipschitz_constant(q) == pytest.approx(np.sqrt(2.0))
    assert lipschitz_constant(abs_on_interval()) == pytest.approx(1.0)


def test_lipschitz_degenerate_domain_raises():
    u = PAFn([AffineFn([1.0, 0.0], 0.0)], segment([0, 0], [1, 1]))
    with pytest.raises(DegenerateDomain):
        lipschitz_constant(u)


def test_lipschitz_dominates_sampled_subgradients():
    rng = np.random.default_rng(5)
    u = generators.random_plq(rng, 2)
    L = lipschitz_constant(u)
    for x in u.domain.shrink(0.9).grid_points(7):
        sd = subdifferential(u, x)
        norms = np.linalg.norm(sd.bounded_part.vertices, axis=1)
        assert norms.max() <= L + 1e-9


# -- meet / join --------------------------------------------------------------


def test_meet_indicators_merges_intervals():
    m = meet(PAFn.indicator(box([0], [2])), PAFn.indicator(box([1], [3])))
    assert np.allclose(m.domain.vertices.ravel(), [0, 3])
    assert m.evaluate([2.5]) == pytest.approx(0.0)


def test_meet_rejects_nonconvex_min():
    u = PAFn([AffineFn([1.0], 0.0)], box([-1], [1]))
    v = PAFn([AffineFn([-1.0], 0.0)], box([-1], [1]))
    with pytest.raises(NotConvex):
        meet(u, v)


def test_meet_shared_quadratic_on_overlapping_intervals():
    q = QuadraticFn([[1.0]], [0.0], 0.0)
    m = meet(QuadFn(q, box([0], [2])), QuadFn(q, box([1], [3])))
    assert np.allclose(m.domain.vertices.ravel(), [0, 3])
    assert m.evaluate([2.5]) == pytest.approx(0.5 * 2.5 ** 2)


def test_join_indicators_intersects():
    j = join(PAFn.indicator(box([0], [2])), PAFn.indicator(box([1], [3])))
    assert np.allclose(j.domain.vertices.ravel(), [1, 2])


def test_join_two_affines_gives_abs():
    j = join(PAFn([AffineFn([1.0], 0.0)], box([-1], [1])),
             PAFn([AffineFn([-1.0], 0.0)], box([-1], [1])))
    xs = np.linspace(-1, 1, 21)[:, None]
    assert np.allclose(j.eval_many(xs), np.abs(xs[:, 0]))


def test_join_shared_quadratic():
    q = QuadraticFn([[1.0]], [0.0], 0.0)
    j = join(QuadFn(q, box([0], [2])), QuadFn(q, box([1], [3])))
    assert np.allclose(j.domain.vertices.ravel(), [1, 2])
    assert j.evaluate([1.5]) == pytest.approx(0.5 * 1.5 ** 2)


def test_join_splits_equal_hessian_cells_exactly():
    q1 = QuadraticFn(np.eye(2), np.array([1.0, 0.0]), 0.0)
    q2 = QuadraticFn(np.eye(2), np.array([-1.0, 0.0]), 0.3)
    u, v = QuadFn(q1, cube(2)), QuadFn(q2, cube(2))
    j = join(u, v)
    assert len(j.cells) == 2  # one cut along the affine-difference hyperplane
    pts = cube(2).grid_points(21)
    assert np.abs(j.eval_many(pts)
                  - np.maximum(u.eval_many(pts), v.eval_many(pts))).max() == 0.0
    with pytest.raises(NotConvex):
        meet(u, v)  # the pointwise min has a concave kink along the cut


def test_join_empty_intersection_raises():
    with pytest.raises(EmptyDomain):
        join(PAFn.indicator(box([0], [1])), PAFn.indicator(box([2], [3])))


def test_meet_join_agree_with_pointwise_on_grid():
    rng = np.random.default_rng(21)
    for n in (1, 2):
        u, v = generators.meet_pair_pa(rng, n)
        m = meet(u, v)
        j = join(u, v)
        pts = m.domain.grid_points(9)
        mv = np.minimum(u.eval_many(pts), v.eval_many(pts))
        both = np.isfinite(mv)
        assert np.allclose(m.eval_many(pts)[both], mv[both], atol=1e-9)
        pts_j = j.domain.grid_points(9)
        jv = np.maximum(u.eval_many(pts_j), v.eval_many(pts_j))
        ok = np.isfinite(jv)
        assert np.allclose(j.eval_many(pts_j)[ok], jv[ok], atol=1e-9)


# -- certification ------------------------------------------------------------


def test_certify_rejects_value_jump():
    qa = QuadraticFn([[2.0]], [0.0], 0.0)
    qb = QuadraticFn([[2.0]], [0.0], 1.0)
    with pytest.raises(NotConvex):
        certify_plq([(box([0], [1]), qa), (box([1], [2]), qb)])


def test_certify_rejects_indefinite_cell():
    with pytest.raises(NotConvex):
        certify_plq([(cube(2), QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), 0.0))])


def test_certify_rejects_concave_kink():
    up = QuadraticFn([[0.0]], [1.0], 0.0)
    down = QuadraticFn([[0.0]], [-1.0], 2.0)
    with pytest.raises(NotConvex):
        certify_plq([(box([0], [1]), up), (box([1], [2]), down)])


def test_certify_accepts_tangent_matched_cells():
    core = QuadraticFn([[1.0]], [0.0], 0.0)
    collar = QuadraticFn([[0.0]], [1.0], -0.5)
    u = certify_plq([(box([-1], [1]), core), (box([1], [2]), collar)])
    assert len(u.cells) == 2
    assert u.certificate


def certify_all_pairs(cells, domain=None):
    """The all-pairs certificate that `certify_plq` replaced: every pair of
    cells is intersected.  Returns the facet checks or raises NotConvex."""
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
        raise NotConvex(f"cells cover {total:.12g} of domain volume {dom.volume:.12g}")
    checks = []
    for (i, (Pi, qi)), (j, (Pj, qj)) in itertools.combinations(enumerate(cs), 2):
        R = intersect(Pi, Pj)
        if R is None:
            continue
        if R.intrinsic_dim == n:
            if R.volume > OVERLAP_TOL * (1.0 + min(Pi.volume, Pj.volume)):
                raise NotConvex(f"cells {i} and {j} have overlapping interiors")
            continue
        if R.intrinsic_dim != n - 1:
            continue
        samples = _facet_samples(R)
        vi, vj = qi.eval_many(samples), qj.eval_many(samples)
        cont = float(np.abs(vi - vj).max())
        if cont > CERT_TOL * (1.0 + float(max(np.abs(vi).max(), np.abs(vj).max()))):
            raise NotConvex(f"value jump {cont:.3e} across facet of cells {i},{j}")
        nu = _facet_normal(R, n)
        if nu @ (Pj.barycenter - Pi.barycenter) < 0:
            nu = -nu
        jump = (samples @ (qj.A - qi.A).T + (qj.b - qi.b)) @ nu
        mono = float(jump.min())
        if mono < -CERT_TOL * (1.0 + float(np.abs(jump).max())):
            raise NotConvex(f"gradient jump {mono:.3e} against the facet normal of cells {i},{j}")
        checks.append((i, j, cont, mono))
    return tuple(checks)


def _box_tiling(rng, n, count):
    """Boxes from random guillotine cuts of [0, 1]^n; in 3-d some of them
    meet only along an edge or at a corner."""
    boxes = [(np.zeros(n), np.ones(n))]
    while len(boxes) < count:
        lo, hi = boxes.pop(int(rng.integers(len(boxes))))
        axis = int(rng.integers(n))
        t = lo[axis] + rng.uniform(0.2, 0.8) * (hi[axis] - lo[axis])
        upper, lower = hi.copy(), lo.copy()
        upper[axis] = lower[axis] = t
        boxes += [(lo, upper), (lower, hi)]
    return [box(lo, hi) for lo, hi in boxes]


@functools.cache
def _certify_cases():
    from affval.sequences import StaircaseSpec, staircase_sequence

    rng = np.random.default_rng(11)
    cases = []
    for spec in (StaircaseSpec(0.0, 1.0, 2.0, m=6), StaircaseSpec(0.2, 0.9, 1.7, m=3, n=3)):
        cases.append((staircase_sequence(spec).cells, spec.base_box()))
    for n, count in ((2, 12), (3, 10)):
        # one convex quadratic on every tile, then a value jump on one tile
        q = QuadraticFn(generators.random_psd(rng, n), rng.uniform(-1, 1, n), 0.0)
        tiles = _box_tiling(rng, n, count)
        cases.append(([(P, q) for P in tiles], None))
        bumped = QuadraticFn(q.A, q.b, 1e-3)
        cases.append(([(P, bumped if k == count // 2 else q) for k, P in enumerate(tiles)], None))
        # the activity cells of a random PA function, as affine quadratics
        u = PAFn(random_pieces(rng, n, 9), cube(n))
        cases.append(([(P, QuadraticFn(np.zeros((n, n)), l.grad, l.c)) for P, l in u.cells],
                      u.domain))
    # the bad cells of the tests above, and two overlapping intervals
    qa, qb = QuadraticFn([[2.0]], [0.0], 0.0), QuadraticFn([[2.0]], [0.0], 1.0)
    up, down = QuadraticFn([[0.0]], [1.0], 0.0), QuadraticFn([[0.0]], [-1.0], 2.0)
    cases += [([(box([0], [1]), qa), (box([1], [2]), qb)], None),
              ([(cube(2), QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), 0.0))], None),
              ([(box([0], [1]), up), (box([1], [2]), down)], None),
              ([(box([0], [2]), qa), (box([1], [3]), qa)], box([0], [4]))]
    return cases


@pytest.mark.parametrize("case", range(12))
def test_certify_plq_matches_all_pairs(case):
    cells, domain = _certify_cases()[case]
    try:
        want = certify_all_pairs(cells, domain)
    except NotConvex as exc:
        with pytest.raises(NotConvex) as got:
            certify_plq(cells, domain)
        assert str(got.value) == str(exc)
        return
    got = certify_plq(cells, domain).certificate
    assert got == want
    assert all(type(i) is int and type(j) is int for i, j, _, _ in got)
    # tiles that share a facet are found; in 3-d some pairs meet in less
    assert len(want) >= len(cells) - 1


def _pair_vertex_cases():
    """Cell lists: the certify cases (2-d and 3-d staircases among them) and
    the two boxes and the meet of `generators.meet_pair_plq` pairs."""
    rng = np.random.default_rng(17)
    cases = [[P for P, _ in cells] for cells, _ in _certify_cases()]
    for n in (1, 2, 3):
        for _ in range(2):
            u, v = generators.meet_pair_plq(rng, n)
            cases += [[u.domain, v.domain], [P for P, _ in meet(u, v).cells]]
    return cases


def test_cell_pair_vertices_match_per_pair_enumeration():
    # the batched enumeration has the bits of one enumeration per pair
    for cells in _pair_vertex_cases():
        pairs = list(itertools.combinations(range(len(cells)), 2))
        got = _cell_pair_vertices(cells, pairs)
        for (i, j), verts in zip(pairs, got):
            (Ai, bi), (Aj, bj) = cells[i].halfspaces, cells[j].halfspaces
            want = vertices_from_halfspaces(np.vstack([Ai, Aj]), np.concatenate([bi, bj]),
                                            cells[0].dim)
            assert np.array_equal(verts, want), (i, j)


# -- activity regions and cells ----------------------------------------------


def activity_regions_by_enumeration(G, c, P, pieces=None):
    """One basis enumeration of all the rows [A_P; G_j - G_i] per piece i (or
    per listed piece), in the chart of P: the oracle for `_activity_regions`,
    which enumerates only the rows tight on each region."""
    origin, Q = P.chart
    d = P.intrinsic_dim
    if d == 0:
        vals = G @ origin + c
        tol = FEAS_TOL * scale_of(origin)
        return [np.zeros((int(v >= vals.max() - tol), 0)) for v in vals]
    Ad, bd = P.chart_halfspaces
    Gz, cz = G @ Q, c + G @ origin
    return [vertices_from_halfspaces(np.vstack([Ad, np.delete(Gz, i, axis=0) - Gz[i]]),
                                     np.concatenate([bd, cz[i] - np.delete(cz, i)]), d,
                                     unit=min(1.0, P.diameter))
            for i in (range(len(Gz)) if pieces is None else pieces)]


def _halfspace_polytope(rng, n):
    """Random unit normals and offsets, cut to the box [-1.5, 1.5]^n."""
    A = rng.normal(size=(n + 3, n))
    A = np.vstack([A / np.linalg.norm(A, axis=1)[:, None], np.eye(n), -np.eye(n)])
    b = np.concatenate([rng.uniform(0.3, 1.0, n + 3), np.full(2 * n, 1.5)])
    return from_halfspaces(A, b, n)


def _region_oracle_inputs(seed):
    """(G, c, P, pieces to check or None for all)."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        domains = [cube(n), generators.random_polytope(rng, n), _halfspace_polytope(rng, n),
                   point(rng.uniform(-1, 1, n))]
        if n > 1:
            domains.append(segment(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)))
        if n == 3:
            domains.append(hull(rng.uniform(-1, 1, (3, 3))))
        for P in domains:
            for k in (1, 4, 9):
                yield rng.uniform(-2, 2, (k, n)), rng.uniform(-1, 1, k), P, None
                # integer data: ties, non-simple vertices, regions on lower faces
                G, c = rng.integers(-2, 3, (k, n)), rng.integers(-2, 3, k)
                yield G.astype(float), c.astype(float), P, None
        # tangent planes of a paraboloid: every piece owns a small cell; the
        # oracle costs C(k + 5, 3) solves per piece in 3-d, so it checks 6 or 7
        k = (20, 40, 60)[seed % 3] if n == 3 else 20
        pts = rng.uniform(-1, 1, (k, n))
        yield 2 * pts, -np.sum(pts ** 2, axis=1), cube(n), range(0, k, k // 6)


@pytest.mark.parametrize("seed", range(3))
def test_activity_regions_match_enumeration(seed):
    sizes = []
    for G, c, P, pieces in _region_oracle_inputs(seed):
        got = _activity_regions(G, c, P)
        want = activity_regions_by_enumeration(G, c, P, pieces)
        assert len(got) == len(G)
        got = got if pieces is None else [got[i] for i in pieces]
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        sizes += [len(z) for z in want]
    assert 0 in sizes and max(sizes) > 4   # empty regions and many-vertex regions both occur


@pytest.mark.parametrize("s", [1e-7, 1e-5, 1e-3, 1.0])
def test_subdivision_keeps_the_vertices_of_small_domains(s):
    # tetrahedra of diameter about s under gradients of order 1/s: below unit
    # scale an absolute slack would be as wide as the domain and lose vertices
    for seed in range(40):
        rng = np.random.default_rng(seed)
        P = hull(rng.normal(size=(4, 3)) * s)
        G = rng.normal(size=(5, 3)) * 5e7 * rng.random() * (1e-7 / s)
        c = rng.normal(size=5)
        try:
            x, vals = PAFn([AffineFn(g, ci) for g, ci in zip(G, c)], P).subdivision_vertices()
        except NumericalLimit:
            assert s < 1e-3, seed
            continue
        gap = np.abs(x[:, None] - P.vertices[None]).max(axis=2)
        assert gap.min(axis=0).max() <= 1e-3 * P.diameter, seed
        scale = np.abs(G).max() * np.abs(P.vertices).max() + np.abs(c).max()
        want = (P.vertices @ G.T + c).max(axis=1)
        assert np.abs(vals[gap.argmin(axis=0)] - want).max() <= 1e-9 * scale, seed


def ambient_cells(u):
    """Activity cells enumerated piece by piece in ambient coordinates: an
    oracle for PAFn.cells, which works in the domain chart."""
    Ad, bd = u.domain.halfspaces
    out = []
    for i, piece in enumerate(u.pieces):
        others = [j for j in range(len(u.pieces)) if j != i]
        pts = vertices_from_halfspaces(np.vstack([Ad, u.G[others] - u.G[i]]),
                                       np.concatenate([bd, u.cvec[i] - u.cvec[others]]), u.dim)
        if len(pts):
            cell = hull(pts)
            if cell.intrinsic_dim == u.domain.intrinsic_dim:
                out.append((cell, piece))
    return out


def random_pieces(rng, n, k):
    return [AffineFn(rng.uniform(-2, 2, n), float(rng.uniform(-1, 1))) for _ in range(k)]


@pytest.mark.parametrize("seed", range(6))
def test_cells_match_ambient_enumeration(seed):
    rng = np.random.default_rng(seed)
    fns = [generators.random_pa(rng, n) for n in (1, 2, 3)]
    fns += [
        PAFn(random_pieces(rng, 2, 4), segment(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))),
        PAFn(random_pieces(rng, 3, 4), segment(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))),
        PAFn(random_pieces(rng, 3, 5), hull(rng.uniform(-1, 1, (3, 3)))),
        PAFn(random_pieces(rng, 2, 3), point(rng.uniform(-1, 1, 2))),
    ]
    for u in fns:
        got, want = u.cells, ambient_cells(u)
        assert [l for _, l in got] == [l for _, l in want]
        assert len(got) >= 1
        for (P, _), (Q, _) in zip(got, want):
            assert vertex_sets_equal(P, Q, tol=1e-9)


def essential_mask_lp(G, c, P):
    """Piece i is kept when some point of P beats every other piece by a
    positive margin t; one LP per piece in the chart of P.  Pieces that agree
    on the affine hull of P are not rivals: both are kept or neither.  The
    oracle for essential_mask_on_domain, which reads the activity regions
    instead.  A point domain keeps the first piece attaining the max."""
    k = len(G)
    mask = np.zeros(k, dtype=bool)
    origin, Q = P.chart
    d = P.intrinsic_dim
    if d == 0:
        mask[int(np.argmax(G @ origin + c))] = True
        return mask
    Ad, bd = P.chart_halfspaces
    Gz, cz = G @ Q, c + G @ origin
    lifted = np.column_stack([Gz, cz])
    for i in range(k):
        others = np.abs(lifted - lifted[i]).max(axis=1) > 1e-9 * max(1.0, np.abs(lifted).max())
        res = linprog(
            np.append(np.zeros(d), -1.0),
            A_ub=np.vstack([np.column_stack([Gz[others] - Gz[i], np.ones(others.sum())]),
                            np.column_stack([Ad, np.zeros(len(Ad))])]),
            b_ub=np.concatenate([cz[i] - cz[others], bd]),
            bounds=[(None, None)] * d + [(-1.0, 1.0)],
            method="highs",
        )
        mask[i] = res.status == 0 and -res.fun > 1e-11
    return mask


def _pruning_oracle_inputs():
    rng = np.random.default_rng(406)
    for n in (1, 2, 3):
        domains = [generators.random_polytope(rng, n), point(rng.uniform(-1, 1, n)),
                   box(-np.ones(n), np.ones(n))]
        if n > 1:
            domains.append(segment(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)))
            domains.append(segment(-np.ones(n), np.ones(n)))
        if n == 3:
            domains.append(hull(rng.uniform(-1, 1, (3, 3))))
            domains.append(hull(np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]])))
        for P in domains:
            for k in (2, 4, 7):
                yield random_pieces(rng, n, k), P
                # integer data: ties, and pieces whose region is a lower face
                G, c = rng.integers(-2, 3, (k, n)), rng.integers(-2, 3, k)
                yield [AffineFn(g, float(ci)) for g, ci in zip(G, c)], P


def test_pruned_on_domain_matches_lp_and_cells():
    thin = 0
    for pieces, P in _pruning_oracle_inputs():
        u = PAFn(pieces, P)
        G, c = _dedupe_pieces(u.G, u.cvec)
        mask = essential_mask_lp(G, c, P)
        if not mask.any():
            mask[0] = True
        got = u.pruned()
        assert np.array_equal(got.G, G[mask]) and np.array_equal(got.cvec, c[mask])
        # the kept pieces are those owning an activity cell; on a point
        # domain every tied piece owns one, but only the first is kept
        full = PAFn([AffineFn(g, ci) for g, ci in zip(G, c)], P)
        owners = [any(l is p for _, l in full.cells) for p in full.pieces]
        regions = [len(z) > 0 for z in full._regions]
        thin += sum(regions) - sum(owners)
        if P.intrinsic_dim == 0:
            assert mask.sum() == 1 and np.all(np.array(owners)[mask])
        else:
            assert owners == mask.tolist()
    assert thin > 0   # some inputs have nonempty regions that own no cell


def test_pruned_keeps_pieces_that_agree_on_a_thin_domain():
    # the first and last pieces agree along the diagonal and share the max on
    # its lower half; a strict-margin test drops both and changes the function
    u = PAFn([AffineFn([1.0, -2.0], 2.0), AffineFn([1.0, 2.0], 2.0), AffineFn([-2.0, 1.0], 2.0)],
             segment([-1, -1], [1, 1]))
    X = np.linspace(-1, 1, 9)[:, None] * np.ones(2)
    np.testing.assert_allclose(u.pruned().eval_many(X), u.eval_many(X), rtol=0, atol=1e-12)


# -- cylinders ----------------------------------------------------------------


def test_cylinder_point_base_gives_indicator():
    u = make_cylinder(PAFn.indicator(point([0.0])), AffineFn([0.0], 0.0), box([0], [1]))
    assert u.is_cylinder
    assert u.evaluate([0.5]) == pytest.approx(0.0)
    assert u.evaluate([-0.5]) == np.inf


def test_cylinder_affine_rail():
    u = make_cylinder(PAFn.indicator(point([0.0])), AffineFn([1.0], 0.0), box([0], [1]))
    xs = np.linspace(0, 1, 11)[:, None]
    assert np.allclose(u.eval_many(xs), xs[:, 0], atol=1e-12)


def test_cylinder_quadratic_trough():
    base = QuadFn(QuadraticFn(np.eye(2), np.zeros(2), 0.0), segment([0, -1], [0, 1]))
    u = make_cylinder(base, AffineFn([0.0, 0.0], 0.0), segment([0, 0], [1, 0]))
    # flat along x1, quadratic along x2; brute-force the reduction at samples
    assert u.evaluate([0.5, 0.5]) == pytest.approx(0.125)
    assert u.evaluate([0.9, -0.4]) == pytest.approx(0.08)
    assert u.evaluate([2.0, 0.0]) == np.inf


def test_cylinder_needs_segment():
    from affval.errors import BadSegment

    with pytest.raises(BadSegment):
        make_cylinder(PAFn.indicator(point([0.0, 0.0])), AffineFn([0.0, 0.0], 0.0), cube(2))


# -- quadratic conveniences ---------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_quadratic_compose_affine_matches_pointwise(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    q = QuadraticFn(generators.random_psd(rng, n), rng.uniform(-1, 1, n),
                    float(rng.uniform(-1, 1)))
    M = rng.uniform(-1, 1, (n, n)) + np.eye(n)
    s = rng.uniform(-1, 1, n)
    comp = q.compose_affine(M, s)
    for _ in range(5):
        x = rng.uniform(-1, 1, n)
        assert comp(x) == pytest.approx(q(M @ x + s), rel=1e-10, abs=1e-10)
