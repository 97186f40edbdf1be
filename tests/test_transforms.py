import numpy as np
import pytest
from scipy.optimize import linprog

from affval import generators
from affval.errors import BadParameter, OutsideDomain, SingularHessian
from affval.funcs import AffineFn, PAFn, QuadFn, QuadraticFn
from affval.geometry import box, cube, minkowski_sum, point, vertex_sets_equal
from affval.transforms import (
    conjugate_identities_check,
    envelope_eval,
    inf_conv_pa,
    legendre_pa,
    legendre_quadratic,
    moreau_box,
    tangential_extension,
)


def abs_on_interval():
    return PAFn([AffineFn([1.0], 0.0), AffineFn([-1.0], 0.0)], box([-1], [1]))


def brute_conjugate(u, grid_pts):
    vals = u.eval_many(grid_pts)
    ok = np.isfinite(vals)

    def star(y):
        return float((grid_pts[ok] @ y - vals[ok]).max())

    return star


def lp_infconv(u: PAFn, v: PAFn, x):
    """Independent oracle: minimize s + t over y with epigraph constraints."""
    n = u.dim
    Au, bu = u.domain.halfspaces
    Av, bv = v.domain.halfspaces
    # variables (y, s, t)
    rows, offs = [], []
    for g, c in zip(u.G, u.cvec):
        rows.append(np.concatenate([g, [-1.0, 0.0]]))
        offs.append(-c)
    for g, c in zip(v.G, v.cvec):
        rows.append(np.concatenate([-g, [0.0, -1.0]]))
        offs.append(-c - g @ x)
    for a, b0 in zip(Au, bu):
        rows.append(np.concatenate([a, [0.0, 0.0]]))
        offs.append(b0)
    for a, b0 in zip(Av, bv):
        rows.append(np.concatenate([-a, [0.0, 0.0]]))
        offs.append(b0 - a @ x)
    res = linprog(
        np.concatenate([np.zeros(n), [1.0, 1.0]]),
        A_ub=np.array(rows),
        b_ub=np.array(offs),
        bounds=[(None, None)] * (n + 2),
        method="highs",
    )
    return res.fun if res.status == 0 else np.inf


# -- conjugates ---------------------------------------------------------------


def test_conjugate_of_box_indicator_is_scaled_l1():
    s = legendre_pa(PAFn.indicator(cube(2, 0.5)))
    pts = np.array([[1.0, 1.0], [2.0, -1.0], [0.0, 0.0], [-0.3, 0.7]])
    assert np.allclose(s.eval_many(pts), 0.5 * np.abs(pts).sum(axis=1))


def test_conjugate_of_abs_plus_interval():
    u = abs_on_interval()
    s = legendre_pa(u)
    ys = np.linspace(-3, 3, 41)[:, None]
    assert np.allclose(s.eval_many(ys), np.maximum(0.0, np.abs(ys[:, 0]) - 1.0))
    # against a brute-force grid supremum
    gp = u.domain.grid_points(801)
    star = brute_conjugate(u, gp)
    for y in ys[::5]:
        assert s.evaluate(y) == pytest.approx(star(y), abs=1e-7)


def test_involution_on_seeded_instances():
    rng = generators.rng_for(42)
    for n in (1, 2, 3):
        for _ in range(10):
            u = generators.random_pa(rng, n)
            uss = legendre_pa(legendre_pa(u))
            pts = np.vstack([u.domain.grid_points(6), u.domain.vertices])
            gap = np.abs(uss.eval_many(pts) - u.eval_many(pts))
            assert gap[np.isfinite(gap)].max() <= 1e-7


def test_conjugate_order_reversal():
    rng = generators.rng_for(9)
    u = generators.random_pa(rng, 2)
    v = PAFn([AffineFn(p.grad, p.c + 0.5) for p in u.pieces], u.domain)  # v >= u
    su, sv = legendre_pa(u), legendre_pa(v)
    grid = np.stack(np.meshgrid(*[np.linspace(-3, 3, 9)] * 2, indexing="ij"), -1).reshape(-1, 2)
    assert np.all(su.eval_many(grid) >= sv.eval_many(grid) - 1e-9)


def test_legendre_quadratic_identities():
    q = QuadraticFn(np.eye(2), np.zeros(2), 0.0)
    assert np.allclose(legendre_quadratic(q).A, q.A)
    aq = QuadraticFn(4 * np.eye(2), np.zeros(2), 0.0)
    assert np.allclose(legendre_quadratic(aq).A, np.eye(2) / 4)
    d = QuadraticFn(np.diag([2.0, 8.0]), np.zeros(2), 0.0)
    assert np.allclose(np.diag(legendre_quadratic(d).A), [0.5, 0.125])


def test_legendre_quadratic_roundtrip_with_affine_part():
    rng = generators.rng_for(3)
    q = QuadraticFn(generators.random_psd(rng, 3, lo=0.5), rng.uniform(-1, 1, 3), 0.7)
    back = legendre_quadratic(legendre_quadratic(q))
    assert np.allclose(back.A, q.A) and np.allclose(back.b, q.b)
    assert back.c == pytest.approx(q.c)


def test_legendre_quadratic_singular_raises():
    with pytest.raises(SingularHessian):
        legendre_quadratic(QuadraticFn(np.diag([1.0, 0.0]), np.zeros(2), 0.0))


# -- infimal convolution ------------------------------------------------------


def test_infconv_of_indicators_adds_domains():
    w = inf_conv_pa(PAFn.indicator(box([0], [1])), PAFn.indicator(box([0], [2])))
    assert np.allclose(w.domain.vertices.ravel(), [0, 3])
    assert w.evaluate([1.7]) == pytest.approx(0.0)


def test_infconv_abs_with_abs():
    a = PAFn([AffineFn([1.0], 0.0), AffineFn([-1.0], 0.0)], None)
    w = inf_conv_pa(a, a)
    ys = np.linspace(-3, 3, 25)[:, None]
    assert np.allclose(w.eval_many(ys), np.abs(ys[:, 0]))


def test_infconv_against_lp_oracle():
    rng = generators.rng_for(17)
    for n in (1, 2):
        for _ in range(4):
            u = generators.random_pa(rng, n)
            v = generators.random_pa(rng, n)
            w = inf_conv_pa(u, v)
            assert vertex_sets_equal(w.domain, minkowski_sum(u.domain, v.domain), tol=1e-9)
            for x in w.domain.shrink(0.8).grid_points(4):
                assert w.evaluate(x) == pytest.approx(lp_infconv(u, v, x), abs=1e-7)


# -- envelopes ----------------------------------------------------------------


def test_envelope_of_point_indicator():
    env = moreau_box(PAFn.indicator(point([0.0])), 1.0, 1.0)
    val, y0, touch = envelope_eval(env, [0.5])
    assert val == pytest.approx(0.125)
    assert np.allclose(y0, [0.0])
    assert touch(np.array([0.5])) == pytest.approx(val)
    xs = np.linspace(-1, 1, 41)[:, None]
    assert np.allclose(env.eval_many(xs), 0.5 * xs[:, 0] ** 2)


def test_envelope_domain_is_minkowski_sum():
    env = moreau_box(PAFn.indicator(box([0, 0], [1, 1])), 1.0, 0.5)
    lo, hi = env.domain.bbox
    assert np.allclose(lo, [-0.5, -0.5]) and np.allclose(hi, [1.5, 1.5])


def test_envelope_huber_shape():
    env = moreau_box(abs_on_interval(), 1.0, 2.0)
    lo, hi = env.domain.bbox
    assert np.allclose([lo[0], hi[0]], [-3.0, 3.0])
    # brute force the inner minimization on a fine grid
    ys = np.linspace(-1, 1, 4001)
    uvals = np.abs(ys)
    for x in np.linspace(-2.9, 2.9, 13):
        feas = np.abs(x - ys) <= 2.0
        brute = (uvals[feas] + 0.5 * (x - ys[feas]) ** 2).min()
        assert env.evaluate([x]) == pytest.approx(brute, abs=1e-6)


def test_envelope_touch_dominates_on_mu_box():
    rng = generators.rng_for(1)
    u = generators.random_pa(rng, 2)
    env = moreau_box(u, 1.5, 0.7)
    x0 = env.domain.barycenter
    val, y0, touch = envelope_eval(env, x0)
    pts = y0 + rng.uniform(-0.7, 0.7, size=(100, 2))
    inside = env.domain.contains_many(pts)
    ev = env.eval_many(pts[inside])
    tv = touch.eval_many(pts[inside])
    assert np.all(tv >= ev - 1e-9)
    # minimizer satisfies both constraints
    assert u.domain.contains(y0, tol=1e-7)
    assert np.max(np.abs(x0 - y0)) <= 0.7 + 1e-7


def test_envelope_converges_as_mu_shrinks():
    u = abs_on_interval()
    x = np.array([0.3])
    vals = [moreau_box(u, 1.0, 2.0 ** -j).evaluate(x) for j in range(0, 11, 2)]
    gaps = [abs(v - u.evaluate(x)) for v in vals]
    assert gaps[-1] < 1e-3
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))


def test_envelope_matches_dense_grid_oracle():
    rng = generators.rng_for(77)
    for _ in range(3):
        u = generators.random_pa(rng, 1)
        lam = float(rng.uniform(0.3, 3.0))
        mu = float(rng.uniform(0.2, 2.0))
        env = moreau_box(u, lam, mu)
        lo, hi = u.domain.bbox
        ys = np.linspace(lo[0], hi[0], 20001)
        uv = u.eval_many(ys[:, None])
        lo_e, hi_e = env.domain.bbox
        for x in np.linspace(lo_e[0], hi_e[0], 9)[1:-1]:
            feas = np.abs(x - ys) <= mu
            brute = float((uv[feas] + 0.5 * lam * (x - ys[feas]) ** 2).min())
            val = env.evaluate([x])
            assert val <= brute + 1e-9          # exact value never above the grid inf
            assert abs(val - brute) <= 1e-3     # grid inf is only grid-accurate


def test_envelope_bad_parameters():
    with pytest.raises(BadParameter):
        moreau_box(abs_on_interval(), 0.0, 1.0)
    with pytest.raises(BadParameter):
        moreau_box(abs_on_interval(), 1.0, -2.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(BadParameter, match=f"got {bad}, 1.0"):
            moreau_box(abs_on_interval(), bad, 1.0)
        with pytest.raises(BadParameter, match=f"got 1.0, {bad}"):
            moreau_box(abs_on_interval(), 1.0, bad)


def test_envelope_eval_outside_raises():
    env = moreau_box(PAFn.indicator(point([0.0])), 1.0, 1.0)
    with pytest.raises(OutsideDomain):
        envelope_eval(env, [1.5])


# -- tangential extension -----------------------------------------------------


def test_extension_of_1d_quadratic():
    ext = tangential_extension(QuadFn(QuadraticFn([[1.0]], [0.0], 0.0)), box([-1], [1]))
    assert ext.evaluate([2.0]) == pytest.approx(1.5)
    assert ext.evaluate([0.5]) == pytest.approx(0.125)


def test_extension_affine_is_itself():
    l = AffineFn([2.0, -1.0], 0.3)
    ext = tangential_extension(PAFn([l], cube(2)), cube(2))
    for x in ([0.0, 0.0], [2.5, -2.5], [1.0, 1.0]):
        assert ext.evaluate(x) == pytest.approx(l(x))


def test_extension_is_minimal_convex_extension():
    q = QuadraticFn(np.eye(2), np.zeros(2), 0.0)
    K = cube(2)
    ext = tangential_extension(QuadFn(q), K)
    pts = ext.domain.grid_points(13)
    # any convex extension of the restriction dominates it; q itself is one
    assert np.all(ext.eval_many(pts) <= q.eval_many(pts) + 1e-9)
    inside = K.contains_many(pts, tol=-1e-9)
    assert np.allclose(ext.eval_many(pts)[inside], q.eval_many(pts)[inside], atol=1e-9)


def test_extension_general_polytope_matches_box_path():
    q = QuadraticFn(np.eye(2), np.zeros(2), 0.0)
    K = cube(2)
    sym = tangential_extension(QuadFn(q), K)
    gen = tangential_extension(QuadFn(q), K.translate([1e-17, 0.0]), window=sym.domain)
    # translating by ~0 keeps the box path off (vertex count differs after
    # dedupe is immaterial); compare pointwise instead
    pts = sym.domain.grid_points(9)
    sv = sym.eval_many(pts)
    gv = np.array([gen.evaluate(p) for p in pts])
    assert np.allclose(sv, gv, atol=1e-8)


def test_extension_convexity_certificate():
    ext = tangential_extension(QuadFn(QuadraticFn(np.diag([2.0, 1.0]), np.zeros(2), 0.0)),
                               box([-1, -2], [1, 2]))
    assert ext.certificate is not None


# -- identities ---------------------------------------------------------------


def test_identity_residuals_on_seeded_instances():
    rng = generators.rng_for(100)
    for n in (1, 2, 3):
        u = generators.random_pa(rng, n)
        phi = generators.random_unimodular(rng, n)
        reports = conjugate_identities_check(u, rng.uniform(-1, 1, n),
                                             float(rng.uniform(-2, 2)), phi)
        assert len(reports) == 6
        for r in reports:
            assert r.passed, f"{r.name}: {r.residual}"


def test_lattice_duality_on_interval_indicators():
    from affval.funcs import join, meet

    u = PAFn.indicator(box([0], [2]))
    v = PAFn.indicator(box([1], [3]))
    lhs = legendre_pa(meet(u, v))           # conjugate of the merged indicator
    su, sv = legendre_pa(u), legendre_pa(v)
    ys = np.linspace(-3, 3, 61)[:, None]
    assert np.allclose(lhs.eval_many(ys),
                       np.maximum(su.eval_many(ys), sv.eval_many(ys)), atol=1e-12)
    rhs = legendre_pa(join(u, v))           # conjugate of the overlap indicator
    assert np.allclose(rhs.eval_many(ys),
                       np.minimum(su.eval_many(ys), sv.eval_many(ys)), atol=1e-12)


def test_identity_check_rejects_non_unimodular():
    from affval.errors import BadTransform

    u = abs_on_interval()
    with pytest.raises(BadTransform):
        conjugate_identities_check(u, [0.0], 0.0,
                                   __import__("affval.geometry", fromlist=["AffineMap"])
                                   .AffineMap(np.array([[2.0]]), np.zeros(1)))
