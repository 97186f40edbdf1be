import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affval import generators
from affval.errors import BadTransform, NotAValuation, NotConc, NumericalLimit
from affval.funcs import AffineFn, PAFn, QuadFn, QuadraticFn, make_cylinder
from affval.geometry import (AffineMap, box, box_clip_volumes, cube, from_halfspaces, hull, point,
                             segment)
from affval.valuations import (
    Valuation,
    apply,
    extract_zeta,
    invariance_check,
    power_zeta,
    pwl_concave,
    sqrt_zeta,
    validate_conc,
    valuation_identity_check,
    z_zeta,
    z_zeta_numeric,
    z_zeta_plq,
    zeta_dual,
)


SQ = sqrt_zeta()


def quad_box(a, n, lo=0.0, hi=1.0):
    q = QuadraticFn(a * np.eye(n), np.zeros(n), 0.0)
    return QuadFn(q, box(lo * np.ones(n), hi * np.ones(n)))


# -- weight class -------------------------------------------------------------


def test_power_weight_accepted():
    z = power_zeta(0.25)
    assert z.certificate["max_concavity_violation"] <= 1e-9
    assert z(16.0) == pytest.approx(2.0)


def test_identity_weight_rejected_by_tail():
    with pytest.raises(NotConc, match="tail"):
        validate_conc(lambda t: np.asarray(t, dtype=float))


def test_capped_linear_weight_accepted():
    z = pwl_concave([(1.0, 1.0)])
    assert z(0.5) == pytest.approx(0.5)
    assert z(100.0) == pytest.approx(1.0)


def test_nonzero_at_origin_rejected():
    with pytest.raises(NotConc):
        validate_conc(lambda t: np.asarray(t, dtype=float) * 0.0 + 1.0)


def test_convex_weight_rejected():
    with pytest.raises(NotConc):
        validate_conc(lambda t: np.minimum(np.asarray(t, dtype=float) ** 2, 1.0))


# -- dual weight --------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 0.9))
def test_dual_of_power_is_complementary_power(p):
    zd = zeta_dual(power_zeta(p))
    ts = np.logspace(-2, 2, 9)
    assert np.allclose(zd(ts), ts ** (1.0 - p), rtol=1e-10)


def test_dual_involution_on_grid():
    z = pwl_concave([(0.5, 0.4), (2.0, 1.0)])
    zdd = zeta_dual(zeta_dual(z))
    ts = np.logspace(-3, 3, 25)
    assert np.abs(zdd(ts) - z(ts)).max() <= 1e-10


def test_dual_of_quarter_power():
    zd = zeta_dual(power_zeta(0.25))
    assert zd(16.0) == pytest.approx(16.0 ** 0.75)


# -- closed forms -------------------------------------------------------------


def test_z_closed_form_quadratic_over_square():
    u = quad_box(4.0, 2)
    assert z_zeta(u, SQ) == pytest.approx(4.0, rel=1e-12)


def test_z_vanishes_on_pa():
    rng = generators.rng_for(0)
    assert z_zeta(generators.random_pa(rng, 2), SQ) == 0.0


def test_z_matches_staircase_form():
    from affval.sequences import StaircaseSpec, staircase_sequence, staircase_z_closed_form

    spec = StaircaseSpec(0.0, 1.0, 2.0, m=3)
    assert z_zeta_plq(staircase_sequence(spec), SQ) == pytest.approx(
        staircase_z_closed_form(spec, SQ), rel=1e-12)


# -- quadrature ---------------------------------------------------------------


def test_quadrature_matches_closed_form():
    u = quad_box(4.0, 2)
    num = z_zeta_numeric(u, u.domain, SQ)
    assert num == pytest.approx(4.0, rel=0.01)


def test_quadrature_on_pa_is_tiny():
    rng = generators.rng_for(1)
    u = generators.random_pa(rng, 2)
    num = z_zeta_numeric(u, u.domain, SQ, grid=64)
    # zero Hessian a.e.; the residue is finite-difference noise through zeta
    assert abs(num) <= 1e-3 * u.domain.volume


def test_quadrature_on_envelope_1d():
    from affval.transforms import moreau_box

    env = moreau_box(PAFn.indicator(point([0.0])), 1.0, 1.0)
    capped = pwl_concave([(10.0, 10.0)])
    num = z_zeta_numeric(env, env.domain, capped, grid=256)
    assert num == pytest.approx(2.0, rel=0.01)


def test_quadrature_on_triangle_domain():
    from affval.geometry import hull

    tri = hull([[0, 0], [2, 0], [0, 2]])
    u = QuadFn(QuadraticFn(3.0 * np.eye(2), np.zeros(2), 0.0), tri)
    num = z_zeta_numeric(u, tri, SQ)
    assert num == pytest.approx(3.0 * tri.volume, rel=0.01)


def test_quadrature_refuses_overflowing_hessians():
    # finite Hessians of slope-1e200 kinks whose determinants overflow used to
    # give Z = inf; a slope of 1e200 alone still gives the exact 0
    sq = box([0.0, 0.0], [1.0, 1.0])
    u = PAFn([AffineFn(np.array([1e200, 0.0]), 0.0), AffineFn(np.array([0.0, 1e200]), 0.0)], sq)
    with pytest.raises(NumericalLimit, match="overflow the finite-difference Hessians"):
        z_zeta_numeric(u, sq, SQ, grid=32)
    assert z_zeta_numeric(PAFn([AffineFn(np.array([1e200, 0.0]), 0.0)], sq), sq, SQ,
                          grid=32) == 0.0


def clip_volumes_loop(P, centers, delta):
    """The per-box clip that `box_clip_volumes` replaced: one polytope per
    box from every facet of P and the box, volume 0 when it is degenerate."""
    n = P.dim
    A, b = P.halfspaces
    eye = np.eye(n)
    out = np.zeros(len(centers))
    for i, c in enumerate(centers):
        piece = from_halfspaces(np.vstack([A, eye, -eye]),
                                np.concatenate([b, c + delta / 2, -(c - delta / 2)]), n)
        if piece is not None and not piece.is_degenerate:
            out[i] = piece.volume
    return out


def _grid_boxes(P, grid, shift):
    """Centers of a grid of boxes over the bounding box of P, one box wider
    on each side and moved by `shift` boxes, and the box widths."""
    lo, hi = P.bbox
    delta = (hi - lo) / grid
    axes = [lo[i] + delta[i] * (np.arange(-1, grid + 1) + 0.5 + shift) for i in range(P.dim)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, P.dim), delta


def _clip_cases():
    rng = np.random.default_rng(7)
    cases = []
    for n, grid in ((1, 8), (2, 12), (3, 3)):
        cases.append((hull(rng.normal(size=(2 + 3 * n, n))), grid, 0.3))
        # halfspace form: facets tangent to a ball, some of them redundant
        normals = rng.normal(size=(4 * n, n))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        normals = np.vstack([normals, np.eye(n), -np.eye(n)])
        cases.append((from_halfspaces(normals, rng.uniform(0.8, 1.2, len(normals)), n), grid, 0.3))
        # the simplex on [0, 1]^n on an aligned grid: its slanted facet
        # passes through box corners, so boxes outside it touch it at a
        # corner or an edge
        cases.append((hull(np.vstack([np.zeros(n), np.eye(n)])), 8 if n < 3 else 4, 0.0))
    # a 3-d polytope with many small facets on a coarse grid: boxes cut by 4 to 10 facets
    pts = rng.normal(size=(10, 3))
    cases.append((hull(pts / np.linalg.norm(pts, axis=1)[:, None]), 2, 0.3))
    return cases


@pytest.mark.parametrize("case", range(10))
def test_box_clip_volumes_match_per_box_loop(case):
    P, grid, shift = _clip_cases()[case]
    centers, delta = _grid_boxes(P, grid, shift)
    batch = box_clip_volumes(P, centers, delta)
    loop = clip_volumes_loop(P, centers, delta)
    np.testing.assert_array_equal(batch == 0, loop == 0)
    assert np.all(np.abs(batch - loop) <= 1e-12 * np.prod(delta))
    # boxes outside, inside and (but on the 1-d aligned grid) cut by P all occur
    assert 0 < np.count_nonzero(batch) < len(batch)
    assert (P.dim == 1 and shift == 0) or np.any((batch > 0) & (batch < 0.999 * np.prod(delta)))
    # the boxes tile a neighbourhood of P, so the clips partition P
    assert batch.sum() == pytest.approx(P.volume, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_box_clip_volumes_count_a_facet_on_a_box_face_once(n):
    # the unit cube less a corner, and boxes whose +x_0 face lies an ulp
    # beyond P's facet x_0 <= 1: the facet cuts them, and both rows bound
    # each clip on one plane
    eye = np.eye(n)
    P = from_halfspaces(np.vstack([eye, -eye, np.ones(n)]),
                        np.concatenate([np.ones(n), np.zeros(n), [n - 0.5]]), n)
    c0 = 0.95
    while c0 + 0.05 <= 1.0:
        c0 = np.nextafter(c0, 1.0)
    axes = [np.array([c0])] + [0.05 + 0.1 * np.arange(10)] * (n - 1)
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    delta = np.full(n, 0.1)
    A, b = P.halfspaces
    on_face = np.flatnonzero(np.isclose(A[:, 0], 1.0) & np.isclose(b, 1.0))
    assert len(on_face) == 1
    assert np.all(centers @ A[on_face[0]] + 0.05 * np.abs(A[on_face[0]]).sum() > b[on_face[0]])
    batch = box_clip_volumes(P, centers, delta)
    loop = clip_volumes_loop(P, centers, delta)
    assert np.count_nonzero(batch > 0.99 * np.prod(delta)) > 1
    assert np.all(np.abs(batch - loop) <= 1e-12 * np.prod(delta))


def _shallow_bottoms():
    """Rows (a, b) of shallow facets a.x <= b over the bottom of the unit
    cube that come within the vertex merge tolerance of it across a box."""
    def ridge(s, x0):
        return [[s, 0.0, -1.0], [-s, 0.0, -1.0]], [s * x0, -s * x0]
    return {
        # z >= slope * (x + y): the facet and the box's bottom face share some
        # tight vertices but not all
        "tilt 7e-8": ([[7e-8, 7e-8, -1.0]], [0.0]),
        "tilt 7e-7": ([[7e-7, 7e-7, -1.0]], [0.0]),
        # z >= s |x - x0|: a ridge inside a box, each facet within the
        # tolerance of the bottom face but not of the other facet
        "ridge": ridge(1e-6, 0.45),
        # three facets within 1e-8 of each other and of the bottom, two of
        # them with traces on the face x = 1 parallel to within EPS_GEOM
        "three": ([[4.48322738e-08, 2.72220283e-08, -1.0], [-2.48631437e-07, 4.92860425e-08, -1.0],
                   [-3.70344171e-09, -2.64299971e-08, -1.0]],
                  [6.01426255e-09, -1.38153015e-07, -6.81456317e-09]),
    }


@pytest.mark.parametrize("bottom", list(_shallow_bottoms()))
def test_box_clip_volumes_of_facets_within_the_merge_tolerance_of_a_box_face(bottom):
    rows, offsets = _shallow_bottoms()[bottom]
    eye = np.eye(3)
    P = from_halfspaces(np.vstack([eye, -eye, rows]),
                        np.concatenate([np.ones(3), np.zeros(3), offsets]), 3)
    lo, hi = P.bbox
    axis = 0.05 + 0.1 * np.arange(10)
    centers = np.stack(np.meshgrid(axis, axis, [lo[2] + 0.05], indexing="ij"),
                       axis=-1).reshape(-1, 3)
    delta = np.full(3, 0.1)
    batch = box_clip_volumes(P, centers, delta)
    loop = clip_volumes_loop(P, centers, delta)
    # the loop resolves vertices to VERTEX_MERGE_TOL = 1e-7; a face counted
    # twice or cut short is several percent of a box
    assert np.all(np.abs(batch - loop) <= 1e-5 * np.prod(delta))


def test_box_clip_cases_cut_boxes_by_many_facets():
    P, grid, shift = _clip_cases()[-1]
    centers, delta = _grid_boxes(P, grid, shift)
    A, b = P.halfspaces
    cuts = (centers @ A.T + np.abs(A) @ (delta / 2) > b).sum(axis=1)
    assert np.count_nonzero(cuts >= 4) >= 40 and cuts.max() >= 8


# -- the full valuation -------------------------------------------------------


def test_apply_constant_term_on_indicator():
    val = Valuation(1.0, 0.0, SQ)
    assert apply(val, PAFn.indicator(box([0, 0], [2, 2]))) == pytest.approx(1.0)


def test_apply_volume_term():
    val = Valuation(0.0, 1.0, SQ)
    assert apply(val, PAFn.indicator(box([0, 0], [2, 2]))) == pytest.approx(4.0)


def test_apply_integral_term():
    val = Valuation(0.0, 0.0, SQ)
    assert apply(val, quad_box(4.0, 2)) == pytest.approx(4.0)


# -- valuation identity -------------------------------------------------------


def test_identity_on_interval_indicators():
    val = Valuation(0.0, 1.0, SQ)
    rep = valuation_identity_check(val, PAFn.indicator(box([0], [2])),
                                   PAFn.indicator(box([1], [3])))
    assert rep.passed and rep.residual <= 1e-12


def test_identity_on_shared_quadratics():
    val = Valuation(0.0, 1.0, SQ)
    q = QuadraticFn([[1.0]], [0.0], 0.0)
    rep = valuation_identity_check(val, QuadFn(q, box([0], [2])), QuadFn(q, box([1], [3])))
    assert rep.passed


def test_identity_on_random_pairs():
    rng = generators.rng_for(99)
    val = Valuation(1.0, 2.0, SQ)
    for n in (1, 2):
        for i in range(6):
            maker = generators.meet_pair_pa if i % 2 else generators.meet_pair_plq
            u, v = maker(rng, n)
            rep = valuation_identity_check(val, u, v)
            assert rep.passed, rep


def test_identity_on_staircase_restrictions():
    from affval.geometry import box as mkbox
    from affval.sequences import StaircaseSpec, staircase_sequence

    val = Valuation(1.0, 2.0, SQ)
    u_full = staircase_sequence(StaircaseSpec(0.2, 1.0, 2.5, m=3))
    P = mkbox([-1.0, -1.0], [1.0, 0.4])
    Q = mkbox([-1.0, -0.3], [1.0, 1.0])
    rep = valuation_identity_check(val, u_full.restrict(P), u_full.restrict(Q))
    assert rep.passed and not rep.note
    assert rep.residual <= rep.tolerance


def test_identity_skips_nonconvex_pairs():
    val = Valuation(0.0, 0.0, SQ)
    u = PAFn([AffineFn([1.0], 0.0)], box([-1], [1]))
    v = PAFn([AffineFn([-1.0], 0.0)], box([-1], [1]))
    rep = valuation_identity_check(val, u, v)
    assert rep.note.startswith("skipped")


# -- invariance ---------------------------------------------------------------


def test_invariance_under_added_affine():
    val = Valuation(0.0, 0.0, SQ)
    u = quad_box(4.0, 2).as_plq()
    rep = invariance_check(val, u, ("add_affine", AffineFn([3.0, 0.0], -1.0)))
    assert rep.residual == 0.0


def test_invariance_under_shear():
    val = Valuation(0.0, 0.0, SQ)
    u = quad_box(4.0, 2).as_plq()
    shear = AffineMap(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2))
    rep = invariance_check(val, u, ("unimodular", shear))
    assert rep.passed and rep.residual <= 1e-8


def test_invariance_under_translation():
    val = Valuation(0.0, 0.0, SQ)
    u = quad_box(4.0, 2).as_plq()
    rep = invariance_check(val, u, ("translate", [1.0, 2.0]))
    assert rep.passed


def test_invariance_rejects_non_unimodular():
    val = Valuation(0.0, 0.0, SQ)
    u = quad_box(1.0, 2).as_plq()
    with pytest.raises(BadTransform):
        invariance_check(val, u, ("unimodular", AffineMap(2 * np.eye(2), np.zeros(2))))


# -- weight extraction --------------------------------------------------------


def test_extract_recovers_sqrt_samples():
    zx = extract_zeta(lambda f: z_zeta(f, SQ), [0.5, 1.0, 2.0, 4.0], 2)
    assert zx(1.0) == pytest.approx(1.0)
    assert zx(16.0) == pytest.approx(4.0)


def test_extract_rejects_volume_functional():
    with pytest.raises(NotConc):
        extract_zeta(lambda f: f.domain.volume, [1.0, 2.0], 2)


def test_extract_accepts_zero_functional():
    z0 = extract_zeta(lambda f: 0.0, [1.0, 2.0], 2)
    assert z0(7.0) == 0.0


def test_extract_rejects_domain_dependent_ratio():
    def crooked(f):
        return f.domain.volume ** 2

    with pytest.raises(NotAValuation):
        extract_zeta(crooked, [1.0], 2)


# -- structural invariants ----------------------------------------------------


def test_z_nonnegative_on_certified_inputs():
    rng = generators.rng_for(11)
    for n in (1, 2):
        for _ in range(5):
            u = generators.random_plq(rng, n)
            assert z_zeta(u, SQ) >= 0.0
            assert z_zeta(u, power_zeta(0.3)) >= 0.0


def test_simplicity_on_degenerate_domains():
    u = PAFn([AffineFn([1.0, 0.0], 0.0)], segment([0, 0], [1, 1]))
    assert z_zeta(u, SQ) == 0.0
    q = QuadraticFn(np.eye(2), np.zeros(2), 0.0)
    assert z_zeta(QuadFn(q, segment([0, -1], [0, 1])), SQ) == 0.0


def test_z_vanishes_on_cylinders():
    base = QuadFn(QuadraticFn(np.eye(2), np.zeros(2), 0.0), segment([0, -1], [0, 1]))
    cyl = make_cylinder(base, AffineFn([0.0, 0.0], 0.0), segment([0, 0], [1, 0]))
    assert z_zeta(cyl, SQ) == 0.0
    pa_cyl = make_cylinder(PAFn.indicator(point([0.0])), AffineFn([0.0], 0.0), box([0], [1]))
    assert z_zeta(pa_cyl, SQ) == 0.0


def test_integral_duality_closed_form_and_quadrature():
    from affval.transforms import separable_clip_plq

    zd = zeta_dual(SQ)
    n = 2
    for a in (0.5, 1.0, 2.0, 4.0):
        lhs_closed = SQ(a ** n) * cube(n).volume
        rhs_closed = zd(a ** (-n)) * cube(n, a).volume
        assert lhs_closed == pytest.approx(rhs_closed, rel=1e-12)
        # quadrature on both sides
        u = QuadFn(QuadraticFn(a * np.eye(n), np.zeros(n), 0.0), cube(n))
        lhs_num = z_zeta_numeric(u, cube(n), SQ)
        conj = separable_clip_plq((1.0 / a) * np.ones(n), np.zeros(n), 0.0,
                                  -a * np.ones(n), a * np.ones(n), cube(n, 2.0 * a))
        rhs_num = z_zeta_numeric(conj, conj.domain, zd)
        assert lhs_num == pytest.approx(lhs_closed, rel=0.01)
        assert rhs_num == pytest.approx(rhs_closed, rel=0.01)


def test_monotonicity_in_the_weight():
    rng = generators.rng_for(4)
    z_small = power_zeta(0.5)
    big = validate_conc(lambda t: 2.0 * np.sqrt(np.maximum(t, 0.0)))
    ts = np.logspace(-3, 3, 30)
    assert np.all(big(ts) >= z_small(ts) - 1e-12)
    for _ in range(5):
        u = generators.random_plq(rng, 2)
        assert z_zeta(u, big) >= z_zeta(u, z_small) - 1e-12
