import numpy as np
import pytest

from affval import generators
from affval.errors import BadParameter, DegenerateDomain
from affval.funcs import AffineFn, PAFn, QuadFn, QuadraticFn, lipschitz_constant
from affval.geometry import box, cube, point, segment
from affval.sequences import (
    StaircaseSpec,
    anisotropic_scaling,
    degenerate_sequence,
    pa_approximate,
    patch_smallness_bound,
    staircase_reference,
    staircase_sequence,
    staircase_z_closed_form,
    tau_probe,
    touching_patch,
    usc_experiment,
    zonotope_segment_approx,
)
from affval.transforms import moreau_box
from affval.valuations import Valuation, apply, power_zeta, sqrt_zeta, z_zeta, z_zeta_numeric, z_zeta_plq

SQ = sqrt_zeta()


def unit_q_on_cube(n=2):
    return QuadFn(QuadraticFn(np.eye(n), np.zeros(n), 0.0), cube(n))


# -- PA approximation ---------------------------------------------------------


def test_pa_approximate_counts_and_gap_bound():
    u = unit_q_on_cube()
    w = pa_approximate(u, 4)
    assert len(w.pieces) == 16
    pts = u.domain.grid_points(21)
    gap = np.abs(w.eval_many(pts) - u.eval_many(pts)).max()
    spacing = 2.0 / 3.0
    assert gap <= (spacing * np.sqrt(2)) ** 2 / 2


def test_pa_approximate_gap_shrinks_quadratically():
    u = unit_q_on_cube()
    pts = u.domain.grid_points(31)
    gaps = []
    for k in (4, 8, 16):
        w = pa_approximate(u, k)
        gaps.append(np.abs(w.eval_many(pts) - u.eval_many(pts)).max())
    assert gaps[1] <= gaps[0] / 2.5
    assert gaps[2] <= gaps[1] / 2.5


def test_pa_approximate_is_minorant_with_bounded_slopes():
    rng = generators.rng_for(2)
    u = generators.random_plq(rng, 2)
    w = pa_approximate(u, 5)
    pts = u.domain.grid_points(15)
    assert np.all(w.eval_many(pts) <= u.eval_many(pts) + 1e-9)
    assert w.lipschitz() <= lipschitz_constant(u) + 1e-9


def test_pa_approximate_exact_once_grid_hits_cells():
    u = PAFn([AffineFn([1.0], 0.0), AffineFn([-1.0], 0.0)], box([-1], [1]))
    w = pa_approximate(u, 9)
    pts = u.domain.grid_points(33)
    assert np.abs(w.eval_many(pts) - u.eval_many(pts)).max() <= 1e-9


def test_pa_approximate_needs_full_dimensional_domain():
    with pytest.raises(DegenerateDomain):
        pa_approximate(PAFn.indicator(segment([0, 0], [1, 1])), 3)


# -- tau probes ---------------------------------------------------------------


def test_tau_probe_envelope_sequence_consistent():
    base = PAFn([AffineFn([0.5], 0.0), AffineFn([-0.5], 0.0)], box([-1], [1]))
    seq = [moreau_box(base, 1.0, 2.0 ** -j) for j in range(0, 11, 2)]
    probe = tau_probe(seq, base, per_axis=17)
    gaps = [g[0] for g in probe.sup_gaps]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert probe.tau_consistent


def test_tau_probe_flags_growing_lipschitz():
    base = PAFn([AffineFn([0.5], 0.0), AffineFn([-0.5], 0.0)], box([-1], [1]))
    seq = [moreau_box(base, 2.0 ** j, 1.0) for j in range(0, 9, 2)]
    probe = tau_probe(seq, base, per_axis=17)
    gaps = [g[0] for g in probe.sup_gaps]
    assert gaps[-1] <= 1e-3          # the values do converge
    assert not probe.lipschitz_ok    # but the Lipschitz constants blow up
    assert not probe.tau_consistent


def test_tau_probe_constant_sequence():
    u = unit_q_on_cube()
    probe = tau_probe([u, u, u], u)
    assert all(g == (0.0,) for g in probe.sup_gaps)
    assert probe.tau_consistent


# -- staircase ----------------------------------------------------------------


def test_staircase_m1_structure():
    spec = StaircaseSpec(0.0, 1.0, 2.0, 1.0, 1.0, 1, 2)
    u = staircase_sequence(spec)
    assert len(u.cells) == 3
    assert spec.mixing_weight == pytest.approx(0.5)
    # steep cell has width lam * 2 t2 / m = 1
    steep_cell = u.cells[1][0]
    lo, hi = steep_cell.bbox
    assert hi[1] - lo[1] == pytest.approx(1.0)


def test_staircase_cells_cover_the_box():
    for m in (1, 3, 8):
        spec = StaircaseSpec(0.2, 1.0, 3.0, 1.5, 1.0, m, 2)
        u = staircase_sequence(spec)
        assert len(u.cells) == 2 * m + 1
        total = sum(P.volume for P, _ in u.cells)
        assert total == pytest.approx(spec.base_box().volume, rel=1e-12)


def test_staircase_value_independent_of_m():
    spec0 = dict(s=0.0, a=1.0, r=2.0, t1=1.0, t2=1.0, n=2)
    target = staircase_z_closed_form(StaircaseSpec(m=1, **spec0), SQ)
    assert target == pytest.approx(4.0 * np.sqrt(2.0), rel=1e-12)
    for m in (1, 2, 4, 8):
        u = staircase_sequence(StaircaseSpec(m=m, **spec0))
        assert z_zeta_plq(u, SQ) == pytest.approx(target, rel=1e-8)


def test_staircase_concavity_comparison():
    rng = generators.rng_for(31)
    for _ in range(20):
        s = float(rng.uniform(0.0, 0.8))
        a = float(rng.uniform(s + 0.05, s + 1.0))
        r = float(rng.uniform(a + 0.05, a + 2.0))
        spec = StaircaseSpec(s, a, r, 1.0, 1.0, 1, 2)
        lhs = SQ(4.0 * a) * spec.base_box().volume
        assert lhs >= staircase_z_closed_form(spec, SQ) - 1e-12


def test_staircase_in_three_dimensions():
    spec = StaircaseSpec(0.5, 1.0, 2.0, 1.0, 1.0, 2, 3)
    u = staircase_sequence(spec)
    assert z_zeta_plq(u, SQ) == pytest.approx(staircase_z_closed_form(spec, SQ), rel=1e-10)


def test_staircase_spec_validation():
    with pytest.raises(BadParameter):
        StaircaseSpec(1.0, 1.0, 2.0)
    with pytest.raises(BadParameter):
        StaircaseSpec(0.0, 2.0, 1.0)
    with pytest.raises(BadParameter):
        StaircaseSpec(0.0, 1.0, 2.0, n=1)


# -- degenerate sequence --------------------------------------------------------


def test_degenerate_sequence_values():
    assert z_zeta_plq(degenerate_sequence(4, 2), SQ) == pytest.approx(0.5, rel=1e-12)
    assert z_zeta_plq(degenerate_sequence(100, 2), SQ) == pytest.approx(0.1, rel=1e-12)
    z14 = power_zeta(0.25)
    assert z_zeta_plq(degenerate_sequence(10_000, 2), z14) == pytest.approx(1e-3, rel=1e-12)


def test_degenerate_sequence_decays():
    z14 = power_zeta(0.25)
    vals = [z_zeta_plq(degenerate_sequence(k, 2), z14) for k in (1, 4, 16, 64, 256)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_degenerate_sequence_dim3():
    u = degenerate_sequence(8, 3)
    assert u.cells[0][1].det_hessian == pytest.approx(8.0, rel=1e-12)
    assert u.domain.volume == pytest.approx(1.0 / 8.0)


# -- zonotope approximation -----------------------------------------------------


def test_zonotope_m2_against_target():
    approx = zonotope_segment_approx(1.0, 2)
    assert approx.sup_gap <= 0.5
    assert approx.max_slope <= 2.0


def test_zonotope_gap_decays_and_slopes_stay_bounded():
    g_prev = None
    for m in (2, 4, 8, 16):
        approx = zonotope_segment_approx(1.0, m)
        assert approx.max_slope <= 2.0 + 1e-12
        assert np.abs(approx.composite.G).max() <= 2.0 + 1e-12
        if g_prev is not None:
            assert approx.sup_gap <= 0.75 * g_prev
        g_prev = approx.sup_gap


def test_zonotope_rejects_bad_parameters():
    with pytest.raises(BadParameter):
        zonotope_segment_approx(1.0, 1)
    with pytest.raises(BadParameter):
        zonotope_segment_approx(-1.0, 4)


# -- touching patch ---------------------------------------------------------------


def _point_envelope(lam=1.0, mu=1.0):
    return moreau_box(PAFn.indicator(point([0.0])), lam, mu)


def test_patch_equals_sharpened_quadratic_on_core():
    env = _point_envelope()
    lc = PAFn([AffineFn([0.0], -1.0)], box([-2], [2]))
    t, r = 1.0 / 32.0, 0.1
    patch = touching_patch(env, [0.0], t, r, lc)
    core = (1 - 4 * np.sqrt(t)) * r
    for x in np.linspace(-0.9 * core, 0.9 * core, 7):
        assert patch.evaluate([x]) == pytest.approx((1 + t) * 0.5 * x * x, abs=1e-14)
    assert patch.evaluate([0.0]) == pytest.approx(env.evaluate([0.0]))


def test_patch_sandwich_and_support_containment():
    env = _point_envelope()
    lc = PAFn([AffineFn([0.1], -0.5)], box([-2], [2]))
    li_vals = lambda X: env.eval_many(X) + 0.25  # a strict PA-free majorant stand-in
    t, r = 1.0 / 64.0, 0.2
    patch = touching_patch(env, [0.0], t, r, lc)
    pts = patch.domain.grid_points(33)
    pv = patch.eval_many(pts)
    assert np.all(lc.eval_many(pts) <= pv + 1e-12)
    assert np.all(pv <= li_vals(pts) + 1e-12)


def test_patch_z_inequality_with_admissible_sharpening():
    env = _point_envelope()
    lc = PAFn([AffineFn([0.0], -1.0)], box([-2], [2]))
    rho = 0.5
    t = 0.9 * patch_smallness_bound(rho, env.lam, 1, SQ)
    r = 0.1
    patch = touching_patch(env, [0.0], t, r, lc)
    rC = box([-r], [r])
    lhs = z_zeta_numeric(env, rC, SQ, grid=256)
    rhs = z_zeta_plq(patch, SQ) + 0.5 * rho * rC.volume
    assert lhs <= rhs
    assert lhs == pytest.approx(SQ(1.0) * rC.volume, rel=0.01)


def test_patch_2d_certified_and_supported():
    env = moreau_box(PAFn.indicator(point([0.0, 0.0])), 2.0, 1.0)
    lc = PAFn([AffineFn([0.0, 0.0], -1.0)], cube(2, 3.0))
    patch = touching_patch(env, [0.0, 0.0], 1.0 / 40.0, 0.15, lc)
    assert patch.certificate is not None
    assert patch.evaluate([0.0, 0.0]) == pytest.approx(0.0)


def test_patch_parameter_validation():
    env = _point_envelope()
    lc = PAFn([AffineFn([0.0], -1.0)], box([-2], [2]))
    with pytest.raises(BadParameter):
        touching_patch(env, [0.0], 0.2, 0.1, lc)      # t too large
    with pytest.raises(BadParameter):
        touching_patch(env, [1.0], 1.0 / 32, 0.1, lc)  # boundary point
    high = PAFn([AffineFn([0.0], 10.0)], box([-2], [2]))
    with pytest.raises(BadParameter):
        touching_patch(env, [0.0], 1.0 / 32, 0.1, high)
    # the envelope of the indicator of [-1, 1] is flat at 0
    flat = moreau_box(PAFn.indicator(box([-1], [1])), 1.0, 1.0)
    with pytest.raises(BadParameter, match="curvature .* degenerate"):
        touching_patch(flat, [0.0], 1.0 / 32, 0.1, lc)


# -- anisotropic scaling ----------------------------------------------------------


def test_anisotropic_scaling_examples():
    m2 = anisotropic_scaling(2.0, 1, 2)
    assert np.allclose(np.diag(m2.matrix), [2.0, 0.5])
    assert m2.det == pytest.approx(1.0, abs=1e-15)
    m3 = anisotropic_scaling(2.0, 2, 3)
    assert np.allclose(np.diag(m3.matrix), [2.0, 2.0, 0.25])
    assert m3.det == pytest.approx(1.0, abs=1e-15)


def test_anisotropic_scaling_preserves_volume():
    from affval.geometry import affine_image

    P = box(np.zeros(3), np.ones(3))
    S = affine_image(P, anisotropic_scaling(1.7, 0, 3))
    assert S.volume == pytest.approx(1.0, rel=1e-12)


def test_anisotropic_scaling_validation():
    with pytest.raises(BadParameter):
        anisotropic_scaling(-1.0, 0, 2)
    with pytest.raises(BadParameter):
        anisotropic_scaling(1.0, 5, 2)


# -- upper semicontinuity experiments ----------------------------------------------


def test_usc_staircase_gap():
    Z = Valuation(0.0, 0.0, SQ)
    spec0 = dict(s=0.0, a=1.0, r=2.0, t1=1.0, t2=1.0, n=2)
    seq = [staircase_sequence(StaircaseSpec(m=m, **spec0)) for m in (1, 2, 4)]
    limit = staircase_reference(StaircaseSpec(m=1, **spec0))
    rep = usc_experiment(Z, seq, limit)
    assert rep.passed
    gap = apply(Z, limit) - max(rep.witnesses[:-1])
    assert gap == pytest.approx(8.0 - 4.0 * np.sqrt(2.0), rel=1e-9)


def test_usc_pa_approximants_show_strict_gap():
    Z = Valuation(0.0, 0.0, SQ)
    u = unit_q_on_cube()
    seq = [pa_approximate(u, k) for k in (3, 5, 7)]
    rep = usc_experiment(Z, seq, u)
    assert rep.passed
    assert all(v == 0.0 for v in rep.witnesses[:-1])
    assert rep.witnesses[-1] == pytest.approx(SQ(1.0) * cube(2).volume)


def test_usc_constant_sequence_zero_gap():
    Z = Valuation(0.0, 0.0, SQ)
    u = unit_q_on_cube()
    rep = usc_experiment(Z, [u, u], u)
    assert rep.passed
    assert rep.witnesses[-1] == pytest.approx(max(rep.witnesses[:-1]))
