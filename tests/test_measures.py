import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from affval import generators
from affval.errors import NotFiniteValued
from affval.funcs import AffineFn, PAFn, _dedupe_pieces, essential_mask_global
from affval.geometry import cube, hull
from affval.measures import ma_total_mass, ma_weak_probe, monge_ampere_pa
from affval.transforms import _add_pa


def l1_fn(n=2):
    signs = [(1.0, -1.0)] * n
    pieces = []
    for s in itertools.product(*signs):
        pieces.append(AffineFn(np.array(s), 0.0))
    return PAFn(pieces, None)


def tangent_minorant_of_q(scale, k=5, half_width=1.0):
    """Finite max of tangents of scale * ||x||^2 / 2 on a grid (n = 2)."""
    axes = np.linspace(-half_width, half_width, k)
    pieces = []
    for gx in axes:
        for gy in axes:
            g = scale * np.array([gx, gy])
            val = 0.5 * scale * (gx * gx + gy * gy)
            pieces.append(AffineFn(g, val - g @ np.array([gx, gy])))
    return PAFn(pieces, None)


def test_l1_measure_is_single_atom():
    m = monge_ampere_pa(l1_fn())
    assert len(m.atoms) == 1
    x, mass = m.atoms[0]
    assert np.allclose(x, 0.0)
    assert mass == pytest.approx(4.0)


def test_two_kink_function_has_unit_atoms():
    v = PAFn([AffineFn([0.0], 0.0), AffineFn([1.0], -1.0), AffineFn([-1.0], -1.0)], None)
    m = monge_ampere_pa(v)
    locs = sorted(float(x[0]) for x, _ in m.atoms)
    assert locs == pytest.approx([-1.0, 1.0])
    assert all(mass == pytest.approx(1.0) for _, mass in m.atoms)


def test_affine_has_no_atoms():
    m = monge_ampere_pa(PAFn([AffineFn([1.0, 2.0], 0.3)], None))
    assert m.atoms == ()
    assert m.total_mass == 0.0


def test_compact_domain_input_rejected():
    with pytest.raises(NotFiniteValued):
        monge_ampere_pa(PAFn.indicator(cube(2)))


def test_total_mass_duality_examples():
    mass, dual = ma_total_mass(l1_fn())
    assert mass == pytest.approx(4.0) and dual == pytest.approx(4.0)
    mass3, dual3 = ma_total_mass(l1_fn(3))
    assert mass3 == pytest.approx(8.0) and dual3 == pytest.approx(8.0)
    massa, duala = ma_total_mass(PAFn([AffineFn([0.5, -0.5], 1.0)], None))
    assert massa == 0.0 and duala == 0.0


def test_total_mass_duality_random():
    rng = generators.rng_for(3)
    for n in (1, 2, 3):
        for _ in range(8):
            v = generators.random_finite_pa(rng, n)
            mass, dual = ma_total_mass(v)
            assert mass == pytest.approx(dual, rel=1e-9, abs=1e-12)


def test_hyperplane_split_additivity():
    rng = generators.rng_for(8)
    for _ in range(6):
        v = generators.random_finite_pa(rng, 2)
        m = monge_ampere_pa(v)
        a = rng.normal(size=2)
        beta = float(rng.uniform(-0.5, 0.5))
        below, on, above = m.masses_split_by_hyperplane(a, beta)
        assert below + on + above == pytest.approx(m.total_mass, rel=1e-12)


def test_translation_equivariance():
    rng = generators.rng_for(12)
    v = generators.random_finite_pa(rng, 2)
    y = np.array([0.7, -1.3])
    m0 = monge_ampere_pa(v)
    m1 = monge_ampere_pa(v.translate(y))
    assert len(m0.atoms) == len(m1.atoms)
    for (x0, w0), (x1, w1) in zip(m0.atoms, m1.atoms):
        assert np.allclose(x0 + y, x1, atol=1e-9)
        assert w0 == pytest.approx(w1, rel=1e-9)


def test_added_affine_preserves_total_mass():
    rng = generators.rng_for(23)
    v = generators.random_finite_pa(rng, 2)
    l = AffineFn(rng.uniform(-1, 1, 2), 0.4)
    assert monge_ampere_pa(v.plus_affine(l)).total_mass == pytest.approx(
        monge_ampere_pa(v).total_mass, rel=1e-9)


def test_weak_probe_gaps_decrease():
    v = l1_fn()
    seq = [_add_pa(v, tangent_minorant_of_q(1.0 / k, k=4)) for k in (1, 2, 4, 8, 16)]
    bump = lambda x: max(0.0, 1.0 - 0.25 * float(np.linalg.norm(np.asarray(x))))
    reports = ma_weak_probe(seq, v, [bump])
    vals = np.array(reports[0].witnesses[:-1])
    target = reports[0].witnesses[-1]
    gaps = np.abs(vals - target)
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < 0.05 * gaps[0]


def test_weak_probe_constant_sequence_is_exact():
    v = l1_fn()
    reports = ma_weak_probe([v, v, v], v, [lambda x: 1.0])
    assert reports[0].passed
    assert reports[0].residual == 0.0


def test_weak_probe_constant_testfn_reduces_to_total_mass():
    v = l1_fn()
    seq = [_add_pa(v, tangent_minorant_of_q(0.5 / k, k=3)) for k in (1, 2)]
    reports = ma_weak_probe(seq, v, [lambda x: 1.0])
    vals = reports[0].witnesses
    for val, vk in zip(vals[:-1], seq):
        assert val == pytest.approx(monge_ampere_pa(vk).total_mass, rel=1e-12)
    assert vals[-1] == pytest.approx(4.0)


def test_weak_probe_accepts_grid_sampled_testfn():
    v = l1_fn()
    xs = np.stack(np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 2, 9),
                              indexing="ij"), -1).reshape(-1, 2)
    ys = np.maximum(0.0, 1.0 - 0.3 * np.abs(xs).sum(axis=1))
    reports = ma_weak_probe([v], v, [(xs, ys)])
    assert reports[0].passed


# -- reference implementations ---------------------------------------------------


def ma_by_subsets(v):
    """Monge-Ampere atoms by enumerating (n+1)-subsets of pieces: solve for
    simultaneous activity, keep globally maximal points, and weigh each
    distinct point by the hull volume of the gradients active there."""
    n = v.dim
    G, c = v.G, v.cvec
    locations = []
    for subset in itertools.combinations(range(len(G)), n + 1):
        i0, rest = subset[0], list(subset[1:])
        A = G[rest] - G[i0]
        if abs(np.linalg.det(A)) <= 1e-10 * max(1.0, float(np.abs(A).max()) ** n):
            continue
        x = np.linalg.solve(A, c[i0] - c[rest])
        vals = G @ x + c
        if vals[i0] >= vals.max() - 1e-8 * max(1.0, abs(vals.max())):
            locations.append(x)
    scale = max(1.0, float(np.abs(G).max()), float(np.abs(c).max()))
    atoms, used = [], []
    for x in locations:
        if any(np.max(np.abs(x - u)) <= 1e-7 * max(1.0, float(np.abs(x).max())) for u in used):
            continue
        used.append(x)
        vals = G @ x + c
        vol = hull(G[vals >= vals.max() - 1e-8 * max(1.0, abs(vals.max()))]).volume
        if vol > 1e-12 * scale ** n:
            atoms.append((x, vol))
    return atoms


def essential_mask_lp(G, c, bound=1e4):
    """Piece i is essential when, for some y in a large box, it beats every
    other piece by a positive margin t; one LP per piece."""
    k, n = G.shape
    mask = np.zeros(k, dtype=bool)
    for i in range(k):
        others = [j for j in range(k) if j != i]
        res = linprog(
            np.append(np.zeros(n), -1.0),
            A_ub=np.column_stack([G[others] - G[i], np.ones(k - 1)]),
            b_ub=c[i] - c[others],
            bounds=[(-bound, bound)] * n + [(-1.0, 1.0)],
            method="highs",
        )
        mask[i] = res.status == 0 and -res.fun > 1e-11
    return mask


def _ma_oracle_inputs():
    rng = generators.rng_for(404)
    for n in (1, 2, 3):
        for _ in range(20):
            yield generators.random_finite_pa(rng, n)
        # k = n + 1: lifted points always coplanar, one vertex
        G = np.vstack([np.zeros(n), np.eye(n)]) + rng.uniform(-0.2, 0.2, (n + 1, n))
        yield PAFn([AffineFn(g, float(ci)) for g, ci in zip(G, rng.uniform(-1, 1, n + 1))])
    yield l1_fn(2)
    yield l1_fn(3)
    yield tangent_minorant_of_q(1.0)
    yield tangent_minorant_of_q(0.5, k=4, half_width=2.0)
    yield _add_pa(l1_fn(), tangent_minorant_of_q(0.5, k=3))
    # widely spread vertices (-0.05, 0 and 1e6): the far atom must not merge
    # the two near the origin
    yield PAFn([AffineFn([-2.0], -0.05), AffineFn([-1.0], 0.0),
                AffineFn([1.0], 0.0), AffineFn([1.0 + 1e-6], -1.0)])


def test_ma_atoms_match_subset_enumeration():
    for v in _ma_oracle_inputs():
        got = monge_ampere_pa(v).atoms
        want = ma_by_subsets(v)
        assert len(got) == len(want)
        # pair atoms by location: sorting alone can swap atoms whose leading
        # coordinates differ by an ulp between the two computations
        X = np.array([x for x, _ in got])
        for xr, mr in want:
            dist = np.abs(X - xr).max(axis=1)
            i = int(np.argmin(dist))
            assert dist[i] <= 1e-9 * max(1.0, float(np.abs(xr).max()))
            assert got[i][1] == pytest.approx(mr, rel=1e-9)


def _mask_oracle_inputs():
    rng = generators.rng_for(405)
    for n in (1, 2, 3):
        # k <= n + 2 are the sizes the lower hull once left to the LP
        for k in range(2, n + 8):
            G = rng.uniform(-2, 2, (k, n))
            yield G, rng.uniform(-1, 1, k)
            # integer data: ties and points on lower faces
            yield rng.integers(-2, 3, (k, n)).astype(float), rng.integers(-2, 3, k).astype(float)
            # near-paraboloid lift: every piece essential or nearly so
            yield G, -0.5 * (G ** 2).sum(axis=1) + rng.uniform(-1e-6, 1e-6, k)
            if n > 1:
                # gradients on a lower-dimensional affine subspace
                B = rng.uniform(-1, 1, (n - 1, n))
                yield rng.uniform(-2, 2, (k, n - 1)) @ B + 0.3, rng.uniform(-1, 1, k)


def test_essential_mask_matches_lp():
    for G, c in _mask_oracle_inputs():
        G, c = _dedupe_pieces(G, c)
        if len(G) < 2:
            continue
        assert np.array_equal(essential_mask_global(G, c), essential_mask_lp(G, c))
