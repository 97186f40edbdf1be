"""Independent output checks, one per op kind.

Every oracle reads the op's input JSON and its output and recomputes the
answer with numpy and scipy only (``scipy.optimize.linprog``,
``scipy.spatial.ConvexHull`` and ``HalfspaceIntersection``); none imports
``affval``.  Each returns ``None`` when the output is right and a one-line
reason when it is wrong.  Tolerances follow the acceptance suite.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

VALUE_TOL = 1e-7        # conjugate and inf-convolution values (LP oracle)
DOMAIN_TOL = 1e-9       # inf-convolution domain against the Minkowski sum
MASS_TOL = 1e-9         # Monge-Ampere mass against vol conv(gradients), relative
EXACT_Z_TOL = 1e-8      # closed-form Z values, relative
QUAD_TOL = 1e-2         # quadrature against closed form or reference, relative
ENV_OPT_TOL = 1e-6      # envelope optimality gap
ENV_FEAS_TOL = 1e-9     # envelope minimizer feasibility and value consistency


def load(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# polytopes


def poly_vertices(d) -> np.ndarray:
    """Vertices of a polytope JSON in either form."""
    if d.get("vertices"):
        V = np.asarray(d["vertices"], dtype=float)
        return V[:, None] if V.ndim == 1 else V
    A, b = poly_halfspaces(d)
    n = A.shape[1]
    if n == 1:
        return np.array([[max(b[i] / A[i, 0] for i in range(len(b)) if A[i, 0] < 0)],
                         [min(b[i] / A[i, 0] for i in range(len(b)) if A[i, 0] > 0)]])
    centre = chebyshev_centre(A, b)
    hs = HalfspaceIntersection(np.column_stack([A, -b]), centre)
    return hs.intersections


def poly_halfspaces(d):
    """(A, b) with A x <= b for a polytope JSON in either form."""
    if "halfspaces" in d and not d.get("vertices"):
        A = np.array([r["normal"] for r in d["halfspaces"]], dtype=float)
        b = np.array([r["offset"] for r in d["halfspaces"]], dtype=float)
        return A, b
    return hull_halfspaces(poly_vertices(d))


def hull_halfspaces(V: np.ndarray):
    if V.shape[1] == 1:
        return np.array([[1.0], [-1.0]]), np.array([V.max(), -V.min()])
    eq = ConvexHull(V).equations
    return eq[:, :-1], -eq[:, -1]


def hull_volume(V: np.ndarray) -> float:
    if V.shape[1] == 1:
        return float(V.max() - V.min())
    return float(ConvexHull(V).volume)


def hull_vertices(V: np.ndarray) -> np.ndarray:
    if V.shape[1] == 1:
        return np.array([[V.min()], [V.max()]])
    return V[ConvexHull(V).vertices]


def chebyshev_centre(A, b) -> np.ndarray:
    norms = np.linalg.norm(A, axis=1)
    n = A.shape[1]
    res = linprog(np.append(np.zeros(n), -1.0), A_ub=np.column_stack([A, norms]), b_ub=b,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    return res.x[:n]


def same_point_sets(P: np.ndarray, Q: np.ndarray, tol: float) -> bool:
    if P.shape != Q.shape:
        return False
    scale = max(1.0, float(np.abs(P).max()), float(np.abs(Q).max()))
    d = np.abs(P[:, None, :] - Q[None, :, :]).max(axis=2)
    return bool(d.min(axis=1).max() <= tol * scale and d.min(axis=0).max() <= tol * scale)


def interior_samples(rng, V: np.ndarray, count: int) -> np.ndarray:
    w = rng.dirichlet(np.ones(len(V)), size=count)
    return 0.1 * V.mean(axis=0) + 0.9 * (w @ V)


# ---------------------------------------------------------------------------
# functions


def pa_parts(f):
    """(G, c, domain JSON or None) of a PA or indicator JSON."""
    if f["type"] == "indicator":
        n = f["domain"]["dim"]
        return np.zeros((1, n)), np.zeros(1), f["domain"]
    G = np.array([p["grad"] for p in f["pieces"]], dtype=float)
    c = np.array([p["c"] for p in f["pieces"]], dtype=float)
    return G, c, f["domain"]


def _lp_min(cost, A_ub, b_ub, bounds):
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise ValueError(f"oracle LP status {res.status}")
    return float(res.fun), res.x


def conjugate_at_compact(G, c, A, b, y) -> float:
    """sup_{x in {Ax<=b}} <y,x> - max_i(<g_i,x> + c_i), as an LP in (x, t)."""
    n = G.shape[1]
    A_ub = np.vstack([np.column_stack([G, -np.ones(len(G))]),
                      np.column_stack([A, np.zeros(len(A))])])
    b_ub = np.concatenate([-c, b])
    val, _ = _lp_min(np.append(-y, 1.0), A_ub, b_ub, [(None, None)] * (n + 1))
    return -val


def conjugate_at_finite(G, c, y) -> float:
    """min { -<c, lam> : G^T lam = y, sum lam = 1, lam >= 0 }."""
    k = len(G)
    A_eq = np.vstack([G.T, np.ones((1, k))])
    res = linprog(-c, A_eq=A_eq, b_eq=np.append(y, 1.0), bounds=[(0, None)] * k,
                  method="highs")
    if res.status != 0:
        raise ValueError(f"oracle LP status {res.status}")
    return float(res.fun)


def check_conjugate(inp, out, rng) -> str | None:
    G, c, dom = pa_parts(inp)
    Gw, cw, domw = pa_parts(out)
    if dom is None:
        V = hull_vertices(G)
        if domw is None or not same_point_sets(poly_vertices(domw), V, DOMAIN_TOL):
            return "conjugate domain differs from conv(gradients)"
        ys = interior_samples(rng, V, 3)
        ref = [conjugate_at_finite(G, c, y) for y in ys]
    else:
        if domw is not None:
            return "conjugate of a compact-domain function must be finite-valued"
        A, b = poly_halfspaces(dom)
        r = 1.0 + float(np.abs(G).max())
        ys = rng.uniform(-r, r, (3, G.shape[1]))
        ref = [conjugate_at_compact(G, c, A, b, y) for y in ys]
    got = (ys @ Gw.T + cw).max(axis=1)
    for y, v, w in zip(ys, ref, got):
        if abs(v - w) > VALUE_TOL * (1.0 + abs(v)):
            return f"conjugate at {y.tolist()}: {float(w)!r} vs LP {v!r}"
    return None


def infconv_at(Gu, cu, Au, bu, Gv, cv, Av, bv, x) -> float:
    """inf_{x1} u(x1) + v(x - x1), as an LP in (x1, t1, t2)."""
    n = len(x)
    ku, kv = len(Gu), len(Gv)
    A_ub = np.vstack([
        np.column_stack([Gu, -np.ones(ku), np.zeros(ku)]),
        np.column_stack([-Gv, np.zeros(kv), -np.ones(kv)]),
        np.column_stack([Au, np.zeros((len(Au), 2))]),
        np.column_stack([-Av, np.zeros((len(Av), 2))]),
    ])
    b_ub = np.concatenate([-cu, -cv - Gv @ x, bu, bv - Av @ x])
    cost = np.concatenate([np.zeros(n), [1.0, 1.0]])
    val, _ = _lp_min(cost, A_ub, b_ub, [(None, None)] * (n + 2))
    return val


def check_infconv(inp_u, inp_v, out, rng) -> str | None:
    Gu, cu, du = pa_parts(inp_u)
    Gv, cv, dv = pa_parts(inp_v)
    Gw, cw, dw = pa_parts(out)
    Vu, Vv = poly_vertices(du), poly_vertices(dv)
    msum = hull_vertices((Vu[:, None, :] + Vv[None, :, :]).reshape(-1, Vu.shape[1]))
    if dw is None or not same_point_sets(poly_vertices(dw), msum, DOMAIN_TOL):
        return "inf-convolution domain differs from the Minkowski sum"
    Au, bu = poly_halfspaces(du)
    Av, bv = poly_halfspaces(dv)
    xs = interior_samples(rng, Vu, 3) + interior_samples(rng, Vv, 3)
    for x in xs:
        ref = infconv_at(Gu, cu, Au, bu, Gv, cv, Av, bv, x)
        got = float((Gw @ x + cw).max())
        if abs(ref - got) > VALUE_TOL * (1.0 + abs(ref)):
            return f"inf-convolution at {x.tolist()}: {got!r} vs LP {ref!r}"
    return None


def check_ma(inp, out) -> str | None:
    G, _, _ = pa_parts(inp)
    vol = hull_volume(G)
    masses = sum(float(a["mass"]) for a in out["atoms"])
    for name, v in (("atom mass sum", masses), ("total", float(out["total"])),
                    ("dual_volume", float(out["dual_volume"]))):
        if abs(v - vol) > MASS_TOL * vol:
            return f"{name} {v!r} vs vol conv(gradients) {vol!r}"
    return None


# ---------------------------------------------------------------------------
# valuations


def zeta_fn(spec: str):
    p = 0.5 if spec == "sqrt" else float(spec.split(":", 1)[1])
    return lambda t: max(float(t), 0.0) ** p


def staircase_z(params, zeta) -> tuple[float, float]:
    """(closed-form Z_zeta, box volume) of a staircase with these parameters."""
    s, a, r, n = params["s"], params["a"], params["r"], params["n"]
    vol = 4.0 * params["t1"] * params["t2"] * 2.0 ** (n - 2)
    lam = (s - a) / (s - r)
    z = lam * zeta(2.0 ** n * r) * vol + (1.0 - lam) * zeta(2.0 ** n * s) * vol
    return z, vol


def plq_cell_sum(f, zeta) -> tuple[float, float]:
    """(sum of zeta(det A) * cell volume, total volume) over the cells."""
    z = vol = 0.0
    for cell in f["cells"]:
        v = hull_volume(poly_vertices(cell["poly"]))
        z += zeta(np.linalg.det(np.asarray(cell["A"], dtype=float))) * v
        vol += v
    return z, vol


def _rel(a, b) -> float:
    return abs(a - b) / max(1e-300, abs(b))


def check_zvalue(inp, out, params, zeta_spec, c0, c1) -> str | None:
    zeta = zeta_fn(zeta_spec)
    z_cf, vol = staircase_z(params, zeta)
    z_sum, vol_sum = plq_cell_sum(inp, zeta)
    if _rel(z_sum, z_cf) > EXACT_Z_TOL or _rel(vol_sum, vol) > EXACT_Z_TOL:
        return "input cells disagree with the staircase closed form"
    got_z, got_v = float(out["z_zeta"]), float(out["value"])
    if _rel(got_z, z_cf) > EXACT_Z_TOL:
        return f"z_zeta {got_z!r} vs closed form {z_cf!r}"
    if _rel(got_v, c0 + c1 * vol + z_cf) > EXACT_Z_TOL:
        return f"value {got_v!r} vs closed form {c0 + c1 * vol + z_cf!r}"
    return None


def check_numeric_zvalue(inp, out, zeta_spec) -> str | None:
    zeta = zeta_fn(zeta_spec)
    ref, _ = plq_cell_sum(inp, zeta)
    got = float(out["z_zeta"])
    if _rel(got, ref) > QUAD_TOL:
        return f"quadrature {got!r} vs closed form {ref!r}"
    return None


def check_usc(csv_path, cfg) -> str | None:
    seq = cfg["sequence"]
    zeta = zeta_fn(cfg["zeta"])
    params = dict(seq, t1=seq.get("t1", 1.0), t2=seq.get("t2", 1.0))
    z_cf, vol = staircase_z(params, zeta)
    n = seq["n"]
    det_limit = 2.0 * params["a"] * 2.0 ** (n - 1)
    z_limit = cfg["c0"] + cfg["c1"] * vol + zeta(det_limit) * vol
    expect = cfg["c0"] + cfg["c1"] * vol + z_cf
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["index"]) for r in rows] != list(seq["ms"]):
        return "usc rows do not match the configured m values"
    for r in rows:
        z, gap = float(r["z_value"]), float(r["gap"])
        if _rel(z, expect) > EXACT_Z_TOL:
            return f"usc z_value {z!r} vs closed form {expect!r}"
        if abs(gap - (z_limit - expect)) > EXACT_Z_TOL * (1.0 + abs(z_limit)):
            return f"usc gap {gap!r} vs closed form {z_limit - expect!r}"
    return None


def box_z(box_lo, box_hi, A, c0, c1, zeta) -> float:
    vol = float(np.prod(np.asarray(box_hi) - np.asarray(box_lo)))
    zq = 0.0 if A is None else zeta(np.linalg.det(np.asarray(A, dtype=float))) * vol
    return c0 + c1 * vol + zq


def check_identity(report, z_u, z_v) -> str | None:
    """The report must pass, not be skipped, and carry the tolerance the
    closed-form Z(u), Z(v) imply (so the library's Z values are checked)."""
    if report.note:
        return f"identity check skipped: {report.note}"
    if not report.passed:
        return f"identity residual {report.residual!r} > {report.tolerance!r}"
    tol = 1e-8 * (1.0 + abs(z_u) + abs(z_v))
    if _rel(report.tolerance, tol) > 1e-6:
        return f"identity tolerance {report.tolerance!r} implies wrong Z values ({tol!r})"
    return None


# ---------------------------------------------------------------------------
# envelopes


class EnvelopeBase:
    """The envelope base recomputed from its JSON: value, a gradient (the
    bases used are C^1 or piecewise affine) and the domain halfspaces."""

    def __init__(self, f):
        self.pa = f["type"] in ("pa", "indicator")
        if self.pa:
            self.G, self.c, dom = pa_parts(f)
            self.A, self.b = poly_halfspaces(dom)
            self.V = poly_vertices(dom)
        else:
            self.cells = []
            verts = []
            for cell in f["cells"]:
                V = poly_vertices(cell["poly"])
                verts.append(V)
                Ac, bc = hull_halfspaces(V)
                self.cells.append((Ac, bc, np.asarray(cell["A"], dtype=float),
                                   np.asarray(cell["b"], dtype=float), float(cell["c"])))
            self.V = hull_vertices(np.vstack(verts))
            self.A, self.b = hull_halfspaces(self.V)

    def value(self, y) -> float:
        if self.pa:
            return float((self.G @ y + self.c).max())
        best = None
        for Ac, bc, H, g, c in self.cells:
            if np.all(Ac @ y - bc <= ENV_FEAS_TOL * (1.0 + np.abs(bc))):
                v = 0.5 * y @ H @ y + g @ y + c
                best = v if best is None else min(best, v)
        if best is None:
            raise ValueError("point outside every cell")
        return float(best)

    def gradient(self, y) -> np.ndarray:
        for Ac, bc, H, g, _ in self.cells:
            if np.all(Ac @ y - bc <= ENV_FEAS_TOL * (1.0 + np.abs(bc))):
                return H @ y + g
        raise ValueError("point outside every cell")

    def optimality_gap(self, x, y0, lam, mu) -> float:
        """Frank-Wolfe gap of min_y u(y) + lam/2 |x - y|^2 over
        dom u and the mu-box around x, linearized at y0: an upper bound on
        how far the objective at y0 is above the true minimum."""
        n = len(x)
        bounds = [(xi - mu, xi + mu) for xi in x]
        if self.pa:
            t0 = float((self.G @ y0 + self.c).max())
            cost = np.append(lam * (y0 - x), 1.0)
            A_ub = np.vstack([np.column_stack([self.G, -np.ones(len(self.G))]),
                              np.column_stack([self.A, np.zeros(len(self.A))])])
            b_ub = np.concatenate([-self.c, self.b])
            val, _ = _lp_min(cost, A_ub, b_ub, bounds + [(None, None)])
            return float(cost @ np.append(y0, t0) - val)
        s = self.gradient(y0) + lam * (y0 - x)
        val, _ = _lp_min(s, self.A, self.b, bounds)
        return float(s @ y0 - val)


def check_envelope(base: EnvelopeBase, out, points, lam, mu) -> str | None:
    rows = out["evaluations"]
    if len(rows) != len(points):
        return "envelope returned the wrong number of rows"
    for x, row in zip(points, rows):
        x = np.asarray(x, dtype=float)
        if row["minimizer"] is None or isinstance(row["value"], str):
            return f"envelope at {x.tolist()} is infinite inside the domain"
        value = float(row["value"])
        y0 = np.asarray(row["minimizer"], dtype=float)
        scale = 1.0 + abs(value)
        if np.abs(y0 - x).max() > mu + ENV_FEAS_TOL * (1.0 + np.abs(x).max()):
            return f"minimizer {y0.tolist()} leaves the mu-box around {x.tolist()}"
        if np.any(base.A @ y0 - base.b > ENV_FEAS_TOL * (1.0 + np.abs(base.b))):
            return f"minimizer {y0.tolist()} lies outside dom u"
        consistent = base.value(y0) + 0.5 * lam * float((x - y0) @ (x - y0))
        if abs(consistent - value) > ENV_FEAS_TOL * scale:
            return f"envelope value {value!r} vs u(y0) + lam/2|x-y0|^2 = {consistent!r}"
        gap = base.optimality_gap(x, y0, lam, mu)
        if gap > ENV_OPT_TOL * scale:
            return f"envelope at {x.tolist()} is {gap:.3e} above the QP optimum"
    return None


def check_envelope_quadrature(z, base_vertices, lam, mu, n, zeta_spec, z_ref) -> str | None:
    """0 <= Z <= zeta(lam^n) V(dom u + mu C), and within 1% of the
    reference value recorded with the fixture."""
    cube = mu * np.array(np.meshgrid(*[[-1.0, 1.0]] * n, indexing="ij")).reshape(n, -1).T
    dom = (base_vertices[:, None, :] + cube[None, :, :]).reshape(-1, n)
    upper = zeta_fn(zeta_spec)(lam ** n) * hull_volume(dom)
    if not (0.0 <= z <= upper * (1.0 + 1e-9)):
        return f"envelope Z {z!r} outside [0, {upper!r}]"
    if _rel(z, z_ref) > QUAD_TOL:
        return f"envelope Z {z!r} vs reference {z_ref!r}"
    return None
