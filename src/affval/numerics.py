"""Numerics policy: every tolerance and finite-difference step, one per line.

Each constant is absolute, or relative to a stated scale.  The usual scale
is `scale_of(data) = max(1, max |x|)`, so a relative tolerance is absolute on
data below unit scale; check reports and certificates scale by `1 + |value|`
instead, and print that product in their `tolerance` column.  The activity
subdivision of a domain floors its scales at min(1, diameter) instead of 1
(`scale_of(..., floor=...)`), so that its slacks stay below the extent of a
domain smaller than unit scale.  The 2-d hull's collinearity test scales by
the square of the extent, the largest coordinate range of its points, so
that it does not depend on where they sit.  Pruning on a
domain has no tolerance of its own: it keeps the pieces that own an activity
cell, so the halfspace-enumeration and rank tolerances below decide it.
"""

import numpy as np


def scale_of(*xs, floor: float = 1.0) -> float:
    """max(floor, |x|) over every entry of the given scalars and arrays."""
    return max(floor, *(float(np.abs(x).max(initial=0.0)) for x in xs))


# containment, feasibility and activity
FEAS_TOL = 1e-7            # containment slack; absolute in contains, else relative to scale_of(x)
QP_FEAS_TOL = 1e-9         # KKT point feasible in the envelope's inner QP; relative to scale_of(y)
ACTIVE_TOL = 1e-8          # a piece is active within this of the max; relative to scale_of(max)
BBOX_SLACK = 1e-12         # envelope cell within reach of the mu-box around x; absolute
INTERIOR_MARGIN = 1e-9     # touching_patch: x0 interior below -this boundary distance; absolute
GRID_INSET = 1e-7          # pa_approximate grid inset from the boundary; relative to the diameter

# rank and identity tests, merges of near-equal points
EPS_GEOM = 1e-9            # rank and identity tests; relative to scale_of(data) or 1 + |value|
MERGE_TOL = 1e-10          # coordinate merge of hull input and lower-hull base points; relative
VERTEX_MERGE_TOL = 1e-7    # merge of vertices enumerated from halfspaces; relative to scale_of
SUBDIVISION_MERGE_TOL = 1e-9  # merge of subdivision vertices; relative to the domain's diameter
ATOM_MERGE_TOL = 1e-7      # merge of Monge-Ampere atoms; relative to each atom's scale_of
FACET_MERGE_TOL = 1e-9     # merge of Qhull facet equations with unit normals; absolute
GRAD_TOL = 1e-12           # gradient identity; relative to scale_of(G), absolute in _min_cells

# hulls and halfspace enumeration
COLLINEAR_TOL = 1e-10      # 2-d hull drops corners with smaller cross products; relative to extent**2
BOX_EXTENT_MIN = 1e-4      # hull passes box corners through above this extent; relative to scale_of
NORMAL_RANK_TOL = 1e-7     # 3-d hull: rank of the tight unit facet normals; absolute
BASIS_TOL = 1e-10          # vertex enumeration: nonsingular basis; relative to its row-norm product
NORM_FLOOR = 1e-30         # floor of that product, so a zero row never passes; absolute
LOWER_FACET_TOL = 1e-10    # lower facet: last entry of the unit normal below -this; absolute
QHULL_JOGGLE = "QJ1e-12"   # Qhull retry after an exact-arithmetic failure; joggle relative to data
QHULL_VERTEX_TOL = 1e-10   # Qhull vertex error in a slack; relative to the epigraph's extent
THIN_CELL_TOL = 1e-12      # separable_clip_plq skips boxes no wider on some axis; absolute

# maps and quadratic pieces
SINGULAR_DET = 1e-12       # an affine map with a smaller |det| is singular; absolute
LINE_COEF_TOL = 1e-13      # CylinderFn: slope or curvature along J below this is zero; absolute
DOMINATE_TOL = 1e-9        # one quadratic dominates another on a cell; relative to 1 + |difference|
MASS_TOL = 1e-12           # Monge-Ampere atoms keep a larger mass; relative to scale_of(G, c)**n

# certificate residuals and check-report tolerances
CERT_TOL = 1e-7            # PLQ cover, continuity, monotonicity, meet gap; relative to 1 + |values|
OVERLAP_TOL = 1e-9         # PLQ cells overlap above this volume; relative to 1 + min cell volume
CONJ_CHECK_TOL = 1e-7      # conjugate identities; relative to 1 + sup |u*| on the dual grid
VALUATION_TOL = 1e-8       # valuation identity, invariance, extract_zeta; relative to 1 + |Z|
MA_MASS_TOL = 1e-9         # relative error of MA total mass against the dual volume; absolute
REL_ERR_FLOOR = 1e-12      # denominator floor of that relative error; absolute
WEAK_PROBE_TOL = 1e-6      # weak-convergence probe gap; relative to 1 + |target|
USC_TOL = 1e-9             # usc experiment: limsup Z(u_k) may exceed Z(limit) by this; absolute
TAU_GAP_TOL = 1e-3         # tau probe: final sup gaps below this; absolute
TANGENCY_TOL = 1e-10       # staircase value and x2-slope match; relative to scale_of(summands)
PATCH_EXCESS_TOL = 1e-9    # patch above the envelope off the r-box; relative to 1 + |envelope|
PATCH_SLACK = 1e-12        # touching patch: t below 1/16, minorant below envelope; absolute
CURVATURE_MIN = 0.01       # touching patch: FD Hessian eigenvalues above this; relative to lambda

# finite-difference steps
FD_STEP_QUADRATURE = 1e-4  # z_zeta_numeric Hessian step; relative to the diameter, no floor
FD_STEP_PATCH = 1e-5       # touching_patch Hessian step; relative to scale_of(diameter)

# the weight class
ZETA_TOL = 1e-9            # |zeta(0)| and midpoint concavity; relative to 1 + max |zeta| on the grid
ZETA_SIGN_TOL = 1e-12      # zeta may dip below 0 by this; relative to the same scale
TAIL_T = 1e6               # horizon of the tail-slope proxy for zeta(t)/t -> 0; absolute
TAIL_SLOPE_MAX = 1e-3      # tail slope zeta(TAIL_T)/TAIL_T accepted below this; absolute
TAIL_EXPONENT_MAX = 0.98   # otherwise the log-log growth rate must stay below this; absolute
