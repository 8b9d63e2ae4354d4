"""Global affine reconstruction from transversal hyperplane slices.

Pipeline: build a well-spread base simplex inside the working box, perturb
its face planes within a metric budget until the sliced affine fits and the
corner mismatches certify a good draw, interpolate the function at the
simplex corners by a single global affine map, and compare the small-box
coefficient of that map against the directly fitted one and against the
combined integral-geometric coefficient of the large box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fitting
from .calibration import KAPPA_B, KAPPA_C
from .beta import (QuadratureSpec, beta_integralgeometric, beta_p_cube, beta_p_restricted,
                   midpoint_grid, midpoint_mesh, midpoint_nodes, norm_value, restricted_line_betas)
from .errors import BudgetExhausted, DegenerateSimplex, EmptyIntersection
from .funcmodel import FunctionField
from .geometry import (AffineMap, Box, Hyperplane, LineSeg, Simplex,
                       clip_line_to_box, orthonormal_complement, plane_metric,
                       shadow_area, simplex_from_planes, transversality)
from .rng import stream

ACCEPT_SLACK = 1e-12
_DRAW_BUDGET = 64  # plane families drawn by select_transversal_planes


@dataclass
class PlaneSelection:
    """An accepted (or best-found) draw of perturbed planes with its certificate."""

    base_planes: list
    planes: list
    fits: list                 # ambient AffineMap quasi-minimizer per plane
    restricted_values: list    # beta_2(CQ, V'_j) per plane
    metric_values: list        # plane_metric(V_j, V'_j) per plane
    corner_points: np.ndarray  # (n+1, n); row j opposite plane j
    mismatches: np.ndarray     # (n+1, n+1); [j, i] = |f(x_j) - A_i(x_j)|, i != j
    reference: float           # hyperplane-averaged beta_2 of CQ
    tau: float
    epsilon: float
    accepted: bool
    draw_index: int
    draws_used: int

    @property
    def max_metric(self) -> float:
        return max(self.metric_values)

    @property
    def max_restricted(self) -> float:
        return max(self.restricted_values)

    @property
    def max_mismatch(self) -> float:
        return float(np.max(self.mismatches))


@dataclass
class ReconstructionReport:
    affine: AffineMap
    beta2_small_direct: float     # fitted beta_2 of cQ
    beta2_small_via_affine: float # residual of the reconstructed map on cQ
    combined_large: float         # combined coefficient of CQ
    plane_part: float
    line_part: float
    ratio_direct: float
    ratio_via: float
    constants: dict               # c, C, epsilon, tau
    seed: int
    selection: PlaneSelection
    simplex: Simplex
    line_integral: float          # best directional sup-coefficient integral over the shadow
    line_ratio: float
    planar_value: float | None = None  # n = 2 strip-quadrature cross-check
    meta: dict = field(default_factory=dict)


def base_simplex(Q: Box) -> Simplex:
    """Maximal well-spread simplex inside the concentric half box.

    For n = 3 the alternate-corner tetrahedron of the half box is used (its
    inradius beats the regular simplex scaled by sup-norm); other dimensions
    take the regular simplex scaled to fit the half box.
    """
    n = Q.dim
    center = Q.center
    half_sides = 0.25 * np.asarray(Q.sides)  # half box has sides/2, half-width sides/4
    if n == 3:
        signs = np.asarray([[-1, -1, -1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]], dtype=float)
        verts = center + signs * half_sides
        return Simplex(tuple(tuple(v) for v in verts))
    # regular simplex: e_1..e_n plus the symmetric point, centered
    verts = np.vstack([np.eye(n), np.full(n, (1.0 - math.sqrt(n + 1.0)) / n)])
    verts -= verts.mean(axis=0)
    verts /= np.max(np.abs(verts))
    verts = center + verts * half_sides
    return Simplex(tuple(tuple(v) for v in verts))


def build_global_affine(corners, values) -> AffineMap:
    """The unique affine map taking the given values at n+1 corners."""
    corners = np.atleast_2d(np.asarray(corners, dtype=float))
    values = np.asarray(values, dtype=float)
    n = corners.shape[1]
    if corners.shape[0] != n + 1 or values.shape[0] != n + 1:
        raise ValueError(f"need n+1 = {n + 1} corners and values")
    M = np.hstack([corners, np.ones((n + 1, 1))])
    if abs(np.linalg.det(M)) < 1e-12 * max(1.0, float(np.abs(M).max()) ** n):
        raise DegenerateSimplex("corners are affinely dependent")
    coef = np.linalg.solve(M, values)
    return AffineMap(tuple(coef[:-1]), float(coef[-1]))


def _perturb_planes(base_planes, eps, rng):
    out = []
    for p in base_planes:
        e = p.e
        tangent = rng.standard_normal(e.size)
        tangent -= (tangent @ e) * e
        tnorm = np.linalg.norm(tangent)
        rho = rng.uniform(0.0, 0.6 * eps)
        e_new = e + (rho / tnorm) * tangent if tnorm > 1e-14 else e.copy()
        e_new /= np.linalg.norm(e_new)
        t_new = p.offset * (e_new @ e) + rng.uniform(0.0, 0.6 * eps)
        out.append(Hyperplane(tuple(e_new), t_new))
    return out


def _evaluate_draw(fld, CQ, base_planes, planes, quad, reference):
    metric_values = [plane_metric(b, p) for b, p in zip(base_planes, planes)]
    recs = [beta_p_restricted(fld, CQ, p, 2, quad) for p in planes]
    simplex = simplex_from_planes(planes)
    corners = simplex.v
    n = corners.shape[1]
    mism = np.zeros((n + 1, n + 1))
    f_at = fld.eval(corners)
    for j in range(n + 1):       # corner j lies on every plane except plane j
        for i in range(n + 1):
            if i != j:
                mism[j, i] = abs(f_at[j] - recs[i].fitted(corners[j]))
    inside = bool(np.all(CQ.contains(corners, tol=1e-12)))
    return {
        "metric": metric_values,
        "recs": recs,
        "simplex": simplex,
        "corners": corners,
        "mismatches": mism,
        "inside": inside,
        "beta_ok": max(r.value for r in recs) <= KAPPA_B * reference + ACCEPT_SLACK,
        # mismatches carry a length unit; compare them per unit of diam(CQ)
        "mism_ok": float(mism.max()) <= KAPPA_C * reference * CQ.diameter + ACCEPT_SLACK,
    }


def select_transversal_planes(fld: FunctionField, Q: Box, tau: float, eps: float,
                              C: float, seed: int, quad: QuadratureSpec) -> PlaneSelection:
    """Randomized draw-and-check search for a certified transversal family.

    Draw 0 is the unperturbed base family, so exactly affine inputs accept
    immediately with a zero certificate. Raises BudgetExhausted carrying the
    best draw when no draw satisfies all three acceptance properties.
    """
    simplex0 = base_simplex(Q)
    A_hs, b_hs = simplex0.halfspaces()
    base_planes = [Hyperplane(tuple(A_hs[i]), b_hs[i]) for i in range(len(b_hs))]
    tau0 = transversality(base_planes)
    if tau0 < tau:
        raise DegenerateSimplex(f"base family transversality {tau0:.3e} below requested {tau:.3e}")
    CQ = Q.dilate(C)
    ref = beta_integralgeometric(fld, CQ, Q.dim - 1 if Q.dim > 1 else 1, 2, 2, quad,
                                 seed_tags=("select-ref", seed)).value

    best = None
    best_score = math.inf
    for k in range(_DRAW_BUDGET):
        if k == 0:
            planes = list(base_planes)
        else:
            rng = stream(seed, "draw", k)
            planes = _perturb_planes(base_planes, eps, rng)
        if transversality(planes) < 0.5 * tau:
            continue
        try:
            ev = _evaluate_draw(fld, CQ, base_planes, planes, quad, ref)
        except (DegenerateSimplex, EmptyIntersection):
            continue
        metric_ok = max(ev["metric"]) <= eps
        accepted = metric_ok and ev["inside"] and ev["beta_ok"] and ev["mism_ok"]
        score = max(max(r.value for r in ev["recs"]),
                    float(ev["mismatches"].max()) / CQ.diameter)
        sel = PlaneSelection(
            base_planes=base_planes, planes=planes,
            fits=[r.fitted for r in ev["recs"]],
            restricted_values=[r.value for r in ev["recs"]],
            metric_values=ev["metric"],
            corner_points=ev["corners"], mismatches=ev["mismatches"],
            reference=ref, tau=tau0, epsilon=eps,
            accepted=accepted, draw_index=k, draws_used=k + 1,
        )
        if accepted:
            return sel
        if score < best_score:
            best, best_score = sel, score
    if best is None:
        raise BudgetExhausted("every draw degenerated", selection=None)
    best.draws_used = _DRAW_BUDGET
    raise BudgetExhausted(
        f"no draw certified within budget {_DRAW_BUDGET}; best score {best_score:.3e}",
        selection=best,
    )


def _transversal_direction(planes, n):
    """Fixed reference direction not parallel to any plane."""
    e0 = np.ones(n) / math.sqrt(n)
    worst = min(1.0 - abs(e0 @ p.e) for p in planes)
    if worst > 0.05:
        return e0
    # fall back to a deterministic sweep of coordinate-ish directions
    for i in range(n):
        cand = np.ones(n)
        cand[i] = 2.0
        cand /= np.linalg.norm(cand)
        if min(1.0 - abs(cand @ p.e) for p in planes) > 0.05:
            return cand
    return e0


def _cap_directions(e0, radius, count, seed):
    rng = stream(seed, "cap", count)
    dirs = [e0]
    B = orthonormal_complement(e0)
    for _ in range(count):
        u = rng.standard_normal(e0.size - 1)
        u *= rng.uniform(0.0, radius) / np.linalg.norm(u)
        d = e0 + B @ u
        dirs.append(d / np.linalg.norm(d))
    return dirs


def _line_family_integral(fld, small, big, direction, quad):
    """Shadow-averaged squared sup-coefficient of lines through the small box.

    Approximates the integral over the projection of the small box of
    beta_inf(big, line)^2, by a midpoint rule of 5 lines per axis on the shadow.
    """
    B = orthonormal_complement(direction)
    corner_frame = small.corners() @ B
    lo = corner_frame.min(axis=0)
    hi = corner_frame.max(axis=0)
    U = midpoint_mesh(lo, hi - lo, 5)
    segs = []
    for u in U:
        base = B @ u
        clip = clip_line_to_box(base, direction, big)
        if clip is not None:
            segs.append(LineSeg(tuple(base), tuple(direction), clip[0], clip[1]))
    vals = restricted_line_betas(fld, big, segs, (math.inf,), quad)[1][math.inf]
    if not vals.size:
        return 0.0
    # rectangle-shadow midpoint rule; the bounding rectangle over-covers the
    # true shadow, matching the >= direction of the comparison
    return float(np.mean(np.square(vals))) * shadow_area(small, direction)


def planar_beta2(fld: FunctionField, box: Box, direction, quad: QuadratureSpec) -> float:
    """beta_2 of a planar box by strip quadrature along a line family.

    Covers the box by parallel strips perpendicular to ``direction`` in the
    shadow coordinate, places midpoint nodes on each chord, and fits one
    affine map to the pooled cloud. Independent of the tensor-grid route.
    """
    if box.dim != 2:
        raise ValueError("planar route needs n = 2")
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    B = orthonormal_complement(direction)
    corner_frame = (box.corners() @ B).ravel()
    v_lo, v_hi = corner_frame.min(), corner_frame.max()
    strips = quad.restricted_nodes
    h_v = (v_hi - v_lo) / strips
    pts, wts = [], []
    for v in midpoint_nodes(v_lo, v_hi - v_lo, strips):
        base = (B * v).ravel()
        clip = clip_line_to_box(base, direction, box)
        if clip is None:
            continue
        s0, s1 = clip
        h_s = (s1 - s0) / quad.restricted_nodes
        s = midpoint_nodes(s0, s1 - s0, quad.restricted_nodes)
        pts.append(base + s[:, None] * direction)
        wts.append(np.full(s.size, h_v * h_s))
    X = np.vstack(pts)
    w = np.concatenate(wts)
    y = fld.eval(X)
    fit = fitting.fit_affine_l2(fitting.SampleSet(X, y, w))
    r = y - fit.map(X)
    return norm_value(r, w, 2, box.diameter, 2)


def verify_reconstruction(fld: FunctionField, Q: Box, c: float = 1.0 / 20.0, C: float = 8.0,
                 tau: float = 0.25, eps: float = 0.05, seed: int = 0,
                 quad: QuadratureSpec | None = None) -> ReconstructionReport:
    """End-to-end reconstruction check on one box.

    Selects planes, interpolates f at the simplex corners by a global affine
    map, and reports the small-box coefficient both directly fitted and as
    realized by the constructed map, against the combined coefficient of the
    large box. BudgetExhausted draws still produce a report (flagged via
    selection.accepted).
    """
    if Q.dim < 2:
        raise ValueError("reconstruction needs n >= 2")
    if not (0.0 < c <= 0.25):
        raise ValueError("small-box factor c must lie in (0, 1/4]")
    quad = quad or QuadratureSpec()
    cQ = Q.dilate(c)
    CQ = Q.dilate(C)

    try:
        selection = select_transversal_planes(fld, Q, tau, eps, C, seed, quad)
    except BudgetExhausted as exc:
        if exc.selection is None:
            raise
        selection = exc.selection

    simplex = simplex_from_planes(selection.planes)
    if not np.all(simplex.contains(Q.dilate(2.0 * c).corners())):
        raise DegenerateSimplex("small box escaped the reconstruction simplex")
    corners = simplex.v
    A = build_global_affine(corners, fld.eval(corners))

    direct_rec = beta_p_cube(fld, cQ, 2, quad)
    X, w = midpoint_grid(cQ, quad.nodes)
    r = fld.eval(X) - A(X)
    via = norm_value(r, w, 2, cQ.diameter, cQ.dim)

    plane_rec = beta_integralgeometric(fld, CQ, Q.dim - 1 if Q.dim > 1 else 1, 2, 2,
                                       quad, seed_tags=("reconstruct", seed))
    line_rec = beta_integralgeometric(fld, CQ, 1, math.inf, 2, quad,
                                      seed_tags=("reconstruct", seed))
    combined = math.hypot(plane_rec.value, line_rec.value)

    e0 = _transversal_direction(selection.planes, Q.dim)
    best_integral = math.inf
    best_dir = e0
    for d in _cap_directions(e0, 0.1, 8, seed):
        val = _line_family_integral(fld, cQ, CQ, d, quad)
        if val < best_integral:
            best_integral, best_dir = val, d
    line_ratio = best_integral / line_rec.value ** 2 if line_rec.value > 0 else 0.0

    planar = planar_beta2(fld, cQ, best_dir, quad) if Q.dim == 2 else None

    denom = combined if combined > 0 else math.inf
    return ReconstructionReport(
        affine=A,
        beta2_small_direct=direct_rec.value,
        beta2_small_via_affine=via,
        combined_large=combined,
        plane_part=plane_rec.value,
        line_part=line_rec.value,
        ratio_direct=direct_rec.value / denom,
        ratio_via=via / denom,
        constants={"c": c, "C": C, "epsilon": eps, "tau": selection.tau},
        seed=seed,
        selection=selection,
        simplex=simplex,
        line_integral=best_integral,
        line_ratio=line_ratio,
        planar_value=planar,
        meta={"direction": tuple(best_dir), "budget": _DRAW_BUDGET},
    )
