"""Multiscale affine-approximation coefficients on cubes, slices and trees.

Cube coefficients discretize the defining integral on a midpoint tensor
grid and normalize by diam(Q)^n (not |Q|). Restricted coefficients
parametrize the slice (line interval or hyperplane patch), fit in slice
coordinates, and report the fitted map in ambient coordinates.
Integral-geometric coefficients are Monte Carlo averages of restricted
coefficients against the weighted Grassmannian samplers. A sampled line
family takes one path, ``restricted_line_betas`` (one clip per line, one
field call per block, a stacked L2 fit where it applies), which matches the
scalar reference ``beta_p_restricted`` bit for bit. Carleson sums walk the
dyadic tree and profile per-scale contributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fitting
from .errors import DegenerateBox, EmptyIntersection, RankDeficient
from .funcmodel import FunctionField, lipschitz_estimate
from .geometry import (AffineMap, Box, DyadicCube, Hyperplane, LineSeg,
                       clip_line_to_box, dyadic_levels, sample_hyperplanes,
                       sample_lines, support_interval)
from .rng import stream


@dataclass
class QuadratureSpec:
    """Node counts are odd so tensor grids are midpoint-symmetric."""

    nodes: int = 9
    restricted_nodes: int = 17
    mc_samples: int = 4096
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 3 or self.nodes % 2 == 0:
            raise ValueError("nodes must be odd and >= 3")
        if self.restricted_nodes < 3 or self.restricted_nodes % 2 == 0:
            raise ValueError("restricted_nodes must be odd and >= 3")


@dataclass
class BetaRecord:
    box: Box
    kind: str
    p: float
    value: float
    q: float | None = None
    m: int | None = None
    fitted: AffineMap | None = None
    stderr: float | None = None
    meta: dict = field(default_factory=dict)


def box_tag(box: Box) -> tuple:
    return tuple(round(v, 12) for v in box.lo) + tuple(round(v, 12) for v in box.sides)


def midpoint_nodes(lo, side, count: int) -> np.ndarray:
    """Midpoint nodes lo + side / count * (k + 1/2), k < count; for arrays of
    intervals (``lo`` and ``side`` broadcast) the nodes run along a new last axis."""
    h = np.asarray(side, dtype=float) / count
    return np.asarray(lo, dtype=float)[..., None] + h[..., None] * (np.arange(count) + 0.5)


def midpoint_mesh(lo, sides, count: int) -> np.ndarray:
    """Tensor grid of the midpoint nodes of each axis, (count^d, d), last axis fastest."""
    axes = midpoint_nodes(lo, sides, count)
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def midpoint_grid(box: Box, nodes: int):
    """Tensor midpoint rule: points (N, n), weights summing to |box|."""
    mesh = midpoint_mesh(box.lo, box.sides, nodes)
    w = np.full(mesh.shape[0], box.volume / mesh.shape[0])
    return mesh, w


def norm_value(r: np.ndarray, w: np.ndarray, p: float, diam: float, m: int) -> float:
    """(sum w |r|^p / diam^m)^(1/p) / diam, the size of the residual r on an
    m-dimensional set of diameter diam; max |r| / diam (0 if empty) for p = inf."""
    if math.isinf(p):
        return float(np.max(np.abs(r))) / diam if r.size else 0.0
    return _lp_value(float(w @ np.abs(r) ** p), p, diam, m)


def _lp_value(integral: float, p: float, diam: float, m: int) -> float:
    return (integral / diam ** m) ** (1.0 / p) / diam


def beta_p_cube(fld: FunctionField, box: Box, p: float, quad: QuadratureSpec,
                L: float | None = None) -> BetaRecord:
    """beta_p of the cube/box itself (the m = n case)."""
    if box.volume <= 0:
        raise DegenerateBox("empty box")
    X, w = midpoint_grid(box, quad.nodes)
    y = fld.eval(X)
    try:
        fit = fitting.affine_fit(fitting.SampleSet(X, y, w), p, L)
    except RankDeficient as exc:
        raise DegenerateBox(str(exc)) from exc
    r = y - fit.map(X)
    value = norm_value(r, w, p, box.diameter, box.dim)
    return BetaRecord(box, "cube", p, value, m=box.dim, fitted=fit.map,
                      meta={"nodes": quad.nodes, "L": L})


def _line_record(fld, box, seg: LineSeg, p, quad, L):
    clip = clip_line_to_box(np.asarray(seg.base), np.asarray(seg.direction), box)
    if clip is None:
        raise EmptyIntersection("line does not meet the box")
    s0, s1 = clip
    nodes = quad.restricted_nodes
    s = midpoint_nodes(s0, s1 - s0, nodes)
    pts = seg.points(s)
    y = fld.eval(pts)
    w = np.full(nodes, (s1 - s0) / nodes)
    fit = fitting.affine_fit(fitting.SampleSet(s[:, None], y, w), p, L)
    r = y - fit.map(s[:, None])
    value = norm_value(r, w, p, box.diameter, 1)
    a = fit.map.a[0]
    direction = np.asarray(seg.direction)
    amb = AffineMap(tuple(a * direction), fit.map.intercept - a * float(direction @ np.asarray(seg.base)))
    return BetaRecord(box, "restricted", p, value, m=1, fitted=amb,
                      meta={"nodes": nodes, "L": L})


def _plane_record(fld, box, plane: Hyperplane, p, quad, L):
    t0, t1 = support_interval(box, plane.e)
    if not (t0 <= plane.offset <= t1):
        raise EmptyIntersection("plane does not meet the box")
    B = plane.frame()
    x0 = plane.point()
    u_corners = (box.corners() - x0) @ B
    lo = u_corners.min(axis=0)
    hi = u_corners.max(axis=0)
    nodes = quad.restricted_nodes
    mdim = box.dim - 1
    U = midpoint_mesh(lo, hi - lo, nodes)
    X = x0 + U @ B.T
    cell = float(np.prod((hi - lo) / nodes))
    inside = box.contains(X, tol=1e-12)
    if not np.any(inside):
        raise EmptyIntersection("plane patch grid misses the box")
    U, X = U[inside], X[inside]
    y = fld.eval(X)
    w = np.full(U.shape[0], cell)
    fit = fitting.affine_fit(fitting.SampleSet(U, y, w), p, L)
    r = y - fit.map(U)
    value = norm_value(r, w, p, box.diameter, mdim)
    grad = B @ fit.map.a
    amb = AffineMap(tuple(grad), fit.map.intercept - float(grad @ x0))
    return BetaRecord(box, "restricted", p, value, m=mdim, fitted=amb,
                      meta={"nodes": nodes, "L": L})


def beta_p_restricted(fld: FunctionField, box: Box, slice_obj, p: float,
                      quad: QuadratureSpec, L: float | None = None) -> BetaRecord:
    """beta_p of f restricted to (box intersect plane-or-line)."""
    if isinstance(slice_obj, LineSeg):
        return _line_record(fld, box, slice_obj, p, quad, L)
    if isinstance(slice_obj, Hyperplane):
        return _plane_record(fld, box, slice_obj, p, quad, L)
    raise TypeError(f"cannot restrict to {type(slice_obj).__name__}")


# Lines per batched pass: bounds the (lines, nodes, n) arrays and the field's
# own temporaries while keeping per-call overhead small.
LINE_BLOCK = 512


def restricted_line_betas(fld: FunctionField, box: Box, segs, ps, quad: QuadratureSpec,
                          L: float | None = None):
    """beta_p_restricted(fld, box, seg, p, quad, L).value for a family of lines.

    Returns (kept, values): ``kept`` masks the lines that meet the box and
    ``values[p]`` holds their coefficients in order, for each p in ``ps``.
    Each line is clipped once; each block of LINE_BLOCK clipped lines is
    evaluated in one field call. Without L, p = 2 reads its values off one
    stacked L2 fit of the block and p = inf starts each line's 1-D exchange
    from it; every other line (a failed rank check, a given L, another p) is
    fitted on its own by ``fitting.affine_fit``. Every value equals the
    scalar one exactly.
    """
    kept = np.zeros(len(segs), dtype=bool)
    lines, ends = [], []
    for k, seg in enumerate(segs):
        clip = clip_line_to_box(seg.base, seg.direction, box)
        if clip is not None:
            kept[k] = True
            lines.append(seg)
            ends.append(clip)
    blocks = [_line_block_betas(fld, box, lines[i:i + LINE_BLOCK], ends[i:i + LINE_BLOCK], ps, quad, L)
              for i in range(0, len(lines), LINE_BLOCK)]
    return kept, {p: np.concatenate([blk[p] for blk in blocks] or [np.zeros(0)]) for p in ps}


def _line_block_betas(fld, box, lines, ends, ps, quad, L):
    """restricted_line_betas of lines that meet the box, clipped to (s0, s1) = ends."""
    nodes = quad.restricted_nodes
    s0, s1 = np.asarray(ends).T
    h = (s1 - s0) / nodes
    s = midpoint_nodes(s0, s1 - s0, nodes)
    pts = s[:, :, None] * np.asarray([seg.direction for seg in lines])[:, None, :]
    pts += np.asarray([seg.base for seg in lines])[:, None, :]
    y = fld.eval(pts.reshape(-1, box.dim)).reshape(s.shape)
    del pts
    x = s[:, :, None]
    w = np.repeat(h[:, None], nodes, axis=1)
    ok, a, b = fitting._fit_affine_l2_stack(x, y, w)
    ok &= L is None  # a given L needs each line's own constrained fit
    diam = box.diameter
    values = {}
    for p in ps:
        a_p, b_p = a.copy(), b.copy()
        for k in range(len(lines)):
            if ok[k] and p == 2:
                continue
            if ok[k] and math.isinf(p):
                # each line's 1-D exchange starts from its L2 map
                amap = fitting._minimax_from_l2(x[k], y[k], w[k], AffineMap(tuple(a[k]), b[k])).map
            else:
                amap = fitting.affine_fit(fitting.SampleSet(x[k], y[k], w[k]), p, L).map
            a_p[k], b_p[k] = amap.a, amap.intercept
        r = np.abs(y - ((x @ a_p[:, :, None])[:, :, 0] + b_p[:, None]))
        if math.isinf(p):
            values[p] = r.max(axis=1) / diam
        else:
            values[p] = np.asarray([_lp_value(float(i), p, diam, 1)
                                    for i in (w[:, None, :] @ (r ** p)[:, :, None])[:, 0, 0]])
    return values


def _ig_family(fld, box, m, ps, quad, L, seed_tags):
    """Sample the m-planes meeting the box once and score them in every p of ps.

    Returns (weights, values) over the samples that met the box.
    """
    rng_seed = int(stream(quad.seed, "ig", m, box_tag(box), *seed_tags).integers(0, 2 ** 62))
    if m == 1:
        # for n = 2 the line and hyperplane measures coincide, so the line
        # sampler covers both m = 1 and m = n - 1
        samples = sample_lines(box, quad.mc_samples, rng_seed)
        kept, values = restricted_line_betas(fld, box, [seg for seg, _ in samples], ps, quad, L)
        return np.asarray([w for _, w in samples])[kept], values
    samples = sample_hyperplanes(box, quad.mc_samples, rng_seed)
    vals, weights = {p: [] for p in ps}, []
    for obj, w in samples:
        try:
            recs = [beta_p_restricted(fld, box, obj, p, quad, L) for p in ps]
        except EmptyIntersection:
            continue
        for p, rec in zip(ps, recs):
            vals[p].append(rec.value)
        weights.append(w)
    return np.asarray(weights), {p: np.asarray(v) for p, v in vals.items()}


def _ig_record(box, m, p, q, L, weights, vals) -> BetaRecord:
    """L^q Monte Carlo mean of restricted coefficients, with its standard error."""
    if not vals.size:
        raise EmptyIntersection("no sampled plane met the box")
    mean_q = float(weights @ vals ** q / weights.sum())
    value = mean_q ** (1.0 / q)
    # delta-method standard error through the q-th root
    contrib = weights * vals ** q / weights.mean()
    se_mean = float(contrib.std(ddof=1) / math.sqrt(len(vals)))
    stderr = se_mean * value ** (1.0 - q) / q if value > 0 else se_mean
    return BetaRecord(box, "ig", p, value, q=q, m=m, stderr=stderr,
                      meta={"mc": len(vals), "L": L})


def beta_integralgeometric(fld: FunctionField, box: Box, m: int, p: float, q: float,
                           quad: QuadratureSpec, L: float | None = None,
                           seed_tags: tuple = ()) -> BetaRecord:
    """L^q average of restricted beta_p over m-planes meeting the box."""
    n = box.dim
    if m == n:
        rec = beta_p_cube(fld, box, p, quad, L)
        return BetaRecord(box, "ig", p, rec.value, q=q, m=m, fitted=rec.fitted, stderr=0.0)
    if m not in (1, n - 1):
        raise ValueError("only m in {1, n-1, n} is supported")
    weights, values = _ig_family(fld, box, m, (p,), quad, L, seed_tags)
    return _ig_record(box, m, p, q, L, weights, values[p])


def combined_beta(fld: FunctionField, box: Box, quad: QuadratureSpec,
                  seed_tags: tuple = ()) -> float:
    """Root-sum-of-squares of the hyperplane L2 and line sup coefficients.

    At n = 2 hyperplanes are lines and both parts share one sampled family,
    scored once in each norm.
    """
    if box.dim < 2:
        raise ValueError("combined coefficient needs n >= 2")
    if box.dim == 2:
        weights, values = _ig_family(fld, box, 1, (2, math.inf), quad, None, seed_tags)
        b_planes = _ig_record(box, 1, 2, 2, None, weights, values[2])
        b_lines = _ig_record(box, 1, math.inf, 2, None, weights, values[math.inf])
    else:
        b_planes = beta_integralgeometric(fld, box, box.dim - 1, 2, 2, quad, seed_tags=seed_tags)
        b_lines = beta_integralgeometric(fld, box, 1, math.inf, 2, quad, seed_tags=seed_tags)
    return math.hypot(b_planes.value, b_lines.value)


# name -> (coefficient of a dilated cube, power, needs L). Entries call the
# coefficient functions through their module-level names, so a rebound name
# (instrumentation, monkeypatching) is seen by the table as well.
SELECTORS = {
    "beta2": (lambda fld, box, quad: beta_p_cube(fld, box, 2, quad).value, 2.0, False),
    "ig_line_inf2": (lambda fld, box, quad: beta_integralgeometric(
        fld, box, 1, math.inf, 2, quad).value, 2.0, False),
    "ig_plane_22": (lambda fld, box, quad: beta_integralgeometric(
        fld, box, max(box.dim - 1, 1), 2, 2, quad).value, 2.0, False),
    "combined": (lambda fld, box, quad: combined_beta(fld, box, quad), 2.0, False),
}


@dataclass
class CarlesonReport:
    """Packing sum of selector(CQ)^power |Q| over a dyadic tree.

    ``nodes`` holds (node, selector value) for every visited cube or
    parabolic box in walk order; ``ratios`` are the running totals over the
    family's normalization (Lhat |Q0| for cubes, |Q0| for parabolic boxes).
    """

    selector: str
    dilation: float
    power: float
    levels: list
    counts: list
    per_scale: list
    cumulative: list
    lipschitz: float
    ratios: list
    nodes: list

    @property
    def total(self) -> float:
        return self.cumulative[-1] if self.cumulative else 0.0

    @classmethod
    def tally(cls, selector, dilation, power, lipschitz, denominator, walk):
        """Report of a walk given as one list of (node, value, term) per level.

        Level sums accumulate the terms one by one in visit order, so a
        rerun reproduces every sum bit for bit.
        """
        levels, counts, per_scale, cumulative, ratios, nodes = [], [], [], [], [], []
        running = 0.0
        for level in walk:
            level_sum = 0.0
            for node, value, term in level:
                level_sum += term
                nodes.append((node, value))
            running += level_sum
            levels.append(level[0][0].level)
            counts.append(len(level))
            per_scale.append(level_sum)
            cumulative.append(running)
            ratios.append(running / denominator)
        return cls(selector, dilation, power, levels, counts, per_scale, cumulative,
                   lipschitz, ratios, nodes)


def carleson_sum(fld: FunctionField, root: DyadicCube, dilation: float, depth: int,
                 selector: str, quad: QuadratureSpec) -> CarlesonReport:
    """Sum selector(CQ)^2 |Q| over dyadic Q inside root, down `depth` levels."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")
    coefficient, power, _ = SELECTORS[selector]
    root_box = root.as_box()
    Lhat = fld.lipschitz
    if Lhat is None:
        Lhat = lipschitz_estimate(fld, root_box.dilate(dilation), 4096, quad.seed)
    walk = []
    for frontier in dyadic_levels(root, depth):
        vals = [coefficient(fld, cube.as_box().dilate(dilation), quad) for cube in frontier]
        # val * val, not val ** 2.0: the two round differently for some doubles
        walk.append([(cube, v, v * v * cube.volume) for cube, v in zip(frontier, vals)])
    return CarlesonReport.tally(selector, dilation, power, Lhat,
                                max(Lhat, 1e-300) * root.volume, walk)
