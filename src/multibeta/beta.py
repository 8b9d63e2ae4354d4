"""Multiscale affine-approximation coefficients on cubes, slices and trees.

A cube or slice coefficient is the normalized size of one residual: the
field's values on the set's quadrature nodes minus their best affine map.
``fit_betas`` takes both from ``fitting.fit_rows``, the one fit, for a
stack of sets or a stack of one, so every coefficient is fitted and sized
in one place. Cube coefficients come from one engine, ``beta_p_cube``,
which takes box corners and common sides: it reads the midpoint tensor grid
of ``sample_grids``, the one sampler, one call per block of boxes, fits one
stack per block and norm, and normalizes by diam(Q)^n (not |Q|). One box is
a stack of one; ``cube_level`` hands it the cubes of a dyadic level, for
``analyze`` and the beta2 Carleson sum. Restricted coefficients parametrize
the slice (line interval or hyperplane patch), fit in slice coordinates, and
report the fitted map in ambient coordinates. Integral-geometric
coefficients are Monte Carlo averages of restricted coefficients against
the weighted Grassmannian samplers. Line coefficients are computed only as
stacks, by ``restricted_line_betas`` (one clip per line, one field call per
block and one stack per block and norm); ``beta_p_restricted`` is the
hyperplane-patch coefficient. The combined coefficient is the hypot of its
two ``combined_parts``; at n = 2 they share one sampled line family.
Carleson sums walk the dyadic tree and profile per-scale contributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fitting
from .errors import DegenerateBox, EmptyIntersection
from .funcmodel import FunctionField, lipschitz_estimate
from .geometry import (AffineMap, Box, DyadicBox, Hyperplane, clip_lines, dyadic_levels,
                       sample_hyperplanes, sample_lines, support_interval)
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
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be >= 2, so a Monte Carlo mean has a standard error")


@dataclass
class BetaRecord:
    value: float
    fitted: AffineMap | None = None
    stderr: float | None = None
    mc: int = 0  # Monte Carlo samples that met the set; 0 for a cube coefficient


def box_tag(box: Box) -> tuple:
    return tuple(round(v, 12) for v in box.lo) + tuple(round(v, 12) for v in box.sides)


def midpoint_nodes(lo, side, count: int) -> np.ndarray:
    """Midpoint nodes lo + side / count * (k + 1/2), k < count; for arrays of
    intervals (``lo`` and ``side`` broadcast) the nodes run along a new last axis."""
    h = np.asarray(side, dtype=float) / count
    return np.asarray(lo, dtype=float)[..., None] + h[..., None] * (np.arange(count) + 0.5)


def midpoint_mesh(lo, sides, count: int) -> np.ndarray:
    """Tensor grid of the midpoint nodes of each axis, (count^d, d), last axis
    fastest; for a stack of boxes, ``lo`` (K, d), one grid per box, (K, count^d, d)."""
    axes = midpoint_nodes(lo, sides, count)
    *lead, d, _ = axes.shape
    mesh = np.empty((*lead, *(count,) * d, d))
    for i in range(d):
        mesh[..., i] = axes[..., i, :].reshape(*lead, *(1,) * i, count, *(1,) * (d - 1 - i))
    return mesh.reshape(*lead, count ** d, d)


def sample_grids(fld: FunctionField, lo, sides, nodes: int):
    """The midpoint grids of the boxes with corners lo (K, n) and common sides,
    and fld on them in one field call: points (K, N, n) and values (K, N)."""
    X = midpoint_mesh(lo, sides, nodes)
    return X, fld.eval(X.reshape(-1, X.shape[-1])).reshape(X.shape[:-1])


def norm_value(r: np.ndarray, w: np.ndarray, p: float, diam: float, m: int) -> float:
    """(sum w |r|^p / diam^m)^(1/p) / diam, the size of the residual r on an
    m-dimensional set of diameter diam; max |r| / diam (0 if empty) for p = inf."""
    if math.isinf(p):
        return float(np.max(np.abs(r))) / diam if r.size else 0.0
    return _lp_value(float(w @ np.abs(r) ** p), p, diam, m)


def _lp_value(integral: float, p: float, diam: float, m: int) -> float:
    return (integral / diam ** m) ** (1.0 / p) / diam


def fit_betas(x, y, w, p: float, diam: float, m: int, L: float | None = None):
    """fitting.fit_rows of a stack x (K, N, d), y and w (K, N), and the
    coefficient of each row's residual on an m-dimensional set of diameter
    diam, bit for bit as norm_value gives it: (a, b, values), values a list
    of floats."""
    a, b, sums = fitting.fit_rows(x, y, w, p, L)
    if math.isinf(p):
        return a, b, [float(v) / diam for v in sums]
    return a, b, [_lp_value(float(v), p, diam, m) for v in sums]


# Rows (sampled lines, cubes of one tree level) per batched pass: bounds the
# (rows, nodes, n) arrays and the field's own temporaries while keeping
# per-call overhead small.
ROW_BLOCK = 512
# Sample points per block of cubes: a stack of large cubes runs its lockstep
# fits on few rows, which stay in cache
BLOCK_POINTS = 16 * ROW_BLOCK


def beta_p_cube(fld: FunctionField, lo, sides, ps, quad: QuadratureSpec) -> dict:
    """beta_p of fld on each box with a corner among the (K, n) rows of ``lo``
    and the common ``sides``, in order, for each p of ps: {p: values}.

    The coefficient reads the midpoint grid of the box (quad.nodes per axis,
    weights summing to |box|) and normalizes by diam(box)^n. A block of
    boxes is one sample_grids call and, in each p, one fit_betas stack,
    each of whose rows has the bits of its box alone. A block holds at most
    ROW_BLOCK boxes and BLOCK_POINTS sample points, and at least one box.
    """
    sides = np.asarray(sides, dtype=float)
    # one corner may come as a flat sequence
    lo = np.asarray(lo, dtype=float).reshape(-1, len(sides))
    volume = float(np.prod(sides))
    if volume <= 0:
        raise DegenerateBox("empty box")
    n, N, diam = len(sides), quad.nodes ** len(sides), float(np.linalg.norm(sides))
    boxes = max(1, min(ROW_BLOCK, BLOCK_POINTS // N))  # per block
    values = {p: [] for p in ps}
    for i in range(0, len(lo), boxes):
        X, y = sample_grids(fld, lo[i:i + boxes], sides, quad.nodes)
        w = np.full(y.shape, volume / N)
        for p in ps:
            values[p] += fit_betas(X, y, w, p, diam, n)[2]
    return values


def cube_level(fld: FunctionField, frontier: list, ps, quad: QuadratureSpec,
               dilation: float | None = None) -> dict:
    """beta_p_cube of the box of each cube of one dyadic level, in order, for
    each p of ps: {p: values}. The box is cube.as_box(), dilated by
    ``dilation`` if given; its corner is written with DyadicBox.as_box's and
    Box.dilate's expressions, so it has their bits.
    """
    box = frontier[0].as_box()  # the sides of every cube here
    s = np.asarray(box.sides)
    lo = np.asarray([cube.index for cube in frontier], dtype=float) * s  # DyadicBox.as_box's
    if dilation is not None:
        box = box.dilate(dilation)
        lo = lo + 0.5 * s - 0.5 * np.asarray(box.sides)  # Box.dilate's corner
    return beta_p_cube(fld, lo, box.sides, ps, quad)


def beta_p_restricted(fld: FunctionField, box: Box, plane: Hyperplane, p: float,
                      quad: QuadratureSpec) -> BetaRecord:
    """beta_p of f restricted to the hyperplane patch (box intersect plane)."""
    t0, t1 = support_interval(box, plane.e)
    if not (t0 <= plane.offset <= t1):
        raise EmptyIntersection("plane does not meet the box")
    B = plane.frame()
    x0 = plane.point()
    u_corners = (box.corners() - x0) @ B
    lo = u_corners.min(axis=0)
    hi = u_corners.max(axis=0)
    nodes = quad.restricted_nodes
    U = midpoint_mesh(lo, hi - lo, nodes)
    X = x0 + U @ B.T
    cell = float(np.prod((hi - lo) / nodes))
    inside = box.contains(X)
    if not np.any(inside):
        raise EmptyIntersection("plane patch grid misses the box")
    U, X = U[inside], X[inside]
    y = fld.eval(X)
    w = np.full(U.shape[0], cell)
    a, b, values = fit_betas(U[None], y[None], w[None], p, box.diameter, box.dim - 1)
    grad = B @ a[0]
    return BetaRecord(values[0], AffineMap(tuple(grad), b[0] - float(grad @ x0)))


def restricted_line_betas(fld: FunctionField, box: Box, bases, directions, ps,
                          quad: QuadratureSpec):
    """beta_p of f restricted to (box intersect line) for the lines given as
    (K, n) rows of ``bases`` and unit ``directions``.

    Returns (kept, values): ``kept`` masks the lines that meet the box and
    ``values[p]`` holds their coefficients in order, for each p in ``ps``.
    The lines are clipped as one stack; each block of ROW_BLOCK clipped lines
    is one field call and, in each p, one ``fit_betas`` stack. Each value
    has the bits of its line alone.
    """
    # an empty family may come as an empty list
    bases = np.asarray(bases, dtype=float).reshape(-1, box.dim)
    directions = np.asarray(directions, dtype=float).reshape(-1, box.dim)
    kept, s0, s1 = clip_lines(bases, directions, box)
    bases, directions, s0, s1 = bases[kept], directions[kept], s0[kept], s1[kept]
    blocks = [_line_block_betas(fld, box, bases[rows], directions[rows], s0[rows], s1[rows],
                                ps, quad)
              for rows in (slice(i, i + ROW_BLOCK) for i in range(0, len(s0), ROW_BLOCK))]
    return kept, {p: np.concatenate([blk[p] for blk in blocks] or [np.zeros(0)]) for p in ps}


def _line_block_betas(fld, box, bases, directions, s0, s1, ps, quad):
    """restricted_line_betas of lines that meet the box, clipped to [s0, s1]."""
    nodes = quad.restricted_nodes
    h = (s1 - s0) / nodes
    s = midpoint_nodes(s0, s1 - s0, nodes)
    pts = s[:, :, None] * directions[:, None, :]
    pts += bases[:, None, :]
    y = fld.eval(pts.reshape(-1, box.dim)).reshape(s.shape)
    del pts
    x = s[:, :, None]
    w = np.repeat(h[:, None], nodes, axis=1)
    return {p: np.asarray(fit_betas(x, y, w, p, box.diameter, 1)[2]) for p in ps}


def _ig_family(fld, box, m, ps, quad, seed_tags):
    """Sample the m-planes meeting the box once and score them in every p of ps.

    Returns (weights, values) over the samples that met the box.
    """
    rng_seed = int(stream(quad.seed, "ig", m, box_tag(box), *seed_tags).integers(0, 2 ** 62))
    if m == 1:
        # for n = 2 the line and hyperplane measures coincide, so the line
        # sampler covers both m = 1 and m = n - 1
        lines = sample_lines(box, quad.mc_samples, rng_seed)
        kept, values = restricted_line_betas(fld, box, lines["base"], lines["direction"], ps, quad)
        return lines["weight"][kept], values
    samples = sample_hyperplanes(box, quad.mc_samples, rng_seed)
    vals, weights = {p: [] for p in ps}, []
    for plane, w in samples:
        try:
            recs = [beta_p_restricted(fld, box, plane, p, quad) for p in ps]
        except EmptyIntersection:
            continue
        for p, rec in zip(ps, recs):
            vals[p].append(rec.value)
        weights.append(w)
    return np.asarray(weights), {p: np.asarray(v) for p, v in vals.items()}


def _ig_record(q, weights, vals) -> BetaRecord:
    """L^q Monte Carlo mean of restricted coefficients, with its standard
    error (inf when fewer than two samples met the set)."""
    if not vals.size:
        raise EmptyIntersection("no sampled plane met the box")
    mean_q = float(weights @ vals ** q / weights.sum())
    value = mean_q ** (1.0 / q)
    if len(vals) < 2:
        return BetaRecord(value, stderr=math.inf, mc=len(vals))
    # delta-method standard error through the q-th root
    contrib = weights * vals ** q / weights.mean()
    se_mean = float(contrib.std(ddof=1) / math.sqrt(len(vals)))
    stderr = se_mean * value ** (1.0 - q) / q if value > 0 else se_mean
    return BetaRecord(value, stderr=stderr, mc=len(vals))


def beta_integralgeometric(fld: FunctionField, box: Box, m: int, p: float, q: float,
                           quad: QuadratureSpec, seed_tags: tuple = ()) -> BetaRecord:
    """L^q average of restricted beta_p over m-planes meeting the box."""
    n = box.dim
    if m == n:
        return BetaRecord(beta_p_cube(fld, box.lo, box.sides, (p,), quad)[p][0], stderr=0.0)
    if m not in (1, n - 1):
        raise ValueError("only m in {1, n-1, n} is supported")
    weights, values = _ig_family(fld, box, m, (p,), quad, seed_tags)
    return _ig_record(q, weights, values[p])


def combined_parts(fld: FunctionField, box: Box, quad: QuadratureSpec,
                   seed_tags: tuple = ()) -> tuple:
    """The hyperplane L2 and line sup parts of the combined coefficient.

    At n = 2 hyperplanes are lines and both parts share one sampled family,
    scored once in each norm.
    """
    if box.dim < 2:
        raise ValueError("combined coefficient needs n >= 2")
    if box.dim == 2:
        weights, values = _ig_family(fld, box, 1, (2, math.inf), quad, seed_tags)
        return tuple(_ig_record(2, weights, values[p]).value for p in (2, math.inf))
    return (beta_integralgeometric(fld, box, box.dim - 1, 2, 2, quad, seed_tags=seed_tags).value,
            beta_integralgeometric(fld, box, 1, math.inf, 2, quad, seed_tags=seed_tags).value)


def combined_beta(fld: FunctionField, box: Box, quad: QuadratureSpec,
                  seed_tags: tuple = ()) -> float:
    """Root-sum-of-squares of the two ``combined_parts``."""
    return math.hypot(*combined_parts(fld, box, quad, seed_tags))


def _each_cube(coefficient):
    """The level function that runs coefficient(fld, box, quad) on the
    dilated box of each cube of a level, in order."""
    return lambda fld, frontier, quad, dilation: [
        coefficient(fld, cube.as_box().dilate(dilation), quad) for cube in frontier]


# name -> level function (fld, frontier, quad, dilation) -> the coefficient
# of each dilated cube of one dyadic level, in order; carleson_sum squares
# it. Entries call the coefficient functions through their module-level
# names, so a rebound name (instrumentation, monkeypatching) is seen by the
# table as well.
SELECTORS = {
    "beta2": lambda fld, frontier, quad, dilation: cube_level(
        fld, frontier, (2,), quad, dilation)[2],
    "ig_line_inf2": _each_cube(lambda fld, box, quad: beta_integralgeometric(
        fld, box, 1, math.inf, 2, quad).value),
    "ig_plane_22": _each_cube(lambda fld, box, quad: beta_integralgeometric(
        fld, box, max(box.dim - 1, 1), 2, 2, quad).value),
    "combined": _each_cube(lambda fld, box, quad: combined_beta(fld, box, quad)),
}


@dataclass
class CarlesonReport:
    """Packing sum of selector(CQ)^power |Q| over a dyadic tree.

    ``nodes`` holds (node, selector value) for every visited cube or
    parabolic box in walk order; ``ratios`` are the running totals over the
    family's normalization (Lhat |Q0| for cubes, |Q0| for parabolic boxes).
    """

    selector: str
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
    def walk(cls, selector, power, lipschitz, denominator, root, depth, values, weight):
        """Report of the packing sum over the dyadic tree below ``root``,
        ``depth`` levels down.

        ``values(frontier)`` gives the selector value of each node of one
        level, in order; node Q adds ``weight(value) * Q.volume``, where
        every node of a level has the same volume. Level sums accumulate the
        terms one by one in walk order, so a rerun reproduces every sum bit
        for bit.
        """
        if depth < 0:
            raise ValueError("depth must be >= 0")
        levels, counts, per_scale, cumulative, ratios, nodes = [], [], [], [], [], []
        running = 0.0
        for frontier in dyadic_levels(root, depth):
            level_sum, volume = 0.0, frontier[0].volume
            for node, value in zip(frontier, values(frontier)):
                level_sum += weight(value) * volume
                nodes.append((node, value))
            running += level_sum
            levels.append(frontier[0].level)
            counts.append(len(frontier))
            per_scale.append(level_sum)
            cumulative.append(running)
            ratios.append(running / denominator)
        return cls(selector, power, levels, counts, per_scale, cumulative,
                   lipschitz, ratios, nodes)


def carleson_sum(fld: FunctionField, root: DyadicBox, dilation: float, depth: int,
                 selector: str, quad: QuadratureSpec) -> CarlesonReport:
    """Sum selector(CQ)^2 |Q| over dyadic Q inside root, down `depth` levels,
    taking the values a level at a time from the selector's level function."""
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")
    level = SELECTORS[selector]
    Lhat = fld.lipschitz
    if Lhat is None:
        Lhat = lipschitz_estimate(fld, root.as_box().dilate(dilation), 4096, quad.seed)
    return CarlesonReport.walk(
        selector, 2.0, Lhat, max(Lhat, 1e-300) * root.volume, root, depth,
        lambda frontier: level(fld, frontier, quad, dilation),
        # v * v, not v ** 2.0: the two round differently for some doubles
        lambda v: v * v)
