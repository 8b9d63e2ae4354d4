"""Evaluable scalar fields: analytic catalog entries and interpolated grids.

Each field evaluates vectorized on (N, n) point arrays. Parabolic entries
live on R^{n-1} x R with the last coordinate playing time; a caller that
wants their Lipschitz constant in the parabolic metric asks
``lipschitz_estimate`` for it with ``parabolic=True``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, OutOfDomain
from .geometry import Box, parabolic_distance
from .rng import stream


@dataclass
class FunctionField:
    """Scalar field with a pure, deterministic evaluation contract."""

    kind: str
    dim: int
    fn: callable
    lipschitz: float | None = None  # declared bound, Euclidean or parabolic

    def eval(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.dim:
            raise ValueError(f"field of dimension {self.dim} got points of dimension {pts.shape[1]}")
        vals = self.fn(pts)
        return float(vals[0]) if single else vals


class GridField(FunctionField):
    """Axis-aligned sample lattice evaluated by multilinear interpolation."""

    def __init__(self, origin, steps, counts, values):
        from scipy.interpolate import RegularGridInterpolator

        origin = np.asarray(origin, dtype=float)
        steps = np.asarray(steps, dtype=float)
        counts = np.asarray(counts, dtype=int)
        values = np.asarray(values, dtype=float).reshape(tuple(counts))
        axes = [origin[i] + steps[i] * np.arange(counts[i]) for i in range(len(counts))]
        interp = RegularGridInterpolator(axes, values, method="linear", bounds_error=True)
        region = Box(tuple(origin), tuple(steps * (counts - 1)))

        def fn(pts):
            try:
                return interp(pts)
            except ValueError as exc:
                raise OutOfDomain(f"point outside grid hull {region.lo}..{tuple(region.hi)}") from exc

        super().__init__(kind="grid", dim=len(counts), fn=fn)

    @classmethod
    def from_csv(cls, path) -> "GridField":
        """Load a grid field; see docs/formats.md for the layout. A file that
        cannot be read or breaks the layout raises ConfigError naming it."""
        try:
            with open(path, newline="") as handle:
                rows = [[float(v) for v in r] for r in csv.reader(handle) if r]
        except (OSError, ValueError, csv.Error) as exc:
            raise ConfigError(f"grid file {path}: {exc}") from exc
        if len(rows) < 4:
            raise ConfigError(f"grid file {path}: need counts, origin, steps, values rows")
        counts, origin, steps = rows[:3]
        flat = [v for row in rows[3:] for v in row]
        if (not all(c.is_integer() and c >= 2 for c in counts) or len(origin) != len(counts)
                or len(steps) != len(counts) or not all(s > 0 for s in steps)):
            raise ConfigError(f"grid file {path}: need integer counts >= 2, and one origin "
                              "and one positive step per count")
        size = math.prod(int(c) for c in counts)
        if len(flat) != size:
            raise ConfigError(f"grid file {path}: expected {size} values, got {len(flat)}")
        if not np.isfinite([*origin, *flat, *(s * c for s, c in zip(steps, counts))]).all():
            raise ConfigError(f"grid file {path}: values, origin and extent must be finite")
        return cls(origin, steps, counts, flat)


def _pwlinear_eval(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope_lo = (ys[1] - ys[0]) / (xs[1] - xs[0])
    slope_hi = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])

    def fn(pts):
        x = pts[:, 0]
        out = np.interp(x, xs, ys)
        lo = x < xs[0]
        hi = x > xs[-1]
        out[lo] = ys[0] + slope_lo * (x[lo] - xs[0])
        out[hi] = ys[-1] + slope_hi * (x[hi] - xs[-1])
        return out

    return fn


# p_additive time part name -> (h, Lipschitz constant of h)
_TIME_PARTS = {"zero": (lambda t: np.zeros_like(t), 0.0), "sin": (np.sin, 1.0),
               "linear": (lambda t: t, 1.0)}


def _choice(params: dict, key: str, default: str, names) -> str:
    """params[key] (``default`` when absent), which must be one of ``names``."""
    name = params.get(key, default)
    if not isinstance(name, str) or name not in names:
        raise ConfigError(f'"{key}" must be one of {tuple(names)}')
    return name


def _numeric_leaves(x) -> bool:
    """False if a bool or a string, which numpy would read as a number, sits
    at any depth of the nested lists ``x``."""
    if isinstance(x, (list, tuple)):
        return all(map(_numeric_leaves, x))
    return np.asarray(x).dtype.kind not in "bSU"


def _floats(params: dict, key: str, default) -> np.ndarray:
    """params[key] (``default`` when absent) as a float array."""
    raw = params.get(key, default)
    if not _numeric_leaves(raw):
        raise ConfigError(f'"{key}" must be numeric, not true, false or a string')
    try:
        x = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f'"{key}" must be numeric: {exc}') from exc
    if not np.isfinite(x).all():
        raise ConfigError(f'"{key}" must be finite numbers')
    return x


def _number(params: dict, key: str, default: float) -> float:
    """params[key] (``default`` when absent) as one float."""
    x = _floats(params, key, default)
    if x.shape != ():
        raise ConfigError(f'"{key}" must be a number')
    return float(x)


def _point(params: dict, key: str, dim: int, fill: float = 0.0) -> np.ndarray:
    """params[key] as a point of R^dim (every coordinate ``fill`` when absent)."""
    x = _floats(params, key, np.full(dim, fill))
    if x.shape != (dim,):
        raise ConfigError(f'"{key}" must be a list of {dim} numbers')
    return x


def make_field(kind: str, dim: int, **params) -> FunctionField:
    """Catalog factory. Euclidean kinds: affine, pwlinear, cone, distset,
    bump, square. Parabolic kinds: p_additive, p_product."""
    if kind == "affine":
        a = _point(params, "a", dim)
        b = _number(params, "b", 0.0)
        return FunctionField(kind, dim, lambda pts: pts @ a + b,
                             lipschitz=float(np.linalg.norm(a)))

    if kind == "pwlinear":
        xs = _floats(params, "xs", [0.0, 0.25, 0.5, 0.75, 1.0])
        ys = _floats(params, "ys", [0.0, 0.3, -0.1, 0.2, 0.0])
        if xs.ndim != 1 or xs.size < 2 or not np.all(np.diff(xs) > 0):
            raise ConfigError('"xs" must be a strictly increasing list of at least 2 numbers')
        if ys.shape != xs.shape:
            raise ConfigError(f'"ys" must have {xs.size} entries, one per "xs" entry')
        L = float(np.max(np.abs(np.diff(ys) / np.diff(xs))))
        return FunctionField(kind, dim, _pwlinear_eval(xs, ys), lipschitz=L)

    if kind == "cone":
        x0 = _point(params, "x0", dim)
        return FunctionField(kind, dim, lambda pts: np.linalg.norm(pts - x0, axis=1), lipschitz=1.0)

    if kind == "distset":
        pts0 = np.atleast_2d(_floats(params, "points", [np.zeros(dim)]))
        if pts0.ndim != 2 or pts0.shape[1] != dim:
            raise ConfigError(f'"points" must be a list of points with {dim} entries each')
        return FunctionField(
            kind, dim,
            lambda pts: np.min(np.linalg.norm(pts[:, None, :] - pts0[None, :, :], axis=2), axis=1),
            lipschitz=1.0)

    if kind == "bump":
        x0 = _point(params, "x0", dim)
        scale = _number(params, "scale", 0.3)
        if not (scale > 0 and scale * scale < np.inf):  # scale ** 2 in fn must not overflow
            raise ConfigError('"scale" must be a positive number with a finite square')
        amp = _number(params, "amp", 1.0)
        # max slope of amp*exp(-r^2/s^2) is amp*sqrt(2/e)/s
        L = amp * np.sqrt(2.0 / np.e) / scale
        return FunctionField(
            kind, dim,
            lambda pts: amp * np.exp(-np.sum((pts - x0) ** 2, axis=1) / scale ** 2),
            lipschitz=float(L))

    if kind == "square":
        return FunctionField(kind, dim, lambda pts: np.sum(pts ** 2, axis=1),
                             lipschitz=2.0 * np.sqrt(dim))

    if kind == "p_additive":
        # psi(x, t) = g(x) + h(t), horizontally Lipschitz via g
        space_params = params.get("space_params", {})
        if not isinstance(space_params, dict):
            raise ConfigError('"space_params" must be an object')
        space = make_field(_choice(params, "space", "cone", EUCLIDEAN_CATALOG), dim - 1,
                           **space_params)
        h, h_lip = _TIME_PARTS[_choice(params, "time", "sin", _TIME_PARTS)]

        def fn(pts):
            return space.eval(pts[:, :-1]) + h(pts[:, -1])

        L = (space.lipschitz or 1.0) + h_lip
        return FunctionField(kind, dim, fn, lipschitz=L)

    if kind == "p_product":
        # psi(x, t) = a(t) . x + b(t) with smooth a, b
        a0 = _point(params, "a0", dim - 1, 1.0)
        a1 = _point(params, "a1", dim - 1, 0.5)
        b1 = _number(params, "b1", 1.0)

        def fn(pts):
            x, t = pts[:, :-1], pts[:, -1]
            a_t = a0[None, :] + a1[None, :] * np.sin(t)[:, None]
            return np.sum(a_t * x, axis=1) + b1 * np.cos(t)

        return FunctionField(kind, dim, fn)

    raise ConfigError(f"unknown catalog kind {kind!r}")


EUCLIDEAN_CATALOG = ("affine", "pwlinear", "cone", "distset", "bump", "square")
PARABOLIC_CATALOG = ("p_additive", "p_product")


def default_catalog(dim: int):
    """Representative Euclidean entries spanning smooth and singular cases."""
    rng = stream(17, "catalog", dim)
    entries = [
        make_field("affine", dim, a=rng.uniform(-1, 1, dim), b=rng.uniform(-1, 1)),
        make_field("cone", dim, x0=rng.uniform(0.2, 0.8, dim)),
        make_field("distset", dim, points=rng.uniform(0, 1, (3, dim))),
        make_field("bump", dim, x0=rng.uniform(0.3, 0.7, dim), scale=0.4),
        make_field("square", dim),
    ]
    if dim == 1:
        entries.append(make_field("pwlinear", dim))
    return entries


def default_parabolic_catalog(dim: int):
    entries = []
    for time in ("zero", "sin", "linear"):
        entries.append(make_field("p_additive", dim, space="cone",
                                  space_params={"x0": 0.4 * np.ones(dim - 1)}, time=time))
    entries.append(make_field("p_additive", dim, space="bump",
                              space_params={"x0": 0.5 * np.ones(dim - 1), "scale": 0.4}, time="sin"))
    entries.append(make_field("p_product", dim))
    return entries


def lipschitz_estimate(fld: FunctionField, region: Box, samples: int, seed: int,
                       parabolic: bool = False) -> float:
    """Max sampled difference quotient: random pairs plus lattice neighbours.

    Random pairs alone miss kinks, so a coarse lattice sweep is included
    and the larger of the two estimates is returned.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    rng = stream(seed, "lipschitz")
    n = region.dim
    lo, hi = region.lo_arr, region.hi

    p = lo + (hi - lo) * rng.random((samples, n))
    q = lo + (hi - lo) * rng.random((samples, n))
    if parabolic:
        dist = parabolic_distance(p, q)
    else:
        dist = np.linalg.norm(p - q, axis=1)
    keep = dist > 1e-12
    quot = np.abs(fld.eval(p[keep]) - fld.eval(q[keep])) / dist[keep]
    best = float(quot.max()) if quot.size else 0.0

    per_axis = max(3, int(round(samples ** (1.0 / n))))
    per_axis = min(per_axis, 65)
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = fld.eval(mesh.reshape(-1, n)).reshape(mesh.shape[:-1])
    for axis in range(n):
        dv = np.abs(np.diff(vals, axis=axis))
        step = axes[axis][1] - axes[axis][0]
        dd = np.sqrt(step) if (parabolic and axis == n - 1) else step
        best = max(best, float(dv.max() / dd))
    return best
