"""Coefficients for functions of space and time under the parabolic metric.

All quantities live on rectangles I1 x I2 with the last coordinate playing
time and distances measured by |x - y| + |s - t|^(1/2). Horizontal affinity
averages per-time affine fits, vertical oscillation averages per-point time
variances, and the space-only beta coefficient fits one affine map of the
spatial variables to the whole space-time cloud. The combination bound
certifies, with explicit constants, that the time-averaged affine map is as
good as the two directional quantities promise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fitting
from .beta import CarlesonReport, QuadratureSpec, midpoint_grid, midpoint_mesh, midpoint_nodes
from .errors import BoundViolation, DegenerateBox
from .funcmodel import FunctionField, lipschitz_estimate
from .geometry import (AffineMap, DyadicParabolicBox, ParabolicBox, dyadic_levels,
                       parabolic_distance)
from .rng import stream


@dataclass
class ParabolicCoefficients:
    box: ParabolicBox
    affinity: float            # horizontal affinity A(Q)
    osc: float                 # vertical oscillation osc(Q)
    beta2: float
    beta_inf: float
    affinity_L: float | None = None
    beta2_L: float | None = None
    beta_inf_L: float | None = None
    dt_quotient: float | None = None
    dt_band: float | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class DifferentiabilityProbe:
    point: tuple
    gradient: tuple            # horizontal linear map at the base point
    radii: list
    eps: list                  # sampled sup quotient per radius
    slope: float               # log-log decay rate estimate

    def __post_init__(self):
        self.point = tuple(float(v) for v in self.point)
        self.gradient = tuple(float(v) for v in self.gradient)


def _space_time_nodes(pbox: ParabolicBox, quad: QuadratureSpec):
    """Midpoint nodes: X (Ns, n-1) spatial, t (Nt,), per-cell weights."""
    if pbox.volume <= 0:
        raise DegenerateBox("empty parabolic box")
    X, wx = midpoint_grid(pbox.spatial, quad.nodes)
    t = midpoint_nodes(pbox.t0, pbox.t_len, quad.nodes)
    return X, wx, t, np.full(quad.nodes, pbox.t_len / quad.nodes)


def _values(psi: FunctionField, X, t):
    """psi on the tensor product of spatial nodes and time nodes, (Ns, Nt)."""
    Ns, Nt = X.shape[0], t.shape[0]
    pts = np.concatenate(
        [np.repeat(X, Nt, axis=0), np.tile(t, Ns)[:, None]], axis=1)
    return psi.eval(pts).reshape(Ns, Nt)


def _slice_fits(X, vals, wx, L):
    """(map, weighted squared residual sum) of the L2 fit of each time slice vals[:, k]."""
    out = []
    for k in range(vals.shape[1]):
        fit = fitting.affine_fit(fitting.SampleSet(X, vals[:, k], wx), 2, L)
        r = vals[:, k] - fit.map(X)
        out.append((fit.map, float(wx @ (r * r))))
    return out


def horizontal_affinity(psi: FunctionField, pbox: ParabolicBox,
                        quad: QuadratureSpec, L: float | None = None) -> float:
    """Time average of per-time affine misfit, relative to the spatial diameter."""
    X, wx, t, wt = _space_time_nodes(pbox, quad)
    vals = _values(psi, X, t)
    d1 = pbox.spatial.diameter
    W = wx.sum()
    acc = 0.0
    for k, (_, sq) in enumerate(_slice_fits(X, vals, wx, L)):
        acc += wt[k] * sq / W
    return math.sqrt(acc / wt.sum()) / d1


def vertical_osc(psi: FunctionField, pbox: ParabolicBox, quad: QuadratureSpec) -> float:
    """Spatial average of per-point time variance, relative to |I2|."""
    X, wx, t, wt = _space_time_nodes(pbox, quad)
    vals = _values(psi, X, t)
    means = vals @ wt / wt.sum()
    var = ((vals - means[:, None]) ** 2) @ wt / wt.sum()
    return math.sqrt(float(wx @ var) / wx.sum() / pbox.t_len)


def _cloud(pbox, quad, psi):
    X, wx, t, wt = _space_time_nodes(pbox, quad)
    vals = _values(psi, X, t)
    Ns, Nt = vals.shape
    Xrep = np.repeat(X, Nt, axis=0)
    w = np.outer(wx, wt).ravel()
    return Xrep, vals.ravel(), w


def parabolic_beta2(psi: FunctionField, pbox: ParabolicBox, quad: QuadratureSpec,
                    L: float | None = None) -> float:
    """Space-only affine misfit over the space-time cloud.

    Normalized by diam(Q)^(n+1) inside and diam(Q) outside, with the
    diameter taken in the parabolic metric.
    """
    X, y, w = _cloud(pbox, quad, psi)
    fit = fitting.affine_fit(fitting.SampleSet(X, y, w), 2, L)
    r = y - fit.map(X)
    diam = pbox.diameter
    return math.sqrt(float(w @ (r * r)) / diam ** (pbox.dim + 1)) / diam


def parabolic_beta_inf(psi: FunctionField, pbox: ParabolicBox, quad: QuadratureSpec,
                       L: float | None = None) -> float:
    """Sup version of the space-only misfit, relative to the parabolic diameter."""
    X, wx, t, wt = _space_time_nodes(pbox, quad)
    vals = _values(psi, X, t)
    # the sup over times at fixed x only sees the upper and lower envelopes
    upper = vals.max(axis=1)
    lower = vals.min(axis=1)
    Xe = np.vstack([X, X])
    ye = np.concatenate([upper, lower])
    we = np.ones(ye.size)
    fit = fitting.affine_fit(fitting.SampleSet(Xe, ye, we), math.inf, L)
    r = ye - fit.map(Xe)
    return float(np.max(np.abs(r))) / pbox.diameter


def combine_affine_bound(psi: FunctionField, pbox: ParabolicBox, quad: QuadratureSpec,
                         L: float | None = None):
    """Time-averaged affine map with an explicit quality certificate.

    Returns (A, residual_sq, certificate) where residual_sq is the mean
    squared misfit of A over the box and the certificate carries the raw
    horizontal and vertical quantities beta_h, beta_v together with the
    bound residual_sq <= 6 beta_h + 4 beta_v. The constants come from two
    triangle-inequality splits: |psi - A|^2 <= 2|psi - A_t|^2 + 2|A_t - A|^2
    and, pointwise in x, the time mean of |A_t - A|^2 is at most the time
    variance of A_t, itself at most 2 beta_h + beta_v away from the data.
    When L is given every slice fit, hence also A, is L-Lipschitz.
    """
    X, wx, t, wt = _space_time_nodes(pbox, quad)
    vals = _values(psi, X, t)
    W = wx.sum()
    Wt = wt.sum()
    grads = np.zeros((t.size, X.shape[1]))
    icepts = np.zeros(t.size)
    beta_h = 0.0
    for k, (amap, sq) in enumerate(_slice_fits(X, vals, wx, L)):
        grads[k] = amap.a
        icepts[k] = amap.intercept
        beta_h += wt[k] / Wt * sq / W

    a_bar = wt @ grads / Wt
    b_bar = float(wt @ icepts / Wt)
    A = AffineMap(tuple(a_bar), b_bar)
    if L is not None and A.lipschitz > L * (1.0 + 1e-12):
        raise BoundViolation("time mean of L-Lipschitz maps exceeded L")

    means = vals @ wt / Wt
    beta_v = float(wx @ (((vals - means[:, None]) ** 2) @ wt / Wt)) / W

    r_all = vals - (X @ a_bar)[:, None] - b_bar
    residual_sq = float(wx @ ((r_all ** 2) @ wt / Wt)) / W
    beta_h, beta_v = float(beta_h), float(beta_v)
    certificate = {
        "beta_h": beta_h,
        "beta_v": beta_v,
        "bound": 6.0 * beta_h + 4.0 * beta_v,
        "holds": bool(residual_sq <= 6.0 * beta_h + 4.0 * beta_v + 1e-10),
    }
    return A, residual_sq, certificate


def dt_carleson_quotient(psi: FunctionField, pbox: ParabolicBox, quad: QuadratureSpec):
    """Mean squared time difference quotient, diagonal band handled explicitly.

    Computes (1/|Q|) int_{I1} int int_{I2 x I2} |psi(x,t)-psi(x,s)|^2/|t-s|^2
    with the band |t - s| < h (h = time quadrature step) excluded and each
    excluded cell replaced by its nearest off-diagonal value. Returns
    (value, band) where band is the replaced-band contribution contained in
    value.
    """
    X, wx, t, wt = _space_time_nodes(pbox, quad)
    vals = _values(psi, X, t)
    Nt = t.size
    h = pbox.t_len / Nt
    diff_t = t[:, None] - t[None, :]
    quot = np.zeros((X.shape[0], Nt, Nt))
    off = np.abs(diff_t) >= h * (1.0 - 1e-12)
    dv = vals[:, :, None] - vals[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = np.where(off[None, :, :], (dv / diff_t[None, :, :]) ** 2, 0.0)
    # extend onto the diagonal from the nearest off-diagonal neighbour
    band = np.zeros_like(quot)
    for k in range(Nt):
        nb = k + 1 if k + 1 < Nt else k - 1
        band[:, k, k] = quot[:, k, nb]
    wtt = np.outer(wt, wt)
    total = float(wx @ ((quot + band) * wtt[None, :, :]).sum(axis=(1, 2)))
    band_part = float(wx @ (band * wtt[None, :, :]).sum(axis=(1, 2)))
    vol = pbox.volume
    return total / vol, band_part / vol


def coefficient_table(psi: FunctionField, pbox: ParabolicBox, quad: QuadratureSpec,
                      L: float | None = None) -> ParabolicCoefficients:
    dt_val, dt_band = dt_carleson_quotient(psi, pbox, quad)
    return ParabolicCoefficients(
        box=pbox,
        affinity=horizontal_affinity(psi, pbox, quad),
        osc=vertical_osc(psi, pbox, quad),
        beta2=parabolic_beta2(psi, pbox, quad),
        beta_inf=parabolic_beta_inf(psi, pbox, quad),
        affinity_L=None if L is None else horizontal_affinity(psi, pbox, quad, L),
        beta2_L=None if L is None else parabolic_beta2(psi, pbox, quad, L),
        beta_inf_L=None if L is None else parabolic_beta_inf(psi, pbox, quad, L),
        dt_quotient=dt_val,
        dt_band=dt_band,
        meta={"nodes": quad.nodes, "L": L},
    )


# name -> (coefficient of a dilated box, power as a function of the
# space-time dimension n, needs L). Entries call the coefficient functions
# through their module-level names, as beta.SELECTORS does.
PARABOLIC_SELECTORS = {
    "beta2": (lambda psi, pbox, quad, L: parabolic_beta2(psi, pbox, quad),
              lambda n: 2.0, False),
    "beta2L": (lambda psi, pbox, quad, L: parabolic_beta2(psi, pbox, quad, L),
               lambda n: 2.0, True),
    "A": (lambda psi, pbox, quad, L: horizontal_affinity(psi, pbox, quad),
          lambda n: 2.0, False),
    "AL": (lambda psi, pbox, quad, L: horizontal_affinity(psi, pbox, quad, L),
           lambda n: 2.0, True),
    "osc": (lambda psi, pbox, quad, L: vertical_osc(psi, pbox, quad),
            lambda n: 2.0, False),
    "betainf": (lambda psi, pbox, quad, L: parabolic_beta_inf(psi, pbox, quad),
                lambda n: float(n + 3), False),
}


def parabolic_carleson_sum(psi: FunctionField, root: DyadicParabolicBox,
                           dilation: float, depth: int, selector: str,
                           quad: QuadratureSpec,
                           L: float | None = None) -> CarlesonReport:
    """Sum selector(CQ)^power |Q| over the parabolic dyadic tree below root."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if selector not in PARABOLIC_SELECTORS:
        raise ValueError(f"unknown parabolic selector {selector!r}")
    coefficient, power_of, needs_L = PARABOLIC_SELECTORS[selector]
    if needs_L and L is None:
        raise ValueError(f"selector {selector!r} needs L")
    power = power_of(root.spatial_dim + 1)
    root_pbox = root.as_parabolic_box()
    Lhat = psi.lipschitz
    if Lhat is None:
        Lhat = lipschitz_estimate(psi, root_pbox.dilate(dilation).as_box(),
                                  4096, quad.seed, parabolic=True)
    walk = []
    for frontier in dyadic_levels(root, depth):
        vals = [coefficient(psi, node.as_parabolic_box().dilate(dilation), quad, L)
                for node in frontier]
        walk.append([(node, v, v ** power * node.volume) for node, v in zip(frontier, vals)])
    return CarlesonReport.tally(selector, dilation, power, Lhat, root.volume, walk)


@dataclass
class HolderEntry:
    box: ParabolicBox
    beta2_double: float        # L-restricted value on the doubled box
    beta_inf: float            # L-restricted sup value on the box itself
    ratio: float               # beta_inf / beta2_double^(2/(n+3))


@dataclass
class HolderReport:
    exponent: float
    entries: list
    c_hold: float              # smallest constant making every entry pass
    violations: list           # entries exceeding the supplied constant


def holder_exponent_check(psi: FunctionField, boxes, L: float,
                          quad: QuadratureSpec,
                          c_hold: float | None = None) -> HolderReport:
    """Sup coefficient against the doubled-box L2 coefficient at the n+3 exponent."""
    if L < 1:
        raise ValueError("L must be >= 1")
    entries = []
    exponent = None
    for pbox in boxes:
        exponent = 2.0 / (pbox.dim + 3)
        b2 = parabolic_beta2(psi, pbox.dilate(2.0), quad, L)
        binf = parabolic_beta_inf(psi, pbox, quad, L)
        ratio = binf / b2 ** exponent if b2 > 1e-14 else (0.0 if binf <= 1e-12 else math.inf)
        entries.append(HolderEntry(pbox, b2, binf, ratio))
    fitted = max((e.ratio for e in entries if math.isfinite(e.ratio)), default=0.0)
    violations = [] if c_hold is None else [e for e in entries if e.ratio > c_hold]
    return HolderReport(exponent if exponent is not None else 0.0, entries, fitted, violations)


def rademacher_probe(psi: FunctionField, p, radii, quad: QuadratureSpec) -> DifferentiabilityProbe:
    """Pointwise differentiability probe in the parabolic metric.

    Fits the horizontal linear map on the time slice through the base point
    at the smallest radius, then reports the sampled sup of
    |psi(q) - psi(p) - A_p(y - x)| / d(p, q) over shells d(p, q) <= r,
    stratified between horizontal, vertical and mixed displacements, and
    the log-log slope of that sup against r.
    """
    p = np.asarray(p, dtype=float)
    radii = [float(r) for r in radii]
    if not radii or any(r <= 0 for r in radii) or any(a <= b for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be positive and strictly decreasing")
    n_space = p.size - 1
    x0, t0 = p[:-1], p[-1]
    f_p = psi.eval(p)

    r_fit = radii[-1]
    Xs = midpoint_mesh(x0 - r_fit, 2.0 * r_fit, quad.nodes)
    ys = psi.eval(np.concatenate([Xs, np.full((Xs.shape[0], 1), t0)], axis=1))
    fit = fitting.affine_fit(fitting.SampleSet(Xs, ys, np.ones(Xs.shape[0])), 2)
    a = fit.map.a

    eps_vals = []
    for i, r in enumerate(radii):
        rng = stream(quad.seed, "probe", i, round(r, 12))
        per = 64  # displacements of each of the four kinds below
        qs = []
        # horizontal displacements
        u = rng.standard_normal((per, n_space))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rho = r * rng.uniform(0.1, 1.0, per)[:, None]
        qs.append(np.concatenate([x0 + u * rho, np.full((per, 1), t0)], axis=1))
        # vertical displacements
        dt = (r ** 2) * rng.uniform(0.01, 1.0, per) * rng.choice([-1.0, 1.0], per)
        qs.append(np.concatenate([np.tile(x0, (per, 1)), (t0 + dt)[:, None]], axis=1))
        # mixed displacements, two independent batches
        for _ in range(2):
            u = rng.standard_normal((per, n_space))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            rho = 0.5 * r * rng.uniform(0.0, 1.0, per)[:, None]
            dt = (0.5 * r) ** 2 * rng.uniform(0.0, 1.0, per) * rng.choice([-1.0, 1.0], per)
            qs.append(np.concatenate([x0 + u * rho, (t0 + dt)[:, None]], axis=1))
        Q = np.vstack(qs)
        d = parabolic_distance(Q, p)
        keep = (d > 1e-12) & (d <= r)
        Q, d = Q[keep], d[keep]
        num = np.abs(psi.eval(Q) - f_p - (Q[:, :-1] - x0) @ a)
        eps_vals.append(float(np.max(num / d)) if d.size else 0.0)

    pos = [(r, e) for r, e in zip(radii, eps_vals) if e > 1e-300]
    if len(pos) >= 2:
        lr = np.log([r for r, _ in pos])
        le = np.log([e for _, e in pos])
        slope = float(np.polyfit(lr, le, 1)[0])
    else:
        slope = 0.0
    return DifferentiabilityProbe(tuple(p), tuple(a), radii, eps_vals, slope)
