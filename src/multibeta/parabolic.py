"""Coefficients for functions of space and time under the parabolic metric.

All quantities live on rectangles I1 x I2 with the last coordinate playing
time and distances measured by |x - y| + |s - t|^(1/2). Horizontal affinity
averages per-time affine fits, vertical oscillation averages per-point time
variances, and the space-only beta coefficient fits one affine map of the
spatial variables to the whole space-time cloud. The combination bound
certifies, with explicit constants, that the time-averaged affine map is as
good as the two directional quantities promise. A box is sampled as the
Euclidean box it is, by ``beta``'s midpoint sampler. Every stacked fit goes
through ``fitting.fit_rows``: a sample's time slices are one stack, and the
A and AL packing sums take each level from ``horizontal_affinity_level``
(one field call and one stack of the time slices of a block of boxes),
which matches the scalar ``horizontal_affinity`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import beta, fitting
from .beta import CarlesonReport, QuadratureSpec, midpoint_mesh
from .errors import BoundViolation, DegenerateBox
from .funcmodel import FunctionField, lipschitz_estimate
from .geometry import AffineMap, DyadicBox, ParabolicBox, parabolic_distance
from .rng import stream


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


class ParabolicSample(NamedTuple):
    """psi on a box by the midpoint rule, read by every coefficient of the box:
    spatial nodes X (Ns, n-1) and weights wx, time nodes t (Nt,) and weights
    wt, and psi on their tensor product, vals (Ns, Nt)."""
    pbox: ParabolicBox
    X: np.ndarray
    wx: np.ndarray
    t: np.ndarray
    wt: np.ndarray
    vals: np.ndarray

    @classmethod
    def of(cls, psi: FunctionField, pbox: ParabolicBox, quad: QuadratureSpec) -> ParabolicSample:
        """The midpoint grid of pbox.as_box() (time runs fastest), one field call;
        X is C-contiguous, as combine_affine_bound's X @ a_bar needs for its bits."""
        if pbox.volume <= 0:
            raise DegenerateBox("empty parabolic box")
        box, Nt = pbox.as_box(), quad.nodes
        X, y = beta.sample_grids(psi, [box.lo], box.sides, Nt)
        Ns = y.shape[1] // Nt
        return cls(pbox, np.ascontiguousarray(X[0, ::Nt, :-1]),
                   np.full(Ns, pbox.spatial.volume / Ns), X[0, :Nt, -1],
                   np.full(Nt, pbox.t_len / Nt), y[0].reshape(Ns, Nt))


def _slice_fits(X, vals, wx, L):
    """fitting.fit_rows (a, b, wx @ (r * r)) of the time slices vals[:, k] at p = 2."""
    Nt = vals.shape[1]
    return fitting.fit_rows(np.broadcast_to(X, (Nt, *X.shape)), vals.T,
                            np.broadcast_to(wx, (Nt, len(wx))), 2, L)


def _time_variance(vals, wx, wt) -> float:
    """Spatial mean of the time variance of vals at each spatial node."""
    Wt = wt.sum()
    means = vals @ wt / Wt
    return float(wx @ (((vals - means[:, None]) ** 2) @ wt / Wt) / wx.sum())


def horizontal_affinity(s: ParabolicSample, L: float | None = None) -> float:
    """Time average of per-time affine misfit of the sample, relative to the
    spatial diameter; each slice fit is L-Lipschitz when L is given."""
    return _affinity(s.pbox, s.wx, s.wt, _slice_fits(s.X, s.vals, s.wx, L)[2])


def _affinity(pbox, wx, wt, sqs) -> float:
    """horizontal_affinity of a sample of pbox with weights wx and wt from the
    weighted squared residual sum of each of its time slices."""
    W = wx.sum()
    acc = 0.0
    for k, sq in enumerate(sqs):
        acc += wt[k] * sq / W
    return math.sqrt(acc / wt.sum()) / pbox.spatial.diameter


def horizontal_affinity_level(psi: FunctionField, frontier: list, dilation: float,
                              quad: QuadratureSpec, L: float | None = None) -> list:
    """horizontal_affinity(s, L) of the sample s of each dilated box of one
    dyadic level, in order and bit for bit: PARABOLIC_SELECTORS["A"] when L
    is None, else ["AL"].

    The boxes of a level share their sides, so only the corner differs: each
    block of beta.ROW_BLOCK boxes is one beta.sample_grids call, regrouped
    into one row per time slice, and one fitting.fit_rows stack, each of
    whose rows has its scalar bits; each box sums its slices in the scalar
    order. The corners are ParabolicBox.dilate's, box by box.
    """
    pbox = frontier[0].as_parabolic_box().dilate(dilation)  # the sides of every box here
    if pbox.volume <= 0:
        raise DegenerateBox("empty parabolic box")
    Nt, Ns, values = quad.nodes, quad.nodes ** pbox.spatial.dim, []
    wx, wt = np.full(Ns, pbox.spatial.volume / Ns), np.full(Nt, pbox.t_len / Nt)
    lo = np.asarray([node.as_parabolic_box().dilate(dilation).as_box().lo for node in frontier])
    for start in range(0, len(frontier), beta.ROW_BLOCK):
        X, y = beta.sample_grids(psi, lo[start:start + beta.ROW_BLOCK], pbox.as_box().sides, Nt)
        y = y.reshape(len(X), Ns, Nt).transpose(0, 2, 1).reshape(-1, Ns)
        sqs = fitting.fit_rows(np.repeat(X[:, ::Nt, :-1], Nt, axis=0), y,
                               np.tile(wx, (len(y), 1)), 2, L)[2]
        values += [_affinity(pbox, wx, wt, sq) for sq in sqs.reshape(-1, Nt)]
    return values


def vertical_osc(s: ParabolicSample) -> float:
    """Spatial average of per-point time variance of the sample, relative to |I2|."""
    pbox, X, wx, t, wt, vals = s
    return math.sqrt(_time_variance(vals, wx, wt) / pbox.t_len)


def parabolic_beta2(s: ParabolicSample, L: float | None = None) -> float:
    """Space-only affine misfit over the sampled space-time cloud.

    Normalized by diam(Q)^(n+1) inside and diam(Q) outside, with the
    diameter taken in the parabolic metric. The fit is L-Lipschitz when L
    is given.
    """
    pbox, X, wx, t, wt, vals = s
    X = np.repeat(X, t.size, axis=0)
    y = vals.ravel()
    w = np.outer(wx, wt).ravel()
    r = y - fitting.affine_fit(X, y, w, 2, L)(X)
    diam = pbox.diameter
    return math.sqrt(float(w @ (r * r)) / diam ** (pbox.dim + 1)) / diam


def parabolic_beta_inf(s: ParabolicSample, L: float | None = None) -> float:
    """Sup version of the space-only misfit over the sample, relative to the
    parabolic diameter; the fit is L-Lipschitz when L is given."""
    pbox, X, wx, t, wt, vals = s
    # the sup over times at fixed x only sees the upper and lower envelopes
    upper = vals.max(axis=1)
    lower = vals.min(axis=1)
    Xe = np.vstack([X, X])
    ye = np.concatenate([upper, lower])
    we = np.ones(ye.size)
    amap = fitting.affine_fit(Xe, ye, we, math.inf, L)
    return float(np.max(np.abs(ye - amap(Xe)))) / pbox.diameter


def combine_affine_bound(s: ParabolicSample, L: float | None = None):
    """Time-averaged affine map of the sample with an explicit quality certificate.

    Returns (A, residual_sq, certificate) where residual_sq is the mean
    squared misfit of A over the box and the certificate carries the raw
    horizontal and vertical quantities beta_h, beta_v together with the
    bound residual_sq <= 6 beta_h + 4 beta_v. The constants come from two
    triangle-inequality splits: |psi - A|^2 <= 2|psi - A_t|^2 + 2|A_t - A|^2
    and, pointwise in x, the time mean of |A_t - A|^2 is at most the time
    variance of A_t, itself at most 2 beta_h + beta_v away from the data.
    When L is given every slice fit, hence also A, is L-Lipschitz. beta_h
    is summed apart from horizontal_affinity's sum, which rounds differently.
    """
    pbox, X, wx, t, wt, vals = s
    W = wx.sum()
    Wt = wt.sum()
    grads, icepts, sqs = _slice_fits(X, vals, wx, L)
    beta_h = 0.0
    for k, sq in enumerate(sqs):
        beta_h += wt[k] / Wt * sq / W

    a_bar = wt @ grads / Wt
    b_bar = float(wt @ icepts / Wt)
    A = AffineMap(tuple(a_bar), b_bar)
    if L is not None and A.lipschitz > L * (1.0 + 1e-12):
        raise BoundViolation("time mean of L-Lipschitz maps exceeded L")

    beta_v = _time_variance(vals, wx, wt)

    r_all = vals - (X @ a_bar)[:, None] - b_bar
    residual_sq = float(wx @ ((r_all ** 2) @ wt / Wt)) / W
    beta_h = float(beta_h)
    certificate = {
        "beta_h": beta_h,
        "beta_v": beta_v,
        "bound": 6.0 * beta_h + 4.0 * beta_v,
        "holds": bool(residual_sq <= 6.0 * beta_h + 4.0 * beta_v + 1e-10),
    }
    return A, residual_sq, certificate


def dt_carleson_quotient(s: ParabolicSample):
    """Mean squared time difference quotient of the sample, diagonal band
    handled explicitly.

    Computes (1/|Q|) int_{I1} int int_{I2 x I2} |psi(x,t)-psi(x,s)|^2/|t-s|^2
    with the band |t - s| < h (h = time quadrature step) excluded and each
    excluded cell replaced by its nearest off-diagonal value. Returns
    (value, band) where band is the replaced-band contribution contained in
    value.
    """
    pbox, X, wx, t, wt, vals = s
    Nt = t.size
    h = pbox.t_len / Nt
    diff_t = t[:, None] - t[None, :]
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
                      L: float | None = None) -> dict:
    """Every coefficient of pbox from one sample of psi, keyed by its
    parabolic_coefficients.csv column, in column order; the L columns are
    None when L is None."""
    s = ParabolicSample.of(psi, pbox, quad)
    dt_val, dt_band = dt_carleson_quotient(s)
    return {
        "affinity": horizontal_affinity(s),
        "osc": vertical_osc(s),
        "beta2": parabolic_beta2(s),
        "beta_inf": parabolic_beta_inf(s),
        "affinity_L": None if L is None else horizontal_affinity(s, L),
        "beta2_L": None if L is None else parabolic_beta2(s, L),
        "beta_inf_L": None if L is None else parabolic_beta_inf(s, L),
        "dt_quotient": dt_val,
        "dt_band": dt_band,
    }


# name -> (coefficient of the sample of a dilated box, power as a function
# of the space-time dimension n, needs L). Entries call the coefficient
# functions through their module-level names, as beta.SELECTORS does.
PARABOLIC_SELECTORS = {
    "beta2": (lambda s, L: parabolic_beta2(s), lambda n: 2.0, False),
    "beta2L": (lambda s, L: parabolic_beta2(s, L), lambda n: 2.0, True),
    "A": (lambda s, L: horizontal_affinity(s), lambda n: 2.0, False),
    "AL": (lambda s, L: horizontal_affinity(s, L), lambda n: 2.0, True),
    "osc": (lambda s, L: vertical_osc(s), lambda n: 2.0, False),
    "betainf": (lambda s, L: parabolic_beta_inf(s), lambda n: float(n + 3), False),
}


def parabolic_carleson_sum(psi: FunctionField, root: DyadicBox,
                           dilation: float, depth: int, selector: str,
                           quad: QuadratureSpec,
                           L: float | None = None) -> CarlesonReport:
    """Sum selector(CQ)^power |Q| over the parabolic dyadic tree below root;
    A and AL take their values a level at a time from horizontal_affinity_level."""
    if selector not in PARABOLIC_SELECTORS:
        raise ValueError(f"unknown parabolic selector {selector!r}")
    coefficient, power_of, needs_L = PARABOLIC_SELECTORS[selector]
    if needs_L and L is None:
        raise ValueError(f"selector {selector!r} needs L")
    power = power_of(len(root.index))
    Lhat = psi.lipschitz
    if Lhat is None:
        Lhat = lipschitz_estimate(psi, root.as_parabolic_box().dilate(dilation).as_box(),
                                  4096, quad.seed, parabolic=True)
    if selector in ("A", "AL"):
        def values(frontier):
            return horizontal_affinity_level(psi, frontier, dilation, quad,
                                             L if needs_L else None)
    else:
        def values(frontier):
            return [coefficient(ParabolicSample.of(
                psi, node.as_parabolic_box().dilate(dilation), quad), L) for node in frontier]
    return CarlesonReport.walk(selector, power, Lhat, root.volume, root, depth, values,
                               lambda v: v ** power)


@dataclass
class HolderReport:
    exponent: float
    ratios: list               # per box, beta_inf^L / (beta_2^L of the doubled box)^(2/(n+3))
    c_hold: float              # smallest constant making every ratio pass
    violations: list           # ratios exceeding the supplied constant


def holder_exponent_check(psi: FunctionField, boxes, L: float,
                          quad: QuadratureSpec,
                          c_hold: float | None = None) -> HolderReport:
    """Sup coefficient against the doubled-box L2 coefficient at the n+3 exponent."""
    if L < 1:
        raise ValueError("L must be >= 1")
    ratios = []
    exponent = None
    for pbox in boxes:
        exponent = 2.0 / (pbox.dim + 3)
        b2 = parabolic_beta2(ParabolicSample.of(psi, pbox.dilate(2.0), quad), L)
        binf = parabolic_beta_inf(ParabolicSample.of(psi, pbox, quad), L)
        ratios.append(binf / b2 ** exponent if b2 > 1e-14
                      else (0.0 if binf <= 1e-12 else math.inf))
    fitted = max((r for r in ratios if math.isfinite(r)), default=0.0)
    violations = [] if c_hold is None else [r for r in ratios if r > c_hold]
    return HolderReport(exponent if exponent is not None else 0.0, ratios, fitted, violations)


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
    a = fitting.affine_fit(Xs, ys, np.ones(Xs.shape[0]), 2).a

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
