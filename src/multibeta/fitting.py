"""Best-affine and best-constant approximation over weighted point sets.

Every affine L2 fit, single or stacked, takes its rank decision and its
centered moments from one kernel, ``_affine_moments``, so a set's map has
the same bits in a stack as alone. L2 fits solve the centered normal
equations (which makes them exactly translation-equivariant). The
gradient-norm constrained fit treats |a| <= L as a trust-region problem:
exact multiplier found by bisection on the ridge path, intercept
re-optimized. Discrete minimax uses a three-point exchange in one
dimension and IRLS exponent escalation with an active-set LP polish
otherwise. A rank-deficient design falls back to the minimum-norm
least-squares map in one place, ``affine_fit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import NonConvergence, RankDeficient
from .geometry import AffineMap

RANK_TOL = 1e-12
GRAD_BISECT_TOL = 1e-10


@dataclass
class SampleSet:
    """Weighted samples: abscissas x (N, d), values y (N,), weights w (N,)."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 2:
            raise ValueError(f"sample abscissas must be an (N, d) array, got shape {self.x.shape}")
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.w = np.asarray(self.w, dtype=float).ravel()
        if self.x.shape[0] != self.y.size or self.y.size != self.w.size:
            raise ValueError("inconsistent sample array lengths")
        if np.any(self.w <= 0):
            raise ValueError("weights must be positive")

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def total_weight(self) -> float:
        return float(self.w.sum())


@dataclass
class AffineFit:
    """Fit result; residual_sq is the weighted mean square (L2) or the
    max abs residual (Linf)."""

    map: AffineMap
    residual_sq: float
    norm: str
    constraint: float | None = None


def _weighted_design(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The weighted affine design [x, 1] * sqrt(w), with any leading axes."""
    design = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    design[..., :-1] = x
    design[..., -1] = 1.0
    design *= np.sqrt(w)[..., None]
    return design


def _affine_moments(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Rank decision and centered moments of one weighted sample set or a stack.

    x is (..., N, d), y and w are (..., N). Returns ok (...), xbar (..., d),
    ybar (...), C (..., d, d) and c (..., d); a set fails ok where its
    design fails the relative singular-value test. Each set of a stack
    meets the reductions and BLAS kernels it meets alone, so its bits do
    not depend on the stack. LinAlgError if the SVD does not converge.
    """
    sv = np.linalg.svd(_weighted_design(x, w), compute_uv=False)
    # weights are positive, so the design is non-zero and sv[..., 0] > 0
    ok = ~(sv[..., -1] / sv[..., 0] < RANK_TOL)
    W = w.sum(axis=-1, keepdims=True)
    xbar = (w[..., None, :] @ x)[..., 0, :] / W
    ybar = (w[..., None, :] @ y[..., :, None])[..., 0, 0] / W[..., 0]
    xc = x - xbar[..., None, :]
    yc = y - ybar[..., None]
    xw = np.swapaxes(xc * w[..., None], -1, -2)
    C = xw @ xc / W[..., None]
    c = (xw @ yc[..., None])[..., 0] / W
    return ok, xbar, ybar, C, c


def _l2_map(ok, xbar, ybar, C, c) -> AffineMap:
    """The L2 map of one set from its _affine_moments; RankDeficient if none."""
    if not ok:
        raise RankDeficient("affine design matrix is rank deficient")
    try:
        a = np.linalg.solve(C, c)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("centered covariance is numerically singular") from exc
    return AffineMap(tuple(a), ybar - a @ xbar)


def _fit_affine_l2_stack(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """fit_affine_l2 of each sample set in a stack: x (K, N, d), y and w (K, N).

    Returns (ok, a (K, d), b (K,)); a row is not ok where the scalar fit
    would raise RankDeficient, and every row is not ok when the stacked
    SVD or solve fails on any set.
    """
    K, N, d = x.shape
    not_ok = np.zeros(K, dtype=bool), np.zeros((K, d)), np.zeros(K)
    try:
        ok, xbar, ybar, C, c = _affine_moments(x, y, w)
        a_ok = np.linalg.solve(C[ok], c[ok][:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return not_ok
    a = np.zeros((K, d))
    b = np.zeros(K)
    a[ok] = a_ok
    b[ok] = ybar[ok] - (a_ok[:, None, :] @ xbar[ok][:, :, None])[:, 0, 0]
    return ok, a, b


def _mean_sq_residual(samples: SampleSet, amap: AffineMap) -> float:
    r = samples.y - amap(samples.x)
    return float(samples.w @ (r * r) / samples.total_weight)


def fit_constant_l2(samples: SampleSet):
    """Weighted mean and weighted variance (the mean minimizes L2)."""
    W = samples.total_weight
    c = float(samples.w @ samples.y / W)
    res = float(samples.w @ (samples.y - c) ** 2 / W)
    return c, res


def fit_affine_l2(samples: SampleSet) -> AffineFit:
    """Global minimizer of the weighted quadratic objective."""
    amap = _l2_map(*_affine_moments(samples.x, samples.y, samples.w))
    return AffineFit(amap, _mean_sq_residual(samples, amap), "l2")


def fit_affine_l2_constrained(samples: SampleSet, L: float) -> AffineFit:
    """L2 fit subject to |gradient| <= L, solved exactly on the ridge path."""
    if L <= 0:
        raise ValueError("L must be positive")
    ok, xbar, ybar, C, c = _affine_moments(samples.x, samples.y, samples.w)
    base = _l2_map(ok, xbar, ybar, C, c)
    if base.lipschitz <= L * (1.0 + 1e-12):
        return AffineFit(base, _mean_sq_residual(samples, base), "l2", constraint=L)
    evals, evecs = np.linalg.eigh(C)
    proj = evecs.T @ c

    def grad_norm(lam):
        return float(np.linalg.norm(proj / (evals + lam)))

    lo, hi = 0.0, max(float(np.linalg.norm(c)) / L, 1e-30)
    while grad_norm(hi) > L:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if grad_norm(mid) > L:
            lo = mid
        else:
            hi = mid
        if abs(grad_norm(hi) - L) <= GRAD_BISECT_TOL:
            break
    lam = hi
    a = evecs @ (proj / (evals + lam))
    if np.linalg.norm(a) > L:
        a *= L / np.linalg.norm(a)
    b = ybar - a @ xbar
    amap = AffineMap(tuple(a), b)
    return AffineFit(amap, _mean_sq_residual(samples, amap), "l2", constraint=L)


def fit_affine_lp(samples: SampleSet, p: float) -> AffineFit:
    """Quasi-minimizer of the weighted L^p objective via IRLS, seeded at L2.

    Returns whichever of the IRLS iterates and the plain L2 fit has the
    smaller L^p objective, so the result never does worse than L2.
    """
    base = fit_affine_l2(samples)

    def objective(amap):
        r = np.abs(samples.y - amap(samples.x))
        return float(samples.w @ r ** p / samples.total_weight)

    best_map, best_obj = base.map, objective(base.map)
    amap = base.map
    scale = max(float(np.max(np.abs(samples.y))), 1.0)
    for _ in range(40):
        r = np.abs(samples.y - amap(samples.x))
        if p < 2:
            wi = samples.w * np.maximum(r, 1e-9 * scale) ** (p - 2.0)
        else:
            wi = samples.w * (r + 1e-14 * scale) ** (p - 2.0)
        wi = wi / wi.max() if wi.max() > 0 else samples.w
        try:
            amap = _l2_map(*_affine_moments(samples.x, samples.y, np.maximum(wi, 1e-300)))
        except RankDeficient:
            break
        obj = objective(amap)
        if obj < best_obj:
            best_map, best_obj = amap, obj
        elif abs(obj - best_obj) < 1e-15 * max(best_obj, 1e-300):
            break
    return AffineFit(best_map, best_obj, f"l{p:g}")


# ---------------------------------------------------------------------------
# Discrete minimax
# ---------------------------------------------------------------------------


def _exchange_1d(x: np.ndarray, y: np.ndarray):
    """Exact minimax line through 1-D data by three-point exchange."""
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    if x[-1] - x[0] < 1e-14 * max(1.0, abs(x[-1])):
        raise RankDeficient("all abscissas coincide")
    # seed: endpoints plus worst point of the chord
    a0 = (y[-1] - y[0]) / (x[-1] - x[0])
    b0 = y[0] - a0 * x[0]
    r = y - (a0 * x + b0)
    refs = sorted({0, int(np.argmax(np.abs(r))), x.size - 1})
    while len(refs) < 3:
        extra = [i for i in range(x.size) if i not in refs]
        refs = sorted(refs + [extra[len(extra) // 2]])
    for _ in range(100):
        i0, i1, i2 = refs
        M = np.array([[x[i0], 1.0, 1.0], [x[i1], 1.0, -1.0], [x[i2], 1.0, 1.0]])
        try:
            a, b, h = np.linalg.solve(M, np.array([y[i0], y[i1], y[i2]]))
        except np.linalg.LinAlgError:
            raise RankDeficient("degenerate reference set in exchange")
        r = y - (a * x + b)
        j = int(np.argmax(np.abs(r)))
        if abs(r[j]) <= abs(h) * (1.0 + 1e-12) + 1e-15 * max(1.0, abs(h)):
            return a, b, float(abs(r[j]))
        sj = math.copysign(1.0, r[j]) if r[j] != 0 else 1.0
        signs = [math.copysign(1.0, r[i]) if r[i] != 0 else s0
                 for i, s0 in zip(refs, (1.0, -1.0, 1.0))]
        if j < refs[0]:
            refs = [j, refs[1], refs[2]] if sj == signs[0] else [j, refs[0], refs[1]]
        elif j > refs[2]:
            refs = [refs[0], refs[1], j] if sj == signs[2] else [refs[1], refs[2], j]
        else:
            k = 0 if j < refs[1] else 1
            if sj == signs[k]:
                refs[k] = j
            else:
                refs[k + 1] = j
        refs = sorted(refs)
    raise NonConvergence("1-D exchange did not settle")


def _grad_constraint_rows(d: int, L: float):
    """Linear outer approximation of the gradient ball |a| <= L (512 facets in 2-D, 512 d above)."""
    if d == 1:
        U = np.array([[1.0], [-1.0]])
    elif d == 2:
        ang = 2.0 * math.pi * np.arange(512) / 512
        U = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        rng = np.random.default_rng(12345)  # fixed facet set, deterministic
        U = rng.standard_normal((512 * d, d))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
    return U, np.full(U.shape[0], L)


def _minimax_lp(x: np.ndarray, y: np.ndarray, subset, L: float | None):
    d = x.shape[1]
    xs, ys = x[subset], y[subset]
    m = xs.shape[0]
    A1 = np.hstack([xs, np.ones((m, 1)), -np.ones((m, 1))])
    A2 = np.hstack([-xs, -np.ones((m, 1)), -np.ones((m, 1))])
    A = np.vstack([A1, A2])
    b = np.concatenate([ys, -ys])
    if L is not None:
        U, lims = _grad_constraint_rows(d, L)
        A = np.vstack([A, np.hstack([U, np.zeros((U.shape[0], 2))])])
        b = np.concatenate([b, lims])
    cost = np.zeros(d + 2)
    cost[-1] = 1.0
    bounds = [(None, None)] * (d + 1) + [(0, None)]
    res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if not res.success:
        raise NonConvergence(f"minimax LP failed: {res.message}")
    return res.x[:d], float(res.x[d]), float(res.x[d + 1])


def fit_affine_minimax(samples: SampleSet, L: float | None = None) -> AffineFit:
    """Minimize the max abs residual over affine maps (optionally |a| <= L).

    IRLS exponent escalation provides the warm start and the active
    constraint set; an exact LP on that set, grown cutting-plane style,
    polishes to the discrete optimum.
    """
    base = fit_affine_l2(samples)
    return _minimax_from_l2(samples.x, samples.y, samples.w, base.map, L)


def _minimax_from_l2(x: np.ndarray, y: np.ndarray, w: np.ndarray, base: AffineMap,
                     L: float | None = None) -> AffineFit:
    """fit_affine_minimax of the samples (x, y, w) after their L2 fit ``base``."""
    d = x.shape[1]
    r = np.abs(y - base(x))
    scale = max(float(np.max(np.abs(y))), 1.0)
    if r.max() <= 1e-13 * scale and (L is None or base.lipschitz <= L * (1 + 1e-12)):
        return AffineFit(base, float(r.max()), "linf", constraint=L)

    if d == 1 and L is None:
        try:
            a, b, h = _exchange_1d(x[:, 0].copy(), y.copy())
            return AffineFit(AffineMap((a,), b), h, "linf", constraint=None)
        except (NonConvergence, RankDeficient):
            pass  # duplicated abscissas or cycling: fall through to the LP path

    # IRLS with exponent escalation
    amap = base
    best_map, best_val = amap, float(np.max(np.abs(y - base(x))))
    for p in (4, 8, 16, 32, 64, 128, 256):
        for _ in range(3):
            rr = np.abs(y - amap(x)) + 1e-14 * scale
            # scale to [0, 1] before powering so rr**254 cannot underflow to
            # an all-zero weight vector
            wi = w * (rr / rr.max()) ** (p - 2.0)
            wi /= wi.max()
            try:
                amap = _l2_map(*_affine_moments(x, y, np.maximum(wi, 1e-300)))
            except RankDeficient:
                break
            val = float(np.max(np.abs(y - amap(x))))
            if val < best_val:
                best_map, best_val = amap, val

    # active-set LP polish
    r = np.abs(y - best_map(x))
    k = max(3 * (d + 2), 8)
    subset = list(np.argsort(r)[-k:])
    a, b, mval = best_map.a, best_map.intercept, best_val
    for _ in range(60):
        a, b, mval = _minimax_lp(x, y, subset, L)
        r = np.abs(y - (x @ a + b))
        viol = np.where(r > mval * (1 + 1e-12) + 1e-12 * scale)[0]
        if viol.size == 0:
            break
        extra = viol[np.argsort(r[viol])[-k:]]
        subset = sorted(set(subset) | set(int(i) for i in extra))
    else:
        # slow growth of the active set: solve the exact LP on every point
        a, b, mval = _minimax_lp(x, y, np.arange(y.size), L)

    if L is not None and np.linalg.norm(a) > L:
        # snap inside the ball (polygonal facets can overshoot slightly)
        a = a * (L / np.linalg.norm(a))
        rr = y - x @ a
        b = 0.5 * (rr.max() + rr.min())
    amap = AffineMap(tuple(np.atleast_1d(a)), b)
    return AffineFit(amap, float(np.max(np.abs(y - amap(x)))), "linf", constraint=L)


def affine_fit(samples: SampleSet, p: float, L: float | None = None) -> AffineFit:
    """Best affine fit in the weighted Lp norm (p = 2 and inf honour |a| <= L).

    A rank-deficient design falls back to the minimum-norm least-squares
    map, scored by its max residual when p = inf.
    """
    try:
        if math.isinf(p):
            return fit_affine_minimax(samples, L=L)
        if p == 2:
            return fit_affine_l2(samples) if L is None else fit_affine_l2_constrained(samples, L)
        return fit_affine_lp(samples, p)
    except RankDeficient:
        design = _weighted_design(samples.x, samples.w)
        coef, *_ = np.linalg.lstsq(design, samples.y * np.sqrt(samples.w), rcond=None)
        amap = AffineMap(tuple(coef[:-1]), coef[-1])
        if not math.isinf(p):
            return AffineFit(amap, _mean_sq_residual(samples, amap), "l2")
        r = np.abs(samples.y - amap(samples.x))
        return AffineFit(amap, float(r.max()), "linf", constraint=L)
