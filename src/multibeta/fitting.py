"""Best affine approximation over weighted point sets.

Every fit takes one sample set as arrays, abscissas x (N, d), values y (N,)
and positive weights w (N,), and returns its ``AffineMap``; every stacked
fit goes through ``fit_rows``, each set's map and residual size in one norm.
Every affine L2 fit, single or stacked, takes its rank decision and centered
moments from one kernel, ``_affine_moments``, so a set's map has the same
bits in a stack as alone. The kernel owns the memory layout: it reduces
C-contiguous arrays, so a strided column fits with the bits of its
contiguous copy. L2 fits solve the centered normal equations (exactly
translation-equivariant). The fit with |a| <= L is a trust-region problem:
exact multiplier by bisection on the ridge path, intercept re-optimized, on
a stack of sets whose steep rows bisect in lockstep; the one-set fit is a
stack of one. Discrete minimax starts from the L2 map ``base`` (the
caller's, if it has one): in one dimension a three-point exchange, which
runs on a stack of lines in lockstep (``fit_rows`` sends all its 1-D lines
through it at once; the one-line fit is a stack of one), else, or where the
exchange does not settle, IRLS exponent escalation and an active-set LP
polish. A rank-deficient design falls back to the minimum-norm
least-squares map in one place, ``affine_fit``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from .errors import NonConvergence, RankDeficient
from .geometry import AffineMap

RANK_TOL = 1e-12
GRAD_BISECT_TOL = 1e-10


def _arrays(x, y, w):
    """x, y and w as C-contiguous float arrays (no copy when they already are)."""
    return tuple(np.ascontiguousarray(v, dtype=float) for v in (x, y, w))


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
    x, y, w = _arrays(x, y, w)
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


def _row_norm(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of v (K, d), bit for bit: sqrt of the row's
    dot product, as norm takes it (einsum or sum(v * v) round differently)."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _l2_rows(ok, xbar, ybar, C, c):
    """(ok, a, b) of each set's L2 map from stacked _affine_moments; every row
    is not ok when the stacked solve fails on any set."""
    a, b = np.zeros(c.shape), np.zeros(len(c))
    try:
        a_ok = np.linalg.solve(C[ok], c[ok][:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return np.zeros(len(c), dtype=bool), a, b
    a[ok] = a_ok
    b[ok] = ybar[ok] - (a_ok[:, None, :] @ xbar[ok][:, :, None])[:, 0, 0]
    return ok, a, b


def fit_affine_l2_stack(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """fit_affine_l2 of each sample set in a stack: x (K, N, d), y and w (K, N).

    Returns (ok, a (K, d), b (K,)); a row is not ok where the scalar fit
    would raise RankDeficient, and every row is not ok when the stacked
    SVD or solve fails on any set.
    """
    try:
        moments = _affine_moments(x, y, w)
    except np.linalg.LinAlgError:
        K, _, d = np.shape(x)
        return np.zeros(K, dtype=bool), np.zeros((K, d)), np.zeros(K)
    return _l2_rows(*moments)


def fit_affine_l2(x, y, w) -> AffineMap:
    """Global minimizer of the weighted quadratic objective."""
    return _l2_map(*_affine_moments(x, y, w))


def fit_affine_l2_constrained_stack(x: np.ndarray, y: np.ndarray, w: np.ndarray, L: float):
    """fit_affine_l2_constrained of each sample set in a stack, with the
    ok, a, b and solve failure of fit_affine_l2_stack.

    Rows steeper than L double, then bisect, their ridge multipliers in
    lockstep, each with its own stopping test, and each step computes only
    on the rows a one-row fit takes through it: a row has the bits of its
    one-row fit, and a stack raises a floating-point error only where one
    of its rows would. LinAlgError if the SVD or eigh does not converge.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    ok, xbar, ybar, C, c = _affine_moments(x, y, w)
    ok, a, b = _l2_rows(ok, xbar, ybar, C, c)
    rows = np.flatnonzero(ok)
    S = rows[~(_row_norm(a[rows]) <= L * (1.0 + 1e-12))]
    if not S.size:
        return ok, a, b
    evals, evecs = np.linalg.eigh(C[S])
    proj = (np.swapaxes(evecs, -1, -2) @ c[S][:, :, None])[:, :, 0]

    def grad_norm(i, lam):
        return _row_norm(proj[i] / (evals[i] + lam[:, None]))

    lo, hi = np.zeros(S.size), np.maximum(_row_norm(c[S]) / L, 1e-30)
    g_hi = grad_norm(slice(None), hi)
    active = np.flatnonzero(g_hi > L)
    while active.size:
        hi[active] *= 2.0
        g_hi[active] = grad_norm(active, hi[active])
        active = active[g_hi[active] > L]
    active = np.arange(S.size)
    for _ in range(200):
        mid = 0.5 * (lo[active] + hi[active])
        g_mid = grad_norm(active, mid)
        up = g_mid > L
        lo[active[up]] = mid[up]
        hi[active[~up]], g_hi[active[~up]] = mid[~up], g_mid[~up]
        active = active[~(np.abs(g_hi[active] - L) <= GRAD_BISECT_TOL)]
        if not active.size:
            break
    aS = (evecs @ (proj / (evals + hi[:, None]))[:, :, None])[:, :, 0]
    norm = _row_norm(aS)
    aS[norm > L] *= (L / norm[norm > L])[:, None]
    a[S], b[S] = aS, ybar[S] - (aS[:, None, :] @ xbar[S][:, :, None])[:, 0, 0]
    return ok, a, b


def fit_affine_l2_constrained(x, y, w, L: float) -> AffineMap:
    """L2 fit subject to |gradient| <= L, solved exactly on the ridge path."""
    ok, a, b = fit_affine_l2_constrained_stack(
        *(np.asarray(v, dtype=float)[None] for v in (x, y, w)), L)
    if not ok[0]:
        raise RankDeficient("affine design matrix is rank deficient")
    return AffineMap(tuple(a[0]), b[0])


def fit_affine_lp(x, y, w, p: float) -> AffineMap:
    """Quasi-minimizer of the weighted L^p objective via IRLS, seeded at L2.

    Returns whichever of the IRLS iterates and the plain L2 fit has the
    smaller L^p objective, so the result never does worse than L2.
    """
    x, y, w = _arrays(x, y, w)
    amap = fit_affine_l2(x, y, w)
    W = float(w.sum())
    r = np.abs(y - amap(x))  # the residual of the current iterate
    best_map, best_obj = amap, float(w @ r ** p / W)
    scale = max(float(np.max(np.abs(y))), 1.0)
    for _ in range(40):
        if p < 2:
            wi = w * np.maximum(r, 1e-9 * scale) ** (p - 2.0)
        else:
            wi = w * (r + 1e-14 * scale) ** (p - 2.0)
        wi = wi / wi.max() if wi.max() > 0 else w
        try:
            amap = _l2_map(*_affine_moments(x, y, np.maximum(wi, 1e-300)))
        except RankDeficient:
            break
        r = np.abs(y - amap(x))
        obj = float(w @ r ** p / W)
        if obj < best_obj:
            best_map, best_obj = amap, obj
        elif abs(obj - best_obj) < 1e-15 * max(best_obj, 1e-300):
            break
    return best_map


# ---------------------------------------------------------------------------
# Discrete minimax
# ---------------------------------------------------------------------------


def _solve_rows(M: np.ndarray, rhs: np.ndarray):
    """np.linalg.solve of each system M (K, 3, 3), rhs (K, 3): (solved, sol);
    when the stacked solve finds a singular matrix, the rows are solved one
    at a time and the singular ones are not solved."""
    try:
        return np.ones(len(M), dtype=bool), np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        solved, sol = np.ones(len(M), dtype=bool), np.zeros(rhs.shape)
        for i in range(len(M)):
            try:
                sol[i] = np.linalg.solve(M[i], rhs[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return solved, sol


def _exchange_rows(x: np.ndarray, y: np.ndarray):
    """Exact minimax line through each row of 1-D data x, y (K, N) by
    three-point exchange, the rows in lockstep.

    Returns (done, a (K,), b (K,)). A row is not done where its abscissas
    coincide, a reference set is singular or it has not settled in 100
    rounds. Each round computes only on the rows still active, so a row
    has the bits, and the floating-point errors, of its one-row exchange.
    """
    K, N = x.shape
    done, a, b = np.zeros(K, dtype=bool), np.zeros(K), np.zeros(K)
    if N < 3:
        return done, a, b
    order = np.argsort(x, axis=1, kind="stable")
    x, y = np.take_along_axis(x, order, 1), np.take_along_axis(y, order, 1)
    act = np.flatnonzero(~(x[:, -1] - x[:, 0] < 1e-14 * np.maximum(1.0, np.abs(x[:, -1]))))
    x, y = x[act], y[act]
    # seed: endpoints plus the worst point of the chord, or the middle point
    # when that is an endpoint
    a0 = (y[:, -1] - y[:, 0]) / (x[:, -1] - x[:, 0])
    b0 = y[:, 0] - a0 * x[:, 0]
    j = np.argmax(np.abs(y - (a0[:, None] * x + b0[:, None])), axis=1)
    refs = np.empty((act.size, 3), dtype=np.intp)
    refs[:, 0], refs[:, 2] = 0, N - 1
    refs[:, 1] = np.where((j == 0) | (j == N - 1), 1 + (N - 2) // 2, j)
    for _ in range(100):
        if not act.size:
            break
        M = np.empty((act.size, 3, 3))
        M[:, :, 0], M[:, :, 1], M[:, :, 2] = np.take_along_axis(x, refs, 1), 1.0, (1.0, -1.0, 1.0)
        solved, sol = _solve_rows(M, np.take_along_axis(y, refs, 1))
        act, x, y, refs, sol = (v[solved] for v in (act, x, y, refs, sol))
        r = y - (sol[:, :1] * x + sol[:, 1:2])
        j = np.argmax(np.abs(r), axis=1)
        rj = r[np.arange(act.size), j]
        h = np.abs(sol[:, 2])
        settled = np.abs(rj) <= h * (1.0 + 1e-12) + 1e-15 * np.maximum(1.0, h)
        fin = act[settled]
        done[fin], a[fin], b[fin] = True, sol[settled, 0], sol[settled, 1]
        act, x, y, refs, r, j, rj = (v[~settled] for v in (act, x, y, refs, r, j, rj))
        # j replaces the reference point next to it whose residual has its
        # sign; outside the set, if the nearer end has the other sign, j
        # replaces the far end, so the signs keep alternating
        sj = np.copysign(1.0, rj)  # rj is not 0 on a row that has not settled
        rr = np.take_along_axis(r, refs, 1)
        signs = np.where(rr != 0, np.copysign(1.0, rr), (1.0, -1.0, 1.0))
        left, right = j < refs[:, 0], j > refs[:, 2]
        c = np.where(left, 0, np.where(right, 2, (j >= refs[:, 1]).astype(np.intp)))
        same = sj == signs[np.arange(act.size), c]
        pos = np.where(same, c, np.where(left, 2, np.where(right, 0, c + 1)))
        refs[np.arange(act.size), pos] = j
        refs.sort(axis=1)
    return done, a, b


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


def fit_affine_minimax(x, y, w, L: float | None = None,
                       base: AffineMap | None = None) -> AffineMap:
    """Minimize the max abs residual over affine maps (optionally |a| <= L).

    ``base`` is the samples' L2 map when the caller has it; by default it
    is ``fit_affine_l2(x, y, w)``. IRLS exponent escalation from it
    provides the warm start and the active constraint set; an exact LP on
    that set, grown cutting-plane style, polishes to the discrete optimum.
    """
    x, y, w = _arrays(x, y, w)
    base = fit_affine_l2(x, y, w) if base is None else base
    d = x.shape[1]
    r = np.abs(y - base(x))
    scale = max(float(np.max(np.abs(y))), 1.0)
    if r.max() <= 1e-13 * scale and (L is None or base.lipschitz <= L * (1 + 1e-12)):
        return base

    if d == 1 and L is None:
        done, a, b = _exchange_rows(x[None, :, 0], y[None])
        if done[0]:
            return AffineMap((a[0],), b[0])
        # duplicated abscissas or cycling: fall through to the LP path

    # IRLS with exponent escalation; r is the residual of the last iterate
    best_map, best_val, best_r = base, float(r.max()), r
    for p in (4, 8, 16, 32, 64, 128, 256):
        for _ in range(3):
            rr = r + 1e-14 * scale
            # scale to [0, 1] before powering so rr**254 cannot underflow to
            # an all-zero weight vector
            wi = w * (rr / rr.max()) ** (p - 2.0)
            wi /= wi.max()
            try:
                amap = _l2_map(*_affine_moments(x, y, np.maximum(wi, 1e-300)))
            except RankDeficient:
                break
            r = np.abs(y - amap(x))
            val = float(np.max(r))
            if val < best_val:
                best_map, best_val, best_r = amap, val, r

    # active-set LP polish
    k = max(3 * (d + 2), 8)
    subset = list(np.argsort(best_r)[-k:])
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
    return AffineMap(tuple(np.atleast_1d(a)), b)


def affine_fit(x, y, w, p: float, L: float | None = None) -> AffineMap:
    """Best affine map in the weighted Lp norm (p = 2 and inf honour |a| <= L).

    A rank-deficient design falls back to the minimum-norm least-squares map.
    """
    if L is not None and p != 2 and not math.isinf(p):
        raise ValueError(f"a gradient bound L needs p = 2 or inf, got p = {p}")
    try:
        if math.isinf(p):
            return fit_affine_minimax(x, y, w, L=L)
        if p == 2:
            return fit_affine_l2(x, y, w) if L is None else fit_affine_l2_constrained(x, y, w, L)
        return fit_affine_lp(x, y, w, p)
    except RankDeficient:
        coef, *_ = np.linalg.lstsq(_weighted_design(x, w), y * np.sqrt(w), rcond=None)
        return AffineMap(tuple(coef[:-1]), coef[-1])


def fit_rows(x, y, w, p: float, L: float | None = None):
    """affine_fit(x[k], y[k], w[k], p, L) and the size of its residual r for
    each set of a stack x (K, N, d), y and w (K, N), bit for bit.

    Returns (a (K, d), b (K,), sums (K,)): sums is w @ (r * r) at p = 2,
    w @ |r| ** p at another finite p and max |r| at p = inf. One stacked L2
    fit, bounded by L only at p = 2, is p = 2's answer and the base of each
    ok row's minimax fit at p = inf. At p = inf with d = 1 and no L, the ok
    rows take the exact-fit exit and one lockstep exchange as stacks, and
    only rows the exchange does not settle go on to fit_affine_minimax;
    every other row goes through affine_fit.
    """
    x, y, w = _arrays(x, y, w)
    ok, a, b = (fit_affine_l2_constrained_stack(x, y, w, L) if p == 2 and L is not None
                else fit_affine_l2_stack(x, y, w))
    scalar = ~ok if p == 2 else np.ones(len(x), dtype=bool)
    if math.isinf(p) and L is None and x.shape[2] == 1:
        # fit_affine_minimax's exact-fit exit and 1-D exchange on the ok rows
        # as stacks; a row the exchange does not settle takes the scalar path
        rows = np.flatnonzero(ok)
        r = np.abs(y[rows] - ((x[rows] @ a[rows, :, None])[:, :, 0] + b[rows, None]))
        scale = np.maximum(np.max(np.abs(y[rows]), axis=1), 1.0)
        rows = rows[~(r.max(axis=1) <= 1e-13 * scale)]
        done, a1, b1 = _exchange_rows(x[rows, :, 0], y[rows])
        a[rows[done], 0], b[rows[done]] = a1[done], b1[done]
        scalar = ~ok
        scalar[rows[~done]] = True
    for k in np.flatnonzero(scalar):
        amap = (fit_affine_minimax(x[k], y[k], w[k], L, base=AffineMap(tuple(a[k]), b[k]))
                if ok[k] and math.isinf(p) else affine_fit(x[k], y[k], w[k], p, L))
        a[k], b[k] = amap.a, amap.intercept
    r = np.abs(y - ((x @ a[:, :, None])[:, :, 0] + b[:, None]))
    if math.isinf(p):
        return a, b, r.max(axis=1)
    return a, b, (w[:, None, :] @ (r * r if p == 2 else r ** p)[:, :, None])[:, 0, 0]
