"""Best affine approximation over weighted point sets.

There is one fit, ``fit_rows``: for each sample set of a stack, abscissas
x (K, N, d), values y and positive weights w (K, N), its best affine map in
one weighted norm and the size of its residual. ``affine_fit`` is its
one-row face, one set's ``AffineMap``. Every affine L2 fit, a set's own or
an IRLS step, takes its rank decision and centered moments from one kernel,
``_affine_moments``, so a set's map has the same bits in a stack as alone.
The kernel owns the memory layout: it reduces C-contiguous arrays, so a
strided column fits with the bits of its contiguous copy. L2 fits solve the
centered normal equations (exactly translation-equivariant); a stacked
solve that meets a singular matrix is solved again row by row. The fit with
|a| <= L is a trust-region problem: exact multiplier by bisection on the
ridge path, intercept re-optimized, the steep rows bisecting in lockstep.
The Lp fit is IRLS from the L2 map, every row's steps in lockstep
(``_lp_rows``). Discrete minimax starts from the L2 map: the exact-fit
exit, then in one dimension a three-point exchange, run in lockstep; else,
or where the exchange does not settle, IRLS exponent escalation in lockstep
(``_escalate_rows``) and an active-set LP polish, one set at a time. A
lockstep step computes only on the rows still in it, so each row keeps the
bits and floating-point errors of its one-row fit. The polish solves each
LP through ``linprog``, the package's one LP entry point (HiGHS through
scipy's ``milp``); scipy's solver is imported at the first LP, not with the
package. A set whose design is rank deficient gets the minimum-norm
least-squares map, in ``fit_rows``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NonConvergence
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
    ybar (...), C (..., d, d) and c (..., d); a set fails ok where it has
    N <= d points or its design fails the relative singular-value test (with
    N <= d the design has only N singular values, and its last can pass
    while the affine map is not unique). Each set of a stack
    meets the reductions and BLAS kernels it meets alone, so its bits do
    not depend on the stack. LinAlgError if the SVD does not converge.
    """
    x, y, w = _arrays(x, y, w)
    sv = np.linalg.svd(_weighted_design(x, w), compute_uv=False)
    # weights are positive, so the design is non-zero and sv[..., 0] > 0
    ok = ~(sv[..., -1] / sv[..., 0] < RANK_TOL) & (x.shape[-2] > x.shape[-1])
    W = w.sum(axis=-1, keepdims=True)
    xbar = (w[..., None, :] @ x)[..., 0, :] / W
    ybar = (w[..., None, :] @ y[..., :, None])[..., 0, 0] / W[..., 0]
    xc = x - xbar[..., None, :]
    yc = y - ybar[..., None]
    xw = np.swapaxes(xc * w[..., None], -1, -2)
    C = xw @ xc / W[..., None]
    c = (xw @ yc[..., None])[..., 0] / W
    return ok, xbar, ybar, C, c


def _row_norm(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of v (K, d), bit for bit: sqrt of the row's
    dot product, as norm takes it (einsum or sum(v * v) round differently)."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _keep(mask: np.ndarray, *arrays):
    """The rows of each array where mask holds; the arrays themselves, not
    copies, when it holds everywhere."""
    return arrays if np.count_nonzero(mask) == len(mask) else tuple(v[mask] for v in arrays)


def _solve_rows(M: np.ndarray, rhs: np.ndarray):
    """np.linalg.solve of each system M (K, m, m), rhs (K, m): (solved, sol);
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


def _solved_maps(ok, xbar, ybar, C, c):
    """The L2 map of each ok set from its stacked _affine_moments, as (ok, a,
    b) with a and b for the rows still ok; a row whose centered covariance
    is singular is not ok, and a singular stacked solve is solved again row
    by row."""
    xbar, ybar, C, c = _keep(ok, xbar, ybar, C, c)
    solved, a = _solve_rows(C, c)
    if np.count_nonzero(solved) < len(solved):
        ok[np.flatnonzero(ok)[~solved]] = False
        xbar, ybar, a = xbar[solved], ybar[solved], a[solved]
    return ok, a, ybar - (a[:, None, :] @ xbar[:, :, None])[:, 0, 0]


def _l2_rows(x: np.ndarray, y: np.ndarray, w: np.ndarray, L: float | None):
    """(ok, a (K, d), b (K,)): the L2 map of each sample set of a stack, with
    |a| <= L where L is given; a row is not ok where its design fails the
    rank test or its centered covariance is singular.

    Rows steeper than L double, then bisect, their ridge multipliers in
    lockstep, each with its own stopping test, and each step computes only
    on the rows a one-row fit takes through it: a row has the bits of its
    one-row fit, and a stack raises a floating-point error only where one
    of its rows would. LinAlgError if the SVD or eigh does not converge.
    """
    if L is not None and L <= 0:
        raise ValueError("L must be positive")
    ok, xbar, ybar, C, c = _affine_moments(x, y, w)
    ok, a_ok, b_ok = _solved_maps(ok, xbar, ybar, C, c)
    if ok.all():
        a, b = a_ok, b_ok
    else:
        a, b = np.zeros(c.shape), np.zeros(len(c))
        a[ok], b[ok] = a_ok, b_ok
    if L is None:
        return ok, a, b
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


def _residuals(x: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|y - A(x)| of each row's map A = (a, b): AffineMap's expression with a
    leading stack axis, so each row has its one-map bits."""
    return np.abs(y - ((x @ a[:, :, None])[:, :, 0] + b[:, None]))


def _step_maps(x: np.ndarray, y: np.ndarray, wi: np.ndarray):
    """One IRLS step: _solved_maps of each row under the weights wi."""
    return _solved_maps(*_affine_moments(x, y, np.maximum(wi, 1e-300)))


def _lp_rows(x: np.ndarray, y: np.ndarray, w: np.ndarray, a: np.ndarray, b: np.ndarray,
             p: float):
    """The Lp map of each set of a stack x (K, N, d), y and w (K, N) by IRLS
    from its L2 map (a, b): every row's 40 IRLS steps in lockstep.

    A row leaves the stack where its objective stops moving or its step is
    rank deficient. Each step computes only on the rows still in it, and on
    the stack itself while every row is, so a row has the bits, and the
    floating-point errors, of its one-row fit. Returns (a, b), the iterate
    of each row with the smallest Lp objective, the L2 map included, so the
    fit never does worse than L2.
    """
    W = w.sum(axis=1)
    r = _residuals(x, y, a, b)
    best = (w[:, None, :] @ (r ** p)[:, :, None])[:, 0, 0] / W
    a, b = a.copy(), b.copy()
    floor = (1e-9 if p < 2 else 1e-14) * np.maximum(np.max(np.abs(y), axis=1), 1.0)[:, None]
    live = np.arange(len(x))
    for _ in range(40):
        if not live.size:
            break
        wi = w * (np.maximum(r, floor) if p < 2 else r + floor) ** (p - 2.0)
        top = wi.max(axis=1)
        pos = top > 0
        if np.count_nonzero(pos) == len(pos):
            wi = wi / top[:, None]
        else:
            wi[pos] = wi[pos] / top[pos, None]
            wi[~pos] = w[~pos]
        ok, a1, b1 = _step_maps(x, y, wi)
        live, x, y, w, W, floor = _keep(ok, live, x, y, w, W, floor)
        r = _residuals(x, y, a1, b1)
        obj = (w[:, None, :] @ (r ** p)[:, :, None])[:, 0, 0] / W
        held = best[live]
        better = obj < held
        if np.count_nonzero(better):
            won = live[better]
            a[won], b[won], best[won] = a1[better], b1[better], obj[better]
        go = better | ~(np.abs(obj - held) < 1e-15 * np.maximum(held, 1e-300))
        live, x, y, w, W, floor, r = _keep(go, live, x, y, w, W, floor, r)
    return a, b


# ---------------------------------------------------------------------------
# Discrete minimax
# ---------------------------------------------------------------------------


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


def linprog(cost: np.ndarray, A, ub: np.ndarray, n_free: int) -> np.ndarray:
    """The x minimizing cost @ x subject to A @ x <= ub, x[:n_free] free and
    x[n_free:] >= 0; A is a scipy sparse CSC array.

    HiGHS solves it through scipy's ``milp`` with no integrality. Every LP of
    the package goes through this name, which perfbench's tracer hooks to
    count LP solves and time them (``fitting.linprog_calls`` and
    ``linprog_total_s``). NonConvergence, with HiGHS's message, unless
    HiGHS reports an optimum.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    lo = np.zeros(len(cost))
    lo[:n_free] = -np.inf
    with warnings.catch_warnings():
        # with its log output on, as milp leaves it, HiGHS can return another
        # optimal vertex of a degenerate LP than with it off; milp passes
        # output_flag, an option it does not name, to HiGHS with a warning
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(cost, constraints=LinearConstraint(A, -np.inf, ub),
                   bounds=Bounds(lo, np.inf), options={"output_flag": False})
    if res.status != 0:
        raise NonConvergence(f"LP failed: {res.message}")
    return res.x


def _minimax_lp(x: np.ndarray, y: np.ndarray, subset, L: float | None):
    from scipy.sparse import csc_array

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
    sol = linprog(cost, csc_array(A), b, d + 1)
    return sol[:d], float(sol[d]), float(sol[d + 1])


def _escalate_rows(x: np.ndarray, y: np.ndarray, w: np.ndarray, r: np.ndarray,
                   scale: np.ndarray) -> np.ndarray:
    """The minimax fit's IRLS exponent escalation for each set of a stack
    x (K, N, d), y and w (K, N) from the residual r of its L2 map, which it
    overwrites: the residual of each row's best iterate, the L2 map included.

    Every row runs 3 steps at each exponent 4, 8, ..., 256 in lockstep, and
    leaves an exponent at a rank-deficient step, keeping its last iterate
    for the next. Each step computes only on the rows still in it, and on
    the stack itself while every row is, so a row has the bits, and the
    floating-point errors, of its one-row fit.
    """
    best, best_r = r.max(axis=1), r.copy()
    floor = 1e-14 * scale[:, None]
    for p in (4, 8, 16, 32, 64, 128, 256):
        # live is a slice while every row is in the exponent, so the step
        # indexes no row and copies nothing
        live, xs, ys, ws, rs, fl = slice(None), x, y, w, r, floor
        for _ in range(3):
            rr = rs + fl
            # scale to [0, 1] before powering so rr**254 cannot underflow to
            # an all-zero weight vector
            wi = ws * (rr / rr.max(axis=1, keepdims=True)) ** (p - 2.0)
            wi /= wi.max(axis=1, keepdims=True)
            ok, a, b = _step_maps(xs, ys, wi)
            if np.count_nonzero(ok) < len(ok):
                live = np.arange(len(x))[live][ok]
                if not live.size:
                    break
                xs, ys, ws, fl = xs[ok], ys[ok], ws[ok], fl[ok]
            rs = _residuals(xs, ys, a, b)
            r[live] = rs
            val = rs.max(axis=1)
            better = val < best[live]
            if np.count_nonzero(better):
                won = better if isinstance(live, slice) else live[better]
                best[won], best_r[won] = val[better], rs[better]
    return best_r


def _polish(x: np.ndarray, y: np.ndarray, r: np.ndarray, L: float | None, scale):
    """The discrete minimax map (a, b) of one set by the active-set LP,
    started from the points where the residual r is largest."""
    d = x.shape[1]
    k = max(3 * (d + 2), 8)
    subset = list(np.argsort(r)[-k:])
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
    return a, b


def _minimax_rows(x: np.ndarray, y: np.ndarray, w: np.ndarray, a: np.ndarray, b: np.ndarray,
                  L: float | None):
    """The discrete minimax map (a, b) of each set of a stack x (K, N, d), y
    and w (K, N), with |a| <= L where L is given, from its L2 map (a, b).

    A row whose L2 map fits exactly (and within L) keeps it; in one
    dimension with no L the other rows take the lockstep exchange; the rest
    run the lockstep exponent escalation, then the active-set LP polish one
    row at a time.
    """
    r = _residuals(x, y, a, b)
    scale = np.maximum(np.max(np.abs(y), axis=1), 1.0)
    fit = ~(r.max(axis=1) <= 1e-13 * scale)
    if L is not None:
        near = np.flatnonzero(~fit)
        fit[near[~(_row_norm(a[near]) <= L * (1 + 1e-12))]] = True
    a, b = a.copy(), b.copy()
    if x.shape[2] == 1 and L is None and fit.any():
        rows = np.flatnonzero(fit)
        done, a1, b1 = _exchange_rows(x[rows, :, 0], y[rows])
        a[rows[done], 0], b[rows[done]] = a1[done], b1[done]
        fit[rows[done]] = False  # duplicated abscissas or cycling: the LP path
    rows = np.flatnonzero(fit)
    if rows.size:
        x, y, w, r, scale = _keep(fit, x, y, w, r, scale)
        for k, xk, yk, rk, sk in zip(rows, x, y, _escalate_rows(x, y, w, r, scale), scale):
            a[k], b[k] = _polish(xk, yk, rk, L, sk)
    return a, b


def fit_rows(x, y, w, p: float, L: float | None = None):
    """The best affine map of each sample set of a stack x (K, N, d), y and
    w (K, N) in the weighted Lp norm (p = 2 and inf honour |a| <= L), and
    the size of its residual r; each row has the bits of its set alone.

    Returns (a (K, d), b (K,), sums (K,)): sums is w @ (r * r) at p = 2,
    w @ |r| ** p at another finite p and max |r| at p = inf. One stacked L2
    fit, bounded by L only at p = 2, is p = 2's answer and the seed of every
    ok row's fit at any other p: the ok rows run the lockstep IRLS at finite
    p and the lockstep minimax front end at p = inf as one stack, and only
    the minimax LP polish goes one row at a time. A row whose design is rank
    deficient gets the minimum-norm least-squares map in every norm.
    """
    if L is not None and p != 2 and not math.isinf(p):
        raise ValueError(f"a gradient bound L needs p = 2 or inf, got p = {p}")
    x, y, w = _arrays(x, y, w)
    ok, a, b = _l2_rows(x, y, w, L if p == 2 else None)
    if p != 2 and ok.any():
        rows = np.flatnonzero(ok)
        xs, ys, ws = _keep(ok, x, y, w)
        a[rows], b[rows] = (_minimax_rows(xs, ys, ws, a[rows], b[rows], L) if math.isinf(p)
                            else _lp_rows(xs, ys, ws, a[rows], b[rows], p))
    for k in np.flatnonzero(~ok):
        coef = np.linalg.lstsq(_weighted_design(x[k], w[k]), y[k] * np.sqrt(w[k]), rcond=None)[0]
        a[k], b[k] = coef[:-1], coef[-1]
    r = _residuals(x, y, a, b)
    if math.isinf(p):
        return a, b, r.max(axis=1)
    return a, b, (w[:, None, :] @ (r * r if p == 2 else r ** p)[:, :, None])[:, 0, 0]


def affine_fit(x, y, w, p: float, L: float | None = None) -> AffineMap:
    """The best affine map of one sample set x (N, d), y and w (N,) in the
    weighted Lp norm (p = 2 and inf honour |a| <= L): fit_rows on a stack of one."""
    a, b, _ = fit_rows(*(np.asarray(v, dtype=float)[None] for v in (x, y, w)), p, L)
    return AffineMap(tuple(a[0]), b[0])
