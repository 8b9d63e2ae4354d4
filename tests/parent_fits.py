"""Frozen copies of earlier fitting code: the references of the `==` tests.

Each function is the package's code as it was written before a change that
had to keep its results bit for bit; later changes leave them as they are.
"""

import math

import numpy as np

from multibeta import fitting
from multibeta.beta import CubeSample, norm_value
from multibeta.errors import NonConvergence, RankDeficient
from multibeta.fitting import fit_affine_l2
from multibeta.geometry import AffineMap


def parent_lp(x, y, w, p):
    """fit_affine_lp as written when it computed each iterate's residual twice."""
    amap = fit_affine_l2(x, y, w)

    def objective(amap):
        r = np.abs(y - amap(x))
        return float(w @ r ** p / float(w.sum()))

    best_map, best_obj = amap, objective(amap)
    scale = max(float(np.max(np.abs(y))), 1.0)
    for _ in range(40):
        r = np.abs(y - amap(x))
        if p < 2:
            wi = w * np.maximum(r, 1e-9 * scale) ** (p - 2.0)
        else:
            wi = w * (r + 1e-14 * scale) ** (p - 2.0)
        wi = wi / wi.max() if wi.max() > 0 else w
        try:
            amap = fitting._l2_map(*fitting._affine_moments(x, y, np.maximum(wi, 1e-300)))
        except RankDeficient:
            break
        obj = objective(amap)
        if obj < best_obj:
            best_map, best_obj = amap, obj
        elif abs(obj - best_obj) < 1e-15 * max(best_obj, 1e-300):
            break
    return best_map


# The one-line exchange loop that fitting._exchange_rows replaced, frozen as it was.
def parent_exchange_1d(x: np.ndarray, y: np.ndarray):
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


def parent_minimax(x, y, w, L=None):
    """fit_affine_minimax as written when it computed each iterate's residual twice."""
    base = fit_affine_l2(x, y, w)
    d = x.shape[1]
    r = np.abs(y - base(x))
    scale = max(float(np.max(np.abs(y))), 1.0)
    if r.max() <= 1e-13 * scale and (L is None or base.lipschitz <= L * (1 + 1e-12)):
        return base
    if d == 1 and L is None:
        try:
            a, b, _ = parent_exchange_1d(x[:, 0].copy(), y.copy())
            return AffineMap((a,), b)
        except (NonConvergence, RankDeficient):
            pass
    amap = base
    best_map, best_val = amap, float(r.max())
    for p in (4, 8, 16, 32, 64, 128, 256):
        for _ in range(3):
            rr = np.abs(y - amap(x)) + 1e-14 * scale
            wi = w * (rr / rr.max()) ** (p - 2.0)
            wi /= wi.max()
            try:
                amap = fitting._l2_map(*fitting._affine_moments(x, y, np.maximum(wi, 1e-300)))
            except RankDeficient:
                break
            val = float(np.max(np.abs(y - amap(x))))
            if val < best_val:
                best_map, best_val = amap, val
    r = np.abs(y - best_map(x))
    k = max(3 * (d + 2), 8)
    subset = list(np.argsort(r)[-k:])
    for _ in range(60):
        a, b, mval = fitting._minimax_lp(x, y, subset, L)
        r = np.abs(y - (x @ a + b))
        viol = np.where(r > mval * (1 + 1e-12) + 1e-12 * scale)[0]
        if viol.size == 0:
            break
        extra = viol[np.argsort(r[viol])[-k:]]
        subset = sorted(set(subset) | set(int(i) for i in extra))
    else:
        a, b, mval = fitting._minimax_lp(x, y, np.arange(y.size), L)
    if L is not None and np.linalg.norm(a) > L:
        a = a * (L / np.linalg.norm(a))
        rr = y - x @ a
        b = 0.5 * (rr.max() + rr.min())
    return AffineMap(tuple(np.atleast_1d(a)), b)


def parent_affine_fit(x, y, w, p, L=None):
    """fitting.affine_fit as it was before the lockstep IRLS kernels, through
    the frozen fits above; the L2 fits are the package's own."""
    try:
        if math.isinf(p):
            return parent_minimax(x, y, w, L)
        if p == 2:
            return fit_affine_l2(x, y, w) if L is None else fitting.fit_affine_l2_constrained(
                x, y, w, L)
        return parent_lp(x, y, w, p)
    except RankDeficient:
        coef, *_ = np.linalg.lstsq(fitting._weighted_design(x, w), y * np.sqrt(w), rcond=None)
        return AffineMap(tuple(coef[:-1]), coef[-1])


def parent_cube_beta(fld, box, p, quad):
    """beta.cube_beta(CubeSample.of(fld, box, quad), p).value through the
    frozen fits above."""
    s = CubeSample.of(fld, box, quad)
    amap = parent_affine_fit(s.X, s.y, s.w, p)
    return norm_value(s.y - amap(s.X), s.w, p, s.box.diameter, s.box.dim)
