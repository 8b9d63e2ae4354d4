import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import csc_array

from multibeta import fitting
from multibeta.errors import NonConvergence, RankDeficient
from multibeta.fitting import (fit_affine_l2, fit_affine_l2_constrained, fit_affine_lp,
                               fit_affine_minimax)
from multibeta.geometry import AffineMap
from multibeta.rng import stream
from parent_fits import parent_affine_fit, parent_exchange_1d, parent_lp, parent_minimax


def line_samples(lo, hi, n, f):
    """(x, y, w) of f at n midpoint nodes of [lo, hi] with length weights."""
    h = (hi - lo) / n
    x = lo + h * (np.arange(n) + 0.5)
    return x[:, None], f(x), np.full(n, h)


def mean_sq(x, y, w, amap):
    """Weighted mean square residual of amap on the samples."""
    r = y - amap(x)
    return float(w @ (r * r) / float(w.sum()))


def max_abs(x, y, w, amap):
    """Largest absolute residual of amap on the samples."""
    return float(np.max(np.abs(y - amap(x))))


def lp_objective(x, y, w, amap, p):
    """Weighted mean p-th power of the absolute residual of amap on the samples."""
    r = np.abs(y - amap(x))
    return float(w @ r ** p / float(w.sum()))


def lp_minimax_oracle(x, y, L=None):
    """Full LP over every point: minimize h s.t. |y - (a.x + b)| <= h."""
    d = x.shape[1]
    m = x.shape[0]
    A = np.vstack([np.hstack([x, np.ones((m, 1)), -np.ones((m, 1))]),
                   np.hstack([-x, -np.ones((m, 1)), -np.ones((m, 1))])])
    b = np.concatenate([y, -y])
    if L is not None:
        ang = 2.0 * np.pi * np.arange(4096) / 4096
        U = np.stack([np.cos(ang), np.sin(ang)], axis=1)[:, :d]
        if d == 1:
            U = np.array([[1.0], [-1.0]])
        A = np.vstack([A, np.hstack([U, np.zeros((U.shape[0], 2))])])
        b = np.concatenate([b, np.full(U.shape[0], L)])
    cost = np.zeros(d + 2)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=A, b_ub=b,
                  bounds=[(None, None)] * (d + 1) + [(0, None)], method="highs")
    assert res.success
    return res.x[:d], res.x[d], res.x[d + 1]


class TestL2:
    def test_exact_affine_recovery(self):
        rng = stream(9, "l2")
        x = rng.uniform(-1, 1, (40, 3))
        y = x @ np.array([1.5, -2.0, 0.25]) + 0.7
        s = x, y, np.ones(40)
        fit = fit_affine_l2(*s)
        assert np.allclose(fit.a, [1.5, -2.0, 0.25], atol=1e-12)
        assert fit.intercept == pytest.approx(0.7, abs=1e-12)
        assert mean_sq(*s, fit) <= 1e-24

    def test_parabola_closed_form(self):
        # best affine fit to x^2 on [-1, 1]: a = 0, b = 1/3,
        # mean-square residual = (1/2) * integral (x^2 - 1/3)^2 = 4/45
        s = line_samples(-1.0, 1.0, 4001, lambda x: x * x)
        fit = fit_affine_l2(*s)
        assert fit.a[0] == pytest.approx(0.0, abs=1e-10)
        assert fit.intercept == pytest.approx(1.0 / 3.0, rel=1e-6)
        assert mean_sq(*s, fit) == pytest.approx(4.0 / 45.0, rel=1e-5)

    def test_local_optimality(self):
        x, y, w = line_samples(0.0, 1.0, 500, lambda x: np.abs(x - 0.3))
        fit = fit_affine_l2(x, y, w)

        def obj(a, b):
            r = y - (x[:, 0] * a + b)
            return float(w @ (r * r) / w.sum())

        base = obj(fit.a[0], fit.intercept)
        for da, db in itertools.product((-1e-4, 0.0, 1e-4), repeat=2):
            assert obj(fit.a[0] + da, fit.intercept + db) >= base - 1e-15

    def test_repeated_abscissa(self):
        x = np.zeros((10, 1))
        with pytest.raises(RankDeficient):
            fit_affine_l2(x, np.arange(10.0), np.ones(10))

    def test_translation_equivariance(self):
        rng = stream(9, "shift")
        x = rng.uniform(0, 1, (60, 2))
        y = np.abs(x[:, 0] - 0.4) + x[:, 1] ** 2
        w = rng.uniform(0.5, 1.5, 60)
        shift = np.array([13.0, -7.0])
        s0, s1 = (x, y, w), (x + shift, y, w)
        f0 = fit_affine_l2(*s0)
        f1 = fit_affine_l2(*s1)
        assert np.allclose(f0.a, f1.a, atol=1e-9)
        assert f1.intercept == pytest.approx(
            f0.intercept - f0.a @ shift, abs=1e-9)
        assert mean_sq(*s1, f1) == pytest.approx(mean_sq(*s0, f0), abs=1e-12)


class TestConstrained:
    def test_steep_line_clamps_to_boundary(self):
        # fit 2x with |a| <= 1: a = 1, residual x - b minimized at b = 1/2,
        # mean-square residual = var(x) = 1/12
        s = line_samples(0.0, 1.0, 4001, lambda x: 2.0 * x)
        fit = fit_affine_l2_constrained(*s, 1.0)
        assert fit.a[0] == pytest.approx(1.0, abs=1e-8)
        assert fit.intercept == pytest.approx(0.5, rel=1e-6)
        assert mean_sq(*s, fit) == pytest.approx(1.0 / 12.0, rel=1e-5)

    def test_grid_search_oracle(self):
        x, y, w = line_samples(0.0, 1.0, 801, lambda x: 2.0 * x)
        fit = fit_affine_l2_constrained(x, y, w, 1.0)

        def obj(a, b):
            r = y - (a * x[:, 0] + b)
            return float(w @ (r * r) / w.sum())

        best = min(obj(a, b)
                   for a in np.linspace(-1.0, 1.0, 241)
                   for b in np.linspace(-0.5, 1.5, 241))
        assert mean_sq(x, y, w, fit) <= best + 1e-12

    def test_feasible_equals_unconstrained(self):
        s = line_samples(0.0, 1.0, 500, lambda x: 0.3 * x + 0.1)
        fit = fit_affine_l2_constrained(*s, 1.0)
        free = fit_affine_l2(*s)
        assert np.allclose(fit.a, free.a, atol=1e-12)

    def test_tiny_l_approaches_constant(self):
        x, y, w = line_samples(0.0, 1.0, 500, lambda x: 2.0 * x)
        fit = fit_affine_l2_constrained(x, y, w, 1e-9)
        # the weighted mean is the best constant; its residual is the weighted variance
        W = float(w.sum())
        c = float(w @ y / W)
        res = float(w @ (y - c) ** 2 / W)
        assert fit.intercept == pytest.approx(c, abs=1e-6)
        assert mean_sq(x, y, w, fit) == pytest.approx(res, rel=1e-6)

    def test_residual_nonincreasing_in_l(self):
        s = line_samples(0.0, 1.0, 500, lambda x: np.abs(x - 0.37) * 3.0)
        prev = np.inf
        for L in (0.1, 0.5, 1.0, 2.0, 5.0):
            fit = fit_affine_l2_constrained(*s, L)
            assert fit.lipschitz <= L * (1.0 + 1e-9)
            assert mean_sq(*s, fit) <= prev + 1e-12
            prev = mean_sq(*s, fit)


class TestMinimax:
    def test_parabola(self):
        # minimax line for x^2 on [-1, 1] is b = 1/2 with deviation 1/2
        s = line_samples(-1.0, 1.0, 2001, lambda x: x * x)
        fit = fit_affine_minimax(*s)
        assert fit.a[0] == pytest.approx(0.0, abs=1e-6)
        assert fit.intercept == pytest.approx(0.5, abs=1e-3)
        assert max_abs(*s, fit) == pytest.approx(0.5, rel=1e-3)

    def test_vee(self):
        s = line_samples(-1.0, 1.0, 2001, np.abs)
        fit = fit_affine_minimax(*s)
        assert fit.a[0] == pytest.approx(0.0, abs=1e-6)
        assert max_abs(*s, fit) == pytest.approx(0.5, rel=1e-3)

    def test_affine_is_zero(self):
        rng = stream(9, "mm")
        x = rng.uniform(0, 1, (50, 2))
        y = x @ np.array([0.4, -0.2]) + 0.1
        s = x, y, np.ones(50)
        assert max_abs(*s, fit_affine_minimax(*s)) <= 1e-10

    def test_lp_oracle_2d(self):
        rng = stream(9, "mm2")
        x = rng.uniform(0, 1, (120, 2))
        y = np.abs(x[:, 0] - 0.3) + 0.5 * np.sin(3 * x[:, 1])
        s = x, y, np.ones(120)
        fit = fit_affine_minimax(*s)
        _, _, h = lp_minimax_oracle(x, y)
        assert max_abs(*s, fit) == pytest.approx(h, rel=1e-8, abs=1e-12)

    def test_lp_oracle_1d(self):
        rng = stream(9, "mm1")
        x = rng.uniform(-1, 1, (80, 1))
        y = np.exp(x[:, 0])
        s = x, y, np.ones(80)
        fit = fit_affine_minimax(*s)
        _, _, h = lp_minimax_oracle(x, y)
        assert max_abs(*s, fit) == pytest.approx(h, rel=1e-10, abs=1e-13)

    def test_constrained_lp_oracle(self):
        x, y, w = line_samples(0.0, 1.0, 301, lambda x: 2.0 * x)
        fit = fit_affine_minimax(x, y, w, L=1.0)
        assert fit.lipschitz <= 1.0 + 1e-12
        _, _, h = lp_minimax_oracle(x, y, L=1.0)
        assert max_abs(x, y, w, fit) == pytest.approx(h, rel=1e-6)

    @pytest.mark.parametrize("factor", [0.1, 0.4, 0.8])
    def test_constrained_lp_oracle_2d(self, factor, monkeypatch):
        # the 512 facets standing in for |a| <= L let the LP slope leave the
        # ball; the fit snaps it back inside and stays within the residual of
        # the 4096-facet oracle
        solve = fitting._minimax_lp
        overshoots = []

        def spy(x, y, subset, L):
            a, b, h = solve(x, y, subset, L)
            overshoots.append(bool(np.linalg.norm(a) > L))
            return a, b, h

        monkeypatch.setattr(fitting, "_minimax_lp", spy)
        for draw in range(4):
            rng = stream(9, "mmL2", draw)
            x = rng.uniform(0, 1, (60, 2))
            y = 2.0 * x @ rng.normal(size=2) + np.abs(x[:, 0] - 0.4) + 0.3 * np.sin(4 * x[:, 1])
            s = x, y, np.ones(60)
            L = factor * fit_affine_l2(*s).lipschitz
            fit = fit_affine_minimax(*s, L=L)
            assert fit.lipschitz <= L * (1.0 + 1e-12)
            _, _, h = lp_minimax_oracle(x, y, L=L)
            assert abs(max_abs(*s, fit) - h) <= 1e-4 * h
        assert any(overshoots)

    def test_dominates_rms(self):
        rng = stream(9, "rms")
        x = rng.uniform(0, 1, (64, 2))
        y = np.abs(x[:, 0] - 0.5)
        w = np.full(64, 1.0 / 64.0)
        s = x, y, w
        mm = fit_affine_minimax(*s)
        l2 = fit_affine_l2(*s)
        assert max_abs(*s, mm) >= np.sqrt(mean_sq(*s, l2)) - 1e-12

    def test_duplicated_abscissas_fall_through(self):
        # envelope-style cloud: repeated x with different y still has a
        # well-defined minimax line
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        s = x, y, np.ones(4)
        assert max_abs(*s, fit_affine_minimax(*s)) == pytest.approx(0.5, abs=1e-9)


class TestLp:
    def test_never_worse_than_l2(self):
        rng = stream(9, "lp")
        x = rng.uniform(0, 1, (100, 2))
        y = np.abs(x[:, 0] - 0.4) + x[:, 1]
        w = np.ones(100)
        for p in (1.0, 1.5, 3.0, 6.0):
            fit = fit_affine_lp(x, y, w, p)
            l2 = fit_affine_l2(x, y, w)
            r = np.abs(y - l2(x))
            l2_obj = float(w @ r ** p / w.sum())
            assert lp_objective(x, y, w, fit, p) <= l2_obj + 1e-15

    def test_exact_affine(self):
        x = np.linspace(0, 1, 20)[:, None]
        y = 2 * x[:, 0] + 1
        s = x, y, np.ones(20)
        assert lp_objective(*s, fit_affine_lp(*s, 4.0), 4.0) <= 1e-20

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_slope_bound_rejected(self, p):
        # the Lp fit has no slope bound; an L given with it must not be dropped
        s = np.linspace(0, 1, 20)[:, None], np.linspace(0, 2, 20), np.ones(20)
        with pytest.raises(ValueError, match="p = 2 or inf"):
            fitting.affine_fit(*s, p, L=0.5)


def random_sets(seed, d, K, N):
    """K weighted sets of N samples in d variables; some rows are rank deficient."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(K, N, d)) * rng.uniform(0.01, 100.0, (K, 1, 1))
    y = rng.normal(size=(K, N)) + np.einsum("knd,kd->kn", x, rng.normal(size=(K, d)))
    w = rng.uniform(0.01, 2.0, (K, N))
    for k in range(K):
        kind = rng.integers(4)
        if kind == 0:
            x[k] = x[k, 0]  # one repeated abscissa
        elif kind == 1:
            x[k, :, -1] = x[k, 0, -1]  # one coordinate never varies
    return x, y, w


# Sample sizes are drawn from lists: under the derandomized profile an integer
# range gives its lower end in about half the examples, where fits are exact
# or rank deficient at every d. The derandomized draws favour some list
# positions over others, so small and large sizes alternate in the list.
def sizes(lo, hi):
    """Sample sizes from lo to hi: both ends and a few between."""
    return st.sampled_from([n for n in (12, 4, 30, 2, 20, 7, 40, 3) if lo <= n <= hi])


def parent_constrained(x, y, w, L):
    """The two-pass constrained fit as it was written before the shared moments kernel."""
    W = float(w.sum())

    def moments():
        xbar = w @ x / W
        ybar = float(w @ y / W)
        xc = x - xbar
        yc = y - ybar
        return xbar, ybar, (xc * w[:, None]).T @ xc / W, (xc * w[:, None]).T @ yc / W

    def residual(a, b):
        r = y - (x @ a + b)
        return float(w @ (r * r) / W)

    design = np.hstack([x, np.ones((len(y), 1))]) * np.sqrt(w)[:, None]
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[0] == 0 or sv[-1] / sv[0] < fitting.RANK_TOL:
        raise RankDeficient("rank")
    xbar, ybar, C, c = moments()
    try:
        a = np.linalg.solve(C, c)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("singular") from exc
    a = np.array([float(v) for v in a])
    b = float(ybar - a @ xbar)
    if float(np.linalg.norm(a)) <= L * (1.0 + 1e-12):
        return a, b, residual(a, b)
    xbar, ybar, C, c = moments()
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
        if abs(grad_norm(hi) - L) <= fitting.GRAD_BISECT_TOL:
            break
    a = evecs @ (proj / (evals + hi))
    if np.linalg.norm(a) > L:
        a *= L / np.linalg.norm(a)
    a = np.array([float(v) for v in a])
    b = float(ybar - a @ xbar)
    return a, b, residual(a, b)


class TestOneMomentsKernel:
    @given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(1, 3),
           K=st.sampled_from([4, 2, 6, 3, 5]), N=sizes(2, 30))
    def test_stack_rows_equal_scalar_fits(self, seed, d, K, N):
        x, y, w = random_sets(seed, d, K, N)
        ok, a, b = fitting.fit_affine_l2_stack(x, y, w)
        for k in range(K):
            try:
                amap = fit_affine_l2(x[k], y[k], w[k])
            except RankDeficient:
                assert not ok[k]
                continue
            if not ok.any():
                continue  # a singular stacked solve gives up on the whole block
            assert ok[k]
            assert amap.gradient == tuple(a[k]) and amap.intercept == b[k]

    @given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(1, 3), N=sizes(2, 30),
           factor=st.sampled_from([0.3, 2.0]))
    def test_constrained_equals_two_pass_reference(self, seed, d, N, factor):
        x, y, w = random_sets(seed, d, 1, N)
        s = x[0], y[0], w[0]
        try:
            free = fit_affine_l2(*s).lipschitz
        except RankDeficient:
            with pytest.raises(RankDeficient):
                fit_affine_l2_constrained(*s, 1.0)
            return
        L = max(free, 1e-3) * factor
        a, b, res = parent_constrained(*s, L)
        fit = fit_affine_l2_constrained(*s, L)
        assert fit.gradient == tuple(a) and fit.intercept == b
        assert mean_sq(*s, fit) == res


def reference_rows(x, y, w, L):
    """parent_constrained of each row of a stack: (a, b), or the RankDeficient message."""
    rows = []
    for k in range(len(x)):
        try:
            rows.append(parent_constrained(x[k], y[k], w[k], L)[:2])
        except RankDeficient as exc:
            rows.append(str(exc))
    return rows


class TestConstrainedStack:
    """fit_affine_l2_constrained_stack equals the frozen reference row by row."""

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(1, 3),
           K=st.sampled_from([4, 2, 8, 3, 6]), N=sizes(2, 30),
           factor=st.sampled_from([1e-20, 0.3, 1.0, 3.0]))
    def test_rows_equal_reference_and_one_row_fits(self, seed, d, K, N, factor):
        x, y, w = random_sets(seed, d, K, N)
        # one row on a coarse lattice: repeated abscissas, often rank deficient
        x[0], y[0], w[0] = gridded_set(seed, d, N)
        frees = [np.linalg.norm(r[0]) for r in reference_rows(x, y, w, math.inf)
                 if not isinstance(r, str)]
        # one L for the stack, so rows steeper and flatter than L mix; a factor
        # of 1e-20 leaves the eigenvalues below the rounding of the first
        # multiplier, which drives the doubling loop
        L = max(float(np.median(frees)) if frees else 1.0, 1e-3) * factor
        expect = reference_rows(x, y, w, L)
        ok, a, b = fitting.fit_affine_l2_constrained_stack(x, y, w, L)
        if "singular" in expect:
            assert not ok.any()  # a singular stacked solve gives up on the whole stack
            return
        for k, ref in enumerate(expect):
            one = outcome(fit_affine_l2_constrained, x[k], y[k], w[k], L)
            if isinstance(ref, str):
                assert not ok[k] and one == "RankDeficient"
                continue
            assert ok[k]
            assert tuple(a[k]) == tuple(ref[0]) and b[k] == ref[1]
            assert one == AffineMap(tuple(ref[0]), ref[1])

    def test_row_norm_is_numpy_norm(self):
        # 10^5 rows over 200 decades: a reduction such as einsum rounds some
        # of them differently at d >= 2
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 4):
            v = rng.normal(size=(25_000, d)) * 10.0 ** rng.uniform(-100, 100, (25_000, 1))
            assert fitting._row_norm(v).tolist() == [float(np.linalg.norm(r)) for r in v]


class TestFitRows:
    """fit_rows equals affine_fit and the scalar residual sum row by row, exactly."""

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(1, 3),
           K=st.sampled_from([3, 1, 6, 2, 4]),
           N=st.sampled_from([2, 3, 5, 9, 17, 40, 81, 343, 11 ** 3]),
           pL=st.sampled_from([(1, None), (1.5, None), (3, None)]
                              + [(p, L) for p in (2, math.inf) for L in (None, 1e-20, 0.5)]))
    def test_rows_equal_affine_fit_and_scalar_sum(self, seed, d, K, N, pL):
        # L = 1e-20 leaves the eigenvalues below the rounding of the first
        # multiplier, which drives the ridge stack's doubling loop. N is drawn
        # from a list: derandomized integer draws give N = 2 in half the examples.
        p, L = pL
        x, y, w = random_sets(seed, d, K, N)
        # every other row on a coarse lattice: repeated abscissas, often rank deficient
        for k in range(0, K, 2):
            x[k], y[k], w[k] = gridded_set(seed + k, d, N)
        a, b, sums = fitting.fit_rows(x, y, w, p, L)
        assert a.shape == (K, d) and b.shape == sums.shape == (K,)
        for k in range(K):
            amap = fitting.affine_fit(x[k], y[k], w[k], p, L)
            assert tuple(a[k]) == amap.gradient and b[k] == amap.intercept, k
            r = y[k] - amap(x[k])
            if math.isinf(p):
                assert sums[k] == np.max(np.abs(r)), k
            else:
                assert sums[k] == (w[k] @ (r * r) if p == 2 else w[k] @ np.abs(r) ** p), k

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 31 - 1), K=st.sampled_from([3, 1, 6, 2, 4]), N=sizes(2, 40))
    def test_near_affine_lines_equal_affine_fit(self, seed, K, N):
        # 1-D rows whose L2 residual lies on either side of the exact-fit
        # exit at 1e-13 * max(max |y|, 1), with values below and above 1
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, (K, N, 1))
        noise = 10.0 ** rng.uniform(-16.0, -10.0, (K, 1)) * rng.normal(size=(K, N))
        y = rng.normal(size=(K, 1)) * x[:, :, 0] + rng.normal(size=(K, 1)) + noise
        y *= 10.0 ** rng.uniform(-3.0, 3.0, (K, 1))
        w = rng.uniform(0.01, 2.0, (K, N))
        a, b, sups = fitting.fit_rows(x, y, w, math.inf)
        for k in range(K):
            amap = fitting.affine_fit(x[k], y[k], w[k], math.inf)
            assert tuple(a[k]) == amap.gradient and b[k] == amap.intercept, k
            assert sups[k] == np.max(np.abs(y[k] - amap(x[k]))), k


def strided(v):
    """v as a non-contiguous view: every other column of a wider 2-D array."""
    v2 = v.reshape(len(v), -1)
    grid = np.zeros((len(v), 2 * v2.shape[1]))
    grid[:, 1::2] = v2
    return grid[:, 1::2].reshape(v.shape)


def outcome(fit, *args, **kwargs):
    """The map that fit returns, or "RankDeficient" if it raises that."""
    try:
        return fit(*args, **kwargs)
    except RankDeficient:
        return "RankDeficient"


def gridded_set(seed, d, N):
    """N weighted samples in d variables on a coarse lattice, so abscissas repeat."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(0.0, 1.0, (N, d)) * 3.0) / 3.0
    y = np.abs(x - 0.4).sum(axis=1) + 0.1 * rng.normal(size=N)
    return x, y, rng.uniform(0.01, 2.0, N)


LAYOUT_FITS = [(fit_affine_l2, {}), (fit_affine_l2_constrained, {"L": 0.5}),
               (fit_affine_lp, {"p": 1.0}), (fit_affine_lp, {"p": 3.0}),
               (fit_affine_minimax, {}), (fit_affine_minimax, {"L": 0.5})]


class TestArrayLayout:
    @pytest.mark.parametrize("fit, kwargs", LAYOUT_FITS,
                             ids=["l2", "l2-L", "lp1", "lp3", "minimax", "minimax-L"])
    @given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(1, 3), N=sizes(2, 40))
    def test_strided_columns_fit_like_contiguous_copies(self, fit, kwargs, seed, d, N):
        x, y, w = (v[0].copy() for v in random_sets(seed, d, 1, N))
        views = [strided(v) for v in (x, y, w)]
        assert not any(v.flags.c_contiguous for v in views)
        assert outcome(fit, *views, **kwargs) == outcome(fit, x, y, w, **kwargs)


class TestOneResidualPerIterate:
    @given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(1, 3), N=sizes(3, 40),
           p=st.sampled_from([1.0, 1.5, 3.0, 6.0]))
    def test_lp_equals_two_residual_reference(self, seed, d, N, p):
        s = gridded_set(seed, d, N)
        assert outcome(fit_affine_lp, *s, p) == outcome(parent_lp, *s, p)

    @given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(1, 3), N=sizes(3, 40),
           L=st.sampled_from([None, 0.5]))
    def test_minimax_equals_two_residual_reference(self, seed, d, N, L):
        s = gridded_set(seed, d, N)
        assert outcome(fit_affine_minimax, *s, L=L) == outcome(parent_minimax, *s, L=L)

    def test_given_base_is_the_default_base(self):
        x, y, w = gridded_set(3, 2, 30)
        base = fit_affine_l2(x, y, w)
        assert fit_affine_minimax(x, y, w, base=base) == fit_affine_minimax(x, y, w)


def fit_outcome(fit, x, y, w, p, L):
    """The map of each row that fit(x, y, w, p, L) gives, or the name of the
    floating-point error it raises; with the CLI's error state."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return fit(x, y, w, p, L)
    except FloatingPointError:
        return "FloatingPointError"


def stack_maps(x, y, w, p, L):
    a, b, _ = fitting.fit_rows(x, y, w, p, L)
    return [AffineMap(tuple(a[k]), b[k]) for k in range(len(x))]


def parent_maps(x, y, w, p, L):
    return [parent_affine_fit(x[k], y[k], w[k], p, L) for k in range(len(x))]


def near_collinear_set(seed, d, N):
    """N weighted samples in d >= 2 variables whose last column is the first
    plus noise of 1e-9 to 1e-5: the design passes the rank test, and IRLS
    weights often take a step's design below it."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (N, d))
    x[:, -1] = x[:, 0] + 10.0 ** rng.uniform(-9.0, -5.0) * rng.normal(size=N)
    return x, rng.normal(size=N), rng.uniform(0.01, 2.0, N)


# Stack heights and sample sizes, both ends first: one row, and a row of the
# 13-node 3-D cube grid, more points than a level block holds of such cubes
KERNEL_K = [1, 9, 2, 5, 3]
KERNEL_N = [2, 2197, 3, 81, 9, 27]


class TestLockstepKernels:
    """The lockstep IRLS and minimax front end: fit_rows at p != 2 equals
    the frozen one-row fits row by row, exactly."""

    @pytest.mark.parametrize("p, L", [(1, None), (1.5, None), (3, None), (math.inf, None),
                                      (math.inf, 0.5)])
    def test_stack_rows_equal_frozen_one_row_fits(self, p, L):
        reached = set()

        @settings(max_examples=40)
        @given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(1, 3),
               K=st.sampled_from(KERNEL_K), N=st.sampled_from(KERNEL_N))
        def check(seed, d, K, N):
            reached.add((K, N))
            x, y, w = random_sets(seed, d, K, N)
            # every other row on a coarse lattice: repeated abscissas, rank
            # deficient designs and rank-deficient IRLS steps
            for k in range(0, K, 2):
                x[k], y[k], w[k] = gridded_set(seed + k, d, N)
            if d > 1 and K > 1:
                x[1], y[1], w[1] = near_collinear_set(seed, d, N)
            got = fit_outcome(stack_maps, x, y, w, p, L)
            assert got == fit_outcome(parent_maps, x, y, w, p, L)

        check()
        # every listed size, both ends included, was drawn
        assert {K for K, _ in reached} == set(KERNEL_K)
        assert {N for _, N in reached} == set(KERNEL_N)

    @pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
    def test_rank_deficient_steps_leave_the_stack(self, p):
        # rows whose IRLS steps are rank deficient at some step, among rows
        # whose steps are not
        rows = [near_collinear_set(seed, 2, 12) for seed in range(16)]
        rows += [gridded_set(seed, 2, 12) for seed in range(4)]
        x, y, w = (np.stack(v) for v in zip(*rows))
        assert stack_maps(x, y, w, p, None) == parent_maps(x, y, w, p, None)
        steps = []
        step = fitting._step_maps

        def spy(*args):
            ok, a, b = step(*args)
            steps.append(ok.all())
            return ok, a, b

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fitting, "_step_maps", spy)
            fitting.fit_rows(x, y, w, p)
        assert not all(steps)

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_one_row_fits_are_stacks_of_one(self, p, monkeypatch):
        x, y, w = gridded_set(4, 2, 30)
        kernel = "_minimax_rows" if math.isinf(p) else "_lp_rows"
        calls, run = [], getattr(fitting, kernel)

        def spy(*args):
            calls.append(len(args[0]))
            return run(*args)

        monkeypatch.setattr(fitting, kernel, spy)
        assert fitting.affine_fit(x, y, w, p) == parent_affine_fit(x, y, w, p)
        assert calls == [1]


def exchange_rows(seed, K, N):
    """K rows of 1-D data x, y (K, N), each of one kind: random or oscillating
    values (several exchange rounds), constant or affine values (the chord's
    worst point is an endpoint), abscissas on a coarse lattice (repeats and
    singular reference sets), all equal, or within 1e-14 of each other near
    0 (coincident by the test's floor of 1)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (K, N)) * rng.uniform(0.01, 100.0, (K, 1))
    x += rng.uniform(-50.0, 50.0, (K, 1))
    y = rng.normal(size=(K, N))
    for k in range(K):
        kind = rng.integers(7)
        if kind == 1:
            t = (x[k] - x[k].min()) / (x[k].max() - x[k].min())
            y[k] = np.cos(rng.uniform(3.0, 40.0) * t) + 0.01 * y[k]
        elif kind == 2:
            y[k] = y[k, 0]
        elif kind == 3:
            y[k] = rng.normal() * x[k] + rng.normal()
        elif kind == 4:
            m = rng.integers(1, 4)
            x[k] = np.round(rng.uniform(0.0, 1.0, N) * m) / m
        elif kind == 5:
            x[k] = x[k, 0]
        elif kind == 6:
            x[k] = rng.uniform(-0.01, 0.01) + rng.uniform(0.0, 5e-15, N)
    return x, y


def exchange_outcome(x, y):
    """(a, b) of parent_exchange_1d on one row, or None where it gives up."""
    try:
        a, b, _ = parent_exchange_1d(x.copy(), y.copy())
    except (NonConvergence, RankDeficient):
        return None
    return a, b


class TestExchangeRows:
    """fitting._exchange_rows: the 1-D exchange on a stack of rows in lockstep."""

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2 ** 31 - 1), K=st.sampled_from([5, 1, 16, 2, 9]), N=sizes(3, 40))
    # rows whose exchange drops the first reference point for a new last one
    # on the way to a different set: the random draws rarely reach such a row
    @example(seed=2854, K=2, N=30)
    @example(seed=2897, K=1, N=40)
    def test_rows_equal_frozen_one_line_exchange(self, seed, K, N):
        x, y = exchange_rows(seed, K, N)
        with np.errstate(all="raise"):
            done, a, b = fitting._exchange_rows(x, y)
            expect = [exchange_outcome(x[k], y[k]) for k in range(K)]
        for k, ref in enumerate(expect):
            if ref is None:
                assert not done[k], k
            else:
                assert done[k] and a[k] == ref[0] and b[k] == ref[1], k

    def test_two_points_are_not_done(self):
        # the one-line loop had no third reference point to add here
        done, _, _ = fitting._exchange_rows(np.array([[0.0, 1.0]]), np.array([[0.0, 2.0]]))
        assert not done.any()

    @given(seed=st.integers(0, 2 ** 31 - 1), N=sizes(3, 40))
    def test_sup_residual_matches_lp_oracle(self, seed, N):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, (4, N))
        y = np.vstack([rng.normal(size=(2, N)), np.cos(rng.uniform(3.0, 40.0, (2, 1)) * x[2:])])
        done, a, b = fitting._exchange_rows(x, y)
        assert done.all()
        for k in range(len(x)):
            _, _, h = lp_minimax_oracle(x[k][:, None], y[k])
            sup = float(np.max(np.abs(y[k] - (a[k] * x[k] + b[k]))))
            assert sup == pytest.approx(h, rel=1e-8, abs=1e-12)

    def test_settled_stack_makes_no_scalar_minimax_fit(self, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, (16, 17, 1))
        y = np.abs(x[:, :, 0] - 0.2) + 0.1 * rng.normal(size=(16, 17))
        assert fitting._exchange_rows(x[:, :, 0], y)[0].all()
        calls = []
        fit = fitting.fit_affine_minimax

        def spy(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(fitting, "fit_affine_minimax", spy)
        fitting.fit_rows(x, y, np.ones(y.shape), math.inf)
        assert calls == []


def parent_minimax_lp(x, y, subset, L):
    """fitting._minimax_lp as written when it called scipy's linprog, frozen."""
    d = x.shape[1]
    xs, ys = x[subset], y[subset]
    m = xs.shape[0]
    A1 = np.hstack([xs, np.ones((m, 1)), -np.ones((m, 1))])
    A2 = np.hstack([-xs, -np.ones((m, 1)), -np.ones((m, 1))])
    A = np.vstack([A1, A2])
    b = np.concatenate([ys, -ys])
    if L is not None:
        U, lims = fitting._grad_constraint_rows(d, L)
        A = np.vstack([A, np.hstack([U, np.zeros((U.shape[0], 2))])])
        b = np.concatenate([b, lims])
    cost = np.zeros(d + 2)
    cost[-1] = 1.0
    bounds = [(None, None)] * (d + 1) + [(0, None)]
    res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if not res.success:
        raise NonConvergence(f"minimax LP failed: {res.message}")
    return res.x[:d], float(res.x[d]), float(res.x[d + 1])


# Subset sizes of 40 sample points: one point and all of them are the ends;
# 8 to 15 are the polish's first active sets at d = 1 to 3. On one point the
# optimal (a, b) is not unique, and HiGHS picks its vertex by its settings.
LP_POINTS = 40
LP_SUBSETS = [40, 1, 12, 3, 8, 25, 2, 15]


def minimax_lp_case(seed, d, m, kind):
    """(x, y, subset) of one minimax LP: m of 40 points of one kind. "lattice"
    puts x and y on coarse lattices (repeated abscissas, tied residuals),
    "duplicate" repeats the first half of the points, "constant" has one
    value (every residual ties at the optimum 0)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (LP_POINTS, d)) * rng.uniform(0.01, 100.0)
    y = rng.normal(size=LP_POINTS) + x @ rng.normal(size=d)
    if kind == "lattice":
        x = np.round(rng.uniform(0.0, 1.0, (LP_POINTS, d)) * 2.0) / 2.0
        y = np.round(rng.uniform(0.0, 1.0, LP_POINTS) * 2.0) / 2.0
    elif kind == "duplicate":
        half = LP_POINTS // 2
        x[half:], y[half:] = x[:half], y[:half]
    elif kind == "constant":
        y[:] = y[0]
    subset = rng.permutation(LP_POINTS)[:m]
    if rng.integers(2):
        subset = sorted(int(i) for i in subset)
    return x, y, subset


class TestLinprog:
    """fitting.linprog: the package's one LP entry point."""

    def test_minimax_polish_goes_through_linprog(self, monkeypatch):
        # perfbench/tracer.py hooks fitting.linprog by this name to count and
        # time LP solves (fitting.linprog_calls, fitting.linprog_total_s), so
        # a rename fails here rather than in a traced benchmark run
        rng = stream(9, "mm2")
        x = rng.uniform(0, 1, (120, 2))
        y = np.abs(x[:, 0] - 0.3) + 0.5 * np.sin(3 * x[:, 1])
        w = np.ones(120)
        expect = fit_affine_minimax(x, y, w)
        calls = []
        solve = fitting.linprog

        def spy(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(fitting, "linprog", spy)
        assert fit_affine_minimax(x, y, w) == expect
        assert calls

    # min cost * x subject to A x <= ub and x >= 0
    @pytest.mark.parametrize("cost, A, ub, status", [(1.0, 1.0, -1.0, "infeasible"),
                                                     (-1.0, -1.0, 0.0, "unbounded")])
    def test_failure_names_highs_status(self, cost, A, ub, status):
        with pytest.raises(NonConvergence, match=f"problem is {status}.*HiGHS Status"):
            fitting.linprog(np.array([cost]), csc_array(np.array([[A]])), np.array([ub]), 0)

    def test_minimax_lp_equals_frozen_linprog_reference(self):
        reached = set()

        @settings(max_examples=80)
        @given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(1, 3),
               m=st.sampled_from(LP_SUBSETS),
               kind=st.sampled_from(["random", "lattice", "duplicate", "constant"]),
               L=st.sampled_from([None, 0.5, 1e-3]))
        def check(seed, d, m, kind, L):
            reached.add(m)
            x, y, subset = minimax_lp_case(seed, d, m, kind)
            a, b, h = fitting._minimax_lp(x, y, subset, L)
            ref_a, ref_b, ref_h = parent_minimax_lp(x, y, subset, L)
            assert tuple(a) == tuple(ref_a) and b == ref_b and h == ref_h

        check()
        # every listed size, both ends included, was drawn
        assert reached == set(LP_SUBSETS)
