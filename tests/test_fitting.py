import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from multibeta import fitting
from multibeta.errors import RankDeficient
from multibeta.fitting import (SampleSet, fit_affine_l2,
                               fit_affine_l2_constrained, fit_affine_lp,
                               fit_affine_minimax, fit_constant_l2)
from multibeta.rng import stream


def line_samples(lo, hi, n, f):
    # midpoint nodes with length weights
    h = (hi - lo) / n
    x = lo + h * (np.arange(n) + 0.5)
    return SampleSet(x[:, None], f(x), np.full(n, h))


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
        fit = fit_affine_l2(SampleSet(x, y, np.ones(40)))
        assert np.allclose(fit.map.a, [1.5, -2.0, 0.25], atol=1e-12)
        assert fit.map.intercept == pytest.approx(0.7, abs=1e-12)
        assert fit.residual_sq <= 1e-24

    def test_parabola_closed_form(self):
        # best affine fit to x^2 on [-1, 1]: a = 0, b = 1/3,
        # mean-square residual = (1/2) * integral (x^2 - 1/3)^2 = 4/45
        s = line_samples(-1.0, 1.0, 4001, lambda x: x * x)
        fit = fit_affine_l2(s)
        assert fit.map.a[0] == pytest.approx(0.0, abs=1e-10)
        assert fit.map.intercept == pytest.approx(1.0 / 3.0, rel=1e-6)
        assert fit.residual_sq == pytest.approx(4.0 / 45.0, rel=1e-5)

    def test_local_optimality(self):
        s = line_samples(0.0, 1.0, 500, lambda x: np.abs(x - 0.3))
        fit = fit_affine_l2(s)

        def obj(a, b):
            r = s.y - (s.x[:, 0] * a + b)
            return float(s.w @ (r * r) / s.w.sum())

        base = obj(fit.map.a[0], fit.map.intercept)
        for da, db in itertools.product((-1e-4, 0.0, 1e-4), repeat=2):
            assert obj(fit.map.a[0] + da, fit.map.intercept + db) >= base - 1e-15

    def test_abscissas_must_be_two_dimensional(self):
        with pytest.raises(ValueError):
            SampleSet(np.linspace(0.0, 1.0, 5), np.zeros(5), np.ones(5))

    def test_repeated_abscissa(self):
        x = np.zeros((10, 1))
        with pytest.raises(RankDeficient):
            fit_affine_l2(SampleSet(x, np.arange(10.0), np.ones(10)))

    def test_translation_equivariance(self):
        rng = stream(9, "shift")
        x = rng.uniform(0, 1, (60, 2))
        y = np.abs(x[:, 0] - 0.4) + x[:, 1] ** 2
        w = rng.uniform(0.5, 1.5, 60)
        shift = np.array([13.0, -7.0])
        f0 = fit_affine_l2(SampleSet(x, y, w))
        f1 = fit_affine_l2(SampleSet(x + shift, y, w))
        assert np.allclose(f0.map.a, f1.map.a, atol=1e-9)
        assert f1.map.intercept == pytest.approx(
            f0.map.intercept - f0.map.a @ shift, abs=1e-9)
        assert f1.residual_sq == pytest.approx(f0.residual_sq, abs=1e-12)


class TestConstant:
    def test_two_points(self):
        s = SampleSet(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), np.ones(2))
        c, res = fit_constant_l2(s)
        assert c == pytest.approx(0.5)
        assert res == pytest.approx(0.25)

    def test_linear_on_unit_interval(self):
        s = line_samples(0.0, 1.0, 4001, lambda x: x)
        c, res = fit_constant_l2(s)
        assert c == pytest.approx(0.5, abs=1e-12)
        assert res == pytest.approx(1.0 / 12.0, rel=1e-6)


class TestConstrained:
    def test_steep_line_clamps_to_boundary(self):
        # fit 2x with |a| <= 1: a = 1, residual x - b minimized at b = 1/2,
        # mean-square residual = var(x) = 1/12
        s = line_samples(0.0, 1.0, 4001, lambda x: 2.0 * x)
        fit = fit_affine_l2_constrained(s, 1.0)
        assert fit.map.a[0] == pytest.approx(1.0, abs=1e-8)
        assert fit.map.intercept == pytest.approx(0.5, rel=1e-6)
        assert fit.residual_sq == pytest.approx(1.0 / 12.0, rel=1e-5)

    def test_grid_search_oracle(self):
        s = line_samples(0.0, 1.0, 801, lambda x: 2.0 * x)
        fit = fit_affine_l2_constrained(s, 1.0)

        def obj(a, b):
            r = s.y - (a * s.x[:, 0] + b)
            return float(s.w @ (r * r) / s.w.sum())

        best = min(obj(a, b)
                   for a in np.linspace(-1.0, 1.0, 241)
                   for b in np.linspace(-0.5, 1.5, 241))
        assert fit.residual_sq <= best + 1e-12

    def test_feasible_equals_unconstrained(self):
        s = line_samples(0.0, 1.0, 500, lambda x: 0.3 * x + 0.1)
        fit = fit_affine_l2_constrained(s, 1.0)
        free = fit_affine_l2(s)
        assert np.allclose(fit.map.a, free.map.a, atol=1e-12)

    def test_tiny_l_approaches_constant(self):
        s = line_samples(0.0, 1.0, 500, lambda x: 2.0 * x)
        fit = fit_affine_l2_constrained(s, 1e-9)
        c, res = fit_constant_l2(s)
        assert fit.map.intercept == pytest.approx(c, abs=1e-6)
        assert fit.residual_sq == pytest.approx(res, rel=1e-6)

    def test_residual_nonincreasing_in_l(self):
        s = line_samples(0.0, 1.0, 500, lambda x: np.abs(x - 0.37) * 3.0)
        prev = np.inf
        for L in (0.1, 0.5, 1.0, 2.0, 5.0):
            fit = fit_affine_l2_constrained(s, L)
            assert fit.map.lipschitz <= L * (1.0 + 1e-9)
            assert fit.residual_sq <= prev + 1e-12
            prev = fit.residual_sq


class TestMinimax:
    def test_parabola(self):
        # minimax line for x^2 on [-1, 1] is b = 1/2 with deviation 1/2
        s = line_samples(-1.0, 1.0, 2001, lambda x: x * x)
        fit = fit_affine_minimax(s)
        assert fit.map.a[0] == pytest.approx(0.0, abs=1e-6)
        assert fit.map.intercept == pytest.approx(0.5, abs=1e-3)
        assert fit.residual_sq == pytest.approx(0.5, rel=1e-3)

    def test_vee(self):
        s = line_samples(-1.0, 1.0, 2001, np.abs)
        fit = fit_affine_minimax(s)
        assert fit.map.a[0] == pytest.approx(0.0, abs=1e-6)
        assert fit.residual_sq == pytest.approx(0.5, rel=1e-3)

    def test_affine_is_zero(self):
        rng = stream(9, "mm")
        x = rng.uniform(0, 1, (50, 2))
        y = x @ np.array([0.4, -0.2]) + 0.1
        fit = fit_affine_minimax(SampleSet(x, y, np.ones(50)))
        assert fit.residual_sq <= 1e-10

    def test_lp_oracle_2d(self):
        rng = stream(9, "mm2")
        x = rng.uniform(0, 1, (120, 2))
        y = np.abs(x[:, 0] - 0.3) + 0.5 * np.sin(3 * x[:, 1])
        s = SampleSet(x, y, np.ones(120))
        fit = fit_affine_minimax(s)
        _, _, h = lp_minimax_oracle(x, y)
        assert fit.residual_sq == pytest.approx(h, rel=1e-8, abs=1e-12)

    def test_lp_oracle_1d(self):
        rng = stream(9, "mm1")
        x = rng.uniform(-1, 1, (80, 1))
        y = np.exp(x[:, 0])
        s = SampleSet(x, y, np.ones(80))
        fit = fit_affine_minimax(s)
        _, _, h = lp_minimax_oracle(x, y)
        assert fit.residual_sq == pytest.approx(h, rel=1e-10, abs=1e-13)

    def test_constrained_lp_oracle(self):
        s = line_samples(0.0, 1.0, 301, lambda x: 2.0 * x)
        fit = fit_affine_minimax(s, L=1.0)
        assert fit.map.lipschitz <= 1.0 + 1e-12
        _, _, h = lp_minimax_oracle(s.x, s.y, L=1.0)
        assert fit.residual_sq == pytest.approx(h, rel=1e-6)

    def test_dominates_rms(self):
        rng = stream(9, "rms")
        x = rng.uniform(0, 1, (64, 2))
        y = np.abs(x[:, 0] - 0.5)
        w = np.full(64, 1.0 / 64.0)
        s = SampleSet(x, y, w)
        mm = fit_affine_minimax(s)
        l2 = fit_affine_l2(s)
        assert mm.residual_sq >= np.sqrt(l2.residual_sq) - 1e-12

    def test_duplicated_abscissas_fall_through(self):
        # envelope-style cloud: repeated x with different y still has a
        # well-defined minimax line
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        fit = fit_affine_minimax(SampleSet(x, y, np.ones(4)))
        assert fit.residual_sq == pytest.approx(0.5, abs=1e-9)


class TestLp:
    def test_never_worse_than_l2(self):
        rng = stream(9, "lp")
        x = rng.uniform(0, 1, (100, 2))
        y = np.abs(x[:, 0] - 0.4) + x[:, 1]
        s = SampleSet(x, y, np.ones(100))
        for p in (1.0, 1.5, 3.0, 6.0):
            fit = fit_affine_lp(s, p)
            l2 = fit_affine_l2(s)
            r = np.abs(s.y - l2.map(s.x))
            l2_obj = float(s.w @ r ** p / s.w.sum())
            assert fit.residual_sq <= l2_obj + 1e-15

    def test_exact_affine(self):
        x = np.linspace(0, 1, 20)[:, None]
        y = 2 * x[:, 0] + 1
        fit = fit_affine_lp(SampleSet(x, y, np.ones(20)), 4.0)
        assert fit.residual_sq <= 1e-20


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


def parent_constrained(samples, L):
    """The two-pass constrained fit as it was written before the shared moments kernel."""
    x, y, w = samples.x, samples.y, samples.w
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

    design = np.hstack([x, np.ones((samples.n, 1))]) * np.sqrt(w)[:, None]
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
    @given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(1, 3), K=st.integers(2, 6),
           N=st.integers(2, 30))
    def test_stack_rows_equal_scalar_fits(self, seed, d, K, N):
        x, y, w = random_sets(seed, d, K, N)
        ok, a, b = fitting._fit_affine_l2_stack(x, y, w)
        for k in range(K):
            try:
                amap = fit_affine_l2(SampleSet(x[k], y[k], w[k])).map
            except RankDeficient:
                assert not ok[k]
                continue
            if not ok.any():
                continue  # a singular stacked solve gives up on the whole block
            assert ok[k]
            assert amap.gradient == tuple(a[k]) and amap.intercept == b[k]

    @given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(1, 3), N=st.integers(2, 30),
           factor=st.sampled_from([0.3, 2.0]))
    def test_constrained_equals_two_pass_reference(self, seed, d, N, factor):
        x, y, w = random_sets(seed, d, 1, N)
        s = SampleSet(x[0], y[0], w[0])
        try:
            free = fit_affine_l2(s).map.lipschitz
        except RankDeficient:
            with pytest.raises(RankDeficient):
                fit_affine_l2_constrained(s, 1.0)
            return
        L = max(free, 1e-3) * factor
        a, b, res = parent_constrained(s, L)
        fit = fit_affine_l2_constrained(s, L)
        assert fit.map.gradient == tuple(a) and fit.map.intercept == b
        assert fit.residual_sq == res
