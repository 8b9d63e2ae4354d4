import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibeta import beta as betamod
from multibeta import fitting
from multibeta import parabolic as pbmod
from multibeta.beta import QuadratureSpec, midpoint_mesh, midpoint_nodes
from multibeta.calibration import C_HOLD
from multibeta.errors import BoundViolation, MultibetaError
from multibeta.funcmodel import (EUCLIDEAN_CATALOG, FunctionField, default_parabolic_catalog,
                                 make_field)
from multibeta.geometry import AffineMap, Box, DyadicBox, ParabolicBox, dyadic_levels
from multibeta.parabolic import (PARABOLIC_SELECTORS, ParabolicSample, coefficient_table,
                                 combine_affine_bound,
                                 dt_carleson_quotient, holder_exponent_check,
                                 horizontal_affinity, horizontal_affinity_level,
                                 parabolic_beta2,
                                 parabolic_beta_inf, parabolic_carleson_sum,
                                 rademacher_probe, vertical_osc)
from multibeta.rng import stream

QUAD = QuadratureSpec(nodes=9)
FINE = QuadratureSpec(nodes=129)
UNIT = ParabolicBox(Box((0.0,), (1.0,)), 0.0, 1.0)
# spatial [-1, 1]; the time length breaks the side^2 relation on purpose
WIDE = ParabolicBox(Box((-1.0,), (2.0,)), 0.0, 1.0)


def additive(space, time, **space_params):
    return make_field("p_additive", 2, space=space, space_params=space_params, time=time)


SQUARE_T = additive("square", "linear")   # psi = x^2 + t
SQUARE_0 = additive("square", "zero")     # psi = x^2
SIN_T = additive("affine", "sin", a=[0.0], b=0.0)   # psi = sin t
LINEAR_T = additive("affine", "linear", a=[0.0], b=0.0)  # psi = t


def count_top_level_evals(monkeypatch):
    """A list that gets True for each top-level FunctionField.eval call (and
    False for a nested one: p_additive evaluates its spatial field inside)."""
    depth, top = [0], []
    evaluate = FunctionField.eval

    def counted(self, points):
        top.append(depth[0] == 0)
        depth[0] += 1
        try:
            return evaluate(self, points)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(FunctionField, "eval", counted)
    return top


class TestAffinity:
    def test_time_varying_affine_is_zero(self):
        psi = make_field("p_product", 2, a0=[1.0], a1=[0.5], b1=1.0)
        assert horizontal_affinity(ParabolicSample.of(psi, UNIT, QUAD)) <= 1e-12

    def test_parabola_closed_form(self):
        # per-time misfit of x^2 on [-1, 1] is 4/45; affinity divides by the
        # spatial diameter 2, giving 1/sqrt(45)
        box = ParabolicBox(Box((-1.0,), (2.0,)), 0.0, 4.0)
        val = horizontal_affinity(ParabolicSample.of(SQUARE_0, box, FINE))
        assert val == pytest.approx(1.0 / math.sqrt(45.0), rel=1e-3)

    def test_constrained_steep_line(self):
        # fitting 2x with |a| <= 1 on [0, 1] leaves residual x - 1/2
        psi = additive("affine", "zero", a=[2.0], b=0.0)
        val = horizontal_affinity(ParabolicSample.of(psi, UNIT, FINE), L=1.0)
        assert val == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-4)

    def test_l_monotone(self):
        psi = additive("pwlinear", "sin", xs=[0.0, 0.4, 1.0], ys=[0.8, 0.0, 1.2])
        free = horizontal_affinity(ParabolicSample.of(psi, UNIT, QUAD))
        for L_small, L_big in ((0.5, 1.0), (1.0, 2.0)):
            v_small = horizontal_affinity(ParabolicSample.of(psi, UNIT, QUAD), L=L_small)
            v_big = horizontal_affinity(ParabolicSample.of(psi, UNIT, QUAD), L=L_big)
            assert v_small >= v_big - 1e-14
            assert v_big >= free - 1e-14


class TestOsc:
    def test_time_independent_zero(self):
        val = vertical_osc(ParabolicSample.of(SQUARE_0, UNIT, QUAD))
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_linear_time_discrete_variance(self):
        # variance of the N midpoint nodes of [0, 1] is (1 - 1/N^2)/12
        for quad in (QUAD, FINE):
            N = quad.nodes
            expect = math.sqrt((1.0 - 1.0 / N ** 2) / 12.0)
            val = vertical_osc(ParabolicSample.of(LINEAR_T, UNIT, quad))
            assert val == pytest.approx(expect, rel=1e-12)

    def test_constant_zero(self):
        psi = additive("affine", "zero", a=[0.0], b=5.0)
        assert vertical_osc(ParabolicSample.of(psi, UNIT, QUAD)) == 0.0


class TestBeta2:
    def test_spatial_affine_zero(self):
        psi = additive("affine", "zero", a=[0.7], b=0.2)
        assert parabolic_beta2(ParabolicSample.of(psi, UNIT, QUAD)) <= 1e-14

    def test_linear_time_exact(self):
        # residual of the best x-only fit to psi = t is the discrete time
        # variance; the parabolic diameter of the unit box is 1 + 1 = 2
        N = QUAD.nodes
        mass = (1.0 - 1.0 / N ** 2) / 12.0
        expect = math.sqrt(mass / 2.0 ** 3) / 2.0
        val = parabolic_beta2(ParabolicSample.of(LINEAR_T, UNIT, QUAD))
        assert val == pytest.approx(expect, rel=1e-12)

    def test_feasible_l_is_free(self):
        psi = additive("pwlinear", "sin", xs=[0.0, 0.4, 1.0], ys=[0.4, 0.0, 0.6])
        s = ParabolicSample.of(psi, UNIT, QUAD)
        assert parabolic_beta2(s, L=10.0) == pytest.approx(parabolic_beta2(s), abs=1e-14)

    def test_l_monotone(self):
        psi = additive("affine", "zero", a=[2.0], b=0.0)
        assert (parabolic_beta2(ParabolicSample.of(psi, UNIT, QUAD), L=0.5)
                >= parabolic_beta2(ParabolicSample.of(psi, UNIT, QUAD), L=1.5) - 1e-14)


class TestBetaInf:
    def test_spatial_affine_zero(self):
        psi = additive("affine", "zero", a=[0.7], b=0.2)
        assert parabolic_beta_inf(ParabolicSample.of(psi, UNIT, QUAD)) <= 1e-12

    def test_bounded_by_lipschitz(self):
        psi = additive("cone", "sin", x0=[0.4])
        val = parabolic_beta_inf(ParabolicSample.of(psi, UNIT, QUAD))
        assert 0.0 < val <= psi.lipschitz


class TestCombine:
    def test_affine_certificate(self):
        psi = additive("affine", "zero", a=[0.7], b=0.2)
        A, residual_sq, cert = combine_affine_bound(ParabolicSample.of(psi, UNIT, QUAD))
        assert residual_sq <= 1e-24
        assert cert["holds"]
        assert A.a[0] == pytest.approx(0.7, abs=1e-12)

    def test_parabola_time_mean(self):
        # every slice fit of x^2 on [-1, 1] is the constant 1/3, so the time
        # mean is too, beta_v vanishes and the residual is exactly beta_h
        A, residual_sq, cert = combine_affine_bound(ParabolicSample.of(SQUARE_0, WIDE, FINE))
        assert A.a[0] == pytest.approx(0.0, abs=1e-10)
        # midpoint-node mean of x^2 carries an O(1/N^2) bias
        assert A.intercept == pytest.approx(1.0 / 3.0, abs=2.0 / FINE.nodes ** 2)
        assert cert["beta_v"] <= 1e-20
        assert residual_sq == pytest.approx(cert["beta_h"], rel=1e-10)

    def test_additive_time_shift(self):
        # psi = x^2 + t only shifts each intercept; the time mean adds the
        # mean of t over [0, 1]
        A, _, cert = combine_affine_bound(ParabolicSample.of(SQUARE_T, WIDE, FINE))
        assert A.intercept == pytest.approx(1.0 / 3.0 + 0.5, abs=2.0 / FINE.nodes ** 2)
        assert cert["holds"]

    def test_certificate_holds_on_catalog(self):
        for psi in default_parabolic_catalog(2):
            _, residual_sq, cert = combine_affine_bound(ParabolicSample.of(psi, UNIT, QUAD))
            assert residual_sq <= cert["bound"] + 1e-10
            assert cert["holds"]

    def test_constrained_mean_is_feasible(self):
        psi = additive("affine", "zero", a=[2.0], b=0.0)
        A, _, _ = combine_affine_bound(ParabolicSample.of(psi, UNIT, QUAD), L=1.0)
        assert A.lipschitz <= 1.0 + 1e-9

    def test_steep_slice_fits_are_a_numerical_failure(self, monkeypatch):
        # slice fits that break |a| <= L make the time mean too steep; that
        # is a package error (CLI exit 3), not an assertion
        def steep(x, y, w, p, L=None):
            return np.full((len(x), 1), 5.0), np.zeros(len(x)), np.zeros(len(x))

        monkeypatch.setattr(fitting, "fit_rows", steep)
        psi = additive("affine", "zero", a=[2.0], b=0.0)
        with pytest.raises(BoundViolation) as info:
            combine_affine_bound(ParabolicSample.of(psi, UNIT, QUAD), L=1.0)
        assert isinstance(info.value, MultibetaError)


class TestDtQuotient:
    def test_time_independent_zero(self):
        val, band = dt_carleson_quotient(ParabolicSample.of(SQUARE_0, UNIT, QUAD))
        assert val == 0.0
        assert band == 0.0

    def test_linear_time_is_one(self):
        # |t - s|^2 / |t - s|^2 = 1 off the diagonal and the band copies it
        val, band = dt_carleson_quotient(ParabolicSample.of(LINEAR_T, UNIT, QUAD))
        assert val == pytest.approx(1.0, abs=1e-12)
        assert band == pytest.approx(1.0 / QUAD.nodes, rel=1e-12)

    def test_sin_regression_lock(self):
        val, band = dt_carleson_quotient(ParabolicSample.of(SIN_T, UNIT, QUAD))
        assert val == pytest.approx(0.735012083045796, abs=1e-14)
        assert band == pytest.approx(0.07755936948819912, abs=1e-14)
        assert val <= 1.0  # sine is a time contraction


class TestCoefficientTable:
    def test_fields_consistent(self):
        psi = additive("cone", "sin", x0=[0.4])
        table = coefficient_table(psi, UNIT, QUAD, L=2.0)
        assert table["affinity"] == pytest.approx(
            horizontal_affinity(ParabolicSample.of(psi, UNIT, QUAD)))
        assert table["beta2_L"] >= table["beta2"] - 1e-14
        assert table["dt_quotient"] is not None and table["dt_band"] is not None


class TestParabolicCarleson:
    def test_spatial_affine_total_zero(self):
        psi = additive("affine", "zero", a=[0.4], b=0.1)
        rep = parabolic_carleson_sum(psi, DyadicBox(0, (0, 0), (2, 4)), 3.0, 3,
                                     "beta2", QUAD)
        assert rep.total <= 1e-24

    def test_time_independent_osc_zero(self):
        rep = parabolic_carleson_sum(SQUARE_0, DyadicBox(0, (0, 0), (2, 4)), 3.0, 2,
                                     "osc", QUAD)
        assert rep.total <= 1e-30

    def test_counts_and_monotone(self):
        psi = additive("cone", "sin", x0=[0.4])
        rep = parabolic_carleson_sum(psi, DyadicBox(0, (0, 0), (2, 4)), 3.0, 2,
                                     "beta2", QUAD)
        assert rep.counts == [1, 8, 64]
        assert all(b >= a for a, b in zip(rep.cumulative, rep.cumulative[1:]))

    def test_regression_profile(self):
        psi = additive("pwlinear", "sin", xs=[0.0, 1.0 / 3.0, 1.0],
                       ys=[1.0 / 3.0, 0.0, 2.0 / 3.0])
        quad = QuadratureSpec(nodes=9, mc_samples=256, seed=0)
        rep = parabolic_carleson_sum(psi, DyadicBox(0, (0, 0), (2, 4)), 3.0, 5,
                                     "beta2", quad)
        expect = [0.0021087083839054573, 0.0009303175399921148,
                  0.00034979832460555247, 0.0001430484154349218,
                  6.354275745226779e-05, 2.977572280541773e-05]
        assert rep.per_scale == pytest.approx(expect, rel=1e-12)
        assert rep.total == pytest.approx(0.003625191144195732, rel=1e-12)

    @pytest.mark.parametrize("selector", list(PARABOLIC_SELECTORS))
    def test_every_selector_walks_the_tree(self, selector):
        psi = additive("cone", "sin", x0=[0.4])
        rep = parabolic_carleson_sum(psi, DyadicBox(0, (0, 0), (2, 4)), 3.0, 1,
                                     selector, QuadratureSpec(nodes=3), L=0.7)
        # the sup coefficient packs at the n + 3 power, the others squared
        assert rep.power == (5.0 if selector == "betainf" else 2.0)
        assert rep.counts == [1, 8]
        assert [node.level for node, _ in rep.nodes] == [0] + [1] * 8
        assert all(math.isfinite(val) and val >= 0 for _, val in rep.nodes)

    def test_missing_l_rejected(self):
        with pytest.raises(ValueError):
            parabolic_carleson_sum(SQUARE_0, DyadicBox(0, (0, 0), (2, 4)), 3.0, 1,
                                   "beta2L", QUAD)


def _any_additive_field(space, time, n, rng):
    """p_additive on R^{n-1} x R with any Euclidean space part, its parameters drawn from rng."""
    m = n - 1
    params = {
        "affine": dict(a=rng.uniform(-1.0, 1.0, m).tolist(), b=float(rng.uniform(-1.0, 1.0))),
        "pwlinear": dict(xs=(np.sort(rng.uniform(-2.0, 2.0, 5)) + np.arange(5) * 1e-3).tolist(),
                         ys=rng.uniform(-1.0, 1.0, 5).tolist()),
        "cone": dict(x0=rng.uniform(-2.0, 2.0, m).tolist()),
        "distset": dict(points=rng.uniform(-2.0, 2.0, (3, m)).tolist()),
        "bump": dict(x0=rng.uniform(-1.0, 1.0, m).tolist(), scale=float(rng.uniform(0.2, 1.0))),
        "square": {},
    }
    return make_field("p_additive", n, space=space, space_params=params[space], time=time)


def _scalar_affinity(psi, frontier, dilation, quad, L):
    coefficient = PARABOLIC_SELECTORS["A" if L is None else "AL"][0]
    return [coefficient(ParabolicSample.of(psi, node.as_parabolic_box().dilate(dilation), quad), L)
            for node in frontier]


class TestAffinityLevel:
    """horizontal_affinity_level equals the scalar A and AL selectors box by box, exactly."""

    @settings(max_examples=60)
    @given(space=st.sampled_from(EUCLIDEAN_CATALOG),
           time=st.sampled_from(["zero", "sin", "linear"]), n=st.integers(2, 3),
           nodes=st.sampled_from([3, 5, 7, 9]), dilation=st.floats(1.0, 4.0),
           level=st.integers(0, 3), seed=st.integers(0, 2 ** 31 - 1),
           L=st.one_of(st.none(), st.floats(0.05, 5.0), st.just(1e-20)))
    def test_level_equals_scalar(self, space, time, n, nodes, dilation, level, seed, L):
        rng = np.random.default_rng(seed)
        psi = _any_additive_field(space, time, n, rng)
        index = tuple(int(k) for k in rng.integers(-4, 4, n))
        root = DyadicBox(level, index, (2,) * (n - 1) + (4,))
        quad = QuadratureSpec(nodes=nodes)
        # the 8 (n = 2) or 16 (n = 3) children span several blocks of 7
        for frontier in dyadic_levels(root, 1):
            with mock.patch.object(betamod, "ROW_BLOCK", 7):
                values = horizontal_affinity_level(psi, frontier, dilation, quad, L)
            assert values == _scalar_affinity(psi, frontier, dilation, quad, L)

    @pytest.mark.parametrize("marked", [slice(1, None, 3), slice(None)], ids=["some", "all"])
    @pytest.mark.parametrize("L", [None, 0.5])
    def test_rows_not_ok_take_the_scalar_path(self, marked, L, monkeypatch):
        psi = additive("cone", "sin", x0=[0.4])
        quad = QuadratureSpec(nodes=5)
        frontier = list(dyadic_levels(DyadicBox(1, (-1, 2), (2, 4)), 1))[-1]
        expect = _scalar_affinity(psi, frontier, 2.0, quad, L)
        name = "fit_affine_l2_stack" if L is None else "fit_affine_l2_constrained_stack"
        stack, affine_fit, slices = getattr(fitting, name), fitting.affine_fit, []

        def marking(*args):
            ok, a, b = stack(*args)
            if len(ok) > 1:  # a one-row stack is the scalar fit itself
                ok[marked], a[marked], b[marked] = False, np.nan, np.nan
            return ok, a, b

        def counting(x, y, w, p, L=None):
            slices.append(y)
            return affine_fit(x, y, w, p, L)

        monkeypatch.setattr(fitting, name, marking)
        monkeypatch.setattr(fitting, "affine_fit", counting)
        monkeypatch.setattr(betamod, "ROW_BLOCK", 3)
        assert horizontal_affinity_level(psi, frontier, 2.0, quad, L) == expect
        # blocks of 3, 3 and 2 boxes, 5 time slices each
        blocks = [range(15), range(15), range(10)]
        assert len(slices) == sum(len(rows[marked]) for rows in blocks)

    @pytest.mark.parametrize("L", [None, 0.5])
    def test_one_field_call_per_block(self, L, monkeypatch):
        psi = additive("cone", "sin", x0=[0.4])
        frontier = list(dyadic_levels(DyadicBox(1, (-1, 2), (2, 4)), 1))[-1]
        expect = _scalar_affinity(psi, frontier, 2.0, QuadratureSpec(nodes=5), L)
        top = count_top_level_evals(monkeypatch)
        monkeypatch.setattr(betamod, "ROW_BLOCK", 3)
        assert horizontal_affinity_level(psi, frontier, 2.0, QuadratureSpec(nodes=5), L) == expect
        assert sum(top) == 3  # blocks of 3, 3 and 2 boxes

    @pytest.mark.parametrize("selector", ["A", "AL", "beta2"])
    def test_carleson_walk_uses_the_level_values(self, selector):
        psi = additive("cone", "sin", x0=[0.4])
        quad = QuadratureSpec(nodes=5)
        with mock.patch.object(pbmod, "horizontal_affinity_level",
                               wraps=horizontal_affinity_level) as spy:
            rep = parabolic_carleson_sum(psi, DyadicBox(0, (0, 0), (2, 4)), 3.0, 2, selector,
                                         quad, L=0.5)
        if selector == "beta2":
            assert spy.call_count == 0
            return
        assert spy.call_count == 3
        L = 0.5 if selector == "AL" else None
        assert [v for _, v in rep.nodes] == _scalar_affinity(psi, [q for q, _ in rep.nodes],
                                                             3.0, quad, L)


def holder_boxes():
    rng = stream(11, "holder-boxes")
    boxes = []
    for _ in range(64):
        side = rng.uniform(0.1, 0.4)
        x0 = rng.uniform(-0.5, 0.5)
        t0 = rng.uniform(0.0, 0.5)
        boxes.append(ParabolicBox(Box((x0,), (side,)), t0, side * side))
    return boxes


class TestHolder:
    def test_exponent(self):
        psi = additive("cone", "sin", x0=[0.0])
        rep = holder_exponent_check(psi, [UNIT], 2.0, QUAD)
        assert rep.exponent == pytest.approx(0.4)  # 2/(n+3) with n = 2

    def test_affine_vacuous(self):
        psi = additive("affine", "zero", a=[0.5], b=0.0)
        rep = holder_exponent_check(psi, [UNIT], 2.0, QUAD)
        assert rep.ratios[0] == 0.0

    def test_frozen_constant_reproduces(self):
        psi = additive("cone", "sin", x0=[0.0])
        rep = holder_exponent_check(psi, holder_boxes(), 2.0, QUAD,
                                    c_hold=C_HOLD[2])
        assert not rep.violations
        assert rep.c_hold == pytest.approx(C_HOLD[2], rel=1e-3)

    def test_l_below_one_rejected(self):
        psi = additive("cone", "sin", x0=[0.0])
        with pytest.raises(ValueError):
            holder_exponent_check(psi, [UNIT], 0.5, QUAD)


class TestRademacherProbe:
    def test_smooth_linear(self):
        psi = additive("affine", "zero", a=[2.0], b=0.3)
        probe = rademacher_probe(psi, (0.5, 0.5), [0.2, 0.1, 0.05], QUAD)
        assert probe.gradient[0] == pytest.approx(2.0, abs=1e-10)
        assert max(probe.eps) <= 1e-10

    def test_smooth_curved_slope_one(self):
        probe = rademacher_probe(SQUARE_T, (0.3, 0.5),
                                 [0.2, 0.1, 0.05, 0.025, 0.0125], QUAD)
        assert probe.gradient[0] == pytest.approx(0.6, abs=0.02)
        assert probe.slope == pytest.approx(1.0, abs=0.1)
        # quotient at radius r is O(r) for a C^1 function
        for r, e in zip(probe.radii, probe.eps):
            assert e <= 3.0 * r

    def test_kink_does_not_flatten(self):
        psi = additive("cone", "zero", x0=[0.0])
        probe = rademacher_probe(psi, (0.0, 0.5), [0.2, 0.1, 0.05, 0.025], QUAD)
        for e in probe.eps:
            assert e == pytest.approx(1.0, rel=0.1)
        assert abs(probe.slope) <= 0.1

    def test_radii_must_decrease(self):
        with pytest.raises(ValueError):
            rademacher_probe(SQUARE_0, (0.5, 0.5), [0.1, 0.2], QUAD)


# The coefficients as they were when each one sampled psi on its box itself,
# frozen: the single-sample path must reproduce every bit of them.
def _ref_sample(psi, pbox, quad):
    X = midpoint_mesh(pbox.spatial.lo, pbox.spatial.sides, quad.nodes)
    wx = np.full(X.shape[0], pbox.spatial.volume / X.shape[0])
    t = midpoint_nodes(pbox.t0, pbox.t_len, quad.nodes)
    Ns, Nt = X.shape[0], t.shape[0]
    pts = np.concatenate([np.repeat(X, Nt, axis=0), np.tile(t, Ns)[:, None]], axis=1)
    return X, wx, t, np.full(quad.nodes, pbox.t_len / quad.nodes), psi.eval(pts).reshape(Ns, Nt)


def _ref_slice_fits(X, vals, wx, L):
    out = []
    for k in range(vals.shape[1]):
        amap = fitting.affine_fit(X, vals[:, k], wx, 2, L)
        r = vals[:, k] - amap(X)
        out.append((amap, float(wx @ (r * r))))
    return out


def _ref_time_variance(vals, wx, wt):
    Wt = wt.sum()
    means = vals @ wt / Wt
    return float(wx @ (((vals - means[:, None]) ** 2) @ wt / Wt) / wx.sum())


def _ref_affinity(psi, pbox, quad, L=None):
    X, wx, t, wt, vals = _ref_sample(psi, pbox, quad)
    W = wx.sum()
    acc = 0.0
    for k, (_, sq) in enumerate(_ref_slice_fits(X, vals, wx, L)):
        acc += wt[k] * sq / W
    return math.sqrt(acc / wt.sum()) / pbox.spatial.diameter


def _ref_osc(psi, pbox, quad):
    X, wx, t, wt, vals = _ref_sample(psi, pbox, quad)
    return math.sqrt(_ref_time_variance(vals, wx, wt) / pbox.t_len)


def _ref_beta2(psi, pbox, quad, L=None):
    X, wx, t, wt, vals = _ref_sample(psi, pbox, quad)
    X = np.repeat(X, t.size, axis=0)
    y = vals.ravel()
    w = np.outer(wx, wt).ravel()
    r = y - fitting.affine_fit(X, y, w, 2, L)(X)
    diam = pbox.diameter
    return math.sqrt(float(w @ (r * r)) / diam ** (pbox.dim + 1)) / diam


def _ref_beta_inf(psi, pbox, quad, L=None):
    X, wx, t, wt, vals = _ref_sample(psi, pbox, quad)
    Xe = np.vstack([X, X])
    ye = np.concatenate([vals.max(axis=1), vals.min(axis=1)])
    amap = fitting.affine_fit(Xe, ye, np.ones(ye.size), math.inf, L)
    return float(np.max(np.abs(ye - amap(Xe)))) / pbox.diameter


def _ref_combine(psi, pbox, quad, L=None):
    X, wx, t, wt, vals = _ref_sample(psi, pbox, quad)
    W = wx.sum()
    Wt = wt.sum()
    grads = np.zeros((t.size, X.shape[1]))
    icepts = np.zeros(t.size)
    beta_h = 0.0
    for k, (amap, sq) in enumerate(_ref_slice_fits(X, vals, wx, L)):
        grads[k] = amap.a
        icepts[k] = amap.intercept
        beta_h += wt[k] / Wt * sq / W
    a_bar = wt @ grads / Wt
    b_bar = float(wt @ icepts / Wt)
    A = AffineMap(tuple(a_bar), b_bar)
    if L is not None and A.lipschitz > L * (1.0 + 1e-12):
        raise BoundViolation("time mean of L-Lipschitz maps exceeded L")
    beta_v = _ref_time_variance(vals, wx, wt)
    r_all = vals - (X @ a_bar)[:, None] - b_bar
    residual_sq = float(wx @ ((r_all ** 2) @ wt / Wt)) / W
    beta_h = float(beta_h)
    return A, residual_sq, {
        "beta_h": beta_h,
        "beta_v": beta_v,
        "bound": 6.0 * beta_h + 4.0 * beta_v,
        "holds": bool(residual_sq <= 6.0 * beta_h + 4.0 * beta_v + 1e-10),
    }


def _ref_dt(psi, pbox, quad):
    X, wx, t, wt, vals = _ref_sample(psi, pbox, quad)
    Nt = t.size
    h = pbox.t_len / Nt
    diff_t = t[:, None] - t[None, :]
    off = np.abs(diff_t) >= h * (1.0 - 1e-12)
    dv = vals[:, :, None] - vals[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = np.where(off[None, :, :], (dv / diff_t[None, :, :]) ** 2, 0.0)
    band = np.zeros_like(quot)
    for k in range(Nt):
        nb = k + 1 if k + 1 < Nt else k - 1
        band[:, k, k] = quot[:, k, nb]
    wtt = np.outer(wt, wt)
    total = float(wx @ ((quot + band) * wtt[None, :, :]).sum(axis=(1, 2)))
    band_part = float(wx @ (band * wtt[None, :, :]).sum(axis=(1, 2)))
    return total / pbox.volume, band_part / pbox.volume


def _ref_table(psi, pbox, quad, L=None):
    dt_val, dt_band = _ref_dt(psi, pbox, quad)
    return {
        "affinity": _ref_affinity(psi, pbox, quad),
        "osc": _ref_osc(psi, pbox, quad),
        "beta2": _ref_beta2(psi, pbox, quad),
        "beta_inf": _ref_beta_inf(psi, pbox, quad),
        "affinity_L": None if L is None else _ref_affinity(psi, pbox, quad, L),
        "beta2_L": None if L is None else _ref_beta2(psi, pbox, quad, L),
        "beta_inf_L": None if L is None else _ref_beta_inf(psi, pbox, quad, L),
        "dt_quotient": dt_val,
        "dt_band": dt_band,
    }


REF_SELECTORS = {
    "beta2": lambda psi, pbox, quad, L: _ref_beta2(psi, pbox, quad),
    "beta2L": lambda psi, pbox, quad, L: _ref_beta2(psi, pbox, quad, L),
    "A": lambda psi, pbox, quad, L: _ref_affinity(psi, pbox, quad),
    "AL": lambda psi, pbox, quad, L: _ref_affinity(psi, pbox, quad, L),
    "osc": lambda psi, pbox, quad, L: _ref_osc(psi, pbox, quad),
    "betainf": lambda psi, pbox, quad, L: _ref_beta_inf(psi, pbox, quad),
}


def _outcome(fn, *args):
    """fn(*args), or the type of the package error it raised."""
    try:
        return fn(*args)
    except MultibetaError as exc:
        return type(exc)


class TestOneSample:
    @given(index=st.integers(0, len(default_parabolic_catalog(2)) - 1),
           x0=st.floats(-1.0, 1.0), side=st.floats(0.05, 2.0),
           t0=st.floats(-1.0, 1.0), t_len=st.floats(0.01, 2.0),
           nodes=st.sampled_from([3, 5, 7, 9, 11]),
           L=st.one_of(st.none(), st.floats(0.05, 5.0)))
    def test_matches_resampling_reference_bit_for_bit(self, index, x0, side, t0, t_len,
                                                       nodes, L):
        psi = default_parabolic_catalog(2)[index]
        pbox = ParabolicBox(Box((x0,), (side,)), t0, t_len)
        quad = QuadratureSpec(nodes=nodes)
        assert coefficient_table(psi, pbox, quad, L) == _ref_table(psi, pbox, quad, L)
        s = ParabolicSample.of(psi, pbox, quad)
        for name, (coefficient, _, needs_L) in PARABOLIC_SELECTORS.items():
            if L is not None or not needs_L:
                assert coefficient(s, L) == REF_SELECTORS[name](psi, pbox, quad, L), name
        assert (_outcome(combine_affine_bound, s, L)
                == _outcome(_ref_combine, psi, pbox, quad, L))

    @given(index=st.integers(0, len(default_parabolic_catalog(2)) - 1), n=st.integers(2, 3),
           x0=st.floats(-1.0, 1.0), side=st.floats(0.05, 2.0), t0=st.floats(-1.0, 1.0),
           t_len=st.floats(0.01, 2.0), nodes=st.sampled_from([3, 5, 7, 9, 11]))
    def test_sample_equals_the_frozen_sampler(self, index, n, x0, side, t0, t_len, nodes):
        psi = default_parabolic_catalog(n)[index]
        pbox = ParabolicBox(Box((x0,) * (n - 1), (side,) * (n - 1)), t0, t_len)
        quad = QuadratureSpec(nodes=nodes)
        s = ParabolicSample.of(psi, pbox, quad)
        assert s.pbox == pbox
        for got, ref in zip(s[1:], _ref_sample(psi, pbox, quad)):
            assert got.shape == ref.shape and got.tolist() == ref.tolist()
        # combine_affine_bound's X @ a_bar has the bits of a C-contiguous X
        assert s.X.flags.c_contiguous

    def test_table_evaluates_the_field_once(self, monkeypatch):
        top = count_top_level_evals(monkeypatch)
        coefficient_table(additive("cone", "sin", x0=[0.4]), UNIT, QUAD, L=0.5)
        assert sum(top) == 1
