import math

import numpy as np
import pytest

from multibeta import fitting
from multibeta.beta import QuadratureSpec
from multibeta.calibration import C_HOLD
from multibeta.errors import BoundViolation, MultibetaError
from multibeta.funcmodel import make_field
from multibeta.geometry import AffineMap, Box, DyadicParabolicBox, ParabolicBox
from multibeta.parabolic import (PARABOLIC_SELECTORS, coefficient_table,
                                 combine_affine_bound,
                                 dt_carleson_quotient, holder_exponent_check,
                                 horizontal_affinity, parabolic_beta2,
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


class TestAffinity:
    def test_time_varying_affine_is_zero(self):
        psi = make_field("p_product", 2, a0=[1.0], a1=[0.5], b1=1.0)
        assert horizontal_affinity(psi, UNIT, QUAD) <= 1e-12

    def test_parabola_closed_form(self):
        # per-time misfit of x^2 on [-1, 1] is 4/45; affinity divides by the
        # spatial diameter 2, giving 1/sqrt(45)
        box = ParabolicBox(Box((-1.0,), (2.0,)), 0.0, 4.0)
        val = horizontal_affinity(SQUARE_0, box, FINE)
        assert val == pytest.approx(1.0 / math.sqrt(45.0), rel=1e-3)

    def test_constrained_steep_line(self):
        # fitting 2x with |a| <= 1 on [0, 1] leaves residual x - 1/2
        psi = additive("affine", "zero", a=[2.0], b=0.0)
        val = horizontal_affinity(psi, UNIT, FINE, L=1.0)
        assert val == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-4)

    def test_l_monotone(self):
        psi = additive("pwlinear", "sin", xs=[0.0, 0.4, 1.0], ys=[0.8, 0.0, 1.2])
        free = horizontal_affinity(psi, UNIT, QUAD)
        for L_small, L_big in ((0.5, 1.0), (1.0, 2.0)):
            v_small = horizontal_affinity(psi, UNIT, QUAD, L=L_small)
            v_big = horizontal_affinity(psi, UNIT, QUAD, L=L_big)
            assert v_small >= v_big - 1e-14
            assert v_big >= free - 1e-14


class TestOsc:
    def test_time_independent_zero(self):
        assert vertical_osc(SQUARE_0, UNIT, QUAD) == pytest.approx(0.0, abs=1e-14)

    def test_linear_time_discrete_variance(self):
        # variance of the N midpoint nodes of [0, 1] is (1 - 1/N^2)/12
        for quad in (QUAD, FINE):
            N = quad.nodes
            expect = math.sqrt((1.0 - 1.0 / N ** 2) / 12.0)
            assert vertical_osc(LINEAR_T, UNIT, quad) == pytest.approx(expect, rel=1e-12)

    def test_constant_zero(self):
        psi = additive("affine", "zero", a=[0.0], b=5.0)
        assert vertical_osc(psi, UNIT, QUAD) == 0.0


class TestBeta2:
    def test_spatial_affine_zero(self):
        psi = additive("affine", "zero", a=[0.7], b=0.2)
        assert parabolic_beta2(psi, UNIT, QUAD) <= 1e-14

    def test_linear_time_exact(self):
        # residual of the best x-only fit to psi = t is the discrete time
        # variance; the parabolic diameter of the unit box is 1 + 1 = 2
        N = QUAD.nodes
        mass = (1.0 - 1.0 / N ** 2) / 12.0
        expect = math.sqrt(mass / 2.0 ** 3) / 2.0
        assert parabolic_beta2(LINEAR_T, UNIT, QUAD) == pytest.approx(expect, rel=1e-12)

    def test_feasible_l_is_free(self):
        psi = additive("pwlinear", "sin", xs=[0.0, 0.4, 1.0], ys=[0.4, 0.0, 0.6])
        free = parabolic_beta2(psi, UNIT, QUAD)
        assert parabolic_beta2(psi, UNIT, QUAD, L=10.0) == pytest.approx(free, abs=1e-14)

    def test_l_monotone(self):
        psi = additive("affine", "zero", a=[2.0], b=0.0)
        assert (parabolic_beta2(psi, UNIT, QUAD, L=0.5)
                >= parabolic_beta2(psi, UNIT, QUAD, L=1.5) - 1e-14)


class TestBetaInf:
    def test_spatial_affine_zero(self):
        psi = additive("affine", "zero", a=[0.7], b=0.2)
        assert parabolic_beta_inf(psi, UNIT, QUAD) <= 1e-12

    def test_bounded_by_lipschitz(self):
        psi = additive("cone", "sin", x0=[0.4])
        val = parabolic_beta_inf(psi, UNIT, QUAD)
        assert 0.0 < val <= psi.lipschitz


class TestCombine:
    def test_affine_certificate(self):
        psi = additive("affine", "zero", a=[0.7], b=0.2)
        A, residual_sq, cert = combine_affine_bound(psi, UNIT, QUAD)
        assert residual_sq <= 1e-24
        assert cert["holds"]
        assert A.a[0] == pytest.approx(0.7, abs=1e-12)

    def test_parabola_time_mean(self):
        # every slice fit of x^2 on [-1, 1] is the constant 1/3, so the time
        # mean is too, beta_v vanishes and the residual is exactly beta_h
        A, residual_sq, cert = combine_affine_bound(SQUARE_0, WIDE, FINE)
        assert A.a[0] == pytest.approx(0.0, abs=1e-10)
        # midpoint-node mean of x^2 carries an O(1/N^2) bias
        assert A.intercept == pytest.approx(1.0 / 3.0, abs=2.0 / FINE.nodes ** 2)
        assert cert["beta_v"] <= 1e-20
        assert residual_sq == pytest.approx(cert["beta_h"], rel=1e-10)

    def test_additive_time_shift(self):
        # psi = x^2 + t only shifts each intercept; the time mean adds the
        # mean of t over [0, 1]
        A, _, cert = combine_affine_bound(SQUARE_T, WIDE, FINE)
        assert A.intercept == pytest.approx(1.0 / 3.0 + 0.5, abs=2.0 / FINE.nodes ** 2)
        assert cert["holds"]

    def test_certificate_holds_on_catalog(self):
        from multibeta.funcmodel import default_parabolic_catalog
        for psi in default_parabolic_catalog(2):
            _, residual_sq, cert = combine_affine_bound(psi, UNIT, QUAD)
            assert residual_sq <= cert["bound"] + 1e-10
            assert cert["holds"]

    def test_constrained_mean_is_feasible(self):
        psi = additive("affine", "zero", a=[2.0], b=0.0)
        A, _, _ = combine_affine_bound(psi, UNIT, QUAD, L=1.0)
        assert A.lipschitz <= 1.0 + 1e-9

    def test_steep_slice_fits_are_a_numerical_failure(self, monkeypatch):
        # slice fits that break |a| <= L make the time mean too steep; that
        # is a package error (CLI exit 3), not an assertion
        steep = AffineMap((5.0,), 0.0)
        monkeypatch.setattr(fitting, "affine_fit", lambda x, y, w, p, L=None: steep)
        psi = additive("affine", "zero", a=[2.0], b=0.0)
        with pytest.raises(BoundViolation) as info:
            combine_affine_bound(psi, UNIT, QUAD, L=1.0)
        assert isinstance(info.value, MultibetaError)


class TestDtQuotient:
    def test_time_independent_zero(self):
        val, band = dt_carleson_quotient(SQUARE_0, UNIT, QUAD)
        assert val == 0.0
        assert band == 0.0

    def test_linear_time_is_one(self):
        # |t - s|^2 / |t - s|^2 = 1 off the diagonal and the band copies it
        val, band = dt_carleson_quotient(LINEAR_T, UNIT, QUAD)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert band == pytest.approx(1.0 / QUAD.nodes, rel=1e-12)

    def test_sin_regression_lock(self):
        val, band = dt_carleson_quotient(SIN_T, UNIT, QUAD)
        assert val == pytest.approx(0.735012083045796, abs=1e-14)
        assert band == pytest.approx(0.07755936948819912, abs=1e-14)
        assert val <= 1.0  # sine is a time contraction


class TestCoefficientTable:
    def test_fields_consistent(self):
        psi = additive("cone", "sin", x0=[0.4])
        table = coefficient_table(psi, UNIT, QUAD, L=2.0)
        assert table.affinity == pytest.approx(horizontal_affinity(psi, UNIT, QUAD))
        assert table.beta2_L >= table.beta2 - 1e-14
        assert table.dt_quotient is not None and table.dt_band is not None


class TestParabolicCarleson:
    def test_spatial_affine_total_zero(self):
        psi = additive("affine", "zero", a=[0.4], b=0.1)
        rep = parabolic_carleson_sum(psi, DyadicParabolicBox(0, (0,), 0), 3.0, 3,
                                     "beta2", QUAD)
        assert rep.total <= 1e-24

    def test_time_independent_osc_zero(self):
        rep = parabolic_carleson_sum(SQUARE_0, DyadicParabolicBox(0, (0,), 0), 3.0, 2,
                                     "osc", QUAD)
        assert rep.total <= 1e-30

    def test_counts_and_monotone(self):
        psi = additive("cone", "sin", x0=[0.4])
        rep = parabolic_carleson_sum(psi, DyadicParabolicBox(0, (0,), 0), 3.0, 2,
                                     "beta2", QUAD)
        assert rep.counts == [1, 8, 64]
        assert all(b >= a for a, b in zip(rep.cumulative, rep.cumulative[1:]))

    def test_regression_profile(self):
        psi = additive("pwlinear", "sin", xs=[0.0, 1.0 / 3.0, 1.0],
                       ys=[1.0 / 3.0, 0.0, 2.0 / 3.0])
        quad = QuadratureSpec(nodes=9, mc_samples=256, seed=0)
        rep = parabolic_carleson_sum(psi, DyadicParabolicBox(0, (0,), 0), 3.0, 5,
                                     "beta2", quad)
        expect = [0.0021087083839054573, 0.0009303175399921148,
                  0.00034979832460555247, 0.0001430484154349218,
                  6.354275745226779e-05, 2.977572280541773e-05]
        assert rep.per_scale == pytest.approx(expect, rel=1e-12)
        assert rep.total == pytest.approx(0.003625191144195732, rel=1e-12)

    @pytest.mark.parametrize("selector", list(PARABOLIC_SELECTORS))
    def test_every_selector_walks_the_tree(self, selector):
        psi = additive("cone", "sin", x0=[0.4])
        rep = parabolic_carleson_sum(psi, DyadicParabolicBox(0, (0,), 0), 3.0, 1,
                                     selector, QuadratureSpec(nodes=3), L=0.7)
        # the sup coefficient packs at the n + 3 power, the others squared
        assert rep.power == (5.0 if selector == "betainf" else 2.0)
        assert rep.counts == [1, 8]
        assert [node.level for node, _ in rep.nodes] == [0] + [1] * 8
        assert all(math.isfinite(val) and val >= 0 for _, val in rep.nodes)

    def test_missing_l_rejected(self):
        with pytest.raises(ValueError):
            parabolic_carleson_sum(SQUARE_0, DyadicParabolicBox(0, (0,), 0), 3.0, 1,
                                   "beta2L", QUAD)


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
        assert rep.entries[0].ratio == 0.0

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
