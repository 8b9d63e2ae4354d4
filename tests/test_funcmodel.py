import math

import numpy as np
import pytest

from multibeta.errors import ConfigError, OutOfDomain
from multibeta.funcmodel import (EUCLIDEAN_CATALOG, PARABOLIC_CATALOG,
                                 GridField, default_catalog,
                                 default_parabolic_catalog, lipschitz_estimate,
                                 make_field)
from multibeta.geometry import Box, parabolic_distance
from multibeta.rng import stream


class TestCatalogEval:
    def test_affine_point(self):
        fld = make_field("affine", 2, a=[2.0, 3.0], b=1.0)
        assert fld.eval(np.array([1.0, 1.0])) == pytest.approx(6.0)

    def test_affine_vectorized(self):
        fld = make_field("affine", 2, a=[2.0, 3.0], b=1.0)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(fld.eval(pts), [1.0, 3.0, 4.0])

    def test_cone_vertex(self):
        fld = make_field("cone", 3, x0=[0.2, 0.3, 0.4])
        assert fld.eval(np.array([0.2, 0.3, 0.4])) == 0.0
        assert fld.eval(np.array([1.2, 0.3, 0.4])) == pytest.approx(1.0)

    def test_distset_is_min_distance(self):
        pts0 = np.array([[0.0, 0.0], [1.0, 0.0]])
        fld = make_field("distset", 2, points=pts0)
        assert fld.eval(np.array([0.75, 0.0])) == pytest.approx(0.25)

    def test_pwlinear_breakpoints(self):
        fld = make_field("pwlinear", 1, xs=[0.0, 0.5, 1.0], ys=[0.0, 1.0, 0.0])
        assert fld.eval(np.array([0.25])) == pytest.approx(0.5)
        assert fld.eval(np.array([0.5])) == pytest.approx(1.0)
        # linear extension past the last breakpoint
        assert fld.eval(np.array([1.25])) == pytest.approx(-0.5)

    def test_square(self):
        fld = make_field("square", 2)
        assert fld.eval(np.array([0.5, -0.5])) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        fld = make_field("cone", 2)
        with pytest.raises(ValueError):
            fld.eval(np.array([1.0, 2.0, 3.0]))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_field("nosuchfield", 2)

    def test_parabolic_additive(self):
        fld = make_field("p_additive", 2, space="affine",
                         space_params={"a": [1.0], "b": 0.0}, time="linear")
        assert fld.eval(np.array([0.3, 0.4])) == pytest.approx(0.7)

    def test_parabolic_product(self):
        fld = make_field("p_product", 2, a0=[1.0], a1=[0.0], b1=0.0)
        assert fld.eval(np.array([0.5, 123.0])) == pytest.approx(0.5)

    def test_unknown_time_part(self):
        with pytest.raises(ConfigError):
            make_field("p_additive", 2, time="noise")


class TestGridField:
    def test_identity_interpolation(self):
        xs = np.linspace(0.0, 1.0, 11)
        fld = GridField([0.0], [0.1], [11], xs)
        assert fld.eval(np.array([0.55])) == pytest.approx(0.55, abs=1e-12)

    def test_node_reproduction(self):
        rng = stream(4, "grid")
        vals = rng.uniform(-1, 1, (5, 7))
        fld = GridField([0.0, 0.0], [0.25, 0.1], [5, 7], vals.ravel())
        for i in range(5):
            for j in range(7):
                p = np.array([0.25 * i, 0.1 * j])
                assert fld.eval(p) == pytest.approx(vals[i, j], abs=1e-12)

    def test_out_of_domain(self):
        fld = GridField([0.0], [0.1], [11], np.zeros(11))
        with pytest.raises(OutOfDomain):
            fld.eval(np.array([1.5]))

    def test_from_csv_roundtrip(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("3,2\n0.0,0.0\n0.5,1.0\n0.0,1.0,2.0\n3.0,4.0,5.0\n")
        fld = GridField.from_csv(path)
        assert fld.eval(np.array([0.0, 1.0])) == pytest.approx(1.0)
        assert fld.eval(np.array([1.0, 0.0])) == pytest.approx(4.0)
        assert fld.eval(np.array([0.25, 0.5])) == pytest.approx(1.5)

    def test_from_csv_wrong_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("3\n0.0\n0.5\n1.0,2.0\n")
        with pytest.raises(ConfigError):
            GridField.from_csv(path)

    @pytest.mark.parametrize("text", [
        "3\n0.0\n0.5\n1.0,abc,2.0\n",      # non-numeric cell
        "3\n0.0\n0.5\n1.0,nan,2.0\n",      # non-finite value
        "3\n0.0\n0.0\n1.0,2.0,3.0\n",      # zero step
        "3\n0.0\n-0.5\n1.0,2.0,3.0\n",     # negative step
        "1\n0.0\n0.5\n1.0\n",              # a single sample on the axis
        "2.5\n0.0\n0.5\n1.0,2.0\n",        # a count that is not an integer
        "3,2\n0.0\n0.5,0.5\n" + "1.0\n" * 6,  # one origin for two axes
        "3\n0.0\n1e308\n1.0,2.0,3.0\n",    # infinite extent
    ])
    def test_from_csv_malformed_names_file(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match="bad.csv"):
            GridField.from_csv(path)

    def test_from_csv_missing_file_names_file(self, tmp_path):
        with pytest.raises(ConfigError, match="ghost.csv"):
            GridField.from_csv(tmp_path / "ghost.csv")


class TestBump:
    @pytest.mark.parametrize("scale", [0.0, -0.3, 1e308])
    def test_scale_without_a_positive_finite_square_is_refused(self, scale):
        with pytest.raises(ConfigError, match='"scale"'):
            make_field("bump", 2, scale=scale)

    def test_large_scale_evaluates(self):
        fld = make_field("bump", 2, x0=[0.0, 0.0], scale=1e150)
        assert fld.eval(np.array([1.0, 1.0])) == 1.0


class TestLipschitzEstimate:
    def test_affine_exact(self):
        fld = make_field("affine", 2, a=[2.0, 3.0], b=0.0)
        box = Box((0.0, 0.0), (1.0, 1.0))
        est = lipschitz_estimate(fld, box, 4000, 5)
        assert est == pytest.approx(math.sqrt(13.0), rel=0.02)

    def test_abs_kink(self):
        fld = make_field("pwlinear", 1, xs=[-1.0, 0.0, 1.0], ys=[1.0, 0.0, 1.0])
        box = Box((-1.0,), (2.0,))
        est = lipschitz_estimate(fld, box, 4000, 5)
        assert est == pytest.approx(1.0, rel=0.02)

    def test_constant_zero(self):
        fld = make_field("affine", 2, a=[0.0, 0.0], b=3.0)
        box = Box((0.0, 0.0), (1.0, 1.0))
        assert lipschitz_estimate(fld, box, 500, 5) == 0.0

    def test_catalog_respects_declared_bound(self):
        box2 = Box((0.0, 0.0), (1.0, 1.0))
        for fld in default_catalog(2):
            est = lipschitz_estimate(fld, box2, 2000, 5)
            assert est <= fld.lipschitz * (1.0 + 1e-9)

    def test_parabolic_quotient_bound(self):
        box = Box((0.0, 0.0), (1.0, 1.0))
        for fld in default_parabolic_catalog(2):
            est = lipschitz_estimate(fld, box, 2000, 5, parabolic=True)
            if fld.lipschitz is not None:
                # parabolic quotients can exceed the Euclidean bound only by
                # the sqrt factor already built into the declared constant
                assert est <= fld.lipschitz * (1.0 + 1e-9) + 1.0

    def test_catalog_names(self):
        assert set(f.kind for f in default_catalog(2)) <= set(EUCLIDEAN_CATALOG)
        assert set(f.kind for f in default_parabolic_catalog(2)) <= set(PARABOLIC_CATALOG)

    def test_parabolic_distance_used(self):
        # psi(x, t) = sqrt(|t|) is parabolic-Lipschitz with constant 1
        fld = make_field("p_additive", 2, space="affine",
                         space_params={"a": [0.0], "b": 0.0}, time="zero")
        fld.fn = lambda pts: np.sqrt(np.abs(pts[:, -1]))
        box = Box((0.0, 0.0), (1.0, 1.0))
        est = lipschitz_estimate(fld, box, 4000, 5, parabolic=True)
        assert est <= 1.0 + 1e-9
        assert est == pytest.approx(1.0, rel=0.05)
