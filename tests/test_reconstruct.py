import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multibeta import beta as betamod
from multibeta.beta import (QuadratureSpec, combined_beta, combined_parts, midpoint_mesh,
                            restricted_line_betas)
from multibeta.calibration import KAPPA_C
from multibeta.errors import DegenerateSimplex
from multibeta.funcmodel import FunctionField, make_field
from multibeta.geometry import (Box, clip_lines, orthonormal_complement, shadow_area,
                                transversality)
from multibeta.reconstruct import (_cap_directions, _line_family_integral, base_planes,
                                   base_simplex, build_global_affine, planar_beta2,
                                   select_transversal_planes, verify_reconstruction)

QUAD = QuadratureSpec(mc_samples=256, seed=3)
UNIT2 = Box((0.0, 0.0), (1.0, 1.0))
UNIT3 = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


class TestCombined:
    def test_affine_zero(self):
        fld = make_field("affine", 2, a=[0.4, -0.7], b=0.2)
        assert combined_beta(fld, UNIT2, QUAD) <= 1e-9

    def test_regression_lock(self):
        fld = make_field("pwlinear", 2, xs=[0.0, 0.5, 1.0], ys=[0.5, 0.0, 0.5])
        quad = QuadratureSpec(seed=7)
        val = combined_beta(fld, UNIT2, quad)
        assert val == pytest.approx(0.10157754044111342, abs=1e-15)

    def test_combined_is_hypot_of_parts(self):
        for n, box in ((2, UNIT2), (3, UNIT3)):
            fld = make_field("cone", n, x0=[0.4] * n)
            quad = QuadratureSpec(nodes=5, restricted_nodes=9, mc_samples=64, seed=3)
            parts = combined_parts(fld, box, quad, ("tag", 1))
            assert combined_beta(fld, box, quad, ("tag", 1)) == math.hypot(*parts)

    def test_dominates_rms_average(self):
        fld = make_field("cone", 2, x0=[0.4, 0.6])
        val = combined_beta(fld, UNIT2, QUAD)
        assert val >= val / math.sqrt(2.0)
        assert val > 0


class TestGlobalAffine:
    def test_triangle_interpolation(self):
        corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        A = build_global_affine(corners, [1.0, 2.0, 3.0])
        # values 1, 2, 3 at the corners force A(x, y) = 1 + x + 2y
        assert np.allclose(A.a, [1.0, 2.0], atol=1e-12)
        assert A.intercept == pytest.approx(1.0, abs=1e-12)

    def test_affine_recovery(self):
        fld = make_field("affine", 3, a=[0.3, -0.8, 0.5], b=-0.1)
        sx = base_simplex(UNIT3)
        A = build_global_affine(sx.v, fld.eval(sx.v))
        assert np.allclose(A.a, [0.3, -0.8, 0.5], atol=1e-12)
        assert A.intercept == pytest.approx(-0.1, abs=1e-12)

    def test_collinear_corners(self):
        with pytest.raises(DegenerateSimplex):
            build_global_affine([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)], [0.0, 1.0, 2.0])


class TestBaseSimplex:
    @pytest.mark.parametrize("Q", [UNIT2, UNIT3, Box((2.0, -1.0), (0.5, 0.5))])
    def test_nesting(self, Q):
        sx = base_simplex(Q)
        c = 1.0 / 20.0
        assert np.all(sx.contains(Q.dilate(2.0 * c).corners()))
        assert np.all(Q.dilate(0.5).contains(sx.v))

    def test_positive_volume(self):
        for Q in (UNIT2, UNIT3):
            assert base_simplex(Q).volume > 0

    @pytest.mark.parametrize("Q, tau0", [(UNIT2, 0.866), (UNIT3, 0.770)])
    def test_base_planes_bound_the_requestable_tau(self, Q, tau0):
        planes = base_planes(Q)
        assert len(planes) == Q.dim + 1
        for v in base_simplex(Q).v:  # each vertex lies on all planes but one
            assert sum(abs(p.e @ v - p.offset) <= 1e-12 for p in planes) == Q.dim
        top = transversality(planes)
        assert top == pytest.approx(tau0, abs=5e-4)
        fld = make_field("affine", Q.dim, a=[1.0] * Q.dim, b=0.0)
        with pytest.raises(DegenerateSimplex):
            select_transversal_planes(fld, Q, 1.01 * top, 0.05, 8.0, 0, QUAD)


class TestSelection:
    def test_affine_accepts_unperturbed(self):
        fld = make_field("affine", 2, a=[1.0, 0.5], b=0.0)
        sel = select_transversal_planes(fld, UNIT2, 0.25, 0.05, 8.0, 0, QUAD)
        assert sel.accepted
        assert sel.draw_index == 0
        assert sel.max_restricted <= 1e-10
        assert sel.max_mismatch <= 1e-10
        assert sel.max_metric == 0.0

    def test_cone_certifies(self):
        fld = make_field("cone", 2, x0=[0.45, 0.55])
        sel = select_transversal_planes(fld, UNIT2, 0.25, 0.05, 8.0, 7, QUAD)
        assert sel.accepted
        assert sel.max_metric <= 0.05
        assert len(sel.planes) == 3
        assert sel.simplex.v.shape == (3, 2)

    def test_determinism(self):
        fld = make_field("cone", 2, x0=[0.45, 0.55])
        s1 = select_transversal_planes(fld, UNIT2, 0.25, 0.05, 8.0, 7, QUAD)
        s2 = select_transversal_planes(fld, UNIT2, 0.25, 0.05, 8.0, 7, QUAD)
        assert s1.draw_index == s2.draw_index
        assert s1.planes == s2.planes
        assert np.array_equal(s1.mismatches, s2.mismatches)


class TestVerify:
    def test_affine_everything_zero(self):
        fld = make_field("affine", 2, a=[0.7, -0.3], b=0.25)
        rep = verify_reconstruction(fld, UNIT2, seed=0, quad=QUAD)
        assert rep.selection.accepted
        assert rep.beta2_small_direct <= 1e-10
        assert rep.beta2_small_via_affine <= 1e-10
        assert rep.combined_large <= 1e-9
        # the reconstructed map is f itself
        assert np.allclose(rep.affine.a, [0.7, -0.3], atol=1e-10)
        assert rep.affine.intercept == pytest.approx(0.25, abs=1e-10)

    def test_small_box_is_sampled_once(self, monkeypatch):
        # beta2_small_direct and beta2_small_via_affine read one sample of cQ
        quad = QuadratureSpec(nodes=5, restricted_nodes=9, mc_samples=64, seed=3)
        cQ = UNIT2.dilate(1.0 / 20.0)
        grid, hits, evaluate = midpoint_mesh(cQ.lo, cQ.sides, quad.nodes), [], FunctionField.eval

        def counted(self, points):
            hits.append(np.shape(points) == grid.shape and np.array_equal(points, grid))
            return evaluate(self, points)

        monkeypatch.setattr(FunctionField, "eval", counted)
        rep = verify_reconstruction(make_field("cone", 2, x0=[0.45, 0.55]), UNIT2, seed=7,
                                    quad=quad)
        assert sum(hits) == 1
        assert rep.beta2_small_direct <= rep.beta2_small_via_affine

    def test_corner_interpolation_exact(self):
        fld = make_field("cone", 2, x0=[0.45, 0.55])
        rep = verify_reconstruction(fld, UNIT2, seed=7, quad=QUAD)
        vals = fld.eval(rep.selection.simplex.v)
        assert np.allclose(rep.affine(rep.selection.simplex.v), vals, atol=1e-12)

    def test_direct_never_beats_fit(self):
        # the direct beta_2 is the optimal fit on cQ, so any specific affine
        # map (including the reconstructed one) scores at least as high
        for kind, params in (("cone", {"x0": [0.45, 0.55]}),
                             ("bump", {"x0": [0.5, 0.4], "scale": 0.4})):
            fld = make_field(kind, 2, **params)
            rep = verify_reconstruction(fld, UNIT2, seed=7, quad=QUAD)
            assert rep.beta2_small_direct <= rep.beta2_small_via_affine + 1e-12

    def test_corner_mismatch_certificate(self):
        # accepted draws bound every corner mismatch by the calibrated
        # multiple of the large-box reference per unit diameter
        fld = make_field("cone", 2, x0=[0.45, 0.55])
        rep = verify_reconstruction(fld, UNIT2, seed=7, quad=QUAD)
        sel = rep.selection
        assert sel.accepted
        CQ = UNIT2.dilate(8.0)
        assert sel.max_mismatch <= KAPPA_C * sel.reference * CQ.diameter + 1e-9

    def test_small_box_in_simplex(self):
        fld = make_field("cone", 3, x0=[0.45, 0.55, 0.5])
        rep = verify_reconstruction(fld, UNIT3, seed=7,
                           quad=QuadratureSpec(nodes=5, restricted_nodes=9,
                                               mc_samples=64, seed=3))
        assert np.all(rep.selection.simplex.contains(UNIT3.dilate(0.1).corners()))

    def test_seed_determinism(self):
        fld = make_field("cone", 2, x0=[0.45, 0.55])
        r1 = verify_reconstruction(fld, UNIT2, seed=7, quad=QUAD)
        r2 = verify_reconstruction(fld, UNIT2, seed=7, quad=QUAD)
        assert r1.beta2_small_direct == r2.beta2_small_direct
        assert r1.combined_large == r2.combined_large
        assert r1.line_integral == r2.line_integral
        assert tuple(r1.affine.a) == tuple(r2.affine.a)

    def test_invalid_small_factor(self):
        fld = make_field("cone", 2, x0=[0.5, 0.5])
        with pytest.raises(ValueError):
            verify_reconstruction(fld, UNIT2, c=0.3, quad=QUAD)

    @pytest.mark.parametrize("n, seed", [(2, 7), (3, 5)])
    def test_parts_come_from_combined_parts(self, n, seed):
        fld = make_field("cone", n, x0=[0.45] * n)
        quad = QuadratureSpec(nodes=5, restricted_nodes=9, mc_samples=64, seed=3)
        Q = UNIT2 if n == 2 else UNIT3
        rep = verify_reconstruction(fld, Q, seed=seed, quad=quad)
        parts = combined_parts(fld, Q.dilate(8.0), quad, ("reconstruct", seed))
        assert (rep.plane_part, rep.line_part) == parts
        assert rep.combined_large == math.hypot(*parts)

    def test_one_line_family_at_n2(self, monkeypatch):
        tags = []

        def counting(fld, box, m, ps, quad, seed_tags):
            tags.append(seed_tags)
            return family(fld, box, m, ps, quad, seed_tags)

        family = betamod._ig_family
        monkeypatch.setattr(betamod, "_ig_family", counting)
        fld = make_field("cone", 2, x0=[0.45, 0.55])
        verify_reconstruction(fld, UNIT2, seed=7, quad=QUAD)
        assert tags.count(("reconstruct", 7)) == 1


class TestPlanarRoute:
    def test_affine_zero(self):
        fld = make_field("affine", 2, a=[0.2, 0.9], b=0.0)
        val = planar_beta2(fld, UNIT2, [1.0, 0.4], QuadratureSpec(restricted_nodes=17))
        assert val <= 1e-9

    def test_agrees_with_tensor_grid(self):
        from multibeta.beta import beta_p_cube
        fld = make_field("cone", 2, x0=[0.45, 0.55])
        quad = QuadratureSpec(nodes=13, restricted_nodes=25, mc_samples=64)
        strip = planar_beta2(fld, UNIT2, [1.0, 0.3], quad)
        grid = beta_p_cube(fld, UNIT2, 2, quad).value
        assert strip == pytest.approx(grid, rel=0.02)


def _reference_line_family_integral(fld, small, big, direction, quad):
    """_line_family_integral as it was when it clipped each line itself and
    built LineSegs, frozen; the lines that meet the big box reach
    restricted_line_betas as rows, the direction normalized as LineSeg did."""
    B = orthonormal_complement(direction)
    corner_frame = small.corners() @ B
    lo = corner_frame.min(axis=0)
    hi = corner_frame.max(axis=0)
    U = midpoint_mesh(lo, hi - lo, 5)
    bases = np.asarray([B @ u for u in U if clip_lines((B @ u)[None], direction, big)[0][0]])
    directions = np.tile(direction / np.linalg.norm(direction), (len(bases), 1))
    vals = restricted_line_betas(fld, big, bases, directions, (math.inf,), quad)[1][math.inf]
    if not vals.size:
        return 0.0
    return float(np.mean(np.square(vals))) * shadow_area(small, direction)


class TestLineFamilyIntegral:
    @given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 31 - 1),
           nested=st.booleans())
    def test_matches_reference_bit_for_bit(self, n, seed, nested):
        rng = np.random.default_rng(seed)
        Q = Box(tuple(rng.uniform(-1.0, 1.0, n)), tuple(rng.uniform(0.2, 2.0, n)))
        # as verify_reconstruction pairs them, or two unrelated boxes, so
        # some lines through the small box miss the big one
        small, big = ((Q.dilate(1.0 / 20.0), Q.dilate(8.0)) if nested else
                      (Q, Box(tuple(rng.uniform(-1.0, 1.0, n)), tuple(rng.uniform(0.2, 2.0, n)))))
        fld = make_field("cone", n, x0=rng.uniform(-0.5, 1.5, n))
        quad = QuadratureSpec(restricted_nodes=9)
        e0 = rng.standard_normal(n)
        for d in _cap_directions(e0 / np.linalg.norm(e0), 0.1, 8, seed):
            assert (_line_family_integral(fld, small, big, d, quad)
                    == _reference_line_family_integral(fld, small, big, d, quad))
