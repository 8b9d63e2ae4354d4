import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibeta import beta as betamod
from multibeta import fitting
from multibeta.beta import (SELECTORS, BetaRecord, CubeSample, QuadratureSpec, cube_level,
                            beta_integralgeometric, beta_p_cube, beta_p_restricted,
                            carleson_sum, combined_beta, cube_beta, midpoint_mesh,
                            midpoint_nodes, norm_value, restricted_line_betas)
from multibeta.errors import EmptyIntersection
from multibeta.funcmodel import EUCLIDEAN_CATALOG, make_field
from multibeta.geometry import Box, DyadicBox, Hyperplane, clip_lines, dyadic_levels, sample_lines
from parent_fits import parent_cube_beta

QUAD = QuadratureSpec()
FINE = QuadratureSpec(nodes=257, restricted_nodes=257, mc_samples=64)

VEE = dict(xs=[-1.0, 0.0, 1.0], ys=[1.0, 0.0, 1.0])


class TestCubeBeta:
    def test_affine_is_zero_all_dims(self):
        for n in (1, 2, 3):
            fld = make_field("affine", n, a=0.3 * np.arange(1, n + 1), b=0.2)
            box = Box((0.0,) * n, (1.0,) * n)
            for p in (2, math.inf):
                rec = beta_p_cube(fld, box, p, QUAD)
                assert rec.value <= 1e-10

    def test_vee_sup_norm(self):
        # minimax error of |x| over the midpoint grid is max|x|/2 exactly
        fld = make_field("pwlinear", 1, **VEE)
        box = Box((-1.0,), (2.0,))
        rec = beta_p_cube(fld, box, math.inf, FINE)
        expect = (1.0 - 1.0 / FINE.nodes) / 4.0
        assert rec.value == pytest.approx(expect, rel=1e-9)

    def test_parabola_l2(self):
        # integral of (x^2 - 1/3)^2 over [-1, 1] is 8/45; beta_2 = 1/sqrt(45)
        fld = make_field("square", 1)
        box = Box((-1.0,), (2.0,))
        rec = beta_p_cube(fld, box, 2, FINE)
        assert rec.value == pytest.approx(1.0 / math.sqrt(45.0), rel=1e-4)

    def test_cube_sample_mass(self):
        box = Box((0.0, 1.0), (2.0, 3.0))
        s = CubeSample.of(make_field("square", 2), box, QuadratureSpec(nodes=5))
        assert s.X.shape == (25, 2) and s.y.shape == (25,)
        assert s.w.sum() == pytest.approx(box.volume)

    def test_scale_invariance(self):
        # f_lam(x) = f(lam x)/lam has the same coefficient on Q/lam;
        # midpoint nodes map node-to-node, so agreement is exact
        fld = make_field("pwlinear", 1, xs=[0.0, 1.0 / 3.0, 1.0], ys=[1.0 / 3.0, 0.0, 2.0 / 3.0])
        scaled = make_field("pwlinear", 1, xs=[0.0, 1.0 / 6.0, 0.5], ys=[1.0 / 6.0, 0.0, 1.0 / 3.0])
        for p in (2, math.inf):
            v1 = beta_p_cube(fld, Box((0.0,), (1.0,)), p, QUAD).value
            v2 = beta_p_cube(scaled, Box((0.0,), (0.5,)), p, QUAD).value
            assert v2 == pytest.approx(v1, abs=1e-9)

    def test_quadrature_refinement(self):
        fld = make_field("bump", 2, x0=[0.5, 0.4], scale=0.4)
        box = Box((0.0, 0.0), (1.0, 1.0))
        coarse = beta_p_cube(fld, box, 2, QuadratureSpec(nodes=9)).value
        fine = beta_p_cube(fld, box, 2, QuadratureSpec(nodes=27)).value
        assert coarse == pytest.approx(fine, rel=0.01)

    def test_lipschitz_constrained_not_smaller(self):
        fld = make_field("pwlinear", 1, **VEE)
        box = Box((-1.0,), (2.0,))
        free = beta_p_cube(fld, box, 2, QUAD).value
        tied = beta_p_cube(fld, box, 2, QUAD, L=0.1).value
        assert tied >= free - 1e-15


def _ref_beta_p_cube(fld, box, p, quad, L=None):
    """beta_p_cube as it was when each call built its own grid, frozen: the
    sample path must reproduce every bit of it."""
    X = midpoint_mesh(box.lo, box.sides, quad.nodes)
    w = np.full(X.shape[0], box.volume / X.shape[0])
    y = fld.eval(X)
    amap = fitting.affine_fit(X, y, w, p, L)
    return BetaRecord(norm_value(y - amap(X), w, p, box.diameter, box.dim), amap)


class TestCubeSample:
    """Every norm read off one CubeSample equals the resampling reference, exactly."""

    @settings(max_examples=40)
    @given(kind=st.sampled_from(EUCLIDEAN_CATALOG), n=st.integers(1, 3),
           nodes=st.sampled_from([3, 5, 7]), seed=st.integers(0, 2 ** 31 - 1),
           L=st.one_of(st.none(), st.floats(0.05, 5.0)))
    def test_every_norm_equals_the_resampling_reference(self, kind, n, nodes, seed, L):
        rng = np.random.default_rng(seed)
        fld = _any_catalog_field(kind, n, rng)
        box = Box(tuple(rng.uniform(-2.0, 2.0, n)), tuple(rng.uniform(0.05, 3.0, n)))
        quad = QuadratureSpec(nodes=nodes)
        s = CubeSample.of(fld, box, quad)
        assert s.X.flags.c_contiguous and s.y.flags.c_contiguous
        for p in (1, 1.5, 2, 3, math.inf):
            assert cube_beta(s, p) == _ref_beta_p_cube(fld, box, p, quad), p
            assert beta_p_cube(fld, box, p, quad) == _ref_beta_p_cube(fld, box, p, quad), p
            if L is not None and p in (2, math.inf):
                assert cube_beta(s, p, L) == _ref_beta_p_cube(fld, box, p, quad, L), p


def coords(n, lo, hi):
    """Points of R^n with coordinates in [lo, hi]."""
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n)


class TestAffineAnnihilation:
    """Every cube and sampled-line coefficient of an affine field is 0 up to
    rounding, on generated boxes: acceptance 1's bound beyond the unit cube."""

    @settings(max_examples=50)
    @given(data=st.data(), n=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1))
    def test_every_norm_is_zero(self, data, n, seed):
        a, lo, sides = (data.draw(coords(n, *bounds)) for bounds in ((-3, 3), (-4, 4), (0.1, 4)))
        fld = make_field("affine", n, a=a, b=data.draw(st.floats(-3, 3)))
        box = Box(tuple(lo), tuple(sides))
        quad = QuadratureSpec(nodes=9, restricted_nodes=17)
        s = CubeSample.of(fld, box, quad)
        for p in (1, 2, 4, math.inf):
            assert cube_beta(s, p).value <= 1e-10, p
        if n >= 2:
            # lines through interior points of the box, in random directions
            rng = np.random.default_rng(seed)
            bases = np.asarray(lo) + rng.uniform(0.05, 0.95, (8, n)) * np.asarray(sides)
            directions = rng.normal(size=(8, n))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            kept, values = restricted_line_betas(fld, box, bases, directions, (2, math.inf), quad)
            assert kept.all()
            for p in (2, math.inf):
                assert values[p].max() <= 1e-10, p


class TestRestrictedBeta:
    def test_line_through_vee(self):
        # f(x, y) = |x| along the segment y = 0: sup coefficient is the 1-D
        # minimax error over the restricted nodes divided by diam(Q)
        fld = make_field("pwlinear", 2, **VEE)
        box = Box((-1.0, -1.0), (2.0, 2.0))
        kept, values = restricted_line_betas(fld, box, [[0.0, 0.0]], [[1.0, 0.0]], (math.inf,),
                                             FINE)
        expect = (1.0 - 1.0 / FINE.restricted_nodes) / (4.0 * math.sqrt(2.0))
        assert kept.tolist() == [True]
        assert values[math.inf][0] == pytest.approx(expect, rel=1e-9)

    def test_plane_misses_box(self):
        fld = make_field("square", 2)
        box = Box((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(EmptyIntersection):
            beta_p_restricted(fld, box, Hyperplane((1.0, 0.0), 5.0), 2, QUAD)

    @given(data=st.data(), n=st.sampled_from([2, 3]))
    def test_affine_restriction_zero(self, data, n):
        a, lo, shape, at = (data.draw(coords(n, *bounds))
                            for bounds in ((-3, 3), (-4, 4), (0.5, 1.0), (0.3, 0.7)))
        fld = make_field("affine", n, a=a, b=data.draw(st.floats(-3, 3)))
        # side ratio at most 2 and a point at least 0.3 sides from every
        # face: the patch holds a disc that spans the plane with grid nodes
        sides = data.draw(st.floats(0.1, 4.0)) * np.asarray(shape)
        box = Box(tuple(lo), tuple(sides))
        x = box.lo_arr + np.asarray(at) * sides
        e = np.asarray(data.draw(coords(n, -1, 1).filter(lambda e: np.linalg.norm(e) > 0.1)))
        plane = Hyperplane(tuple(e), float(e @ x))
        # patch points: x and steps from it in the plane, inside the disc
        U = np.vstack([np.zeros(n - 1), data.draw(st.lists(coords(n - 1, -1, 1), min_size=1,
                                                            max_size=4))])
        X = x + 0.2 * sides.min() / math.sqrt(n) * U @ plane.frame().T
        for p in (1, 2, math.inf):
            rec = beta_p_restricted(fld, box, plane, p, QUAD)
            assert rec.value <= 1e-10, p
            assert np.abs(rec.fitted(X) - fld.eval(X)).max() <= 1e-9, p


class TestIntegralGeometric:
    def test_full_dimension_reduces_to_cube(self):
        fld = make_field("cone", 2, x0=[0.3, 0.6])
        box = Box((0.0, 0.0), (1.0, 1.0))
        ig = beta_integralgeometric(fld, box, 2, 2, 2, QUAD)
        cube = beta_p_cube(fld, box, 2, QUAD)
        assert ig.value == pytest.approx(cube.value, abs=1e-12)
        assert ig.stderr == 0.0

    def test_affine_zero(self):
        fld = make_field("affine", 2, a=[1.0, -0.5], b=0.3)
        box = Box((0.0, 0.0), (1.0, 1.0))
        quad = QuadratureSpec(mc_samples=128)
        assert beta_integralgeometric(fld, box, 1, math.inf, 2, quad).value <= 1e-9
        assert beta_integralgeometric(fld, box, 1, 2, 2, quad).value <= 1e-9

    def test_vee_regression_lock(self):
        fld = make_field("pwlinear", 2, **VEE)
        box = Box((-1.0, -1.0), (2.0, 2.0))
        quad = QuadratureSpec(seed=7)
        rec = beta_integralgeometric(fld, box, 1, math.inf, 2, quad)
        assert rec.value == pytest.approx(0.08936903798429041, abs=1e-15)
        assert rec.stderr == pytest.approx(0.0009656230731860662, abs=1e-15)
        # sup quotients over unit-ball lines are bounded by the Lipschitz
        # constant, so the average is too
        assert rec.value <= fld.lipschitz

    def test_combined_dominates_parts(self):
        fld = make_field("cone", 2, x0=[0.4, 0.5])
        box = Box((0.0, 0.0), (1.0, 1.0))
        quad = QuadratureSpec(mc_samples=256, seed=3)
        both = combined_beta(fld, box, quad)
        planes = beta_integralgeometric(fld, box, 1, 2, 2, quad).value
        lines = beta_integralgeometric(fld, box, 1, math.inf, 2, quad).value
        assert both >= max(planes, lines) - 1e-12
        assert both <= planes + lines + 1e-12
        # at n = 2 both parts come from the same line family
        assert both == math.hypot(planes, lines)

    def test_one_sample_is_refused(self):
        with pytest.raises(ValueError, match="mc_samples"):
            QuadratureSpec(mc_samples=1)

    def test_one_surviving_sample_has_infinite_stderr(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = betamod._ig_record(2, np.array([0.5]), np.array([0.3]))
        assert rec.stderr == math.inf and rec.mc == 1
        assert rec.value == pytest.approx(0.3, rel=1e-15)

    def test_combined_draws_one_family_at_n2(self, monkeypatch):
        calls = []

        def counting(region, count, seed):
            calls.append(seed)
            return sample_lines(region, count, seed)

        monkeypatch.setattr(betamod, "sample_lines", counting)
        fld = make_field("cone", 2, x0=[0.4, 0.5])
        combined_beta(fld, Box((0.0, 0.0), (1.0, 1.0)), QuadratureSpec(mc_samples=32, seed=3))
        assert len(calls) == 1


def _catalog_field(kind, n, rng):
    if kind == "cone":
        return make_field("cone", n, x0=rng.uniform(-0.5, 1.5, n))
    if kind == "bump":
        return make_field("bump", n, x0=rng.uniform(0.0, 1.0, n), scale=rng.uniform(0.2, 0.6))
    return make_field("distset", n, points=rng.uniform(-0.5, 1.5, (3, n)))


def _grazing_lines(box):
    """(bases, unit directions) of lines through or next to a corner: one
    touching only the corner, one along an edge, the diagonal, and chords
    cutting ever smaller corners (the smallest fail the rank check and take
    the scalar fallback)."""
    lo, hi = box.lo_arr, box.hi
    slant = np.r_[1.0, -np.ones(box.dim - 1)]
    bases = [lo, lo, lo] + [hi - gap * np.asarray(box.sides) for gap in (1e-3, 1e-9, 1e-14)]
    directions = [slant, np.eye(box.dim)[0], hi - lo] + [slant] * 3
    return np.asarray(bases), np.asarray([d / np.linalg.norm(d) for d in directions])


def _sampled_rows(box, count, seed):
    """(bases, directions) of the lines sample_lines draws."""
    lines = sample_lines(box, count, seed)
    return lines["base"], lines["direction"]


def parent_line_beta(fld, box, base, direction, p, quad):
    """beta._line_record(...).value, the scalar line coefficient, frozen, for
    one row (base, unit direction) of restricted_line_betas. Its clip reads
    clip_lines, which TestClipLines proves equal to the scalar clip."""
    ok, s0, s1 = clip_lines(base[None], direction, box)
    if not ok[0]:
        raise EmptyIntersection("line does not meet the box")
    s0, s1 = s0[0], s1[0]
    nodes = quad.restricted_nodes
    s = midpoint_nodes(s0, s1 - s0, nodes)
    y = fld.eval(base + s[:, None] * direction)
    w = np.full(nodes, (s1 - s0) / nodes)
    amap = fitting.affine_fit(s[:, None], y, w, p)
    return norm_value(y - amap(s[:, None]), w, p, box.diameter, 1)


def _scalar_line_betas(fld, box, bases, directions, ps, quad):
    """(kept, values) of restricted_line_betas, line by line through parent_line_beta."""
    rows = []
    for base, direction in zip(bases, directions):
        try:
            rows.append([parent_line_beta(fld, box, base, direction, p, quad) for p in ps])
        except EmptyIntersection:
            rows.append(None)
    return ([row is not None for row in rows],
            {p: [row[i] for row in rows if row is not None] for i, p in enumerate(ps)})


class TestBatchedLines:
    """restricted_line_betas equals the frozen scalar line coefficient line by line, exactly."""

    @given(n=st.sampled_from([2, 3]), kind=st.sampled_from(["cone", "bump", "distset"]),
           seed=st.integers(0, 2 ** 31 - 1), block=st.sampled_from([5, betamod.ROW_BLOCK]))
    def test_batched_equals_scalar(self, n, kind, seed, block):
        rng = np.random.default_rng(seed)
        fld = _catalog_field(kind, n, rng)
        box = Box(tuple(rng.uniform(-1.0, 1.0, n)), tuple(rng.uniform(0.2, 2.0, n)))
        quad = QuadratureSpec(restricted_nodes=int(rng.choice([3, 9, 17])))
        # lines sampled for a larger box miss this one now and then
        rows = [np.vstack(r) for r in zip(_sampled_rows(box.dilate(1.5), 24, seed),
                                          _grazing_lines(box))]
        ps = (2, math.inf)
        with mock.patch.object(betamod, "ROW_BLOCK", block):
            kept, values = restricted_line_betas(fld, box, *rows, ps, quad)
        expect_kept, expect = _scalar_line_betas(fld, box, *rows, ps, quad)
        assert kept.tolist() == expect_kept
        for p in ps:
            assert values[p].tolist() == expect[p]

    # ids in the "p-L" form of this test's and the next one's earlier cases,
    # so each remaining case keeps its test name
    @pytest.mark.parametrize("p", [1], ids=["1-None"])
    def test_line_by_line_cases_match(self, p):
        fld = make_field("cone", 2, x0=[0.3, 0.6])
        box = Box((0.0, 0.0), (1.0, 1.0))
        rows = _sampled_rows(box.dilate(1.5), 12, 5)
        kept, values = restricted_line_betas(fld, box, *rows, (p,), QUAD)
        expect_kept, expect = _scalar_line_betas(fld, box, *rows, (p,), QUAD)
        assert kept.tolist() == expect_kept
        assert values[p].tolist() == expect[p]

    @pytest.mark.parametrize("p", [1, 3], ids=["1-None", "3-None"])
    def test_one_field_call_per_block(self, p):
        fld = make_field("cone", 2, x0=[0.3, 0.6])
        box = Box((0.0, 0.0), (1.0, 1.0))
        rows = _sampled_rows(box.dilate(1.5), 12, 5)
        with mock.patch.object(betamod, "ROW_BLOCK", 5), \
                mock.patch.object(fld, "eval", wraps=fld.eval) as spy:
            kept, values = restricted_line_betas(fld, box, *rows, (p,), QUAD)
        assert kept.sum() > 5 and spy.call_count == -(-int(kept.sum()) // 5)
        assert values[p].tolist() == _scalar_line_betas(fld, box, *rows, (p,), QUAD)[1][p]

    def test_nothing_fitted_in_the_stack_falls_back(self, monkeypatch):
        fld = make_field("cone", 2, x0=[0.3, 0.6])
        box = Box((0.0, 0.0), (1.0, 1.0))
        rows = _sampled_rows(box, 8, 5)
        expect = _scalar_line_betas(fld, box, *rows, (2, math.inf), QUAD)[1]
        monkeypatch.setattr(fitting, "fit_affine_l2_stack", lambda x, y, w: (
            np.zeros(len(x), dtype=bool), np.zeros((len(x), 1)), np.zeros(len(x))))
        _, values = restricted_line_betas(fld, box, *rows, (2, math.inf), QUAD)
        assert {p: v.tolist() for p, v in values.items()} == expect

    def test_singular_stacked_solve_marks_every_row(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        s = np.linspace(0.0, 1.0, 5)
        x = np.stack([s, 2.0 * s])[:, :, None]
        y = np.stack([s, s * s])
        monkeypatch.setattr(np.linalg, "solve", singular)
        ok, _, _ = fitting.fit_affine_l2_stack(x, y, np.ones_like(y))
        assert not ok.any()

    def test_family_missing_the_box(self):
        fld = make_field("cone", 2, x0=[0.3, 0.6])
        kept, values = restricted_line_betas(fld, Box((0.0, 0.0), (1.0, 1.0)), [[5.0, 0.0]],
                                             [[0.0, 1.0]], (2, math.inf), QUAD)
        assert not kept.any()
        assert values[2].size == 0 and values[math.inf].size == 0


class TestMidpointRule:
    @given(lo=st.floats(-1e3, 1e3), side=st.floats(1e-6, 1e3),
           count=st.sampled_from([12, 1, 40, 2, 7, 3, 20]))
    def test_scalar_interval(self, lo, side, count):
        expect = lo + side / count * (np.arange(count) + 0.5)
        assert midpoint_nodes(lo, side, count).tolist() == expect.tolist()

    @given(seed=st.integers(0, 2 ** 31 - 1), k=st.sampled_from([3, 1, 6, 2]),
           count=st.sampled_from([7, 1, 20, 2, 12, 3]))
    def test_stacked_intervals(self, seed, k, count):
        rng = np.random.default_rng(seed)
        lo, side = rng.uniform(-10.0, 10.0, k), rng.uniform(1e-3, 10.0, k)
        nodes = midpoint_nodes(lo, side, count)
        assert nodes.shape == (k, count)
        for i in range(k):
            assert nodes[i].tolist() == (lo[i] + side[i] / count * (np.arange(count) + 0.5)).tolist()

    def test_mesh_runs_the_last_axis_fastest(self):
        u, v = midpoint_nodes([0.0, 1.0], [1.0, 2.0], 3)
        mesh = midpoint_mesh([0.0, 1.0], [1.0, 2.0], 3)
        assert mesh.tolist() == [[a, b] for a in u for b in v]

    @given(seed=st.integers(0, 2 ** 31 - 1), k=st.sampled_from([3, 1, 5, 2]), d=st.integers(1, 3),
           count=st.sampled_from([3, 1, 7, 2, 5]))
    def test_stacked_meshes(self, seed, k, d, count):
        rng = np.random.default_rng(seed)
        lo, sides = rng.uniform(-10.0, 10.0, (k, d)), rng.uniform(1e-3, 10.0, d)
        mesh = midpoint_mesh(lo, sides, count)
        assert mesh.shape == (k, count ** d, d)
        for i in range(k):
            axes = midpoint_nodes(lo[i], sides, count)
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
            assert mesh[i].tolist() == midpoint_mesh(lo[i], sides, count).tolist() == grid.tolist()


def _any_catalog_field(kind, n, rng):
    """A field of any Euclidean catalog kind, its parameters drawn from rng."""
    params = {
        "affine": dict(a=rng.uniform(-1.0, 1.0, n), b=rng.uniform(-1.0, 1.0)),
        "pwlinear": dict(xs=np.sort(rng.uniform(-2.0, 2.0, 5)) + np.arange(5) * 1e-3,
                         ys=rng.uniform(-1.0, 1.0, 5)),
        "cone": dict(x0=rng.uniform(-2.0, 2.0, n)),
        "distset": dict(points=rng.uniform(-2.0, 2.0, (3, n))),
        "bump": dict(x0=rng.uniform(-1.0, 1.0, n), scale=rng.uniform(0.2, 1.0)),
        "square": {},
    }
    return make_field(kind, n, **params[kind])


def _scalar_beta2(fld, frontier, dilation, quad):
    return [SELECTORS["beta2"](fld, cube.as_box().dilate(dilation), quad) for cube in frontier]


class TestBeta2Level:
    """cube_level at p = 2 equals the scalar beta2 selector cube by cube, exactly."""

    @settings(max_examples=100)
    @given(kind=st.sampled_from(EUCLIDEAN_CATALOG), n=st.integers(1, 3),
           nodes=st.sampled_from([3, 5, 7, 9, 11]), dilation=st.floats(1.0, 4.0),
           level=st.integers(0, 3), split=st.sampled_from([2, 3]),
           seed=st.integers(0, 2 ** 31 - 1), block=st.sampled_from([7, betamod.ROW_BLOCK]))
    def test_level_equals_scalar(self, kind, n, nodes, dilation, level, split, seed, block):
        rng = np.random.default_rng(seed)
        fld = _any_catalog_field(kind, n, rng)
        # a split of 3 gives sides that are not powers of two, so regrouping
        # the corner's arithmetic changes its bits
        root = DyadicBox(level, tuple(int(k) for k in rng.integers(-4, 4, n)), (split,) * n)
        quad = QuadratureSpec(nodes=nodes)
        # the deepest level has at least 16 cubes: several blocks of 7
        depth = next(d for d in range(1, 5) if split ** (n * d) >= 16)
        for frontier in dyadic_levels(root, depth):
            with mock.patch.object(betamod, "ROW_BLOCK", block):
                values = cube_level(fld, frontier, (2,), quad, dilation)[2]
            assert values == _scalar_beta2(fld, frontier, dilation, quad)

    @pytest.mark.parametrize("marked", [slice(1, None, 3), slice(None)], ids=["some", "all"])
    def test_rows_not_ok_take_the_scalar_path(self, marked, monkeypatch):
        fld = make_field("bump", 2, x0=[0.3, -0.6], scale=0.5)
        quad = QuadratureSpec(nodes=5)
        frontier = list(dyadic_levels(DyadicBox(1, (-1, 0), (2, 2)), 2))[-1]
        expect = _scalar_beta2(fld, frontier, 1.5, quad)
        stack, affine_fit, cubes = fitting.fit_affine_l2_stack, fitting.affine_fit, []

        def marking(x, y, w):
            ok, a, b = stack(x, y, w)
            ok[marked], a[marked], b[marked] = False, np.nan, np.nan
            return ok, a, b

        def counting(x, y, w, p, L=None):
            cubes.append(y)
            return affine_fit(x, y, w, p, L)

        monkeypatch.setattr(fitting, "fit_affine_l2_stack", marking)
        monkeypatch.setattr(fitting, "affine_fit", counting)
        monkeypatch.setattr(betamod, "ROW_BLOCK", 7)
        assert cube_level(fld, frontier, (2,), quad, 1.5)[2] == expect
        blocks = [range(16)[i:i + 7] for i in range(0, 16, 7)]
        assert len(cubes) == sum(len(rows[marked]) for rows in blocks)

    def test_carleson_walk_uses_the_level_values(self):
        fld = make_field("cone", 2, x0=[0.3, 0.7])
        with mock.patch.object(betamod, "cube_level", wraps=cube_level) as spy:
            rep = carleson_sum(fld, DyadicBox(0, (0, 0), (2, 2)), 3.0, 2, "beta2", QUAD)
        assert spy.call_count == 3
        assert [v for _, v in rep.nodes] == _scalar_beta2(fld, [q for q, _ in rep.nodes], 3.0, QUAD)


def parent_level(fld, frontier, ps, quad, dilation=None):
    boxes = [cube.as_box() if dilation is None else cube.as_box().dilate(dilation)
             for cube in frontier]
    return {p: [parent_cube_beta(fld, box, p, quad) for box in boxes] for p in ps}


class TestCubeLevel:
    """cube_level equals the frozen per-cube coefficient of every cube, exactly."""

    @settings(max_examples=40)
    @given(kind=st.sampled_from(EUCLIDEAN_CATALOG), n=st.integers(1, 3),
           nodes=st.sampled_from([3, 7, 5]), dilation=st.sampled_from([None, 1.0, 2.5]),
           level=st.integers(0, 2), seed=st.integers(0, 2 ** 31 - 1),
           points=st.sampled_from([1, 100, betamod.BLOCK_POINTS]))
    def test_split3_level_equals_frozen_cubes(self, kind, n, nodes, dilation, level, seed,
                                              points):
        # a split of 3 gives sides that are not powers of two, so regrouping
        # the corner's arithmetic changes its bits; a block of 1 or 100
        # points holds one cube or a few
        rng = np.random.default_rng(seed)
        fld = _any_catalog_field(kind, n, rng)
        root = DyadicBox(level, tuple(int(k) for k in rng.integers(-4, 4, n)), (3,) * n)
        frontier = list(dyadic_levels(root, 1))[-1]
        quad, ps = QuadratureSpec(nodes=nodes), (1, 1.5, 2, math.inf)
        with mock.patch.object(betamod, "BLOCK_POINTS", points):
            values = cube_level(fld, frontier, ps, quad, dilation)
        assert values == parent_level(fld, frontier, ps, quad, dilation)

    def test_large_cubes_split_a_level_into_blocks(self):
        # 8 cubes of 13^3 points: BLOCK_POINTS holds 3 of them
        fld = make_field("distset", 3, points=[[0.2, 0.3, 0.4], [0.7, 0.6, 0.5]])
        frontier = DyadicBox(0, (0, 0, 0), (2, 2, 2)).children()
        quad, ps = QuadratureSpec(nodes=13), (1, 2, math.inf)
        assert betamod.BLOCK_POINTS // 13 ** 3 == 3
        with mock.patch.object(betamod, "sample_grids", wraps=betamod.sample_grids) as spy:
            values = cube_level(fld, frontier, ps, quad)
        assert [len(c.args[1]) for c in spy.call_args_list] == [3, 3, 2]
        assert values == parent_level(fld, frontier, ps, quad)


class TestNormMonotonicity:
    @settings(max_examples=40)
    @given(kind=st.sampled_from(EUCLIDEAN_CATALOG), n=st.integers(1, 3),
           dilation=st.sampled_from([None, 1.5, 3.0]), level=st.integers(0, 3),
           split=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 31 - 1))
    def test_beta_p_grows_with_p(self, kind, n, dilation, level, split, seed):
        # beta_1 <= beta_2 <= beta_inf on generated boxes, at acceptance 2's
        # 1e-9, through the level engine
        rng = np.random.default_rng(seed)
        fld = _any_catalog_field(kind, n, rng)
        root = DyadicBox(level, tuple(int(k) for k in rng.integers(-4, 4, n)), (split,) * n)
        frontier = root.children()
        values = cube_level(fld, frontier, (1, 2, math.inf), QuadratureSpec(nodes=5), dilation)
        for b1, b2, binf in zip(values[1], values[2], values[math.inf]):
            assert b1 <= b2 + 1e-9 and b2 <= binf + 1e-9


class TestCarleson:
    def test_affine_total_zero(self):
        fld = make_field("affine", 1, a=[0.7], b=0.1)
        rep = carleson_sum(fld, DyadicBox(0, (0,), (2,)), 3.0, 4, "beta2", QUAD)
        assert rep.total <= 1e-18

    def test_vee_per_scale_halves(self):
        # breakpoint 1/3 has a period-2 binary expansion: each level keeps
        # exactly one cube with the kink at the same relative position, so
        # the per-scale contribution halves exactly
        fld = make_field("pwlinear", 1, xs=[0.0, 1.0 / 3.0, 1.0],
                         ys=[1.0 / 3.0, 0.0, 2.0 / 3.0])
        rep = carleson_sum(fld, DyadicBox(0, (0,), (2,)), 3.0, 10, "beta2", QUAD)
        for j in range(3, 10):
            assert rep.per_scale[j + 1] / rep.per_scale[j] == pytest.approx(0.5, rel=1e-6)
        assert rep.ratios[-1] <= 0.0447

    def test_cumulative_monotone(self):
        fld = make_field("cone", 1, x0=[0.4])
        rep = carleson_sum(fld, DyadicBox(0, (0,), (2,)), 3.0, 6, "beta2", QUAD)
        assert all(b >= a - 1e-18 for a, b in zip(rep.cumulative, rep.cumulative[1:]))
        assert rep.counts == [2 ** j for j in range(7)]

    def test_uniform_bound(self):
        # every dilated-cube coefficient is controlled by the Lipschitz bound
        fld = make_field("distset", 2, points=[[0.2, 0.2], [0.8, 0.5]])
        rep = carleson_sum(fld, DyadicBox(0, (0, 0), (2, 2)), 3.0, 3, "beta2", QUAD)
        for _, val in rep.nodes:
            assert val <= 0.5 * rep.lipschitz + 1e-12

    def test_selector_combined_runs(self):
        fld = make_field("cone", 2, x0=[0.3, 0.7])
        quad = QuadratureSpec(mc_samples=64, seed=1)
        rep = carleson_sum(fld, DyadicBox(0, (0, 0), (2, 2)), 3.0, 1, "combined", quad)
        assert rep.total > 0
        assert len(rep.nodes) == 5

    @pytest.mark.parametrize("selector", list(SELECTORS))
    def test_every_selector_walks_the_tree(self, selector):
        fld = make_field("cone", 2, x0=[0.3, 0.7])
        quad = QuadratureSpec(nodes=3, restricted_nodes=5, mc_samples=16, seed=1)
        rep = carleson_sum(fld, DyadicBox(0, (0, 0), (2, 2)), 3.0, 1, selector, quad)
        assert rep.power == 2.0
        assert rep.levels == [0, 1] and rep.counts == [1, 4]
        assert [node.level for node, _ in rep.nodes] == [0, 1, 1, 1, 1]
        assert all(math.isfinite(val) and val >= 0 for _, val in rep.nodes)

    def test_unknown_selector_rejected(self):
        fld = make_field("cone", 1, x0=[0.4])
        with pytest.raises(ValueError):
            carleson_sum(fld, DyadicBox(0, (0,), (2,)), 3.0, 1, "bogus", QUAD)
