import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multibeta import geometry
from multibeta.errors import DegenerateSimplex, ParallelOrDegenerate
from multibeta.geometry import (Ball, Box, DyadicBox,
                                Hyperplane, ParabolicBox, Simplex, clip_line_to_box,
                                dyadic_levels,
                                estimate_line_measure, estimate_plane_measure,
                                intersect_hyperplanes, parabolic_distance,
                                plane_metric, sample_hyperplanes, sample_lines,
                                shadow_area, simplex_from_planes,
                                transversality)
from multibeta.rng import stream


def plane(normal, offset):
    return Hyperplane(tuple(normal), offset)


class TestIntersect:
    def test_coordinate_planes_2d(self):
        x = intersect_hyperplanes([plane((1, 0), 0.3), plane((0, 1), 0.7)])
        assert np.allclose(x, [0.3, 0.7])

    def test_coordinate_planes_3d(self):
        x = intersect_hyperplanes(
            [plane((1, 0, 0), 1), plane((0, 1, 0), 2), plane((0, 0, 1), 3)])
        assert np.allclose(x, [1, 2, 3])

    def test_parallel_pair_raises(self):
        with pytest.raises(ParallelOrDegenerate):
            intersect_hyperplanes([plane((1, 0), 0), plane((1, 0), 1)])

    def test_point_lies_on_every_plane(self):
        rng = stream(5, "intersect")
        for _ in range(50):
            planes = []
            while len(planes) < 3:
                e = rng.standard_normal(3)
                planes.append(plane(e, rng.uniform(-1, 1)))
            try:
                x = intersect_hyperplanes(planes)
            except ParallelOrDegenerate:
                continue
            for p in planes:
                assert abs(p.e @ x - p.offset) <= 1e-9


class TestTransversality:
    def test_orthogonal_pair(self):
        assert transversality([plane((1, 0), 0), plane((0, 1), 0)]) == pytest.approx(1.0)

    def test_three_directions_brute_force(self):
        s = 1 / math.sqrt(2)
        planes = [plane((1, 0), 0), plane((0, 1), 0), plane((s, s), 0)]
        tau = transversality(planes)
        assert tau == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        # independent brute force over all pairs
        normals = np.asarray([p.e for p in planes])
        dets = [abs(np.linalg.det(normals[list(idx)]))
                for idx in itertools.combinations(range(3), 2)]
        assert tau == pytest.approx(min(dets), abs=1e-15)

    def test_coincident_normals_zero(self):
        assert transversality([plane((1, 0), 0), plane((1, 0), 5)]) == pytest.approx(0.0)


class TestPlaneMetric:
    def test_equal_planes(self):
        v = plane((0.6, 0.8), 0.5)
        assert plane_metric(v, v) == 0.0

    def test_sign_identification(self):
        v1 = plane((0.6, 0.8), 0.5)
        v2 = plane((-0.6, -0.8), -0.5)
        assert plane_metric(v1, v2) == 0.0

    def test_orthogonal_normals(self):
        assert plane_metric(plane((1, 0), 0), plane((0, 1), 0)) == pytest.approx(math.sqrt(2))

    def test_symmetry(self):
        rng = stream(5, "metric")
        for _ in range(100):
            v1 = plane(rng.standard_normal(3), rng.uniform(-1, 1))
            v2 = plane(rng.standard_normal(3), rng.uniform(-1, 1))
            assert plane_metric(v1, v2) == plane_metric(v2, v1)
            assert plane_metric(v1, v2) >= 0.0


class TestParabolicDistance:
    def test_formula(self):
        assert parabolic_distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_coincident(self):
        assert parabolic_distance((1.0, 2.0), (1.0, 2.0)) == 0.0

    def test_time_only(self):
        assert parabolic_distance((1.0, 1.0), (1.0, 0.0)) == pytest.approx(1.0)

    def test_triangle_inequality(self):
        rng = stream(5, "triangle")
        p = rng.uniform(-1, 1, (10000, 3))
        q = rng.uniform(-1, 1, (10000, 3))
        r = rng.uniform(-1, 1, (10000, 3))
        lhs = parabolic_distance(p, r)
        rhs = parabolic_distance(p, q) + parabolic_distance(q, r)
        assert np.all(lhs <= rhs + 1e-12)


CUBE2 = (2, 2)
PARABOLIC2 = (2, 4)


class TestDyadic:
    def test_children_partition_volume(self):
        cube = DyadicBox(2, (1, 3), CUBE2)
        kids = cube.children()
        assert len(kids) == 4
        assert sum(k.volume for k in kids) == pytest.approx(cube.volume, abs=1e-15)

    def test_min_corner(self):
        box = DyadicBox(3, (5, 2), CUBE2).as_box()
        assert box.lo == (5 / 8, 2 / 8) and box.sides == (1 / 8, 1 / 8)
        assert box.diameter == pytest.approx(math.sqrt(2) / 8)

    def test_children_tile_parent(self):
        cube = DyadicBox(1, (1,), (2,))
        kids = cube.children()
        los = sorted(k.as_box().lo[0] for k in kids)
        assert los == [0.5, 0.75]

    def test_parabolic_children_count(self):
        box = DyadicBox(0, (0, 0, 0), (2, 2, 4))  # n = 3: two spatial axes
        kids = box.children()
        assert len(kids) == 2 ** 4
        assert sum(k.volume for k in kids) == pytest.approx(box.volume, abs=1e-15)

    def test_levels_expand_in_children_order(self):
        root = DyadicBox(1, (1, 0), CUBE2)
        levels = list(dyadic_levels(root, 2))
        assert [len(f) for f in levels] == [1, 4, 16]
        assert levels[0] == [root]
        for parents, kids in zip(levels, levels[1:]):
            assert kids == [kid for node in parents for kid in node.children()]
        assert list(dyadic_levels(root, 0)) == [[root]]

    def test_parabolic_levels_and_box(self):
        root = DyadicBox(0, (0, 0), PARABOLIC2)
        assert [len(f) for f in dyadic_levels(root, 2)] == [1, 8, 64]
        node = DyadicBox(2, (3, 7), PARABOLIC2)
        box = node.as_box()
        assert box.lo == (0.75, 7 / 16) and box.sides == (0.25, 1 / 16)

    def test_parabolic_box_relation(self):
        pbox = DyadicBox(2, (3, 7), PARABOLIC2).as_parabolic_box()
        assert pbox.t_len == pytest.approx(pbox.spatial.sides[0] ** 2)

    def test_index_and_split_lengths_must_match(self):
        with pytest.raises(ValueError):
            DyadicBox(0, (0, 0), (2,))


class TestDyadicMatchesCubeAndParabolicNodes:
    """DyadicBox against frozen copies of the two node classes it replaced:
    every child index and order, corner, side, volume and time interval is
    equal with ==."""

    @dataclass(frozen=True)
    class Cube:
        level: int
        index: tuple

        def __post_init__(self):
            object.__setattr__(self, "index", tuple(int(k) for k in self.index))

        @property
        def side(self):
            return 2.0 ** (-self.level)

        @property
        def volume(self):
            return self.side ** len(self.index)

        def as_box(self):
            return Box(tuple(np.asarray(self.index) * self.side), (self.side,) * len(self.index))

        def children(self):
            base = tuple(2 * k for k in self.index)
            return [type(self)(self.level + 1, tuple(b + o for b, o in zip(base, bits)))
                    for bits in itertools.product((0, 1), repeat=len(self.index))]

    @dataclass(frozen=True)
    class Parabolic:
        level: int
        spatial_index: tuple
        time_index: int

        def __post_init__(self):
            object.__setattr__(self, "spatial_index",
                               tuple(int(k) for k in self.spatial_index))

        @property
        def side(self):
            return 2.0 ** (-self.level)

        @property
        def volume(self):
            return self.side ** len(self.spatial_index) * self.side ** 2

        def as_parabolic_box(self):
            s = self.side
            sp = Box(tuple(np.asarray(self.spatial_index) * s), (s,) * len(self.spatial_index))
            return ParabolicBox(sp, self.time_index * s * s, s * s)

        def children(self):
            base = tuple(2 * k for k in self.spatial_index)
            return [type(self)(self.level + 1, tuple(b + o for b, o in zip(base, bits)),
                               4 * self.time_index + tt)
                    for bits in itertools.product((0, 1), repeat=len(self.spatial_index))
                    for tt in range(4)]

    indices = st.one_of(st.integers(-2 ** 20, 2 ** 20), st.sampled_from([10 ** 300, -10 ** 300]))

    @staticmethod
    def same_box(a, b):
        return a.lo == b.lo and a.sides == b.sides

    @given(st.integers(1, 4), st.integers(0, 12), st.data())
    def test_cube(self, n, level, data):
        index = tuple(data.draw(st.lists(self.indices, min_size=n, max_size=n)))
        old, new = self.Cube(level, index), DyadicBox(level, index, (2,) * n)
        assert new.volume == old.volume and self.same_box(new.as_box(), old.as_box())
        kids_old, kids_new = old.children(), new.children()
        assert [k.index for k in kids_new] == [k.index for k in kids_old]
        for ko, kn in zip(kids_old, kids_new):
            assert kn.level == ko.level and kn.volume == ko.volume
            assert self.same_box(kn.as_box(), ko.as_box())

    @given(st.integers(2, 4), st.integers(0, 12), st.data())
    def test_parabolic(self, n, level, data):
        index = tuple(data.draw(st.lists(self.indices, min_size=n, max_size=n)))
        old = self.Parabolic(level, index[:-1], index[-1])
        new = DyadicBox(level, index, (2,) * (n - 1) + (4,))
        assert new.volume == old.volume
        assert new.as_parabolic_box() == old.as_parabolic_box()
        assert self.same_box(new.as_box(), old.as_parabolic_box().as_box())
        kids_old, kids_new = old.children(), new.children()
        assert [k.index for k in kids_new] == [(*k.spatial_index, k.time_index)
                                               for k in kids_old]
        for ko, kn in zip(kids_old, kids_new):
            assert kn.level == ko.level and kn.volume == ko.volume
            assert kn.as_parabolic_box() == ko.as_parabolic_box()


class TestBoxes:
    def test_dilation_center_and_diameter(self):
        box = Box((0.0, 1.0), (2.0, 4.0))
        big = box.dilate(3.0)
        assert np.allclose(big.center, box.center)
        assert big.diameter == pytest.approx(3.0 * box.diameter)

    def test_lo_and_sides_must_have_one_length(self):
        with pytest.raises(ValueError):
            Box((0.0, 0.0), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            Box((0.0, 0.0, 0.0), (1.0, 2.0))

    @pytest.mark.parametrize("lo, sides", [
        ((0.0, 0.0), (math.nan, 1.0)),
        ((0.0, 0.0), (1.0, math.inf)),
        ((math.nan, 0.0), (1.0, 1.0)),
        ((0.0, -math.inf), (1.0, 1.0)),
    ])
    def test_lo_and_sides_must_be_finite(self, lo, sides):
        with pytest.raises(ValueError):
            Box(lo, sides)

    def test_parabolic_diameter_metric(self):
        pbox = ParabolicBox(Box((0.0,), (1.0,)), 0.0, 1.0)
        assert pbox.diameter == pytest.approx(parabolic_distance((0.0, 0.0), (1.0, 1.0)))


class TestSimplexFromPlanes:
    def test_triangle(self):
        tri = simplex_from_planes(
            [plane((1, 0), 0), plane((0, 1), 0), plane((1, 1), 1)])
        verts = sorted(map(tuple, np.round(tri.v, 12)))
        assert verts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]

    def test_standard_simplex_volume(self):
        sx = simplex_from_planes(
            [plane((1, 0, 0), 0), plane((0, 1, 0), 0), plane((0, 0, 1), 0),
             plane((1, 1, 1), 1)])
        assert sx.volume == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_parallel_pair(self):
        with pytest.raises(DegenerateSimplex):
            simplex_from_planes(
                [plane((1, 0), 0), plane((1, 0), 1), plane((0, 1), 0)])

    def test_faces_lie_on_planes(self):
        planes = [plane((1, 0.2), 0.1), plane((-0.3, 1), 0.4), plane((1, -1), 1.2)]
        sx = simplex_from_planes(planes)
        # vertex j lies on every plane except plane j
        for j, v in enumerate(sx.v):
            for i, p in enumerate(planes):
                if i != j:
                    assert abs(p.e @ v - p.offset) <= 1e-9


class TestSimplexQueries:
    def test_contains(self):
        sx = Simplex(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        assert sx.contains(np.array([0.2, 0.2]))
        assert not sx.contains(np.array([0.8, 0.8]))

    def test_halfspace_orientation(self):
        sx = Simplex(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        A, b = sx.halfspaces()
        centroid = sx.v.mean(axis=0)
        assert np.all(A @ centroid <= b)


class TestShadow:
    def test_axis_direction(self):
        box = Box((0.0, 0.0), (2.0, 3.0))
        assert shadow_area(box, np.array([1.0, 0.0])) == pytest.approx(3.0)

    def test_oblique_oracle(self):
        box = Box((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        e = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        expect = abs(e[0]) * 6 + abs(e[1]) * 3 + abs(e[2]) * 2
        assert shadow_area(box, e) == pytest.approx(expect)


class TestSamplers:
    def test_hyperplane_normalization_small(self):
        ball = Ball((0.0, 0.0), 1.0)
        box = Box((-1.2, -1.2), (2.4, 2.4))
        mean, se = estimate_plane_measure(box, ball, 20000, 3)
        assert abs(mean - 1.0) <= 3 * se

    def test_line_normalization_small(self):
        ball = Ball((0.0, 0.0), 1.0)
        box = Box((-1.2, -1.2), (2.4, 2.4))
        mean, se = estimate_line_measure(box, ball, 20000, 3)
        assert abs(mean - 1.0) <= 3 * se

    def test_plane_doubling_ratio(self):
        Q = Box((0.0, 0.0), (1.0, 1.0))
        big = Q.dilate(2.0)
        w1 = np.mean([w for _, w in sample_hyperplanes(Q, 20000, 3)])
        w2 = np.mean([w for _, w in sample_hyperplanes(big, 20000, 4)])
        assert w2 / w1 == pytest.approx(2.0, rel=0.05)

    def test_line_doubling_ratio(self):
        Q = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        big = Q.dilate(2.0)
        w1 = np.mean(sample_lines(Q, 5000, 3)["weight"])
        w2 = np.mean(sample_lines(big, 5000, 4)["weight"])
        assert w2 / w1 == pytest.approx(4.0, rel=0.05)  # 2^{n-1}, n = 3

    def test_sampled_lines_nonempty(self):
        Q = Box((0.0, 0.0), (1.0, 1.0))
        for base, direction, w in sample_lines(Q, 200, 9):
            s0, s1 = clip_line_to_box(base, direction, Q)
            assert s1 > s0
            assert w > 0

    def test_determinism(self):
        Q = Box((0.0, 0.0), (1.0, 1.0))
        a = sample_hyperplanes(Q, 50, 11)
        b = sample_hyperplanes(Q, 50, 11)
        assert all(p1 == p2 and w1 == w2 for (p1, w1), (p2, w2) in zip(a, b))


def _reference_sample_lines(box, count, seed):
    """The line sampler as it was when it built one LineSeg per line, frozen:
    (base, direction, weight) tuples, the direction normalized a second time
    as LineSeg's constructor did."""
    n = box.dim
    rng = stream(seed, "lines")
    norm = geometry.ball_volume(n - 1)
    corners, faces = box.corners(), geometry._face_areas(box)
    out = []
    for _ in range(count):
        e = geometry._unit_vectors(rng, 1, n)[0]
        B = geometry.orthonormal_complement(e)
        corner_frame = corners @ B
        lo = corner_frame.min(axis=0)
        hi = corner_frame.max(axis=0)
        for _ in range(geometry.MAX_LINE_REJECTIONS):
            u = rng.uniform(lo, hi)
            base = B @ u
            if clip_line_to_box(base, e, box) is not None:
                break
        d = np.asarray(tuple(e), dtype=float)
        out.append(([float(v) for v in base], (d / np.linalg.norm(d)).tolist(),
                    geometry._box_shadow(faces, e) / norm))
    return out


class TestLineFamily:
    @given(n=st.sampled_from([2, 3]), box_seed=st.integers(0, 2 ** 31 - 1),
           seed=st.integers(0, 2 ** 62), count=st.integers(1, 40))
    def test_sampler_matches_reference_bit_for_bit(self, n, box_seed, seed, count):
        rng = np.random.default_rng(box_seed)
        box = Box(tuple(rng.uniform(-5.0, 5.0, n)), tuple(rng.uniform(0.01, 5.0, n)))
        lines = sample_lines(box, count, seed)
        expect = _reference_sample_lines(box, count, seed)
        assert len(lines) == count
        assert lines["base"].tolist() == [b for b, _, _ in expect]
        assert lines["direction"].tolist() == [d for _, d, _ in expect]
        assert lines["weight"].tolist() == [w for _, _, w in expect]

    # perfbench/tracer.py's ``_drawn`` payload counts the draws of a sampler
    # call as len(result), so each sampler returns one entry per draw
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("count", [1, 7, 64])
    def test_sampler_length_is_count(self, n, count):
        box = Box((0.0,) * n, (1.0,) * n)
        assert len(sample_lines(box, count, 3)) == count
        assert len(sample_hyperplanes(box, count, 3)) == count
