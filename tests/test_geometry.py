import itertools
import math

import numpy as np
import pytest

from multibeta.errors import DegenerateSimplex, ParallelOrDegenerate
from multibeta.geometry import (Ball, Box, DyadicCube, DyadicParabolicBox,
                                Hyperplane, ParabolicBox, Simplex, dyadic_levels,
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


class TestDyadic:
    def test_children_partition_volume(self):
        cube = DyadicCube(2, (1, 3))
        kids = cube.children()
        assert len(kids) == 4
        assert sum(k.volume for k in kids) == pytest.approx(cube.volume, abs=1e-15)

    def test_min_corner(self):
        cube = DyadicCube(3, (5, 2))
        assert np.allclose(cube.lo, [5 / 8, 2 / 8])
        assert cube.diameter == pytest.approx(math.sqrt(2) / 8)

    def test_children_tile_parent(self):
        cube = DyadicCube(1, (1,))
        kids = cube.children()
        los = sorted(k.lo[0] for k in kids)
        assert los == [0.5, 0.75]

    def test_parabolic_children_count(self):
        box = DyadicParabolicBox(0, (0, 0), 0)  # n = 3: two spatial axes
        kids = box.children()
        assert len(kids) == 2 ** (box.spatial_dim + 2)
        assert sum(k.volume for k in kids) == pytest.approx(box.volume, abs=1e-15)

    def test_levels_expand_in_children_order(self):
        root = DyadicCube(1, (1, 0))
        levels = list(dyadic_levels(root, 2))
        assert [len(f) for f in levels] == [1, 4, 16]
        assert levels[0] == [root]
        for parents, kids in zip(levels, levels[1:]):
            assert kids == [kid for node in parents for kid in node.children()]
        assert list(dyadic_levels(root, 0)) == [[root]]

    def test_parabolic_levels_and_box(self):
        root = DyadicParabolicBox(0, (0,), 0)
        assert [len(f) for f in dyadic_levels(root, 2)] == [1, 8, 64]
        node = DyadicParabolicBox(2, (3,), 7)
        box = node.as_box()
        assert box.lo == (0.75, 7 / 16) and box.sides == (0.25, 1 / 16)

    def test_parabolic_box_relation(self):
        pbox = DyadicParabolicBox(2, (3,), 7).as_parabolic_box()
        assert pbox.t_len == pytest.approx(pbox.side ** 2)
        assert pbox.strict
        assert not pbox.dilate(3.0).strict


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
        w1 = np.mean([w for _, w in sample_lines(Q, 5000, 3)])
        w2 = np.mean([w for _, w in sample_lines(big, 5000, 4)])
        assert w2 / w1 == pytest.approx(4.0, rel=0.05)  # 2^{n-1}, n = 3

    def test_sampled_lines_nonempty(self):
        Q = Box((0.0, 0.0), (1.0, 1.0))
        for seg, w in sample_lines(Q, 200, 9):
            assert seg.s1 > seg.s0
            assert w > 0

    def test_determinism(self):
        Q = Box((0.0, 0.0), (1.0, 1.0))
        a = sample_hyperplanes(Q, 50, 11)
        b = sample_hyperplanes(Q, 50, 11)
        assert all(p1 == p2 and w1 == w2 for (p1, w1), (p2, w2) in zip(a, b))
