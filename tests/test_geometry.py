import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibeta import geometry
from multibeta.errors import DegenerateBox, DegenerateSimplex, ParallelOrDegenerate
from multibeta.geometry import (Ball, Box, DyadicBox,
                                Hyperplane, ParabolicBox, Simplex,
                                clip_lines, dyadic_levels,
                                estimate_line_measure, estimate_plane_measure,
                                intersect_hyperplanes,
                                orthonormal_complement, parabolic_distance,
                                plane_metric, sample_hyperplanes, sample_lines,
                                shadow_area, simplex_from_planes, support_interval,
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

    @pytest.mark.parametrize("estimate", [estimate_plane_measure, estimate_line_measure],
                             ids=["plane", "line"])
    def test_fewer_than_two_samples_are_refused(self, estimate):
        Q = Box((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="count must be >= 2"):
            estimate(Q, Q, 1, 3)
        # two samples give a finite standard error, and no RuntimeWarning
        assert all(map(math.isfinite, estimate(Q, Q, 2, 3)))

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
        lines = sample_lines(Q, 200, 9)
        assert clip_lines(lines["base"], lines["direction"], Q)[0].all()
        assert (lines["weight"] > 0).all()

    def test_determinism(self):
        Q = Box((0.0, 0.0), (1.0, 1.0))
        a = sample_hyperplanes(Q, 50, 11)
        b = sample_hyperplanes(Q, 50, 11)
        assert all(p1 == p2 and w1 == w2 for (p1, w1), (p2, w2) in zip(a, b))


def parent_orthonormal_complement(e):
    """geometry.orthonormal_complement as it was before the stacked frames, frozen."""
    e = np.asarray(e, dtype=float)
    n = e.size
    # Householder reflection mapping e to +/- e_1; remaining columns span e^perp.
    v = e.copy()
    v[0] += math.copysign(1.0, e[0] if e[0] != 0 else 1.0)
    v /= np.linalg.norm(v)
    H = np.eye(n) - 2.0 * np.outer(v, v)
    return H[:, 1:]


def parent_support_interval(region, e):
    """geometry.support_interval as it was before the stacked intervals, frozen."""
    if isinstance(region, Ball):
        c = np.asarray(region.center) @ e
        return c - region.radius, c + region.radius
    lo, hi = region.lo_arr, region.hi
    t0 = float(np.sum(np.minimum(e * lo, e * hi)))
    t1 = float(np.sum(np.maximum(e * lo, e * hi)))
    return t0, t1


def parent_clip_line_to_box(base, direction, box):
    """geometry.clip_line_to_box, the scalar slab clip, frozen: (s0, s1) or
    None if the line misses the box."""
    base = np.asarray(base, dtype=float).tolist()
    direction = np.asarray(direction, dtype=float).tolist()
    s_lo, s_hi = -math.inf, math.inf
    for lo, side, b, d in zip(box.lo, box.sides, base, direction):
        hi = lo + side
        if abs(d) < 1e-14:
            if b < lo or b > hi:
                return None
            continue
        a0 = (lo - b) / d
        a1 = (hi - b) / d
        if a0 > a1:
            a0, a1 = a1, a0
        s_lo = max(s_lo, a0)
        s_hi = min(s_hi, a1)
    if s_lo >= s_hi:
        return None
    return s_lo, s_hi


def parent_meets_region(base, direction, region):
    """geometry.meets_region, the scalar ball-or-box decision, frozen."""
    if isinstance(region, Ball):
        rel = np.asarray(base, dtype=float) - np.asarray(region.center)
        b = rel @ np.asarray(direction, dtype=float)
        return not b * b - (rel @ rel - region.radius ** 2) <= 0
    return parent_clip_line_to_box(base, direction, region) is not None


def _reference_sample_lines(box, count, rng):
    """The line sampler as it was when it drew and clipped one line at a time,
    frozen: (base, direction, weight) tuples drawn from the generator ``rng``,
    the direction normalized a second time."""
    n = box.dim
    norm = geometry.ball_volume(n - 1)
    corners = box.corners()
    faces = [np.prod(np.delete(np.asarray(box.sides), i)) for i in range(n)]
    out = []
    for _ in range(count):
        g = rng.standard_normal((1, n))
        e = (g / np.linalg.norm(g, axis=1, keepdims=True))[0]
        B = parent_orthonormal_complement(e)
        corner_frame = corners @ B
        lo = corner_frame.min(axis=0)
        hi = corner_frame.max(axis=0)
        for _ in range(geometry.MAX_LINE_REJECTIONS):
            u = rng.uniform(lo, hi)
            base = B @ u
            if clip_lines(base[None], e, box)[0][0]:
                break
        d = np.asarray(tuple(e), dtype=float)
        shadow = 0.0
        for ei, face in zip(e, faces):
            shadow += abs(ei) * face
        out.append(([float(v) for v in base], (d / np.linalg.norm(d)).tolist(),
                    float(shadow) / norm))
    return out


def _reference_sample_hyperplanes(region, count, seed):
    """The hyperplane sampler as it was with one rng.uniform call per plane, frozen."""
    rng = stream(seed, "hyperplanes")
    g = rng.standard_normal((count, region.dim))
    out = []
    for e in g / np.linalg.norm(g, axis=1, keepdims=True):
        t0, t1 = parent_support_interval(region, e)
        out.append((Hyperplane(tuple(e), rng.uniform(t0, t1)), 0.5 * (t1 - t0)))
    return out


def assert_lines_equal(lines, expect):
    assert len(lines) == len(expect)
    assert lines["base"].tolist() == [b for b, _, _ in expect]
    assert lines["direction"].tolist() == [d for _, d, _ in expect]
    assert lines["weight"].tolist() == [w for _, _, w in expect]


def bits(values):
    """The IEEE bits of each value: == on them tells 0.0 from -0.0."""
    return [np.float64(v).tobytes() for v in values]


def random_box(n, box_seed, shape="random"):
    """A box in R^n; "slab" and "needle" boxes have side ratio 100."""
    rng = np.random.default_rng(box_seed)
    lo = tuple(rng.uniform(-5.0, 5.0, n))
    if shape == "random":
        return Box(lo, tuple(rng.uniform(0.01, 5.0, n)))
    side = rng.uniform(0.05, 5.0)
    sides = np.full(n, side if shape == "slab" else side / 100.0)
    sides[box_seed % n] = side / 100.0 if shape == "slab" else side
    return Box(lo, tuple(sides))


def counting_stream(restores):
    """geometry.stream, but each assignment to ``bit_generator.state`` of the
    generators it returns appends to ``restores``."""

    class CountingPCG64(np.random.PCG64):
        @property
        def state(self):
            return np.random.PCG64.state.__get__(self)

        @state.setter
        def state(self, value):
            restores.append(value)
            np.random.PCG64.state.__set__(self, value)

    def make(seed, *tags):
        bit_generator = CountingPCG64()
        state = dict(stream(seed, *tags).bit_generator.state, bit_generator="CountingPCG64")
        np.random.PCG64.state.__set__(bit_generator, state)
        return np.random.Generator(bit_generator)

    return make


class AxisNormals(np.random.Generator):
    """A generator that draws as its bit generator's Generator does, except
    that each normal vector comes out as the signed axis of its largest
    component, its other components 0.0 or -0.0 as their signs were."""

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        g = super().standard_normal(size, dtype, out)
        rows = g.reshape(-1, g.shape[-1])
        k, at = np.arange(len(rows)), np.abs(rows).argmax(axis=1)
        axis = np.copysign(0.0, rows)
        axis[k, at] = np.copysign(1.0, rows[k, at])
        rows[...] = axis
        return g


class TestLineFamily:
    # 2048 is the per-box draw count of slice_mc; 513 ends in a part window
    @given(n=st.sampled_from([2, 3]), box_seed=st.integers(0, 2 ** 31 - 1),
           shape=st.sampled_from(["random", "slab", "needle"]),
           seed=st.integers(0, 2 ** 62), count=st.sampled_from([513, 2, 2048, 1, 40]))
    def test_sampler_matches_reference_bit_for_bit(self, n, box_seed, shape, seed, count):
        box = random_box(n, box_seed, shape)
        assert_lines_equal(sample_lines(box, count, seed),
                           _reference_sample_lines(box, count, stream(seed, "lines")))

    @pytest.mark.parametrize("box", [random_box(3, 5, "slab"), random_box(3, 5, "needle"),
                                     Box((0.0,) * 3, (1.0,) * 3)], ids=["slab", "needle", "cube"])
    def test_missed_lines_roll_back(self, monkeypatch, box):
        restores = []
        monkeypatch.setattr(geometry, "stream", counting_stream(restores))
        lines = sample_lines(box, 513, 7)
        # a window whose line misses puts the stream back to the window's start
        assert restores
        assert_lines_equal(lines, _reference_sample_lines(box, 513, stream(7, "lines")))

    @pytest.mark.parametrize("n", [2, 3])
    def test_axis_parallel_lines_raise_no_float_error(self, monkeypatch, n):
        monkeypatch.setattr(geometry, "stream",
                            lambda seed, *tags: AxisNormals(stream(seed, *tags).bit_generator))
        box = Box((0.5, -1.0, 2.0)[:n], (1.0, 2.0, 0.25)[:n])
        with np.errstate(all="raise"):
            lines = sample_lines(box, 64, 11)
        assert np.all(np.sort(np.abs(lines["direction"]), axis=1)[:, :-1] == 0.0)
        expect = _reference_sample_lines(box, 64, AxisNormals(stream(11, "lines").bit_generator))
        assert_lines_equal(lines, expect)

    @pytest.mark.parametrize("limit", [1, 3])
    def test_rejection_limit_raises_degenerate_box(self, monkeypatch, limit):
        tries = []

        def never(bases, directions, box):
            ok, s0, s1 = clip_lines(bases, directions, box)
            tries.append(len(ok))
            return np.zeros_like(ok), s0, s1

        monkeypatch.setattr(geometry, "MAX_LINE_REJECTIONS", limit)
        monkeypatch.setattr(geometry, "clip_lines", never)
        box = Box((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(DegenerateBox, match=f"^{limit} draws in a row missed the box Box"):
            sample_lines(box, 5, 1)
        # the window of 2 lines, then the missed line's other tries
        assert tries == [2] + ([limit - 1] if limit > 1 else [])

    # perfbench/tracer.py's ``_drawn`` payload counts the draws of a sampler
    # call as len(result), so each sampler returns one entry per draw
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("count", [1, 7, 64])
    def test_sampler_length_is_count(self, n, count):
        box = Box((0.0,) * n, (1.0,) * n)
        assert len(sample_lines(box, count, 3)) == count
        assert len(sample_hyperplanes(box, count, 3)) == count


class TestHyperplaneFamily:
    @given(n=st.sampled_from([2, 3]), box_seed=st.integers(0, 2 ** 31 - 1),
           seed=st.integers(0, 2 ** 62), count=st.sampled_from([513, 2, 40, 1]))
    def test_sampler_matches_reference_bit_for_bit(self, n, box_seed, seed, count):
        box = random_box(n, box_seed)
        planes = sample_hyperplanes(box, count, seed)
        expect = _reference_sample_hyperplanes(box, count, seed)
        assert [(p.normal, p.offset) for p, _ in planes] == [(p.normal, p.offset) for p, _ in expect]
        assert [w for _, w in planes] == [w for _, w in expect]
        assert all(type(w) is float for _, w in planes)

    @given(n=st.sampled_from([1, 2, 3, 9]), seed=st.integers(0, 2 ** 31 - 1),
           ball=st.booleans())
    def test_support_interval_matches_reference(self, n, seed, ball):
        rng = np.random.default_rng(seed)
        region = (Ball(tuple(rng.uniform(-3.0, 3.0, n)), 1.5) if ball
                  else random_box(n, seed))
        for e in rng.standard_normal((20, n)):
            assert support_interval(region, e) == parent_support_interval(region, e)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("target", ["ball", "box"])
    def test_plane_measure_matches_reference(self, n, target):
        region = Box((-1.2,) * n, (2.4,) * n)
        goal = Ball((0.1,) * n, 1.0) if target == "ball" else Box((0.0,) * n, (1.0,) * n)
        samples = _reference_sample_hyperplanes(region, 3000, 5)
        vals = np.asarray([w if parent_support_interval(goal, p.e)[0] <= p.offset
                           <= parent_support_interval(goal, p.e)[1] else 0.0 for p, w in samples])
        assert estimate_plane_measure(region, goal, 3000, 5) == (
            float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(3000)))


class TestStackedFrames:
    @given(n=st.sampled_from([1, 2, 3, 4]), seed=st.integers(0, 2 ** 31 - 1),
           first=st.sampled_from([None, 0.0, -0.0, 1e-300, -1.0]))
    def test_frames_match_frozen_householder(self, n, seed, first):
        E = np.random.default_rng(seed).standard_normal((40, n))
        if first is not None and n > 1:
            E[::2, 0] = first
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        frames = geometry._householder_frames(E)
        for e, B in zip(E, frames):
            expect = parent_orthonormal_complement(e)
            assert B.tobytes() == expect.tobytes()
            assert orthonormal_complement(e).tobytes() == expect.tobytes()


def line_parts(n):
    """(base, direction) of lines through a small lattice box, with
    direction components 0, -0, +/-1e-15, +/-1e-14 and coordinates on the
    box's faces and corners."""
    coords = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, 3.0]),
                       st.floats(-3.0, 3.0, allow_nan=False))
    comps = st.one_of(st.sampled_from([0.0, -0.0, 1e-15, -1e-15, 1e-14, -1e-14,
                                       1.0, -1.0, 0.5, -0.5]),
                      st.floats(-1.0, 1.0, allow_nan=False))
    return st.tuples(st.lists(coords, min_size=n, max_size=n),
                     st.lists(comps, min_size=n, max_size=n))


class TestClipLines:
    boxes = st.sampled_from([((0.0, 0.0), (1.0, 1.0)), ((-1.0, 0.5), (2.0, 0.5)),
                             ((0.0,), (2.0,)), ((0.0, 0.0, 0.0), (1.0, 2.0, 1.0)),
                             ((-0.0, 1.0, -1.0), (0.5, 1.0, 2.0))])

    @settings(max_examples=150)
    @given(box=boxes, data=st.data())
    def test_stack_matches_scalar_clip(self, box, data):
        box = Box(*box)
        lines = data.draw(st.lists(line_parts(box.dim), min_size=1, max_size=12))
        bases = np.asarray([b for b, _ in lines]).reshape(-1, box.dim)
        directions = np.asarray([d for _, d in lines]).reshape(-1, box.dim)
        with np.errstate(all="raise"):
            ok, s0, s1 = clip_lines(bases, directions, box)
        for k, (b, d) in enumerate(zip(bases, directions)):
            expect = parent_clip_line_to_box(b, d, box)
            assert ok[k] == (expect is not None)
            if expect is not None:
                assert bits((s0[k], s1[k])) == bits(expect)
        # one direction for every line, as the sampler's rejection loop passes it
        one = clip_lines(bases, directions[0], box)
        many = clip_lines(bases, np.tile(directions[0], (len(bases), 1)), box)
        assert one[0].tolist() == many[0].tolist()
        assert bits(one[1]) == bits(many[1]) and bits(one[2]) == bits(many[2])

    def test_line_through_a_corner_misses(self):
        box = Box((0.0, 0.0), (1.0, 1.0))
        ok, s0, s1 = clip_lines(np.zeros((1, 2)), np.array([[1.0, -1.0]]), box)
        assert parent_clip_line_to_box(np.zeros(2), np.array([1.0, -1.0]), box) is None
        assert not ok[0] and bits((s0[0], s1[0])) == bits((0.0, -0.0))

    @given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 31 - 1), ball=st.booleans())
    def test_meets_mask_matches_meets_region(self, n, seed, ball):
        rng = np.random.default_rng(seed)
        region = Ball(tuple(rng.uniform(-1.0, 1.0, n)), 1.0) if ball else random_box(n, seed)
        bases = rng.uniform(-6.0, 6.0, (64, n))
        directions = rng.standard_normal((64, n))
        directions[::4, 0] = 0.0
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        mask = geometry._lines_meet(bases, directions, region)
        assert mask.tolist() == [parent_meets_region(b, d, region)
                                 for b, d in zip(bases, directions)]
