"""Dyadic decompositions, affine planes and lines, Grassmannian sampling.

Euclidean boxes and dyadic cubes, parabolic boxes, hyperplanes with the
sign-identified (normal, offset) parametrization, line segments, affine
maps, simplices, transversality, and unbiased Monte Carlo samplers for the
translation-invariant measures on affine lines and affine hyperplanes
(normalized so that the set of planes meeting the unit ball has measure 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimplex, ParallelOrDegenerate
from .rng import stream

DET_TOL = 1e-10


def ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m (m = 0 gives 1)."""
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# Boxes and dyadic cubes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by min-corner and per-axis side lengths."""

    lo: tuple
    sides: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "sides", tuple(float(v) for v in self.sides))
        if len(self.lo) != len(self.sides):
            raise ValueError("box lo and sides must have the same length")
        if any(s <= 0 for s in self.sides):
            raise ValueError("box sides must be positive")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def lo_arr(self) -> np.ndarray:
        return np.asarray(self.lo)

    @property
    def hi(self) -> np.ndarray:
        return self.lo_arr + np.asarray(self.sides)

    @property
    def center(self) -> np.ndarray:
        return self.lo_arr + 0.5 * np.asarray(self.sides)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.sides))

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def dilate(self, c: float) -> "Box":
        """Concentric dilation; scales the diameter by ``c``."""
        sides = c * np.asarray(self.sides)
        lo = self.center - 0.5 * sides
        return Box(tuple(lo), tuple(sides))

    def contains(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(points)
        lo = self.lo_arr - tol
        hi = self.hi + tol
        ok = np.all((pts >= lo) & (pts <= hi), axis=1)
        return ok if points.ndim > 1 else bool(ok[0])

    def corners(self) -> np.ndarray:
        lo, hi = self.lo_arr, self.hi
        out = np.empty((2 ** self.dim, self.dim))
        for i, bits in enumerate(itertools.product((0, 1), repeat=self.dim)):
            out[i] = np.where(bits, hi, lo)
        return out


@dataclass(frozen=True)
class Ball:
    """Euclidean ball, used for Grassmannian normalization checks."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class DyadicCube:
    """Standard dyadic cube 2^{-j}(k + [0,1)^n)."""

    level: int
    index: tuple

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(int(k) for k in self.index))

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def lo(self) -> np.ndarray:
        return np.asarray(self.index) * self.side

    @property
    def diameter(self) -> float:
        return math.sqrt(self.dim) * self.side

    @property
    def volume(self) -> float:
        return self.side ** self.dim

    def as_box(self) -> Box:
        return Box(tuple(self.lo), (self.side,) * self.dim)

    def children(self) -> list:
        base = tuple(2 * k for k in self.index)
        kids = []
        for bits in itertools.product((0, 1), repeat=self.dim):
            kids.append(DyadicCube(self.level + 1, tuple(b + o for b, o in zip(base, bits))))
        return kids


# ---------------------------------------------------------------------------
# Parabolic boxes
# ---------------------------------------------------------------------------


def parabolic_distance(p, q):
    """|x - y| + |s - t|^{1/2} with the last coordinate playing time."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    space = np.linalg.norm(p[..., :-1] - q[..., :-1], axis=-1)
    time = np.sqrt(np.abs(p[..., -1] - q[..., -1]))
    return space + time


@dataclass(frozen=True)
class ParabolicBox:
    """Rectangle I1 x I2 in R^{n-1} x R.

    The dyadic family has |I2| = side(I1)^2; concentric dilations break
    that relation, recorded by ``strict``.
    """

    spatial: Box
    t0: float
    t_len: float
    strict: bool = True

    def __post_init__(self):
        if self.t_len <= 0:
            raise ValueError("time interval must have positive length")
        if self.strict and abs(self.t_len - self.spatial.sides[0] ** 2) > 1e-12 * max(1.0, self.t_len):
            object.__setattr__(self, "strict", False)

    @property
    def dim(self) -> int:
        """Ambient dimension n of R^{n-1} x R."""
        return self.spatial.dim + 1

    @property
    def side(self) -> float:
        return self.spatial.sides[0]

    @property
    def volume(self) -> float:
        return self.spatial.volume * self.t_len

    @property
    def diameter(self) -> float:
        """Diameter in the parabolic metric (opposite corners)."""
        return self.spatial.diameter + math.sqrt(self.t_len)

    @property
    def center(self) -> np.ndarray:
        return np.concatenate([self.spatial.center, [self.t0 + 0.5 * self.t_len]])

    def dilate(self, c: float) -> "ParabolicBox":
        sp = self.spatial.dilate(c)
        t_len = c * self.t_len
        t0 = self.t0 + 0.5 * (self.t_len - t_len)
        return ParabolicBox(sp, t0, t_len, strict=False)

    def as_box(self) -> Box:
        """The same rectangle viewed as a Euclidean box in R^n."""
        return Box(self.spatial.lo + (self.t0,), self.spatial.sides + (self.t_len,))


@dataclass(frozen=True)
class DyadicParabolicBox:
    """Node of the parabolic dyadic tree: spatial side 2^{-j}, time 4^{-j}."""

    level: int
    spatial_index: tuple
    time_index: int

    def __post_init__(self):
        object.__setattr__(self, "spatial_index", tuple(int(k) for k in self.spatial_index))

    @property
    def spatial_dim(self) -> int:
        return len(self.spatial_index)

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def volume(self) -> float:
        return self.side ** self.spatial_dim * self.side ** 2

    def as_parabolic_box(self) -> ParabolicBox:
        s = self.side
        sp = Box(tuple(np.asarray(self.spatial_index) * s), (s,) * self.spatial_dim)
        return ParabolicBox(sp, self.time_index * s * s, s * s)

    def as_box(self) -> Box:
        """The space-time rectangle as a Euclidean box in R^n."""
        return self.as_parabolic_box().as_box()

    def children(self) -> list:
        base = tuple(2 * k for k in self.spatial_index)
        kids = []
        for bits in itertools.product((0, 1), repeat=self.spatial_dim):
            for tt in range(4):
                kids.append(
                    DyadicParabolicBox(
                        self.level + 1,
                        tuple(b + o for b, o in zip(base, bits)),
                        4 * self.time_index + tt,
                    )
                )
        return kids


def dyadic_levels(root, depth: int):
    """Yield the frontiers of the dyadic tree below ``root``, level by level.

    Works for any node with ``children()`` (dyadic cubes and parabolic
    boxes); yields depth + 1 lists, each in ``children()`` order of the
    previous one.
    """
    frontier = [root]
    yield frontier
    for _ in range(depth):
        frontier = [kid for node in frontier for kid in node.children()]
        yield frontier


# ---------------------------------------------------------------------------
# Hyperplanes, lines, affine maps, simplices
# ---------------------------------------------------------------------------


def _canonical(normal: np.ndarray, offset: float):
    normal = np.asarray(normal, dtype=float)
    norm = np.linalg.norm(normal)
    if norm < 1e-14:
        raise ValueError("hyperplane normal must be nonzero")
    normal = normal / norm
    offset = float(offset) / norm
    for comp in normal:
        if abs(comp) > 1e-14:
            if comp < 0:
                normal, offset = -normal, -offset
            break
    return normal, offset


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {x : x . e = t}, sign-canonicalized."""

    normal: tuple
    offset: float

    def __post_init__(self):
        e, t = _canonical(np.asarray(self.normal), self.offset)
        object.__setattr__(self, "normal", tuple(e))
        object.__setattr__(self, "offset", float(t))

    @property
    def dim(self) -> int:
        return len(self.normal)

    @property
    def e(self) -> np.ndarray:
        return np.asarray(self.normal)

    def frame(self) -> np.ndarray:
        """Orthonormal basis of the plane's direction space, shape (n, n-1)."""
        return orthonormal_complement(self.e)

    def point(self) -> np.ndarray:
        """The point of the plane closest to the origin."""
        return self.offset * self.e


def orthonormal_complement(e: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of e^perp (deterministic)."""
    e = np.asarray(e, dtype=float)
    n = e.size
    # Householder reflection mapping e to +/- e_1; remaining columns span e^perp.
    v = e.copy()
    v[0] += math.copysign(1.0, e[0] if e[0] != 0 else 1.0)
    v /= np.linalg.norm(v)
    H = np.eye(n) - 2.0 * np.outer(v, v)
    return H[:, 1:]


@dataclass(frozen=True)
class LineSeg:
    """Line base + s * direction with parameter interval [s0, s1]."""

    base: tuple
    direction: tuple
    s0: float
    s1: float

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        nrm = np.linalg.norm(d)
        if nrm < 1e-14:
            raise ValueError("line direction must be nonzero")
        object.__setattr__(self, "direction", tuple(d / nrm))
        object.__setattr__(self, "base", tuple(float(v) for v in self.base))

    @property
    def dim(self) -> int:
        return len(self.base)

    def points(self, s: np.ndarray) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.asarray(self.base) + s[:, None] * np.asarray(self.direction)


@dataclass(frozen=True)
class AffineMap:
    """A(x) = a . x + b; the Lipschitz constant is |a|."""

    gradient: tuple
    intercept: float

    def __post_init__(self):
        object.__setattr__(self, "gradient", tuple(float(v) for v in np.atleast_1d(self.gradient)))
        object.__setattr__(self, "intercept", float(self.intercept))

    @property
    def a(self) -> np.ndarray:
        return np.asarray(self.gradient)

    @property
    def lipschitz(self) -> float:
        return float(np.linalg.norm(self.gradient))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return float(pts @ self.a + self.intercept)
        return pts @ self.a + self.intercept


@dataclass(frozen=True)
class Simplex:
    """n+1 vertices in R^n."""

    vertices: tuple  # tuple of tuples

    def __post_init__(self):
        verts = tuple(tuple(float(v) for v in row) for row in np.atleast_2d(np.asarray(self.vertices)))
        object.__setattr__(self, "vertices", verts)

    @property
    def v(self) -> np.ndarray:
        return np.asarray(self.vertices)

    @property
    def dim(self) -> int:
        return self.v.shape[1]

    @property
    def volume(self) -> float:
        v = self.v
        return abs(np.linalg.det(v[1:] - v[0])) / math.factorial(self.dim)

    def halfspaces(self):
        """(A, b) with interior = {x : A x <= b}; row i is the face opposite vertex i."""
        v = self.v
        n = self.dim
        rows, offs = [], []
        for i in range(n + 1):
            face = np.delete(v, i, axis=0)
            base = face[0]
            span = face[1:] - base
            # normal orthogonal to the face, oriented away from vertex i
            _, _, vt = np.linalg.svd(span)
            normal = vt[-1]
            if normal @ (v[i] - base) > 0:
                normal = -normal
            rows.append(normal)
            offs.append(normal @ base)
        return np.asarray(rows), np.asarray(offs)

    def contains(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        A, b = self.halfspaces()
        pts = np.atleast_2d(points)
        ok = np.all(pts @ A.T <= b + 1e-12 - margin, axis=1)
        return ok if np.asarray(points).ndim > 1 else bool(ok[0])


# ---------------------------------------------------------------------------
# Plane operations
# ---------------------------------------------------------------------------


def intersect_hyperplanes(planes) -> np.ndarray:
    """Unique common point of n hyperplanes in R^n."""
    planes = list(planes)
    n = planes[0].dim
    if len(planes) != n:
        raise ValueError(f"need exactly {n} hyperplanes in R^{n}")
    E = np.asarray([p.e for p in planes])
    t = np.asarray([p.offset for p in planes])
    if abs(np.linalg.det(E)) < DET_TOL:
        raise ParallelOrDegenerate("normal matrix is numerically singular")
    return np.linalg.solve(E, t)


def transversality(planes) -> float:
    """min |det| of normals over all n-element subsets."""
    planes = list(planes)
    n = planes[0].dim
    normals = np.asarray([p.e for p in planes])
    best = math.inf
    for idx in itertools.combinations(range(len(planes)), n):
        best = min(best, abs(np.linalg.det(normals[list(idx)])))
    return best


def plane_metric(v1: Hyperplane, v2: Hyperplane) -> float:
    """min{|(e1,t1)-(e2,t2)|, |(e1,t1)+(e2,t2)|} on the (normal, offset) chart."""
    p1 = np.concatenate([v1.e, [v1.offset]])
    p2 = np.concatenate([v2.e, [v2.offset]])
    return float(min(np.linalg.norm(p1 - p2), np.linalg.norm(p1 + p2)))


def simplex_from_planes(planes) -> Simplex:
    """Simplex whose faces lie on the n+1 given hyperplanes."""
    planes = list(planes)
    n = planes[0].dim
    if len(planes) != n + 1:
        raise ValueError(f"need exactly {n + 1} hyperplanes in R^{n}")
    tau = transversality(planes)
    if tau <= 1e-8:
        raise DegenerateSimplex(f"plane family transversality {tau:.3e} too small")
    verts = []
    for j in range(n + 1):
        sub = [planes[i] for i in range(n + 1) if i != j]
        verts.append(intersect_hyperplanes(sub))
    simplex = Simplex(tuple(tuple(v) for v in verts))
    if simplex.volume <= 0:
        raise DegenerateSimplex("zero-volume simplex")
    return simplex


def clip_line_to_box(base: np.ndarray, direction: np.ndarray, box: Box):
    """Slab-clip; returns (s0, s1) or None if the line misses the box."""
    # Python floats: the same IEEE operations as numpy scalars, at less cost
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


def clip_line_to_ball(base: np.ndarray, direction: np.ndarray, ball: Ball):
    d = np.asarray(direction, dtype=float)
    rel = np.asarray(base, dtype=float) - np.asarray(ball.center)
    b = rel @ d
    c = rel @ rel - ball.radius ** 2
    disc = b * b - c
    if disc <= 0:
        return None
    root = math.sqrt(disc)
    return -b - root, -b + root


# ---------------------------------------------------------------------------
# Grassmannian measure: supports and sampling
# ---------------------------------------------------------------------------


def support_interval(region, e: np.ndarray):
    """Range of x . e over the region (offsets of hyperplanes meeting it)."""
    if isinstance(region, Ball):
        c = np.asarray(region.center) @ e
        return c - region.radius, c + region.radius
    lo, hi = region.lo_arr, region.hi
    t0 = float(np.sum(np.minimum(e * lo, e * hi)))
    t1 = float(np.sum(np.maximum(e * lo, e * hi)))
    return t0, t1


def shadow_area(box: Box, e: np.ndarray) -> float:
    """(n-1)-volume of the orthogonal projection of the box onto e^perp."""
    return _box_shadow(_face_areas(box), e)


def _face_areas(box: Box) -> list:
    """(n-1)-volume of the faces of the box normal to each axis."""
    sides = np.asarray(box.sides)
    return [np.prod(np.delete(sides, i)) for i in range(box.dim)]


def _box_shadow(faces: list, e: np.ndarray) -> float:
    total = 0.0
    for ei, face in zip(e, faces):
        total += abs(ei) * face
    return float(total)


def meets_region(base: np.ndarray, direction: np.ndarray, region) -> bool:
    if isinstance(region, Ball):
        return clip_line_to_ball(base, direction, region) is not None
    return clip_line_to_box(base, direction, region) is not None


def plane_meets_region(plane: Hyperplane, region) -> bool:
    t0, t1 = support_interval(region, plane.e)
    return t0 <= plane.offset <= t1


def _unit_vectors(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    g = rng.standard_normal((count, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def sample_hyperplanes(region, count: int, seed: int):
    """Weighted hyperplane samples for Monte Carlo integration over A_{n-1}(region).

    Directions are uniform on the sphere, offsets uniform on the region's
    support slab; weights make ``mean(w * g(V))`` an unbiased estimator of
    the (normalized) measure integral of g over planes meeting the region.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = region.dim
    rng = stream(seed, "hyperplanes")
    E = _unit_vectors(rng, count, n)
    out = []
    for e in E:
        t0, t1 = support_interval(region, e)
        t = rng.uniform(t0, t1)
        # c_{n-1} = 1 / (2 sigma(S^{n-1})); weight = c * sigma * slab width
        out.append((Hyperplane(tuple(e), t), 0.5 * (t1 - t0)))
    return out


def sample_lines(box: Box, count: int, seed: int):
    """Weighted line samples for Monte Carlo integration over A_1(box).

    Base points are uniform on the shadow of the box on e^perp (rejection
    from its bounding rectangle); the weight is the exact shadow area
    divided by the unit-ball normalizer.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = box.dim
    rng = stream(seed, "lines")
    norm = ball_volume(n - 1)
    # invariants of the box, hoisted out of the per-line loop
    corners, faces = box.corners(), _face_areas(box)
    out = []
    for _ in range(count):
        e = _unit_vectors(rng, 1, n)[0]
        B = orthonormal_complement(e)
        corner_frame = corners @ B
        lo = corner_frame.min(axis=0)
        hi = corner_frame.max(axis=0)
        while True:
            u = rng.uniform(lo, hi)
            base = B @ u
            clip = clip_line_to_box(base, e, box)
            if clip is not None:
                break
        seg = LineSeg(tuple(base), tuple(e), clip[0], clip[1])
        out.append((seg, _box_shadow(faces, e) / norm))
    return out


def estimate_plane_measure(sample_region, target_region, count: int, seed: int):
    """MC estimate (mean, stderr) of the hyperplane measure of A_{n-1}(target)."""
    samples = sample_hyperplanes(sample_region, count, seed)
    vals = np.asarray([w if plane_meets_region(p, target_region) else 0.0 for p, w in samples])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(count))


def estimate_line_measure(sample_region, target_region, count: int, seed: int):
    """MC estimate (mean, stderr) of the line measure of A_1(target)."""
    samples = sample_lines(sample_region, count, seed)
    vals = np.asarray(
        [w if meets_region(np.asarray(seg.base), np.asarray(seg.direction), target_region) else 0.0 for seg, w in samples]
    )
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(count))
