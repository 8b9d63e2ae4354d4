"""Dyadic decompositions, affine planes and lines, Grassmannian sampling.

Euclidean boxes, parabolic boxes, dyadic boxes (cubes and parabolic),
hyperplanes with the sign-identified (normal, offset) parametrization,
lines, affine maps, simplices, transversality, and unbiased Monte Carlo
samplers for the translation-invariant measures on affine lines and affine
hyperplanes (normalized so that the set of planes meeting the unit ball has
measure 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBox, DegenerateSimplex, ParallelOrDegenerate
from .rng import stream

DET_TOL = 1e-10
# Consecutive missed draws after which ``sample_lines`` gives up on a box too
# thin for float resolution; the pinned workloads miss at most 9 in a row.
MAX_LINE_REJECTIONS = 100_000


def ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m (m = 0 gives 1)."""
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# Boxes
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
        if not all(s > 0 for s in self.sides) or not all(map(math.isfinite, self.lo + self.sides)):
            raise ValueError("box sides must be positive, and lo and sides finite")

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

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Whether each point lies in the box widened by 1e-12 on every side."""
        pts = np.atleast_2d(points)
        lo = self.lo_arr - 1e-12
        hi = self.hi + 1e-12
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
    that relation.
    """

    spatial: Box
    t0: float
    t_len: float

    def __post_init__(self):
        if self.t_len <= 0:
            raise ValueError("time interval must have positive length")

    @property
    def dim(self) -> int:
        """Ambient dimension n of R^{n-1} x R."""
        return self.spatial.dim + 1

    @property
    def volume(self) -> float:
        return self.spatial.volume * self.t_len

    @property
    def diameter(self) -> float:
        """Diameter in the parabolic metric (opposite corners)."""
        return self.spatial.diameter + math.sqrt(self.t_len)

    def dilate(self, c: float) -> "ParabolicBox":
        sp = self.spatial.dilate(c)
        t_len = c * self.t_len
        t0 = self.t0 + 0.5 * (self.t_len - t_len)
        return ParabolicBox(sp, t0, t_len)

    def as_box(self) -> Box:
        """The same rectangle viewed as a Euclidean box in R^n."""
        return Box(self.spatial.lo + (self.t0,), self.spatial.sides + (self.t_len,))


@dataclass(frozen=True, slots=True)
class DyadicBox:
    """Node of a dyadic tree: the box prod_i s_i^{-j} (k_i + [0, 1)) for the
    level j, the integer index k and the per-axis split s.

    A dyadic cube splits every axis in 2; a parabolic dyadic box splits its
    spatial axes in 2 and its last (time) axis in 4, so its time side 4^{-j}
    is the square of its spatial side.
    """

    level: int
    index: tuple
    split: tuple

    def __post_init__(self):
        if len(self.index) != len(self.split):
            raise ValueError("dyadic index and split must have the same length")

    @property
    def sides(self) -> tuple:
        return tuple(float(s) ** -self.level for s in self.split)

    @property
    def volume(self) -> float:
        return math.prod(self.sides)

    def as_box(self) -> Box:
        sides = self.sides
        return Box(tuple(k * s for k, s in zip(self.index, sides)), sides)

    def as_parabolic_box(self) -> ParabolicBox:
        """The box with its last axis as the time interval."""
        sides = self.sides
        *lo, t0 = (k * s for k, s in zip(self.index, sides))
        return ParabolicBox(Box(tuple(lo), sides[:-1]), t0, sides[-1])

    def children(self) -> list:
        """The children, offsets in lexicographic order over range(split[i])."""
        base = [s * k for s, k in zip(self.split, self.index)]
        level = self.level + 1
        return [DyadicBox(level, tuple(b + o for b, o in zip(base, offsets)), self.split)
                for offsets in itertools.product(*map(range, self.split))]


def dyadic_levels(root, depth: int):
    """Yield the frontiers of the dyadic tree below ``root``, level by level.

    Yields depth + 1 lists, each in ``children()`` order of the previous one.
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
    return _householder_frames(np.asarray(e, dtype=float)[None])[0]


def _householder_frames(E: np.ndarray) -> np.ndarray:
    """(K, n, n-1): the orthonormal_complement of each row of E (K, n).

    The Householder reflection mapping e to +/- e_1; its remaining columns
    span e^perp.
    """
    V = E.copy()
    V[:, 0] += np.where(E[:, 0] != 0, np.copysign(1.0, E[:, 0]), 1.0)
    V /= np.sqrt(_row_dots(V, V))[:, None]
    H = np.eye(E.shape[1]) - 2.0 * (V[:, :, None] * V[:, None, :])
    return H[:, :, 1:]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for each row of a and b (K, n), bit for bit: a (1, n) @ (n, 1)
    matmul takes the dot product that a 1-D ``@`` and np.linalg.norm take
    (einsum or sum(a * b) round differently)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


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

    def contains(self, points: np.ndarray) -> np.ndarray:
        A, b = self.halfspaces()
        pts = np.atleast_2d(points)
        ok = np.all(pts @ A.T <= b + 1e-12, axis=1)
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


def clip_lines(bases, directions, box: Box):
    """Slab-clip of each line base + s * direction given as rows of ``bases``
    (K, n) and ``directions`` (K, n) or one direction (n,): (ok, s0, s1),
    where ``ok`` masks the lines that meet the box and (s0, s1) is the clip
    of each of them: the first largest slab start and the first smallest
    slab end over the axes, signed zeros included. Components with
    |d| < 1e-14 keep a line only if its base is within that axis's slab; they
    are masked before the division, so under ``np.errstate(all="raise")`` no
    axis-parallel line raises.
    """
    bases, directions = np.asarray(bases, dtype=float), np.asarray(directions, dtype=float)
    lo, hi = box.lo_arr, box.hi
    flat = np.abs(directions) < 1e-14
    d = np.where(flat, 1.0, directions)
    a0, a1 = (lo - bases) / d, (hi - bases) / d
    # the swap orders each pair; where a0 == a1 both have the same bits
    a0, a1 = np.minimum(a0, a1), np.maximum(a0, a1)
    a0, a1 = np.where(flat, -math.inf, a0), np.where(flat, math.inf, a1)
    # the first extreme along the axes, as max(s0, a0) and min(s1, a1) keep
    rows = np.arange(len(a0))
    s0, s1 = a0[rows, a0.argmax(axis=1)], a1[rows, a1.argmin(axis=1)]
    outside = flat & ((bases < lo) | (bases > hi))
    return ~outside.any(axis=1) & (s0 < s1), s0, s1


# ---------------------------------------------------------------------------
# Grassmannian measure: supports and sampling
# ---------------------------------------------------------------------------


def support_interval(region, e: np.ndarray):
    """Range of x . e over the region (offsets of hyperplanes meeting it)."""
    t0, t1 = _support_intervals(region, np.asarray(e, dtype=float)[None])
    return float(t0[0]), float(t1[0])


def _support_intervals(region, E: np.ndarray):
    """(t0, t1): the support_interval of the region for each row of E (K, n)."""
    if isinstance(region, Ball):
        c = _row_dots(E, np.broadcast_to(region.center, E.shape))
        return c - region.radius, c + region.radius
    lo, hi = region.lo_arr, region.hi
    return np.sum(np.minimum(E * lo, E * hi), axis=1), np.sum(np.maximum(E * lo, E * hi), axis=1)


def shadow_area(box: Box, e: np.ndarray) -> float:
    """(n-1)-volume of the orthogonal projection of the box onto e^perp."""
    return float(_box_shadow(_face_areas(box), e))


def _face_areas(box: Box) -> list:
    """(n-1)-volume of the faces of the box normal to each axis."""
    sides = np.asarray(box.sides)
    return [np.prod(np.delete(sides, i)) for i in range(box.dim)]


def _box_shadow(faces: list, e: np.ndarray):
    """shadow_area of the box with these faces on e^perp, for one unit vector
    e or for each row of a stack; summed axis by axis."""
    total = 0.0
    for ei, face in zip(np.asarray(e).T, faces):
        total = total + np.abs(ei) * face
    return total


def _lines_meet(bases: np.ndarray, directions: np.ndarray, region) -> np.ndarray:
    """Whether each line, rows of bases and directions (K, n), meets the region."""
    if isinstance(region, Ball):
        rel = bases - np.asarray(region.center)
        b = _row_dots(rel, directions)
        return ~(b * b - (_row_dots(rel, rel) - region.radius ** 2) <= 0)
    return clip_lines(bases, directions, region)[0]


def _unit_rows(G: np.ndarray) -> np.ndarray:
    """Each row of G divided by its length, the norm taken along axis 1."""
    return G / np.linalg.norm(G, axis=1, keepdims=True)


def sample_hyperplanes(region, count: int, seed: int):
    """Weighted hyperplane samples for Monte Carlo integration over A_{n-1}(region).

    Directions are uniform on the sphere, offsets uniform on the region's
    support slab; weights make ``mean(w * g(V))`` an unbiased estimator of
    the (normalized) measure integral of g over planes meeting the region.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = stream(seed, "hyperplanes")
    E = _unit_rows(rng.standard_normal((count, region.dim)))
    T0, T1 = _support_intervals(region, E)
    offsets = rng.uniform(T0, T1).tolist()
    # c_{n-1} = 1 / (2 sigma(S^{n-1})); weight = c * sigma * slab width
    weights = (0.5 * (T1 - T0)).tolist()
    return [(Hyperplane(tuple(e), t), w) for e, t, w in zip(E, offsets, weights)]


def shadow_rect(corners: np.ndarray, e: np.ndarray):
    """(B, lo, hi): the frame B = orthonormal_complement(e) of e^perp and the
    bounding rectangle [lo, hi] of the points ``corners`` in its coordinates."""
    B = orthonormal_complement(e)
    frame = corners @ B
    return B, frame.min(axis=0), frame.max(axis=0)


def _draw_lines(rng: np.random.Generator, count: int, n: int):
    """The draws of ``count`` lines in stream order, each line's normal
    vector (count, n) and then the n - 1 uniforms of its first base point."""
    G, U = np.empty((count, n)), np.empty((count, n - 1))
    normal, uniform = rng.standard_normal, rng.random
    for g, u in zip(G, U):
        normal(out=g)
        uniform(out=u)
    return G, U


def sample_lines(box: Box, count: int, seed: int) -> np.ndarray:
    """Weighted line samples for Monte Carlo integration over A_1(box).

    Base points are uniform on the shadow of the box on e^perp (rejection
    from its bounding rectangle); the weight is the exact shadow area
    divided by the unit-ball normalizer. Returns ``count`` rows of fields
    ``base``, ``direction`` and ``weight``. A direction is the drawn unit
    vector normalized a second time: that second rounding is part of the
    sampled bits.

    Only the draws are made line by line. The geometry of a window of lines
    is done as one stack, as if each line's first base point met the box.
    When line j of the window misses, the stream is put back to the start
    of the window and its draws are replayed up to line j's first try;
    line j's rejection loop then runs alone, and the next window starts
    after it. Each window is twice as wide as the lines the last one kept.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = box.dim
    rng = stream(seed, "lines")
    norm = ball_volume(n - 1)
    # invariants of the box, hoisted out of the window loop
    corners, faces = box.corners(), _face_areas(box)
    out = np.empty(count, dtype=[("base", float, (n,)), ("direction", float, (n,)), ("weight", float)])
    E = np.empty((count, n))
    start, width = 0, 2
    while start < count:
        state = rng.bit_generator.state
        G, U = _draw_lines(rng, min(width, count - start), n)
        W = _unit_rows(G)
        B = _householder_frames(W)
        frame = corners @ B
        lo, hi = frame.min(axis=1), frame.max(axis=1)
        bases = (B @ (lo + (hi - lo) * U)[:, :, None])[:, :, 0]
        ok = clip_lines(bases, W, box)[0]
        j = ok.argmin()
        kept = len(W) if ok[j] else j + 1
        if not ok[j]:
            rng.bit_generator.state = state
            _draw_lines(rng, kept, n)
            bases[j] = _retry_base(rng, box, B[j], lo[j], hi[j], W[j])
        out["base"][start:start + kept], E[start:start + kept] = bases[:kept], W[:kept]
        start += kept
        width = 2 * kept
    out["direction"] = E / np.sqrt(_row_dots(E, E))[:, None]
    out["weight"] = _box_shadow(faces, E) / norm
    return out


def _retry_base(rng, box: Box, B: np.ndarray, lo: np.ndarray, hi: np.ndarray, e: np.ndarray):
    """The base point B @ t, t uniform on [lo, hi], of the line along e whose
    first try missed the box: the rest of its rejection loop. The tries are
    drawn in blocks of doubling size; after the first that meets the box the
    stream is put back just past that try's draws."""
    tried, block = 1, 1
    while tried < MAX_LINE_REJECTIONS:
        block = min(2 * block, MAX_LINE_REJECTIONS - tried)
        state = rng.bit_generator.state
        bases = (B @ (lo + (hi - lo) * rng.random((block, e.size - 1)))[:, :, None])[:, :, 0]
        ok = clip_lines(bases, e, box)[0]
        i = ok.argmax()
        if ok[i]:
            rng.bit_generator.state = state
            rng.random((i + 1, e.size - 1))
            return bases[i]
        tried += block
    raise DegenerateBox(f"{MAX_LINE_REJECTIONS} draws in a row missed the box {box}")


def estimate_plane_measure(sample_region, target_region, count: int, seed: int):
    """MC estimate (mean, stderr) of the hyperplane measure of A_{n-1}(target)."""
    if count < 2:
        raise ValueError("count must be >= 2, so the estimate has a standard error")
    samples = sample_hyperplanes(sample_region, count, seed)
    t = np.asarray([plane.offset for plane, _ in samples])
    t0, t1 = _support_intervals(target_region, np.asarray([plane.normal for plane, _ in samples]))
    vals = np.where((t0 <= t) & (t <= t1), [w for _, w in samples], 0.0)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(count))


def estimate_line_measure(sample_region, target_region, count: int, seed: int):
    """MC estimate (mean, stderr) of the line measure of A_1(target)."""
    if count < 2:
        raise ValueError("count must be >= 2, so the estimate has a standard error")
    lines = sample_lines(sample_region, count, seed)
    meets = _lines_meet(lines["base"], lines["direction"], target_region)
    vals = np.where(meets, lines["weight"], 0.0)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(count))
