"""Experiment driver: JSON config in, CSV/SVG artifacts and a manifest out.

Exit codes: 0 success, 1 a verify property failed, 2 configuration error,
3 numerical failure (including a floating-point overflow, division by zero
or invalid operation).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

import numpy as np

from . import beta as betamod
from . import parabolic as pbmod
from . import reports, svgplot
from .beta import QuadratureSpec
from .errors import ConfigError, MultibetaError
from .funcmodel import GridField, make_field
from .geometry import Box, DyadicBox, dyadic_levels, transversality
from .reconstruct import base_planes, verify_reconstruction

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _key_line(text: str, key: str, start: int = 0) -> int:
    """First line at or after ``start`` containing the quoted key; 0 when absent."""
    needle = f'"{key}"'
    for i, line in enumerate(text.splitlines(), start=1):
        if i >= start and needle in line:
            return i
    return 0


# 2.0 ** -1074 is the least positive float, so a dyadic box of volume 2^{-jk}
# (k = n for a cube, n + 1 for a parabolic box in R^n) has positive volume up
# to level j = 1074 // k.
_MAX_EXPONENT = 1074


class Config:
    """Parsed config with line-annotated validation errors. A ``section`` is
    read by the same checked readers; its errors name its key as well."""

    def __init__(self, path: str | None, overrides: dict):
        self.path = path or "<defaults>"
        self.text, self.data, self.where, self.start = "", {}, "", 0
        if path is not None:
            if not os.path.exists(path):
                raise ConfigError(f"{path}: config file does not exist")
            with open(path) as handle:
                self.text = handle.read()
            try:
                self.data = json.loads(self.text)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(self.data, dict):
                raise ConfigError(f"{path}:1: top level must be a JSON object")
        self.data.update({k: v for k, v in overrides.items() if v is not None})

    def fail(self, key: str, message: str):
        line = _key_line(self.text, key, self.start)
        raise ConfigError(f"{self.path}:{line}: {self.where}\"{key}\" {message}")

    def get(self, key, default=None):
        """The value under ``key`` (``default`` when absent); null is never a value."""
        val = self.data.get(key, default)
        if val is None:
            self.fail(key, "must not be null" if key in self.data else "is required")
        return val

    def section(self, key, default=None) -> "Config":
        """The object under ``key``, as a Config over the same file text."""
        val = self.get(key, default)
        if not isinstance(val, dict):
            self.fail(key, "must be an object")
        sub = copy.copy(self)
        sub.data, sub.where = val, f'{self.where}"{key}": '
        sub.start = _key_line(self.text, key, self.start)
        return sub

    def _check(self, key, val, must="must be", minimum=None, maximum=None, integer=False,
              positive=False, inf=False):
        """``val`` when it is a finite int or float (no bool) within the bounds, or
        with ``inf`` also "inf", "infinity" or Infinity; else fail naming ``key``."""
        if inf and (val in ("inf", "infinity") or val == math.inf):
            return val
        if (isinstance(val, bool) or not isinstance(val, int if integer else (int, float))
                or not abs(val) <= sys.float_info.max):
            kind = "an integer" if integer else 'a number or "inf"' if inf else "a finite number"
            self.fail(key, f"{must} {kind}")
        if minimum is not None and val < minimum:
            self.fail(key, f"{must} >= {minimum}")
        if maximum is not None and val > maximum:
            self.fail(key, f"{must} <= {maximum}")
        if positive and not val > 0:
            self.fail(key, f"{must} positive")
        return val

    def number(self, key, default=None, **bounds):
        """The number under ``key``; ``bounds`` as in ``_check``."""
        return self._check(key, self.get(key, default), **bounds)

    def numbers(self, key, length=None, default=None, **bounds) -> list:
        """A list of ``length`` numbers (any non-empty length when None)."""
        vals = self.get(key, default)
        if not isinstance(vals, list) or not vals or length not in (None, len(vals)):
            self.fail(key, f"must be a list of {length or 'one or more'} numbers")
        for val in vals:
            self._check(key, val, "entries must each be", **bounds)
        return vals

    def string(self, key, default=None, choices=None) -> str:
        val = self.get(key, default)
        if not isinstance(val, str) or choices is not None and val not in choices:
            self.fail(key, f"must be one of {tuple(choices)}" if choices else "must be a string")
        return val


def _exponent(raw) -> float:
    """An exponent checked with ``inf=True``, as a float."""
    return math.inf if raw in ("inf", "infinity") else float(raw)


def load_field(cfg: Config):
    spec = cfg.section("field")
    grid = spec.string("grid_csv") if "grid_csv" in spec.data else None
    if grid is None:
        kind, dim = spec.string("kind"), spec.number("dim", minimum=1, integer=True)
        params = spec.section("params", {})
    try:
        return GridField.from_csv(grid) if grid is not None else make_field(kind, dim, **params.data)
    except ConfigError as exc:
        raise ConfigError(f"{cfg.path}:{spec.start}: {spec.where}{exc}") from exc


def load_quad(cfg: Config, seed: int) -> QuadratureSpec:
    q = cfg.section("quad", {})
    counts = {key: q.number(key, default, minimum=1, integer=True)
              for key, default in (("nodes", 9), ("restricted_nodes", 17), ("mc_samples", 2048))}
    try:
        return QuadratureSpec(**counts, seed=seed)
    except ValueError as exc:
        cfg.fail("quad", str(exc))


def load_box(cfg: Config, dim: int) -> Box:
    b = cfg.section("box", {"lo": [0.0] * dim, "sides": [1.0] * dim})
    return Box(tuple(b.numbers("lo", dim)), tuple(b.numbers("sides", dim, positive=True)))


def load_root(cfg: Config, dim: int, depth: int):
    """The root cube and the tree depth (``depth`` when absent)."""
    r = cfg.section("root", {"level": 0, "index": [0] * dim})
    top = _MAX_EXPONENT // dim
    cube = DyadicBox(r.number("level", minimum=0, maximum=top, integer=True),
                     tuple(r.numbers("index", dim, integer=True)), (2,) * dim)
    return cube, cfg.number("depth", depth, minimum=0, maximum=top - cube.level, integer=True)


def load_parabolic_root(cfg: Config, dim: int, depth: int):
    """The root box and the tree depth (``depth`` when absent)."""
    r = cfg.section("parabolic_root",
                    {"level": 0, "spatial_index": [0] * (dim - 1), "time_index": 0})
    top = _MAX_EXPONENT // (dim + 1)
    node = DyadicBox(r.number("level", minimum=0, maximum=top, integer=True),
                     (*r.numbers("spatial_index", dim - 1, integer=True),
                      r.number("time_index", integer=True)),
                     (2,) * (dim - 1) + (4,))
    return node, cfg.number("depth", depth, minimum=0, maximum=top - node.level, integer=True)


def _out(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _say(args, message):
    if not args.quiet:
        print(message)


def _write_packing(cfg, args, seed, dim, rep, prefix, node_csv, columns, row, outputs=()):
    """Artifacts of a packing report: levels CSV, per-node CSV (``columns``
    head the fields ``row(node)`` gives), per-scale bar chart, the n = 2
    heatmap of the deepest level, the manifest over those plus ``outputs``,
    summary line."""
    lev_path = _out(args, f"{prefix}_levels.csv")
    reports.write_csv(lev_path,
                      ["level", "count", "per_scale", "cumulative", "ratio"],
                      zip(rep.levels, rep.counts, rep.per_scale, rep.cumulative, rep.ratios))
    node_path = _out(args, node_csv)
    reports.write_csv(node_path, [*columns, "value"],
                      [(*row(node), val) for node, val in rep.nodes])
    bar_path = _out(args, f"{prefix}_scales.svg")
    svgplot.bar_chart(bar_path, rep.levels, rep.per_scale,
                      title=f"per-scale sums, selector {rep.selector}")
    outputs = [lev_path, node_path, *outputs, bar_path]
    if dim == 2:
        # the deepest level closes the walk, and its nodes share their sides
        deepest = rep.nodes[len(rep.nodes) - rep.counts[-1]:]
        sx, sy = deepest[0][0].sides
        cells = [(node.index[0] * sx, node.index[1] * sy, sx, sy, val) for node, val in deepest]
        heat_path = _out(args, f"{prefix}_heatmap.svg")
        svgplot.heatmap(heat_path, cells, title=f"{rep.selector} at level {rep.levels[-1]}")
        outputs.append(heat_path)
    reports.write_manifest(_out(args, "manifest.json"), cfg.data, seed, outputs)
    _say(args, f"total {rep.total!r}, final ratio {rep.ratios[-1]!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(cfg, args, seed):
    fld = load_field(cfg)
    quad = load_quad(cfg, seed)
    root, depth = load_root(cfg, fld.dim, 2)
    ps = [_exponent(p) for p in cfg.numbers("ps", default=[1, 2, "inf"], minimum=1, inf=True)]
    columns = ["beta_inf" if math.isinf(p) else f"beta_{p:g}" for p in ps]
    if len(set(columns)) < len(columns):
        cfg.fail("ps", f"entries must be distinct exponents with distinct columns, got {columns}")
    rows = []
    for frontier in dyadic_levels(root, depth):
        values = betamod.cube_level(fld, frontier, ps, quad)
        rows += ([cube.level, cube.index, *vals] for cube, *vals in
                 zip(frontier, *(values[p] for p in ps)))
    header = ["level", "index"] + columns
    path = _out(args, "analyze.csv")
    reports.write_csv(path, header, rows)
    reports.write_manifest(_out(args, "manifest.json"), cfg.data, seed, [path])
    _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_carleson(cfg, args, seed):
    fld = load_field(cfg)
    quad = load_quad(cfg, seed)
    root, depth = load_root(cfg, fld.dim, 4)
    dilation = cfg.number("dilation", default=3.0, minimum=1.0)
    selector = cfg.string("selector", "beta2", betamod.SELECTORS)
    if selector == "combined" and fld.dim < 2:
        cfg.fail("selector", "'combined' needs a field of dim >= 2")
    rep = betamod.carleson_sum(fld, root, dilation, depth, selector, quad)
    return _write_packing(cfg, args, seed, fld.dim, rep, "carleson", "carleson_cubes.csv",
                          ("level", "index"), lambda node: (node.level, node.index))


def cmd_igbeta(cfg, args, seed):
    fld = load_field(cfg)
    quad = load_quad(cfg, seed)
    box = load_box(cfg, fld.dim)
    m = cfg.number("m", default=max(fld.dim - 1, 1), minimum=1, integer=True)
    if m not in (1, fld.dim - 1, fld.dim):
        cfg.fail("m", f"must be 1, n - 1 or n for a field of dimension n = {fld.dim}")
    p = _exponent(cfg.number("p", default=2, minimum=1, inf=True))
    q = cfg.number("q", default=2, minimum=1)
    rec = betamod.beta_integralgeometric(fld, box, m, p, q, quad)
    path = _out(args, "igbeta.csv")
    reports.write_csv(path, ["m", "p", "q", "value", "stderr", "samples"],
                      [[m, "inf" if math.isinf(p) else p, q, rec.value,
                        rec.stderr, rec.mc]])
    reports.write_manifest(_out(args, "manifest.json"), cfg.data, seed, [path])
    _say(args, f"beta^{m}_{{{p},{q}}} = {rec.value!r} +- {rec.stderr!r}")
    return EXIT_OK


def cmd_reconstruct(cfg, args, seed):
    fld = load_field(cfg)
    quad = load_quad(cfg, seed)
    if fld.dim < 2:
        cfg.fail("field", "needs dim >= 2 for reconstruction")
    box = load_box(cfg, fld.dim)
    c = cfg.number("c", default=1.0 / 20.0, minimum=1e-6, maximum=0.25)
    C = cfg.number("C", default=8.0, minimum=1.0)
    tau = cfg.number("tau", default=0.25, minimum=0.0,
                     maximum=transversality(base_planes(box)))
    eps = cfg.number("epsilon", default=0.05, minimum=1e-9)
    rep = verify_reconstruction(fld, box, c=c, C=C, tau=tau, eps=eps, seed=seed, quad=quad)
    path = _out(args, "reconstruct.csv")
    reports.write_csv(
        path,
        ["c", "C", "epsilon", "tau", "seed", "accepted", "draw_index",
         "beta2_small_direct", "beta2_small_via_affine", "plane_part", "line_part",
         "combined_large", "ratio_direct", "ratio_via", "line_integral", "line_ratio",
         "planar_value", "gradient", "intercept"],
        [[c, C, eps, rep.selection.tau, seed, rep.selection.accepted,
          rep.selection.draw_index, rep.beta2_small_direct, rep.beta2_small_via_affine,
          rep.plane_part, rep.line_part, rep.combined_large, rep.ratio_direct,
          rep.ratio_via, rep.line_integral, rep.line_ratio, rep.planar_value,
          rep.affine.gradient, rep.affine.intercept]])
    outputs = [path]
    if fld.dim == 2:
        scene = _out(args, "reconstruct.svg")
        svgplot.reconstruction_scene(scene, box, box.dilate(c), rep.selection.simplex,
                                     rep.selection.planes, title="reconstruction scene")
        outputs.append(scene)
    reports.write_manifest(_out(args, "manifest.json"), cfg.data, seed, outputs)
    _say(args, f"direct {rep.beta2_small_direct!r} combined {rep.combined_large!r} "
               f"accepted {rep.selection.accepted}")
    return EXIT_OK


def cmd_parabolic(cfg, args, seed):
    fld = load_field(cfg)
    quad = load_quad(cfg, seed)
    if fld.dim < 2:
        cfg.fail("field", "needs dim >= 2 for parabolic analysis")
    root, depth = load_parabolic_root(cfg, fld.dim, 3)
    dilation = cfg.number("dilation", default=3.0, minimum=1.0)
    selector = cfg.string("selector", "beta2", pbmod.PARABOLIC_SELECTORS)
    L = cfg.number("L", positive=True) if "L" in cfg.data else None
    if L is None and pbmod.PARABOLIC_SELECTORS[selector][2]:
        cfg.fail("selector", f'{selector!r} needs "L"')
    rep = pbmod.parabolic_carleson_sum(fld, root, dilation, depth, selector, quad, L=L)
    coeffs = pbmod.coefficient_table(fld, root.as_parabolic_box(), quad, L=L)
    coeff_path = _out(args, "parabolic_coefficients.csv")
    reports.write_csv(coeff_path, list(coeffs), [list(coeffs.values())])
    return _write_packing(cfg, args, seed, fld.dim, rep, "parabolic", "parabolic_boxes.csv",
                          ("level", "spatial_index", "time_index"),
                          lambda node: (node.level, node.index[:-1], node.index[-1]),
                          [coeff_path])


def cmd_rademacher(cfg, args, seed):
    fld = load_field(cfg)
    quad = load_quad(cfg, seed)
    if fld.dim < 2:
        cfg.fail("field", "needs dim >= 2 for the differentiability probe")
    point = cfg.numbers("point", fld.dim, [0.5] * fld.dim)
    radii = cfg.numbers("radii", default=[2.0 ** (-k) for k in range(3, 10)], positive=True)
    if any(a <= b for a, b in zip(radii, radii[1:])):
        cfg.fail("radii", "must be strictly decreasing")
    probe = pbmod.rademacher_probe(fld, point, radii, quad)
    path = _out(args, "rademacher.csv")
    reports.write_csv(path, ["radius", "eps"], zip(probe.radii, probe.eps))
    summary = _out(args, "rademacher_summary.csv")
    reports.write_csv(summary, ["point", "gradient", "slope"],
                      [[probe.point, probe.gradient, probe.slope]])
    reports.write_manifest(_out(args, "manifest.json"), cfg.data, seed, [path, summary])
    _say(args, f"slope {probe.slope!r}")
    return EXIT_OK


def cmd_verify(cfg, args, seed):
    quad = QuadratureSpec(nodes=9, restricted_nodes=17, mc_samples=512, seed=seed)
    checks = []

    def check(name, passed, detail=""):
        checks.append((name, bool(passed), detail))

    # affine annihilation across coefficient families
    for n in (1, 2, 3):
        fld = make_field("affine", n, a=[0.3] * n, b=-0.2)
        box = Box((0.0,) * n, (1.0,) * n)
        worst = max(v[0] for v in betamod.beta_p_cube(fld, box.lo, box.sides, (1, 2, math.inf),
                                                      quad).values())
        if n >= 2:
            worst = max(worst, betamod.combined_beta(fld, box, quad))
        check(f"affine_annihilation_n{n}", worst <= 1e-10, f"max {worst!r}")

    # norm monotonicity spot check
    fld = make_field("cone", 2, x0=[0.4, 0.6])
    box = Box((0.0, 0.0), (1.0, 1.0))
    b1, b2, binf = (v[0] for v in betamod.beta_p_cube(fld, box.lo, box.sides, (1, 2, math.inf),
                                                      quad).values())
    check("norm_monotone", b1 <= b2 + 1e-9 and b2 <= binf + 1e-9,
          f"{b1!r} <= {b2!r} <= {binf!r}")

    # parabolic certificate
    psi = make_field("p_additive", 2, space="cone", space_params={"x0": [0.3]}, time="sin")
    pbox = DyadicBox(1, (0, 1), (2, 4)).as_parabolic_box()
    sample = pbmod.ParabolicSample.of(psi, pbox, quad)
    _, res, cert = pbmod.combine_affine_bound(sample)
    check("parabolic_certificate", cert["holds"],
          f"residual {res!r} bound {cert['bound']!r}")
    b2p = pbmod.parabolic_beta2(sample)
    b2pL = pbmod.parabolic_beta2(sample, L=10.0)
    check("L_restriction_monotone", b2p <= b2pL + 1e-10, f"{b2p!r} vs {b2pL!r}")

    # time-independent field has zero oscillation and quotient
    flat = make_field("p_additive", 2, space="cone", space_params={"x0": [0.3]}, time="zero")
    sample = pbmod.ParabolicSample.of(flat, pbox, quad)
    osc = pbmod.vertical_osc(sample)
    dtq, _ = pbmod.dt_carleson_quotient(sample)
    check("time_independent_zero", osc <= 1e-10 and dtq <= 1e-10,
          f"osc {osc!r} dt {dtq!r}")

    path = _out(args, "verify.csv")
    reports.write_csv(path, ["property", "passed", "detail"], checks)
    reports.write_manifest(_out(args, "manifest.json"), cfg.data, seed, [path])
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        _say(args, f"{'PASS' if ok else 'FAIL'} {name} {detail}")
    return EXIT_VERIFY if failed else EXIT_OK


COMMANDS = {
    "analyze": cmd_analyze,
    "carleson": cmd_carleson,
    "igbeta": cmd_igbeta,
    "reconstruct": cmd_reconstruct,
    "parabolic": cmd_parabolic,
    "rademacher": cmd_rademacher,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multibeta",
        description="Multiscale affine-approximation coefficient analysis.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = Config(args.config, {"seed": args.seed})
        seed = cfg.number("seed", default=0, integer=True)
        # an overflow, a division by zero or a NaN is a numerical failure,
        # never a silent inf or nan in a written file
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code = COMMANDS[args.command](cfg, args, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MultibetaError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
