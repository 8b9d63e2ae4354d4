"""Experiment driver: JSON config in, CSV/SVG artifacts and a manifest out.

Exit codes: 0 success, 1 a verify property failed, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys

import numpy as np

from . import beta as betamod
from . import parabolic as pbmod
from . import reports, svgplot
from .beta import QuadratureSpec
from .errors import ConfigError, MultibetaError
from .funcmodel import GridField, make_field
from .geometry import Box, DyadicCube, DyadicParabolicBox, dyadic_levels
from .reconstruct import verify_reconstruction

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _key_line(text: str, key: str) -> int:
    """First line containing the quoted key; 0 when absent."""
    needle = f'"{key}"'
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    return 0


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


class Config:
    """Parsed config with line-annotated validation errors."""

    def __init__(self, path: str | None, overrides: dict):
        self.path = path or "<defaults>"
        self.text = ""
        self.data = {}
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
        line = _key_line(self.text, key)
        raise ConfigError(f"{self.path}:{line}: \"{key}\" {message}")

    def get(self, key, default=None):
        return self.data.get(key, default)

    def number(self, key, default=None, minimum=None, integer=False):
        val = self.data.get(key, default)
        if val is None:
            self.fail(key, "is required")
        if integer and not isinstance(val, int):
            self.fail(key, "must be an integer")
        if not _is_number(val):
            self.fail(key, "must be a number")
        if minimum is not None and val < minimum:
            self.fail(key, f"must be >= {minimum}")
        return val


def load_field(cfg: Config):
    spec = cfg.get("field")
    if spec is None:
        cfg.fail("field", "is required")
    if "grid_csv" in spec:
        path = spec["grid_csv"]
        if not os.path.exists(path):
            raise ConfigError(f"{cfg.path}:{_key_line(cfg.text, 'grid_csv')}: "
                              f"grid file {path} does not exist")
        return GridField.from_csv(path)
    kind = spec.get("kind")
    dim = spec.get("dim")
    if kind is None or dim is None:
        cfg.fail("field", "needs \"kind\" and \"dim\" (or \"grid_csv\")")
    try:
        return make_field(kind, int(dim), **spec.get("params", {}))
    except ConfigError as exc:
        raise ConfigError(f"{cfg.path}:{_key_line(cfg.text, 'field')}: {exc}") from exc


def load_quad(cfg: Config, seed: int) -> QuadratureSpec:
    q = cfg.get("quad", {})
    try:
        return QuadratureSpec(
            nodes=int(q.get("nodes", 9)),
            restricted_nodes=int(q.get("restricted_nodes", 17)),
            mc_samples=int(q.get("mc_samples", 2048)),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}:{_key_line(cfg.text, 'quad')}: {exc}") from exc


def load_box(cfg: Config, dim: int) -> Box:
    b = cfg.get("box")
    if b is None:
        return Box((0.0,) * dim, (1.0,) * dim)
    try:
        box = Box(tuple(b["lo"]), tuple(b["sides"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{cfg.path}:{_key_line(cfg.text, 'box')}: bad box: {exc}") from exc
    if len(box.lo) != dim or len(box.sides) != dim:
        cfg.fail("box", f'needs "lo" and "sides" of {dim} entries for a field of dimension {dim}')
    return box


def load_root(cfg: Config, dim: int) -> DyadicCube:
    r = cfg.get("root", {"level": 0, "index": [0] * dim})
    try:
        return DyadicCube(int(r["level"]), tuple(r["index"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{cfg.path}:{_key_line(cfg.text, 'root')}: bad root: {exc}") from exc


def load_parabolic_root(cfg: Config, dim: int) -> DyadicParabolicBox:
    r = cfg.get("parabolic_root",
                {"level": 0, "spatial_index": [0] * (dim - 1), "time_index": 0})
    try:
        return DyadicParabolicBox(int(r["level"]), tuple(r["spatial_index"]),
                                  int(r["time_index"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{cfg.path}:{_key_line(cfg.text, 'parabolic_root')}: "
                          f"bad parabolic root: {exc}") from exc


def _out(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _say(args, message):
    if not args.quiet:
        print(message)


def _parse_p(raw):
    if raw in ("inf", "infinity", math.inf):
        return math.inf
    return float(raw)


def _write_packing(cfg, args, seed, dim, rep, prefix, node_csv, columns, outputs=()):
    """Artifacts of a packing report: levels CSV, per-node CSV (``columns``
    are node attributes), per-scale bar chart, the n = 2 heatmap of the
    deepest level, the manifest over those plus ``outputs``, summary line."""
    lev_path = _out(args, f"{prefix}_levels.csv")
    reports.write_csv(lev_path,
                      ["level", "count", "per_scale", "cumulative", "ratio"],
                      zip(rep.levels, rep.counts, rep.per_scale, rep.cumulative, rep.ratios))
    node_path = _out(args, node_csv)
    key = operator.attrgetter(*columns)
    reports.write_csv(node_path, [*columns, "value"],
                      [(*key(node), val) for node, val in rep.nodes])
    bar_path = _out(args, f"{prefix}_scales.svg")
    svgplot.bar_chart(bar_path, rep.levels, rep.per_scale,
                      title=f"per-scale sums, selector {rep.selector}")
    outputs = [lev_path, node_path, *outputs, bar_path]
    if dim == 2:
        deepest = rep.levels[-1]
        cells = []
        for node, val in rep.nodes:
            if node.level == deepest:
                box = node.as_box()
                cells.append((box.lo[0], box.lo[1], box.sides[0], box.sides[1], val))
        heat_path = _out(args, f"{prefix}_heatmap.svg")
        svgplot.heatmap(heat_path, cells, title=f"{rep.selector} at level {deepest}")
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
    root = load_root(cfg, fld.dim)
    depth = int(cfg.number("depth", default=2, minimum=0, integer=True))
    try:
        ps = [_parse_p(p) for p in cfg.get("ps", [1, 2, "inf"])]
    except (TypeError, ValueError):
        cfg.fail("ps", 'must be a list of numbers or "inf"')
    rows = []
    for frontier in dyadic_levels(root, depth):
        for cube in frontier:
            vals = [betamod.beta_p_cube(fld, cube.as_box(), p, quad).value for p in ps]
            rows.append([cube.level, cube.index, *vals])
    header = ["level", "index"] + [
        "beta_inf" if math.isinf(p) else f"beta_{p:g}" for p in ps]
    path = _out(args, "analyze.csv")
    reports.write_csv(path, header, rows)
    reports.write_manifest(_out(args, "manifest.json"), cfg.data, seed, [path])
    _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_carleson(cfg, args, seed):
    fld = load_field(cfg)
    quad = load_quad(cfg, seed)
    root = load_root(cfg, fld.dim)
    depth = int(cfg.number("depth", default=4, minimum=0, integer=True))
    dilation = cfg.number("dilation", default=3.0, minimum=1.0)
    selector = cfg.get("selector", "beta2")
    if selector not in betamod.SELECTORS:
        cfg.fail("selector", f"must be one of {tuple(betamod.SELECTORS)}")
    rep = betamod.carleson_sum(fld, root, dilation, depth, selector, quad)
    return _write_packing(cfg, args, seed, fld.dim, rep, "carleson", "carleson_cubes.csv",
                          ("level", "index"))


def cmd_igbeta(cfg, args, seed):
    fld = load_field(cfg)
    quad = load_quad(cfg, seed)
    box = load_box(cfg, fld.dim)
    m = int(cfg.number("m", default=max(fld.dim - 1, 1), minimum=1, integer=True))
    if m not in (1, fld.dim - 1, fld.dim):
        cfg.fail("m", f"must be 1, n - 1 or n for a field of dimension n = {fld.dim}")
    try:
        p = _parse_p(cfg.get("p", 2))
    except (TypeError, ValueError):
        cfg.fail("p", 'must be a number or "inf"')
    q = cfg.number("q", default=2, minimum=1)
    rec = betamod.beta_integralgeometric(fld, box, m, p, q, quad)
    path = _out(args, "igbeta.csv")
    reports.write_csv(path, ["m", "p", "q", "value", "stderr", "samples"],
                      [[m, "inf" if math.isinf(p) else p, q, rec.value,
                        rec.stderr, rec.meta.get("mc", quad.mc_samples)]])
    reports.write_manifest(_out(args, "manifest.json"), cfg.data, seed, [path])
    _say(args, f"beta^{m}_{{{p},{q}}} = {rec.value!r} +- {rec.stderr!r}")
    return EXIT_OK


def cmd_reconstruct(cfg, args, seed):
    fld = load_field(cfg)
    quad = load_quad(cfg, seed)
    if fld.dim < 2:
        cfg.fail("field", "needs dim >= 2 for reconstruction")
    box = load_box(cfg, fld.dim)
    c = cfg.number("c", default=1.0 / 20.0, minimum=1e-6)
    C = cfg.number("C", default=8.0, minimum=1.0)
    tau = cfg.number("tau", default=0.25, minimum=0.0)
    eps = cfg.number("epsilon", default=0.05, minimum=1e-9)
    rep = verify_reconstruction(fld, box, c=c, C=C, tau=tau, eps=eps, seed=seed, quad=quad)
    path = _out(args, "reconstruct.csv")
    reports.write_csv(
        path,
        ["c", "C", "epsilon", "tau", "seed", "accepted", "draw_index",
         "beta2_small_direct", "beta2_small_via_affine", "plane_part", "line_part",
         "combined_large", "ratio_direct", "ratio_via", "line_integral", "line_ratio",
         "planar_value", "gradient", "intercept"],
        [[c, C, eps, rep.constants["tau"], seed, rep.selection.accepted,
          rep.selection.draw_index, rep.beta2_small_direct, rep.beta2_small_via_affine,
          rep.plane_part, rep.line_part, rep.combined_large, rep.ratio_direct,
          rep.ratio_via, rep.line_integral, rep.line_ratio, rep.planar_value,
          rep.affine.gradient, rep.affine.intercept]])
    outputs = [path]
    if fld.dim == 2:
        scene = _out(args, "reconstruct.svg")
        svgplot.reconstruction_scene(scene, box, box.dilate(c), rep.simplex,
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
    root = load_parabolic_root(cfg, fld.dim)
    depth = int(cfg.number("depth", default=3, minimum=0, integer=True))
    dilation = cfg.number("dilation", default=3.0, minimum=1.0)
    selector = cfg.get("selector", "beta2")
    if selector not in pbmod.PARABOLIC_SELECTORS:
        cfg.fail("selector", f"must be one of {tuple(pbmod.PARABOLIC_SELECTORS)}")
    L = cfg.get("L")
    if L is None and pbmod.PARABOLIC_SELECTORS[selector][2]:
        cfg.fail("selector", f'{selector!r} needs "L"')
    if L is not None and not (_is_number(L) and L > 0):
        cfg.fail("L", "must be a positive number")
    rep = pbmod.parabolic_carleson_sum(fld, root, dilation, depth, selector, quad, L=L)
    coeffs = pbmod.coefficient_table(fld, root.as_parabolic_box(), quad, L=L)
    coeff_path = _out(args, "parabolic_coefficients.csv")
    reports.write_csv(
        coeff_path,
        ["affinity", "osc", "beta2", "beta_inf", "affinity_L", "beta2_L",
         "beta_inf_L", "dt_quotient", "dt_band"],
        [[coeffs.affinity, coeffs.osc, coeffs.beta2, coeffs.beta_inf,
          coeffs.affinity_L, coeffs.beta2_L, coeffs.beta_inf_L,
          coeffs.dt_quotient, coeffs.dt_band]])
    return _write_packing(cfg, args, seed, fld.dim, rep, "parabolic", "parabolic_boxes.csv",
                          ("level", "spatial_index", "time_index"), [coeff_path])


def cmd_rademacher(cfg, args, seed):
    fld = load_field(cfg)
    quad = load_quad(cfg, seed)
    if fld.dim < 2:
        cfg.fail("field", "needs dim >= 2 for the differentiability probe")
    point = cfg.get("point", [0.5] * fld.dim)
    if not (isinstance(point, list) and len(point) == fld.dim and all(map(_is_number, point))):
        cfg.fail("point", f"must be a list of {fld.dim} numbers for a field of dimension {fld.dim}")
    radii = cfg.get("radii", [2.0 ** (-k) for k in range(3, 10)])
    if (not isinstance(radii, list) or not radii or not all(_is_number(r) and r > 0 for r in radii)
            or any(a <= b for a, b in zip(radii, radii[1:]))):
        cfg.fail("radii", "must be a non-empty list of positive numbers, strictly decreasing")
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
        worst = max(betamod.beta_p_cube(fld, box, p, quad).value for p in (1, 2, math.inf))
        if n >= 2:
            worst = max(worst, betamod.combined_beta(fld, box, quad))
        check(f"affine_annihilation_n{n}", worst <= 1e-10, f"max {worst!r}")

    # norm monotonicity spot check
    fld = make_field("cone", 2, x0=[0.4, 0.6])
    box = Box((0.0, 0.0), (1.0, 1.0))
    b1 = betamod.beta_p_cube(fld, box, 1, quad).value
    b2 = betamod.beta_p_cube(fld, box, 2, quad).value
    binf = betamod.beta_p_cube(fld, box, math.inf, quad).value
    check("norm_monotone", b1 <= b2 + 1e-9 and b2 <= binf + 1e-9,
          f"{b1!r} <= {b2!r} <= {binf!r}")

    # parabolic certificate
    psi = make_field("p_additive", 2, space="cone", space_params={"x0": [0.3]}, time="sin")
    pbox = DyadicParabolicBox(1, (0,), 1).as_parabolic_box()
    _, res, cert = pbmod.combine_affine_bound(psi, pbox, quad)
    check("parabolic_certificate", cert["holds"],
          f"residual {res!r} bound {cert['bound']!r}")
    b2p = pbmod.parabolic_beta2(psi, pbox, quad)
    b2pL = pbmod.parabolic_beta2(psi, pbox, quad, L=10.0)
    check("L_restriction_monotone", b2p <= b2pL + 1e-10, f"{b2p!r} vs {b2pL!r}")

    # time-independent field has zero oscillation and quotient
    flat = make_field("p_additive", 2, space="cone", space_params={"x0": [0.3]}, time="zero")
    osc = pbmod.vertical_osc(flat, pbox, quad)
    dtq, _ = pbmod.dt_carleson_quotient(flat, pbox, quad)
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
        seed = int(cfg.get("seed", 0))
        code = COMMANDS[args.command](cfg, args, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MultibetaError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
