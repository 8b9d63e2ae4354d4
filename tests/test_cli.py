import contextlib
import copy
import csv
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibeta import cli
from multibeta.cli import main
from multibeta.errors import BudgetExhausted, RankDeficient
from multibeta.funcmodel import PARABOLIC_CATALOG, FunctionField
from multibeta.reports import config_hash


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


NAN, INF = float("nan"), float("inf")

CONE_CFG = {
    "field": {"kind": "cone", "dim": 2, "params": {"x0": [0.4, 0.6]}},
    "depth": 2,
    "quad": {"nodes": 5, "restricted_nodes": 9, "mc_samples": 32},
    "seed": 7,
}


class TestExitCodes:
    def test_analyze_ok(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", CONE_CFG)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        assert (tmp_path / "out" / "analyze.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [BudgetExhausted("solver gave up"),
                                     RankDeficient("solver gave up"),
                                     np.linalg.LinAlgError("solver gave up")])
    def test_numerical_failures_exit_3(self, tmp_path, capsys, monkeypatch, exc):
        def failing(cfg, args, seed):
            raise exc

        monkeypatch.setitem(cli.COMMANDS, "analyze", failing)
        cfg = write_config(tmp_path, "cfg.json", CONE_CFG)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "numerical failure: solver gave up\n"

    @pytest.mark.parametrize("command, extra", [
        ("rademacher", {"point": [1e300, 0.5]}),
        ("igbeta", {"box": {"lo": [0.0, 0.0], "sides": [1e300, 1e300]}}),
        ("analyze", {"root": {"level": 0, "index": [10 ** 300, 0]}}),
        ("carleson", {"dilation": 1e300}),
        ("parabolic", {"selector": "AL", "L": 0.5, "dilation": 1e300}),
        # a slope of 1e200 overflows first in the |a| of the slice fits
        ("parabolic", {"selector": "AL", "L": 0.5, "field": {
            "kind": "p_additive", "dim": 2, "params": {
                "space": "pwlinear", "space_params": {"xs": [0.0, 1.0], "ys": [0.0, 1e200]}}}}),
    ])
    def test_overflow_is_a_numerical_failure(self, tmp_path, capsys, command, extra):
        # finite config numbers whose arithmetic overflows exit 3 and write
        # no CSV, rather than exit 0 with inf or nan in the files
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, **extra))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not list(out.glob("*.csv"))

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "field": {,}\n}\n')
        assert main(["analyze", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2:" in err

    def test_missing_grid_file_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json",
                           {"field": {"grid_csv": str(tmp_path / "ghost.csv")}})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_bad_selector_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, selector="bogus"))
        assert main(["carleson", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert '"selector"' in capsys.readouterr().err

    def test_verify_passes(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path / "out"), "--quiet"]) == 0
        rows = read_csv(tmp_path / "out" / "verify.csv")
        assert rows[0] == ["property", "passed", "detail"]
        assert all(r[1] == "true" for r in rows[1:])


class TestArtifacts:
    def test_affine_analyze_all_zero(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "field": {"kind": "affine", "dim": 2,
                      "params": {"a": [0.5, -0.25], "b": 0.1}},
            "depth": 1,
            "quad": {"nodes": 5, "restricted_nodes": 9, "mc_samples": 16},
        })
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = read_csv(out / "analyze.csv")
        assert rows[0] == ["level", "index", "beta_1", "beta_2", "beta_inf"]
        assert len(rows) == 1 + 1 + 4
        for row in rows[1:]:
            assert all(abs(float(v)) <= 1e-10 for v in row[2:])

    def test_carleson_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, selector="beta2"))
        out = tmp_path / "out"
        assert main(["carleson", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        for name in ("carleson_levels.csv", "carleson_cubes.csv",
                     "carleson_scales.svg", "carleson_heatmap.svg"):
            assert (out / name).exists(), name
        levels = read_csv(out / "carleson_levels.csv")
        assert [r[0] for r in levels[1:]] == ["0", "1", "2"]
        cumul = [float(r[3]) for r in levels[1:]]
        assert cumul == sorted(cumul)

    def test_parabolic_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "field": {"kind": "p_additive", "dim": 2,
                      "params": {"space": "cone", "space_params": {"x0": [0.4]},
                                 "time": "sin"}},
            "depth": 1,
            "quad": {"nodes": 5, "mc_samples": 16},
            "L": 2.0,
            "seed": 0,
        })
        out = tmp_path / "out"
        assert main(["parabolic", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        coeffs = read_csv(out / "parabolic_coefficients.csv")
        assert coeffs[0][:4] == ["affinity", "osc", "beta2", "beta_inf"]
        assert float(coeffs[1][2]) > 0  # beta2 of a cone is positive
        boxes = read_csv(out / "parabolic_boxes.csv")
        assert len(boxes) == 1 + 1 + 8  # header, root, 2^(n+1) children

    def test_reconstruct_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "field": {"kind": "cone", "dim": 2, "params": {"x0": [0.45, 0.55]}},
            "quad": {"nodes": 5, "restricted_nodes": 9, "mc_samples": 32},
            "seed": 7,
        })
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = read_csv(out / "reconstruct.csv")
        rec = dict(zip(rows[0], rows[1]))
        assert rec["accepted"] == "true"
        assert float(rec["beta2_small_direct"]) <= float(rec["beta2_small_via_affine"]) + 1e-12
        assert (out / "reconstruct.svg").exists()

    def test_rademacher_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "field": {"kind": "p_additive", "dim": 2,
                      "params": {"space": "square", "time": "sin"}},
            "point": [0.3, 0.5],
            "radii": [0.2, 0.1, 0.05],
            "quad": {"nodes": 9},
        })
        out = tmp_path / "out"
        assert main(["rademacher", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = read_csv(out / "rademacher.csv")
        assert len(rows) == 4
        summary = read_csv(out / "rademacher_summary.csv")
        assert summary[0] == ["point", "gradient", "slope"]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, selector="beta2"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["carleson", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
        # the manifest names its outputs relative to itself, so it is the same too
        for name in ("carleson_levels.csv", "carleson_cubes.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_verify_reruns_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["verify", "--out", str(out), "--quiet"]) == 0
        assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", CONE_CFG)
        out = tmp_path / "out"
        assert main(["igbeta", "--config", cfg, "--out", str(out), "--quiet",
                     "--seed", "11"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11


class TestManifest:
    def test_hash_tracks_config_content(self, tmp_path):
        cfg_a = dict(CONE_CFG)
        cfg_b = dict(CONE_CFG, depth=3)
        assert config_hash(cfg_a) == config_hash(dict(CONE_CFG))
        assert config_hash(cfg_a) != config_hash(cfg_b)

    def test_manifest_fields(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", CONE_CFG)
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["seed"] == 7
        assert manifest["config_sha256"] == config_hash(CONE_CFG)
        assert manifest["outputs"] == ["analyze.csv"]
        assert {"multibeta", "numpy", "scipy", "python"} <= set(manifest["versions"])


class TestConfigErrors:
    """Config mistakes exit 2 and name the offending key."""

    PARABOLIC = {
        "field": {"kind": "p_additive", "dim": 2,
                  "params": {"space": "cone", "space_params": {"x0": [0.4]},
                             "time": "sin"}},
        "depth": 1,
        "quad": {"nodes": 3},
    }

    @pytest.mark.parametrize("selector", ["beta2L", "AL"])
    def test_parabolic_selector_needs_l(self, tmp_path, capsys, selector):
        cfg = write_config(tmp_path, "cfg.json", dict(self.PARABOLIC, selector=selector))
        assert main(["parabolic", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert '"selector"' in err and '"L"' in err

    def test_bad_p_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, p="abc"))
        assert main(["igbeta", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert '"p"' in capsys.readouterr().err

    def test_bad_ps_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, ps=[1, "abc"]))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert '"ps"' in capsys.readouterr().err

    @pytest.mark.parametrize("L", ["abc", 0, -1.0, True])
    def test_bad_parabolic_l_names_key(self, tmp_path, capsys, L):
        cfg = write_config(tmp_path, "cfg.json", dict(self.PARABOLIC, selector="AL", L=L))
        assert main(["parabolic", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert '"L"' in capsys.readouterr().err

    def test_unsupported_m_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, m=5))
        assert main(["igbeta", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert '"m"' in capsys.readouterr().err

    @pytest.mark.parametrize("radii", [[0.1, 0.2], [0.2, 0.0], [], "abc"])
    def test_bad_radii_names_key(self, tmp_path, capsys, radii):
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, radii=radii))
        assert main(["rademacher", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert '"radii"' in capsys.readouterr().err

    def test_missized_x0_names_key(self, tmp_path, capsys):
        field = {"kind": "cone", "dim": 2, "params": {"x0": [0.4, 0.6, 0.5]}}
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, field=field))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert '"x0"' in capsys.readouterr().err

    def test_box_of_another_dimension_names_key(self, tmp_path, capsys):
        box = {"lo": [0.0, 0.0, 0.0], "sides": [1.0, 1.0, 1.0]}
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, box=box))
        assert main(["igbeta", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert '"box"' in capsys.readouterr().err

    def test_point_of_another_dimension_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, point=[0.5, 0.5, 0.5]))
        assert main(["rademacher", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert '"point"' in capsys.readouterr().err

    @pytest.mark.parametrize("kind, params, key", [
        ("affine", {"a": [1.0, 2.0, 3.0]}, "a"),
        ("distset", {"points": [[0.1, 0.2, 0.3]]}, "points"),
        ("pwlinear", {"xs": [0.0, 0.5, 1.0], "ys": [0.0, 1.0]}, "ys"),
        ("pwlinear", {"xs": [0.0], "ys": [0.0]}, "xs"),
        ("pwlinear", {"xs": [0.0, 1.0, 0.5], "ys": [0.0, 1.0, 0.0]}, "xs"),
        ("bump", {"scale": "abc"}, "scale"),
        ("bump", {"scale": 0}, "scale"),
    ])
    def test_bad_catalog_parameter_names_key(self, tmp_path, capsys, kind, params, key):
        field = {"kind": kind, "dim": 2, "params": params}
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, field=field))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f'"{key}"' in capsys.readouterr().err

    @pytest.mark.parametrize("command, patch, key", [
        ("analyze", {"quad": 5}, "quad"),
        ("analyze", {"quad": {"nodes": 9.5}}, "nodes"),
        ("analyze", {"quad": {"restricted_nodes": "17"}}, "restricted_nodes"),
        ("carleson", {"selector": "ig_line_inf2", "quad": {"mc_samples": 0}}, "mc_samples"),
        ("analyze", {"field": 5}, "field"),
        ("analyze", {"field": {"kind": "cone", "dim": "x"}}, "dim"),
        ("analyze", {"field": {"kind": "cone", "dim": 0}}, "dim"),
        ("analyze", {"field": {"kind": "cone", "dim": 2, "params": [1]}}, "params"),
        ("analyze", {"field": {"kind": "affine", "dim": 2, "params": {"b": "abc"}}}, "b"),
        ("analyze", {"field": {"kind": "bump", "dim": 2, "params": {"amp": "abc"}}}, "amp"),
        ("analyze", {"field": {"kind": "affine", "dim": 2, "params": {"b": None}}}, "b"),
        ("analyze", {"field": {"kind": "affine", "dim": 2, "params": {"b": 10 ** 400}}}, "b"),
        ("analyze", {"field": {"kind": "p_product", "dim": 2, "params": {"a0": [1, 2, 3]}}},
         "a0"),
        ("analyze", {"field": {"kind": "p_product", "dim": 3, "params": {"a1": [0.5]}}}, "a1"),
        ("analyze", {"field": {"kind": "p_additive", "dim": 2, "params": {"space_params": [1]}}},
         "space_params"),
        ("analyze", {"seed": "abc"}, "seed"),
        ("carleson", {"dilation": float("nan")}, "dilation"),
        ("analyze", {"root": {"level": 0, "index": [0]}}, "root"),
        ("analyze", {"ps": [0]}, "ps"),
        ("analyze", {"ps": [2, -1]}, "ps"),
        ("igbeta", {"p": 0.5}, "p"),
        ("carleson", {"selector": ["beta2"]}, "selector"),
        ("parabolic", {"selector": ["beta2"]}, "selector"),
        ("parabolic", {"parabolic_root": {"level": 0, "spatial_index": [0, 0], "time_index": 0}},
         "parabolic_root"),
        ("reconstruct", {"c": 0.5}, "c"),
        ("igbeta", {"box": {"lo": [0.0, 0.0], "sides": [NAN, 1.0]}}, "sides"),
        ("igbeta", {"box": {"lo": [0.0, 0.0], "sides": [1.0, INF]}}, "sides"),
        ("igbeta", {"box": {"lo": [-INF, 0.0], "sides": [1.0, 1.0]}}, "lo"),
        ("reconstruct", {"box": {"lo": [0.0, 0.0], "sides": [NAN, 1.0]}}, "sides"),
        ("reconstruct", {"tau": 5}, "tau"),
        ("analyze", {"root": {"level": 2000, "index": [0, 0]}}, "root"),
        ("analyze", {"depth": 600}, "depth"),
        ("parabolic", {"parabolic_root": {"level": 600, "spatial_index": [0], "time_index": 0}},
         "parabolic_root"),
        ("analyze", {"field": {"kind": "bump", "dim": 2, "params": {"scale": 1e308}}}, "scale"),
        # a float or bool where an integer or a number is due is refused, not truncated
        ("analyze", {"root": {"level": 0.7, "index": [0, 0]}}, "level"),
        ("analyze", {"root": {"level": 0, "index": [0.9, True]}}, "index"),
        ("igbeta", {"box": {"lo": [0.0, 0.0], "sides": ["1", 1.0]}}, "sides"),
        ("igbeta", {"p": True}, "p"),
    ])
    def test_config_mistake_exits_2_naming_key(self, tmp_path, capsys, command, patch, key):
        base = self.PARABOLIC if command == "parabolic" else CONE_CFG
        cfg = write_config(tmp_path, "cfg.json", dict(base, **patch))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f'"{key}"' in capsys.readouterr().err

    @pytest.mark.parametrize("sides", [[1e-150, 1.0], [1e150, 1.0]])
    def test_box_no_line_can_meet_exits_3(self, tmp_path, capsys, sides):
        box = {"lo": [0.0, 0.0], "sides": sides}
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, box=box))
        assert main(["igbeta", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize("text", [
        "3\n0.0\n0.5\n1.0,abc,2.0\n",
        "3\n0.0\n0.0\n1.0,2.0,3.0\n",
        "1\n0.0\n0.5\n1.0\n",
    ])
    def test_malformed_grid_file_exits_2_naming_it(self, tmp_path, capsys, text):
        grid = tmp_path / "grid.csv"
        grid.write_text(text)
        cfg = write_config(tmp_path, "cfg.json", dict(CONE_CFG, field={"grid_csv": str(grid)}))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert '"field"' in err and "grid.csv" in err


def _ints(minimum=None):
    """Values that are not an integer >= ``minimum``."""
    return ["abc", True, None, NAN, INF, -INF, [1], {}, 1.5] + (
        [] if minimum is None else [minimum - 1])


def _floats(minimum=None, maximum=None, positive=False):
    """Values that are not a finite number within the bounds."""
    return (["abc", True, None, NAN, INF, -INF, [1.0], {}]
            + ([] if minimum is None else [minimum - 1])
            + ([] if maximum is None else [maximum + 5])
            + ([0.0, -1.0] if positive else []))


def _lists(length, integer=False, positive=False):
    """Values that are not a list of ``length`` such numbers (any non-empty
    length when None)."""
    n = length or 2
    pool = ["abc", 5, True, None, {}, [], [NAN] * n, [INF] * n, [True] * n, ["1"] * n,
            [None] * n, [[0.5]] * n]
    if length is not None:
        pool.append([0] * (length + 1))
    return pool + ([[0.5] * n] if integer else []) + ([[0.0] * n, [-1.0] * n] if positive else [])


OBJECT = [5, "abc", [1], True, None]
EXPONENTS = ["abc", True, None, NAN, -INF, [2], {}, 0.5]
SELECTOR = [5, True, None, ["beta2"], {}, "bogus"]
COMMON = {
    ("seed",): _ints(), ("field",): OBJECT, ("field", "kind"): SELECTOR,
    ("field", "dim"): _ints(1), ("field", "params"): OBJECT, ("quad",): OBJECT,
    ("quad", "nodes"): _ints(1) + [4], ("quad", "restricted_nodes"): _ints(1),
    ("quad", "mc_samples"): _ints(2),
}
ROOT = {("root",): OBJECT, ("root", "level"): _ints(0), ("root", "index"): _lists(2, integer=True)}
BOX = {("box",): OBJECT, ("box", "lo"): _lists(2), ("box", "sides"): _lists(2, positive=True)}
# command -> (small valid config, {documented key path: values it must refuse})
FUZZ = {
    "analyze": (dict(CONE_CFG, depth=0),
                {("depth",): _ints(0), ("ps",): [[v] for v in EXPONENTS] + [
                    "abc", 5, {}, [], [2, 2.0], ["inf", "infinity"]], **ROOT}),
    "carleson": (dict(CONE_CFG, depth=0, selector="beta2"),
                 {("depth",): _ints(0), ("dilation",): _floats(1.0), ("selector",): SELECTOR,
                  **ROOT}),
    "igbeta": (CONE_CFG, {("m",): _ints(1) + [5], ("p",): EXPONENTS, ("q",): _floats(1), **BOX}),
    "reconstruct": (CONE_CFG, {("c",): _floats(1e-6, 0.25), ("C",): _floats(1.0),
                               ("tau",): _floats(0.0, 1.0), ("epsilon",): _floats(1e-9), **BOX}),
    "parabolic": (dict(TestConfigErrors.PARABOLIC, depth=0, selector="AL", L=2.0),
                  {("depth",): _ints(0), ("dilation",): _floats(1.0), ("selector",): SELECTOR,
                   ("L",): _floats(positive=True), ("parabolic_root",): OBJECT,
                   ("parabolic_root", "level"): _ints(0),
                   ("parabolic_root", "spatial_index"): _lists(1, integer=True),
                   ("parabolic_root", "time_index"): _ints()}),
    "rademacher": (CONE_CFG, {("point",): _lists(2),
                              ("radii",): _lists(None, positive=True) + [[0.1, 0.2]]}),
}
# the value a nested key replaces when the small config leaves its object out
DEFAULT_OBJECTS = {"root": {"level": 0, "index": [0, 0]},
                   "box": {"lo": [0.0, 0.0], "sides": [1.0, 1.0]},
                   "parabolic_root": {"level": 0, "spatial_index": [0], "time_index": 0}}
FUZZ_CASES = [(command, path, value) for command, (_, keys) in FUZZ.items()
              for path, pool in {**COMMON, **keys}.items() for value in pool]
# catalog kind -> {field.params key: values it must refuse}, at dim 2 ("square"
# takes none); a bool or a string is refused at any depth of a list
NESTED = [[[[0.5, 0.5]]], [[0.5, True]], [[0.5, "1"]]]
CATALOG_PARAMS = {
    "affine": {"a": _lists(2), "b": _floats()},
    "pwlinear": {"xs": _lists(None) + [[0.0, 0.0]], "ys": _lists(5)},
    "cone": {"x0": _lists(2)},
    "distset": {"points": _lists(None) + NESTED},
    "bump": {"x0": _lists(2), "scale": _floats(positive=True), "amp": _floats()},
    "p_additive": {"space": SELECTOR + ["p_additive", "p_product"], "time": SELECTOR,
                   "space_params": OBJECT + [{"x0": [True]}, {"x0": ["0.5"]}]},
    "p_product": {"a0": _lists(1), "a1": _lists(1), "b1": _floats()},
}
PARAM_CASES = [(kind, key, value) for kind, keys in CATALOG_PARAMS.items()
               for key, pool in keys.items() for value in pool]


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"run took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _catalog_config(kind, params):
    """(command, small valid config) for a dim-2 catalog field of ``kind``."""
    command = "parabolic" if kind in PARABOLIC_CATALOG else "analyze"
    payload = copy.deepcopy(FUZZ[command][0])
    payload["field"] = {"kind": kind, "dim": 2, "params": params}
    return command, payload


def _assert_refused(command, payload, path):
    """Running ``command`` on ``payload`` exits 2 naming a key of ``path``."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), time_limit(10):
        cfg = write_config(pathlib.Path(tmp), "cfg.json", payload)
        code = main([command, "--config", cfg, "--out", tmp, "--quiet"])
    assert code == 2, (command, path, payload, err.getvalue())
    assert any(f'"{key}"' in err.getvalue() for key in path), (command, path, err.getvalue())


class TestConfigFuzz:
    """Replacing one documented key of a small valid config, top-level or
    nested, with a value outside its domain exits 2 naming the key or its
    enclosing object: never 1, never a traceback."""

    @pytest.mark.parametrize("command", sorted(FUZZ))
    def test_small_configs_are_valid(self, tmp_path, command):
        cfg = write_config(tmp_path, "cfg.json", FUZZ[command][0])
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0

    @settings(max_examples=1000)
    @given(case=st.sampled_from(FUZZ_CASES))
    def test_bad_value_exits_2_naming_key(self, case):
        command, path, value = case
        payload = copy.deepcopy(FUZZ[command][0])
        if len(path) == 1:
            payload[path[0]] = value
        else:
            outer = payload.setdefault(path[0], copy.deepcopy(DEFAULT_OBJECTS.get(path[0])))
            outer[path[1]] = value
        _assert_refused(command, payload, path)

    @pytest.mark.parametrize("kind", sorted(CATALOG_PARAMS))
    def test_catalog_defaults_are_valid(self, tmp_path, kind):
        command, payload = _catalog_config(kind, {})
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0

    @pytest.mark.parametrize("key, value", [("space", 5), ("space", "p_additive"),
                                            ("space", "p_product"), ("time", "noise"),
                                            ("time", ["sin"])])
    def test_bad_p_additive_part_names_its_key(self, tmp_path, capsys, key, value):
        # a parabolic kind is no spatial part; the message names the key itself
        command, payload = _catalog_config("p_additive", {key: value})
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f'"{key}" must be one of' in capsys.readouterr().err

    @settings(max_examples=300)
    @given(case=st.sampled_from(PARAM_CASES))
    def test_bad_catalog_param_exits_2_naming_it(self, case):
        kind, key, value = case
        command, payload = _catalog_config(kind, {key: value})
        _assert_refused(command, payload, ("field", key))


class TestWalkOrder:
    def test_analyze_and_carleson_list_the_same_cubes(self, tmp_path):
        payload = dict(CONE_CFG, selector="beta2", depth=2,
                       root={"level": 1, "index": [1, 0]})
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        for cmd in ("analyze", "carleson"):
            assert main([cmd, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        analyze = [r[:2] for r in read_csv(out / "analyze.csv")[1:]]
        cubes = [r[:2] for r in read_csv(out / "carleson_cubes.csv")[1:]]
        assert analyze == cubes
        assert len(cubes) == 1 + 4 + 16
        assert cubes[:2] == [["1", "1;0"], ["2", "2;0"]]


class TestFieldWork:
    def test_analyze_samples_each_cube_once(self, tmp_path, monkeypatch):
        sizes, evaluate = [], FunctionField.eval

        def counted(self, points):
            sizes.append(len(points))
            return evaluate(self, points)

        monkeypatch.setattr(FunctionField, "eval", counted)
        cfg = write_config(tmp_path, "cfg.json", CONE_CFG)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        # depth 2 below a 2-D root is 1 + 4 + 16 cubes, each one 5 x 5 grid read by every p
        assert sizes == [25] * 21


class TestImportFloor:
    def test_cli_import_loads_no_scipy_solver_modules(self):
        # each command process pays its imports; scipy's optimize, interpolate
        # and sparse load at the first LP or grid field, not with the CLI
        heavy = ("scipy.optimize", "scipy.interpolate", "scipy.sparse")
        code = f"import sys, multibeta.cli; print([m for m in {heavy!r} if m in sys.modules])"
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"
