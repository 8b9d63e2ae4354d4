import csv
import json

import numpy as np
import pytest

from multibeta import cli
from multibeta.cli import main
from multibeta.errors import BudgetExhausted, RankDeficient
from multibeta.reports import config_hash


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


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
        for name in ("carleson_levels.csv", "carleson_cubes.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # manifests agree except for the artifact paths themselves
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("outputs"), m2.pop("outputs")
        assert m1 == m2

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
        assert str(out / "analyze.csv") in manifest["outputs"]
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
