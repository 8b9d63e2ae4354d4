"""Golden digests: the CSV bytes of a small CLI config matrix.

Each case runs one subcommand in-process through ``cli.main`` and compares
the sha256 of every CSV it writes with ``golden_digests.json``. The matrix
covers what the benchmark workloads do not reach: every norm of
``analyze`` at n = 1, 2, 3; every selector of ``carleson`` at n = 2 and 3;
``igbeta`` for each m; every ``parabolic`` selector with ``L`` unset and
set at n = 2 and with ``L`` at n = 3; the ``AL`` walk two levels deep at
n = 3 (273 boxes of ridge fits in two spatial variables); ``analyze``,
``carleson`` and ``parabolic`` below a root other than the unit cube
(negative indices included); ``reconstruct`` and ``rademacher`` at n = 2
and 3; and ``verify``. The digests hold for the numpy, scipy and
Python versions recorded beside them; under any other versions the test
skips.

Re-record them, only for an intended output change, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import pathlib
import platform
import tempfile

import numpy as np
import pytest
import scipy

from multibeta.beta import SELECTORS
from multibeta.cli import main
from multibeta.parabolic import PARABOLIC_SELECTORS

DIGESTS = pathlib.Path(__file__).with_name("golden_digests.json")
SEED = 5
QUAD = {"nodes": 5, "restricted_nodes": 9, "mc_samples": 48}
FIELDS = {
    1: {"kind": "pwlinear", "dim": 1},
    2: {"kind": "cone", "dim": 2, "params": {"x0": [0.4, 0.6]}},
    3: {"kind": "distset", "dim": 3, "params": {"points": [[0.2, 0.3, 0.4], [0.7, 0.6, 0.5]]}},
}
BUMP3 = {"kind": "bump", "dim": 3, "params": {"x0": [0.5, 0.5, 0.5], "scale": 0.4}}
PARABOLIC = {
    2: {"kind": "p_additive", "dim": 2,
        "params": {"space": "cone", "space_params": {"x0": [0.3]}, "time": "sin"}},
    3: {"kind": "p_additive", "dim": 3,
        "params": {"space": "cone", "space_params": {"x0": [0.3, 0.6]}, "time": "sin"}},
}


def _cases():
    """name -> (subcommand, config)."""
    cases = {}
    for n, fld in FIELDS.items():
        cases[f"analyze_n{n}"] = ("analyze", {"field": fld, "depth": 1, "ps": [1, 2, 3, "inf"]})
    for n in (2, 3):
        for sel in SELECTORS:
            cases[f"carleson_n{n}_{sel}"] = ("carleson",
                                             {"field": FIELDS[n], "depth": 1, "selector": sel})
    for m in (1, 2, 3):
        for p in (1, 2, "inf"):
            cases[f"igbeta_m{m}_p{p}"] = ("igbeta", {"field": BUMP3, "m": m, "p": p, "q": 2})
    for n, Ls in ((2, (None, 0.5)), (3, (0.5,))):
        for L in Ls:
            for sel, (_, _, needs_L) in PARABOLIC_SELECTORS.items():
                if L is None and needs_L:
                    continue
                cfg = {"field": PARABOLIC[n], "depth": 1, "selector": sel}
                if L is not None:
                    cfg["L"] = L
                cases[f"parabolic_n{n}_{sel}_L{L}"] = ("parabolic", cfg)
    # 273 boxes of two-dimensional time slices, each a ridge fit
    cases["parabolic_n3_AL_depth2"] = ("parabolic", {"field": PARABOLIC[3], "depth": 2,
                                                     "selector": "AL", "L": 0.5})
    cases["analyze_n2_root"] = ("analyze", {"field": FIELDS[2], "depth": 1,
                                            "root": {"level": 2, "index": [1, 3]}})
    cases["analyze_n3_root"] = ("analyze", {"field": FIELDS[3], "depth": 1, "ps": [2],
                                            "root": {"level": 1, "index": [1, 0, 1]}})
    cases["carleson_n2_root"] = ("carleson", {"field": FIELDS[2], "depth": 2,
                                              "root": {"level": 3, "index": [-1, 5]}})
    cases["parabolic_n2_root"] = ("parabolic", {
        "field": PARABOLIC[2], "depth": 1, "selector": "beta2",
        "parabolic_root": {"level": 1, "spatial_index": [1], "time_index": 3}})
    cases["parabolic_n3_root"] = ("parabolic", {
        "field": PARABOLIC[3], "depth": 1, "selector": "A",
        "parabolic_root": {"level": 2, "spatial_index": [-1, 2], "time_index": -5}})
    for n in (2, 3):
        cases[f"reconstruct_n{n}"] = ("reconstruct", {"field": FIELDS[n]})
        cases[f"rademacher_n{n}"] = ("rademacher", {"field": PARABOLIC[n]})
    cases["verify"] = ("verify", {})
    return {name: (cmd, dict(cfg, quad=QUAD, seed=SEED)) for name, (cmd, cfg) in cases.items()}


CASES = _cases()


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def csv_digests(command, config, workdir):
    """Run one case in workdir; sha256 of each CSV it writes, by file name."""
    workdir = pathlib.Path(workdir)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2) + "\n")
    out = workdir / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 0, f"{command} exited {code}"
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("*.csv"))}


def _recorded():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_golden(name, tmp_path):
    recorded = _recorded()
    if recorded["versions"] != versions():
        pytest.skip(f"digests recorded under {recorded['versions']}, running {versions()}")
    command, config = CASES[name]
    assert csv_digests(command, config, tmp_path) == recorded["digests"][name]


def test_every_case_is_recorded():
    assert sorted(_recorded()["digests"]) == sorted(CASES)


if __name__ == "__main__":
    digests = {}
    for name, (command, config) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as workdir:
            digests[name] = csv_digests(command, config, workdir)
    DIGESTS.write_text(json.dumps({"versions": versions(), "digests": digests},
                                  indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} cases in {DIGESTS}")
