"""Workload definitions: the CLI invocations each workload runs.

A workload is a list of invocations ``(subcommand, config)``. Configs are
built from the workload seed, which reaches the CLI through ``--seed``.
``size="smoke"`` gives the same invocations at tiny sizes for the self-test.
"""

from __future__ import annotations

# Defaults every workload shares unless an invocation overrides them.
QUAD = {"nodes": 9, "restricted_nodes": 17}
DILATION = 3.0

README_FIELD = {"kind": "cone", "dim": 2, "params": {"x0": [0.5, 0.5]}}
D3_FIELD = {"kind": "distset", "dim": 3,
            "params": {"points": [[0.2, 0.3, 0.4], [0.7, 0.6, 0.5], [0.4, 0.8, 0.2]]}}
BUMP3_FIELD = {"kind": "bump", "dim": 3, "params": {"x0": [0.5, 0.5, 0.5], "scale": 0.4}}
PARABOLIC_FIELD = {"kind": "p_additive", "dim": 2,
                   "params": {"space": "cone", "space_params": {"x0": [0.3]}, "time": "sin"}}


def _config(field, size, full, smoke):
    """One config: shared defaults, then the full- or smoke-size keys."""
    sized = dict(full if size == "full" else smoke)
    quad = dict(QUAD, **sized.pop("quad", {}))
    return {"field": field, "dilation": DILATION, "quad": quad, **sized}


def cube_tree(size):
    return [
        ("analyze", _config(README_FIELD, size, {"depth": 4, "ps": [1, 2, "inf"]},
                            {"depth": 1, "ps": [1, 2, "inf"]})),
        ("carleson", _config(README_FIELD, size, {"depth": 7, "selector": "beta2"},
                             {"depth": 1, "selector": "beta2"})),
    ]


def slice_mc(size):
    return [
        ("carleson", _config(README_FIELD, size,
                             {"depth": 2, "selector": "combined", "quad": {"mc_samples": 2048}},
                             {"depth": 1, "selector": "combined", "quad": {"mc_samples": 32}})),
    ]


def n3_mix(size):
    return [
        ("reconstruct", _config(D3_FIELD, size, {"quad": {"mc_samples": 2048}},
                                {"quad": {"mc_samples": 32}})),
        ("igbeta", _config(BUMP3_FIELD, size,
                           {"m": 2, "p": "inf", "q": 2, "quad": {"mc_samples": 512}},
                           {"m": 2, "p": "inf", "q": 2, "quad": {"mc_samples": 32}})),
        ("analyze", _config(D3_FIELD, size, {"depth": 2, "quad": {"nodes": 13}},
                            {"depth": 1, "quad": {"nodes": 5}})),
    ]


def parabolic_tree(size):
    return [
        ("parabolic", _config(PARABOLIC_FIELD, size, {"depth": 4, "selector": "AL", "L": 0.5},
                              {"depth": 1, "selector": "AL", "L": 0.5})),
    ]


WORKLOADS = {
    "cube_tree": cube_tree,
    "slice_mc": slice_mc,
    "n3_mix": n3_mix,
    "parabolic_tree": parabolic_tree,
}


def invocations(workload: str, size: str = "full"):
    """The workload's ``(subcommand, config)`` list; configs carry no seed."""
    return WORKLOADS[workload](size)
