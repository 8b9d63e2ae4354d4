"""In-memory span tracer for multibeta, installed from outside the package.

``Tracer.install`` wraps every public function of the layer modules by
object identity in every ``multibeta.*`` namespace that binds it, so calls
through names imported elsewhere (``from .beta import beta_p_restricted``)
and through tables (``cli.COMMANDS``) are seen too. ``FunctionField.eval``
is patched on its class, and ``scipy.optimize.linprog`` only where
``multibeta.fitting`` binds it.

Each span records its name, start, end, parent span, the exception that
left it (if any) and one number taken from its arguments or result (points
evaluated, samples drawn, draws used, bytes written). Spans stay in flat
arrays until ``save`` writes them out; ``layer_metrics`` turns saved spans
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("funcmodel", "geometry", "fitting", "beta", "reconstruct", "parabolic",
          "cli", "reports", "svgplot")

# Public helpers called once per element (per sampled line, per CSV cell).
# A span around each would cost more than the work it times, so these are
# only counted, keyed by the enclosing span; their time stays in the caller.
COUNT_ONLY = {
    "geometry": {"clip_line_to_box", "clip_line_to_ball", "orthonormal_complement",
                 "shadow_area", "support_interval", "ball_volume", "sphere_area",
                 "meets_region", "plane_meets_region", "parabolic_distance"},
    "reports": {"fmt"},
}

EVAL = "funcmodel.FunctionField.eval"
LINPROG = "fitting.linprog"


def _points(pts) -> float:
    arr = pts if isinstance(pts, np.ndarray) else np.asarray(pts)
    return 1.0 if arr.ndim == 1 else float(arr.shape[0])


def _drawn(args, result, exc) -> float:
    return float(len(result)) if exc is None else 0.0


def _draws_used(args, result, exc) -> float:
    selection = result if exc is None else getattr(exc, "selection", None)
    return float(selection.draws_used) if selection is not None else 0.0


def _written(args, result, exc) -> float:
    return float(os.path.getsize(args[0])) if exc is None else 0.0


# span name -> f(args, result, exception) giving the number the span records
PAYLOADS = {
    EVAL: lambda args, result, exc: _points(args[1]),
    "geometry.sample_lines": _drawn,
    "geometry.sample_hyperplanes": _drawn,
    "reconstruct.select_transversal_planes": _draws_used,
    "reports.write_csv": _written,
    "reports.write_manifest": _written,
    "svgplot.bar_chart": _written,
    "svgplot.heatmap": _written,
    "svgplot.reconstruction_scene": _written,
}


class Tracer:
    """Records spans into flat arrays; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.err = array("i")
        self.value = array("d")
        self.stack: list[int] = []
        self.counts: dict[tuple[int, int], int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str):
        """Wrap ``fn`` so each call records one span."""
        nid = self.name_id(name)
        payload = PAYLOADS.get(name)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.err.append(-1)
            self.value.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = clock()
                stack.pop()
                self.err[idx] = self.name_id(type(exc).__name__)
                if payload is not None:
                    self.value[idx] = payload(args, None, exc)
                raise
            self.end[idx] = clock()
            stack.pop()
            if payload is not None:
                self.value[idx] = payload(args, result, None)
            return result

        return traced

    def counter(self, fn, name: str):
        """Wrap ``fn`` so each call is counted against the enclosing span."""
        nid = self.name_id(name)
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (nid, self.name[stack[-1]] if stack else -1)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap the layer functions of the imported multibeta package."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "multibeta" or key.startswith("multibeta."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"multibeta.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self.counter if attr in COUNT_ONLY.get(layer, ()) else self.span
                wrappers[id(obj)] = (obj, wrap(obj, name))
        fitting = sys.modules["multibeta.fitting"]
        wrappers[id(fitting.linprog)] = (fitting.linprog, self.span(fitting.linprog, LINPROG))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = wrappers.get(id(val))
                        if hit is not None and hit[0] is val:
                            obj[key] = hit[1]
        field_cls = sys.modules["multibeta.funcmodel"].FunctionField
        field_cls.eval = self.span(field_cls.eval, EVAL)

    def save(self, path: str):
        keys = list(self.counts)
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 err=np.frombuffer(self.err, dtype=np.int32),
                 value=np.frombuffer(self.value, dtype=np.float64),
                 count_name=np.array([k[0] for k in keys], dtype=np.int32),
                 count_parent=np.array([k[1] for k in keys], dtype=np.int32),
                 count_n=np.array([self.counts[k] for k in keys], dtype=np.int64))


class Spans:
    """Spans of one or more saved traces, renumbered into one table."""

    COLUMNS = ("name", "parent", "start", "end", "err", "value")

    def __init__(self, paths):
        self.ids: dict[str, int] = {}
        self.counts: dict[tuple[int, int], int] = {}
        self.top_level_s = 0.0  # time inside outermost spans, summed over traces
        cols = {key: [] for key in self.COLUMNS}
        offset = 0
        for path in paths:
            with np.load(path) as z:
                z = {key: z[key] for key in z.files}
            # trailing -1 keeps "no parent" / "no error" at -1 after remapping
            remap = np.array([self.ids.setdefault(str(n), len(self.ids)) for n in z["names"]]
                             + [-1], dtype=np.int64)
            parent = z["parent"].astype(np.int64)
            top = parent < 0
            self.top_level_s += float((z["end"][top] - z["start"][top]).sum())
            cols["name"].append(remap[z["name"]])
            cols["parent"].append(np.where(top, -1, parent + offset))
            cols["start"].append(z["start"])
            cols["end"].append(z["end"])
            cols["err"].append(remap[z["err"]])
            cols["value"].append(z["value"])
            for n, p, c in zip(z["count_name"], z["count_parent"], z["count_n"]):
                key = (int(remap[n]), int(remap[p]))
                self.counts[key] = self.counts.get(key, 0) + int(c)
            offset += parent.size
        self.names = sorted(self.ids, key=self.ids.get)
        for key, parts in cols.items():
            setattr(self, key, np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64))
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.name.size)
        self.self_s = self.dur - child

    def mask(self, *names) -> np.ndarray:
        return np.isin(self.name, [self.ids[n] for n in names if n in self.ids])

    def parent_mask(self, *names) -> np.ndarray:
        """Spans whose direct parent is one of ``names``."""
        m = self.mask(*names)
        out = np.zeros(self.name.size, dtype=bool)
        has = self.parent >= 0
        out[has] = m[self.parent[has]]
        return out

    def ancestor_mask(self, name) -> np.ndarray:
        """Spans enclosed, at any depth, by a span called ``name``."""
        target = self.mask(name)
        out = np.zeros(self.name.size, dtype=bool)
        anc = self.parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            out[live] |= target[anc[live]]
            anc[live] = self.parent[anc[live]]
        return out

    def failed_with(self, exc_name) -> np.ndarray:
        return self.err == self.ids.get(exc_name, -2)

    def count(self, name, parent) -> int:
        """Calls of a count-only function made directly inside ``parent``."""
        return self.counts.get((self.ids.get(name, -2), self.ids.get(parent, -2)), 0)


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _pct_us(durations, q) -> float:
    return float(np.percentile(durations, q)) * 1e6 if durations.size else 0.0


def layer_metrics(spans: Spans) -> tuple[dict, dict]:
    """Per-layer metrics of one traced iteration, and ``(numerator, base)``
    of each ratio among them.

    Counts are exact; ``_self_s`` is span duration minus child spans,
    ``_total_s`` includes them.
    """
    s = spans

    def calls(name):
        return int(s.mask(name).sum())

    def self_s(*names):
        return float(s.self_s[s.mask(*names)].sum())

    def total_s(*names):
        return float(s.dur[s.mask(*names)].sum())

    evals = s.mask(EVAL)
    top_evals = evals & ~s.parent_mask(EVAL)
    clip = "geometry.clip_line_to_box"
    samplers = ("geometry.sample_lines", "geometry.sample_hyperplanes")
    lines = float(s.value[s.mask("geometry.sample_lines")].sum())
    sampler_clips = s.count(clip, "geometry.sample_lines")
    fit_names = [n for n in s.names if n.startswith("fitting.fit_")]
    fits = s.mask(*fit_names)
    restricted = s.mask("beta.beta_p_restricted")
    dropped = int((restricted & s.failed_with("EmptyIntersection")).sum())
    selectors = s.mask(*[n for n in s.names if n.startswith("parabolic.")]) \
        & s.parent_mask("parabolic.parabolic_carleson_sum")
    writers = ("reports.write_csv", "reports.write_manifest")
    plots = ("svgplot.bar_chart", "svgplot.heatmap", "svgplot.reconstruction_scene")
    cli_names = [n for n in s.names if n.startswith("cli.")]

    m = {
        "funcmodel.eval_calls": int(top_evals.sum()),
        "funcmodel.eval_points": int(s.value[top_evals].sum()),
        "funcmodel.eval_self_s": float(s.self_s[evals].sum()),
        "geometry.sampler_self_s": self_s(*samplers),
        "geometry.lines_drawn": int(lines),
        "geometry.planes_drawn": int(s.value[s.mask("geometry.sample_hyperplanes")].sum()),
        "geometry.sampler_clip_calls": sampler_clips,
        "geometry.line_accept_ratio": _ratio(lines, sampler_clips),
        "fitting.l2_calls": calls("fitting.fit_affine_l2"),
        "fitting.l2_self_s": self_s("fitting.fit_affine_l2"),
        "fitting.l2c_calls": calls("fitting.fit_affine_l2_constrained"),
        "fitting.l2c_self_s": self_s("fitting.fit_affine_l2_constrained"),
        "fitting.lp_calls": calls("fitting.fit_affine_lp"),
        "fitting.lp_self_s": self_s("fitting.fit_affine_lp"),
        "fitting.minimax_calls": calls("fitting.fit_affine_minimax"),
        "fitting.minimax_self_s": self_s("fitting.fit_affine_minimax"),
        "fitting.minimax_p50_us": _pct_us(s.dur[s.mask("fitting.fit_affine_minimax")], 50),
        "fitting.minimax_p99_us": _pct_us(s.dur[s.mask("fitting.fit_affine_minimax")], 99),
        "fitting.linprog_calls": calls(LINPROG),
        "fitting.linprog_total_s": total_s(LINPROG),
        "fitting.rank_fallbacks": int((fits & s.failed_with("RankDeficient")
                                       & ~s.parent_mask(*fit_names)).sum()),
        "beta.cube_calls": calls("beta.beta_p_cube"),
        "beta.cube_self_s": self_s("beta.beta_p_cube"),
        "beta.restricted_calls": int(restricted.sum()),
        "beta.restricted_self_s": self_s("beta.beta_p_restricted"),
        "beta.restricted_p50_us": _pct_us(s.dur[restricted], 50),
        "beta.restricted_p99_us": _pct_us(s.dur[restricted], 99),
        "beta.slice_use_ratio": _ratio(restricted.sum() - dropped, restricted.sum()),
        "beta.ig_calls": calls("beta.beta_integralgeometric"),
        "beta.ig_self_s": self_s("beta.beta_integralgeometric"),
        "beta.tree_self_s": self_s("beta.carleson_sum"),
        "reconstruct.select_total_s": total_s("reconstruct.select_transversal_planes"),
        "reconstruct.select_self_s": self_s("reconstruct.select_transversal_planes"),
        "reconstruct.draws_used": int(s.value[s.mask("reconstruct.select_transversal_planes")].sum()),
        "reconstruct.verify_self_s": self_s("reconstruct.verify_reconstruction"),
        "parabolic.selector_calls": int(selectors.sum()),
        "parabolic.selector_self_s": float(s.self_s[selectors].sum()),
        "parabolic.tree_self_s": self_s("parabolic.parabolic_carleson_sum"),
        "parabolic.table_total_s": total_s("parabolic.coefficient_table"),
        "parabolic.table_eval_calls": int((top_evals & s.ancestor_mask("parabolic.coefficient_table")).sum()),
        "cli.self_s": self_s(*cli_names),
        "reports.write_s": total_s(*writers),
        "svgplot.write_s": total_s(*plots),
        "reports.bytes_written": int(s.value[s.mask(*writers, *plots)].sum()),
    }
    ratios = {
        "geometry.line_accept_ratio": (int(lines), sampler_clips),
        "beta.slice_use_ratio": (int(restricted.sum()) - dropped, int(restricted.sum())),
    }
    return m, ratios
