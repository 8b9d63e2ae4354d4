"""multibeta benchmark: time the CLI end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload cube_tree --seed 7 --seconds 28 --trace 0

Run from the repository root. With ``--trace 0`` every invocation of the
workload runs as a ``python -m multibeta.cli`` child, one at a time, and
the end-to-end metrics are medians over the iterations that fit in
``--seconds``. With ``--trace 1`` untraced iterations alternate with traced
ones (each invocation run in-process under ``tracer.py`` by ``child.py``)
and the per-layer metrics come from the traced spans.

Every CSV a child writes is hashed and compared with ``digests.json``; an
invocation that exits non-zero or writes a different CSV counts as failed.
Seeds without pins are checked against the files that do not depend on the
seed and against the digests this checkout saw before for that seed, which
``results/seen_digests.json`` keeps. Each run writes its samples, spreads
and a machine record to ``results/BENCH_*.json``; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")
PINS = os.path.join(HERE, "digests.json")
SEEN = os.path.join(RESULTS, "seen_digests.json")
CHILD = os.path.join(HERE, "child.py")

# a run must end within 180 s; children still running this long after the
# run started are killed and count as failed
RUN_DEADLINE_S = 165
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Work a workload must never do: nonzero means it reached a layer it was
# chosen to bypass, so the traced run marks the result incorrect.
PREDICTED_ZERO = {
    "cube_tree": ("geometry.lines_drawn", "geometry.planes_drawn"),
    "parabolic_tree": ("geometry.lines_drawn", "geometry.planes_drawn"),
    "slice_mc": ("beta.cube_calls",),
}


@dataclass
class Child:
    """Exit code and resource use of one finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv, env, log_path, deadline: float) -> Child:
    """Run ``argv`` to completion; a child still running at ``deadline``
    (a ``time.monotonic`` value) is killed."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # cached bytecode, as an installed package has: set-up time then measures
    # imports, not compilation, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # keep any temporary file a child makes inside the checkout
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def csv_digests(out_dir: str, label: str) -> dict:
    found = {}
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as handle:
                found[f"{label}/{name}"] = hashlib.sha256(handle.read()).hexdigest()
    return found


class Workload:
    """One workload at one seed: its configs, outputs and digest checks."""

    def __init__(self, name: str, seed: int, size: str, expected: dict, pinned: bool):
        self.name, self.seed, self.size = name, seed, size
        self.expected, self.pinned = expected, pinned
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.dir = os.path.join(WORK, name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, "configs"))
        self.invocations = []
        for k, (command, config) in enumerate(workloads.invocations(name, size)):
            label = f"{k}_{command}"
            path = os.path.join(self.dir, "configs", f"{label}.json")
            with open(path, "w") as handle:
                json.dump(config, handle, indent=2)
            self.invocations.append((label, command, path))
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, tag: str, traced: bool, env) -> dict:
        """One iteration: every invocation in order, then the digest check."""
        root = os.path.join(self.dir, tag)
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        children, spans = [], []
        t0 = time.perf_counter()
        for label, command, config in self.invocations:
            out = os.path.join(root, label)
            args = [command, "--config", config, "--seed", str(self.seed), "--out", out, "--quiet"]
            if traced:
                spans.append(os.path.join(root, f"{label}.spans.npz"))
                argv = [sys.executable, CHILD, "trace", spans[-1], "--"] + args
            else:
                argv = [sys.executable, "-m", "multibeta.cli"] + args
            children.append(spawn(argv, env, os.path.join(root, f"{label}.log"), self.deadline))
        wall = time.perf_counter() - t0
        for (label, _, _), child in zip(self.invocations, children):
            self.attempted += 1
            problems = [] if child.code == 0 else [f"exit code {child.code}"]
            problems += self._check(label, csv_digests(os.path.join(root, label), label))
            if problems:
                self.failed += 1
                self.problems.append(f"{tag}/{label}: " + "; ".join(problems))
        return {"wall_s": wall, "cpu_s": sum(c.cpu_s for c in children),
                "peak_rss_mb": max(c.rss_mb for c in children), "spans": spans}

    def _check(self, label: str, found: dict) -> list:
        problems = []
        for key, digest in found.items():
            want = self.expected.get(key) or self.seen.get(key)
            if want is not None and want != digest:
                problems.append(f"{key} sha256 {digest[:12]} != {want[:12]}")
            self.seen.setdefault(key, digest)
        must = {k for k in self.expected if k.startswith(label + "/")} if self.pinned else set()
        problems += [f"{key} missing" for key in sorted(must - set(found))]
        if not found:
            problems.append("no CSV written")
        return problems


def load_json(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def expected_digests(name: str, seed: int, size: str):
    """Digests a run must reproduce, and whether its seed is pinned.

    An unpinned seed is held to the files that do not depend on the seed,
    and to what this checkout produced before for that seed.
    """
    pins = load_json(PINS)[size][name]
    if str(seed) in pins:
        return dict(pins[str(seed)]), True
    seen = load_json(SEEN).get(f"{size}/{name}/{seed}", {})
    return {**seen, **pins["any_seed"]}, False


def record_seen(wl: "Workload"):
    seen = load_json(SEEN)
    seen[f"{wl.size}/{wl.name}/{wl.seed}"] = dict(sorted(wl.seen.items()))
    os.makedirs(RESULTS, exist_ok=True)
    with open(SEEN, "w") as handle:
        json.dump(seen, handle, indent=1, sort_keys=True)


def measure(seconds: float, step):
    """Call ``step`` until another call would overrun ``seconds``; at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def spread(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "min": min(values), "q1": q1, "median": med, "q3": q3,
            "max": max(values), "iqr_share": (q3 - q1) / med if med else 0.0}


def setup_time(wl: Workload, env) -> list:
    """Wall times of set-up probes; the first, untimed, warms the caches."""
    argv = [sys.executable, CHILD, "setup", str(wl.seed)] + [
        f"{command}={config}" for _, command, config in wl.invocations]
    log = os.path.join(wl.dir, "setup.log")
    times = []
    for k in range(SETUP_REPEATS + 1):
        child = spawn(argv, env, log, wl.deadline)
        if child.code != 0:
            wl.problems.append(f"setup probe exit code {child.code}")
            return [child.wall_s]
        if k:
            times.append(child.wall_s)
    return times


def run_untraced(wl: Workload, seconds: float, env):
    setup = setup_time(wl, env)
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}

    def step(k):
        it = wl.run(f"it{k}", False, env)
        for key in samples:
            samples[key].append(it[key])

    measure(seconds, step)
    samples["setup_s"] = setup
    metrics = {key: statistics.median(vals) for key, vals in samples.items()}
    return metrics, samples, {}


def run_traced(wl: Workload, seconds: float, env):
    import tracer

    plain, traced, coverage = [], [], []
    layers: list[dict] = []
    ratios = {}

    def step(k):
        plain.append(wl.run(f"it{k}", False, env)["wall_s"])
        it = wl.run(f"tr{k}", True, env)
        traced.append(it["wall_s"])
        spans = tracer.Spans([p for p in it["spans"] if os.path.exists(p)])
        coverage.append(spans.top_level_s / it["wall_s"])
        found, found_ratios = tracer.layer_metrics(spans)
        layers.append(found)
        ratios.update(found_ratios)

    measure(seconds, step)
    samples = {key: [it[key] for it in layers] for key in layers[0]}
    metrics = {}
    for key, vals in samples.items():
        if isinstance(vals[0], int):
            if len(set(vals)) > 1:
                wl.problems.append(f"{key} differs between traced iterations: {vals}")
            metrics[key] = vals[-1]
        else:
            metrics[key] = statistics.median(vals)
    samples["trace.traced_wall_s"] = traced
    samples["trace.untraced_wall_s"] = plain
    samples["trace.coverage"] = coverage
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["trace.coverage"] = statistics.median(coverage)
    ratios["trace.coverage"] = ("time inside outermost spans", "traced wall_s")
    for key in PREDICTED_ZERO.get(wl.name, ()):
        if metrics[key] != 0:
            wl.problems.append(f"bypass check: {key} = {metrics[key]}, predicted 0")
    return metrics, samples, ratios


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def declared_metrics(trace: bool) -> dict:
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for selftest.py")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "multibeta", "cli.py")):
        print("run from the repository root: src/multibeta is missing", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    env = child_env()
    wl = Workload(args.workload, args.seed, args.size,
                  *expected_digests(args.workload, args.seed, args.size))
    run = run_traced if args.trace else run_untraced
    metrics, samples, ratios = run(wl, args.seconds, env)
    if not wl.pinned:
        record_seen(wl)
    metrics["failed_share"] = wl.failed / wl.attempted if wl.attempted else 1.0
    ratios["failed_share"] = (wl.failed, wl.attempted)

    missing = sorted(set(units) - set(metrics))
    if missing:
        wl.problems.append(f"metrics not produced: {missing}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "pinned_seed": wl.pinned,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine_record(),
        "repeats": {key: len(vals) for key, vals in samples.items()},
        "metrics": metrics,
        "spread": {key: spread(vals) for key, vals in samples.items() if vals},
        "samples": samples,
        "ratios": {key: list(val) for key, val in ratios.items()},
        "digests": dict(sorted(wl.seen.items())),
        "attempted": wl.attempted, "failed": wl.failed, "problems": wl.problems,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(RESULTS, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)

    for problem in wl.problems:
        print(f"FAILED {problem}")
    for key, unit in {**units, "failed_share": "ratio"}.items():
        line = f"{key:32s} {metrics.get(key, float('nan')):>14.6g} {unit}"
        if key in record["spread"]:
            sp = record["spread"][key]
            line += f"   n={sp['n']} q1={sp['q1']:.6g} q3={sp['q3']:.6g} iqr/median={sp['iqr_share']:.3f}"
        if key in ratios:
            num, base = ratios[key]
            line += f"   = {num} / {base}"
        print(line)
    print(f"record: {os.path.relpath(path)}")
    result = {
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units if key in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
