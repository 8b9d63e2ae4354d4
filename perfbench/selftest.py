"""Smoke test of the benchmark itself: every workload at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute. For every workload it
runs ``run.py`` untraced and traced at a pinned seed, and untraced at an
unpinned seed, and checks the exit code, that the result is correct with
no failed invocation, and that every metric BENCHMARK.json declares for
that mode is emitted. It then checks that a corrupted pin is caught as a
failed invocation, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import run
import workloads

UNPINNED_SEED = 20181102


def bench(*argv):
    """Run ``run.main`` in-process; return its exit code and parsed result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--size", "smoke", "--seconds", "0", *argv])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if code == 0 and lines else None, out.getvalue()


def main() -> int:
    failures = []

    def check(label, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'} {label}" + (f": {detail}" if detail and not ok else ""),
              flush=True)
        if not ok:
            failures.append(label)

    for name in workloads.WORKLOADS:
        for trace, seed in ((0, 7), (1, 7), (0, UNPINNED_SEED)):
            label = f"{name} trace={trace} seed={seed}"
            code, result, text = bench("--workload", name, "--seed", str(seed),
                                       "--trace", str(trace))
            check(f"{label} exits 0 with a result", result is not None, text[-2000:])
            if result is None:
                continue
            check(f"{label} correct, none failed",
                  result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  text[-2000:])
            declared = run.declared_metrics(bool(trace))
            check(f"{label} emits every declared metric",
                  set(result["metrics"]) == set(declared),
                  sorted(set(declared) ^ set(result["metrics"])))

    pins, saved = run.PINS, run.load_json(run.PINS)
    corrupt = os.path.join(run.WORK, "corrupt_digests.json")
    key = sorted(saved["smoke"]["cube_tree"]["7"])[0]
    saved["smoke"]["cube_tree"]["7"][key] = "0" * 64
    os.makedirs(run.WORK, exist_ok=True)
    with open(corrupt, "w") as handle:
        json.dump(saved, handle)
    run.PINS = corrupt
    try:
        code, result, text = bench("--workload", "cube_tree", "--seed", "7")
    finally:
        run.PINS = pins
    check("corrupted pin counts as a failed invocation",
          result is not None and not result["correct"] and result["failed"] == 1, text[-2000:])

    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    here = os.getcwd()
    os.chdir(bare)
    try:
        code, result, text = bench("--workload", "cube_tree")
    finally:
        os.chdir(here)
    check("no sources: non-zero exit, no result", code != 0 and result is None, text)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
