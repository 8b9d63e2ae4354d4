"""Record the CSV digests the benchmark holds every later commit to.

    python3 perfbench/pin.py

Run from the repository root, at the commit whose outputs are the
reference. Runs each workload once per pinned seed, at both sizes, and
rewrites ``digests.json``. Files whose digest is the same for every pinned
seed do not depend on the seed; they go under ``any_seed`` as well, and
runs at any other seed are checked against them.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SEEDS = (7, 11)  # 7 is the default seed; 11 is held out for checking claims


def main() -> int:
    env = run.child_env()
    pins = {}
    for size in ("full", "smoke"):
        for name in workloads.WORKLOADS:
            per_seed = {}
            for seed in SEEDS:
                wl = run.Workload(name, seed, size, expected={}, pinned=False)
                wl.run("pin", False, env)
                if wl.problems:
                    print("\n".join(wl.problems), file=sys.stderr)
                    return 1
                per_seed[str(seed)] = dict(sorted(wl.seen.items()))
                print(f"{size} {name} seed {seed}: {len(wl.seen)} CSV files", flush=True)
            first = per_seed[str(SEEDS[0])]
            per_seed["any_seed"] = {key: digest for key, digest in first.items()
                                    if all(p.get(key) == digest for p in per_seed.values())}
            pins.setdefault(size, {})[name] = per_seed
    with open(run.PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
