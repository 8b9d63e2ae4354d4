"""CSV and manifest emission with byte-stable, atomic writes.

Floats are rendered with repr so re-running a deterministic computation
reproduces files byte for byte. Files are written to a temp sibling and
renamed into place.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import tempfile

import numpy as np
import scipy

from . import __version__

MANIFEST_SCHEMA = 1


def fmt(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (tuple, list, np.ndarray)):
        return ";".join(fmt(v) for v in value)
    return str(value)


def atomic_write(path: str, payload: str):
    """Write payload to a temporary file beside path, then move it into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows):
    """Write rows (iterables of cells) with formatted cells, atomically.

    Each cell is written as fmt writes it. Its formatter comes from a table
    keyed by its exact type, which holds fmt's branch for each common type
    (tuples and lists join their entries through the same table); any other
    type goes through fmt.
    """
    import io

    def boolean(value):
        return "true" if value else "false"

    def joined(value):
        return ";".join([cell(v) for v in value])

    def cell(value):
        return formatters.get(type(value), fmt)(value)

    formatters = {type(None): lambda value: "", bool: boolean, np.bool_: boolean,
                  float: float.__repr__, np.float64: float.__repr__, int: int.__repr__,
                  np.int64: lambda value: str(int(value)), str: str, tuple: joined,
                  list: joined}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(c) for c in row] for row in rows)
    atomic_write(path, buf.getvalue())


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path: str, config: dict, seed: int, outputs: list):
    """Write the run manifest to path. It names the outputs relative to its own
    directory, so a run writes the same manifest bytes wherever it writes."""
    directory = os.path.dirname(os.path.abspath(path))
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "config_sha256": config_hash(config),
        "seed": int(seed),
        "outputs": sorted(os.path.relpath(p, directory) for p in outputs),
        "versions": {
            "multibeta": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
