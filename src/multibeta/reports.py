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
    """Write rows (iterables of cells) with formatted cells, atomically."""
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    atomic_write(path, buf.getvalue())


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path: str, config: dict, seed: int, outputs: list):
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "config_sha256": config_hash(config),
        "seed": int(seed),
        "outputs": sorted(outputs),
        "versions": {
            "multibeta": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
