"""Trajectory persistence: CSV files with a JSON config sidecar.

One CSV per (config, seed): header ``step,time_raw,time_rescaled,compute,
risk,risk_normalized,align_<j>...`` with 17 significant digits so parsing is
lossless.  The sidecar carries the expanded config, its hash, the seed, and
the repository version; the hash makes the determinism contract checkable
(same config + seed => byte-identical CSV).
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import hashlib
import json
import os
import subprocess
import tempfile

import numpy as np

__all__ = ["TrajectoryData", "write_trajectory", "read_trajectory", "config_hash"]

_FMT = "%.17g"
_COLUMNS = ["step", "time_raw", "time_rescaled", "compute", "risk", "risk_normalized"]


@dataclass
class TrajectoryData:
    steps: np.ndarray
    time_raw: np.ndarray
    time_rescaled: np.ndarray
    compute: np.ndarray
    risk: np.ndarray
    risk_normalized: np.ndarray
    alignments: np.ndarray       # (n, len(tracked_js))
    tracked_js: list[int]
    meta: dict


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@functools.cache
def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _atomic_write(path: str, payload: str) -> None:
    """Write ``payload`` to ``path`` (its directory must exist) through a
    temporary file beside it: a reader sees the old file or the new, never part.
    The file gets the umask's mode, as ``open`` would give it, not mkstemp's 0600."""
    umask = os.umask(0)  # the one way to read it is to set it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trajectory(path: str, data: TrajectoryData, config: dict, seed: int) -> None:
    """Write the CSV and its ``<path>.json`` sidecar atomically."""
    cols = _COLUMNS + [f"align_{j}" for j in data.tracked_js]
    lines = [",".join(cols)]
    n = len(data.steps)
    for i in range(n):
        row = [
            str(int(data.steps[i])),
            _FMT % data.time_raw[i],
            _FMT % data.time_rescaled[i],
            _FMT % data.compute[i],
            _FMT % data.risk[i],
            _FMT % data.risk_normalized[i],
        ]
        row += [_FMT % v for v in data.alignments[i]]
        lines.append(",".join(row))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    _atomic_write(path, "\n".join(lines) + "\n")
    sidecar = {
        "config": config,
        "config_hash": config_hash(config),
        "seed": int(seed),
        "version": _git_describe(),
        "tracked_js": [int(j) for j in data.tracked_js],
    }
    sidecar.update(data.meta)
    _atomic_write(path + ".json", json.dumps(sidecar, sort_keys=True, indent=1) + "\n")


def read_trajectory(path: str) -> TrajectoryData:
    """Read a CSV of :func:`write_trajectory` and its sidecar, if any; a file
    that is no such CSV with at least one row and only finite cells, or whose
    sidecar is no JSON object, raises a ValueError naming it."""
    with open(path, errors="replace") as fh:  # undecodable bytes fail below, by name
        header = fh.readline().strip().split(",")
        rows = [line for line in fh if line.strip()]
    if not rows or not set(_COLUMNS) <= set(header):
        raise ValueError(f"{path} is not a trajectory CSV with at least one row")
    meta = {}
    try:  # a non-numeric cell, an align_<j> that is no integer, a broken sidecar
        raw = np.loadtxt(rows, delimiter=",", ndmin=2)
        js = [int(name.split("_", 1)[1]) for name in header if name.startswith("align_")]
        if os.path.exists(path + ".json"):
            with open(path + ".json") as fh:
                meta = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if type(meta) is not dict:
        raise ValueError(f"{path}.json: the sidecar is not a JSON object")
    if raw.shape[1] != len(header):
        raise ValueError(f"{path}: {raw.shape[1]} columns under a header of {len(header)}")
    bad = ~np.isfinite(raw).all(axis=1)
    if bad.any():  # write_trajectory never writes one: a run refuses non-finite records
        raise ValueError(f"{path}: a non-finite cell in data row {bad.argmax() + 1}")
    idx = {name: k for k, name in enumerate(header)}
    align_cols = [idx[f"align_{j}"] for j in js]
    return TrajectoryData(
        steps=raw[:, idx["step"]].astype(int),
        time_raw=raw[:, idx["time_raw"]],
        time_rescaled=raw[:, idx["time_rescaled"]],
        compute=raw[:, idx["compute"]],
        risk=raw[:, idx["risk"]],
        risk_normalized=raw[:, idx["risk_normalized"]],
        alignments=raw[:, align_cols] if align_cols else np.empty((len(raw), 0)),
        tracked_js=js,
        meta=meta,
    )
