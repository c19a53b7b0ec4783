"""On-disk formats: binary field snapshots and the CSV series.

Snapshot files hold one scalar field each: a 16-byte header (magic ``EPF1``,
``N`` as 32-bit little-endian, ``L`` as 64-bit IEEE-754 little-endian)
followed by ``N*N`` 64-bit little-endian doubles in row-major order.  Each
snapshot also gets a sidecar JSON manifest with the time, the physical
parameters, the norm sample and the frame's scale factor ``a`` and rate
``H``: the fields are comoving (``sigma``, ``w`` at points ``y``), and the
physical ones are ``rho = sigma / a^2`` and ``u = H x + w`` at ``x = a y``.

CSV files carry exact header rows (``t,rho_sup,phi_sup,dphi_dx_sup`` for norm
series; ``t,x1,x2,rho,d,omega,eta,xi,f1,f2,A,envelope_ok`` for tracer
series, whose last column is the sample-wise coefficient envelope flag).
Floats are rendered in the shortest round-trip form so goldens are portable;
an optional timestamp comment is the only non-deterministic line and can be
suppressed.
"""

from __future__ import annotations

import json
import struct
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .comparison import within_envelope
from .simulate import NormSeries, PdeRunResult, SpectralFrame
from .tracing import TracerSeries

__all__ = [
    "MAGIC",
    "write_scalar_field",
    "read_scalar_field",
    "write_snapshot",
    "write_run_snapshots",
    "fmt",
    "timestamp_line",
    "write_norm_csv",
    "write_tracer_csv",
    "write_trajectory_csv",
    "write_sweep_csv",
]

MAGIC = b"EPF1"
_HEADER = struct.Struct("<4sid")  # magic, N, L -> 16 bytes


def fmt(x: float) -> str:
    """Shortest decimal form that round-trips a 64-bit float."""
    return repr(float(x))


def timestamp_line() -> str:
    return f"# generated: {datetime.now(timezone.utc).isoformat()}\n"


def write_scalar_field(path, values: np.ndarray, L: float) -> None:
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("snapshot fields must be square 2D arrays")
    n = values.shape[0]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, n, float(L)))
        fh.write(values.astype("<f8").tobytes(order="C"))


def read_scalar_field(path) -> tuple[np.ndarray, float]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated snapshot header")
    magic, n, box = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    payload = raw[_HEADER.size :]
    if len(payload) != 8 * n * n:
        raise ValueError(f"{path}: payload size mismatch for N={n}")
    values = np.frombuffer(payload, dtype="<f8").reshape(n, n).copy()
    return values, box


def write_snapshot(out_dir, stem: str, frame: SpectralFrame, grid, params, norms) -> list[str]:
    """Write ``frame``'s ``rho``, ``u1`` and ``u2``, one file each, plus a JSON manifest.

    The manifest holds the frame's time ``t``, scale factor ``a`` and rate
    ``H``, the parameters and the norm sample ``norms``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    u = frame.u
    fields = {"rho": frame.rho, "u1": u[0], "u2": u[1]}
    written = []
    for name, values in fields.items():
        p = out_dir / f"{stem}_{name}.epf"
        write_scalar_field(p, values, grid.L)
        written.append(str(p))
    manifest = {
        "time": frame.t,
        "N": grid.N,
        "L": grid.L,
        "k": params.k,
        "c_b": params.c_b,
        "a": frame.a,
        "H": frame.H,
        "fields": sorted(fields),
        "norms": {
            "rho_sup": norms[0],
            "phi_sup": norms[1],
            "dphi_dx_sup": norms[2],
        },
    }
    mpath = out_dir / f"{stem}.json"
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(str(mpath))
    return written


def write_run_snapshots(out_dir, result: PdeRunResult) -> None:
    """Write every snapshot of a run as ``snapshot_0000``, ``snapshot_0001``, ...

    Each manifest's norms are the run's norm-series row at the snapshot time.
    """
    ns = result.norms
    for i, frame in enumerate(result.snapshots):
        row = np.searchsorted(ns.t, frame.t)
        norms = (ns.rho_sup[row], ns.phi_sup[row], ns.dphi_dx_sup[row])
        write_snapshot(out_dir, f"snapshot_{i:04d}", frame, result.grid, result.params, norms)


def _write_table(fh, header: str, rows, timestamp: bool, footer: str = "") -> None:
    """The timestamp comment, ``header``, one line per row, then ``footer``.

    Text cells are written as they are; every other cell is a float.
    """
    if timestamp:
        fh.write(timestamp_line())
    fh.write(header + "\n")
    for row in rows:
        fh.write(",".join([c if isinstance(c, str) else fmt(c) for c in row]) + "\n")
    fh.write(footer)


def write_norm_csv(fh, series: NormSeries, timestamp: bool = True) -> None:
    rows = zip(series.t, series.rho_sup, series.phi_sup, series.dphi_dx_sup)
    _write_table(fh, "t,rho_sup,phi_sup,dphi_dx_sup", rows, timestamp)


def write_tracer_csv(fh, series: TracerSeries, timestamp: bool = True) -> None:
    """Tracer CSV with the sample-wise coefficient envelope flag appended."""
    envelope_ok = np.where(within_envelope(series.t, series.A), "1", "0")
    columns = (
        series.t, *series.x.T, series.rho, series.d, series.omega, series.eta,
        series.xi, series.f1, series.f2, series.A, envelope_ok,
    )
    _write_table(fh, "t,x1,x2,rho,d,omega,eta,xi,f1,f2,A,envelope_ok", zip(*columns), timestamp)


def write_trajectory_csv(fh, traj, status_text: str, timestamp: bool = True) -> None:
    footer = f"# status: {status_text}\n"
    _write_table(fh, "t,rho,d", zip(traj.t, *traj.y.T), timestamp, footer)


def write_sweep_csv(fh, rows, timestamp: bool = True) -> None:
    """Sweep rows ``(rho0, d0, region, status, t_blow_mid_or_None)`` in grid order."""
    rows = ((r, d, region, status, "" if t is None else t) for r, d, region, status, t in rows)
    _write_table(fh, "rho0,d0,region,status,t_blow_mid", rows, timestamp)
