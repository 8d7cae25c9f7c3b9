"""Snapshot containers: coefficient arrays as .npy plus a JSON sidecar.

The .npy array is the stored half spectrum, shape (dim, n, ..., n, n//2+1)
(see `lattice`); its header is self-describing and byte-deterministic, which
.npz is not (zip timestamps). The sidecar carries the metadata (time, seed,
cutoff, phi, budgets, stop records) and names the layout; files in any other
layout, such as full-grid spectra, are refused rather than converted. A
checkpoint restored from disk resumes bit-compatibly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .brownian import IncrementBlock
from .fields import SpectralField
from .lattice import get_lattice
from .sde import SimState, StopRecord

LAYOUT = ("Hermitian half spectrum, complex128, axes (component, k1, ..., kd); "
          "k1..k(d-1) in numpy fft order, kd = 0..n/2 (rfftn layout)")


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_sidecar(path: Path, meta: dict) -> None:
    path.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def save_field(base: str | Path, field: SpectralField, meta: dict | None = None) -> list[Path]:
    """Write `<base>.npy` + `<base>.json`; returns the written paths."""
    base = Path(base)
    npy = base.with_suffix(".npy")
    np.save(npy, field.coeffs)
    sidecar = dict(meta or {})
    sidecar.update({
        "dim": field.lattice.dim,
        "grid_n": field.lattice.grid_n,
        "solenoidal": field.solenoidal,
        "layout": LAYOUT,
    })
    jsn = base.with_suffix(".json")
    _write_sidecar(jsn, sidecar)
    return [npy, jsn]


def load_field(base: str | Path) -> tuple[SpectralField, dict]:
    """Read a field written by save_field.

    Raises ValueError for another sidecar layout, and (from SpectralField)
    for an array that is not the lattice's half spectrum.
    """
    base = Path(base)
    meta = json.loads(base.with_suffix(".json").read_text())
    if meta.get("layout") != LAYOUT:
        raise ValueError(f"{base}: snapshot layout {meta.get('layout')!r} is not {LAYOUT!r}")
    coeffs = np.load(base.with_suffix(".npy"))
    lattice = get_lattice(meta["dim"], meta["grid_n"])
    return SpectralField(lattice, coeffs, solenoidal=meta.get("solenoidal", False)), meta


def save_state(base: str | Path, state: SimState, meta: dict | None = None) -> list[Path]:
    """Checkpoint a SimState (coefficients + budgets + stop records)."""
    sidecar = dict(meta or {})
    sidecar.update({
        "t": state.t,
        "step": state.step,
        "budget_sup": state.budget_sup,
        "budget_int": state.budget_int,
        "h2_int": state.h2_int,
        "initial_h1_sq": state.initial_h1_sq,
        "stops": [{"monitor": s.monitor, "time": s.time, "step": s.step, "value": s.value}
                  for s in state.stops],
    })
    return save_field(base, state.u, sidecar)


def load_state(base: str | Path) -> tuple[SimState, dict]:
    field, meta = load_field(base)
    stops = tuple(StopRecord(monitor=s["monitor"], time=s["time"], step=s["step"],
                             value=s["value"]) for s in meta.get("stops", ()))
    state = SimState(t=meta["t"], step=meta["step"], u=field,
                     budget_sup=meta["budget_sup"], budget_int=meta["budget_int"],
                     h2_int=meta["h2_int"], initial_h1_sq=meta["initial_h1_sq"],
                     stops=stops)
    return state, meta


def save_increments(base: str | Path, block: IncrementBlock) -> list[Path]:
    """Audit dump of a Wiener increment block."""
    base = Path(base)
    npy = base.with_suffix(".npy")
    np.save(npy, block.increments)
    meta = {
        "master_seed": block.spec.master_seed,
        "path_index": block.spec.path_index,
        "n_processes": block.spec.n_processes,
        "dt": block.dt,
        "step0": block.step0,
        "level": block.level,
    }
    jsn = base.with_suffix(".json")
    _write_sidecar(jsn, meta)
    return [npy, jsn]
