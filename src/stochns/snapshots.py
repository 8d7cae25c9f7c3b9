"""Snapshot containers: coefficient arrays as .npy plus a JSON sidecar.

A state snapshot stores the packed Galerkin ball `SimState.c`, shape
(dim, n_ball): only the modes |k| <= cutoff, in storage order of the half
spectrum (see `fields.pack_ball`). Its .npy header is self-describing and
byte-deterministic, which .npz is not (zip timestamps). The sidecar carries
the metadata (time, seed, cutoff, phi, budgets, stop records) and names the
layout; files in any other layout, such as the half-spectrum or full-grid
spectra of earlier snapshots, are refused rather than converted. A
checkpoint restored from disk resumes bit-compatibly. For the half
spectrum, write the rows into `lattice.ball_mask(cutoff)` of zeros.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .brownian import IncrementBlock
from .lattice import get_lattice
from .sde import SimState, StopRecord

LAYOUT = ("Galerkin ball, complex128, shape (component, mode): the modes with "
          "|k| <= cutoff of the Hermitian half spectrum (rfftn layout, k1..k(d-1) "
          "in numpy fft order, kd = 0..n/2) in row-major order")

_REQUIRED = ("layout", "dim", "grid_n", "cutoff", "t", "step", "budget_sup",
             "budget_int", "h2_int", "initial_h1_sq", "stops")


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_sidecar(path: Path, meta: dict) -> None:
    path.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def save_state(base: str | Path, state: SimState, meta: dict | None = None) -> list[Path]:
    """Checkpoint a SimState: `<base>.npy` holds the packed ball, `<base>.json`
    the lattice, cutoff, budgets and stop records; returns the written paths."""
    base = Path(base)
    npy = base.with_suffix(".npy")
    # C order whatever the caller's layout, so equal states save equal bytes
    np.save(npy, np.ascontiguousarray(state.c))
    sidecar = dict(meta or {})
    sidecar.update({
        "dim": state.lattice.dim,
        "grid_n": state.lattice.grid_n,
        "cutoff": state.cutoff,
        "layout": LAYOUT,
        "t": state.t,
        "step": state.step,
        "budget_sup": state.budget_sup,
        "budget_int": state.budget_int,
        "h2_int": state.h2_int,
        "initial_h1_sq": state.initial_h1_sq,
        "stops": [{"monitor": s.monitor, "time": s.time, "step": s.step, "value": s.value}
                  for s in state.stops],
    })
    jsn = base.with_suffix(".json")
    _write_sidecar(jsn, sidecar)
    return [npy, jsn]


def load_state(base: str | Path) -> tuple[SimState, dict]:
    """Read a checkpoint written by save_state.

    Raises ValueError for another sidecar layout, a sidecar missing a
    required key, and an array that is not complex128 of shape (dim, n_ball).
    """
    base = Path(base)
    meta = json.loads(base.with_suffix(".json").read_text())
    if meta.get("layout") != LAYOUT:
        raise ValueError(f"{base}: snapshot layout {meta.get('layout')!r} is not {LAYOUT!r}")
    missing = [key for key in _REQUIRED if key not in meta]
    if missing:
        raise ValueError(f"{base}: snapshot sidecar lacks {', '.join(missing)}")
    lattice = get_lattice(meta["dim"], meta["grid_n"])
    c = np.load(base.with_suffix(".npy"))
    if c.dtype != np.complex128:
        raise ValueError(f"{base}: snapshot dtype {c.dtype} is not complex128")
    expected = (lattice.dim, int(lattice.ball_mask(meta["cutoff"]).sum()))
    if c.shape != expected:
        raise ValueError(f"{base}: snapshot shape {c.shape} is not the ball's {expected}")
    stops = tuple(StopRecord(monitor=s["monitor"], time=s["time"], step=s["step"],
                             value=s["value"]) for s in meta["stops"])
    state = SimState(t=meta["t"], step=meta["step"], c=c, lattice=lattice,
                     cutoff=meta["cutoff"], budget_sup=meta["budget_sup"],
                     budget_int=meta["budget_int"], h2_int=meta["h2_int"],
                     initial_h1_sq=meta["initial_h1_sq"], stops=stops)
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
