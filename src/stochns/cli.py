"""Command-line harness: simulate | decay-study | linear-oracle | invariants.

Every command writes its data files plus a RunRecord JSON whose manifest
lists each output with a sha256 checksum. Data outputs are byte-identical
across reruns and worker counts; the RunRecord itself carries wall-clock
timing and is the one file excluded from that contract.

Exit codes: 0 success, 2 config error, 3 invariant failure, 4 NonFinite abort.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .brownian import increments
from .config import (ConfigError, ExperimentConfig, default_decay_config,
                     default_oracle_config)
from .snapshots import save_increments, save_state, sha256_file
from . import studies

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_NONFINITE = 4

_M_TRIM_THRESHOLD = -1   # glibc mallopt parameters (malloc.h)
_M_MMAP_THRESHOLD = -3


def _retain_freed_memory() -> None:
    """Let the allocator keep freed heap memory for reuse (glibc only).

    Every step allocates and frees array temporaries of 0.1-30 MiB. Under
    glibc's default dynamic thresholds, whether they go back to the kernel
    between steps depends on the heap's layout at the time, and when they
    do, each 4 KiB page faults again on the next step: 1.1 M faults and a
    third of the wall time of a 2000-step grid-100 `simulate`. Serving
    arrays below 32 MiB from the heap, and trimming it only when 256 MiB
    lie free at its top, keeps them resident. Elsewhere this is a no-op.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _fmt(value) -> str:
    """Stable shortest-roundtrip float formatting for CSV cells."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> Path:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


class RunRecorder:
    """Collects outputs and assembles the RunRecord manifest."""

    def __init__(self, command: str, config: ExperimentConfig, out_dir: Path):
        self.command = command
        self.config = config
        self.out_dir = out_dir
        self.started = time.time()
        self.files: list[Path] = []
        self.extra: dict = {}

    def add(self, paths) -> None:
        if isinstance(paths, Path):
            paths = [paths]
        self.files.extend(paths)

    def write(self) -> Path:
        manifest = []
        for path in sorted(set(self.files)):
            manifest.append({
                "path": str(path.relative_to(self.out_dir)),
                "sha256": sha256_file(path),
                "bytes": path.stat().st_size,
            })
        record = {
            "command": self.command,
            "config": self.config.data,
            "config_sha256": self.config.sha256(),
            "versions": {
                "stochns": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "wall_time_s": time.time() - self.started,
            "manifest": manifest,
            **self.extra,
        }
        path = self.out_dir / "run_record.json"
        path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
        return path


def _stop_records(traj) -> list[dict]:
    return [{"monitor": s.monitor, "time": s.time, "step": s.step, "value": s.value}
            for s in traj.stops]


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(config: ExperimentConfig, out_dir: Path) -> int:
    rec = RunRecorder("simulate", config, out_dir)
    result = studies.simulate(config)
    formats = config["outputs.formats"]
    stops = {}
    for pres in result.paths:
        i = pres.path_index
        traj = pres.trajectory
        stops[str(i)] = {"nonfinite": pres.nonfinite, "stops": _stop_records(traj)}
        if pres.nonfinite:
            print(f"warning: path {i} aborted ({pres.nonfinite}); "
                  "recorded and excluded", file=sys.stderr)
        if "csv" in formats:
            s = traj.series
            rec.add(write_csv(out_dir / f"budgets_path{i:03d}.csv",
                              ["t", "budget_sup", "budget_int", "h2_int", "h1_sq", "l2_sq"],
                              zip(s["t"], s["budget_sup"], s["budget_int"],
                                  s["h2_int"], s["h1_sq"], s["l2_sq"])))
            spec_rows = []
            for spec in pres.spectra:
                for kap, mx, en in zip(spec.kappa, spec.max_modulus, spec.energy):
                    spec_rows.append((spec.t, int(kap), float(mx), float(en)))
            rec.add(write_csv(out_dir / f"spectra_path{i:03d}.csv",
                              ["t", "kappa", "shell_max", "shell_energy"], spec_rows))
            rec.add(write_csv(out_dir / f"radius_path{i:03d}.csv",
                              ["t", "delta_hat", "r_squared"],
                              [(t, fit.decay_rate, fit.r_squared)
                               for t, fit in pres.radius_fits]))
        if "snapshot" in formats and not pres.nonfinite:
            rec.add(save_state(out_dir / f"state_path{i:03d}", traj.final,
                               {"path_index": i, "phi": traj.cfg.phi_at(traj.final.t),
                                "seed": config["ensemble.master_seed"]}))
        if config["outputs.dump_increments"]:
            block = increments(traj.path, 0.0, traj.cfg.dt, traj.cfg.n_steps)
            rec.add(save_increments(out_dir / f"increments_path{i:03d}", block))
    rec.extra["paths"] = stops
    rec.extra["dt_stability"] = result.dt_stability
    rec.extra["nonfinite_paths"] = result.nonfinite_paths
    rec.write()
    return EXIT_NONFINITE if result.nonfinite_paths else EXIT_OK


def cmd_decay_study(config: ExperimentConfig, out_dir: Path) -> int:
    rec = RunRecorder("decay-study", config, out_dir)
    result = studies.decay_study(config)
    rec.add(write_csv(out_dir / "decay.csv", ["N", "mean_error", "SE"],
                      zip(result.cutoffs, result.mean_errors, result.std_errors)))
    per_path = []
    for o in result.outcomes:
        if o.nonfinite:
            continue
        for n in result.cutoffs:
            per_path.append((o.path_index, n, o.errors_sq[n], o.stop_times[n], o.ref_tail_sq))
    rec.add(write_csv(out_dir / "decay_paths.csv",
                      ["path", "N", "error_sq", "stop_time", "ref_tail_sq"], per_path))
    rec.extra["fit"] = None if result.fit is None else {
        "rate": result.fit.decay_rate, "r_squared": result.fit.r_squared,
        "n_points": result.fit.n_points}
    rec.extra["dt_stability"] = result.dt_stability
    rec.extra["nonfinite_paths"] = [o.path_index for o in result.outcomes if o.nonfinite]
    rec.write()
    if rec.extra["nonfinite_paths"]:
        return EXIT_NONFINITE
    return EXIT_OK


def cmd_linear_oracle(config: ExperimentConfig, out_dir: Path) -> int:
    rec = RunRecorder("linear-oracle", config, out_dir)
    result = studies.linear_oracle_study(config)
    rec.add(write_csv(out_dir / "oracle.csv", ["dt", "strong_error", "modulus_error"],
                      zip(result.dts, result.strong_errors, result.modulus_errors)))
    for i, reason in sorted(result.nonfinite.items()):
        print(f"warning: path {i} aborted ({reason}); recorded and excluded", file=sys.stderr)
    rec.extra["strong_slope"] = result.strong_slope
    rec.extra["modulus_slope"] = result.modulus_slope
    rec.extra["machine_precision"] = result.machine_precision
    rec.extra["nonfinite_paths"] = sorted(result.nonfinite)
    rec.write()
    return EXIT_NONFINITE if result.nonfinite else EXIT_OK


def cmd_invariants(config: ExperimentConfig, out_dir: Path) -> int:
    rec = RunRecorder("invariants", config, out_dir)
    checks = studies.invariant_checks(config)
    rows = [(c.name, c.value, c.threshold, "pass" if c.passed else "FAIL", c.detail)
            for c in checks]
    rec.add(write_csv(out_dir / "invariants.csv",
                      ["check", "residual", "threshold", "status", "detail"], rows))
    rec.extra["failures"] = [c.name for c in checks if not c.passed]
    rec.write()
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name:<{width}} residual={c.value:.3e} "
              f"threshold={c.threshold:g}")
    failures = [c for c in checks if not c.passed]
    if failures:
        print(f"{len(failures)} invariant check(s) failed")
        return EXIT_INVARIANT
    print("all invariant checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

_COMMANDS = {
    "simulate": cmd_simulate,
    "decay-study": cmd_decay_study,
    "linear-oracle": cmd_linear_oracle,
    "invariants": cmd_invariants,
}


def _load_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_file(args.config)
    elif args.command == "linear-oracle":
        config = default_oracle_config()
    elif args.command == "decay-study":
        config = default_decay_config()
    else:
        config = ExperimentConfig.default()
    overrides: dict = {}
    if args.paths is not None:
        overrides.setdefault("ensemble", {})["n_paths"] = args.paths
    if args.seed is not None:
        overrides.setdefault("ensemble", {})["master_seed"] = args.seed
    if args.out is not None:
        overrides.setdefault("outputs", {})["directory"] = str(args.out)
    if overrides:
        config = config.with_overrides(overrides)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochns",
        description="Pseudospectral stochastic Navier-Stokes simulator and verification harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "ensemble run with spectra, budgets and radius series"),
        ("decay-study", "Galerkin truncation-error decay with common paths"),
        ("linear-oracle", "strong dt-convergence against the closed-form linear solution"),
        ("invariants", "structural identity checks; nonzero exit on failure"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON config file (defaults built in)")
        p.add_argument("--out", type=Path, help="output directory (overrides config)")
        p.add_argument("--paths", type=int, help="ensemble size (overrides config)")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _retain_freed_memory()
    try:
        config = _load_config(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(config["outputs.directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](config, out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
