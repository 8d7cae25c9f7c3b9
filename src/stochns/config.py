"""Experiment configuration: strict JSON schema, validation, object builders.

Unknown keys are errors (a silently ignored typo would invalidate a
convergence study). Hard invariants: n_ref >= 2 * max(cutoffs),
grid_n >= 3 * n_ref, and a phi_cap whose squared Gevrey-H^2 weight at
|k| = n_ref stays in double range. The dt stability rule only warns.

grid_n >= 3 * n_ref does not put the whole reference ball inside the dealias
box: at equality the 2/3 mask drops the ball's axis modes |k_i| = n_ref
(grid 48 at n_ref 16 in 3D loses 6 ball modes, grid 96 at n_ref 32 in 2D
loses 4). That needs grid_n >= 3 * n_ref + 1 (ROADMAP item 1).

`lattice.grid_n` is the grid of the reference run (and of every command
that steps at n_ref). Each Galerkin cutoff N of a multi-cutoff study steps
on its own minimal dealias grid, `cutoff_lattice(N)`: the smallest fast even
grid of at least 3N+1 points, capped at grid_n. For the decay preset
(grid_n 200):

    N     8   12   16   24   32   n_ref 64
    grid 28   40   50   80   98        200
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .brownian import PathSpec
from .fields import _LOG_MAX_DOUBLE, GevreyWeight, SpectralField, random_h1_field
from .lattice import WaveLattice, build_lattice, galerkin_grid
from .noise import (MultiplicativeNoise, NoiseSystem, TransportNoise,
                    solenoidal_mode_field)
from .sde import StepperConfig


class ConfigError(ValueError):
    """Invalid experiment configuration; fatal pre-run (exit code 2)."""


DEFAULT_CONFIG: dict = {
    "schema_version": 1,
    "lattice": {"dim": 2, "grid_n": 100},
    "physics": {"nu": 0.05, "t_end": 0.5, "dt": 0.001, "convection": True},
    "gevrey": {"s": 1.0, "r": 1.0, "phi_cap": 0.5, "exp_guard": 650.0},
    "galerkin": {"cutoffs": [8, 16], "n_ref": 32},
    "noise": {
        "multiplicative": {"variant": "linear", "coefficients": [0.1], "index_set": [0]},
        "transport": {"variant": "constant", "amplitude": 0.5, "count": 4,
                      "index_set": [1, 2, 3, 4]},
    },
    "initial": {"beta": 2.2, "k0": 1.0, "seed": 2024},
    "ensemble": {"n_paths": 2, "master_seed": 9001, "workers": 1},
    "monitors": {"budget_m": 2.0, "h2_r": 1.0e9},
    "outputs": {"directory": "out", "formats": ["csv", "json", "snapshot"],
                "snapshot_stride": 50, "dump_increments": False},
    "burn_in_frac": 0.1,
    "oracle": {"refinements": 3},
}

_ALLOWED_KEYS = {
    "": set(DEFAULT_CONFIG),
    "lattice": {"dim", "grid_n"},
    "physics": {"nu", "t_end", "dt", "convection"},
    "gevrey": {"s", "r", "phi_cap", "exp_guard"},
    "galerkin": {"cutoffs", "n_ref"},
    "noise": {"multiplicative", "transport"},
    "noise.multiplicative": {"variant", "coefficients", "index_set", "amplitudes", "modes"},
    "noise.transport": {"variant", "amplitude", "count", "index_set", "vectors"},
    "initial": {"beta", "k0", "seed"},
    "ensemble": {"n_paths", "master_seed", "workers"},
    "monitors": {"budget_m", "h2_r"},
    "outputs": {"directory", "formats", "snapshot_stride", "dump_increments"},
    "oracle": {"refinements"},
}


def _check_keys(data: dict, path: str = "") -> None:
    allowed = _ALLOWED_KEYS.get(path)
    if allowed is None:
        return
    unknown = set(data) - allowed
    if unknown:
        where = path or "top level"
        raise ConfigError(f"unknown config keys at {where}: {sorted(unknown)}")
    for key, value in data.items():
        if isinstance(value, dict):
            _check_keys(value, f"{path}.{key}" if path else key)


def _require(node, path: str, keys) -> None:
    """The object at `path` must hold every one of `keys`."""
    where = f"section {path!r}" if path else "top level"
    if not isinstance(node, dict):
        raise ConfigError(f"config {where} must be an object")
    missing = [key for key in keys if key not in node]
    if missing:
        raise ConfigError(f"missing config keys at {where}: {missing}")


def _check_required(data: dict) -> None:
    """A config file is not merged with the defaults, so every section and
    every key the program reads must be present."""
    _require(data, "", DEFAULT_CONFIG)
    for section, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and section != "noise":
            _require(data[section], section, default)
    _require(data["noise"], "noise", ("multiplicative", "transport"))
    mult, tr = data["noise"]["multiplicative"], data["noise"]["transport"]
    _require(mult, "noise.multiplicative", ("variant",))
    variant_keys = {"linear": ("coefficients", "index_set"),
                    "additive": ("amplitudes", "modes", "index_set")}
    _require(mult, "noise.multiplicative", variant_keys.get(mult["variant"], ()))
    _require(tr, "noise.transport", ("variant", "index_set"))
    if "vectors" not in tr:
        _require(tr, "noise.transport", ("amplitude", "count"))


def _merged(overrides: dict | None) -> dict:
    data = copy.deepcopy(DEFAULT_CONFIG)
    if overrides:
        _deep_update(data, overrides)
    return data


def _deep_update(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = copy.deepcopy(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration; `data` is the canonical nested dict."""

    data: dict

    # -- loading ------------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict, merge_defaults: bool = False) -> "ExperimentConfig":
        if merge_defaults:
            raw = _merged(raw)
        _check_keys(raw)
        cfg = cls(data=copy.deepcopy(raw))
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        return cls.from_dict(raw)

    @classmethod
    def default(cls, **overrides) -> "ExperimentConfig":
        return cls.from_dict(_merged(overrides or None))

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        data = copy.deepcopy(self.data)
        _deep_update(data, overrides)
        return ExperimentConfig.from_dict(data)

    # -- access helpers -------------------------------------------------------

    def __getitem__(self, key: str):
        node = self.data
        for part in key.split("."):
            node = node[part]
        return node

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        d = self.data
        if d.get("schema_version") != 1:
            raise ConfigError("schema_version must be 1")
        _check_required(d)
        lat = d["lattice"]
        if lat["dim"] not in (2, 3):
            raise ConfigError("lattice.dim must be 2 or 3")
        if lat["grid_n"] < 8 or lat["grid_n"] % 2:
            raise ConfigError("lattice.grid_n must be even and >= 8")
        phy = d["physics"]
        if phy["nu"] <= 0 or phy["dt"] <= 0 or phy["t_end"] < 0:
            raise ConfigError("physics: nu, dt must be > 0 and t_end >= 0")
        n_steps = round(phy["t_end"] / phy["dt"])
        if abs(n_steps * phy["dt"] - phy["t_end"]) > 1e-9 * max(1.0, phy["t_end"]):
            raise ConfigError("physics.t_end must be a multiple of physics.dt")
        gal = d["galerkin"]
        cutoffs = gal["cutoffs"]
        if not cutoffs or sorted(set(cutoffs)) != sorted(cutoffs) or min(cutoffs) < 1:
            raise ConfigError("galerkin.cutoffs must be distinct integers >= 1")
        if gal["n_ref"] < 2 * max(cutoffs):
            raise ConfigError(
                f"galerkin.n_ref={gal['n_ref']} must be >= 2*max(cutoffs)={2*max(cutoffs)}")
        if lat["grid_n"] < 3 * gal["n_ref"]:
            raise ConfigError(
                f"lattice.grid_n={lat['grid_n']} must be >= 3*n_ref={3*gal['n_ref']} "
                "(dealiasing headroom)")
        gev = d["gevrey"]
        if gev["s"] <= 0 or gev["r"] < 0 or gev["phi_cap"] < 0:
            raise ConfigError("gevrey: s > 0, r >= 0, phi_cap >= 0 required")
        # the largest squared weight the stepper evaluates is the Gevrey-H^2
        # one, |k|^4 exp(2 phi |k|^(1/s)), at |k| = n_ref
        n_ref = gal["n_ref"]
        exponent = gev["phi_cap"] * n_ref ** (1.0 / gev["s"])
        if exponent > gev["exp_guard"]:
            raise ConfigError(
                f"gevrey.phi_cap={gev['phi_cap']}: exponent {exponent:.1f} at |k|=n_ref "
                f"exceeds gevrey.exp_guard={gev['exp_guard']}")
        log_weight = 2.0 * exponent + 4.0 * math.log(n_ref)
        if log_weight > _LOG_MAX_DOUBLE:
            raise ConfigError(
                f"gevrey.phi_cap={gev['phi_cap']}: the squared Gevrey weight at |k|=n_ref "
                f"is exp({log_weight:.1f}), beyond double range exp({_LOG_MAX_DOUBLE:g})")
        mon = d["monitors"]
        if mon["budget_m"] <= 1:
            raise ConfigError("monitors.budget_m must exceed 1")
        if mon["h2_r"] <= 0:
            raise ConfigError("monitors.h2_r must be positive")
        ini = d["initial"]
        if ini["beta"] <= 0 or ini["k0"] <= 0:
            raise ConfigError("initial.beta and initial.k0 must be positive")
        ens = d["ensemble"]
        if ens["n_paths"] < 1 or ens["workers"] < 1:
            raise ConfigError("ensemble.n_paths and ensemble.workers must be >= 1")
        out = d["outputs"]
        bad = set(out["formats"]) - {"csv", "json", "snapshot"}
        if bad:
            raise ConfigError(f"unknown output formats: {sorted(bad)}")
        if out["snapshot_stride"] < 1:
            raise ConfigError("outputs.snapshot_stride must be >= 1")
        if not 0 <= d["burn_in_frac"] < 1:
            raise ConfigError("burn_in_frac must lie in [0, 1)")
        if d["oracle"]["refinements"] < 1:
            raise ConfigError("oracle.refinements must be >= 1")
        self._validate_noise()

    def _validate_noise(self) -> None:
        noise = self.data["noise"]
        mult = noise["multiplicative"]
        if mult["variant"] not in ("zero", "linear", "additive"):
            raise ConfigError(f"unknown multiplicative variant {mult['variant']!r}")
        if mult["variant"] == "linear":
            if len(mult["coefficients"]) != len(mult["index_set"]):
                raise ConfigError("linear noise: coefficients and index_set lengths differ")
        if mult["variant"] == "additive":
            if not len(mult["amplitudes"]) == len(mult["modes"]) == len(mult["index_set"]):
                raise ConfigError("additive noise: amplitudes, modes, index_set lengths differ")
        tr = noise["transport"]
        if tr["variant"] != "constant":
            raise ConfigError(f"transport.variant must be 'constant' (transport coefficients "
                              f"are constant vectors), got {tr['variant']!r}")
        if "vectors" in tr:
            if len(tr["vectors"]) != len(tr["index_set"]):
                raise ConfigError("transport: vectors and index_set lengths differ")
        elif tr["count"] != len(tr["index_set"]):
            raise ConfigError("transport: count and index_set lengths differ")

    # -- builders -------------------------------------------------------------

    def build_lattice(self) -> WaveLattice:
        return build_lattice(self["lattice.dim"], self["lattice.grid_n"])

    def cutoff_lattice(self, cutoff: int) -> WaveLattice:
        """Lattice a Galerkin run at `cutoff` steps on: its minimal dealias
        grid, never finer than the reference grid `lattice.grid_n`."""
        return build_lattice(self["lattice.dim"],
                             min(self["lattice.grid_n"], galerkin_grid(cutoff)))

    def gevrey_weight(self, phi: float = 0.0) -> GevreyWeight:
        g = self.data["gevrey"]
        return GevreyWeight(s=g["s"], r=g["r"], phi=phi, exp_guard=g["exp_guard"])

    def build_noise_system(self, lattice: WaveLattice) -> NoiseSystem:
        noise = self.data["noise"]
        mult_cfg = noise["multiplicative"]
        if mult_cfg["variant"] == "zero":
            mult = MultiplicativeNoise.zero()
        elif mult_cfg["variant"] == "linear":
            mult = MultiplicativeNoise.linear(mult_cfg["coefficients"], mult_cfg["index_set"])
        else:
            sigmas = [solenoidal_mode_field(lattice, mode, amp)
                      for mode, amp in zip(mult_cfg["modes"], mult_cfg["amplitudes"])]
            mult = MultiplicativeNoise.additive(sigmas, mult_cfg["index_set"])
        tr_cfg = noise["transport"]
        if not tr_cfg["index_set"]:
            transport = TransportNoise.empty()
        elif "vectors" in tr_cfg:
            transport = TransportNoise.constant(tr_cfg["vectors"], tr_cfg["index_set"])
        else:
            transport = TransportNoise.default_family(
                self["lattice.dim"], tr_cfg["amplitude"], tr_cfg["count"], tr_cfg["index_set"])
        used = set(mult.index_set) | set(transport.index_set)
        n_wiener = (max(used) + 1) if used else 0
        return NoiseSystem(g=mult, xi=transport, n_wiener=n_wiener)

    def stepper_config(self, cutoff: int, convection: bool | None = None) -> StepperConfig:
        phy = self.data["physics"]
        return StepperConfig(
            nu=phy["nu"], dt=phy["dt"], t_end=phy["t_end"], cutoff=cutoff,
            gevrey=self.gevrey_weight(),
            phi_cap=self["gevrey.phi_cap"],
            budget_m=self["monitors.budget_m"],
            h2_r=self["monitors.h2_r"],
            convection=phy["convection"] if convection is None else convection,
            k0=self["initial.k0"],
        )

    def initial_field(self, lattice: WaveLattice) -> SpectralField:
        ini = self.data["initial"]
        return random_h1_field(lattice, seed=ini["seed"], beta=ini["beta"], k0=ini["k0"])

    def path_spec(self, path_index: int, n_wiener: int) -> PathSpec:
        return PathSpec(master_seed=self["ensemble.master_seed"],
                        path_index=path_index, n_processes=n_wiener)

    def burn_in_time(self) -> float:
        return self["burn_in_frac"] * self["physics.t_end"]


def default_oracle_config(**overrides) -> ExperimentConfig:
    """Preset for the linear-oracle command: convection off, g = 0, one constant xi."""
    base = {
        "lattice": {"dim": 2, "grid_n": 32},
        "physics": {"nu": 0.1, "t_end": 0.4, "dt": 0.005, "convection": False},
        "galerkin": {"cutoffs": [4], "n_ref": 8},
        "noise": {
            "multiplicative": {"variant": "zero"},
            "transport": {"variant": "constant", "vectors": [[0.8, 0.0]], "index_set": [0]},
        },
        "ensemble": {"n_paths": 16, "master_seed": 7, "workers": 1},
        "oracle": {"refinements": 3},
    }
    _deep_update(base, overrides or {})
    return ExperimentConfig.default(**base)


def default_decay_config(**overrides) -> ExperimentConfig:
    """Preset for the Galerkin decay study (common-path coupling)."""
    base = {
        "lattice": {"dim": 2, "grid_n": 200},
        "physics": {"nu": 0.1, "t_end": 0.4, "dt": 0.002},
        "galerkin": {"cutoffs": [8, 12, 16, 24, 32], "n_ref": 64},
        "ensemble": {"n_paths": 16, "master_seed": 31, "workers": 1},
        "monitors": {"budget_m": 10.0, "h2_r": 1.0e9},
    }
    _deep_update(base, overrides or {})
    return ExperimentConfig.default(**base)
