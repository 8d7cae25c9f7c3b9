import dataclasses
import json

import numpy as np
import pytest

from conftest import full_grid_k, full_spectrum, smooth_field, transport_system
from stochns.brownian import PathSpec, increments
from stochns.cli import main
from stochns.config import ConfigError, ExperimentConfig, default_oracle_config
from stochns.fields import pack_ball, random_h1_field
from stochns.sde import StepperConfig, initial_state, integrate
from stochns.snapshots import load_state, save_increments, save_state, sha256_file


def test_default_config_valid():
    cfg = ExperimentConfig.default()
    assert cfg["lattice.dim"] == 2
    assert cfg.sha256() == ExperimentConfig.default().sha256()


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.default(**{"lattice": {"grid_m": 64}})
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({**ExperimentConfig.default().data, "extra": 1})


@pytest.mark.parametrize("overrides,msg", [
    ({"lattice": {"grid_n": 15}}, "even"),
    ({"galerkin": {"cutoffs": [8, 16], "n_ref": 20}}, "2\\*max"),
    ({"lattice": {"grid_n": 64}}, "3\\*n_ref"),
    ({"physics": {"t_end": 0.0505}}, "multiple"),
    ({"monitors": {"budget_m": 0.5}}, "exceed 1"),
    ({"noise": {"multiplicative": {"variant": "weird"}}}, "variant"),
    ({"noise": {"transport": {"variant": "spectral"}}}, "transport.variant must be 'constant'"),
], ids=["odd-grid", "nref", "headroom", "dt-grid", "budget-m", "variant", "transport-variant"])
def test_validation_errors(overrides, msg):
    with pytest.raises(ConfigError, match=msg):
        ExperimentConfig.default(**overrides)


@pytest.mark.parametrize("drop,msg", [
    (("gevrey",), "at top level: \\['gevrey'\\]"),
    (("physics", "dt"), "section 'physics': \\['dt'\\]"),
    (("noise", "multiplicative", "coefficients"),
     "section 'noise.multiplicative': \\['coefficients'\\]"),
], ids=["section", "key", "variant-key"])
def test_missing_config_key_is_config_error(tmp_path, drop, msg):
    data = ExperimentConfig.default().data
    node = data
    for key in drop[:-1]:
        node = node[key]
    del node[drop[-1]]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=msg):
        ExperimentConfig.from_file(path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_phi_cap_beyond_double_range_rejected():
    # n_ref 32: 2 * 11 * 32 + 4 ln 32 = 717.9 > 709, although 11 * 32 < exp_guard
    with pytest.raises(ConfigError, match="double range"):
        ExperimentConfig.default(**{"gevrey": {"phi_cap": 11.0}})
    with pytest.raises(ConfigError, match="exp_guard"):
        ExperimentConfig.default(**{"gevrey": {"phi_cap": 2.0, "exp_guard": 50.0}})
    assert ExperimentConfig.default(**{"gevrey": {"phi_cap": 10.8}})["gevrey.phi_cap"] == 10.8


def test_cutoff_lattice_minimal_and_capped():
    cfg = ExperimentConfig.default(**{"lattice": {"grid_n": 96}})   # n_ref 32
    assert cfg.cutoff_lattice(8).grid_n == 28
    assert cfg.cutoff_lattice(16).grid_n == 50
    assert cfg.cutoff_lattice(32).grid_n == 96   # galerkin_grid(32) = 98 > grid_n
    assert cfg.cutoff_lattice(8).dim == 2


def test_config_hash_is_content_addressed(tmp_path):
    cfg = ExperimentConfig.default()
    other = cfg.with_overrides({"ensemble": {"n_paths": 3}})
    assert cfg.sha256() != other.sha256()
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg.data))
    assert ExperimentConfig.from_file(path).sha256() == cfg.sha256()


def test_oracle_preset_shape():
    cfg = default_oracle_config()
    assert cfg["physics.convection"] is False
    assert cfg["noise.multiplicative.variant"] == "zero"
    assert len(cfg["noise.transport.vectors"]) == 1


def test_builders_produce_consistent_objects():
    cfg = ExperimentConfig.default(**{
        "lattice": {"grid_n": 32}, "galerkin": {"cutoffs": [4], "n_ref": 8},
        "physics": {"t_end": 0.01, "dt": 0.001}})
    lattice = cfg.build_lattice()
    system = cfg.build_noise_system(lattice)
    assert system.n_wiener == 5
    assert set(system.g.index_set) == {0}
    assert set(system.xi.index_set) == {1, 2, 3, 4}
    scfg = cfg.stepper_config(8)
    assert scfg.cutoff == 8 and scfg.k0 == cfg["initial.k0"]
    u0 = cfg.initial_field(lattice)
    ksq = np.sum(full_grid_k(2, 32) ** 2, axis=0)
    assert abs(np.sum(np.abs(full_spectrum(u0)) ** 2 * ksq) - cfg["initial.k0"]) <= 1e-9


# ---------------------------------------------------------------------------
# snapshots

def _ball_state(lat, seed, cutoff=8):
    return initial_state(smooth_field(lat, seed=seed), StepperConfig(
        nu=0.05, dt=1e-3, t_end=0.01, cutoff=cutoff))


def test_field_round_trip(tmp_path, lat32):
    state = _ball_state(lat32, seed=1)
    save_state(tmp_path / "f", state, {"note": "test"})
    restored, meta = load_state(tmp_path / "f")
    assert np.array_equal(restored.u.coeffs, state.u.coeffs)
    assert restored.u.solenoidal and restored.lattice == lat32 and restored.cutoff == 8
    assert meta["note"] == "test" and meta["grid_n"] == 32 and meta["cutoff"] == 8


def test_state_round_trip(tmp_path, lat32):
    system = transport_system([np.array([0.5, 0.0])])
    cfg = StepperConfig(nu=0.05, dt=1e-3, t_end=0.01, cutoff=8, budget_m=1.01)
    traj = integrate(cfg, system, PathSpec(1, 0, 1),
                     random_h1_field(lat32, seed=2, k0=1.0))
    state = traj.final
    save_state(tmp_path / "s", state)
    restored, _ = load_state(tmp_path / "s")
    assert np.array_equal(restored.c, state.c)
    assert np.array_equal(restored.u.coeffs, state.u.coeffs)
    assert restored.t == state.t and restored.step == state.step
    assert restored.budget_sup == state.budget_sup
    assert restored.stops == state.stops


def test_full_grid_snapshot_rejected(tmp_path, lat32):
    state = _ball_state(lat32, seed=4)
    save_state(tmp_path / "new", state)
    meta = json.loads((tmp_path / "new.json").read_text())
    # snapshots in the earlier layouts: full-grid and half-spectrum coefficients
    for name, layout, coeffs in [
            ("full", "k-major complex128, axes (component, k1, ..., kd), numpy fft order",
             full_spectrum(state.u)),
            ("half", "Hermitian half spectrum, complex128, axes (component, k1, ..., kd); "
                     "k1..k(d-1) in numpy fft order, kd = 0..n/2 (rfftn layout)",
             state.u.coeffs)]:
        np.save(tmp_path / f"{name}.npy", coeffs)
        (tmp_path / f"{name}.json").write_text(json.dumps({**meta, "layout": layout}))
        with pytest.raises(ValueError, match="layout"):
            load_state(tmp_path / name)
    # the current layout name on a half-spectrum array, or on another cutoff's
    # ball, is refused by its shape
    for coeffs in (state.u.coeffs, pack_ball(state.u.coeffs, lat32, 7)):
        np.save(tmp_path / "new.npy", coeffs)
        with pytest.raises(ValueError, match="shape"):
            load_state(tmp_path / "new")


def test_snapshot_input_checks(tmp_path, lat32):
    state = _ball_state(lat32, seed=5)
    save_state(tmp_path / "s", state)
    meta = json.loads((tmp_path / "s.json").read_text())
    for key in ("cutoff", "grid_n", "budget_sup", "stops"):
        (tmp_path / "s.json").write_text(json.dumps({k: v for k, v in meta.items()
                                                     if k != key}))
        with pytest.raises(ValueError, match=f"lacks {key}"):
            load_state(tmp_path / "s")
    save_state(tmp_path / "s", state)
    np.save(tmp_path / "s.npy", state.c.real)
    with pytest.raises(ValueError, match="complex128"):
        load_state(tmp_path / "s")


def test_snapshot_bytes_deterministic(tmp_path, lat32):
    state = _ball_state(lat32, seed=3)
    save_state(tmp_path / "a", state, {"seed": 3})
    save_state(tmp_path / "b", state, {"seed": 3})
    assert sha256_file(tmp_path / "a.npy") == sha256_file(tmp_path / "b.npy")
    assert sha256_file(tmp_path / "a.json") == sha256_file(tmp_path / "b.json")
    assert np.load(tmp_path / "a.npy").shape == (2, int(lat32.ball_mask(8).sum()))


def test_snapshot_bytes_independent_of_memory_order(tmp_path, lat32):
    # one ball held C-ordered (a row of a path stack) and F-ordered (as a
    # single-path step used to leave it) saves to the same bytes
    state = _ball_state(lat32, seed=3)
    for name, c in (("c", np.ascontiguousarray(state.c)), ("f", np.asfortranarray(state.c))):
        save_state(tmp_path / name, dataclasses.replace(state, c=c), {"seed": 3})
    assert np.asfortranarray(state.c).flags.f_contiguous
    assert (tmp_path / "c.npy").read_bytes() == (tmp_path / "f.npy").read_bytes()
    assert np.array_equal(load_state(tmp_path / "f")[0].c, state.c)


def test_increment_dump(tmp_path):
    block = increments(PathSpec(9, 1, 3), 0.0, 0.01, 20)
    save_increments(tmp_path / "w", block)
    arr = np.load(tmp_path / "w.npy")
    assert np.array_equal(arr, block.increments)
    meta = json.loads((tmp_path / "w.json").read_text())
    assert meta["path_index"] == 1 and meta["n_processes"] == 3
