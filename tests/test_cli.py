import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochns import fields, noise, sde, studies
from stochns.brownian import PathSpec, increments
from stochns.cli import main
from stochns.config import ExperimentConfig, default_oracle_config
from stochns.fields import galerkin_project, sobolev_norm_sq
from stochns.lattice import build_lattice
from stochns.sde import dt_stability
from stochns.snapshots import sha256_file

TINY = {
    "schema_version": 1,
    "lattice": {"dim": 2, "grid_n": 16},
    "physics": {"nu": 0.05, "t_end": 0.05, "dt": 0.001, "convection": True},
    "gevrey": {"s": 1.0, "r": 1.0, "phi_cap": 0.5, "exp_guard": 650.0},
    "galerkin": {"cutoffs": [2], "n_ref": 5},
    "noise": {
        "multiplicative": {"variant": "linear", "coefficients": [0.1], "index_set": [0]},
        "transport": {"variant": "constant", "amplitude": 0.5, "count": 2,
                      "index_set": [1, 2]},
    },
    "initial": {"beta": 2.2, "k0": 1.0, "seed": 2024},
    "ensemble": {"n_paths": 2, "master_seed": 9001, "workers": 1},
    "monitors": {"budget_m": 2.0, "h2_r": 1.0e9},
    "outputs": {"directory": "out", "formats": ["csv", "json", "snapshot"],
                "snapshot_stride": 10, "dump_increments": False},
    "burn_in_frac": 0.1,
    "oracle": {"refinements": 2},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    data = json.loads(json.dumps(TINY))
    for key, block in (overrides or {}).items():
        if isinstance(block, dict):
            data[key].update(block)
        else:
            data[key] = block
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def data_files(out: Path):
    return sorted(p for p in out.iterdir() if p.name != "run_record.json")


def test_simulate_smoke_writes_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out1"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["command"] == "simulate"
    assert record["nonfinite_paths"] == []
    # every manifest entry checksums correctly
    for entry in record["manifest"]:
        assert sha256_file(out / entry["path"]) == entry["sha256"]
    assert (out / "spectra_path000.csv").exists()
    assert (out / "state_path001.npy").exists()
    # the step-size rule at n_ref, in decay-study's fields
    config = ExperimentConfig.from_file(cfg)
    _, system, u0 = studies.prepare(config)
    n_ref, dt = config["galerkin.n_ref"], config["physics.dt"]
    rule = dt_stability(config.stepper_config(n_ref), system,
                        sobolev_norm_sq(galerkin_project(u0, n_ref), 1.0))
    (margin,) = record["dt_stability"]
    assert margin["N"] == n_ref and margin["dt"] == dt
    assert margin["bound"] == pytest.approx(rule["bound"], rel=1e-12)
    assert margin["ratio"] == dt / margin["bound"]


def test_budget_opens_at_the_monitored_norm(tmp_path):
    # the default config's u0 (the sim2d start): row 0 of every budgets file
    # opens the budget sup at exactly the h1_sq the stepper reports at t = 0
    cfg = tmp_path / "config.json"
    cfg.write_text(ExperimentConfig.default(physics={"t_end": 0.002}).canonical_json())
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    budgets = sorted((tmp_path / "out").glob("budgets_path*.csv"))
    assert len(budgets) == 2
    for path in budgets:
        header, row0 = path.read_text().splitlines()[:2]
        values = dict(zip(header.split(","), map(float, row0.split(","))))
        assert values["t"] == 0.0 and values["budget_sup"] == values["h1_sq"]


def test_simulate_snapshot_holds_the_galerkin_ball(tmp_path):
    cfg = write_config(tmp_path, {"ensemble": {"n_paths": 1}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    n_ball = int(build_lattice(2, 16).ball_mask(5).sum())
    arr = np.load(out / "state_path000.npy")
    assert arr.dtype == np.complex128 and arr.shape == (2, n_ball)


def test_simulate_deterministic_across_runs_and_workers(tmp_path):
    cfg1 = write_config(tmp_path, {"ensemble": {"workers": 1, "n_paths": 3}}, "c1.json")
    cfg8 = write_config(tmp_path, {"ensemble": {"workers": 8, "n_paths": 3}}, "c8.json")
    outs = []
    for name, cfg in [("a", cfg1), ("b", cfg1), ("w", cfg8)]:
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    ref = {p.name: sha256_file(p) for p in data_files(outs[0])}
    for out in outs[1:]:
        got = {p.name: sha256_file(p) for p in data_files(out)}
        assert got == ref


# at n_ref 6, path 1 of master seed 9001 overflows at t=5 (step 20)
BLOW_UP = {
    "lattice": {"dim": 2, "grid_n": 20},
    "physics": {"nu": 1e-9, "t_end": 8.0, "dt": 0.25, "convection": True},
    "galerkin": {"cutoffs": [1, 2, 3], "n_ref": 6},
    "noise": {"multiplicative": {"variant": "linear", "coefficients": [0.5],
                                 "index_set": [0]}},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "decay-study"])
def test_identical_across_stack_sizes(tmp_path, command):
    # the blow-up config with linear noise 0.5: path 1 overflows at step 20
    # of 32 while paths 0 and 2 stay finite. Workers 1, 2 and 3 step one
    # stack of 3, stacks of 1 and 2, and three one-path stacks
    runs = []
    for workers in (1, 2, 3):
        cfg = write_config(tmp_path, {
            **BLOW_UP, "ensemble": {"n_paths": 3, "workers": workers, "master_seed": 9001}},
            f"w{workers}.json")
        out = tmp_path / f"w{workers}"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
        record = json.loads((out / "run_record.json").read_text())
        assert record["nonfinite_paths"] == [1]
        runs.append(({p.name: p.read_bytes() for p in data_files(out)}, record.get("paths")))
    assert runs[0] == runs[1] == runs[2]
    files, paths = runs[0]
    if command == "decay-study":
        rows = files["decay_paths.csv"].decode().splitlines()[1:]
        assert sorted({row.split(",")[0] for row in rows}) == ["0", "2"]
        return
    assert "state_path001.npy" not in files and "state_path002.npy" in files
    assert paths["1"]["nonfinite"] == ("non-finite l2_sq, h1_sq, h2_sq, gevrey_h1_sq, "
                                       "gevrey_h2_sq at t=5 (step 20, dt=0.25)")
    # the partial budgets of path 1: its start and 19 finite steps
    assert len(files["budgets_path001.csv"].decode().splitlines()) == 1 + 20
    assert len(files["budgets_path002.csv"].decode().splitlines()) == 1 + 33


def test_exceedance_identical_across_stack_sizes():
    # 5 paths as one stack and as stacks of 1, 2 and 2
    fractions = []
    for workers in (1, 3):
        data = json.loads(json.dumps(TINY))
        data["physics"].update({"t_end": 0.2, "dt": 0.004})
        data["monitors"]["budget_m"] = 1.01
        data["ensemble"] = {"n_paths": 5, "workers": workers, "master_seed": 13}
        result = studies.budget_exceedance(ExperimentConfig(data), cutoffs=[2, 3, 5],
                                           horizons=[0.2, 0.1, 0.05])
        fractions.append(result.fractions)
    assert fractions[0] == fractions[1]
    assert 0.0 < fractions[0][(5, 0.2)] < 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("budget_m, stopped_by_4_75", [(1e300, 0.0), (1e6, 1 / 3)])
def test_exceedance_counts_nonfinite_paths(budget_m, stopped_by_4_75):
    # path 1 exceeds from t=5, where it turns non-finite, unless its budget
    # stop comes first (budget_m 1e6); paths 0 and 2 never exceed
    data = json.loads(json.dumps(TINY))
    for key, block in BLOW_UP.items():
        data[key].update(block)
    data["ensemble"] = {"n_paths": 3, "workers": 1, "master_seed": 9001}
    data["monitors"]["budget_m"] = budget_m
    result = studies.budget_exceedance(ExperimentConfig(data), cutoffs=[6],
                                       horizons=[8.0, 5.0, 4.75])
    assert result.nonfinite == {6: [1]}
    assert result.fractions == {(6, 8.0): 1 / 3, (6, 5.0): 1 / 3, (6, 4.75): stopped_by_4_75}


def test_cli_imports_no_scipy():
    # scipy.special alone costs about a quarter second of every start-up
    src = str(Path(studies.__file__).resolve().parents[1])
    code = ("import sys, stochns.cli, stochns.studies; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def test_noise_off_paths_identical(tmp_path):
    # zero diffusion: every path follows the same deterministic trajectory
    cfg = write_config(tmp_path, {
        "noise": {
            "multiplicative": {"variant": "zero", "coefficients": [], "index_set": []},
            "transport": {"variant": "constant", "amplitude": 0.0, "count": 0,
                          "index_set": []},
        }})
    out = tmp_path / "out_off"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    a = (out / "budgets_path000.csv").read_bytes()
    b = (out / "budgets_path001.csv").read_bytes()
    assert a == b


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, "lattice": {"dim": 2, "grid_n": 15}}))
    assert main(["simulate", "--config", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing)]) == 2


def test_invariants_command_pass_and_fail(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "inv"
    assert main(["invariants", "--config", str(cfg), "--out", str(out)]) == 0
    assert "all invariant checks passed" in capsys.readouterr().out
    # deliberately overlapping Wiener index sets: orthogonality violation
    overlap = write_config(tmp_path, {
        "noise": {
            "multiplicative": {"variant": "additive", "amplitudes": [0.4],
                               "modes": [[1, 0]], "index_set": [0]},
            "transport": {"variant": "constant", "amplitude": 0.5, "count": 1,
                          "index_set": [0]},
        }}, "overlap.json")
    out2 = tmp_path / "inv2"
    assert main(["invariants", "--config", str(overlap), "--out", str(out2)]) == 3
    table = (out2 / "invariants.csv").read_text()
    assert "noise_orthogonality" in table and "FAIL" in table


def test_overlapping_index_sets_refused(tmp_path, capsys):
    # g = 0 on the shared index makes every sampled cross inner product
    # vanish, so only the index sets themselves show the overlap
    data = json.loads(json.dumps(ExperimentConfig.default().data))
    data["noise"]["multiplicative"] = {"variant": "linear", "coefficients": [0.0],
                                       "index_set": [1]}
    assert data["noise"]["transport"]["index_set"] == [1, 2, 3, 4]
    cfg = tmp_path / "overlap.json"
    cfg.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "must be disjoint" in capsys.readouterr().err


@pytest.mark.parametrize("multiplicative", [
    TINY["noise"]["multiplicative"],
    {"variant": "additive", "amplitudes": [0.4], "modes": [[1, 0]], "index_set": [0]},
    {"variant": "zero", "coefficients": [], "index_set": []},
], ids=["linear", "additive", "zero"])
def test_prepare_draws_no_random_field(tmp_path, monkeypatch, multiplicative):
    # the noise gate is decided in closed form; the one random field of a
    # run's setup is the initial field, drawn here before the draws are refused
    config = ExperimentConfig.from_file(
        write_config(tmp_path, {"noise": {"multiplicative": multiplicative}}))
    u0 = config.initial_field(config.build_lattice())

    def refuse(*args, **kwargs):
        raise AssertionError("setup drew random numbers")

    monkeypatch.setattr(ExperimentConfig, "initial_field", lambda self, lattice: u0)
    monkeypatch.setattr(noise, "random_field", refuse)
    monkeypatch.setattr(fields, "random_field", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    _, system, u = studies.prepare(config)
    assert system.validated and u is u0


def test_linear_oracle_refuses_convection(tmp_path):
    cfg = write_config(tmp_path, {
        "physics": {"convection": True},
        "noise": {
            "multiplicative": {"variant": "zero", "coefficients": [], "index_set": []},
            "transport": {"variant": "constant", "vectors": [[0.8, 0.0]],
                          "index_set": [0], "amplitude": 0.0, "count": 1},
        }})
    assert main(["linear-oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_linear_oracle_zero_xi_machine_precision(tmp_path):
    cfg = write_config(tmp_path, {
        "physics": {"convection": False},
        "noise": {
            "multiplicative": {"variant": "zero", "coefficients": [], "index_set": []},
            "transport": {"variant": "constant", "vectors": [[0.0, 0.0]],
                          "index_set": [0], "amplitude": 0.0, "count": 1},
        },
        "ensemble": {"n_paths": 2, "workers": 1, "master_seed": 9001},
        "oracle": {"refinements": 1}})
    out = tmp_path / "oz"
    assert main(["linear-oracle", "--config", str(cfg), "--out", str(out)]) == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["machine_precision"] is True


def _oracle_config_file(tmp_path, name, **overrides):
    data = default_oracle_config(**overrides).data
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


def test_linear_oracle_identical_across_chunkings(tmp_path, monkeypatch):
    # 5 paths, 2 dt levels: chunks of one path, of two (uneven), and the
    # default, on 1 and on 3 workers
    path_bytes = 16 * 2 * int(build_lattice(2, 32).ball_mask(8).sum())
    default = studies._ORACLE_CHUNK_BYTES
    outputs = []
    for workers in (1, 3):
        cfg = _oracle_config_file(tmp_path, f"oracle{workers}", physics={"t_end": 0.1},
                                  ensemble={"n_paths": 5, "workers": workers},
                                  oracle={"refinements": 1})
        for budget in (1, 2 * path_bytes, default):
            monkeypatch.setattr(studies, "_ORACLE_CHUNK_BYTES", budget)
            out = tmp_path / f"w{workers}chunk{budget}"
            assert main(["linear-oracle", "--config", str(cfg), "--out", str(out)]) == 0
            assert json.loads((out / "run_record.json").read_text())["nonfinite_paths"] == []
            outputs.append((out / "oracle.csv").read_bytes())
    assert len(outputs) == 6 and len(set(outputs)) == 1


def test_every_command_steps_through_advance(monkeypatch):
    # one step loop: every command's stacks step through sde._advance, also
    # where studies calls it under its imported name
    advance = sde._advance
    calls = []

    def counted(stack, stepper, dw):
        calls.append(1)
        return advance(stack, stepper, dw)

    monkeypatch.setattr(sde, "_advance", counted)
    for name in [name for name, value in vars(studies).items() if value is advance]:
        monkeypatch.setattr(studies, name, counted)

    data = json.loads(json.dumps(TINY))
    data["physics"]["t_end"] = 0.01
    data["galerkin"]["cutoffs"] = [2, 3, 4]
    config = ExperimentConfig(data)
    oracle = default_oracle_config(physics={"t_end": 0.1}, oracle={"refinements": 2},
                                   ensemble={"n_paths": 3, "workers": 2})
    n_oracle = round(0.1 / oracle["physics.dt"])
    # 10 steps per stack; one chunk per run but the oracle's two (one per
    # worker), each stepping its dt levels of n, 2n and 4n steps
    runs = {"simulate": (lambda: studies.simulate(config), 10),
            "decay_study": (lambda: studies.decay_study(config), 4 * 10),
            "budget_exceedance": (lambda: studies.budget_exceedance(config, [2, 3],
                                                                    [0.01, 0.005]), 2 * 10),
            "linear_oracle_study": (lambda: studies.linear_oracle_study(oracle),
                                    2 * (1 + 2 + 4) * n_oracle)}
    for name, (run, expected) in runs.items():
        calls.clear()
        run()
        assert len(calls) == expected, name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_linear_oracle_nonfinite_paths_exit_4(tmp_path, capsys):
    # |xi| = 40: the explicit step amplifies the k_1 != 0 modes every step,
    # and every path overflows at step 65
    cfg = _oracle_config_file(tmp_path, "blow", ensemble={"n_paths": 2},
                              oracle={"refinements": 1},
                              noise={"transport": {"vectors": [[40.0, 0.0]]}})
    out = tmp_path / "blow"
    assert main(["linear-oracle", "--config", str(cfg), "--out", str(out)]) == 4
    record = json.loads((out / "run_record.json").read_text())
    assert record["nonfinite_paths"] == [0, 1]
    assert record["strong_slope"] is None
    assert (out / "oracle.csv").read_text() == "dt,strong_error,modulus_error\n"
    assert "path 1 aborted (non-finite" in capsys.readouterr().err


def test_decay_study_smoke(tmp_path):
    cfg = write_config(tmp_path, {
        "lattice": {"grid_n": 32},
        "galerkin": {"cutoffs": [2, 3, 4], "n_ref": 8},
        "physics": {"t_end": 0.03, "dt": 0.001, "nu": 0.05, "convection": True},
        "ensemble": {"n_paths": 2, "workers": 1, "master_seed": 9001}})
    out = tmp_path / "dec"
    assert main(["decay-study", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "decay.csv").read_text().splitlines()
    assert lines[0] == "N,mean_error,SE"
    assert len(lines) == 4
    errs = [float(l.split(",")[1]) for l in lines[1:]]
    assert errs[0] > errs[-1]


def test_decay_study_records_dt_stability(tmp_path):
    # dt 0.025 is above the step-size rule at N 8, so the ratio exceeds 1 there
    cfg = write_config(tmp_path, {
        "lattice": {"grid_n": 32},
        "galerkin": {"cutoffs": [2, 3, 4], "n_ref": 8},
        "physics": {"t_end": 0.05, "dt": 0.025, "nu": 0.05, "convection": True},
        "ensemble": {"n_paths": 2, "workers": 1, "master_seed": 9001}})
    out = tmp_path / "dec"
    assert main(["decay-study", "--config", str(cfg), "--out", str(out)]) == 0
    margins = json.loads((out / "run_record.json").read_text())["dt_stability"]
    assert [m["N"] for m in margins] == [2, 3, 4, 8]
    config = ExperimentConfig.from_file(cfg)
    _, system, u0 = studies.prepare(config)
    for m in margins:
        h1_sq = sobolev_norm_sq(galerkin_project(u0, m["N"]), 1.0)
        bound = dt_stability(config.stepper_config(m["N"]), system, h1_sq)["bound"]
        assert m["dt"] == 0.025
        assert m["bound"] == pytest.approx(bound, rel=1e-12)
        assert m["ratio"] == m["dt"] / m["bound"]
    ratios = [m["ratio"] for m in margins]   # the bound shrinks as N grows
    assert ratios == sorted(ratios) and ratios[-1] > 1.0


def test_decay_study_additive_noise_smoke(tmp_path):
    # the sigma field at k = (2, 1) is built on the reference lattice and
    # carried onto each cutoff's grid; it lies outside the N = 2 ball
    cfg = write_config(tmp_path, {
        "lattice": {"grid_n": 32},
        "galerkin": {"cutoffs": [2, 3, 4], "n_ref": 8},
        "physics": {"t_end": 0.03, "dt": 0.001, "nu": 0.05, "convection": True},
        "noise": {
            "multiplicative": {"variant": "additive", "amplitudes": [0.5],
                               "modes": [[2, 1]], "index_set": [0]},
            "transport": {"variant": "constant", "amplitude": 0.5, "count": 2,
                          "index_set": [1, 2]},
        },
        "ensemble": {"n_paths": 2, "workers": 1, "master_seed": 9001}}, "additive.json")
    out = tmp_path / "add"
    assert main(["decay-study", "--config", str(cfg), "--out", str(out)]) == 0
    errs = [float(l.split(",")[1]) for l in (out / "decay.csv").read_text().splitlines()[1:]]
    assert len(errs) == 3 and all(np.isfinite(errs)) and errs[0] > errs[-1]


def test_decay_study_identical_across_workers(tmp_path):
    # the steppers and start states are shared by the worker threads
    manifests = []
    for workers in (1, 4):
        cfg = write_config(tmp_path, {
            "lattice": {"grid_n": 32},
            "galerkin": {"cutoffs": [2, 3, 4], "n_ref": 8},
            "physics": {"t_end": 0.02, "dt": 0.001, "nu": 0.05, "convection": True},
            "ensemble": {"n_paths": 6, "workers": workers, "master_seed": 9001}},
            f"w{workers}.json")
        out = tmp_path / f"w{workers}"
        assert main(["decay-study", "--config", str(cfg), "--out", str(out)]) == 0
        manifests.append({p.name: sha256_file(p) for p in data_files(out)})
    assert manifests[0] == manifests[1] and len(manifests[0]) == 2


def test_flag_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "ovr"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--paths", "1", "--seed", "123"]) == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["config"]["ensemble"]["n_paths"] == 1
    assert record["config"]["ensemble"]["master_seed"] == 123
    assert not (out / "budgets_path001.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_path_recorded_exit_4(tmp_path):
    cfg = write_config(tmp_path, {
        "physics": {"nu": 1e-9, "t_end": 40.0, "dt": 1.0, "convection": True},
        "initial": {"beta": 2.2, "k0": 4.0, "seed": 2024},
        "noise": {
            "multiplicative": {"variant": "zero", "coefficients": [], "index_set": []},
            "transport": {"variant": "constant", "amplitude": 0.0, "count": 0,
                          "index_set": []},
        },
        "ensemble": {"n_paths": 1, "workers": 1, "master_seed": 9001}}, "blow.json")
    out = tmp_path / "blow"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 4
    record = json.loads((out / "run_record.json").read_text())
    assert record["nonfinite_paths"] == [0]
    assert record["paths"]["0"]["nonfinite"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decay_study_all_paths_nonfinite_exit_4(tmp_path):
    # the blow-up above on a decay grid: both paths overflow, so there is no
    # mean to take and no fit; the data files keep only their headers
    cfg = write_config(tmp_path, {
        "lattice": {"dim": 2, "grid_n": 20},
        "galerkin": {"cutoffs": [1, 2, 3], "n_ref": 6},
        "physics": {"nu": 1e-9, "t_end": 40.0, "dt": 1.0, "convection": True},
        "initial": {"beta": 2.2, "k0": 4.0, "seed": 2024},
        "noise": {
            "multiplicative": {"variant": "zero", "coefficients": [], "index_set": []},
            "transport": {"variant": "constant", "amplitude": 0.0, "count": 0,
                          "index_set": []},
        },
        "ensemble": {"n_paths": 2, "workers": 1, "master_seed": 9001}}, "blow.json")
    out = tmp_path / "blow"
    assert main(["decay-study", "--config", str(cfg), "--out", str(out)]) == 4
    record = json.loads((out / "run_record.json").read_text())
    assert record["nonfinite_paths"] == [0, 1]
    assert record["fit"] is None
    assert (out / "decay.csv").read_text() == "N,mean_error,SE\n"
    assert (out / "decay_paths.csv").read_text() == "path,N,error_sq,stop_time,ref_tail_sq\n"


def test_increment_dump_requested(tmp_path):
    cfg = write_config(tmp_path, {
        "outputs": {"directory": "out", "formats": ["csv", "json"],
                    "snapshot_stride": 10, "dump_increments": True}}, "dump.json")
    out = tmp_path / "dump"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    arr = np.load(out / "increments_path000.npy")
    assert arr.shape == (50, 3)
    # each dump is the base Wiener stream of its path: seed 9001, 1 + 2 processes
    for i in range(2):
        dumped = np.load(out / f"increments_path{i:03d}.npy")
        expected = increments(PathSpec(9001, i, 3), 0.0, 0.001, 50).increments
        assert dumped.dtype == expected.dtype and dumped.tobytes() == expected.tobytes()
    record = json.loads((out / "run_record.json").read_text())
    names = {m["path"] for m in record["manifest"]}
    assert "increments_path000.npy" in names


def test_decay_study_r_zero_stops_first_step(tmp_path):
    cfg = write_config(tmp_path, {
        "lattice": {"grid_n": 32},
        "galerkin": {"cutoffs": [2, 3, 4], "n_ref": 8},
        "physics": {"t_end": 0.02, "dt": 0.001, "nu": 0.05, "convection": True},
        "monitors": {"budget_m": 2.0, "h2_r": 1e-12},
        "ensemble": {"n_paths": 2, "workers": 1, "master_seed": 9001}}, "rzero.json")
    out = tmp_path / "rzero"
    assert main(["decay-study", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "decay_paths.csv").read_text().splitlines()[1:]
    stop_times = {float(r.split(",")[3]) for r in rows}
    assert stop_times == {0.001}
