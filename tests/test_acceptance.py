"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Everything is pinned here:
configurations, tolerances, and the calibrated dt-bias constant of the
transport-energy identity (criterion 3). The whole suite is desk scale.
"""

import json
import math

import numpy as np
import pytest

from conftest import smooth_field, state_field
from stochns.brownian import PathSpec
from stochns.cli import main
from stochns.config import ExperimentConfig, default_decay_config, default_oracle_config
from stochns.diagnostics import check_cancellation, check_convective_bounds
from stochns.fields import (GevreyWeight, galerkin_complement, galerkin_project,
                            gevrey_apply, random_field, random_h1_field,
                            sobolev_norm, sobolev_norm_sq, stokes_power,
                            validate_physical, weighted_inner)
from stochns.lattice import build_lattice
from stochns.sde import initial_state, integrate, integrate_paths
from stochns.snapshots import sha256_file
from stochns import studies


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}" + (f" -- {detail}" if detail else ""), flush=True)
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. corrector/quadratic-variation cancellation

def test_c01_cancellation_identity():
    worst = 0.0
    for grid in (16, 32):
        lat = build_lattice(2, grid)
        u = smooth_field(lat, seed=grid + 1)
        for r in (0.0, 0.5, 1.0):
            for phi in (0.0, 0.1, 0.3):
                res = check_cancellation(np.array([0.7, -0.2]), u,
                                         GevreyWeight(s=1.0, r=1.0, phi=phi), r)
                worst = max(worst, res)
    report("criterion 1: cancellation residual <= 1e-12 over r, phi, grids",
           worst <= 1e-12, f"worst residual {worst:.3e}")


# ---------------------------------------------------------------------------
# 2. linear oracle strong convergence

@pytest.fixture(scope="module")
def oracle_result():
    return studies.linear_oracle_study(default_oracle_config())


def test_c02_linear_oracle_strong_order(oracle_result):
    r = oracle_result
    ok = (0.4 <= r.strong_slope <= 1.1) and r.strong_errors[0] > r.strong_errors[-1]
    report("criterion 2a: strong error log-log slope in [0.4, 1.1], decreasing",
           ok, f"slope {r.strong_slope:.3f}, errors {r.strong_errors[0]:.2e} -> "
               f"{r.strong_errors[-1]:.2e}")


def test_c02_linear_oracle_modulus(oracle_result):
    r = oracle_result
    ratio = r.modulus_errors[0] / r.modulus_errors[-1]
    predicted = (r.dts[0] / r.dts[-1]) ** r.modulus_slope
    ok = (0.4 <= r.modulus_slope <= 1.1) and ratio >= predicted / 2.5
    report("criterion 2b: per-mode modulus converges to heat decay at fitted order",
           ok, f"slope {r.modulus_slope:.3f}, reduction x{ratio:.2f} "
               f"(order-consistent x{predicted:.2f})")


# ---------------------------------------------------------------------------
# 3. transport-noise energy identity

def test_c03_transport_energy_identity():
    cfg = ExperimentConfig.default(**{
        "lattice": {"grid_n": 50},
        "physics": {"nu": 0.05, "t_end": 0.25, "dt": 0.001},
        "galerkin": {"cutoffs": [8], "n_ref": 16},
        "noise": {
            "multiplicative": {"variant": "zero", "coefficients": [], "index_set": []},
            "transport": {"variant": "constant", "amplitude": 1.0, "count": 4,
                          "index_set": [0, 1, 2, 3]},
        },
        "ensemble": {"n_paths": 32, "master_seed": 77, "workers": 2},
    })
    lattice, system, u0 = studies.prepare(cfg)
    scfg = cfg.stepper_config(16)
    vals = []
    paths = [cfg.path_spec(p, system.n_wiener) for p in range(32)]
    for traj in integrate_paths(scfg, system, paths, u0, store_every=10 ** 9,
                                check_stability=False):
        assert traj.nonfinite is None, traj.nonfinite
        s = traj.series
        vals.append(s["l2_sq"][-1] + 2 * scfg.nu * scfg.dt * np.sum(s["h1_sq"][:-1]))
        e0 = s["l2_sq"][0]
    mean, se = float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    c_bias = 5.0 * e0  # calibrated: measured defect rate ~1.3*E0 per unit time
    bound = 3 * se + c_bias * scfg.dt
    defect = abs(mean - e0)
    report("criterion 3: mean[||u(T)||^2 + 2 nu int ||u||_H1^2] = ||u0||^2 "
           "within 3 SE + c dt",
           defect <= bound, f"defect {defect:.3e} <= {bound:.3e} (3SE={3*se:.3e})")


# ---------------------------------------------------------------------------
# 4. structural identities at 1e-12

def test_c04_structural_identities():
    lat = build_lattice(2, 32)
    rng = np.random.default_rng(9)
    f = random_field(lat, rng, envelope=lambda k: k ** -1.5)
    g = random_field(lat, rng, envelope=lambda k: k ** -1.5)
    failures = []

    from stochns.fields import leray_project
    p1 = leray_project(f)
    if sobolev_norm(leray_project(p1) - p1, 0.0) > 1e-12 * sobolev_norm(p1, 0.0):
        failures.append("leray idempotence")

    w = GevreyWeight(s=1.0, r=0.0, phi=0.1)
    a = galerkin_project(stokes_power(gevrey_apply(p1, w), 0.5), 6)
    b = gevrey_apply(stokes_power(galerkin_project(p1, 6), 0.5), w)
    if sobolev_norm(a - b, 0.0) > 1e-12 * max(sobolev_norm(b, 0.0), 1e-30):
        failures.append("P/A^r/Gevrey commutation")

    for n in (2, 4, 8):
        for r in (0.0, 0.5, 1.0, 1.5, 2.0):
            for s in (r, min(r + 0.5, 2.0), 2.0):
                pn, qn = galerkin_project(f, n), galerkin_complement(f, n)
                if sobolev_norm_sq(pn, s) > n ** (2 * (s - r)) * sobolev_norm_sq(pn, r):
                    failures.append(f"mode trading P (n={n}, r={r}, s={s})")
                if sobolev_norm_sq(qn, r) > float(n) ** (2 * (r - s)) * sobolev_norm_sq(qn, s):
                    failures.append(f"mode trading Q (n={n}, r={r}, s={s})")
                if sobolev_norm_sq(pn, r) > sobolev_norm_sq(f, r):
                    failures.append("continuity P")
                if sobolev_norm_sq(qn, r) > sobolev_norm_sq(f, r):
                    failures.append("continuity Q")

    if abs(weighted_inner(galerkin_project(f, 7), galerkin_complement(g, 7),
                          r=1.0, w=w)) > 1e-12 * sobolev_norm_sq(f, 1.0):
        failures.append("P/Q orthogonality")

    f_n = galerkin_project(f, 10)
    f_m = galerkin_project(g, 4)
    lhs = sobolev_norm_sq(f_n - f_m, 1.0)
    rhs = (sobolev_norm_sq(galerkin_complement(f_n, 4), 1.0)
           + sobolev_norm_sq(galerkin_project(f_n, 4) - f_m, 1.0))
    if abs(lhs - rhs) > 1e-12 * max(lhs, 1e-30):
        failures.append("projection identity")

    # mean-free/div-free preservation per integrator step
    from conftest import transport_system
    from stochns.sde import StepperConfig
    system = transport_system([np.array([0.5, 0.1])], g_coeffs=[0.1])
    cfg = StepperConfig(nu=0.05, dt=1e-3, t_end=0.005, cutoff=8)
    traj = integrate(cfg, system, PathSpec(3, 0, 2), random_h1_field(lat, seed=10, k0=1.0))
    for i, state in enumerate(traj.states[1:]):
        u = state_field(state)
        rep = validate_physical(u)
        scale = max(np.abs(u.coeffs).max(), 1e-30)
        if rep.divergence_residual > 1e-12 * scale or rep.mean_residual > 1e-12 * scale:
            failures.append(f"step invariants at step {i}")

    report("criterion 4: structural identities exact to 1e-12",
           not failures, "; ".join(failures) or "all identities hold")


# ---------------------------------------------------------------------------
# 5. deterministic 2D enstrophy decay

def test_c05_enstrophy_decay():
    cfg = ExperimentConfig.default(**{
        "lattice": {"grid_n": 64},
        "physics": {"nu": 0.05, "t_end": 1.0, "dt": 0.0005},
        "galerkin": {"cutoffs": [8], "n_ref": 21},
        "noise": {
            "multiplicative": {"variant": "zero", "coefficients": [], "index_set": []},
            "transport": {"variant": "constant", "amplitude": 0.0, "count": 0,
                          "index_set": []},
        },
        "ensemble": {"n_paths": 1, "master_seed": 1},
    })
    lattice, system, u0 = studies.prepare(cfg)
    traj = integrate(cfg.stepper_config(21), system, cfg.path_spec(0, 0), u0,
                     store_every=10 ** 9)
    h1 = traj.series["h1_sq"]
    ratios = h1[1:] / h1[:-1]
    worst = float(ratios.max())
    report("criterion 5: noise-off enstrophy nonincreasing (1e-6 per-step slack, T=1)",
           worst <= 1.0 + 1e-6,
           f"worst per-step ratio 1 + {worst - 1:.2e}, H1^2 {h1[0]:.3f} -> {h1[-1]:.3f}")


# ---------------------------------------------------------------------------
# 6. instantaneous smoothing

def _smoothing_config(transport_on: bool):
    noise = ({"multiplicative": {"variant": "zero", "coefficients": [], "index_set": []},
              "transport": {"variant": "constant", "amplitude": 0.8, "count": 4,
                            "index_set": [0, 1, 2, 3]}}
             if transport_on else
             {"multiplicative": {"variant": "zero", "coefficients": [], "index_set": []},
              "transport": {"variant": "constant", "amplitude": 0.0, "count": 0,
                            "index_set": []}})
    return ExperimentConfig.default(**{
        "lattice": {"grid_n": 64},
        "physics": {"nu": 0.05, "t_end": 0.5, "dt": 0.001},
        "galerkin": {"cutoffs": [8], "n_ref": 21},
        "noise": noise,
        "initial": {"beta": 2.2, "k0": 1.0, "seed": 42},
        "ensemble": {"n_paths": 1, "master_seed": 5},
        "outputs": {"snapshot_stride": 25},
    })


@pytest.mark.parametrize("transport_on", [False, True], ids=["noise-off", "transport"])
def test_c06_instantaneous_smoothing(transport_on):
    res = studies.simulate(_smoothing_config(transport_on))
    fits = res.paths[0].radius_fits
    assert len(fits) >= 5
    deltas = np.array([fit.decay_rate for _, fit in fits])
    r2s = np.array([fit.r_squared for _, fit in fits])
    positive = bool(np.all(deltas > 0))
    good_fit = bool(np.all(r2s >= 0.9))
    monotone = bool(np.all(np.diff(deltas) >= -0.05))
    label = "transport" if transport_on else "noise-off"
    report(f"criterion 6 ({label}): radius positive, R^2 >= 0.9, nondecreasing",
           positive and good_fit and monotone,
           f"delta {deltas[0]:.3f} -> {deltas[-1]:.3f}, min R^2 {r2s.min():.3f}")


# ---------------------------------------------------------------------------
# 7. Galerkin truncation-error decay

@pytest.fixture(scope="module")
def decay_result():
    cfg = default_decay_config(**{"monitors": {"budget_m": 10.0, "h2_r": 50.0},
                                  "ensemble": {"workers": 2}})
    return studies.decay_study(cfg)


def test_c07_galerkin_decay(decay_result):
    r = decay_result
    strictly_decreasing = all(a > b for a, b in zip(r.mean_errors, r.mean_errors[1:]))
    ok = (strictly_decreasing and r.fit is not None
          and r.fit.decay_rate > 0 and r.fit.r_squared >= 0.9)
    detail = (f"mean sq errors {['%.2e' % e for e in r.mean_errors]}, "
              f"rate {r.fit.decay_rate:.3f}, R^2 {r.fit.r_squared:.3f}"
              if r.fit else "fit refused")
    report("criterion 7: truncation error strictly decreasing, rate > 0, R^2 >= 0.9",
           ok, detail)


def test_c07_reference_headroom(decay_result):
    # the reference's own tail is subdominant to the largest-N error
    tails = [o.ref_tail_sq for o in decay_result.outcomes if not o.nonfinite]
    top_errors = [o.errors_sq[max(decay_result.cutoffs)]
                  for o in decay_result.outcomes if not o.nonfinite]
    ok = np.mean(tails) < np.mean(top_errors)
    report("criterion 7 (supporting): reference tail below finest-cutoff error",
           bool(ok), f"ref tail {np.mean(tails):.2e} vs N=32 error {np.mean(top_errors):.2e}")


# ---------------------------------------------------------------------------
# 8. convective-estimate ratio stability

def test_c08_convective_ratio_stability():
    w = GevreyWeight(s=1.0, r=1.0, phi=0.1)
    r16 = check_convective_bounds(build_lattice(2, 16), 100, w, seed=3)
    r32 = check_convective_bounds(build_lattice(2, 32), 100, w, seed=3)
    rel_tri = abs(r32.gevrey_trilinear - r16.gevrey_trilinear) / r16.gevrey_trilinear
    rel_alg = abs(r32.product_algebra - r16.product_algebra) / r16.product_algebra
    finite = all(np.isfinite(v) and v > 0 for v in
                 (r16.gevrey_trilinear, r32.gevrey_trilinear,
                  r16.product_algebra, r32.product_algebra))
    report("criterion 8: max LHS/RHS ratios finite, change <= 20% between grids 16/32",
           finite and rel_tri <= 0.2 and rel_alg <= 0.2,
           f"trilinear {r16.gevrey_trilinear:.3f}->{r32.gevrey_trilinear:.3f} "
           f"({100*rel_tri:.1f}%), algebra {r16.product_algebra:.3f}->"
           f"{r32.product_algebra:.3f} ({100*rel_alg:.1f}%)")


# ---------------------------------------------------------------------------
# 9. byte-identical determinism across runs and worker counts

def test_c09_determinism(tmp_path):
    base = {
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
        "ensemble": {"n_paths": 4, "master_seed": 9001, "workers": 1},
        "monitors": {"budget_m": 2.0, "h2_r": 1.0e9},
        "outputs": {"directory": "out", "formats": ["csv", "json", "snapshot"],
                    "snapshot_stride": 10, "dump_increments": False},
        "burn_in_frac": 0.1,
        "oracle": {"refinements": 2},
    }
    manifests = []
    for name, workers in [("run1", 1), ("run2", 1), ("run8", 8)]:
        cfg = dict(base)
        cfg["ensemble"] = {**base["ensemble"], "workers": workers}
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifests.append({p.name: sha256_file(p) for p in sorted(out.iterdir())
                          if p.name != "run_record.json"})
    identical = manifests[0] == manifests[1] == manifests[2]
    report("criterion 9: byte-identical outputs across reruns and 1 vs 8 workers",
           identical, f"{len(manifests[0])} data files compared")


# ---------------------------------------------------------------------------
# 10. budget-monitor semantics

@pytest.fixture(scope="module")
def exceedance_result():
    cfg = ExperimentConfig.default(**{
        "lattice": {"grid_n": 100},
        "physics": {"nu": 0.05, "t_end": 0.2, "dt": 0.001},
        "galerkin": {"cutoffs": [8, 16], "n_ref": 32},
        "noise": {
            "multiplicative": {"variant": "linear", "coefficients": [0.2], "index_set": [0]},
            "transport": {"variant": "constant", "amplitude": 0.5, "count": 4,
                          "index_set": [1, 2, 3, 4]},
        },
        "initial": {"k0": 1.0, "seed": 11},
        "ensemble": {"n_paths": 32, "master_seed": 13, "workers": 2},
        "monitors": {"budget_m": 1.5, "h2_r": 1.0e9},
    })
    return studies.budget_exceedance(cfg, cutoffs=[8, 16, 32], horizons=[0.2, 0.1, 0.05])


def test_c10_budget_opens_exactly():
    lat = build_lattice(2, 64)
    u0 = random_h1_field(lat, seed=21, k0=1.3)
    from stochns.sde import StepperConfig
    cfg = StepperConfig(nu=0.05, dt=1e-3, t_end=0.1, cutoff=16, k0=1.3)
    state = initial_state(u0, cfg)
    exact = state.budget_sup == sobolev_norm_sq(state_field(state), 1.0)
    report("criterion 10a: budget at t=0 equals ||u0^N||_H1^2 exactly",
           exact, f"budget {state.budget_sup!r}")


def test_c10_exceedance_monotone(exceedance_result):
    res = exceedance_result
    ok = True
    lines = []
    for n in res.cutoffs:
        fracs = [res.fractions[(n, h)] for h in res.horizons]  # horizons descending
        ok &= all(a >= b for a, b in zip(fracs, fracs[1:]))
        lines.append(f"N={n}: {fracs}")
    nontrivial = any(res.fractions[(n, res.horizons[0])] > 0 for n in res.cutoffs)
    report("criterion 10b: exceedance fraction nonincreasing as the horizon shrinks",
           ok and nontrivial, "; ".join(lines))
