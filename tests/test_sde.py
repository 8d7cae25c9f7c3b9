import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import smooth_field, transport_system
from stochns import studies
from stochns.brownian import PathSpec, increments, refine, refine_paths
from stochns.config import ExperimentConfig, default_decay_config, default_oracle_config
from stochns.fields import (pack_ball, random_h1_field,
                            single_mode_field, sobolev_norm_sq, transfer, unpack_ball,
                            validate_physical, zero_field)
from stochns.lattice import build_lattice, galerkin_grid
from stochns.noise import (MultiplicativeNoise, NoiseSystem, TransportNoise,
                           solenoidal_mode_field, validate_system)
from stochns.sde import (NonFiniteError, PathStack, StepperConfig, _Stepper, _advance,
                         diffusion, drift,
                         dt_stability, initial_state, integrate,
                         linear_exact, monitor_tau_R, step)
from test_nonlinear import ball_field, shear_field, unpruned_reference


def make_cfg(cutoff=8, **kw):
    base = dict(nu=0.05, dt=1e-3, t_end=0.05, cutoff=cutoff)
    base.update(kw)
    return StepperConfig(**base)


@pytest.fixture(scope="module")
def off_system():
    return transport_system([])


@pytest.fixture(scope="module")
def xi_system():
    return transport_system([np.array([0.8, 0.0])])


# ---------------------------------------------------------------------------
# drift / diffusion operators

def test_drift_zero_field(lat32, off_system):
    out = drift(zero_field(lat32), make_cfg(), off_system)
    assert np.abs(out.coeffs).max() == 0.0


def test_drift_shear_is_pure_stokes(lat32, off_system):
    u = shear_field(lat32)
    out = drift(u, make_cfg(nu=0.07), off_system)
    expected = -0.07 * 1.0 * u.coeffs  # -nu |k|^2 u_hat at |k| = 1
    assert np.abs(out.coeffs - expected).max() <= 1e-13


def test_drift_corrector_contribution(lat32):
    system = transport_system([np.array([1.0, 0.0])])
    u = single_mode_field(lat32, (2, 0), (0.0, 1.0))
    cfg = make_cfg(nu=0.05)
    out = drift(u, cfg, system)
    # -nu |k|^2 u - (1/2)(xi.k)^2 u = (-0.05*4 - 2) u at k=(2,0)
    expected = (-0.05 * 4.0 - 2.0) * u.coeffs[:, 2, 0]
    np.testing.assert_allclose(out.coeffs[:, 2, 0], expected, rtol=1e-13)


def test_diffusion_zero_system(lat32, off_system):
    u = smooth_field(lat32, seed=1)
    assert diffusion(u, make_cfg(), off_system) == []


def test_diffusion_additive_fields(lat32):
    sigma = solenoidal_mode_field(lat32, (1, 0), 0.3)
    system = NoiseSystem(g=MultiplicativeNoise.additive([sigma], [0]),
                         xi=TransportNoise.empty(), n_wiener=1)
    system = validate_system(system)
    u = smooth_field(lat32, seed=2)
    outs = diffusion(u, make_cfg(), system)
    assert len(outs) == 1
    expected = np.where(lat32.ball_mask(8), sigma.coeffs, 0.0)
    np.testing.assert_allclose(outs[0].coeffs, expected, atol=1e-15)


def test_additive_sigma_carried_onto_stepper_lattice(lat16, lat32):
    sigma = solenoidal_mode_field(lat32, (2, 1), 0.3)
    system = NoiseSystem(g=MultiplicativeNoise.additive([sigma], [0]),
                         xi=TransportNoise.empty(), n_wiener=1)
    system = validate_system(system)
    outs = diffusion(smooth_field(lat16, seed=2), make_cfg(cutoff=4), system)
    expected = np.where(lat16.ball_mask(4),
                        solenoidal_mode_field(lat16, (2, 1), 0.3).coeffs, 0.0)
    np.testing.assert_allclose(outs[0].coeffs, expected, atol=1e-15)


def test_diffusion_transport_multiplier(lat32, xi_system):
    u = single_mode_field(lat32, (2, 0), (0.0, 1.0))
    outs = diffusion(u, make_cfg(), xi_system)
    # entry k: -i (xi.k) u_hat = -1.6j u_hat at k=(2,0), xi=(0.8,0)
    np.testing.assert_allclose(outs[0].coeffs[:, 2, 0], -1.6j * u.coeffs[:, 2, 0],
                               rtol=1e-14)


def _additive_xi_system(lat):
    pad = (0,) * (lat.dim - 2)
    sigmas = [solenoidal_mode_field(lat, (1, 0) + pad, 0.3),
              solenoidal_mode_field(lat, (1, 2) + pad, 0.2)]
    vectors = [np.array([0.6, 0.0] + [0.0] * len(pad)),
               np.array([-0.3, -0.5] + [0.2] * len(pad))]
    system = NoiseSystem(g=MultiplicativeNoise.additive(sigmas, [0, 1]),
                         xi=TransportNoise.constant(vectors, [2, 3]),
                         n_wiener=4)
    return validate_system(system)


@pytest.mark.parametrize("g_kind", ["linear", "additive"])
def test_diffusion_sums_to_the_stepper_noise_sum(lat32, g_kind):
    if g_kind == "linear":
        system = transport_system([np.array([0.8, 0.1]), np.array([-0.3, 0.5])],
                                  g_coeffs=[0.2, -0.1])
    else:
        system = _additive_xi_system(lat32)
    cfg = make_cfg()
    u = smooth_field(lat32, seed=21)
    dw = 0.03 * np.random.default_rng(5).standard_normal(system.n_wiener)
    stepper = _Stepper(cfg, system, lat32)
    c = pack_ball(u.coeffs, lat32, cfg.cutoff)
    expected = unpack_ball(stepper.noise_sum(c, dw), lat32, cfg.cutoff)
    total = sum(dw[k] * f.coeffs for k, f in enumerate(diffusion(u, cfg, system)))
    assert np.abs(expected).max() > 0.0
    assert np.abs(total - expected).max() <= 1e-14 * np.abs(expected).max()


# ---------------------------------------------------------------------------
# batched stepping on the packed ball

def _noise_sum_reference(stepper, c, dw_row):
    """The single-path noise sum as a plain loop: a zero increment adds no
    term, and a path without terms gets zeros."""
    sys_ = stepper.system
    diag_im = acc = None
    lin = 0.0
    for phase, k_index in zip(stepper.xi_phase, sys_.xi.index_set):
        dw = float(dw_row[k_index])
        if dw != 0.0:
            diag_im = (-dw) * phase if diag_im is None else diag_im - dw * phase
    if sys_.g.variant == "linear":
        for pos, k_index in enumerate(sys_.g.index_set):
            lin += float(dw_row[k_index]) * sys_.g.coefficients[pos]
    elif sys_.g.variant == "additive":
        for pos, k_index in enumerate(sys_.g.index_set):
            dw = float(dw_row[k_index])
            if dw != 0.0:
                contrib = dw * stepper.additive_hat[pos]
                acc = contrib if acc is None else acc + contrib
    term = (c * (lin + 1j * diag_im) if diag_im is not None
            else c * lin if lin != 0.0 else None)
    if term is None:
        return np.zeros_like(c) if acc is None else acc
    return term if acc is None else term + acc


def _batch_system(lat, g_kind):
    if g_kind == "additive":
        return _additive_xi_system(lat)
    pad = [0.0] * (lat.dim - 2)
    return transport_system([np.array([0.8, 0.0] + pad), np.array([-0.3, -0.5] + pad)],
                            g_coeffs=[0.2, -0.1] if g_kind == "linear" else [])


@pytest.mark.parametrize("g_kind", ["linear", "additive"])
@pytest.mark.parametrize("dim,grid,cutoff", [(2, 32, 8), (3, 16, 4)])
def test_advance_batch_matches_single_paths_bitwise(dim, grid, cutoff, g_kind):
    lat = build_lattice(dim, grid)
    system = _batch_system(lat, g_kind)
    stepper = _Stepper(make_cfg(cutoff=cutoff), system, lat)
    c = np.stack([pack_ball(smooth_field(lat, seed=s).coeffs, lat, cutoff) for s in range(4)])
    # increments 0-1 drive g, 2-3 transport; the first vector's phase is +0
    # at k_1 = 0, where the second's is negative, so a zero sum or a skipped
    # zero term shows in the sign of zero results
    dw = 0.03 * np.random.default_rng(8).standard_normal((4, system.n_wiener))
    dw[:, 2] = np.abs(dw[:, 2])
    dw[1, [0, 3]] = 0.0   # a zero increment of g and of a transport term
    dw[2] = 0.0           # no noise term at all
    c_new, obs, bad = stepper.advance(c, dw, 0.2)
    assert c_new.shape == c.shape == (4, dim, int(lat.ball_mask(cutoff).sum()))
    for p in range(4):
        noise = stepper.noise_sum(c[p], dw[p])
        assert noise.tobytes() == stepper.noise_sum(c, dw)[p].tobytes()
        assert noise.tobytes() == _noise_sum_reference(stepper, c[p], dw[p]).tobytes()
        c_p, obs_p, bad_p = stepper.advance(c[p], dw[p], 0.2)
        assert c_new[p].tobytes() == c_p.tobytes()
        for name, value in obs.items():
            assert value[p].tobytes() == obs_p[name].tobytes(), name
        assert bad[p] == bad_p[()] == ""


def _observables_reference(stepper, c, phi):
    """The five squared norms as separate per-weight sums over the ball."""
    mod = np.sum(c.real**2 + c.imag**2, axis=-2)
    w_l2, w_h1, w_h2 = stepper.w_ball
    gev = np.exp((2.0 * phi) * stepper.root_ball)
    return {"l2_sq": np.sum(w_l2 * mod, axis=-1), "h1_sq": np.sum(w_h1 * mod, axis=-1),
            "h2_sq": np.sum(w_h2 * mod, axis=-1),
            "gevrey_h1_sq": np.sum(w_h1 * mod * gev, axis=-1),
            "gevrey_h2_sq": np.sum(w_h2 * mod * gev, axis=-1)}


@pytest.mark.parametrize("n_paths", [1, 3])
@pytest.mark.parametrize("convection", [False, True])
@pytest.mark.parametrize("g_kind", ["zero", "linear", "additive"])
@pytest.mark.parametrize("dim,grid,cutoff", [(2, 32, 8), (3, 16, 4)])
def test_advance_is_the_scheme_in_place(dim, grid, cutoff, g_kind, convection, n_paths):
    lat = build_lattice(dim, grid)
    system = _batch_system(lat, g_kind)
    stepper = _Stepper(make_cfg(cutoff=cutoff, convection=convection), system, lat)
    c = np.stack([pack_ball(smooth_field(lat, seed=s).coeffs, lat, cutoff)
                  for s in range(n_paths)])
    dw = 0.03 * np.random.default_rng(9).standard_normal((n_paths, system.n_wiener))
    dw[n_paths // 2] = 0.0   # one row without any increment
    for phi in (0.0, 0.2):
        c_new, obs, bad = stepper.advance(c, dw, phi)
        pre = c + stepper.cfg.dt * stepper.explicit_drift(c) + stepper.noise_sum(c, dw)
        assert c_new.tobytes() == (stepper.decay * pre).tobytes()
        reference = _observables_reference(stepper, c_new, phi)
        assert list(obs) == list(reference)
        for name, value in obs.items():
            assert np.ascontiguousarray(value).tobytes() == reference[name].tobytes(), name
        assert list(bad) == [""] * n_paths


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_advance_nan_increment_is_a_coefficient_failure(lat32):
    system = _batch_system(lat32, "linear")
    stepper = _Stepper(make_cfg(cutoff=4), system, lat32)
    c = np.stack([pack_ball(smooth_field(lat32, seed=s).coeffs, lat32, 4) for s in range(3)])
    dw = 0.03 * np.random.default_rng(10).standard_normal((3, system.n_wiener))
    dw[1, 2] = np.nan
    c_new, _, bad = stepper.advance(c, dw, 0.2)
    assert list(bad) == ["", "coefficient", ""]
    for p in (0, 2):
        assert c_new[p].tobytes() == stepper.advance(c[p], dw[p], 0.2)[0].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_advance_flags_nonfinite_rows_only(lat32, off_system):
    stepper = _Stepper(make_cfg(cutoff=4, convection=False), off_system, lat32)
    good = pack_ball(smooth_field(lat32, seed=4).coeffs, lat32, 4)
    huge = pack_ball(single_mode_field(lat32, (1, 0), (0.0, 1e200)).coeffs, lat32, 4)
    broken = good.copy()
    broken[0, 0] = np.nan
    c_new, _, bad = stepper.advance(np.stack([good, huge, broken, good]),
                                    np.zeros((4, 0)), 0.1)
    assert list(bad) == ["", "l2_sq, h1_sq, h2_sq, gevrey_h1_sq, gevrey_h2_sq",
                         "coefficient", ""]
    alone = stepper.advance(good, np.zeros(0), 0.1)[0]
    assert c_new[0].tobytes() == c_new[3].tobytes() == alone.tobytes()


def test_pack_unpack_round_trip(lat3d):
    u = smooth_field(lat3d, seed=6)
    packed = pack_ball(u.coeffs, lat3d, 5)
    assert packed.shape == (3, int(lat3d.ball_mask(5).sum()))
    # storage order: the ball's flat half-spectrum indices, ascending
    flat = np.flatnonzero(lat3d.ball_mask(5))
    np.testing.assert_array_equal(packed, u.coeffs.reshape(3, -1)[:, flat])
    np.testing.assert_array_equal(unpack_ball(packed, lat3d, 5),
                                  np.where(lat3d.ball_mask(5), u.coeffs, 0.0))
    # a stack of paths packs and unpacks path by path
    stack = np.stack([u.coeffs, 2.0 * u.coeffs])
    assert np.array_equal(pack_ball(stack, lat3d, 5)[1], pack_ball(stack[1], lat3d, 5))
    assert np.array_equal(unpack_ball(pack_ball(stack, lat3d, 5), lat3d, 5)[1],
                          unpack_ball(pack_ball(stack[1], lat3d, 5), lat3d, 5))


@pytest.mark.parametrize("dim,grid,cutoff", [(2, 100, 32), (3, 16, 4), (3, 48, 16)],
                         ids=["2d-100-ball32", "3d-16-ball4", "3d-48-ball16"])
def test_explicit_drift_convection_matches_unpruned_transforms(dim, grid, cutoff):
    # at 3D grid 48 = 3 N the ball's axis modes fail the dealias mask and get
    # no convection: no drift at all with no noise, whatever the state holds
    lat = build_lattice(dim, grid)
    system = NoiseSystem(g=MultiplicativeNoise.zero(), xi=TransportNoise.empty(), n_wiener=0)
    stepper = _Stepper(make_cfg(cutoff=cutoff), system, lat)
    u = ball_field(lat, cutoff, seed=22)
    out = stepper.explicit_drift(pack_ball(u.coeffs, lat, cutoff))
    ref = -pack_ball(unpruned_reference(lat, u.coeffs, u.coeffs), lat, cutoff)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
    outside = ~lat.dealias_mask[lat.ball_mask(cutoff)]
    assert outside.any() == (grid == 3 * cutoff)
    assert np.all(out[:, outside] == 0.0)


# ---------------------------------------------------------------------------
# stepping

def test_zero_field_stays_zero(lat32, off_system):
    cfg = make_cfg()
    state = initial_state(zero_field(lat32), cfg)
    out = step(state, cfg, off_system, np.zeros(0))
    assert np.abs(out.u.coeffs).max() == 0.0


def test_pure_stokes_exact_decay(lat32, off_system):
    cfg = make_cfg(nu=0.04, dt=2e-3, t_end=0.05)
    state = initial_state(shear_field(lat32), cfg)
    amp0 = abs(state.u.coeffs[0, 0, 1])
    for i in range(5):
        state = step(state, cfg, off_system, np.zeros(0))
    expected = amp0 * math.exp(-0.04 * 1.0 * 5 * 2e-3)
    assert abs(abs(state.u.coeffs[0, 0, 1]) - expected) <= 1e-13


def test_step_preserves_invariants(lat32, xi_system):
    cfg = make_cfg()
    state = initial_state(random_h1_field(lat32, seed=3, k0=1.0), cfg)
    rng_row = increments(PathSpec(1, 0, 1), 0.0, cfg.dt, 4).increments
    scale = np.abs(state.u.coeffs).max()
    for i in range(4):
        state = step(state, cfg, xi_system, rng_row[i])
        rep = validate_physical(state.u)
        assert rep.divergence_residual <= 1e-12 * scale
        assert rep.mean_residual <= 1e-12 * scale
        # support invariance: nothing above the cutoff
        assert np.abs(state.u.coeffs[:, ~lat32.ball_mask(cfg.cutoff)]).max() == 0.0


def test_budget_opens_at_initial_enstrophy(lat32, off_system):
    cfg = make_cfg(k0=1.0)
    u0 = random_h1_field(lat32, seed=4, k0=1.0)
    state = initial_state(u0, cfg)
    assert state.budget_sup == sobolev_norm_sq(state.u, 1.0)
    assert state.budget_int == 0.0 and state.h2_int == 0.0


def test_k0_gate(lat32):
    cfg = make_cfg(k0=0.5)
    with pytest.raises(ValueError):
        initial_state(random_h1_field(lat32, seed=5, k0=1.0), cfg)


def test_nonfinite_detected(lat32, off_system):
    cfg = make_cfg(dt=1e-3)
    coeffs = np.zeros((2,) + lat32.shape, dtype=complex)
    coeffs[0, 1, 2] = np.nan
    bad = initial_state(smooth_field(lat32, seed=6), cfg)
    bad = dataclasses.replace(bad, c=pack_ball(coeffs, lat32, cfg.cutoff))
    with pytest.raises(NonFiniteError):
        step(bad, cfg, off_system, np.zeros(0))


# ---------------------------------------------------------------------------
# integrate

def test_zero_horizon_returns_initial(lat32, off_system):
    cfg = make_cfg(t_end=0.0)
    u0 = random_h1_field(lat32, seed=7, k0=1.0)
    traj = integrate(cfg, off_system, PathSpec(1, 0, 0), u0)
    assert len(traj.states) == 1 and traj.final.t == 0.0
    assert traj.series["t"].shape == (1,)


def test_integrate_requires_validated_system(lat32):
    system = NoiseSystem(g=MultiplicativeNoise.zero(), xi=TransportNoise.empty(), n_wiener=0)
    cfg = make_cfg()
    with pytest.raises(ValueError, match="validate_system"):
        integrate(cfg, system, PathSpec(1, 0, 0), smooth_field(lat32))


def test_no_stops_when_thresholds_huge(lat32, xi_system):
    cfg = make_cfg(budget_m=1e9, h2_r=1e12, t_end=0.02)
    traj = integrate(cfg, xi_system, PathSpec(2, 0, 1),
                     random_h1_field(lat32, seed=8, k0=1.0))
    assert traj.stops == ()


def test_budget_stop_recorded_and_integration_continues(lat32, xi_system):
    cfg = make_cfg(budget_m=1.001, t_end=0.05, nu=0.01)
    traj = integrate(cfg, xi_system, PathSpec(2, 1, 1),
                     random_h1_field(lat32, seed=9, k0=1.0), check_stability=False)
    rec = traj.final.stop_for("budget")
    if rec is not None:
        assert traj.final.t == pytest.approx(0.05)  # ran to the horizon anyway
        assert rec.time <= 0.05


def test_budgets_nondecreasing(lat32, xi_system):
    cfg = make_cfg(t_end=0.03)
    traj = integrate(cfg, xi_system, PathSpec(3, 0, 1),
                     random_h1_field(lat32, seed=10, k0=1.0))
    for key in ("budget_sup", "budget_int", "h2_int"):
        assert np.all(np.diff(traj.series[key]) >= -1e-15)


def test_deterministic_2d_enstrophy_decay_small(lat32, off_system):
    cfg = make_cfg(nu=0.05, dt=5e-4, t_end=0.1, cutoff=10, k0=1.0)
    u0 = random_h1_field(lat32, seed=11, beta=2.2, k0=1.0)
    traj = integrate(cfg, off_system, PathSpec(1, 0, 0), u0)
    h1 = traj.series["h1_sq"]
    assert np.all(h1[1:] <= h1[:-1] * (1 + 1e-6))


def test_resume_bit_compatible(lat32, xi_system, tmp_path):
    cfg = make_cfg(t_end=0.04, dt=1e-3)
    u0 = random_h1_field(lat32, seed=12, k0=1.0)
    path = PathSpec(4, 0, 1)
    full = integrate(cfg, xi_system, path, u0, store_every=20)

    half_cfg = make_cfg(t_end=0.02, dt=1e-3)
    half = integrate(half_cfg, xi_system, path, u0, store_every=20)
    from stochns.snapshots import load_state, save_state
    save_state(tmp_path / "ckpt", half.final)
    restored, _ = load_state(tmp_path / "ckpt")
    resumed = integrate(cfg, xi_system, path, u0, store_every=20, resume=restored)
    assert np.array_equal(resumed.final.u.coeffs, full.final.u.coeffs)
    assert resumed.final.budget_sup == full.final.budget_sup
    assert resumed.final.budget_int == full.final.budget_int
    assert resumed.final.h2_int == full.final.h2_int


def test_resume_rejects_another_cutoff(lat32, xi_system):
    # the checkpoint's ball would be cut to the new cutoff, and its budget
    # would keep the old cutoff's initial enstrophy
    path = PathSpec(4, 0, 1)
    half = integrate(make_cfg(t_end=0.01, cutoff=8), xi_system, path,
                     random_h1_field(lat32, seed=12, k0=1.0))
    with pytest.raises(ValueError, match="cutoff 8 .* cutoff 6"):
        integrate(make_cfg(t_end=0.02, cutoff=6), xi_system, path,
                  random_h1_field(lat32, seed=12, k0=1.0), resume=half.final)


def test_step_rejects_another_cutoff(lat32, xi_system):
    # the cutoff-8 ball does not fit the cutoff-6 stepper's multipliers
    state = initial_state(smooth_field(lat32, seed=5), make_cfg(cutoff=8))
    with pytest.raises(ValueError, match="cutoff 8 .* cutoff 6"):
        step(state, make_cfg(cutoff=6), xi_system, np.zeros(1))


def test_stack_states_own_their_rows(lat32, xi_system):
    # a stored state must not see later writes to the stack, such as the
    # zeroing of a row that turns non-finite
    cfg = make_cfg()
    stepper = _Stepper(cfg, xi_system, lat32)
    stack = PathStack(initial_state(smooth_field(lat32, seed=5), cfg), 2, stepper)
    _advance(stack, stepper, np.array([[0.01], [-0.02]]))
    stored = stack.state(0)
    before = stored.c.copy()
    stack.fail(0, "non-finite coefficient")
    assert np.array_equal(stored.c, before) and np.any(before)
    assert not np.any(stack.c[0]) and stack.failed == ["non-finite coefficient", None]


@pytest.mark.parametrize("dim,grid,cutoff", [(2, 32, 8), (3, 16, 4)])
def test_stored_states_are_ball_sized(dim, grid, cutoff):
    lat = build_lattice(dim, grid)
    system = _batch_system(lat, "linear")
    traj = integrate(make_cfg(cutoff=cutoff, t_end=0.005), system,
                     PathSpec(2, 0, system.n_wiener), smooth_field(lat, seed=3),
                     store_every=2)
    n_ball = int(lat.ball_mask(cutoff).sum())
    assert len(traj.states) == 4
    for state in traj.states:
        assert state.c.shape == (dim, n_ball) and state.c.dtype == np.complex128
        assert not state.c.flags.writeable
        assert np.array_equal(pack_ball(state.u.coeffs, lat, cutoff), state.c)


@pytest.mark.parametrize("dim,grid,cutoff", [(2, 64, 8), (3, 24, 4)])
def test_minimal_lattice_run_matches_reference_lattice(dim, grid, cutoff):
    # convection plus linear and transport noise, 20 steps: stepping on the
    # cutoff's minimal dealias grid changes nothing but rounding
    ref = build_lattice(dim, grid)
    small = build_lattice(dim, galerkin_grid(cutoff))
    axes = np.eye(dim)
    system = transport_system([0.4 * axes[0], 0.3 * axes[1]], g_coeffs=(0.2,))
    cfg = make_cfg(cutoff=cutoff, t_end=0.02, k0=1.0)
    u0 = random_h1_field(ref, seed=14, k0=1.0)
    path = PathSpec(7, 0, system.n_wiener)
    on_ref = integrate(cfg, system, path, u0)
    on_small = integrate(cfg, system, path, transfer(u0, small))
    assert on_small.final.u.lattice == small and on_small.final.step == 20
    diff = sobolev_norm_sq(on_ref.final.u - transfer(on_small.final.u, ref), 1.0)
    assert math.sqrt(diff) <= 1e-12 * math.sqrt(sobolev_norm_sq(on_ref.final.u, 1.0))
    for key in ("h1_sq", "h2_int", "budget_sup", "budget_int"):
        np.testing.assert_allclose(on_small.series[key], on_ref.series[key], rtol=1e-12)


def test_readme_library_sketch_keeps_the_step_size_rule(capsys):
    # the sketch runs as written with every warning an error, the stability
    # rule's included, and finds the positive radius it promises
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(sketch, {})
    decay_rate, _ = map(float, capsys.readouterr().out.split())
    assert decay_rate > 0.0


def test_stability_rule_warns(lat32, xi_system):
    cfg = make_cfg(dt=0.5, t_end=1.0, cutoff=8)
    bound = dt_stability(cfg, xi_system, 1.0)["bound"]
    assert bound < 0.5
    with pytest.warns(RuntimeWarning, match="stability"):
        integrate(cfg, xi_system, PathSpec(5, 0, 1),
                  random_h1_field(lat32, seed=13, k0=1.0))


# ---------------------------------------------------------------------------
# linear oracle

def test_linear_exact_perpendicular_is_heat(lat32):
    u0 = single_mode_field(lat32, (2, 0), (0.0, 1.0))
    out = linear_exact(u0, np.array([0.0, 1.0]), 0.1, 5.0, 0.7)
    np.testing.assert_allclose(out.coeffs[:, 2, 0],
                               u0.coeffs[:, 2, 0] * math.exp(-0.1 * 4 * 0.7), rtol=1e-14)


def test_linear_exact_zero_path_is_heat(lat32):
    u0 = smooth_field(lat32, seed=14)
    out = linear_exact(u0, np.array([0.8, 0.0]), 0.1, 0.0, 0.5)
    heat = u0.coeffs * np.exp(-0.1 * lat32.ksq * 0.5)
    np.testing.assert_allclose(out.coeffs, np.where(lat32.active, heat, 0.0), atol=1e-15)


def test_linear_exact_modulus_path_independent(lat32):
    u0 = smooth_field(lat32, seed=15)
    a = linear_exact(u0, np.array([0.8, 0.0]), 0.1, 2.3, 0.5)
    b = linear_exact(u0, np.array([0.8, 0.0]), 0.1, -7.7, 0.5)
    np.testing.assert_allclose(np.abs(a.coeffs), np.abs(b.coeffs), atol=1e-14)


# ---------------------------------------------------------------------------
# paired stopping monitor

def _pair(lat32, xi_system, r_threshold):
    cfg_n = make_cfg(cutoff=4, t_end=0.03, h2_r=1e12)
    cfg_ref = make_cfg(cutoff=8, t_end=0.03, h2_r=1e12)
    u0 = random_h1_field(lat32, seed=16, k0=1.0)
    path = PathSpec(6, 0, 1)
    tn = integrate(cfg_n, xi_system, path, u0, store_every=10 ** 9)
    tr = integrate(cfg_ref, xi_system, path, u0, store_every=10 ** 9)
    return monitor_tau_R(tn, tr, r_threshold)


def test_monitor_tau_r_edges(lat32, xi_system):
    assert _pair(lat32, xi_system, 0.0) == pytest.approx(1e-3)   # first step
    assert _pair(lat32, xi_system, 1e11) == pytest.approx(0.03)  # never triggers


def test_monitor_tau_r_monotone_in_r(lat32, xi_system):
    times = [_pair(lat32, xi_system, r) for r in (0.0, 0.05, 0.1, 1e11)]
    assert all(a <= b + 1e-15 for a, b in zip(times, times[1:]))


def test_monitor_tau_r_grid_mismatch(lat32, xi_system):
    cfg_a = make_cfg(cutoff=4, t_end=0.03)
    cfg_b = make_cfg(cutoff=8, t_end=0.02)
    u0 = random_h1_field(lat32, seed=17, k0=1.0)
    ta = integrate(cfg_a, xi_system, PathSpec(6, 0, 1), u0)
    tb = integrate(cfg_b, xi_system, PathSpec(6, 0, 1), u0)
    with pytest.raises(ValueError, match="time grid"):
        monitor_tau_R(ta, tb, 1.0)


def test_monitor_tau_r_is_decay_study_rule():
    # one tau_R rule: the paired monitor on integrate trajectories stops at
    # exactly the times decay_study records for every cutoff
    config = default_decay_config(**{
        "lattice": {"grid_n": 50}, "physics": {"t_end": 0.05, "dt": 0.005},
        "galerkin": {"cutoffs": [4, 6, 8], "n_ref": 16}, "ensemble": {"n_paths": 1}})
    lattice, system, u0 = studies.prepare(config)
    path = config.path_spec(0, system.n_wiener)

    def run(n, lat):
        return integrate(config.stepper_config(n), system, path, transfer(u0, lat),
                         store_every=10 ** 9, check_stability=False)

    ref = run(16, lattice)
    trajs = {n: run(n, config.cutoff_lattice(n)) for n in (4, 6, 8)}
    # R equal to the smallest cutoff's paired integral at a mid-run step: the
    # rule (>=) fires exactly there
    mid = len(ref.times) // 2
    r_mid = float(trajs[4].series["h2_int"][mid] + ref.series["h2_int"][mid])
    for r_threshold in (r_mid, 1e12):
        outcome = studies.decay_study(
            config.with_overrides({"monitors": {"h2_r": r_threshold}})).outcomes[0]
        for n, traj in trajs.items():
            assert monitor_tau_R(traj, ref, r_threshold) == outcome.stop_times[n]
        if r_threshold == r_mid:
            assert outcome.stop_times[4] == ref.times[mid]
        else:
            assert all(t == pytest.approx(0.05) for t in outcome.stop_times.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_blowup_aborts_with_partial_trajectory(lat32):
    # nearly inviscid, huge dt: the explicit convection term blows up
    system = transport_system([])
    cfg = StepperConfig(nu=1e-9, dt=1.0, t_end=40.0, cutoff=10)
    u0 = random_h1_field(lat32, seed=30, k0=4.0)
    with pytest.raises(NonFiniteError) as err:
        integrate(cfg, system, PathSpec(9, 0, 0), u0, check_stability=False)
    partial = err.value.trajectory
    assert partial is not None and len(partial.series["t"]) >= 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_large_phi_cap_budget_stays_finite():
    # grid 200, n_ref 16, phi_cap 3: the Gevrey weight exp(2 phi |k|) overflows
    # off the ball; evaluated there it turned the H^2 budget into a silent NaN
    # near t = 2.47 while the stale sup hid it
    config = ExperimentConfig.default(**{
        "lattice": {"grid_n": 200},
        "physics": {"dt": 0.01, "t_end": 3.0},
        "gevrey": {"phi_cap": 3.0},
        "galerkin": {"cutoffs": [4, 8], "n_ref": 16},
        "ensemble": {"n_paths": 1}})
    result = studies.simulate(config).paths[0]
    assert result.nonfinite is None
    series = result.trajectory.series
    for key in ("gevrey_h1_sq", "gevrey_h2_sq", "budget_sup", "budget_int"):
        assert np.all(np.isfinite(series[key])), key
    assert series["budget_sup"][-1] == series["gevrey_h1_sq"].max()
    assert result.trajectory.final.stop_for("budget") is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_observable_raises(lat32, off_system):
    # finite coefficients whose squared modulus overflows; convection off, so
    # the coefficients stay finite and only the observable guard can fire
    cfg = make_cfg(cutoff=4, convection=False)
    u = single_mode_field(lat32, (1, 0), (0.0, 1e200))
    state = initial_state(u, cfg)
    with pytest.raises(NonFiniteError, match="non-finite l2_sq"):
        step(state, cfg, off_system, np.zeros(0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_convection_raises(lat32, off_system):
    # the same shear mode with convection on: (u.grad)u is zero, but the
    # divergence-form products u_j u_m overflow, and the step must end with
    # NonFiniteError rather than carry an inf
    cfg = make_cfg(cutoff=4)
    u = single_mode_field(lat32, (1, 0), (0.0, 1e200))
    state = initial_state(u, cfg)
    with pytest.raises(NonFiniteError, match="non-finite coefficient"):
        step(state, cfg, off_system, np.zeros(0))


# ---------------------------------------------------------------------------
# linear oracle: chunks of paths against one integration per path and level

def _oracle_reference(config):
    """Per-path strong and modulus errors of the linear oracle, by one
    `integrate` call per path and dt level."""
    _, system, u0 = studies.prepare(config)
    xi = np.asarray(system.xi.vectors[0])
    nu, t_end, dt0 = config["physics.nu"], config["physics.t_end"], config["physics.dt"]
    levels = config["oracle.refinements"] + 1
    n_paths = config["ensemble.n_paths"]
    strong, modulus = np.zeros((n_paths, levels)), np.zeros((n_paths, levels))
    for i in range(n_paths):
        path = config.path_spec(i, system.n_wiener)
        block = increments(path, 0.0, dt0, round(t_end / dt0))
        for lvl in range(levels):
            cfg = dataclasses.replace(config.stepper_config(config["galerkin.n_ref"]),
                                      dt=dt0 / 2**lvl)
            traj = integrate(cfg, system, path, u0, store_every=10**9, driving=block,
                             check_stability=False)
            start, final = traj.states[0].u, traj.final.u
            exact = linear_exact(start, xi, nu, float(block.increments[:, 0].sum()), t_end)
            strong[i, lvl] = math.sqrt(sobolev_norm_sq(final - exact, 0.0))
            heat = np.abs(linear_exact(start, xi, nu, 0.0, t_end).coeffs)
            modulus[i, lvl] = float(np.abs(np.abs(final.coeffs) - heat).max())
            if lvl + 1 < levels:
                block = refine(block, 2)
    return strong, modulus


def _small_oracle_config():
    return default_oracle_config(physics={"t_end": 0.1}, ensemble={"n_paths": 3},
                                 oracle={"refinements": 2})


def test_linear_oracle_chunks_match_per_path_integration():
    config = _small_oracle_config()
    strong, modulus = _oracle_reference(config)
    result = studies.linear_oracle_study(config)
    assert result.nonfinite == {}
    assert result.strong_errors == list(np.mean(strong, axis=0))
    assert result.modulus_errors == list(np.mean(modulus, axis=0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_linear_oracle_averages_finite_paths_only(monkeypatch):
    # a NaN increment at the second dt level makes path 1 non-finite there
    def refine_nan(blocks, factor):
        fines = refine_paths(blocks, factor)
        for p, fine in enumerate(fines):
            if fine.spec.path_index == 1:
                dw = fine.increments.copy()
                dw[3, 0] = np.nan
                fines[p] = dataclasses.replace(fine, increments=dw)
        return fines

    config = _small_oracle_config()
    strong, modulus = _oracle_reference(config)
    monkeypatch.setattr(studies, "refine_paths", refine_nan)
    result = studies.linear_oracle_study(config)
    assert list(result.nonfinite) == [1]
    assert result.nonfinite[1] == "non-finite coefficient at t=0.01 (step 4, dt=0.0025)"
    assert result.strong_errors == list(np.mean(strong[[0, 2]], axis=0))
    assert result.modulus_errors == list(np.mean(modulus[[0, 2]], axis=0))
