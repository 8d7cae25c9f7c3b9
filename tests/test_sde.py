import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import smooth_field, state_field, transport_system, unpack
from stochns import studies
from stochns.brownian import PathSpec, increments, refine, refine_paths
from stochns.config import ExperimentConfig, default_decay_config, default_oracle_config
from stochns.fields import (galerkin_complement, pack_ball, random_h1_field,
                            single_mode_field, sobolev_norm_sq, transfer,
                            validate_physical, zero_field)
from stochns.lattice import build_lattice, galerkin_grid
from stochns.noise import (MultiplicativeNoise, NoiseSystem, TransportNoise,
                           solenoidal_mode_field, validate_system)
from stochns.nonlinear import transport_multipliers
from stochns.sde import (NonFiniteError, PathStack, SimState, StepperConfig, Trajectory,
                         _Stepper, _advance, dt_stability, initial_state, integrate)
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
# the drift and the diffusion fields, read off one step

def _ball(u, cutoff=8):
    return pack_ball(u.coeffs, u.lattice, cutoff)


def _diffusion_field(stepper, c, k):
    """advance(c, e_k) - advance(c, 0): with convection off, the decay times
    the diffusion field P^N P[g_k(u) - (xi_k.grad)u] of Wiener index k."""
    e_k = np.eye(stepper.system.n_wiener)[k]
    return stepper.advance(c, e_k) - stepper.advance(c, 0.0 * e_k)


def test_drift_zero_field(lat32, xi_system):
    # convection and transport on: a zero field stays exactly zero
    stepper = _Stepper(make_cfg(), xi_system, lat32)
    assert not np.any(stepper.advance(_ball(zero_field(lat32)), np.array([0.03])))


def test_drift_shear_is_pure_stokes(lat32, off_system):
    # convection on: the shear does not advect itself, so the step is the
    # Stokes decay exp(-nu |k|^2 dt) at |k| = 1
    c = _ball(shear_field(lat32))
    out = _Stepper(make_cfg(nu=0.07), off_system, lat32).advance(c, np.zeros(0))
    assert np.abs(out - math.exp(-0.07 * 1e-3) * c).max() <= 1e-13 * np.abs(c).max()


def test_drift_corrector_contribution(lat32):
    system = transport_system([np.array([1.0, 0.0])])
    cfg = make_cfg(nu=0.05, convection=False)
    u = single_mode_field(lat32, (2, 0), (0.0, 1.0))
    out = unpack(_Stepper(cfg, system, lat32).advance(_ball(u), np.zeros(1)), lat32, 8)
    # exp(-nu |k|^2 dt) (1 + dt (-1/2)(xi.k)^2) u = exp(-0.05*4 dt) (1 - 2 dt) u at k=(2,0)
    expected = math.exp(-0.05 * 4.0 * cfg.dt) * (1.0 - 2.0 * cfg.dt) * u.coeffs[:, 2, 0]
    np.testing.assert_allclose(out[:, 2, 0], expected, rtol=1e-14)


def test_diffusion_zero_system(lat32, off_system):
    # no noise: the step of an empty system is the decay alone, bit for bit
    stepper = _Stepper(make_cfg(convection=False), off_system, lat32)
    c = _ball(smooth_field(lat32, seed=1))
    assert stepper.advance(c, np.zeros(0)).tobytes() == (stepper.decay * c).tobytes()


def _additive_field(sigma, lat, cutoff, u):
    """The diffusion field of an additive system with the one field sigma,
    read off a stepper on lat."""
    system = validate_system(NoiseSystem(g=MultiplicativeNoise.additive([sigma], [0]),
                                         xi=TransportNoise.empty(), n_wiener=1))
    stepper = _Stepper(make_cfg(cutoff=cutoff, convection=False), system, lat)
    return stepper, _diffusion_field(stepper, _ball(u, cutoff), 0)


def test_diffusion_additive_fields(lat32):
    sigma = solenoidal_mode_field(lat32, (1, 0), 0.3)
    stepper, out = _additive_field(sigma, lat32, 8, smooth_field(lat32, seed=2))
    np.testing.assert_allclose(out, stepper.decay * _ball(sigma), atol=1e-15)


def test_additive_sigma_carried_onto_stepper_lattice(lat16, lat32):
    sigma = solenoidal_mode_field(lat32, (2, 1), 0.3)
    stepper, out = _additive_field(sigma, lat16, 4, smooth_field(lat16, seed=2))
    expected = _ball(solenoidal_mode_field(lat16, (2, 1), 0.3), 4)
    assert np.abs(expected).max() > 0.0
    np.testing.assert_allclose(out, stepper.decay * expected, atol=1e-15)


def test_diffusion_transport_multiplier(lat32, xi_system):
    u = single_mode_field(lat32, (2, 0), (0.0, 1.0))
    stepper = _Stepper(make_cfg(convection=False), xi_system, lat32)
    out = unpack(_diffusion_field(stepper, _ball(u), 0), lat32, 8)
    # entry k: -i (xi.k) u_hat = -1.6j u_hat at k=(2,0), xi=(0.8,0), decayed
    expected = -1.6j * math.exp(-0.05 * 4.0 * 1e-3) * u.coeffs[:, 2, 0]
    np.testing.assert_allclose(out[:, 2, 0], expected, rtol=1e-14)


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
    # the step is affine in its increment row: its noise is the sum of the
    # diffusion fields weighted by dW
    if g_kind == "linear":
        system = transport_system([np.array([0.8, 0.1]), np.array([-0.3, 0.5])],
                                  g_coeffs=[0.2, -0.1])
    else:
        system = _additive_xi_system(lat32)
    stepper = _Stepper(make_cfg(convection=False), system, lat32)
    c = _ball(smooth_field(lat32, seed=21))
    dw = 0.03 * np.random.default_rng(5).standard_normal(system.n_wiener)
    noise = stepper.advance(c, dw) - stepper.advance(c, 0.0 * dw)
    total = sum(dw[k] * _diffusion_field(stepper, c, k) for k in range(system.n_wiener))
    assert np.abs(noise).max() > 0.0
    assert np.abs(total - noise).max() <= 1e-14 * np.abs(noise).max()


# ---------------------------------------------------------------------------
# batched stepping on the packed ball

def _batch_system(lat, g_kind):
    if g_kind == "additive":
        return _additive_xi_system(lat)
    pad = [0.0] * (lat.dim - 2)
    return transport_system([np.array([0.8, 0.0] + pad), np.array([-0.3, -0.5] + pad)],
                            g_coeffs=[0.2, -0.1] if g_kind == "linear" else [])


def _stack(stepper, lat, c, t=0.0):
    """A PathStack at time t whose paths start from the rows of c."""
    start = SimState(t=t, step=0, c=c[0].copy(), lattice=lat,
                     cutoff=stepper.cfg.cutoff, budget_sup=0.0, budget_int=0.0, h2_int=0.0,
                     initial_h1_sq=0.0)
    stack = PathStack(start, len(c), stepper)
    stack.c = c.copy()
    stack.obs = stepper.observables(stack.c, stepper.cfg.phi_at(t))
    return stack


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
    c_new = stepper.advance(c, dw)
    assert c_new.shape == c.shape == (4, dim, int(lat.ball_mask(cutoff).sum()))
    batch = _stack(stepper, lat, c, t=0.2)
    assert _advance(batch, stepper, dw) == []
    assert batch.c.tobytes() == c_new.tobytes()
    noise = stepper.noise_sum(dw, stepper.xi_decay)
    for p in range(4):
        for part, alone in zip(noise, stepper.noise_sum(dw[p], stepper.xi_decay)):
            assert part[p].tobytes() == alone.tobytes()
        assert c_new[p].tobytes() == stepper.advance(c[p], dw[p]).tobytes()
        alone = _stack(stepper, lat, c[p:p + 1], t=0.2)
        assert _advance(alone, stepper, dw[p:p + 1]) == []
        assert alone.c[0].tobytes() == c_new[p].tobytes()
        for name, value in batch.obs.items():
            assert value[p].tobytes() == alone.obs[name][0].tobytes(), name
        assert batch.stops[p] == alone.stops[0]
        assert batch.failed[p] is alone.failed[0] is None


def _observables_reference(stepper, c, phi):
    """The five squared norms as separate per-weight sums over the ball."""
    mod = np.sum(c.real**2 + c.imag**2, axis=-2)
    w_l2, w_h1, w_h2 = stepper.w_ball
    gev = np.exp((2.0 * phi) * stepper.root_ball)
    return {"l2_sq": np.sum(w_l2 * mod, axis=-1), "h1_sq": np.sum(w_h1 * mod, axis=-1),
            "h2_sq": np.sum(w_h2 * mod, axis=-1),
            "gevrey_h1_sq": np.sum(w_h1 * mod * gev, axis=-1),
            "gevrey_h2_sq": np.sum(w_h2 * mod * gev, axis=-1)}


def _step_reference(stepper, c, dw):
    """The step path by path in its multiplier form: c times
    m = decay (1 + dt C + lin) - i sum_k dW_k decay (xi_k . k), built part by
    part, then dt decay times the explicit drift and the fields dW_k decay
    sigma_hat_k."""
    sys_ = stepper.system
    out = np.empty_like(c)
    for p in np.ndindex(c.shape[:-2]):
        m = np.empty(stepper.ksq.shape, dtype=np.complex128)
        m.real = stepper.step_diag
        if sys_.g.variant == "linear":
            lin = 0.0
            for pos, k_index in enumerate(sys_.g.index_set):
                lin += float(dw[p][k_index]) * sys_.g.coefficients[pos]
            m.real += lin * stepper.decay
        imag = np.zeros(stepper.ksq.shape)
        for phase, k_index in zip(stepper.xi_decay, sys_.xi.index_set):
            imag -= dw[p][k_index] * phase
        m.imag = imag
        out[p] = c[p] * m
        if stepper.cfg.convection:
            out[p] += stepper.dt_decay * stepper.explicit_drift(c[p])
        for pos, k_index in enumerate(sys_.g.index_set if sys_.g.variant == "additive" else ()):
            out[p] += dw[p][k_index] * stepper.additive_decay[pos]
    return out


def _noise_reference(system, lat, cutoff, c, dw):
    """sum_k diffusion_k(u) dW_k per path, term by term: dW_k c_k u for a
    linear g, dW_k sigma_k on the ball for an additive one, and
    -i dW_k (xi_k . k) u."""
    ball = lat.ball_mask(cutoff)
    phases, _ = transport_multipliers(lat, system.xi.vectors)
    out = np.zeros_like(c)
    for p in range(len(c)):
        for phase, k in zip(phases, system.xi.index_set):
            out[p] += dw[p, k] * (-1j * phase[ball]) * c[p]
        if system.g.variant == "linear":
            for coeff, k in zip(system.g.coefficients, system.g.index_set):
                out[p] += dw[p, k] * coeff * c[p]
        if system.g.variant == "additive":
            for sigma, k in zip(system.g.sigmas, system.g.index_set):
                out[p] += dw[p, k] * pack_ball(transfer(sigma, lat).coeffs, lat, cutoff)
    return out


def _scheme_cases(dim, grid, cutoff, g_kind, n_paths):
    """Stacked starts and increments, with one row without any increment."""
    lat = build_lattice(dim, grid)
    system = _batch_system(lat, g_kind)
    c = np.stack([pack_ball(smooth_field(lat, seed=s).coeffs, lat, cutoff)
                  for s in range(n_paths)])
    dw = 0.03 * np.random.default_rng(9).standard_normal((n_paths, system.n_wiener))
    dw[n_paths // 2] = 0.0
    return lat, system, c, dw


@pytest.mark.parametrize("n_paths", [1, 3])
@pytest.mark.parametrize("convection", [False, True])
@pytest.mark.parametrize("g_kind", ["zero", "linear", "additive"])
@pytest.mark.parametrize("dim,grid,cutoff", [(2, 32, 8), (3, 16, 4)])
def test_advance_is_the_scheme_in_place(dim, grid, cutoff, g_kind, convection, n_paths):
    lat, system, c, dw = _scheme_cases(dim, grid, cutoff, g_kind, n_paths)
    for phi in (0.0, 0.2):
        # past phi_cap the step's Gevrey width is phi_cap itself
        stepper = _Stepper(make_cfg(cutoff=cutoff, convection=convection, phi_cap=phi),
                           system, lat)
        c_new = stepper.advance(c, dw)
        assert c_new.tobytes() == _step_reference(stepper, c, dw).tobytes()
        stack = _stack(stepper, lat, c, t=1.0)
        assert _advance(stack, stepper, dw) == []
        assert stack.c.tobytes() == c_new.tobytes()
        reference = _observables_reference(stepper, c_new, phi)
        assert list(stack.obs) == list(reference)
        for name, value in stack.obs.items():
            assert np.ascontiguousarray(value).tobytes() == reference[name].tobytes(), name
        assert stack.failed == [None] * n_paths


@pytest.mark.parametrize("n_paths", [1, 3])
@pytest.mark.parametrize("convection", [False, True])
@pytest.mark.parametrize("g_kind", ["zero", "linear", "additive"])
@pytest.mark.parametrize("dim,grid,cutoff", [(2, 32, 8), (3, 16, 4)])
def test_advance_matches_the_bracket_form(dim, grid, cutoff, g_kind, convection, n_paths):
    # the multiplier form against exp(-nu A dt) [u + dt (drift + nu A u) + noise]
    lat, system, c, dw = _scheme_cases(dim, grid, cutoff, g_kind, n_paths)
    for phi in (0.0, 0.2):
        stepper = _Stepper(make_cfg(cutoff=cutoff, convection=convection, phi_cap=phi),
                           system, lat)
        _, corrector = transport_multipliers(lat, system.xi.vectors)
        drift_part = corrector[lat.ball_mask(cutoff)] * c + stepper.explicit_drift(c)
        bracket = stepper.decay * (c + stepper.cfg.dt * drift_part
                                   + _noise_reference(system, lat, cutoff, c, dw))
        c_new = stepper.advance(c, dw)
        for p in range(n_paths):
            assert np.abs(c_new[p] - bracket[p]).max() <= 1e-13 * np.abs(bracket[p]).max()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_advance_nan_increment_is_a_coefficient_failure(lat32):
    system = _batch_system(lat32, "linear")
    stepper = _Stepper(make_cfg(cutoff=4), system, lat32)
    c = np.stack([pack_ball(smooth_field(lat32, seed=s).coeffs, lat32, 4) for s in range(3)])
    dw = 0.03 * np.random.default_rng(10).standard_normal((3, system.n_wiener))
    dw[1, 2] = np.nan
    stack = _stack(stepper, lat32, c, t=0.2)
    assert _advance(stack, stepper, dw) == [1]
    assert stack.failed == [None, "non-finite coefficient at t=0.201 (step 1, dt=0.001)", None]
    assert not np.any(stack.c[1])
    for p in (0, 2):
        assert stack.c[p].tobytes() == stepper.advance(c[p], dw[p]).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_advance_flags_nonfinite_rows_only(lat32, off_system):
    stepper = _Stepper(make_cfg(cutoff=4, convection=False), off_system, lat32)
    good = pack_ball(smooth_field(lat32, seed=4).coeffs, lat32, 4)
    huge = pack_ball(single_mode_field(lat32, (1, 0), (0.0, 1e200)).coeffs, lat32, 4)
    broken = good.copy()
    broken[0, 0] = np.nan
    stack = _stack(stepper, lat32, np.stack([good, huge, broken, good]), t=0.1)
    assert _advance(stack, stepper, np.zeros((4, 0))) == [1, 2]
    assert stack.failed == [
        None, "non-finite l2_sq, h1_sq, h2_sq, gevrey_h1_sq, gevrey_h2_sq at t=0.101 "
              "(step 1, dt=0.001)",
        "non-finite coefficient at t=0.101 (step 1, dt=0.001)", None]
    alone = stepper.advance(good, np.zeros(0))
    assert stack.c[0].tobytes() == stack.c[3].tobytes() == alone.tobytes()


def test_pack_unpack_round_trip(lat3d):
    u = smooth_field(lat3d, seed=6)
    packed = pack_ball(u.coeffs, lat3d, 5)
    assert packed.shape == (3, int(lat3d.ball_mask(5).sum()))
    # storage order: the ball's flat half-spectrum indices, ascending
    flat = np.flatnonzero(lat3d.ball_mask(5))
    np.testing.assert_array_equal(packed, u.coeffs.reshape(3, -1)[:, flat])
    np.testing.assert_array_equal(unpack(packed, lat3d, 5),
                                  np.where(lat3d.ball_mask(5), u.coeffs, 0.0))
    # a stack of paths packs and unpacks path by path
    stack = np.stack([u.coeffs, 2.0 * u.coeffs])
    assert np.array_equal(pack_ball(stack, lat3d, 5)[1], pack_ball(stack[1], lat3d, 5))
    assert np.array_equal(unpack(pack_ball(stack, lat3d, 5), lat3d, 5)[1],
                          unpack(pack_ball(stack[1], lat3d, 5), lat3d, 5))


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
    traj = integrate(make_cfg(t_end=1e-3), off_system, PathSpec(1, 0, 0), zero_field(lat32))
    assert traj.final.step == 1 and np.abs(traj.final.c).max() == 0.0


def test_pure_stokes_exact_decay(lat32, off_system):
    cfg = make_cfg(nu=0.04, dt=2e-3, t_end=0.01)
    traj = integrate(cfg, off_system, PathSpec(1, 0, 0), shear_field(lat32))
    amp0 = abs(state_field(traj.states[0]).coeffs[0, 0, 1])
    expected = amp0 * math.exp(-0.04 * 1.0 * 5 * 2e-3)
    assert traj.final.step == 5
    assert abs(abs(state_field(traj.final).coeffs[0, 0, 1]) - expected) <= 1e-13


def test_step_preserves_invariants(lat32, xi_system):
    cfg = make_cfg(t_end=0.004)
    traj = integrate(cfg, xi_system, PathSpec(1, 0, 1), random_h1_field(lat32, seed=3, k0=1.0))
    scale = np.abs(traj.states[0].c).max()
    assert len(traj.states) == 5
    for state in traj.states[1:]:
        u = state_field(state)
        rep = validate_physical(u)
        assert rep.divergence_residual <= 1e-12 * scale
        assert rep.mean_residual <= 1e-12 * scale
        # support invariance: nothing above the cutoff
        assert np.abs(u.coeffs[:, ~lat32.ball_mask(cfg.cutoff)]).max() == 0.0


def test_budget_opens_at_initial_enstrophy(lat32, off_system):
    # the budget opens at the stepper's own ball sum, which the h1_sq series
    # starts from; the half-spectrum norm sums the same terms in another order
    cfg = make_cfg(k0=1.0)
    u0 = random_h1_field(lat32, seed=4, k0=1.0)
    state = initial_state(u0, cfg)
    assert state.budget_sup == _Stepper(cfg, off_system, lat32).observables(state.c, 0.0)["h1_sq"]
    assert state.budget_sup == pytest.approx(sobolev_norm_sq(state_field(state), 1.0), rel=1e-15)
    assert state.budget_int == 0.0 and state.h2_int == 0.0


def test_k0_gate(lat32):
    cfg = make_cfg(k0=0.5)
    with pytest.raises(ValueError):
        initial_state(random_h1_field(lat32, seed=5, k0=1.0), cfg)


def test_nonfinite_detected(lat32, off_system):
    cfg = make_cfg(dt=1e-3)
    coeffs = np.zeros((2,) + lat32.shape, dtype=complex)
    coeffs[0, 1, 2] = np.nan
    u0 = smooth_field(lat32, seed=6)
    bad = dataclasses.replace(initial_state(u0, cfg), c=pack_ball(coeffs, lat32, cfg.cutoff))
    with pytest.raises(NonFiniteError):
        integrate(dataclasses.replace(cfg, t_end=cfg.dt), off_system, PathSpec(1, 0, 0), u0,
                  resume=bad)


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
    assert np.array_equal(resumed.final.c, full.final.c)
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
        PathStack(state, 1, _Stepper(make_cfg(cutoff=6), xi_system, lat32))


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
        assert np.array_equal(pack_ball(state_field(state).coeffs, lat, cutoff), state.c)


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
    final_ref, final_small = state_field(on_ref.final), state_field(on_small.final)
    assert final_small.lattice == small and on_small.final.step == 20
    diff = sobolev_norm_sq(final_ref - transfer(final_small, ref), 1.0)
    assert math.sqrt(diff) <= 1e-12 * math.sqrt(sobolev_norm_sq(final_ref, 1.0))
    for key in ("h1_sq", "h2_int", "budget_sup", "budget_int"):
        np.testing.assert_allclose(on_small.series[key], on_ref.series[key], rtol=1e-12)


def test_readme_library_sketch_keeps_the_step_size_rule(capsys):
    # the README's one python block, the library sketch, runs as written with
    # every warning an error, the stability rule's included, and finds the
    # positive radius it promises
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch, = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert f"## Library sketch\n\n```python\n{sketch}```" in readme
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

def _linear_exact(u0, xi, nu, w_value, t):
    """Closed form of the linear system (no convection, g = 0, one constant
    xi): u_hat(t) = u_hat(0) exp(-nu |k|^2 t - i (xi.k) W_t) per mode."""
    lat = u0.lattice
    (theta,), _ = transport_multipliers(lat, [xi])
    factor = np.exp(-nu * lat.ksq.astype(np.float64) * t - 1j * theta * w_value)
    return u0.with_coeffs(np.where(lat.active, u0.coeffs * factor, 0.0))


def test_linear_exact_perpendicular_is_heat(lat32):
    u0 = single_mode_field(lat32, (2, 0), (0.0, 1.0))
    out = _linear_exact(u0, np.array([0.0, 1.0]), 0.1, 5.0, 0.7)
    np.testing.assert_allclose(out.coeffs[:, 2, 0],
                               u0.coeffs[:, 2, 0] * math.exp(-0.1 * 4 * 0.7), rtol=1e-14)


def test_linear_exact_zero_path_is_heat(lat32):
    u0 = smooth_field(lat32, seed=14)
    out = _linear_exact(u0, np.array([0.8, 0.0]), 0.1, 0.0, 0.5)
    heat = u0.coeffs * np.exp(-0.1 * lat32.ksq * 0.5)
    np.testing.assert_allclose(out.coeffs, np.where(lat32.active, heat, 0.0), atol=1e-15)


def test_linear_exact_modulus_path_independent(lat32):
    u0 = smooth_field(lat32, seed=15)
    a = _linear_exact(u0, np.array([0.8, 0.0]), 0.1, 2.3, 0.5)
    b = _linear_exact(u0, np.array([0.8, 0.0]), 0.1, -7.7, 0.5)
    np.testing.assert_allclose(np.abs(a.coeffs), np.abs(b.coeffs), atol=1e-14)


# ---------------------------------------------------------------------------
# paired stopping monitor

def _monitor_tau_R(traj_n: Trajectory, traj_ref: Trajectory, r_threshold: float) -> float:
    """First time the paired H^2 integral h2_n + h2_ref reaches R, else the
    common horizon: the stop rule of two trajectories on one time grid, read
    from their `h2_int` series (left-endpoint quadrature, step boundaries)."""
    t_n, t_ref = traj_n.times, traj_ref.times
    if t_n.shape != t_ref.shape or not np.allclose(t_n, t_ref, rtol=0, atol=1e-12):
        raise ValueError("trajectories do not share a time grid")
    for t, h2_n, h2_ref in zip(t_n[1:], traj_n.series["h2_int"][1:],
                               traj_ref.series["h2_int"][1:]):
        if h2_n + h2_ref >= r_threshold:
            return float(t)
    return float(t_n[-1])


def _pair(lat32, xi_system, r_threshold):
    cfg_n = make_cfg(cutoff=4, t_end=0.03, h2_r=1e12)
    cfg_ref = make_cfg(cutoff=8, t_end=0.03, h2_r=1e12)
    u0 = random_h1_field(lat32, seed=16, k0=1.0)
    path = PathSpec(6, 0, 1)
    tn = integrate(cfg_n, xi_system, path, u0, store_every=10 ** 9)
    tr = integrate(cfg_ref, xi_system, path, u0, store_every=10 ** 9)
    return _monitor_tau_R(tn, tr, r_threshold)


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
        _monitor_tau_R(ta, tb, 1.0)


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
            assert _monitor_tau_R(traj, ref, r_threshold) == outcome.stop_times[n]
        if r_threshold == r_mid:
            assert outcome.stop_times[4] == ref.times[mid]
        else:
            assert all(t == pytest.approx(0.05) for t in outcome.stop_times.values())


@pytest.mark.parametrize("t_end", [0.0, 0.05])
def test_decay_study_errors_match_half_spectrum_definitions(t_end):
    # errors on the packed reference rows against ||u_ref - u_N||_H1^2 with
    # u_N carried onto the reference lattice, at each cutoff's stop; at
    # t_end 0 every error is taken at the start
    config = default_decay_config(**{
        "lattice": {"grid_n": 50}, "physics": {"t_end": t_end, "dt": 0.005},
        "galerkin": {"cutoffs": [4, 6, 8], "n_ref": 16}, "ensemble": {"n_paths": 1}})
    lattice, system, u0 = studies.prepare(config)
    path = config.path_spec(0, system.n_wiener)
    lattices = {n: config.cutoff_lattice(n) for n in (4, 6, 8)} | {16: lattice}
    trajs = {n: integrate(config.stepper_config(n), system, path, transfer(u0, lat),
                          check_stability=False) for n, lat in lattices.items()}
    ref = trajs.pop(16)
    # R is the smallest cutoff's paired integral at a mid-run step
    mid = len(ref.times) // 2
    r_mid = float(trajs[4].series["h2_int"][mid] + ref.series["h2_int"][mid]) or 1.0
    outcome = studies.decay_study(
        config.with_overrides({"monitors": {"h2_r": r_mid}})).outcomes[0]
    assert outcome.stop_times[4] == ref.times[mid]
    if t_end == 0.0:
        assert outcome.stop_times == {4: 0.0, 6: 0.0, 8: 0.0}
    for n, traj in trajs.items():
        state, = (s for s in traj.states if s.t == outcome.stop_times[n])
        ref_state, = (s for s in ref.states if s.t == outcome.stop_times[n])
        expected = sobolev_norm_sq(
            state_field(ref_state) - transfer(state_field(state), lattice), 1.0)
        assert outcome.errors_sq[n] == pytest.approx(expected, rel=1e-13)
    tail = sobolev_norm_sq(galerkin_complement(state_field(ref.final), 8), 1.0)
    assert outcome.ref_tail_sq == pytest.approx(tail, rel=1e-13)


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


def test_stepper_refuses_gevrey_weight_beyond_double_range(off_system):
    # 40 * 16 = 640 is within exp_guard 650, but the squared Gevrey-H^2 weight
    # exp(2 * 640 + 4 ln 16) is not a double: config.validate's rule
    cfg = StepperConfig(nu=0.05, dt=0.5, t_end=30, cutoff=16, phi_cap=40, convection=False)
    with pytest.raises(ValueError, match="double range"):
        _Stepper(cfg, off_system, build_lattice(2, 50))
    with pytest.raises(ValueError, match="exp_guard"):
        _Stepper(dataclasses.replace(cfg, phi_cap=41), off_system, build_lattice(2, 50))
    _Stepper(dataclasses.replace(cfg, phi_cap=21), off_system, build_lattice(2, 50))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_observable_raises(lat32, off_system):
    # finite coefficients whose squared modulus overflows; convection off, so
    # the coefficients stay finite and only the observable guard can fire
    cfg = make_cfg(cutoff=4, convection=False)
    stepper = _Stepper(cfg, off_system, lat32)
    stack = PathStack(initial_state(single_mode_field(lat32, (1, 0), (0.0, 1e200)), cfg), 1,
                      stepper)
    assert _advance(stack, stepper, np.zeros((1, 0))) == [0]
    assert stack.failed[0].startswith("non-finite l2_sq")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_convection_raises(lat32, off_system):
    # the same shear mode with convection on: (u.grad)u is zero, but the
    # divergence-form products u_j u_m overflow, and the step must end the
    # path with a non-finite record rather than carry an inf
    cfg = make_cfg(cutoff=4)
    stepper = _Stepper(cfg, off_system, lat32)
    stack = PathStack(initial_state(single_mode_field(lat32, (1, 0), (0.0, 1e200)), cfg), 1,
                      stepper)
    assert _advance(stack, stepper, np.zeros((1, 0))) == [0]
    assert stack.failed[0].startswith("non-finite coefficient")


# ---------------------------------------------------------------------------
# linear oracle: chunks of paths against one integration per path and level

def _oracle_reference(config):
    """Per-path strong and modulus errors of the linear oracle, by one
    one-path `PathStack` per path and dt level, stepped through `_advance` on
    that level's bridge refinement of the path's base block and measured on
    the packed ball; and the strong errors by their half-spectrum definition."""
    lattice, system, u0 = studies.prepare(config)
    xi = np.asarray(system.xi.vectors[0])
    nu, t_end, dt0 = config["physics.nu"], config["physics.t_end"], config["physics.dt"]
    levels = config["oracle.refinements"] + 1
    n_paths = config["ensemble.n_paths"]
    strong, modulus, half_strong = np.zeros((3, n_paths, levels))
    for i in range(n_paths):
        path = config.path_spec(i, system.n_wiener)
        block = increments(path, 0.0, dt0, round(t_end / dt0))
        for lvl in range(levels):
            cfg = dataclasses.replace(config.stepper_config(config["galerkin.n_ref"]),
                                      dt=dt0 / 2**lvl)
            stepper = _Stepper(cfg, system, lattice)
            start = initial_state(u0, cfg)
            stack = PathStack(start, 1, stepper)
            for dw in block.increments:
                _advance(stack, stepper, dw[None])
            final = stack.c[0]
            exact, heat = (_linear_exact(state_field(start), xi, nu, w, t_end)
                           for w in (float(block.increments[:, 0].sum()), 0.0))
            diff = final - pack_ball(exact.coeffs, lattice, cfg.cutoff)
            strong[i, lvl] = math.sqrt(stepper.observables(diff, 0.0)["l2_sq"])
            modulus[i, lvl] = float(np.abs(np.abs(final) - np.abs(
                pack_ball(heat.coeffs, lattice, cfg.cutoff))).max())
            half_strong[i, lvl] = math.sqrt(sobolev_norm_sq(state_field(stack.state(0))
                                                            - exact, 0.0))
            if lvl + 1 < levels:
                block = refine(block, 2)
    return strong, modulus, half_strong


def _small_oracle_config():
    return default_oracle_config(physics={"t_end": 0.1}, ensemble={"n_paths": 3},
                                 oracle={"refinements": 2})


def test_linear_oracle_chunks_match_per_path_integration():
    config = _small_oracle_config()
    strong, modulus, half_strong = _oracle_reference(config)
    result = studies.linear_oracle_study(config)
    assert result.nonfinite == {}
    assert result.strong_errors == list(np.mean(strong, axis=0))
    assert result.modulus_errors == list(np.mean(modulus, axis=0))
    # the ball's sums are the half-spectrum norm, summed in another order
    np.testing.assert_allclose(strong, half_strong, rtol=1e-13, atol=0)


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
    strong, modulus, _ = _oracle_reference(config)
    monkeypatch.setattr(studies, "refine_paths", refine_nan)
    # one chunk of three paths, and chunks of one and two on two workers
    for workers in (1, 2):
        result = studies.linear_oracle_study(
            config.with_overrides({"ensemble": {"workers": workers}}))
        assert list(result.nonfinite) == [1]
        assert result.nonfinite[1] == "non-finite coefficient at t=0.01 (step 4, dt=0.0025)"
        assert result.strong_errors == list(np.mean(strong[[0, 2]], axis=0))
        assert result.modulus_errors == list(np.mean(modulus[[0, 2]], axis=0))
