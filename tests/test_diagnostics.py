import numpy as np
import pytest

from conftest import (exponential_shell_field, field_spectrum, full_spectrum, smooth_field,
                      state_field)
from stochns.diagnostics import (FitRefusedError, ShellSpectrum, check_cancellation,
                                 check_convective_bounds, ensemble_mean,
                                 fit_exp_rate, fit_radius, shell_spectrum)
from stochns.fields import (GevreyWeight, galerkin_complement, gevrey_apply, parseval_weight,
                            random_field, random_h1_field, single_mode_field, sobolev_norm)
from stochns.lattice import build_lattice, galerkin_grid
from stochns.sde import StepperConfig, initial_state


# ---------------------------------------------------------------------------
# shell spectra

def test_shell_spectrum_single_mode(lat64):
    f = single_mode_field(lat64, (3, 0), (0.0, 1.0))
    spec = field_spectrum(f, t=0.25)
    nonzero = spec.kappa[spec.max_modulus > 0]
    assert list(nonzero) == [3]
    assert spec.t == 0.25


def test_shell_spectrum_flat_for_unit_modulus_field(lat32):
    # every active mode at unit modulus: shell maxima are exactly flat
    rng = np.random.default_rng(1)
    f = random_field(lat32, rng, solenoidal=False)
    mod = np.sqrt(np.sum(np.abs(f.coeffs) ** 2, axis=0))
    scale = np.where(mod > 0, 1.0 / np.where(mod > 0, mod, 1.0), 0.0)
    f = f.with_coeffs(f.coeffs * scale)
    spec = field_spectrum(f)
    # flat across every shell of the ball
    populated = spec.max_modulus > 0
    assert np.allclose(spec.max_modulus[populated], 1.0)
    assert populated.sum() >= 20


def test_shell_energy_accounts_for_all_modes(lat32):
    f = smooth_field(lat32, seed=2)
    spec = field_spectrum(f)
    total = np.sum(np.abs(full_spectrum(f)) ** 2)
    assert abs(spec.energy.sum() - total) <= 1e-12 * total


def _half_spectrum_reference(u, t=0.0):
    """The shell spectrum of a half-spectrum field, binned over every nonzero
    mode of the lattice: the field-based spectrum the ball spectrum replaced."""
    lat = u.lattice
    mod_sq = np.sum(u.coeffs.real**2 + u.coeffs.imag**2, axis=0).ravel()
    kappa_all = lat.kappa.ravel()
    nonzero = lat.ksq.ravel() > 0
    kmax = int(kappa_all[nonzero].max())
    counts = np.bincount(kappa_all[nonzero], minlength=kmax + 1)
    mode_energy = parseval_weight(lat, 0.0).ravel() * mod_sq
    energy = np.bincount(kappa_all[nonzero], weights=mode_energy[nonzero], minlength=kmax + 1)
    peak = np.zeros(kmax + 1)
    np.maximum.at(peak, kappa_all[nonzero], mod_sq[nonzero])
    present = np.flatnonzero(counts[1:]) + 1
    return ShellSpectrum(t=t, kappa=present.astype(np.int64),
                         max_modulus=np.sqrt(peak[present]), energy=energy[present],
                         dealias_kappa=lat.dealias_limit)


@pytest.mark.parametrize("dim,grid,cutoff",
                         [(2, 100, 32), (3, 48, 16), (2, galerkin_grid(32), 32)],
                         ids=["2d-100-ball32", "3d-48-ball16", "2d-galerkin-ball32"])
def test_ball_spectrum_is_the_half_spectrum_one_up_to_n(dim, grid, cutoff):
    # the ball spectrum keeps the half-spectrum rows kappa <= N bit for bit;
    # the rows above N, which it drops, were all zero
    lat = build_lattice(dim, grid)
    state = initial_state(random_h1_field(lat, seed=5, k0=1.0),
                          StepperConfig(nu=0.05, dt=1e-3, t_end=0.01, cutoff=cutoff))
    spec = shell_spectrum(state.c, lat, cutoff, t=0.5)
    ref = _half_spectrum_reference(state_field(state), t=0.5)
    kept = ref.kappa <= cutoff
    assert spec.kappa.tolist() == list(range(1, cutoff + 1)) == ref.kappa[kept].tolist()
    assert spec.max_modulus.tobytes() == ref.max_modulus[kept].tobytes()
    assert spec.energy.tobytes() == ref.energy[kept].tobytes()
    assert spec.t == 0.5 and spec.dealias_kappa == ref.dealias_kappa
    assert not np.any(ref.max_modulus[~kept]) and not np.any(ref.energy[~kept])


# ---------------------------------------------------------------------------
# radius fits

@pytest.mark.parametrize("delta", [0.05, 0.2, 0.4, 0.7, 1.0])
@pytest.mark.parametrize("grid", [16, 32, 64])
def test_fit_radius_recovers_synthetic_delta(grid, delta):
    lat = build_lattice(2, grid)
    f = exponential_shell_field(lat, delta)
    fit = fit_radius(field_spectrum(f))
    assert abs(fit.decay_rate - delta) <= 1e-6
    assert fit.r_squared > 0.999


def test_fit_radius_refuses_below_floor(lat64):
    f = exponential_shell_field(lat64, 0.3)
    tiny = f.with_coeffs(f.coeffs * 1e-20)
    with pytest.raises(FitRefusedError):
        fit_radius(field_spectrum(tiny))


def test_fit_radius_gevrey_shift(lat64):
    # applying exp(+delta |k|) removes the decay: delta_hat drops by ~delta
    delta = 0.4
    f = exponential_shell_field(lat64, delta)
    before = fit_radius(field_spectrum(f)).decay_rate
    g = gevrey_apply(f, GevreyWeight(s=1.0, r=0.0, phi=delta))
    after = fit_radius(field_spectrum(g)).decay_rate
    assert abs(after - (before - delta)) <= 0.05


def test_fit_radius_excludes_dealias_boundary(lat32):
    f = exponential_shell_field(lat32, 0.3)
    fit = fit_radius(field_spectrum(f))
    assert fit.n_points <= int(0.9 * lat32.dealias_limit)


# ---------------------------------------------------------------------------
# Galerkin tail

def test_tail_monotone_in_cutoff(lat32):
    u = smooth_field(lat32, seed=6)
    tails = [sobolev_norm(galerkin_complement(u, n), 1.0) for n in (2, 4, 6, 8, 10)]
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))


# ---------------------------------------------------------------------------
# rate fits

def test_fit_exp_rate_exact():
    ns = [8, 12, 16, 24, 32]
    errs = [3.0 * np.exp(-0.6 * n) for n in ns]
    fit = fit_exp_rate(ns, errs)
    assert abs(fit.decay_rate - 0.6) <= 1e-9
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_exp_rate_constant_errors():
    fit = fit_exp_rate([8, 16, 32], [0.5, 0.5, 0.5])
    assert fit.decay_rate == pytest.approx(0.0)


def test_fit_exp_rate_with_jitter():
    rng = np.random.default_rng(7)
    ns = np.arange(6, 40, 2)
    true = 0.35
    errs = np.exp(-true * ns) * (1 + 0.1 * (2 * rng.random(ns.size) - 1))
    fit = fit_exp_rate(ns, errs)
    assert abs(fit.decay_rate - true) <= 0.15 * true
    assert 0.0 <= fit.r_squared <= 1.0


def test_fit_exp_rate_refusals():
    with pytest.raises(FitRefusedError):
        fit_exp_rate([8, 16], [0.1, 0.01])
    with pytest.raises(FitRefusedError):
        fit_exp_rate([8, 16, 32], [0.1, 0.0, -0.1])


# ---------------------------------------------------------------------------
# cancellation and convective-bound reports

def test_cancellation_single_mode_arithmetic(lat16):
    # k=(2,0), xi=(1,0): inner product -4 w and squared norm +4 w cancel exactly
    u = single_mode_field(lat16, (2, 0), (0.0, 1.0))
    res = check_cancellation(np.array([1.0, 0.0]), u, GevreyWeight(s=1, r=1, phi=0.1), r=0.5)
    assert res <= 1e-14


@pytest.mark.parametrize("grid", [16, 32])
def test_cancellation_constant_xi(grid):
    lat = build_lattice(2, grid)
    u = smooth_field(lat, seed=8)
    w = GevreyWeight(s=1.0, r=1.0, phi=0.1)
    for r in (0.0, 0.5, 1.0):
        assert check_cancellation(np.array([0.7, -0.2]), u, w, r) <= 1e-12


def test_cancellation_zero_xi(lat16):
    u = smooth_field(lat16, seed=9)
    assert check_cancellation(np.zeros(2), u, GevreyWeight(s=1, r=1, phi=0.0), 1.0) == 0.0


def test_convective_bounds_finite_and_stable():
    w = GevreyWeight(s=1.0, r=1.0, phi=0.1)
    r16 = check_convective_bounds(build_lattice(2, 16), 30, w, seed=10)
    r32 = check_convective_bounds(build_lattice(2, 32), 30, w, seed=10)
    for rep in (r16, r32):
        assert np.isfinite(rep.gevrey_trilinear) and rep.gevrey_trilinear > 0
        assert np.isfinite(rep.product_algebra) and rep.product_algebra > 0
    assert abs(r32.gevrey_trilinear - r16.gevrey_trilinear) <= 0.2 * r16.gevrey_trilinear
    assert abs(r32.product_algebra - r16.product_algebra) <= 0.2 * r16.product_algebra


def test_convective_bounds_sample_floor():
    with pytest.raises(ValueError):
        check_convective_bounds(build_lattice(2, 16), 5, GevreyWeight())


# ---------------------------------------------------------------------------
# ensemble statistics

def test_ensemble_mean_cases():
    mean, se = ensemble_mean([2.0, 2.0, 2.0])
    assert mean == 2.0 and se == 0.0
    mean, se = ensemble_mean([0.0, 2.0])
    assert mean == 1.0 and se == 1.0
    with pytest.raises(ValueError):
        ensemble_mean([1.0])


def test_ensemble_mean_large_sample():
    rng = np.random.default_rng(11)
    xs = rng.standard_normal(10000)
    mean, se = ensemble_mean(xs)
    assert abs(mean) <= 5 * se
    assert se == pytest.approx(1.0 / np.sqrt(10000), rel=0.1)
