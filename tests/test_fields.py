import math

import numpy as np
import pytest

from conftest import rough_field, smooth_field
from stochns.fields import (GevreyOverflowError, GevreyWeight,
                            LatticeMismatchError, SpectralField,
                            galerkin_complement, galerkin_project,
                            gevrey_apply, gevrey_sobolev_norm, hermitize,
                            leray_project, random_field, random_h1_field,
                            single_mode_field, sobolev_norm,
                            sobolev_norm_sq, stokes_power, transfer,
                            validate_physical, weighted_inner, zero_field)
from stochns.lattice import build_lattice


# ---------------------------------------------------------------------------
# Leray projector

def test_leray_annihilates_gradient_fields(lat16):
    # u_hat parallel to k at every mode -> pure gradient -> projected to zero
    rng = np.random.default_rng(0)
    phases = rng.standard_normal(lat16.shape) + 1j * rng.standard_normal(lat16.shape)
    coeffs = lat16.k * hermitize(lat16, np.broadcast_to(phases, (2,) + lat16.shape))
    f = SpectralField(lat16, np.where(lat16.active, coeffs, 0.0))
    p = leray_project(f)
    assert np.abs(p.coeffs).max() <= 1e-13 * max(np.abs(f.coeffs).max(), 1.0)


def test_leray_fixes_solenoidal_fields(lat16):
    u = smooth_field(lat16, seed=1)
    p = leray_project(u)
    assert np.abs(p.coeffs - u.coeffs).max() <= 1e-13 * np.abs(u.coeffs).max()


def test_leray_hand_example(lat16):
    # d=2, k=(1,0), u_hat=(1,1) -> (0,1)
    f = single_mode_field(lat16, (1, 0), (1.0, 1.0), solenoidal=False)
    p = leray_project(f)
    np.testing.assert_allclose(p.coeffs[:, 1, 0], [0.0, 1.0], atol=1e-15)


def test_leray_idempotent(lat32):
    f = random_field(lat32, np.random.default_rng(2), solenoidal=False)
    p1 = leray_project(f)
    p2 = leray_project(p1)
    scale = sobolev_norm(p1, 0.0)
    assert sobolev_norm(p2 - p1, 0.0) <= 1e-13 * scale


def test_leray_preserves_hermitian_symmetry(lat16):
    f = random_field(lat16, np.random.default_rng(3), solenoidal=False)
    assert validate_physical(leray_project(f)).ok(1e-13)


# ---------------------------------------------------------------------------
# Galerkin projections

def test_galerkin_single_mode(lat16):
    f = single_mode_field(lat16, (3, 0), (0.0, 1.0))
    kept = galerkin_project(f, 5)
    tail = galerkin_complement(f, 5)
    assert np.array_equal(kept.coeffs, f.coeffs)
    assert np.abs(tail.coeffs).max() == 0.0


def test_galerkin_partition(lat32):
    f = rough_field(lat32, seed=4)
    p = galerkin_project(f, 6)
    q = galerkin_complement(f, 6)
    assert np.array_equal(p.coeffs + q.coeffs, f.coeffs)


@pytest.mark.parametrize("cutoff", [2, 4, 8])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_mode_trading_exact(lat16, cutoff, r):
    # both inequalities hold exactly, not just within tolerance
    f = rough_field(lat16, seed=5)
    for s in {r, min(r + 0.5, 2.0), min(r + 1.5, 2.0), 2.0}:
        pn = galerkin_project(f, cutoff)
        qn = galerkin_complement(f, cutoff)
        assert sobolev_norm_sq(pn, s) <= cutoff ** (2 * (s - r)) * sobolev_norm_sq(pn, r)
        assert sobolev_norm_sq(qn, r) <= float(cutoff) ** (2 * (r - s)) * sobolev_norm_sq(qn, s)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
def test_projector_continuity_constant_one_exact(lat16, r):
    f = rough_field(lat16, seed=6)
    for cutoff in (2, 4, 8):
        assert sobolev_norm_sq(galerkin_project(f, cutoff), r) <= sobolev_norm_sq(f, r)
        assert sobolev_norm_sq(galerkin_complement(f, cutoff), r) <= sobolev_norm_sq(f, r)


def test_pn_qn_orthogonality_weighted(lat32):
    x = rough_field(lat32, seed=7)
    y = rough_field(lat32, seed=8)
    w = GevreyWeight(s=1.0, r=0.0, phi=0.1)
    for r in (0.0, 0.5, 1.0):
        inner = weighted_inner(galerkin_project(x, 7), galerkin_complement(y, 7),
                               r=r, w=w)
        assert abs(inner) <= 1e-13 * sobolev_norm_sq(x, r)


def test_projection_identity_pythagoras(lat32):
    # ||P^N f^N - P^n f^n||^2 = ||Q^n P^N f^N||^2 + ||P^n (f^N - f^n)||^2, N >= n
    f_big = galerkin_project(rough_field(lat32, seed=9), 10)
    f_small = galerkin_project(rough_field(lat32, seed=10), 4)
    lhs = sobolev_norm_sq(f_big - f_small, 1.0)
    rhs = (sobolev_norm_sq(galerkin_complement(f_big, 4), 1.0)
           + sobolev_norm_sq(galerkin_project(f_big, 4) - f_small, 1.0))
    assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1e-30)


# ---------------------------------------------------------------------------
# Stokes powers and Gevrey multipliers

def test_stokes_power_zero_is_identity(lat16):
    f = smooth_field(lat16, seed=11)
    assert np.array_equal(stokes_power(f, 0.0).coeffs, f.coeffs)


def test_stokes_power_half_on_34_mode(lat16):
    f = single_mode_field(lat16, (3, 4), (4.0, -3.0))
    s = stokes_power(f, 0.5)
    np.testing.assert_allclose(s.coeffs[:, 3, 4], 5.0 * f.coeffs[:, 3, 4], rtol=1e-14)


def test_stokes_half_composes_to_full(lat32):
    f = smooth_field(lat32, seed=12)
    a = stokes_power(stokes_power(f, 0.5), 0.5)
    b = stokes_power(f, 1.0)
    assert sobolev_norm(a - b, 0.0) <= 1e-12 * sobolev_norm(b, 0.0)


def test_gevrey_identity_and_scalar(lat16):
    f = smooth_field(lat16, seed=13)
    w0 = GevreyWeight(s=1.0, r=0.0, phi=0.0)
    assert np.array_equal(gevrey_apply(f, w0).coeffs, f.coeffs)
    g = gevrey_apply(single_mode_field(lat16, (2, 0), (0.0, 1.0)),
                     GevreyWeight(s=1.0, r=0.0, phi=0.1))
    np.testing.assert_allclose(g.coeffs[1, 2, 0], math.exp(0.2), rtol=1e-14)


def test_gevrey_commutes_with_stokes(lat32):
    f = smooth_field(lat32, seed=14)
    w = GevreyWeight(s=1.0, r=0.0, phi=0.2)
    a = gevrey_apply(stokes_power(f, 0.75), w)
    b = stokes_power(gevrey_apply(f, w), 0.75)
    assert sobolev_norm(a - b, 0.0) <= 1e-13 * sobolev_norm(b, 0.0)


def test_gevrey_apply_requires_r_zero(lat16):
    with pytest.raises(ValueError):
        gevrey_apply(smooth_field(lat16), GevreyWeight(s=1.0, r=1.0, phi=0.1))


def test_gevrey_overflow_flagged(lat32):
    f = smooth_field(lat32, seed=15)
    with pytest.raises(GevreyOverflowError):
        gevrey_apply(f, GevreyWeight(s=1.0, r=0.0, phi=60.0))
    with pytest.raises(GevreyOverflowError):
        gevrey_sobolev_norm(f, GevreyWeight(s=1.0, r=1.0, phi=60.0))


# ---------------------------------------------------------------------------
# norms

def test_h1_norm_two_mode_pair(lat16):
    c = np.array([0.0, 2.0 + 1.0j])
    f = single_mode_field(lat16, (2, 0), c)
    expected = 2 * 4 * np.sum(np.abs(c) ** 2)
    assert abs(sobolev_norm_sq(f, 1.0) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
def test_stokes_power_norm_identity(lat32, r):
    # ||A^r f||_{L^2} = ||f||_{H^{2r}}
    f = smooth_field(lat32, seed=16)
    lhs = sobolev_norm(stokes_power(f, r), 0.0)
    rhs = sobolev_norm(f, 2 * r)
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_gevrey_norm_reduces_to_sobolev_at_zero_width(lat32):
    f = rough_field(lat32, seed=17)
    w = GevreyWeight(s=1.0, r=1.0, phi=0.0)
    assert abs(gevrey_sobolev_norm(f, w) - sobolev_norm(f, 1.0)) <= 1e-12 * sobolev_norm(f, 1.0)


def test_gevrey_norm_matches_direct_weighting(lat16):
    f = smooth_field(lat16, seed=18)
    w = GevreyWeight(s=1.0, r=1.0, phi=0.3)
    direct = sobolev_norm(gevrey_apply(f, GevreyWeight(s=1.0, r=0.0, phi=0.3)), 1.0)
    assert abs(gevrey_sobolev_norm(f, w) - direct) <= 1e-12 * direct


# ---------------------------------------------------------------------------
# validation report and constructors

def test_validate_physical_clean_field(lat32):
    rep = validate_physical(smooth_field(lat32, seed=19))
    assert rep.ok(1e-13)
    assert rep.divergence_residual is not None


def test_validate_physical_detects_mean_violation(lat16):
    coeffs = np.zeros((2,) + lat16.shape, dtype=complex)
    coeffs[0, 0, 0] = 1.0
    rep = validate_physical(SpectralField(lat16, coeffs))
    assert rep.mean_residual == 1.0
    assert not rep.ok(1e-13)


def test_gradient_field_after_leray_has_zero_divergence(lat16):
    rng = np.random.default_rng(20)
    phases = rng.standard_normal(lat16.shape) + 1j * rng.standard_normal(lat16.shape)
    coeffs = lat16.k * hermitize(lat16, np.broadcast_to(phases, (2,) + lat16.shape))
    f = SpectralField(lat16, np.where(lat16.active, coeffs, 0.0))
    rep = validate_physical(leray_project(f))
    assert rep.divergence_residual <= 1e-13


def test_random_h1_field_hits_target_enstrophy(lat64):
    f = random_h1_field(lat64, seed=21, beta=2.2, k0=1.7)
    assert abs(sobolev_norm_sq(f, 1.0) - 1.7) <= 1e-12
    assert validate_physical(f).ok(1e-12)
    # spectrum follows the power law exactly
    mod = np.sqrt(np.sum(np.abs(f.coeffs) ** 2, axis=0))
    sel = lat64.active & (mod > 0)
    ratio = mod[sel] * lat64.abs_k[sel] ** 2.2
    assert ratio.std() / ratio.mean() <= 1e-12


def test_field_immutability(lat16):
    f = smooth_field(lat16, seed=22)
    with pytest.raises(ValueError):
        f.coeffs[0, 1, 1] = 99.0


def test_lattice_mismatch_raises(lat16, lat32):
    with pytest.raises(LatticeMismatchError):
        zero_field(lat16) + zero_field(lat32)


def test_restrict_to_copies_shared_modes(lat16, lat32):
    f = smooth_field(lat32, seed=23)
    g = transfer(f, lat16)
    assert validate_physical(g).ok(1e-13)
    for kv in [(1, 0), (3, -2), (-5, 7), (7, 7)]:
        src = f.coeffs[:, kv[0] % 32, kv[1] % 32]
        dst = g.coeffs[:, kv[0] % 16, kv[1] % 16]
        np.testing.assert_array_equal(src, dst)
    # the coarse lattice's Nyquist rows cannot hold f's modes there
    assert np.abs(g.coeffs[:, 8, :]).max() == 0.0 and np.abs(g.coeffs[:, :, 8]).max() == 0.0


@pytest.mark.parametrize("dim,fine,coarse,cutoff", [(2, 32, 14, 4), (2, 64, 28, 8),
                                                    (3, 16, 10, 3)])
def test_transfer_round_trip_is_identity_on_ball(dim, fine, coarse, cutoff):
    lat_f, lat_c = build_lattice(dim, fine), build_lattice(dim, coarse)
    f = galerkin_project(rough_field(lat_f, seed=40), cutoff)
    down = transfer(f, lat_c)
    back = transfer(down, lat_f)
    np.testing.assert_array_equal(back.coeffs, f.coeffs)
    # the other way round: extend first, restrict back
    g = galerkin_project(rough_field(lat_c, seed=41), cutoff)
    np.testing.assert_array_equal(transfer(transfer(g, lat_f), lat_c).coeffs, g.coeffs)


@pytest.mark.parametrize("dim,fine,coarse,cutoff", [(2, 32, 14, 4), (3, 16, 10, 3)])
def test_transfer_preserves_norms_and_invariants(dim, fine, coarse, cutoff):
    lat_f, lat_c = build_lattice(dim, fine), build_lattice(dim, coarse)
    f = galerkin_project(rough_field(lat_f, seed=42), cutoff)
    down = transfer(f, lat_c)
    for g, target in ((down, lat_c), (transfer(down, lat_f), lat_f)):
        assert g.lattice == target and g.solenoidal
        rep = validate_physical(g)
        assert rep.ok(1e-14), rep
        for r in (0.0, 0.5, 1.0, 2.0):
            assert sobolev_norm_sq(g, r) == pytest.approx(sobolev_norm_sq(f, r), rel=1e-14)


def test_transfer_rejects_other_dimension(lat16, lat3d):
    with pytest.raises(LatticeMismatchError, match="dimension"):
        transfer(smooth_field(lat16, seed=43), lat3d)


def test_gevrey_weight_multiplier_clamps(lat16):
    w = GevreyWeight(s=1.0, r=1.0, phi=2.0, exp_guard=5.0)
    abs_k = np.array([0.0, 2.0, 100.0])
    m = w.multiplier(abs_k)
    assert m[0] == 0.0  # zero mode carries no |k|^r weight
    assert m[1] == pytest.approx(2.0 * np.exp(4.0))
    assert m[2] == pytest.approx(100.0 * np.exp(5.0))  # exponent clamped at the guard
