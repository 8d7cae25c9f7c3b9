import sys
import threading

import numpy as np
import pytest

from conftest import full_grid_k, full_spectrum, smooth_field, unpack
from stochns.fields import (GevreyWeight, LatticeMismatchError, SpectralField,
                            galerkin_project, pack_ball, random_field,
                            single_mode_field, sobolev_norm, sobolev_norm_sq,
                            validate_physical, weighted_inner, zero_field)
from stochns.lattice import build_lattice, galerkin_grid
from stochns.nonlinear import (_leray, convect, convect_plan, dealias, from_physical,
                               to_physical, transport, transport_multipliers)


def shear_field(lattice):
    """u = (sin x2, 0): self-cancelling under advection."""
    coeffs = np.zeros((2,) + lattice.shape, dtype=complex)
    coeffs[0, 0, 1] = -0.5j  # its partner k = (0, -1) holds the conjugate
    return SpectralField(lattice, coeffs, solenoidal=True)


# ---------------------------------------------------------------------------
# transforms

def test_shear_field_grid_values(lat32):
    x2 = 2 * np.pi * np.arange(32) / 32
    expected = np.stack([np.broadcast_to(np.sin(x2), (32, 32)), np.zeros((32, 32))])
    assert np.abs(to_physical(shear_field(lat32)) - expected).max() <= 1e-15


def test_round_trip(lat32):
    f = smooth_field(lat32, seed=1)
    back = from_physical(lat32, to_physical(f))
    assert np.abs(back - f.coeffs).max() <= 1e-12 * np.abs(f.coeffs).max()


def test_parseval(lat32):
    f = smooth_field(lat32, seed=2)
    phys = to_physical(f)
    energy_phys = float(np.mean(np.sum(phys ** 2, axis=0)))
    energy_spec = sobolev_norm_sq(f, 0.0)
    assert abs(energy_phys - energy_spec) <= 1e-12 * energy_spec


# ---------------------------------------------------------------------------
# dealias

def test_dealias(lat16):
    inside = single_mode_field(lat16, (2, 1), (1.0, -2.0))
    assert np.array_equal(dealias(inside).coeffs, inside.coeffs)
    outside = single_mode_field(lat16, (6, 0), (0.0, 1.0))
    assert np.abs(dealias(outside).coeffs).max() == 0.0
    f = smooth_field(lat16, seed=3)
    assert np.array_equal(dealias(dealias(f)).coeffs, dealias(f).coeffs)


# ---------------------------------------------------------------------------
# convection

def test_convect_zero(lat16):
    z = zero_field(lat16)
    assert np.abs(convect(z, z).coeffs).max() == 0.0


def test_convect_shear_is_self_cancelling(lat32):
    u = shear_field(lat32)
    out = convect(u, u)
    assert np.abs(out.coeffs).max() <= 1e-12


@pytest.mark.parametrize("grid", [16, 32])
def test_energy_orthogonality_2d(grid):
    lat = build_lattice(2, grid)
    u = smooth_field(lat, seed=grid)
    ip = weighted_inner(convect(u, u), u)
    assert abs(ip) <= 1e-11 * sobolev_norm_sq(u, 1.0)


def test_energy_orthogonality_3d(lat3d):
    u = smooth_field(lat3d, seed=4, delta=0.5)
    ip = weighted_inner(convect(u, u), u)
    assert abs(ip) <= 1e-11 * sobolev_norm_sq(u, 1.0)


def test_convect_bilinearity(lat32):
    u = smooth_field(lat32, seed=5)
    w = smooth_field(lat32, seed=6)
    v = smooth_field(lat32, seed=7)
    a, b = 0.7, -1.3
    lhs = convect(a * u + b * w, v)
    rhs = a * convect(u, v) + b * convect(w, v)
    assert sobolev_norm(lhs - rhs, 0.0) <= 1e-12 * max(sobolev_norm(rhs, 0.0), 1e-30)


def test_convect_output_clean(lat32):
    u = smooth_field(lat32, seed=8)
    out = convect(u, u)
    rep = validate_physical(out)
    assert rep.ok(1e-12)
    assert np.abs(out.coeffs[:, ~lat32.dealias_mask]).max() == 0.0


def advective_reference(u, v):
    """P((u . grad) v) in advective form with complex transforms on the full
    grid, dealiased; returns the stored half of the result."""
    lat = u.lattice
    n, axes = lat.grid_n, tuple(range(-lat.dim, 0))
    k = full_grid_k(lat.dim, n)
    ksq = np.sum(k * k, axis=0)
    mask = (ksq > 0) & np.all(3 * np.abs(k) <= n - 1, axis=0)
    u_phys = np.fft.ifftn(full_spectrum(u), axes=axes).real
    grad = np.fft.ifftn(1j * k[None] * full_spectrum(v)[:, None], axes=axes).real
    out = np.fft.fftn(np.einsum("j...,mj...->m...", u_phys, grad), axes=axes)
    out = np.where(mask, out * lat.n_modes, 0.0)
    out = out - k * np.einsum("j...,j...->...", k, out) / np.where(ksq > 0, ksq, 1)
    return out[..., :n // 2 + 1]


@pytest.mark.parametrize("dim,grid", [(2, 32), (3, 16)])
@pytest.mark.parametrize("same", [True, False], ids=["u-is-v", "u-not-v"])
def test_convect_matches_advective_form(dim, grid, same):
    lat = build_lattice(dim, grid)
    u = smooth_field(lat, seed=14, delta=0.3)
    v = u if same else smooth_field(lat, seed=15, delta=0.3)
    ref = advective_reference(u, v)
    out = convect(u, v).coeffs
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dim,grid", [(2, 32), (3, 16)])
def test_convect_symmetric_path_matches_general(dim, grid):
    lat = build_lattice(dim, grid)
    u = smooth_field(lat, seed=16, delta=0.3)
    copy = SpectralField(lat, u.coeffs.copy(), solenoidal=True)
    sym = convect(u, u).coeffs
    general = convect(u, copy).coeffs
    assert np.abs(sym - general).max() <= 1e-14 * np.abs(general).max()


@pytest.mark.parametrize("dim,grid", [(2, 32), (3, 16)])
def test_convect_output_hermitian_and_dealiased(dim, grid):
    lat = build_lattice(dim, grid)
    u = smooth_field(lat, seed=17, delta=0.3)
    for v in (u, smooth_field(lat, seed=18, delta=0.3)):
        out = convect(u, v)
        # the stored half is that of a real field: Hermitian on k_last = 0
        scale = np.abs(out.coeffs).max()
        assert validate_physical(out).hermitian_residual <= 1e-15 * scale
        rebuilt = full_spectrum(out)[..., :grid // 2 + 1]
        assert np.abs(rebuilt - out.coeffs).max() <= 1e-15 * scale
        assert np.all(out.coeffs[:, ~lat.dealias_mask] == 0.0)


def unpruned_reference(lat, u_half, v_half):
    """P div(u (x) v) with numpy's full irfftn/rfftn on the whole half grid,
    the dealias mask applied to the product spectrum: the transforms that
    `convect` prunes, done in full."""
    axes = tuple(range(-lat.dim, 0))
    u = np.fft.irfftn(u_half, s=lat.grid_shape, axes=axes)
    v = np.fft.irfftn(v_half, s=lat.grid_shape, axes=axes)
    prod_hat = np.fft.rfftn(u[:, None] * v[None], axes=axes) * lat.n_modes
    k = lat.k.astype(np.float64)
    out = np.where(lat.dealias_mask, np.einsum("j...,jm...->m...", 1j * k, prod_hat), 0.0)
    return out - k * np.einsum("j...,j...->...", k, out) / np.maximum(lat.ksq, 1)


def ball_field(lat, cutoff, seed):
    """Solenoidal field on the whole Galerkin ball, not dealiased first."""
    f = random_field(lat, np.random.default_rng(seed), envelope=lambda k: np.exp(-0.3 * k))
    return galerkin_project(f, cutoff)


@pytest.mark.parametrize("dim,grid,cutoff", [
    (2, 100, 32), (2, galerkin_grid(32), 32), (3, 16, 4), (2, 100, None), (3, 16, None)],
    ids=["2d-100-ball32", "2d-galerkin-ball32", "3d-16-ball4", "2d-100-field", "3d-16-field"])
@pytest.mark.parametrize("same", [True, False], ids=["u-is-v", "u-not-v"])
def test_pruned_convect_matches_unpruned_transforms(dim, grid, cutoff, same):
    lat = build_lattice(dim, grid)
    if cutoff is None:   # SpectralFields: whole active set in, dealias mask out
        u = smooth_field(lat, seed=19, delta=0.3)
        v = u if same else smooth_field(lat, seed=20, delta=0.3)
        out = convect(u, v).coeffs
        ref = unpruned_reference(lat, u.coeffs, v.coeffs)
    else:                # packed Galerkin balls, as the stepper calls it
        u = ball_field(lat, cutoff, seed=19)
        v = u if same else ball_field(lat, cutoff, seed=20)
        plan = convect_plan(lat, cutoff)
        cu = pack_ball(u.coeffs, lat, cutoff)
        cv = cu if same else pack_ball(v.coeffs, lat, cutoff)
        out = unpack(convect(cu, cv, plan), lat, cutoff)
        ref = np.where(lat.ball_mask(cutoff), unpruned_reference(lat, u.coeffs, v.coeffs), 0.0)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dim,grid,cutoff", [(2, 32, 8), (3, 16, 4)])
@pytest.mark.parametrize("same", [True, False], ids=["u-is-v", "u-not-v"])
def test_convect_commutes_with_translation(dim, grid, cutoff, same):
    # u(x - a) has coefficients exp(-i a.k) u_hat(k), and convection commutes
    # with the shift for any a, also one that is no multiple of the grid step
    lat = build_lattice(dim, grid)
    plan = convect_plan(lat, cutoff)
    (phase,), _ = transport_multipliers(lat, [np.array([0.37, -1.21, 0.83][:dim])])
    shift = np.exp(-1j * phase[lat.ball_mask(cutoff)])
    cu = pack_ball(ball_field(lat, cutoff, seed=23).coeffs, lat, cutoff)
    cv = cu if same else pack_ball(ball_field(lat, cutoff, seed=24).coeffs, lat, cutoff)
    su = shift * cu
    sv = su if same else shift * cv
    ref = shift * convect(cu, cv, plan)
    assert np.abs(ref).max() > 0.0
    assert np.abs(convect(su, sv, plan) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_ball_modes_outside_dealias_mask_get_no_convection():
    # grid == 3 N: the ball's axis modes |k_i| = N fail the 2/3 mask
    lat = build_lattice(3, 48)
    plan = convect_plan(lat, 16)
    outside = ~lat.dealias_mask[lat.ball_mask(16)]
    assert outside.any()
    u = ball_field(lat, 16, seed=21)
    cu = pack_ball(u.coeffs, lat, 16)
    assert np.all(np.abs(cu[:, outside]).max(axis=0) > 0.0)   # they do hold input
    out = convect(cu, cu, plan)
    assert np.all(out[:, outside] == 0.0)
    ref = pack_ball(unpruned_reference(lat, u.coeffs, u.coeffs), lat, 16)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dim,grid,cutoff", [(2, 28, 8), (2, 100, 32), (2, 200, 64),
                                             (3, 48, 16)])
def test_leray_is_the_einsum_projection_bitwise(dim, grid, cutoff):
    # convect's accumulators are summed up from +0, so they hold no -0; the
    # zeros here are +0 too
    plan = convect_plan(build_lattice(dim, grid), cutoff)
    rng = np.random.default_rng(24)
    acc = np.empty((dim, plan.k.shape[1]), dtype=np.complex128)
    acc.real, acc.imag = rng.standard_normal((2,) + acc.shape)
    acc[:, ::7] = 0.0
    expected = acc - plan.k_over_ksq * np.einsum("j...,j...->...", plan.k, acc)
    _leray(plan, acc)
    assert acc.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim,grid,cutoff", [(2, 100, 32), (3, 16, 4)])
def test_convect_views_of_one_array_take_the_symmetric_path(dim, grid, cutoff):
    # the stepper's call: c[p] twice gives two view objects of the same data
    lat = build_lattice(dim, grid)
    plan = convect_plan(lat, cutoff)
    c = np.stack([pack_ball(ball_field(lat, cutoff, seed=s).coeffs, lat, cutoff)
                  for s in (22, 23)])
    u = c[1]
    sym = convect(u, u, plan)
    assert np.array_equal(convect(c[1], c[1], plan), sym)
    general = convect(u, u.copy(), plan)   # the dim^2 products: other roundoff
    assert not np.array_equal(general, sym)
    assert np.abs(general - sym).max() <= 1e-14 * np.abs(general).max()


def test_convect_threads_sharing_a_plan_match_sequential_calls():
    # more threads than cores on one cached plan, each on its own input: a
    # work array kept between calls would mix their values
    lat = build_lattice(3, 48)
    plan = convect_plan(lat, 16)
    inputs = [pack_ball(ball_field(lat, 16, seed=s).coeffs, lat, 16) for s in (24, 25, 26)]
    expected = [convect(c, c, plan) for c in inputs]
    start = threading.Barrier(len(inputs))
    results = [[] for _ in inputs]

    def run(i):
        start.wait()
        for _ in range(6):
            results[i].append(convect(inputs[i], inputs[i], plan))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert len(got) == 6
        assert all(np.array_equal(r, want) for r in got)


def test_convect_lattice_mismatch(lat16, lat32):
    with pytest.raises(LatticeMismatchError):
        convect(smooth_field(lat16), smooth_field(lat32))


# ---------------------------------------------------------------------------
# transport

def test_transport_perpendicular_xi_annihilates(lat16):
    f = single_mode_field(lat16, (2, 0), (0.0, 1.0))
    out = transport(np.array([0.0, 1.0]), f)  # xi . k = 0
    assert np.abs(out.coeffs).max() == 0.0


def test_transport_multiplier(lat16):
    f = single_mode_field(lat16, (2, 0), (0.0, 1.0))
    out = transport(np.array([1.0, 0.0]), f)
    np.testing.assert_allclose(out.coeffs[:, 2, 0], 2j * f.coeffs[:, 2, 0], rtol=1e-14)


@pytest.mark.parametrize("r,phi", [(0.0, 0.0), (0.0, 0.1), (1.0, 0.0), (1.0, 0.1)])
def test_transport_skew_adjoint_in_weighted_products(lat32, r, phi):
    u = smooth_field(lat32, seed=9)
    tu = transport(np.array([0.9, -0.4]), u)
    w = GevreyWeight(s=1.0, phi=phi)
    assert abs(weighted_inner(tu, u, r=r, w=w)) <= 1e-12 * weighted_inner(u, u, r=r, w=w)


def test_transport_preserves_solenoidal(lat32):
    u = smooth_field(lat32, seed=10)
    out = transport(np.array([0.3, 0.8]), u)
    assert validate_physical(out).ok(1e-12)


# ---------------------------------------------------------------------------
# Ito corrector: the multiplier -1/2 sum_k (xi_k . k)^2 of transport_multipliers

def test_corrector_single_mode(lat16):
    _, once = transport_multipliers(lat16, [np.array([1.0, 0.0])])
    assert once[2, 0] == -2.0
    # the multiplier is a sum over the family: a repeated vector doubles it
    _, twice = transport_multipliers(lat16, [np.array([1.0, 0.0])] * 2)
    np.testing.assert_array_equal(twice, 2 * once)


def test_transport_multipliers_refuse_wrong_dimension(lat16):
    with pytest.raises(ValueError, match="constant xi must have shape \\(2,\\)"):
        transport_multipliers(lat16, [np.array([1.0, 0.0, 0.0])])


def test_corrector_perpendicular_family(lat16):
    f = single_mode_field(lat16, (3, 0), (0.0, 1.0))
    _, corrector = transport_multipliers(lat16, [np.array([0.0, 0.5]), np.array([0.0, -1.0])])
    assert np.abs(corrector * f.coeffs).max() == 0.0


def test_corrector_empty_family(lat16):
    phases, corrector = transport_multipliers(lat16, [])
    assert phases == [] and corrector.shape == lat16.shape and not corrector.any()


def test_corrector_is_dissipative(lat32):
    u = smooth_field(lat32, seed=12)
    _, corrector = transport_multipliers(lat32, [np.array([0.8, 0.1]), np.array([-0.2, 0.5])])
    assert corrector.max() <= 0.0
    assert weighted_inner(u.with_coeffs(corrector * u.coeffs), u) <= 0.0


@pytest.mark.parametrize("r,phi", [(0.0, 0.0), (0.5, 0.1), (1.0, 0.1)])
def test_cancellation_identity(lat32, r, phi):
    # <A^r e (xi.grad)(xi.grad) u, A^r e u> + ||A^r e (xi.grad) u||^2 = 0
    u = smooth_field(lat32, seed=13)
    xi = np.array([0.9, 0.4])
    w = GevreyWeight(s=1.0, phi=phi)
    t2 = transport(xi, transport(xi, u))
    t1 = transport(xi, u)
    lhs = weighted_inner(t2, u, r=r, w=w) + weighted_inner(t1, t1, r=r, w=w)
    assert abs(lhs) <= 1e-12 * weighted_inner(u, u, r=r, w=w)
