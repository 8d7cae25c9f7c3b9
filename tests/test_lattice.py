import numpy as np
import pytest

from conftest import full_grid_k
from stochns.lattice import build_lattice, galerkin_grid, get_lattice


def full_grid_masks(dim, n):
    """Full-grid |k|^2, active and dealias masks, built from the definitions."""
    k = full_grid_k(dim, n)
    ksq = np.sum(k * k, axis=0)
    active = (ksq > 0) & ~np.any(np.abs(k) == n // 2, axis=0)
    return k, ksq, active, active & np.all(3 * np.abs(k) <= n - 1, axis=0)


def test_rejects_bad_grids():
    with pytest.raises(ValueError):
        build_lattice(2, 7)
    with pytest.raises(ValueError):
        build_lattice(2, 6)
    with pytest.raises(ValueError):
        build_lattice(4, 16)


def test_2d8_mode_census():
    lat = build_lattice(2, 8)
    assert lat.n_modes == 64
    assert not lat.active[0, 0]  # zero mode excluded
    # shells 1..5 are nonempty
    kappa = lat.kappa[lat.ksq > 0]
    for shell in range(1, 6):
        assert np.count_nonzero(kappa == shell) > 0


def test_2d8_dealias_is_exactly_two():
    lat = build_lattice(2, 8)
    expected = lat.active & (np.abs(lat.k[0]) <= 2) & (np.abs(lat.k[1]) <= 2)
    assert np.array_equal(lat.dealias_mask, expected)


def test_3d8_closed_under_negation():
    lat = build_lattice(3, 8)
    k, ksq, active, dealias = full_grid_masks(3, 8)
    # every active mode's negation is active with matching |k|
    neg = tuple((-k) % 8)
    assert np.array_equal(active, active[neg]) and np.array_equal(ksq, ksq[neg])
    # the lattice stores the columns k_last = 0..n/2 of that grid
    half = (..., slice(0, 5))
    assert lat.shape == (8, 8, 5) and lat.grid_shape == (8, 8, 8)
    assert np.array_equal(lat.k, k[half]) and np.array_equal(lat.ksq, ksq[half])
    assert np.array_equal(lat.active, active[half])
    assert np.array_equal(lat.dealias_mask, dealias[half])
    # negated_index addresses -k on the full grid
    assert np.all((k[(slice(None),) + lat.negated_index] + lat.k) % 8 == 0)


def test_component_range():
    for n in (8, 16, 100):
        lat = build_lattice(2, n)
        assert lat.k.min() == -(n // 2 - 1)
        assert lat.k.max() == n // 2


def test_nyquist_rows_inactive():
    lat = build_lattice(2, 16)
    nyq = np.any(np.abs(lat.k) == 8, axis=0)
    assert not lat.active[nyq].any()


@pytest.mark.parametrize("dim,n", [(2, 8), (2, 16), (2, 64), (3, 8), (3, 16)])
def test_dealias_fraction(dim, n):
    lat = build_lattice(dim, n)
    dealias = full_grid_masks(dim, n)[3]
    frac = dealias.sum() / lat.n_modes
    assert frac >= (2.0 / 3.0) ** dim - dim / n
    # the multiplicity counts every full-grid mode once
    assert np.sum(lat.multiplicity * lat.dealias_mask) == dealias.sum()
    assert np.sum(lat.multiplicity) == lat.n_modes


def test_ball_mask_euclidean():
    lat = build_lattice(2, 16)
    ball = lat.ball_mask(3)
    assert ball[3, 0] and ball[0, 3] and ball[2, 2]  # |k| = 3, 3, 2.83
    assert not ball[3, 1]  # |k| = sqrt(10) > 3
    with pytest.raises(ValueError):
        lat.ball_mask(0)


def test_cache_returns_equal_lattice():
    assert get_lattice(2, 16) is get_lattice(2, 16)
    assert get_lattice(2, 16) == build_lattice(2, 16)


def test_integer_frequencies_exact_on_awkward_grids():
    # fftfreq-based construction truncates 7/24*24 = 6.999... to 6; guard against it
    for n in (24, 40, 56, 100):
        lat = build_lattice(2, n)
        col = lat.k[0][:, 0]
        expect = np.arange(n)
        expect[expect > n // 2] -= n
        expect[expect == -(n // 2)] = n // 2
        assert np.array_equal(col, expect)


def test_galerkin_grid_values():
    # 64 skips 194 = 2*97, which transforms slowly
    assert [galerkin_grid(n) for n in (4, 8, 32, 64)] == [14, 28, 98, 196]
    assert galerkin_grid(1) == 8
    with pytest.raises(ValueError):
        galerkin_grid(0)


@pytest.mark.parametrize("cutoff", [1, 4, 8, 12, 16, 24, 32, 64])
def test_galerkin_grid_dealiases_the_ball(cutoff):
    grid = galerkin_grid(cutoff)
    assert grid % 2 == 0 and grid >= 3 * cutoff + 1
    # every ball mode survives the 2/3-rule mask of that grid
    lat = get_lattice(2, grid)
    assert np.all(lat.dealias_mask[lat.ball_mask(cutoff)])
