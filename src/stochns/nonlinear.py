"""Pseudospectral nonlinear operators: convection, transport, Ito corrector.

Fields are real and store the Hermitian half of their spectrum (the last
axis up to n/2), which is exactly what `irfftn` reads and `rfftn` writes, so
every transform is a real one on the stored coefficients. Convection takes
the divergence form div(u (x) v), exact for solenoidal u: the products
u_j v_m are formed on the native grid and truncated with the lattice's
2/3-rule mask, which is exact for quadratic products of masked inputs.
Transport coefficients are constant vectors xi_k only: they never touch
physical space and act as the exact diagonal multiplier i (xi . k), which
commutes with the Stokes and Gevrey multipliers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np
import scipy.fft as _fft

from .fields import SpectralField, _leray_raw, require_same_lattice
from .lattice import WaveLattice


@lru_cache(maxsize=32)
def _convect_multiplier(lattice: WaveLattice) -> np.ndarray:
    """Cached i*k * n_modes on the dealias mask's leading columns (last axis
    up to dealias_limit, past which every mode is masked)."""
    cut = (..., slice(lattice.dealias_limit + 1))
    ik = 1j * lattice.k[cut] * (lattice.n_modes * lattice.dealias_mask[cut])
    ik.flags.writeable = False
    return ik


def to_physical(f: SpectralField) -> np.ndarray:
    """Grid values of the field; u_hat are spectral coefficients (fft / n^d)."""
    return _fft.irfftn(f.coeffs, s=f.lattice.grid_shape) * f.lattice.n_modes


def from_physical(lattice: WaveLattice, values: np.ndarray) -> np.ndarray:
    """Spectral coefficients of real grid values (inverse of to_physical).

    The trailing `dim` axes are spatial, so both scalar fields (n, ..., n)
    and component stacks (dim, n, ..., n) are accepted; the result holds
    the half spectrum over those axes.
    """
    return _fft.rfftn(values, s=lattice.grid_shape) / lattice.n_modes


def dealias(f: SpectralField) -> SpectralField:
    """Zero all modes outside the 2/3-rule mask."""
    return f.with_coeffs(np.where(f.lattice.dealias_mask, f.coeffs, 0.0))


def convect(u: SpectralField, v: SpectralField) -> SpectralField:
    """Leray-projected advection P((u . grad) v), dealiased.

    Divergence form: P(div(u (x) v)), out_m = sum_j i k_j (u_j v_m)^. It
    equals the advective form only when u is solenoidal; otherwise the result
    also holds v div u. Inputs are expected dealiased and divergence-free,
    and then the form is exact on every retained mode. u and v come from
    `irfftn`, the products go through one batched `rfftn`, and when u and v
    hold the same coefficient array only the dim(dim+1)/2 symmetric products
    u_j u_m are formed. Only the columns up to `dealias_limit` are computed;
    the rest of the output is zero padding.
    """
    require_same_lattice(u, v)
    lat = u.lattice
    dim = lat.dim
    ik = _convect_multiplier(lat)
    u_phys = _fft.irfftn(u.coeffs, s=lat.grid_shape)
    symmetric = u.coeffs is v.coeffs  # then u_j u_m once per pair j <= m
    v_phys = u_phys if symmetric else _fft.irfftn(v.coeffs, s=lat.grid_shape)
    pairs = list(combinations_with_replacement(range(dim), 2) if symmetric
                 else product(range(dim), repeat=2))
    prod = np.empty((len(pairs),) + lat.grid_shape)
    for p, (j, m) in enumerate(pairs):
        np.multiply(u_phys[j], v_phys[m], out=prod[p])
    # ik carries n_modes (the two unscaled inverse transforms) and the mask
    prod_hat = _fft.rfftn(prod, s=lat.grid_shape)[..., :ik.shape[-1]]
    acc = np.zeros((dim,) + prod_hat.shape[1:], dtype=np.complex128)
    for p, (j, m) in enumerate(pairs):  # each acc[m] sums over j in order
        acc[m] += ik[j] * prod_hat[p]
        if symmetric and j != m:
            acc[j] += ik[m] * prod_hat[p]
    out = np.zeros((dim,) + lat.shape, dtype=np.complex128)
    out[..., :acc.shape[-1]] = _leray_raw(lat, acc)
    return SpectralField(lat, out, solenoidal=True)


def transport_multipliers(lattice: WaveLattice, xis) -> tuple[list[np.ndarray], np.ndarray]:
    """Phases (xi_k . k) per constant vector and the Ito corrector multiplier.

    The corrector is the real nonpositive array -1/2 sum_k (xi_k . k)^2; an
    empty family gives no phases and a zero corrector.
    """
    kf = lattice.k.astype(np.float64)
    phases = []
    corrector = np.zeros(lattice.shape)
    for xi in xis:
        vec = np.asarray(xi, dtype=np.float64)
        if vec.shape != (lattice.dim,):
            raise ValueError(f"constant xi must have shape ({lattice.dim},)")
        phase = np.einsum("j,j...->...", vec, kf)
        phases.append(phase)
        corrector -= 0.5 * phase ** 2
    return phases, corrector


def transport(xi, u: SpectralField) -> SpectralField:
    """(xi . grad) u for a constant vector xi: the exact diagonal multiplier
    i (xi . k), no transform; the result stays solenoidal when u is."""
    lat = u.lattice
    (phase,), _ = transport_multipliers(lat, [xi])
    return u.with_coeffs(np.where(lat.active, u.coeffs * (1j * phase), 0.0))


def ito_corrector(xis, u: SpectralField) -> SpectralField:
    """Stratonovich-to-Ito drift 1/2 sum_k (xi_k . grad)(xi_k . grad) u.

    For constant coefficients this is the real nonpositive multiplier
    -1/2 sum_k (xi_k . k)^2 (dissipative); an empty family gives zero.
    """
    lat = u.lattice
    _, mult = transport_multipliers(lat, xis)
    return u.with_coeffs(np.where(lat.active, u.coeffs * mult, 0.0))
