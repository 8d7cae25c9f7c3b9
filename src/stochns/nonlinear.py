"""Pseudospectral nonlinear operators: convection, transport, Ito corrector.

Products are formed in physical space on the native grid and truncated with
the lattice's 2/3-rule mask, which is exact for quadratic products of masked
inputs. Transport coefficients are constant vectors xi_k only: they never
touch physical space and act as the exact diagonal multiplier i (xi . k),
which commutes with the Stokes and Gevrey multipliers.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np
import scipy.fft as _fft

from .fields import SpectralField, _leray_raw, require_same_lattice
from .lattice import WaveLattice

_local = threading.local()


class TransformWorkspace:
    """Per-thread scratch buffer for the physical-space product stage.

    One buffer per (thread, lattice); reuse avoids reallocating the product
    array on every nonlinear evaluation. Lattice-sized, so products formed
    here are exact for dealiased inputs under the 2/3-rule mask.
    """

    def __init__(self, lattice: WaveLattice):
        self.lattice = lattice
        self.product = np.empty((lattice.dim,) + lattice.shape, dtype=np.float64)

    @classmethod
    def for_lattice(cls, lattice: WaveLattice) -> "TransformWorkspace":
        cache = getattr(_local, "workspaces", None)
        if cache is None:
            cache = _local.workspaces = {}
        key = (lattice.dim, lattice.grid_n)
        ws = cache.get(key)
        if ws is None or ws.lattice != lattice:
            ws = cache[key] = cls(lattice)
        return ws


def _spatial_axes(lattice: WaveLattice) -> tuple[int, ...]:
    return tuple(range(1, lattice.dim + 1))


@lru_cache(maxsize=32)
def _convect_arrays(lattice: WaveLattice) -> tuple[np.ndarray, np.ndarray]:
    """Cached (i*k, n_modes * dealias_mask) multiplier arrays."""
    ik = 1j * lattice.k.astype(np.float64)
    scale = lattice.n_modes * lattice.dealias_mask.astype(np.float64)
    ik.flags.writeable = False
    scale.flags.writeable = False
    return ik, scale


def to_physical(f: SpectralField) -> np.ndarray:
    """Grid values of the field; u_hat are spectral coefficients (fft / n^d)."""
    lat = f.lattice
    phys = _fft.ifftn(f.coeffs, axes=_spatial_axes(lat)) * lat.n_modes
    return np.ascontiguousarray(phys.real)


def from_physical(lattice: WaveLattice, values: np.ndarray) -> np.ndarray:
    """Spectral coefficients of grid values (inverse of to_physical).

    The trailing `dim` axes are spatial, so both scalar fields (n, ..., n)
    and component stacks (dim, n, ..., n) are accepted.
    """
    axes = tuple(range(values.ndim - lattice.dim, values.ndim))
    return _fft.fftn(values, axes=axes) / lattice.n_modes


def dealias(f: SpectralField) -> SpectralField:
    """Zero all modes outside the 2/3-rule mask."""
    return f.with_coeffs(np.where(f.lattice.dealias_mask, f.coeffs, 0.0))


def convect(u: SpectralField, v: SpectralField) -> SpectralField:
    """Leray-projected advection P((u . grad) v), dealiased.

    Advective form: the physical-space products u_j * d_j v_m are summed per
    component, transformed back, masked, and projected. Inputs are expected
    dealiased and divergence-free. All dim^2 gradient transforms are batched
    into one call.
    """
    require_same_lattice(u, v)
    lat = u.lattice
    dim = lat.dim
    axes = tuple(range(-dim, 0))
    ik, dealias_scale = _convect_arrays(lat)
    u_phys = _fft.ifftn(u.coeffs, axes=axes).real
    grad_hat = ik[None, :] * v.coeffs[:, None]  # grad_hat[m, j] = i k_j v_hat[m]
    grad = _fft.ifftn(grad_hat, axes=axes).real
    prod = TransformWorkspace.for_lattice(lat).product
    for m in range(dim):
        np.multiply(u_phys[0], grad[m, 0], out=prod[m])
        for j in range(1, dim):
            prod[m] += u_phys[j] * grad[m, j]
    out_hat = _fft.fftn(prod, axes=axes)
    out_hat *= dealias_scale  # restores the two unscaled inverse transforms, masks
    return SpectralField(lat, _leray_raw(lat, out_hat), solenoidal=True)


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
