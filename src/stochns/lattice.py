"""Wavevector lattice for the periodic torus.

Integer wavevectors k live on the numpy FFT layout; the Nyquist slot is
relabelled +n/2 so components span (-n/2, n/2]. Nyquist rows and the zero
mode are flagged inactive: they are forced to zero everywhere so that the
active mode set is closed under k -> -k and all fields are mean-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len


@dataclass(frozen=True)
class WaveLattice:
    """Precomputed wavevector bookkeeping for a dim-periodic grid.

    Attributes
    ----------
    dim : 2 or 3
    grid_n : points per axis (even, >= 8)
    k : int64 array, shape (dim, grid_n, ..., grid_n); integer wavevector
        components in (-grid_n/2, grid_n/2]
    ksq : int64 array of |k|^2 per mode
    abs_k : float64 array of |k|
    active : bool mask; False at the zero mode and on Nyquist rows
    dealias_mask : bool mask; True iff active and every |k_i| < grid_n/3

    Typical use is ``build_lattice(dim, n)`` rather than direct construction.
    """

    dim: int
    grid_n: int
    k: np.ndarray = field(repr=False, compare=False)
    ksq: np.ndarray = field(repr=False, compare=False)
    abs_k: np.ndarray = field(repr=False, compare=False)
    active: np.ndarray = field(repr=False, compare=False)
    dealias_mask: np.ndarray = field(repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.grid_n,) * self.dim

    @property
    def n_modes(self) -> int:
        return self.grid_n**self.dim

    @property
    def kappa(self) -> np.ndarray:
        """Shell index round(|k|) per mode."""
        return np.rint(self.abs_k).astype(np.int64)

    @property
    def max_kappa(self) -> int:
        return int(self.kappa[self.ksq > 0].max())

    @property
    def dealias_limit(self) -> int:
        """Largest per-axis component kept by the dealias mask."""
        return (self.grid_n - 1) // 3

    @property
    def shells(self) -> dict[int, np.ndarray]:
        """Map kappa -> flat indices of nonzero modes with round(|k|) = kappa."""
        return _shell_index(self)

    def ball_mask(self, cutoff: int) -> np.ndarray:
        """Active modes with |k| <= cutoff (the Galerkin ball)."""
        if cutoff < 1:
            raise ValueError(f"Galerkin cutoff must be >= 1, got {cutoff}")
        return self.active & (self.ksq <= cutoff * cutoff)

    def reflect(self, arr: np.ndarray) -> np.ndarray:
        """Map mode k to mode -k over the trailing spatial axes."""
        out = arr
        for ax in range(arr.ndim - self.dim, arr.ndim):
            out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WaveLattice)
            and self.dim == other.dim
            and self.grid_n == other.grid_n
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.grid_n))


def _int_frequencies(grid_n: int) -> np.ndarray:
    """Integer FFT frequencies in numpy layout with the Nyquist slot labelled +n/2."""
    freq = np.arange(grid_n, dtype=np.int64)
    freq[freq > grid_n // 2] -= grid_n
    freq[freq == -(grid_n // 2)] = grid_n // 2
    return freq


def build_lattice(dim: int, grid_n: int) -> WaveLattice:
    """Build the wavevector lattice for a dim-D periodic grid of grid_n points per axis.

    grid_n must be even and >= 8 so Nyquist handling and the 2/3-rule mask
    are well defined.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if grid_n < 8 or grid_n % 2 != 0:
        raise ValueError(f"grid_n must be even and >= 8, got {grid_n}")

    freq = _int_frequencies(grid_n)
    axes = np.meshgrid(*([freq] * dim), indexing="ij")
    k = np.stack(axes).astype(np.int64)
    ksq = np.sum(k * k, axis=0)
    abs_k = np.sqrt(ksq.astype(np.float64))

    nyquist = np.any(np.abs(k) == grid_n // 2, axis=0)
    active = (ksq > 0) & ~nyquist
    # |k_i| < n/3 strictly: a product of two kept modes then aliases only onto
    # masked modes, so retained quadratic convolutions are exact on every grid
    # (<= n/3 is equivalent except when 3 divides n, where it admits a corner alias)
    dealias = active & np.all(3 * np.abs(k) <= grid_n - 1, axis=0)

    for arr in (k, ksq, abs_k, active, dealias):
        arr.flags.writeable = False
    return WaveLattice(dim=dim, grid_n=grid_n, k=k, ksq=ksq, abs_k=abs_k,
                       active=active, dealias_mask=dealias)


@lru_cache(maxsize=32)
def _cached_lattice(dim: int, grid_n: int) -> WaveLattice:
    return build_lattice(dim, grid_n)


def get_lattice(dim: int, grid_n: int) -> WaveLattice:
    """Cached build_lattice; lattices are immutable so sharing is safe."""
    return _cached_lattice(dim, grid_n)


def galerkin_grid(cutoff: int) -> int:
    """Smallest fast transform grid on which a Galerkin run at `cutoff` is exact.

    A product of two modes with |k| <= N has components |k_i| <= 2N; on
    M >= 3N+1 points its aliases shift by M and land at |k_i| >= N+1, off the
    ball (Orszag's 2/3 rule), and every ball mode passes the dealias mask. The
    result is the smallest even such M that `scipy.fft.next_fast_len` keeps
    (sizes like 194 = 2*97 transform slowly), and at least 8.
    """
    if cutoff < 1:
        raise ValueError(f"Galerkin cutoff must be >= 1, got {cutoff}")
    grid = max(8, 3 * cutoff + 1)
    grid += grid % 2
    while next_fast_len(grid) != grid:
        grid += 2
    return grid


def _shell_index(lat: WaveLattice) -> dict[int, np.ndarray]:
    kappa = lat.kappa.ravel()
    nonzero = lat.ksq.ravel() > 0
    shells: dict[int, np.ndarray] = {}
    for kap in range(1, int(kappa[nonzero].max()) + 1):
        idx = np.flatnonzero(nonzero & (kappa == kap))
        if idx.size:
            shells[kap] = idx
    return shells
