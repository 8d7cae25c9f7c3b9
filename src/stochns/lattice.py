"""Wavevector lattice for the periodic torus.

Fields are real, so their spectra are Hermitian (u_hat[-k] = conj(u_hat[k]))
and only half of the modes are stored: the `rfftn` layout, shape
(n, ..., n, n//2+1), with the first axes in numpy FFT order and the last
axis holding k_last = 0..n/2. The Nyquist slot is labelled +n/2, so
components span (-n/2, n/2]. Nyquist rows and the zero mode are flagged
inactive: they are forced to zero everywhere so that the active mode set is
closed under k -> -k and all fields are mean-free. Each stored mode off the
k_last = 0 plane stands for itself and its conjugate partner, which the
Parseval `multiplicity` counts. This module alone decides that layout.
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
    k : int64 array, shape (dim,) + shape; integer wavevector components in
        (-grid_n/2, grid_n/2], the last one in [0, grid_n/2]
    ksq : int64 array of |k|^2 per stored mode
    abs_k : float64 array of |k|
    active : bool mask; False at the zero mode and on Nyquist rows
    dealias_mask : bool mask; True iff active and every |k_i| < grid_n/3
    multiplicity : float64 array; the number of full-grid modes a stored
        mode stands for in Parseval sums: 2 for 0 < k_last < grid_n/2, 1 on
        the k_last = 0 plane and on the (inactive) Nyquist column

    Typical use is ``build_lattice(dim, n)`` rather than direct construction.
    """

    dim: int
    grid_n: int
    k: np.ndarray = field(repr=False, compare=False)
    ksq: np.ndarray = field(repr=False, compare=False)
    abs_k: np.ndarray = field(repr=False, compare=False)
    active: np.ndarray = field(repr=False, compare=False)
    dealias_mask: np.ndarray = field(repr=False, compare=False)
    multiplicity: np.ndarray = field(repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the stored half spectrum per component."""
        return (self.grid_n,) * (self.dim - 1) + (self.grid_n // 2 + 1,)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        """Physical grid shape, the `s=` of the real transforms."""
        return (self.grid_n,) * self.dim

    @property
    def n_modes(self) -> int:
        """Points of the physical grid, the normalisation of the transforms."""
        return self.grid_n**self.dim

    @property
    def kappa(self) -> np.ndarray:
        """Shell index round(|k|) per mode."""
        return np.rint(self.abs_k).astype(np.int64)

    @property
    def dealias_limit(self) -> int:
        """Largest per-axis component kept by the dealias mask."""
        return (self.grid_n - 1) // 3

    def ball_mask(self, cutoff: int) -> np.ndarray:
        """Active modes with |k| <= cutoff (the Galerkin ball)."""
        if cutoff < 1:
            raise ValueError(f"Galerkin cutoff must be >= 1, got {cutoff}")
        return self.active & (self.ksq <= cutoff * cutoff)

    @property
    def negated_index(self) -> tuple[np.ndarray, ...]:
        """Index into a full (grid_n,) * dim grid of -k, for every stored mode k.

        On the k_last = 0 plane it is also an index into the stored half,
        where both k and -k are kept.
        """
        return tuple((-self.k) % self.grid_n)

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
    axes = np.meshgrid(*([freq] * (dim - 1)), freq[:grid_n // 2 + 1], indexing="ij")
    k = np.stack(axes).astype(np.int64)
    ksq = np.sum(k * k, axis=0)
    abs_k = np.sqrt(ksq.astype(np.float64))

    nyquist = np.any(np.abs(k) == grid_n // 2, axis=0)
    active = (ksq > 0) & ~nyquist
    # |k_i| < n/3 strictly: a product of two kept modes then aliases only onto
    # masked modes, so retained quadratic convolutions are exact on every grid
    # (<= n/3 is equivalent except when 3 divides n, where it admits a corner alias)
    dealias = active & np.all(3 * np.abs(k) <= grid_n - 1, axis=0)
    paired = (k[-1] > 0) & (k[-1] < grid_n // 2)
    multiplicity = np.where(paired, 2.0, 1.0)

    for arr in (k, ksq, abs_k, active, dealias, multiplicity):
        arr.flags.writeable = False
    return WaveLattice(dim=dim, grid_n=grid_n, k=k, ksq=ksq, abs_k=abs_k,
                       active=active, dealias_mask=dealias, multiplicity=multiplicity)


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
