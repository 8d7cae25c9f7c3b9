"""Spectral vector fields on the torus lattice and the diagonal operator algebra.

A SpectralField stores the complex Fourier coefficients u_hat of a real
mean-free vector field, one dim-vector per wavevector, on the lattice's
Hermitian half spectrum. Everything here is a Fourier multiplier (Leray
projector, Galerkin truncation, fractional Stokes powers, Gevrey weights) or
a Parseval sum, so all operations are pure and exact up to rounding. The
multipliers are even in k, so they act on the half alone; every Parseval sum
takes its per-mode weight from `parseval_weight`, which counts each stored
mode off the k_last = 0 plane twice. Coefficient arrays are frozen at
construction; operations return new fields.
`pack_ball` cuts the Galerkin ball |k| <= N out of a half spectrum into the
packed (dim, n_ball) rows that all Galerkin data takes from then on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import WaveLattice

_LOG_MAX_DOUBLE = 709.0  # exp() overflows just above this


class LatticeMismatchError(ValueError):
    """Raised when combining fields from different lattices."""


class GevreyOverflowError(OverflowError):
    """Gevrey exponent exceeds the configured guard: phi too large for this lattice."""


@dataclass(frozen=True)
class GevreyWeight:
    """Parameters of the multiplier |k|^r * exp(phi * |k|^(1/s)).

    s is the Gevrey index (s=1: real-analytic class), r the Sobolev corrector
    carried by weighted norms, phi the analyticity width. exp_guard caps the
    exponent before evaluation; exceeding it raises instead of silently
    producing inf.
    """

    s: float = 1.0
    r: float = 1.0
    phi: float = 0.0
    exp_guard: float = 650.0

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError(f"Gevrey index s must be > 0, got {self.s}")
        if self.r < 0 or self.phi < 0:
            raise ValueError("Sobolev corrector r and width phi must be >= 0")

    def exponent(self, abs_k: np.ndarray) -> np.ndarray:
        """phi * |k|^(1/s) per mode, unclamped."""
        if self.phi == 0.0:
            return np.zeros_like(abs_k)
        return self.phi * np.power(abs_k, 1.0 / self.s)

    def max_exponent(self, lattice: WaveLattice) -> float:
        kmax = float(lattice.abs_k.max())
        return float(self.phi * kmax ** (1.0 / self.s))


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a real mean-free vector field on the half
    spectrum, shape (dim,) + lattice.shape = (dim, n, ..., n, n//2+1).

    Only modes with k_last >= 0 are stored; u_hat[-k] = conj(u_hat[k]) gives
    the rest. Invariants (enforced by the constructors here, checked by
    validate_physical): Hermitian symmetry on the k_last = 0 plane, where
    both k and -k are stored, u_hat[0] == 0, Nyquist rows zero; if
    solenoidal, k . u_hat[k] == 0.
    """

    lattice: WaveLattice
    coeffs: np.ndarray = field(repr=False)
    solenoidal: bool = False

    def __post_init__(self):
        expected = (self.lattice.dim,) + self.lattice.shape
        if self.coeffs.shape != expected:
            raise ValueError(f"coeffs shape {self.coeffs.shape} != {expected}")
        if self.coeffs.dtype != np.complex128:
            object.__setattr__(self, "coeffs", self.coeffs.astype(np.complex128))
        self.coeffs.flags.writeable = False

    def with_coeffs(self, coeffs: np.ndarray, solenoidal: bool | None = None) -> "SpectralField":
        sol = self.solenoidal if solenoidal is None else solenoidal
        return SpectralField(self.lattice, coeffs, solenoidal=sol)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        require_same_lattice(self, other)
        return SpectralField(self.lattice, self.coeffs + other.coeffs,
                             solenoidal=self.solenoidal and other.solenoidal)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        require_same_lattice(self, other)
        return SpectralField(self.lattice, self.coeffs - other.coeffs,
                             solenoidal=self.solenoidal and other.solenoidal)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.lattice, self.coeffs * scalar, solenoidal=self.solenoidal)

    __rmul__ = __mul__


def zero_field(lattice: WaveLattice) -> SpectralField:
    return SpectralField(lattice, np.zeros((lattice.dim,) + lattice.shape, dtype=np.complex128),
                         solenoidal=True)


def require_same_lattice(f: SpectralField, g: SpectralField) -> None:
    if f.lattice != g.lattice:
        raise LatticeMismatchError(
            f"lattice mismatch: ({f.lattice.dim},{f.lattice.grid_n}) vs "
            f"({g.lattice.dim},{g.lattice.grid_n})")


# ---------------------------------------------------------------------------
# projectors and multipliers

@lru_cache(maxsize=64)
def _leray_arrays(lattice: WaveLattice) -> tuple[np.ndarray, ...]:
    """Cached (k/|k|^2, active-mask float) arrays of the Leray multiplier."""
    k_over_ksq = lattice.k / np.where(lattice.ksq > 0, lattice.ksq, 1).astype(np.float64)
    act = lattice.active.astype(np.float64)
    for arr in (k_over_ksq, act):
        arr.flags.writeable = False
    return k_over_ksq, act


def leray_project(f: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: u_hat -> u_hat - k (k.u_hat)/|k|^2."""
    lat = f.lattice
    k_over_ksq, act = _leray_arrays(lat)
    out = (f.coeffs - k_over_ksq * np.einsum("j...,j...->...", lat.k, f.coeffs)) * act
    return f.with_coeffs(out, solenoidal=True)


def galerkin_project(f: SpectralField, cutoff: int) -> SpectralField:
    """Keep exactly the modes with |k| <= cutoff."""
    mask = f.lattice.ball_mask(cutoff)
    return f.with_coeffs(np.where(mask, f.coeffs, 0.0))


def pack_ball(coeffs: np.ndarray, lattice: WaveLattice, cutoff: int) -> np.ndarray:
    """The Galerkin ball of half-spectrum coefficients (..., dim) + lattice.shape.

    Returns (..., dim, n_ball): the modes of `ball_mask(cutoff)` in storage
    (row-major) order of the half spectrum, the layout the stepper works on.
    """
    return coeffs[..., lattice.ball_mask(cutoff)]


def ball_mod_sq(c: np.ndarray) -> np.ndarray:
    """Per-mode squared modulus |c|^2 of packed (..., dim, n_ball) balls,
    summed over the components in np.sum(axis=-2)'s order, without its cost."""
    sq = c.real**2
    sq += c.imag**2
    mod = sq[..., 0, :] + sq[..., 1, :]
    for row in range(2, c.shape[-2]):
        mod += sq[..., row, :]
    return mod


def inner_ball(lattice: WaveLattice, cutoff: int, inner: int) -> np.ndarray:
    """Boolean mask over the rows of cutoff's packed ball: the modes |k| <= inner.

    Every lattice of more than 2 * inner points per axis stores those modes in
    one order (per axis non-negative components first, then negative ones),
    so the rows are inner's packed ball, in its order, on any such grid.
    """
    if not 1 <= inner <= cutoff:
        raise ValueError(f"inner cutoff {inner} is not in [1, {cutoff}]")
    return lattice.ksq[lattice.ball_mask(cutoff)] <= inner * inner


def galerkin_complement(f: SpectralField, cutoff: int) -> SpectralField:
    """The tail I - P^N: modes with |k| > cutoff."""
    mask = f.lattice.active & ~f.lattice.ball_mask(cutoff)
    return f.with_coeffs(np.where(mask, f.coeffs, 0.0))


def mode_weight(lattice: WaveLattice, r: float) -> np.ndarray:
    """|k|^(2r) per mode (zero on inactive modes), the Stokes multiplier A^r."""
    if r == 0.0:
        return lattice.active.astype(np.float64)
    w = np.zeros(lattice.shape, dtype=np.float64)
    act = lattice.active
    w[act] = np.power(lattice.ksq[act].astype(np.float64), r)
    return w


def stokes_power(f: SpectralField, r: float) -> SpectralField:
    """Fractional Stokes power: scale mode k by |k|^(2r); r=0 is the identity."""
    if r == 0.0:
        return f.with_coeffs(np.where(f.lattice.active, f.coeffs, 0.0))
    return f.with_coeffs(f.coeffs * mode_weight(f.lattice, r))


def gevrey_apply(f: SpectralField, w: GevreyWeight) -> SpectralField:
    """Apply the exponential multiplier exp(phi |k|^(1/s)); requires w.r == 0.

    Raises GevreyOverflowError when phi * max|k|^(1/s) exceeds the guard,
    signalling that phi is too large for this lattice.
    """
    if w.r != 0.0:
        raise ValueError("gevrey_apply expects a weight with r=0; use stokes_power for the Sobolev part")
    if w.phi == 0.0:
        return f.with_coeffs(np.where(f.lattice.active, f.coeffs, 0.0))
    if w.max_exponent(f.lattice) > w.exp_guard:
        raise GevreyOverflowError(
            f"Gevrey exponent {w.max_exponent(f.lattice):.1f} exceeds guard {w.exp_guard}")
    mult = np.exp(w.exponent(f.lattice.abs_k))
    out = np.where(f.lattice.active, f.coeffs * mult, 0.0)
    return f.with_coeffs(out)


# ---------------------------------------------------------------------------
# norms and inner products

def _mod_sq(coeffs: np.ndarray) -> np.ndarray:
    """Per-mode squared vector modulus |u_hat[k]|^2."""
    return np.sum(coeffs.real**2 + coeffs.imag**2, axis=0)


def parseval_weight(lattice: WaveLattice, r: float,
                    w: GevreyWeight | None = None) -> np.ndarray:
    """Per-mode weight of a Parseval sum over the stored half spectrum.

    multiplicity * |k|^(2r) (zero on inactive modes), times the squared
    Gevrey factor exp(2 phi |k|^(1/s)) when w has phi > 0; w.r is not read.
    Raises GevreyOverflowError when that factor leaves double range.
    """
    weight = lattice.multiplicity * mode_weight(lattice, r)
    if w is not None and w.phi > 0.0:
        top = w.max_exponent(lattice)
        if top > w.exp_guard or 2.0 * top > _LOG_MAX_DOUBLE - 30.0:
            raise GevreyOverflowError("squared Gevrey weight overflows double range")
        weight = weight * np.exp(2.0 * w.exponent(lattice.abs_k))
    return weight


def gevrey_range_error(phi: float, kmax: float, s: float, exp_guard: float) -> str | None:
    """Why the squared Gevrey-H^2 weight |k|^4 exp(2 phi |k|^(1/s)) cannot be
    evaluated up to |k| = kmax, or None when it can: the exponent
    phi kmax^(1/s) must stay within exp_guard and the weight in double range."""
    exponent = phi * kmax ** (1.0 / s)
    if exponent > exp_guard:
        return f"exponent {exponent:.1f} at |k|={kmax:g} exceeds gevrey.exp_guard={exp_guard}"
    log_weight = 2.0 * exponent + 4.0 * math.log(max(kmax, 1.0))
    if log_weight > _LOG_MAX_DOUBLE:
        return (f"the squared Gevrey weight at |k|={kmax:g} is exp({log_weight:.1f}), "
                f"beyond double range exp({_LOG_MAX_DOUBLE:g})")
    return None


def sobolev_norm_sq(f: SpectralField, r: float) -> float:
    """Squared homogeneous H^r norm: sum_k |k|^(2r) |u_hat[k]|^2."""
    return float(np.sum(parseval_weight(f.lattice, r) * _mod_sq(f.coeffs)))


def sobolev_norm(f: SpectralField, r: float) -> float:
    return math.sqrt(sobolev_norm_sq(f, r))


def gevrey_sobolev_norm_sq(f: SpectralField, w: GevreyWeight) -> float:
    """Squared Gevrey norm ||exp(phi A^(1/2s)) f||_{H^r}^2.

    A value that leaves double range, through the weight or through the
    field's own moduli, raises GevreyOverflowError: never a silent inf or NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(parseval_weight(f.lattice, w.r, w) * _mod_sq(f.coeffs)))
    if not math.isfinite(total):
        raise GevreyOverflowError(f"Gevrey-H^r norm overflows double range ({total})")
    return total


def weighted_inner(f: SpectralField, g: SpectralField, r: float = 0.0,
                   w: GevreyWeight | None = None) -> float:
    """Real inner product <A^r e^{phi A^(1/2s)} f, A^r e^{phi A^(1/2s)} g>_{L^2}.

    Computed with explicit multipliers; raises GevreyOverflowError when the
    squared weight leaves double range.
    """
    require_same_lattice(f, g)
    cross = np.sum(f.coeffs * np.conj(g.coeffs), axis=0).real
    return float(np.sum(parseval_weight(f.lattice, 2.0 * r, w) * cross))


# ---------------------------------------------------------------------------
# validation and field construction

@dataclass(frozen=True)
class PhysicalReport:
    """Residuals of the SpectralField invariants; a pure check."""

    hermitian_residual: float
    mean_residual: float
    nyquist_residual: float
    divergence_residual: float | None  # None when not tagged solenoidal
    max_modulus: float

    def ok(self, tol: float = 1e-12) -> bool:
        scale = max(self.max_modulus, 1.0)
        res = [self.hermitian_residual, self.mean_residual, self.nyquist_residual]
        if self.divergence_residual is not None:
            res.append(self.divergence_residual)
        return all(v <= tol * scale for v in res)


def validate_physical(f: SpectralField) -> PhysicalReport:
    """Report how far f is from satisfying the field invariants."""
    lat = f.lattice
    # only the k_last = 0 plane stores both k and -k
    mirror = (slice(None),) + tuple(i[..., 0] for i in lat.negated_index)
    herm = float(np.abs(np.conj(f.coeffs[mirror]) - f.coeffs[..., 0]).max())
    zero_idx = (slice(None),) + (0,) * lat.dim
    mean = float(np.abs(f.coeffs[zero_idx]).max())
    nyq = np.any(np.abs(lat.k) == lat.grid_n // 2, axis=0)
    nyquist = float(np.abs(f.coeffs[:, nyq]).max())
    div = None
    if f.solenoidal:
        div = float(np.abs(np.sum(lat.k * f.coeffs, axis=0)).max())
    return PhysicalReport(
        hermitian_residual=herm,
        mean_residual=mean,
        nyquist_residual=nyquist,
        divergence_residual=div,
        max_modulus=float(np.abs(f.coeffs).max()),
    )


def random_field(lattice: WaveLattice, rng: np.random.Generator,
                 envelope=None, solenoidal: bool = True) -> SpectralField:
    """Random real field; envelope(|k|) optionally shapes the spectrum.

    Draws complex normals on the full grid and keeps the Hermitian part
    (raw[k] + conj(raw[-k])) / 2 of every stored mode.
    """
    shape = (lattice.dim,) + lattice.grid_shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mirrored = raw[(slice(None),) + lattice.negated_index]
    sym = 0.5 * (raw[..., :lattice.shape[-1]] + np.conj(mirrored))
    coeffs = np.where(lattice.active, sym, 0.0)
    if envelope is not None:
        env = np.zeros(lattice.shape)
        env[lattice.active] = envelope(lattice.abs_k[lattice.active])
        coeffs = coeffs * env
    f = SpectralField(lattice, coeffs)
    return leray_project(f) if solenoidal else f


def random_h1_field(lattice: WaveLattice, seed: int, beta: float = 2.2,
                    k0: float = 1.0) -> SpectralField:
    """Initial-condition generator: random phases, |u_hat[k]| = a |k|^-beta.

    Solenoidal, Hermitian, rescaled so the squared H^1 norm equals k0 exactly.
    beta ~ 2.2 gives H^1-regular but non-analytic data.
    """
    rng = np.random.default_rng(seed)
    f = random_field(lattice, rng, solenoidal=True)
    mod = np.sqrt(_mod_sq(f.coeffs))
    target = np.zeros(lattice.shape)
    act = lattice.active & (mod > 0)
    target[act] = np.power(lattice.abs_k[act], -beta)
    scale = np.where(act, target / np.where(act, mod, 1.0), 0.0)
    f = f.with_coeffs(f.coeffs * scale, solenoidal=True)
    h1 = sobolev_norm_sq(f, 1.0)
    if h1 <= 0:
        raise ValueError("degenerate random field")
    return f.with_coeffs(f.coeffs * math.sqrt(k0 / h1), solenoidal=True)


def transfer(f: SpectralField, lattice: WaveLattice) -> SpectralField:
    """Copy f's coefficients at the wavevectors it shares with another lattice.

    Works in both directions. Onto a coarser lattice, modes the target cannot
    hold (its Nyquist rows included) are dropped; onto a finer lattice, the
    modes f lacks are zero. Shared wavevectors have every |k_i| below half
    the smaller grid, where both lattices are active. Solenoidality and
    Hermitian symmetry survive because the copy acts mode by mode.
    """
    src = f.lattice
    if lattice.dim != src.dim:
        raise LatticeMismatchError(
            f"transfer requires equal dimension, got {src.dim} and {lattice.dim}")
    half = min(src.grid_n, lattice.grid_n) // 2
    # both lattices enumerate the modes with every |k_i| < half in one order
    src_sel, dst_sel = (np.all(np.abs(lat.k) < half, axis=0) for lat in (src, lattice))
    coeffs = np.zeros((lattice.dim,) + lattice.shape, dtype=np.complex128)
    coeffs[:, dst_sel] = f.coeffs[:, src_sel]
    coeffs[(slice(None),) + (0,) * lattice.dim] = 0.0
    return SpectralField(lattice, coeffs, solenoidal=f.solenoidal)


def single_mode_field(lattice: WaveLattice, kvec, amplitude,
                      solenoidal: bool = True) -> SpectralField:
    """Field with one Hermitian mode pair: u_hat[k] = amplitude, u_hat[-k] = conj."""
    kvec = np.reshape(np.asarray(kvec, dtype=np.int64), (-1,) + (1,) * lattice.dim)
    amplitude = np.asarray(amplitude, dtype=np.complex128)
    if amplitude.shape != (lattice.dim,):
        raise ValueError(f"amplitude must have shape ({lattice.dim},)")
    coeffs = np.zeros((lattice.dim,) + lattice.shape, dtype=np.complex128)
    for vec, amp in ((kvec, amplitude), (-kvec, np.conj(amplitude))):
        coeffs[:, np.all(lattice.k == vec, axis=0)] = amp[:, None]  # where stored
    coeffs = np.where(lattice.active, coeffs, 0.0)
    f = SpectralField(lattice, coeffs)
    return leray_project(f) if solenoidal else f
