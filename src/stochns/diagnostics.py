"""Shell spectra, analyticity-radius fits, ensemble means, and the
empirical checks behind the structural estimates.

A shell spectrum is read off a packed Galerkin ball, the `SimState.c`
layout, so its shells are kappa = 1..N.

The radius fit follows the coefficient bound |u_hat[k]|^2 <= C |k|^-2
exp(-2 delta |k|): fitting log(kappa * max-modulus) against kappa removes the
power-law prefactor so -slope estimates delta directly. Shells within 10% of
the dealiasing boundary are excluded from fits (aliasing-adjacent modes are
discretization artifacts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nonlinear
from .fields import (GevreyWeight, SpectralField, ball_mod_sq, gevrey_apply,
                     parseval_weight, random_field, require_same_lattice, sobolev_norm,
                     transfer, weighted_inner)
from .lattice import WaveLattice, get_lattice


class FitRefusedError(RuntimeError):
    """Too few usable data points for a meaningful fit."""


@dataclass(frozen=True)
class ShellSpectrum:
    """Per-shell maxima and energies of a Galerkin state at one time."""

    t: float
    kappa: np.ndarray        # shell indices 1..N, ascending
    max_modulus: np.ndarray  # max |u_hat[k]| over the shell
    energy: np.ndarray       # sum |u_hat[k]|^2 over the shell
    dealias_kappa: int       # per-axis dealias limit of the source lattice

    def __post_init__(self):
        for arr in (self.kappa, self.max_modulus, self.energy):
            arr.flags.writeable = False


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    amplitude_floor: float

    @property
    def decay_rate(self) -> float:
        """-slope; the delta (or rate) estimate of an exponential fit."""
        return -self.slope


def shell_spectrum(c: np.ndarray, lattice: WaveLattice, cutoff: int,
                   t: float = 0.0) -> ShellSpectrum:
    """Max modulus and l2 energy per wavenumber shell kappa = round(|k|) of
    the packed Galerkin ball c, shape (dim, n_ball), of `cutoff` on `lattice`."""
    ball = lattice.ball_mask(cutoff)
    mod_sq = ball_mod_sq(c)
    kappa = lattice.kappa[ball]
    counts = np.bincount(kappa)
    energy = np.bincount(kappa, weights=lattice.multiplicity[ball] * mod_sq)
    peak = np.zeros(counts.size)
    np.maximum.at(peak, kappa, mod_sq)
    present = np.flatnonzero(counts)
    return ShellSpectrum(t=t, kappa=present, max_modulus=np.sqrt(peak[present]),
                         energy=energy[present], dealias_kappa=lattice.dealias_limit)


def _linear_fit(x: np.ndarray, y: np.ndarray, floor: float) -> FitResult:
    if x.size < 3:
        raise FitRefusedError(f"need >= 3 points, have {x.size}")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return FitResult(slope=float(slope), intercept=float(intercept),
                     r_squared=min(r2, 1.0), n_points=int(x.size),
                     amplitude_floor=floor)


def fit_radius(spec: ShellSpectrum, amplitude_floor: float = 1e-14) -> FitResult:
    """Estimate the analyticity radius from log(kappa * max-modulus) vs kappa.

    Uses shells above the amplitude floor and below 90% of the dealias
    boundary; refuses with FitRefusedError when fewer than 3 shells remain.
    """
    usable = (spec.max_modulus > amplitude_floor) & (spec.kappa <= 0.9 * spec.dealias_kappa)
    kap = spec.kappa[usable].astype(np.float64)
    amp = spec.max_modulus[usable]
    if kap.size < 3:
        raise FitRefusedError(f"only {kap.size} shells above floor {amplitude_floor}")
    return _linear_fit(kap, np.log(kap * amp), amplitude_floor)


def fit_exp_rate(cutoffs, errors) -> FitResult:
    """Least squares of log(error) against N; decay_rate estimates the exponent."""
    ns = np.asarray(cutoffs, dtype=np.float64)
    errs = np.asarray(errors, dtype=np.float64)
    if ns.size != errs.size:
        raise ValueError("cutoffs and errors must have equal length")
    if ns.size < 3:
        raise FitRefusedError("need at least 3 cutoffs")
    if np.any(errs <= 0):
        raise FitRefusedError("errors must be strictly positive for a log fit")
    return _linear_fit(ns, np.log(errs), 0.0)


def check_cancellation(xi, u: SpectralField, w: GevreyWeight, r: float) -> float:
    """Relative residual of the corrector/quadratic-variation cancellation.

    |<A^r e (xi.grad)(xi.grad)u, A^r e u> + ||A^r e (xi.grad)u||^2| divided by
    ||A^r e u||^2. Exact (to rounding) for constant xi.
    """
    t1 = nonlinear.transport(xi, nonlinear.transport(xi, u))
    t2 = nonlinear.transport(xi, u)
    num = weighted_inner(t1, u, r=r, w=w) + weighted_inner(t2, t2, r=r, w=w)
    den = weighted_inner(u, u, r=r, w=w)
    if den == 0.0:
        return 0.0
    return abs(num) / den


@dataclass(frozen=True)
class ConvectiveBoundReport:
    """Empirical max LHS/RHS ratios of the two convective estimates."""

    gevrey_trilinear: float    # <A^(1/2) e P((u.grad)v), A^(1/2) e w> estimate
    product_algebra: float     # ||A^(1/2) e (u.v)|| convolution estimate
    n_samples: int


_SAMPLE_REF_N = 64


def _sample_gevrey_field(lattice: WaveLattice, rng: np.random.Generator,
                         delta: float) -> SpectralField:
    """Random analytic field drawn on a fixed reference grid, then restricted.

    Drawing on the reference lattice makes the sample a function of the seed
    alone, so coarse and fine lattices see the same low-mode content (common
    random numbers) and max-ratio studies compare like with like.
    """
    ref = get_lattice(lattice.dim, max(_SAMPLE_REF_N, lattice.grid_n))
    f = random_field(ref, rng, envelope=lambda k: np.exp(-delta * k) * k**-1.0)
    if ref.grid_n != lattice.grid_n:
        f = transfer(f, lattice)
    return nonlinear.dealias(f)


def check_convective_bounds(lattice: WaveLattice, n_samples: int,
                            w: GevreyWeight, seed: int = 0,
                            delta: float = 0.8) -> ConvectiveBoundReport:
    """Max ratios of both convective estimates over random analytic triples.

    Samples are drawn with a fixed exponential envelope on a common reference
    grid so the ratios are dominated by resolved scales and stay stable
    across grid refinement (the estimates assert existence of constants, not
    their values).
    """
    if n_samples < 10:
        raise ValueError("need at least 10 samples")
    rng = np.random.default_rng(seed)
    ratio_tri = 0.0
    ratio_alg = 0.0
    for _ in range(n_samples):
        u = _sample_gevrey_field(lattice, rng, delta)
        v = _sample_gevrey_field(lattice, rng, delta)
        z = _sample_gevrey_field(lattice, rng, delta)
        eu, ev, ez = (gevrey_apply(f, w) for f in (u, v, z))
        half_u = sobolev_norm(eu, 1.0)   # ||A^(1/2) e u||_{L^2} = ||e u||_{H^1}
        one_u = sobolev_norm(eu, 2.0)    # ||A e u||_{L^2} = ||e u||_{H^2}
        half_v = sobolev_norm(ev, 1.0)
        one_z = sobolev_norm(ez, 2.0)
        conv = nonlinear.convect(u, v)
        lhs = abs(weighted_inner(conv, z, r=0.5, w=w))
        rhs = math.sqrt(half_u) * math.sqrt(one_u) * half_v * one_z
        if rhs > 0:
            ratio_tri = max(ratio_tri, lhs / rhs)

        dot_hat = _pointwise_dot(u, v)
        lhs_alg = math.sqrt(float(np.sum(parseval_weight(lattice, 1.0, w)
                                         * np.abs(dot_hat) ** 2)))
        rhs_alg = (sobolev_norm(eu, 0.0) * sobolev_norm(ev, 1.0)
                   + sobolev_norm(eu, 1.0) * sobolev_norm(ev, 0.0))
        if rhs_alg > 0:
            ratio_alg = max(ratio_alg, lhs_alg / rhs_alg)
    return ConvectiveBoundReport(gevrey_trilinear=ratio_tri,
                                 product_algebra=ratio_alg, n_samples=n_samples)


def _pointwise_dot(u: SpectralField, v: SpectralField) -> np.ndarray:
    """Dealiased spectral coefficients of the scalar field u . v."""
    require_same_lattice(u, v)
    lat = u.lattice
    prod = np.einsum("j...,j...->...", nonlinear.to_physical(u), nonlinear.to_physical(v))
    out = nonlinear.from_physical(lat, prod)
    return np.where(lat.dealias_mask, out, 0.0)


def ensemble_mean(values) -> tuple[float, float]:
    """Sample mean and standard error; refuses fewer than two values."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("need at least 2 values for an ensemble estimate")
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))
