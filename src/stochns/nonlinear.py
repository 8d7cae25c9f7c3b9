"""Pseudospectral nonlinear operators: convection, transport, Ito corrector.

Fields are real and store the Hermitian half of their spectrum (the last
axis up to n/2), the layout `irfftn` reads and `rfftn` writes. Transforms
are numpy's (`numpy.fft`, the C++ pocketfft of numpy 2). Convection
takes the divergence form div(u (x) v), exact for solenoidal u: the products
u_j v_m are formed on the native grid and truncated with the lattice's
2/3-rule mask, which is exact for quadratic products of masked inputs.

Its transforms are pruned (Markel's FFT pruning) to the lines the mode sets
touch. An input on modes with |k_i| <= R on the full axes and k_last <= C
goes to the grid one axis at a time: each full axis is transformed only on
the lines whose other coordinates lie in that box, with zero rows padded in
before the next axis, and the last-axis `irfft` reads the C + 1 columns and
pads the rest. A line outside the box holds only zeros, whose transform is
zero, so the grid values equal the full `irfftn` up to roundoff. The
forward `rfft` keeps the columns up to min(C_out, dealias_limit), and each
later axis transforms only the columns and rows kept so far; the outputs
dropped are never read. The i k multiply and the Leray projection then act
on the packed output modes. The dealias mask sits in the i k multiplier, so
a mode outside it, such as the ball's axis modes |k_i| = N on a grid of
exactly 3N, still gets exactly zero convection.

Transport coefficients are constant vectors xi_k only: they never touch
physical space and act as the exact diagonal multiplier i (xi . k), which
commutes with the Stokes and Gevrey multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np
import numpy.fft as _fft

from .fields import SpectralField, require_same_lattice
from .lattice import WaveLattice


def to_physical(f: SpectralField) -> np.ndarray:
    """Grid values of the field; u_hat are spectral coefficients (fft / n^d)."""
    lat = f.lattice
    axes = tuple(range(-lat.dim, 0))   # the spatial axes that s describes
    return _fft.irfftn(f.coeffs, s=lat.grid_shape, axes=axes) * lat.n_modes


def from_physical(lattice: WaveLattice, values: np.ndarray) -> np.ndarray:
    """Spectral coefficients of real grid values (inverse of to_physical).

    The trailing `dim` axes are spatial, so both scalar fields (n, ..., n)
    and component stacks (dim, n, ..., n) are accepted; the result holds
    the half spectrum over those axes.
    """
    axes = tuple(range(-lattice.dim, 0))
    return _fft.rfftn(values, s=lattice.grid_shape, axes=axes) / lattice.n_modes


def dealias(f: SpectralField) -> SpectralField:
    """Zero all modes outside the 2/3-rule mask."""
    return f.with_coeffs(np.where(f.lattice.dealias_mask, f.coeffs, 0.0))


@dataclass(frozen=True)
class ConvectPlan:
    """Index maps and multipliers of `convect` between two packed mode sets.

    Inputs are (dim, n_in) and outputs (dim, n_out), each mode set packed
    in storage order of the half spectrum. A box of extent (rows, cols)
    holds the modes with |k_i| <= rows on the full axes and k_last <= cols,
    laid out as (n, 2 rows + 1, ..., cols + 1): the first axis at full
    length in FFT order, the other full axes compact in FFT order.
    `scatter` places each input mode in the input box; `gather` reads each
    output mode from the output box, or from a placeholder that `ik` zeroes
    when the mode lies outside the dealias mask. All arrays are read-only.
    """

    lattice: WaveLattice
    in_box: tuple[int, int]
    out_box: tuple[int, int]
    scatter: np.ndarray
    gather: np.ndarray
    ik: np.ndarray          # i k n_modes on the dealias mask, (dim, n_out)
    k: np.ndarray           # k and k/|k|^2 of the Leray projection, (dim, n_out)
    k_over_ksq: np.ndarray


def _box_extent(k: np.ndarray) -> tuple[int, int]:
    """(rows, cols) of the smallest box holding the modes k, shape (dim, n)."""
    return int(np.abs(k[:-1]).max(initial=0)), int(k[-1].max(initial=0))


def _box_index(lattice: WaveLattice, k: np.ndarray, box: tuple[int, int]) -> np.ndarray:
    """Flat positions of the modes k, shape (dim, n), in the box layout."""
    rows, cols = box
    pos = k[0] % lattice.grid_n
    for k_i in k[1:-1]:
        pos = pos * (2 * rows + 1) + k_i % (2 * rows + 1)
    return pos * (cols + 1) + k[-1]


@lru_cache(maxsize=32)
def convect_plan(lattice: WaveLattice, cutoff: int | None = None) -> ConvectPlan:
    """Plan from and onto the Galerkin ball |k| <= cutoff, or, without a
    cutoff, from the whole active set onto the dealias mask."""
    if cutoff is None:
        in_set, out_set = lattice.active, lattice.dealias_mask
    else:
        in_set = out_set = lattice.ball_mask(cutoff)
    k_in, k_out = lattice.k[:, in_set], lattice.k[:, out_set]
    kept = lattice.dealias_mask[out_set]
    in_box, out_box = _box_extent(k_in), _box_extent(k_out[:, kept])
    k_float = k_out.astype(np.float64)
    plan = ConvectPlan(
        lattice, in_box, out_box,
        scatter=_box_index(lattice, k_in, in_box),
        gather=np.where(kept, _box_index(lattice, k_out, out_box), 0),
        ik=1j * k_float * (lattice.n_modes * kept),
        k=k_float, k_over_ksq=k_float / lattice.ksq[out_set])
    for arr in (plan.scatter, plan.gather, plan.ik, plan.k, plan.k_over_ksq):
        arr.flags.writeable = False
    return plan


def _to_grid(plan: ConvectPlan, c: np.ndarray) -> np.ndarray:
    """Grid values of packed input stacks c, shape (m, n_in): one axis at a
    time, each full axis on the box lines only, the last-axis irfft last."""
    lat = plan.lattice
    n = lat.grid_n
    rows, cols = plan.in_box
    box = np.zeros((c.shape[0], n) + (2 * rows + 1,) * (lat.dim - 2) + (cols + 1,),
                   dtype=np.complex128)
    box.reshape(c.shape[0], -1)[:, plan.scatter] = c
    box = _fft.ifft(box, axis=1)
    if lat.dim == 3:  # pad the compact middle axis to n, then transform it
        padded = np.zeros(box.shape[:2] + (n, cols + 1), dtype=np.complex128)
        padded[:, :, :rows + 1] = box[:, :, :rows + 1]
        padded[:, :, n - rows:] = box[:, :, rows + 1:]
        box = _fft.ifft(padded, axis=2)
    return _fft.irfft(box, n=n, axis=-1)


def _to_modes(plan: ConvectPlan, values: np.ndarray) -> np.ndarray:
    """Unnormalised spectra of real grid values (m,) + grid_shape on the output
    modes, shape (m, n_out): each axis keeps only the box lines still needed."""
    lat = plan.lattice
    n = lat.grid_n
    rows, cols = plan.out_box
    spec = _fft.rfft(values, axis=-1)[..., :cols + 1]
    if lat.dim == 3:  # keep the middle-axis rows of the box
        spec = np.take(_fft.fft(spec, axis=2), np.r_[:rows + 1, n - rows:n], axis=2)
    spec = _fft.fft(spec, axis=1)
    return spec.reshape(values.shape[0], -1)[:, plan.gather]


def convect(u, v, plan: ConvectPlan | None = None):
    """Leray-projected advection P((u . grad) v), dealiased.

    Divergence form: P(div(u (x) v)), out_m = sum_j i k_j (u_j v_m)^. It
    equals the advective form only when u is solenoidal; otherwise the result
    also holds v div u. Inputs are expected dealiased and divergence-free,
    and then the form is exact on every retained mode. When u and v hold the
    same coefficient array only the dim(dim+1)/2 symmetric products u_j u_m
    are formed.

    u and v are SpectralFields, read on their active modes, and the result
    is a SpectralField on the dealias mask. With a plan they are the packed
    (dim, n_in) input modes of the plan and the result is its packed
    (dim, n_out) output modes.
    """
    field_result = plan is None
    if field_result:
        require_same_lattice(u, v)
        plan = convect_plan(u.lattice)
        active = u.lattice.active
        same = u.coeffs is v.coeffs
        u = u.coeffs[:, active]
        v = u if same else v.coeffs[:, active]
    lat = plan.lattice
    dim = lat.dim
    symmetric = u is v  # then u_j u_m once per pair j <= m

    grid = _to_grid(plan, u if symmetric else np.concatenate((u, v)))
    u_phys = grid[:dim]
    v_phys = u_phys if symmetric else grid[dim:]
    pairs = list(combinations_with_replacement(range(dim), 2) if symmetric
                 else product(range(dim), repeat=2))
    prod = np.empty((len(pairs),) + lat.grid_shape)
    for p, (j, m) in enumerate(pairs):
        np.multiply(u_phys[j], v_phys[m], out=prod[p])
    del grid, u_phys, v_phys  # free the grid values before the forward transforms
    # ik carries n_modes (the scaled inverse transforms) and the dealias mask
    prod_hat = _to_modes(plan, prod)

    ik = plan.ik
    acc = np.zeros((dim, ik.shape[-1]), dtype=np.complex128)
    for p, (j, m) in enumerate(pairs):  # each acc[m] sums over j in order
        acc[m] += ik[j] * prod_hat[p]
        if symmetric and j != m:
            acc[j] += ik[m] * prod_hat[p]
    out = acc - plan.k_over_ksq * np.einsum("j...,j...->...", plan.k, acc)
    if field_result:
        coeffs = np.zeros((dim,) + lat.shape, dtype=np.complex128)
        coeffs[:, lat.dealias_mask] = out
        return SpectralField(lat, coeffs, solenoidal=True)
    return out


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
