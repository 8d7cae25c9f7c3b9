"""Admissible noise families, their closed-form gate, and sampled estimators.

Two families drive the system: body forces g_k (zero, additive, or linear
multiplicative) and transport coefficients xi_k, which are constant vectors
only: they act as the diagonal multiplier i (xi . k), which commutes with the
Stokes and Gevrey multipliers. Each family owns a disjoint set of
Wiener indices, which realizes the orthogonality constraint between the two
noises by construction: at every index one factor of the cross inner product
vanishes identically.

For these families the paper's noise hypotheses hold in closed form:
`validate_system` decides them from the configuration without sampling,
and the sampled validators below estimate the same quantities on random
fields, for the `invariants` command and the tests.

Constant xi_k are not elements of the mean-free spaces; their summability
bound uses |xi_k| by convention.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import nonlinear
from .fields import (GevreyWeight, SpectralField, gevrey_apply, sobolev_norm,
                     stokes_power, validate_physical, weighted_inner,
                     zero_field, random_field)
from .lattice import WaveLattice

ZERO = "zero"
ADDITIVE = "additive"
LINEAR = "linear"


@dataclass(frozen=True)
class MultiplicativeNoise:
    """Body-force family g_k: Zero, Additive(sigma_k), or LinearMultiplicative(c_k)."""

    variant: str
    sigmas: tuple = ()
    coefficients: tuple = ()
    index_set: tuple = ()

    def __post_init__(self):
        if self.variant not in (ZERO, ADDITIVE, LINEAR):
            raise ValueError(f"unknown multiplicative variant {self.variant!r}")
        if self.variant == ADDITIVE and len(self.sigmas) != len(self.index_set):
            raise ValueError("additive noise needs one sigma field per Wiener index")
        if self.variant == LINEAR and len(self.coefficients) != len(self.index_set):
            raise ValueError("linear noise needs one coefficient per Wiener index")
        if self.variant == ZERO and self.index_set:
            raise ValueError("zero noise owns no Wiener indices")
        if len(set(self.index_set)) != len(self.index_set):
            raise ValueError("duplicate Wiener indices in g family")

    @classmethod
    def zero(cls) -> "MultiplicativeNoise":
        return cls(variant=ZERO)

    @classmethod
    def linear(cls, coefficients, index_set) -> "MultiplicativeNoise":
        return cls(variant=LINEAR, coefficients=tuple(float(c) for c in coefficients),
                   index_set=tuple(int(i) for i in index_set))

    @classmethod
    def additive(cls, sigmas, index_set) -> "MultiplicativeNoise":
        return cls(variant=ADDITIVE, sigmas=tuple(sigmas),
                   index_set=tuple(int(i) for i in index_set))

    def growth_constant(self, w: GevreyWeight) -> float:
        """Recorded summability constant: sum |c_k| or sum of Gevrey norms."""
        if self.variant == ZERO:
            return 0.0
        if self.variant == LINEAR:
            return float(sum(abs(c) for c in self.coefficients))
        total = 0.0
        for sig in self.sigmas:
            total += sobolev_norm(gevrey_apply(sig, dataclasses.replace(w, r=0.0)), w.r)
        return total


@dataclass(frozen=True)
class TransportNoise:
    """Advection family xi_k: one constant vector per Wiener index."""

    vectors: tuple = ()
    index_set: tuple = ()

    def __post_init__(self):
        if len(self.vectors) != len(self.index_set):
            raise ValueError("transport noise needs one vector per Wiener index")
        if len(set(self.index_set)) != len(self.index_set):
            raise ValueError("duplicate Wiener indices in xi family")

    @classmethod
    def empty(cls) -> "TransportNoise":
        return cls()

    @classmethod
    def constant(cls, vectors, index_set) -> "TransportNoise":
        vecs = tuple(np.asarray(v, dtype=np.float64) for v in vectors)
        for v in vecs:
            v.flags.writeable = False
        return cls(vectors=vecs, index_set=tuple(int(i) for i in index_set))

    @classmethod
    def default_family(cls, dim: int, amplitude: float, count: int,
                       index_set) -> "TransportNoise":
        """Magnitudes amplitude * 2^-k for k = 1..count, directions alternating axes."""
        vectors = []
        for k in range(1, count + 1):
            vec = np.zeros(dim)
            vec[(k - 1) % dim] = amplitude * 2.0 ** (-k)
            vectors.append(vec)
        return cls.constant(vectors, index_set)

    def bound_k(self) -> float:
        """Summability constant sum |xi_k|."""
        return float(sum(np.linalg.norm(v) for v in self.vectors))


@dataclass(frozen=True)
class NoiseSystem:
    """Complete noise configuration: g family, xi family, total Wiener count."""

    g: MultiplicativeNoise
    xi: TransportNoise
    n_wiener: int
    validated: bool = False

    def __post_init__(self):
        used = set(self.g.index_set) | set(self.xi.index_set)
        if used and (min(used) < 0 or max(used) >= self.n_wiener):
            raise ValueError(f"Wiener indices {sorted(used)} outside range(0, {self.n_wiener})")

    @property
    def overlap(self) -> tuple:
        return tuple(sorted(set(self.g.index_set) & set(self.xi.index_set)))

    def g_position(self, k_index: int) -> int | None:
        try:
            return self.g.index_set.index(k_index)
        except ValueError:
            return None

    def xi_position(self, k_index: int) -> int | None:
        try:
            return self.xi.index_set.index(k_index)
        except ValueError:
            return None

    def mark_validated(self) -> "NoiseSystem":
        return dataclasses.replace(self, validated=True)


def solenoidal_mode_field(lattice: WaveLattice, kvec, amplitude: float) -> SpectralField:
    """Single low-mode divergence-free field for additive forcing.

    The direction is the deterministic unit vector perpendicular to k (the
    rotated k in 2D, a cross product with the least-aligned axis in 3D),
    scaled so the field's L^2 norm equals |amplitude|.
    """
    kvec = np.asarray(kvec, dtype=np.float64)
    if kvec.shape != (lattice.dim,) or not np.any(kvec):
        raise ValueError("mode must be a nonzero wavevector")
    if lattice.dim == 2:
        perp = np.array([-kvec[1], kvec[0]])
    else:
        axis = np.zeros(3)
        axis[int(np.argmin(np.abs(kvec)))] = 1.0
        perp = np.cross(kvec, axis)
    perp = perp / np.linalg.norm(perp)
    from .fields import single_mode_field
    f = single_mode_field(lattice, kvec.astype(int), perp.astype(complex), solenoidal=True)
    norm = sobolev_norm(f, 0.0)
    return f.with_coeffs(f.coeffs * (amplitude / norm), solenoidal=True)


def eval_g(system: NoiseSystem, k_index: int, u: SpectralField) -> SpectralField:
    """g_k(u): zero field off the g index set."""
    pos = system.g_position(k_index)
    if pos is None or system.g.variant == ZERO:
        return zero_field(u.lattice)
    if system.g.variant == ADDITIVE:
        sig = system.g.sigmas[pos]
        if sig.lattice != u.lattice:
            raise ValueError("additive sigma field lives on a different lattice")
        return sig
    return u.with_coeffs(u.coeffs * system.g.coefficients[pos])


# ---------------------------------------------------------------------------
# validators

@dataclass(frozen=True)
class GrowthLipschitzReport:
    c_growth: float
    c_lipschitz: float

    @property
    def finite(self) -> bool:
        return np.isfinite(self.c_growth) and np.isfinite(self.c_lipschitz)


def validate_growth_lipschitz(system: NoiseSystem, lattice: WaveLattice,
                              w: GevreyWeight, n_samples: int = 4,
                              seed: int = 0) -> GrowthLipschitzReport:
    """Empirical growth/Lipschitz constants of the g family in the weighted norm.

    C_growth = max over samples v of sum_k ||e g_k(v)||_{H^r} / (1 + ||e v||_{H^r});
    C_lip the analogue over sample pairs. Both are finite for every admissible
    family; additive noise has C_lip = 0 and linear noise C_lip = sum |c_k|.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    pure = dataclasses.replace(w, r=0.0)

    def weighted(f: SpectralField) -> float:
        return sobolev_norm(gevrey_apply(f, pure), w.r)

    samples = [nonlinear.dealias(random_field(lattice, rng, envelope=lambda k: np.exp(-0.5 * k)))
               for _ in range(n_samples)]
    c_growth = 0.0
    for v in samples:
        total = sum(weighted(eval_g(system, k, v)) for k in system.g.index_set)
        c_growth = max(c_growth, total / (1.0 + weighted(v)))
    c_lip = 0.0
    for v, vw in zip(samples[:-1], samples[1:]):
        diff = weighted(v - vw)
        if diff == 0.0:
            continue
        total = sum(
            weighted(eval_g(system, k, v) - eval_g(system, k, vw))
            for k in system.g.index_set)
        c_lip = max(c_lip, total / diff)
    return GrowthLipschitzReport(c_growth=c_growth, c_lipschitz=c_lip)


def validate_commutativity(xi, u: SpectralField, w: GevreyWeight, r: float) -> float:
    """Residual || A^r e ((xi.grad) u) - (xi.grad) A^r e u ||_{L^2}.

    Exactly zero (to rounding) since constant xi acts as a diagonal
    multiplier, and diagonal multipliers commute.
    """
    pure = dataclasses.replace(w, r=0.0)
    lhs = stokes_power(gevrey_apply(nonlinear.transport(xi, u), pure), r)
    rhs = nonlinear.transport(xi, stokes_power(gevrey_apply(u, pure), r))
    return sobolev_norm(lhs - rhs, 0.0)


@dataclass(frozen=True)
class OrthogonalityReport:
    structural: bool                 # disjoint index sets
    worst_inner: float               # max |<...>| over overlapping indices and samples

    @property
    def ok(self) -> bool:
        return self.structural or self.worst_inner == 0.0


def validate_orthogonality(system: NoiseSystem, lattice: WaveLattice,
                           w: GevreyWeight, n_samples: int = 3,
                           seed: int = 1) -> OrthogonalityReport:
    """Check <A^r e g_k(v), A^r e ((xi_k.grad) w)> = 0 for every shared index.

    Disjoint index sets satisfy the constraint by construction and report
    structural satisfaction; overlapping sets, which `validate_system`
    refuses, are evaluated on random fields.
    """
    overlap = system.overlap
    if not overlap:
        return OrthogonalityReport(structural=True, worst_inner=0.0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        v = nonlinear.dealias(random_field(lattice, rng, envelope=lambda k: np.exp(-0.5 * k)))
        ww = nonlinear.dealias(random_field(lattice, rng, envelope=lambda k: np.exp(-0.5 * k)))
        for k in overlap:
            gk = eval_g(system, k, v)
            tk = nonlinear.transport(system.xi.vectors[system.xi_position(k)], ww)
            worst = max(worst, abs(weighted_inner(gk, tk, r=w.r, w=dataclasses.replace(w, r=0.0))))
    return OrthogonalityReport(structural=False, worst_inner=worst)


def validate_system(system: NoiseSystem) -> NoiseSystem:
    """Gate the integrator on the noise hypotheses, decided in closed form.

    For the admissible families each hypothesis is a condition on the
    configuration, so no field is sampled: disjoint index sets make the
    orthogonality constraint structural; linear g has C_lip = sum |c_k| and
    additive g has C_lip = 0, with C_growth the sum of the sigma fields'
    norms; K = sum |xi_k| bounds the transport family, whose constant
    vectors commute with every diagonal multiplier. Returns the system
    marked validated, or raises ValueError naming the failed condition.
    """
    if system.overlap:
        raise ValueError(f"the g and xi families share Wiener indices {list(system.overlap)}; "
                         "their index sets must be disjoint")
    c_lip = sum(abs(c) for c in system.g.coefficients)
    if not np.isfinite(c_lip):
        raise ValueError(f"linear noise coefficients are not summable: sum |c_k| = {c_lip}")
    bound = system.xi.bound_k()
    if not np.isfinite(bound):
        raise ValueError(f"transport vectors are not summable: sum |xi_k| = {bound}")
    for k, sig in zip(system.g.index_set, system.g.sigmas):
        if not np.isfinite(sig.coeffs).all():
            raise ValueError(f"additive sigma field at Wiener index {k} is not finite")
        if not validate_physical(sig).ok():
            raise ValueError(f"additive sigma field at Wiener index {k} is not a real, "
                             "mean-free, solenoidal field")
    return system.mark_validated()
