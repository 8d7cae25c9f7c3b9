"""Reproducible Wiener increments from a counter-based generator.

Every increment is a pure function of (master_seed, path_index, refinement
level, global step index, process index): the Philox counter is keyed by the
first three and advanced directly to the requested cell, so any block can be
drawn in any order, from any thread, with bit-identical results. Gaussians
come from the inverse normal CDF applied to uniforms built from the raw 64-bit
words (`_uniforms`). The mapping is pinned for reproducibility across
releases: `ndtri` is an in-repo port of Cephes `ndtri` (S. Moshier, Methods
and Programs for Mathematical Functions, 1989) with the same rational
approximations in the same order of operations and libm `log` in the tails,
so it returns bit for bit what the C routine returns.

Refinement is a Brownian bridge: fine increments are conditioned to sum to
the coarse ones exactly, drawing their randomness from the next level's
stream so nested refinement never collides with parent positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_U53 = 2.0 ** -53
_MAX_PATHS = 1 << 48  # level is packed above the path index in the Philox key


@dataclass(frozen=True)
class PathSpec:
    """Identity of one sample path of the full Wiener family."""

    master_seed: int
    path_index: int
    n_processes: int

    def __post_init__(self):
        if not (0 <= self.path_index < _MAX_PATHS):
            raise ValueError("path_index out of range")
        if self.n_processes < 0:
            raise ValueError("n_processes must be >= 0")


@dataclass(frozen=True)
class IncrementBlock:
    """Increments dW[step, process] ~ N(0, dt) for consecutive steps.

    step0 is the absolute index of the first row at this block's resolution;
    level counts bridge refinements (0 = base stream).
    """

    spec: PathSpec
    dt: float
    step0: int
    increments: np.ndarray = field(repr=False)
    level: int = 0

    def __post_init__(self):
        self.increments.flags.writeable = False

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]


# Cephes ndtri: central rational approximation in y - 1/2 for
# exp(-2) < y <= 1 - exp(-2), and in 1/x with x = sqrt(-2 log y) on the tails,
# P1/Q1 for 2 <= x < 8 and P2/Q2 for x >= 8 (y < exp(-32)). Q* omit their
# leading coefficient 1.
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: np.ndarray, coef: tuple, monic: bool = False) -> np.ndarray:
    """Horner evaluation as Cephes `polevl`, or `p1evl` with an implied
    leading coefficient 1 when monic."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise libm log; numpy's vectorised log can differ by an ulp."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def ndtri(y0: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF for y0 in (0, 1), bitwise as Cephes."""
    y0 = np.asarray(y0, dtype=np.float64)
    upper = y0 > 1.0 - _EXP_M2     # reflect the upper tail: y = 1 - y0
    y = np.where(upper, 1.0 - y0, y0)
    central = y > _EXP_M2
    out = np.empty_like(y0)
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, monic=True))) * _S2PI
    tail = ~central
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _polevl(z, _Q1, monic=True)
    far = x >= 8.0
    if far.any():
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2, monic=True)
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    return out


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1) from raw 64-bit words: the top 53 bits plus one
    half, scaled by 2^-53. The top cell would round to exactly 1.0 and is
    held at the largest double below 1."""
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _U53
    return np.minimum(u, 1.0 - _U53, out=u)


def _philox_key(spec: PathSpec, level: int) -> np.ndarray:
    mixed = np.uint64(spec.path_index) ^ (np.uint64(level) << np.uint64(48))
    return np.array([np.uint64(spec.master_seed & 0xFFFFFFFFFFFFFFFF), mixed],
                    dtype=np.uint64)


def _standard_normals(draws: list[tuple[PathSpec, int, int, int]]) -> list[np.ndarray]:
    """Standard normals for each draw (spec, level, start_cell, count): count
    consecutive stream cells, by direct counter access. One `ndtri` call maps
    the words of every draw, which costs far less than one call per draw."""
    words = []
    for spec, level, start_cell, count in draws:
        bg = np.random.Philox(key=_philox_key(spec, level))
        if start_cell:
            bg.advance(start_cell)
        words.append(bg.random_raw(4 * count)[::4])  # one counter block per cell
    z = ndtri(_uniforms(np.concatenate(words)))
    return np.split(z, np.cumsum([w.size for w in words[:-1]]))


def increments(spec: PathSpec, t0: float, dt: float, n_steps: int) -> IncrementBlock:
    """Wiener increments for n_steps steps of size dt starting at time t0.

    t0 must sit on the step grid; the block depends only on (spec, step
    index of t0, dt), so requesting a tail block reproduces the matching
    slice of a longer one bit for bit.
    """
    block, = increments_paths([spec], t0, dt, n_steps)
    return block


def increments_paths(specs: list[PathSpec], t0: float, dt: float,
                     n_steps: int) -> list[IncrementBlock]:
    """`increments` for each path, bit for bit, drawn together."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    step0 = int(round(t0 / dt))
    if abs(step0 * dt - t0) > 1e-9 * max(1.0, abs(t0)):
        raise ValueError(f"t0={t0} is not on the dt={dt} step grid")
    zs = _standard_normals([(spec, 0, step0 * spec.n_processes, n_steps * spec.n_processes)
                            for spec in specs])
    return [IncrementBlock(spec=spec, dt=dt, step0=step0, level=0,
                           increments=(np.sqrt(dt) * z).reshape(n_steps, spec.n_processes))
            for spec, z in zip(specs, zs)]


def refine(block: IncrementBlock, factor: int) -> IncrementBlock:
    """Brownian-bridge subdivision: factor fine steps per coarse step.

    The fine increments are exact conditional samples given the coarse ones:
    each group of `factor` has mean dW/factor and bridge covariance, and sums
    to the coarse increment to rounding. Randomness comes from the next
    refinement level's stream.
    """
    fine, = refine_paths([block], factor)
    return fine


def refine_paths(blocks: list[IncrementBlock], factor: int) -> list[IncrementBlock]:
    """`refine` of each block, bit for bit, drawn together."""
    if factor < 2:
        raise ValueError("refinement factor must be >= 2")
    zs = _standard_normals([(block.spec, block.level + 1,
                             block.step0 * factor * block.increments.shape[1],
                             block.increments.size * factor) for block in blocks])
    fines = []
    for block, z in zip(blocks, zs):
        n_steps, n_proc = block.increments.shape
        fine_dt = block.dt / factor
        z = z.reshape(n_steps, factor, n_proc)
        centred = z - z.mean(axis=1, keepdims=True)
        fine = (block.increments[:, None, :] / factor
                + np.sqrt(fine_dt) * centred).reshape(n_steps * factor, n_proc)
        fines.append(IncrementBlock(spec=block.spec, dt=fine_dt, step0=block.step0 * factor,
                                    increments=fine, level=block.level + 1))
    return fines
