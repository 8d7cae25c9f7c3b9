"""Time integration of the Galerkin-truncated stochastic system.

The state lives on the modes |k| <= N and is stored as that Galerkin ball
alone: `initial_state` packs the projected start, and from then on
`SimState.c` holds the packed (dim, n_ball) coefficients, which the steps,
the norms, the spectra and the snapshots read as they are. One step of the
exponential Euler-Maruyama scheme applies the exact viscous semigroup to
everything explicit:

    u+ = exp(-nu A dt) [ u + dt (drift(u) + nu A u) + sum_k diffusion_k(u) dW_k ]

with drift = -P^N P((u.grad)u) - nu A u + 1/2 sum_k P^N P((xi_k.grad)(xi_k.grad)u)
and diffusion_k = P^N P[g_k(u) - (xi_k.grad)u]. The transport coefficients
are constant vectors and g is linear or additive, so everything but
convection and the additive fields is diagonal on the ball: the semigroup,
the corrector C and the noise c_k dW_k - i (xi_k . k) dW_k.
`_Stepper.advance` folds them into one complex multiplier per path and mode,

    m = exp(-nu |k|^2 dt) [1 + dt C + sum_k c_k dW_k - i sum_k (xi_k . k) dW_k],

whose diagonal noise `_Stepper.noise_sum` sums: it is the one
implementation of the diffusion, and no per-index diffusion field is built.
`advance` applies m to the stack in one pass, adds dt exp(-nu |k|^2 dt)
times the convection term (`_Stepper.explicit_drift`) and the decayed
fields sigma_hat_k dW_k, and returns only the new coefficients.

`_advance` is the one step loop body of every command: it advances a
`PathStack` of paths from one start, reduces the observables the stack
lists (all five for `simulate` and the exceedance study, `h2_sq` for the
decay study, `l2_sq` for the linear oracle) in one call, scans a path's
coefficients only when one of its sums is not finite, writes the failure
message, and keeps per path the budgets and stop records those sums feed.
Budgets (the Gevrey-H^1 sup and the nu-weighted Gevrey-H^2 time integral)
are accumulated with left-endpoint quadrature and the stopping monitors are
evaluated at step boundaries; integration continues past a trigger, only
the record is kept. `integrate` is the one-path case of `integrate_paths`,
the one entry point that steps from a field or a checkpoint.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .brownian import PathSpec, increments_paths
from .fields import (GevreyWeight, SpectralField, ball_mod_sq, gevrey_range_error,
                     leray_project, pack_ball, parseval_weight, transfer)
from .lattice import WaveLattice
from .noise import NoiseSystem
from . import nonlinear


class NonFiniteError(RuntimeError):
    """A coefficient turned NaN/Inf; carries the partial trajectory when raised by integrate."""

    def __init__(self, message: str, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class StepperConfig:
    """Numerical and monitoring parameters of one Galerkin integration."""

    nu: float
    dt: float
    t_end: float
    cutoff: int
    gevrey: GevreyWeight = GevreyWeight()
    phi_cap: float = 0.5
    budget_m: float = 2.0        # M > 1, threshold above the initial enstrophy
    h2_r: float = float("inf")   # R > 0, threshold on the H^2 time integral
    convection: bool = True
    k0: float | None = None      # optional cap on the initial squared H^1 norm

    def __post_init__(self):
        if self.nu <= 0 or self.dt <= 0 or self.t_end < 0:
            raise ValueError("nu, dt must be positive and t_end >= 0")
        if self.budget_m <= 1:
            raise ValueError("budget threshold M must exceed 1")
        if self.h2_r <= 0:
            raise ValueError("H^2 integral threshold R must be positive")

    @property
    def n_steps(self) -> int:
        n = int(round(self.t_end / self.dt))
        if abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(f"t_end={self.t_end} is not a multiple of dt={self.dt}")
        return n

    def phi_at(self, t: float) -> float:
        return min(t, self.phi_cap)


@dataclass(frozen=True)
class StopRecord:
    monitor: str     # "budget" or "h2"
    time: float
    step: int
    value: float


@dataclass(frozen=True)
class SimState:
    """Galerkin state at one time with the running budgets and stop records.

    The state is the packed ball c, a read-only (dim, n_ball) complex array:
    the half-spectrum modes of `lattice.ball_mask(cutoff)` in storage
    (row-major) order, as `fields.pack_ball` returns them. Snapshots store c
    as it is; `load_state` refuses every other layout, the half spectrum and
    the full grid included.
    """

    t: float
    step: int
    c: np.ndarray
    lattice: WaveLattice
    cutoff: int
    budget_sup: float   # running sup of the squared Gevrey-H^1 norm
    budget_int: float   # running nu * integral of the squared Gevrey-H^2 norm
    h2_int: float       # running integral of the plain squared H^2 norm
    initial_h1_sq: float
    stops: tuple[StopRecord, ...] = ()

    def __post_init__(self):
        self.c.flags.writeable = False

    def stop_for(self, monitor: str) -> StopRecord | None:
        for rec in self.stops:
            if rec.monitor == monitor:
                return rec
        return None


@dataclass
class Trajectory:
    """Snapshots plus per-step scalar series of one integration."""

    cfg: StepperConfig
    states: list[SimState]
    series: dict[str, np.ndarray]
    stops: tuple[StopRecord, ...]
    path: PathSpec | None = None
    nonfinite: str | None = None   # the error that ended the path early

    @property
    def final(self) -> SimState:
        return self.states[-1]

    @property
    def times(self) -> np.ndarray:
        return self.series["t"]


# ---------------------------------------------------------------------------
# stability rule (advective CFL C_adv = 1, noise quadratic-variation rate)

def dt_stability(cfg: StepperConfig, system: NoiseSystem, h1_sq: float) -> dict:
    """The documented step-size rule dt <= bound = min(0.5/(N ||u0||_H1),
    0.1/noise_rate) at the squared initial H^1 norm h1_sq, as run_record.json
    records it: cutoff N, dt, bound and dt / bound."""
    adv = 0.5 / max(cfg.cutoff * max(math.sqrt(max(h1_sq, 0.0)), 1e-30), 1e-30)
    rate = float(sum((np.linalg.norm(v) * cfg.cutoff) ** 2 for v in system.xi.vectors))
    if system.g.variant == "linear":
        rate += sum(c * c for c in system.g.coefficients)
    bound = min(adv, 0.1 / rate if rate > 0 else float("inf"))
    # an infinite ||u0||_H1 leaves no admissible step: the bound is 0
    return {"N": cfg.cutoff, "dt": cfg.dt, "bound": bound,
            "ratio": cfg.dt / bound if bound > 0 else float("inf")}


# ---------------------------------------------------------------------------
# the stepping engine

_OBS_KEYS = ("l2_sq", "h1_sq", "h2_sq", "gevrey_h1_sq", "gevrey_h2_sq")
# each observable's Sobolev order: its row of `_Stepper.w_ball`
_OBS_ORDER = dict(zip(_OBS_KEYS, (0, 1, 2, 1, 2)))


class _Stepper:
    """Precomputed multipliers for one (config, system, lattice) triple.

    The stepper works on the Galerkin ball packed as an array of shape
    (..., dim, n_ball), the `SimState.c` layout, under any leading batch
    shape of independent paths. Every stage but convection is element-wise
    there; each path's arithmetic is the same whatever the batch holds, so a
    batch reproduces single-path runs bit for bit.
    """

    def __init__(self, cfg: StepperConfig, system: NoiseSystem, lattice: WaveLattice):
        self.cfg = cfg
        self.system = system
        ball = lattice.ball_mask(cfg.cutoff)
        # convect reads and writes the packed ball in that order too
        self.convect_plan = (nonlinear.convect_plan(lattice, cfg.cutoff)
                             if cfg.convection else None)
        self.ksq = lattice.ksq[ball].astype(np.float64)
        self.decay = np.exp(-cfg.nu * cfg.dt * self.ksq)
        # observables read the ball only, so the Gevrey weight is never
        # evaluated off it, where it could overflow
        self.w_ball = [parseval_weight(lattice, r)[ball] for r in (0.0, 1.0, 2.0)]
        abs_k = lattice.abs_k[ball]
        self.root_ball = np.power(abs_k, 1.0 / cfg.gevrey.s)
        kmax = float(abs_k.max()) if abs_k.size else 0.0
        problem = gevrey_range_error(cfg.phi_cap, kmax, cfg.gevrey.s, cfg.gevrey.exp_guard, 2.0)
        if problem:
            raise ValueError(f"phi_cap={cfg.phi_cap}: {problem}")

        # the real phases (xi_k.k) per family position, and the step's
        # diagonal terms with the viscous decay folded in; the additive sigma
        # fields are projected onto the ball, carried over from the lattice
        # they were built on
        phases, corrector = nonlinear.transport_multipliers(lattice, system.xi.vectors)
        self.xi_phase = [phase[ball] for phase in phases]
        self.step_diag = self.decay * (1.0 + cfg.dt * corrector[ball])
        self.xi_decay = [self.decay * phase for phase in self.xi_phase]
        self.dt_decay = cfg.dt * self.decay
        sigmas = system.g.sigmas if system.g.variant == "additive" else ()
        self.additive_decay = [self.decay * transfer(leray_project(sig), lattice).coeffs[:, ball]
                               for sig in sigmas]

    # -- pieces -------------------------------------------------------------

    def explicit_drift(self, c: np.ndarray) -> np.ndarray:
        """The drift's one non-diagonal term -P^N P((u.grad)u), zero without convection.

        Convection is the one stage off the ball: `convect` takes each packed
        path through the grid and returns it packed.
        """
        out = np.zeros_like(c)
        if self.cfg.convection:
            for path in np.ndindex(c.shape[:-2]):
                u = c[path]  # one object for both arguments: the symmetric path
                if np.any(u):
                    out[path] -= nonlinear.convect(u, u, self.convect_plan)
        return out

    def noise_sum(self, dw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The diagonal noise lin + i d, summed up from +0: lin = sum_k c_k dW_k
        of a linear g, (..., 1), and the complex (..., n_ball) array i d with
        d = -sum_k dW_k decay (xi_k . k) over the transport family."""
        sys_ = self.system
        mult = np.zeros(dw.shape[:-1] + self.ksq.shape, dtype=np.complex128)
        for phase, k_index in zip(self.xi_decay, sys_.xi.index_set):
            mult.imag -= dw[..., k_index, None] * phase
        lin = np.zeros(dw.shape[:-1] + (1,))
        if sys_.g.variant == "linear":
            for coeff, k_index in zip(sys_.g.coefficients, sys_.g.index_set):
                lin += dw[..., k_index, None] * coeff
        return lin, mult

    # -- one step -------------------------------------------------------------

    def advance(self, c: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """One exponential Euler-Maruyama step of every path in the stack c,
        with one increment row per path in dw: the new coefficients. The
        whole linear part is the one multiplier decay (1 + dt C + lin + i d);
        convection and the additive fields are added outside it."""
        # convection first: while convect runs, no other array of the step is live
        drift = self.explicit_drift(c) if self.cfg.convection else None
        lin, m = self.noise_sum(dw)
        m.real = self.step_diag
        if self.system.g.variant == "linear":
            m.real += lin * self.decay
        c_new = c * m[..., None, :]
        if drift is not None:
            drift *= self.dt_decay
            c_new += drift
        for sigma, k_index in zip(self.additive_decay, self.system.g.index_set):
            c_new += dw[..., k_index, None, None] * sigma
        return c_new

    # -- scalar observables ---------------------------------------------------

    def observables(self, c: np.ndarray, phi: float, keys=_OBS_KEYS) -> dict:
        """The squared norms named in keys, summed over the ball per path.

        Their weighted terms fill one (len(keys), ..., n_ball) array that one
        sum reduces along the last axis, so a sum is bitwise the same whatever
        else is asked. The Gevrey factor exp(2 phi |k|^(1/s)) is evaluated
        only for a Gevrey key; at phi = 0 it is exactly 1.
        """
        mod = ball_mod_sq(c)
        terms = np.empty((len(keys),) + mod.shape)
        gevrey = (np.exp((2.0 * phi) * self.root_ball)
                  if any(key.startswith("gevrey") for key in keys) else None)
        for row, key in zip(terms, keys):
            np.multiply(self.w_ball[_OBS_ORDER[key]], mod, out=row)
            if key.startswith("gevrey"):
                row *= gevrey
        return dict(zip(keys, terms.sum(axis=-1)))


class PathStack:
    """Paths of one cutoff from a common start, stepped together by `_advance`.

    The paths share the time and step count. `c` is their packed
    (P, dim, n_ball) stack; the observables named in `keys`, at the current
    time, are kept per path, and so are the monitors they feed: `h2_int`
    and its stop with `h2_sq`, the budgets and their stop with both Gevrey
    sums. A budget the stack does not track keeps its start value, so only
    a stack of all five sums gives states. A path whose step turns
    non-finite gets its message in `failed`; from then on its row is zero
    and its budgets, stops and states are not taken.
    """

    def __init__(self, start: SimState, n_paths: int, stepper: _Stepper, keys=_OBS_KEYS):
        if start.cutoff != stepper.cfg.cutoff:
            raise ValueError(f"state cutoff {start.cutoff} does not match the "
                             f"stepper's cutoff {stepper.cfg.cutoff}")
        self.t, self.step = start.t, start.step
        self.lattice, self.cutoff = start.lattice, start.cutoff
        self.initial_h1_sq = start.initial_h1_sq
        self.c = np.repeat(start.c[None], n_paths, axis=0)
        self.budget_sup, self.budget_int, self.h2_int = (
            np.full(n_paths, value) for value in (start.budget_sup, start.budget_int,
                                                  start.h2_int))
        self.stops = [start.stops] * n_paths
        self.open = {monitor: np.full(n_paths, start.stop_for(monitor) is None)
                     for monitor in ("budget", "h2")}
        self.live = np.ones(n_paths, dtype=bool)
        self.failed: list[str | None] = [None] * n_paths
        self.keys = tuple(keys)
        self.obs = stepper.observables(self.c, stepper.cfg.phi_at(self.t), self.keys)

    def fail(self, p: int, message: str) -> None:
        """End path p with `message`; its row is zeroed and skipped."""
        self.failed[p] = message
        self.live[p] = False
        self.c[p] = 0.0

    def state(self, p: int) -> SimState:
        """Path p as a SimState that owns a copy of its row."""
        if set(self.keys) != set(_OBS_KEYS):
            raise ValueError(f"a stack observing only {self.keys} keeps no budgets")
        return SimState(t=self.t, step=self.step, c=self.c[p].copy(), lattice=self.lattice,
                        cutoff=self.cutoff, budget_sup=self.budget_sup[p],
                        budget_int=self.budget_int[p], h2_int=self.h2_int[p],
                        initial_h1_sq=self.initial_h1_sq, stops=self.stops[p])


def _advance(stack: PathStack, stepper: _Stepper, dw: np.ndarray) -> list[int]:
    """One step of every path in the stack, with one increment row per path
    in dw; the stack's observables and the monitors they feed are updated.
    Returns the paths that turned non-finite in this step."""
    cfg = stepper.cfg
    before = stack.obs   # the integrals' left endpoints
    stack.t += cfg.dt
    stack.step += 1
    stack.c = c = stepper.advance(stack.c, dw)
    stack.obs = obs = stepper.observables(c, cfg.phi_at(stack.t), stack.keys)
    failed = []
    finite = np.isfinite(np.array(tuple(obs.values())))
    if not finite.all():
        # a non-finite coefficient makes every sum of its path non-finite
        # (every weight is >= 1), so finite sums clear the coefficients too
        coeff_ok = np.isfinite(c).all(axis=(-2, -1))
        for p in np.flatnonzero(~finite.all(axis=0) & stack.live):
            what = ("coefficient" if not coeff_ok[p] else
                    ", ".join(name for name, ok in zip(obs, finite[:, p]) if not ok))
            stack.fail(p, f"non-finite {what} at t={stack.t:.6g} "
                          f"(step {stack.step}, dt={cfg.dt:g})")
            failed.append(int(p))
    if not stack.live.all():
        c[~stack.live] = 0.0
        for value in obs.values():
            value[~stack.live] = 0.0
    hits = []
    if {"gevrey_h1_sq", "gevrey_h2_sq"} <= set(obs):
        stack.budget_int = stack.budget_int + cfg.dt * cfg.nu * before["gevrey_h2_sq"]
        stack.budget_sup = np.maximum(stack.budget_sup, obs["gevrey_h1_sq"])
        value = stack.budget_sup + stack.budget_int
        hits.append(("budget", value, value > stack.initial_h1_sq + cfg.budget_m))
    if "h2_sq" in obs:
        stack.h2_int = stack.h2_int + cfg.dt * before["h2_sq"]
        hits.append(("h2", stack.h2_int, stack.h2_int >= cfg.h2_r))
    for monitor, values, hit in hits:
        if hit.any():
            for p in np.flatnonzero(hit & stack.open[monitor] & stack.live):
                stack.stops[p] += (StopRecord(monitor, stack.t, stack.step, values[p]),)
                stack.open[monitor][p] = False
    return failed


# ---------------------------------------------------------------------------
# public operations

def initial_state(u0: SpectralField, cfg: StepperConfig) -> SimState:
    """Pack the Leray projection of u0 onto the Galerkin ball and open the
    budget accounting at t = 0.

    The squared H^1 norm is the ball sum `_Stepper.observables` takes, so the
    budget sup opens at exactly the h1_sq the stepper reports at t = 0,
    where phi(0) = 0.
    """
    lattice = u0.lattice
    c = pack_ball(leray_project(u0).coeffs, lattice, cfg.cutoff)
    weight = parseval_weight(lattice, 1.0)[lattice.ball_mask(cfg.cutoff)]
    h1_sq = float(np.sum(weight * ball_mod_sq(c)))
    if cfg.k0 is not None and h1_sq > cfg.k0 * (1.0 + 1e-9):
        raise ValueError(f"||u0^N||_H1^2 = {h1_sq:.6g} exceeds configured K0 = {cfg.k0}")
    return SimState(t=0.0, step=0, c=c, lattice=lattice, cutoff=cfg.cutoff,
                    budget_sup=h1_sq, budget_int=0.0, h2_int=0.0, initial_h1_sq=h1_sq)


_SERIES_KEYS = ("t", *_OBS_KEYS, "budget_sup", "budget_int", "h2_int")


def integrate(cfg: StepperConfig, system: NoiseSystem, path: PathSpec,
              u0: SpectralField, store_every: int = 1,
              resume: SimState | None = None,
              check_stability: bool = True) -> Trajectory:
    """Integrate one path from u0 (or a checkpoint) to t_end.

    Increments are the base stream of `path`, drawn by absolute step index,
    so resuming from a checkpoint is bit-compatible with the uninterrupted
    run. NonFinite coefficients abort with the partial trajectory attached
    to the error.
    """
    traj, = integrate_paths(cfg, system, [path], u0, store_every, resume, check_stability)
    if traj.nonfinite:
        raise NonFiniteError(traj.nonfinite, traj)
    return traj


def integrate_paths(cfg: StepperConfig, system: NoiseSystem, paths: list[PathSpec],
                    u0: SpectralField, store_every: int = 1,
                    resume: SimState | None = None,
                    check_stability: bool = True) -> list[Trajectory]:
    """Integrate every path from u0 (or one checkpoint) to t_end as one stack.

    Each path's trajectory is bitwise the one it has alone, as `integrate`
    documents. A path that turns non-finite keeps its trajectory up to the
    last finite step, with the error message in `Trajectory.nonfinite`,
    while the other paths go on.
    """
    if not system.validated:
        raise ValueError("NoiseSystem must pass validate_system before integration")
    if any(path.n_processes != system.n_wiener for path in paths):
        raise ValueError("PathSpec.n_processes must equal the system's Wiener count")
    stepper = _Stepper(cfg, system, u0.lattice if resume is None else resume.lattice)
    start = initial_state(u0, cfg) if resume is None else resume
    stack = PathStack(start, len(paths), stepper)
    bound = dt_stability(cfg, system, start.initial_h1_sq)["bound"]
    if check_stability and cfg.dt > bound:
        warnings.warn(f"dt={cfg.dt} exceeds the stability rule bound {bound:.3g} (N={cfg.cutoff}, "
                      f"||u0||_H1={math.sqrt(max(start.initial_h1_sq, 0.0)):.3g})", RuntimeWarning)

    total_steps = cfg.n_steps
    remaining = total_steps - start.step
    if remaining < 0:
        raise ValueError("checkpoint lies beyond t_end")
    blocks = increments_paths(paths, start.step * cfg.dt, cfg.dt, remaining)
    dw = np.stack([block.increments for block in blocks], axis=1)

    series = {key: np.empty((remaining + 1, len(paths))) for key in _SERIES_KEYS}
    _record(series, 0, stack)
    states = [[start] for _ in paths]
    ends = [remaining] * len(paths)   # each path's last finite step
    for i in range(remaining):
        for p in _advance(stack, stepper, dw[i]):
            ends[p] = i
        _record(series, i + 1, stack)
        if stack.step % store_every == 0 or stack.step == total_steps:
            for p in np.flatnonzero(stack.live):
                states[p].append(stack.state(p))
    return [Trajectory(cfg=cfg, states=states[p],
                       series={key: rows[:ends[p] + 1, p].copy() for key, rows in series.items()},
                       stops=stack.stops[p], path=path, nonfinite=stack.failed[p])
            for p, path in enumerate(paths)]


def _record(series: dict, row: int, stack: PathStack) -> None:
    values = dict(stack.obs, t=stack.t, budget_sup=stack.budget_sup,
                  budget_int=stack.budget_int, h2_int=stack.h2_int)
    for key in _SERIES_KEYS:
        series[key][row] = values[key]
