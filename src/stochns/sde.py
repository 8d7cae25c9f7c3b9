"""Time integration of the Galerkin-truncated stochastic system.

The state lives on the modes |k| <= N and is stored as that Galerkin ball
alone: `SimState.c` holds the packed (dim, n_ball) coefficients, which the
steps read and write as they are, and `SimState.u` unpacks them into a
half-spectrum field only for readers that need one. One step of the
exponential Euler-Maruyama scheme applies the exact viscous semigroup to
everything explicit:

    u+ = exp(-nu A dt) [ u + dt (drift(u) + nu A u) + sum_k diffusion_k(u) dW_k ]

with drift = -P^N P((u.grad)u) - nu A u + 1/2 sum_k P^N P((xi_k.grad)(xi_k.grad)u)
and diffusion_k = P^N P[g_k(u) - (xi_k.grad)u]. The transport coefficients
are constant vectors, so the corrector and the whole noise sum
c (sum_k g_k dW_k - i sum_k dW_k (xi_k . k)) + sum_k dW_k sigma_hat_k are
diagonal multiplies plus the additive fields: `_Stepper.advance` evaluates
the bracket in place on one new array, the noise sum as one complex
multiplier per path and mode. The five observables are reduced in one call,
and a path's coefficients are scanned only when one of its sums is not
finite. Budgets (the Gevrey-H^1 sup and the nu-weighted Gevrey-H^2 time
integral) are accumulated with left-endpoint quadrature and the stopping
monitors are evaluated at step boundaries; integration continues past a
trigger, only the record is kept.

`_advance` is the one step loop body: it advances a `PathStack` of paths
from one start, with budgets and stop records per path, and `integrate` is
the one-path case of `integrate_paths`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .brownian import IncrementBlock, PathSpec, increments_paths
from .fields import (GevreyWeight, SpectralField, galerkin_project, leray_project,
                     pack_ball, parseval_weight, sobolev_norm_sq, transfer, unpack_ball)
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
    gevrey: GevreyWeight = GevreyWeight(s=1.0, r=1.0, phi=0.0)
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
    (row-major) order, as `fields.pack_ball` returns them. `u` unpacks it
    into a SpectralField on demand. Snapshots store c as it is; `load_state`
    refuses every other layout, the half spectrum and the full grid included.
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

    @property
    def u(self) -> SpectralField:
        """The state as a solenoidal field on the half spectrum."""
        return SpectralField(self.lattice, unpack_ball(self.c, self.lattice, self.cutoff),
                             solenoidal=True)

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
    return {"N": cfg.cutoff, "dt": cfg.dt, "bound": bound, "ratio": cfg.dt / bound}


# ---------------------------------------------------------------------------
# the stepping engine

_OBS_KEYS = ("l2_sq", "h1_sq", "h2_sq", "gevrey_h1_sq", "gevrey_h2_sq")


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
        self.root_ball = np.power(lattice.abs_k[ball], 1.0 / cfg.gevrey.s)
        max_root = float(self.root_ball.max()) if self.root_ball.size else 0.0
        if cfg.phi_cap * max_root > cfg.gevrey.exp_guard:
            raise ValueError("phi_cap too large for this lattice/cutoff (Gevrey guard)")

        # the real phases (xi_k.k) per family position and the Ito corrector
        phases, corrector = nonlinear.transport_multipliers(lattice, system.xi.vectors)
        self.xi_phase = [phase[ball] for phase in phases]
        self.corrector_mult = corrector[ball]

        # additive sigma fields arrive pre-projected onto the ball, carried
        # over from the lattice they were built on
        self.additive_hat = None
        if system.g.variant == "additive":
            self.additive_hat = [transfer(leray_project(sig), lattice).coeffs[:, ball]
                                 for sig in system.g.sigmas]

    # -- pieces -------------------------------------------------------------

    def explicit_drift(self, c: np.ndarray) -> np.ndarray:
        """Drift without the viscous term: -P^N P((u.grad)u) + Ito corrector.

        Convection is the one stage off the ball: `convect` takes each packed
        path through the grid and returns it packed.
        """
        out = c * self.corrector_mult
        if self.cfg.convection:
            for path in np.ndindex(c.shape[:-2]):
                u = c[path]  # one object for both arguments: the symmetric path
                if np.any(u):
                    out[path] -= nonlinear.convect(u, u, self.convect_plan)
        return out

    def noise_sum(self, c: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """sum_k diffusion_k(u) dW_k: one diagonal multiply plus the additive fields.

        c is (..., dim, n_ball) and dw (..., n_wiener) with the same leading
        shape. An exactly zero increment adds no term to its path, and a path
        with no term gets zeros, so every path sums exactly what it would
        alone.
        """
        sys_ = self.system
        mult = np.zeros(dw.shape[:-1] + self.ksq.shape, dtype=np.complex128)
        for phase, k_index in zip(self.xi_phase, sys_.xi.index_set):
            mult.imag -= dw[..., k_index, None] * phase
        lin = np.zeros(dw.shape[:-1] + (1,))
        if sys_.g.variant == "linear":
            for pos, k_index in enumerate(sys_.g.index_set):
                lin += dw[..., k_index, None] * sys_.g.coefficients[pos]
            mult.real += lin
        # the multiplier is lin + i d with neither part -0, so a zero increment
        # changes no bit of the product; a path with no nonzero transport
        # increment and lin == 0 has no term and gets zeros, not c * 0
        live = np.any(dw[..., list(sys_.xi.index_set)] != 0.0, axis=-1, keepdims=True)
        has_term = (live | (lin != 0.0))[..., None]
        out = c * mult[..., None, :]
        if not has_term.all():
            out = np.where(has_term, out, 0.0)
        if sys_.g.variant == "additive":
            # -0.0 + x is x bitwise: each path's sum starts at its first live field
            acc = np.full(c.shape, complex(-0.0, -0.0))
            has_acc = np.zeros_like(has_term)
            for sigma, k_index in zip(self.additive_hat, sys_.g.index_set):
                dwk = dw[..., k_index, None, None]
                acc = np.where(dwk != 0.0, acc + dwk * sigma, acc)
                has_acc |= dwk != 0.0
            out = np.where(has_acc, np.where(has_term, out + acc, acc), out)
        return out

    # -- one step -------------------------------------------------------------

    def advance(self, c: np.ndarray, dw: np.ndarray,
                phi: float) -> tuple[np.ndarray, dict, np.ndarray]:
        """One exponential Euler-Maruyama step of every path in the stack c.

        dw holds one increment row per path, phi is the Gevrey width at the
        new time. Returns the new coefficients, their observables (arrays of
        the batch shape) and, per path, what turned non-finite: "coefficient",
        else the names of the non-finite observables, else "".
        """
        c_new = self.explicit_drift(c)
        c_new *= self.cfg.dt
        c_new += c
        if self.system.n_wiener:
            c_new += self.noise_sum(c, dw)
        c_new *= self.decay
        obs = self.observables(c_new, phi)
        # a non-finite coefficient makes its path's l2_sq non-finite (every
        # weight is >= 1), so finite sums clear the coefficients too
        finite = np.isfinite(np.array(tuple(obs.values())))
        bad = np.full(finite.shape[1:], "", dtype=object)
        if not finite.all():
            coeff_ok = np.isfinite(c_new).all(axis=(-2, -1))
            for path in np.ndindex(bad.shape):
                names = [name for name, f in zip(obs, finite[(slice(None),) + path]) if not f]
                bad[path] = "coefficient" if not coeff_ok[path] else ", ".join(names)
        return c_new, obs, bad

    # -- scalar observables ---------------------------------------------------

    def observables(self, c: np.ndarray, phi: float) -> dict:
        """Squared norms of packed states, summed over the ball per path.

        The weighted terms of the five norms fill one (5, ..., n_ball) array
        that one sum reduces; at phi = 0 the Gevrey factor is exactly 1.
        """
        sq = c.real**2
        sq += c.imag**2
        mod = sq[..., 0, :] + sq[..., 1, :]   # np.sum(axis=-2)'s order, without its cost
        for row in range(2, c.shape[-2]):
            mod += sq[..., row, :]
        terms = np.empty((5,) + mod.shape)
        for row, w in zip(terms, self.w_ball):
            np.multiply(w, mod, out=row)
        np.multiply(terms[1:3], np.exp((2.0 * phi) * self.root_ball), out=terms[3:])
        return dict(zip(_OBS_KEYS, terms.sum(axis=-1)))


class PathStack:
    """Paths of one cutoff from a common start, stepped together by `_advance`.

    The paths share the time and step count. `c` is their packed
    (P, dim, n_ball) stack; the budgets, the stop records and the
    observables at the current time are kept per path. A path whose step
    turns non-finite gets its message in `failed`; from then on its row is
    zero and its budgets, stops and states are not taken.
    """

    def __init__(self, start: SimState, n_paths: int, stepper: _Stepper):
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
        self.obs = stepper.observables(self.c, stepper.cfg.phi_at(self.t))

    def fail(self, p: int, message: str) -> None:
        """End path p with `message`; its row is zeroed and skipped."""
        self.failed[p] = message
        self.live[p] = False
        self.c[p] = 0.0

    def state(self, p: int) -> SimState:
        """Path p as a SimState that owns a copy of its row."""
        return SimState(t=self.t, step=self.step, c=self.c[p].copy(), lattice=self.lattice,
                        cutoff=self.cutoff, budget_sup=self.budget_sup[p],
                        budget_int=self.budget_int[p], h2_int=self.h2_int[p],
                        initial_h1_sq=self.initial_h1_sq, stops=self.stops[p])


def _advance(stack: PathStack, stepper: _Stepper, dw: np.ndarray) -> list[int]:
    """One step of every path in the stack, with one increment row per path
    in dw; budgets and monitors are updated. Returns the paths that turned
    non-finite in this step."""
    cfg = stepper.cfg
    obs_now = stack.obs
    budget_int = stack.budget_int + cfg.dt * cfg.nu * obs_now["gevrey_h2_sq"]
    h2_int = stack.h2_int + cfg.dt * obs_now["h2_sq"]

    t_new = stack.t + cfg.dt
    step_new = stack.step + 1
    c_new, obs_new, bad = stepper.advance(stack.c, dw, cfg.phi_at(t_new))
    stack.t, stack.step, stack.c, stack.obs = t_new, step_new, c_new, obs_new
    failed = [p for p in np.flatnonzero(bad != "") if stack.live[p]]
    for p in failed:
        stack.fail(p, f"non-finite {bad[p]} at t={t_new:.6g} (step {step_new})")
    if not stack.live.all():
        c_new[~stack.live] = 0.0
        for value in obs_new.values():
            value[~stack.live] = 0.0
    budget_sup = np.maximum(stack.budget_sup, obs_new["gevrey_h1_sq"])

    value = budget_sup + budget_int
    hits = (("budget", value, value > stack.initial_h1_sq + cfg.budget_m),
            ("h2", h2_int, h2_int >= cfg.h2_r))
    for monitor, values, hit in hits:
        for p in np.flatnonzero(hit & stack.open[monitor] & stack.live):
            stack.stops[p] = stack.stops[p] + (StopRecord(monitor, t_new, step_new, values[p]),)
            stack.open[monitor][p] = False
    stack.budget_sup, stack.budget_int, stack.h2_int = budget_sup, budget_int, h2_int
    return failed


# ---------------------------------------------------------------------------
# public operations

def drift(u: SpectralField, cfg: StepperConfig, system: NoiseSystem) -> SpectralField:
    """Full drift including the viscous term, supported on |k| <= N."""
    stepper = _Stepper(cfg, system, u.lattice)
    c = pack_ball(u.coeffs, u.lattice, cfg.cutoff)
    out = stepper.explicit_drift(c) - cfg.nu * stepper.ksq * c
    return u.with_coeffs(unpack_ball(out, u.lattice, cfg.cutoff), solenoidal=True)


def diffusion(u: SpectralField, cfg: StepperConfig, system: NoiseSystem) -> list[SpectralField]:
    """One diffusion field per Wiener index: P^N P[g_k(u) - (xi_k.grad)u],
    the stepper's noise sum for the unit increment row e_k."""
    stepper = _Stepper(cfg, system, u.lattice)
    c = pack_ball(u.coeffs, u.lattice, cfg.cutoff)
    return [u.with_coeffs(unpack_ball(stepper.noise_sum(c, e_k), u.lattice, cfg.cutoff),
                          solenoidal=True)
            for e_k in np.eye(system.n_wiener)]


def initial_state(u0: SpectralField, cfg: StepperConfig, t0: float = 0.0) -> SimState:
    """Project u0 onto the Galerkin ball and open the budget accounting.

    At t=0 the budget sup equals the initial squared H^1 norm exactly since
    phi(0) = 0.
    """
    u = galerkin_project(leray_project(u0), cfg.cutoff)
    h1_sq = sobolev_norm_sq(u, 1.0)
    if cfg.k0 is not None and h1_sq > cfg.k0 * (1.0 + 1e-9):
        raise ValueError(f"||u0^N||_H1^2 = {h1_sq:.6g} exceeds configured K0 = {cfg.k0}")
    return SimState(t=t0, step=int(round(t0 / cfg.dt)),
                    c=pack_ball(u.coeffs, u.lattice, cfg.cutoff), lattice=u.lattice,
                    cutoff=cfg.cutoff, budget_sup=h1_sq, budget_int=0.0, h2_int=0.0,
                    initial_h1_sq=h1_sq)


def step(state: SimState, cfg: StepperConfig, system: NoiseSystem,
         dw_row: np.ndarray) -> SimState:
    """One exponential Euler-Maruyama step; budgets and monitors updated."""
    dw_row = np.asarray(dw_row, dtype=np.float64)
    if dw_row.shape != (system.n_wiener,):
        raise ValueError(f"dW row must have length {system.n_wiener}")
    stepper = _Stepper(cfg, system, state.lattice)
    stack = PathStack(state, 1, stepper)
    if _advance(stack, stepper, dw_row[None]):
        raise NonFiniteError(stack.failed[0])
    return stack.state(0)


_SERIES_KEYS = ("t", *_OBS_KEYS, "budget_sup", "budget_int", "h2_int")


def integrate(cfg: StepperConfig, system: NoiseSystem, path: PathSpec,
              u0: SpectralField, store_every: int = 1,
              resume: SimState | None = None,
              driving: IncrementBlock | None = None,
              check_stability: bool = True) -> Trajectory:
    """Integrate one path from u0 (or a checkpoint) to t_end.

    Increments are drawn by absolute step index, so resuming from a
    checkpoint is bit-compatible with the uninterrupted run. A pre-built
    (e.g. bridge-refined) IncrementBlock can be supplied via `driving`;
    otherwise the base stream for `path` is used. NonFinite coefficients
    abort with the partial trajectory attached to the error.
    """
    traj, = integrate_paths(cfg, system, [path], u0, store_every, resume,
                            None if driving is None else [driving], check_stability)
    if traj.nonfinite:
        raise NonFiniteError(traj.nonfinite, traj)
    return traj


def integrate_paths(cfg: StepperConfig, system: NoiseSystem, paths: list[PathSpec],
                    u0: SpectralField, store_every: int = 1,
                    resume: SimState | None = None,
                    driving: list[IncrementBlock] | None = None,
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
    if driving is not None:
        for block in driving:
            if abs(block.dt - cfg.dt) > 1e-12 * cfg.dt:
                raise ValueError("driving block dt does not match the stepper dt")
            if block.step0 != start.step or block.n_steps < remaining:
                raise ValueError("driving block does not cover the requested steps")
            if block.increments.shape[1] != system.n_wiener:
                raise ValueError("driving block has the wrong Wiener count")
        blocks = driving
    else:
        blocks = increments_paths(paths, start.step * cfg.dt, cfg.dt, remaining)
    dw = np.stack([block.increments[:remaining] for block in blocks], axis=1)

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


# ---------------------------------------------------------------------------
# exact linear oracle and the coupled-pair stopping monitor

def linear_exact_at(u0: SpectralField, xi, nu: float, t: float):
    """Closed form for the linear system (no convection, g = 0, one constant xi)
    at time t, as a map from a path's W_t to the coefficients

        u_hat(t) = u_hat(0) exp(-nu |k|^2 t - i (xi.k) W_t),

    whose modulus decays like the heat semigroup on every path. The
    path-independent phase and heat exponent are evaluated once.
    """
    lat = u0.lattice
    (theta,), _ = nonlinear.transport_multipliers(lat, [xi])
    heat_exp, i_theta = -nu * lat.ksq.astype(np.float64) * t, 1j * theta
    return lambda w: np.where(lat.active, u0.coeffs * np.exp(heat_exp - i_theta * w), 0.0)


def linear_exact(u0: SpectralField, xi, nu: float, w_value: float, t: float) -> SpectralField:
    return u0.with_coeffs(linear_exact_at(u0, xi, nu, t)(w_value))


def tau_r_reached(h2_int_n: float, h2_int_ref: float, r_threshold: float) -> bool:
    """The paired stopping rule: the H^2 integrals of u_N and u_ref reach R."""
    return h2_int_n + h2_int_ref >= r_threshold


def monitor_tau_R(traj_n: Trajectory, traj_ref: Trajectory, r_threshold: float) -> float:
    """First time the paired H^2 integral reaches R, else the common horizon.

    Both trajectories must share the time grid (and, for the coupling to mean
    anything, the Brownian path). Reads the `h2_int` series that `_advance`
    accumulates (left-endpoint quadrature), so the stop is resolved to step
    boundaries; doubling R never decreases the result.
    """
    t_n, t_ref = traj_n.times, traj_ref.times
    if t_n.shape != t_ref.shape or not np.allclose(t_n, t_ref, rtol=0, atol=1e-12):
        raise ValueError("trajectories do not share a time grid")
    if r_threshold < 0:
        raise ValueError("R must be >= 0")
    for t, h2_n, h2_ref in zip(t_n[1:], traj_n.series["h2_int"][1:],
                               traj_ref.series["h2_int"][1:]):
        if tau_r_reached(h2_n, h2_ref, r_threshold):
            return float(t)
    return float(t_n[-1])
