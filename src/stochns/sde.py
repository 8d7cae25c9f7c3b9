"""Time integration of the Galerkin-truncated stochastic system.

The state lives on the modes |k| <= N. One step of the exponential
Euler-Maruyama scheme applies the exact viscous semigroup to everything
explicit:

    u+ = exp(-nu A dt) [ u + dt (drift(u) + nu A u) + sum_k diffusion_k(u) dW_k ]

with drift = -P^N P((u.grad)u) - nu A u + 1/2 sum_k P^N P((xi_k.grad)(xi_k.grad)u)
and diffusion_k = P^N P[g_k(u) - (xi_k.grad)u]. The transport coefficients
are constant vectors, so the corrector and the whole noise sum
c (sum_k g_k dW_k - i sum_k dW_k (xi_k . k)) + sum_k dW_k sigma_hat_k are
diagonal multiplies plus the additive fields. Budgets (the Gevrey-H^1 sup
and the nu-weighted Gevrey-H^2 time integral) are accumulated with
left-endpoint quadrature and the stopping monitors are evaluated at step
boundaries; integration continues past a trigger, only the record is kept.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .brownian import IncrementBlock, PathSpec, increments
from .fields import (GevreyWeight, SpectralField, galerkin_project,
                     leray_project, mode_weight, sobolev_norm_sq, transfer)
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
    """Galerkin state at one time with the running budgets and stop records."""

    t: float
    step: int
    u: SpectralField
    budget_sup: float   # running sup of the squared Gevrey-H^1 norm
    budget_int: float   # running nu * integral of the squared Gevrey-H^2 norm
    h2_int: float       # running integral of the plain squared H^2 norm
    initial_h1_sq: float
    stops: tuple[StopRecord, ...] = ()

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

    @property
    def final(self) -> SimState:
        return self.states[-1]

    @property
    def times(self) -> np.ndarray:
        return self.series["t"]


# ---------------------------------------------------------------------------
# stability rule (advective CFL C_adv = 1, noise quadratic-variation rate)

def dt_stability_bound(cfg: StepperConfig, system: NoiseSystem, h1_norm: float) -> float:
    """Documented step-size rule: dt <= min(0.5/(N ||u||_H1), 0.1/noise_rate)."""
    adv = 0.5 / max(cfg.cutoff * max(h1_norm, 1e-30), 1e-30)
    rate = float(sum((np.linalg.norm(v) * cfg.cutoff) ** 2 for v in system.xi.vectors))
    if system.g.variant == "linear":
        rate += sum(c * c for c in system.g.coefficients)
    noise = 0.1 / rate if rate > 0 else float("inf")
    return min(adv, noise)


def warn_if_unstable(cfg: StepperConfig, system: NoiseSystem, h1_norm: float) -> None:
    bound = dt_stability_bound(cfg, system, h1_norm)
    if cfg.dt > bound:
        warnings.warn(
            f"dt={cfg.dt} exceeds the stability rule bound {bound:.3g} "
            f"(N={cfg.cutoff}, ||u0||_H1={h1_norm:.3g})", RuntimeWarning, stacklevel=2)


# ---------------------------------------------------------------------------
# the stepping engine

class _Stepper:
    """Precomputed multiplier arrays for one (config, system, lattice) triple."""

    def __init__(self, cfg: StepperConfig, system: NoiseSystem, lattice: WaveLattice):
        self.cfg = cfg
        self.system = system
        self.lattice = lattice
        self.ball = lattice.ball_mask(cfg.cutoff)
        self.decay = np.where(self.ball,
                              np.exp(-cfg.nu * cfg.dt * lattice.ksq.astype(np.float64)), 0.0)
        self.visc = np.where(lattice.active, lattice.ksq.astype(np.float64), 0.0)
        # observables read the ball only: the state is zero off it, and the
        # Gevrey weight is then never evaluated where it could overflow
        self.ball_index = np.flatnonzero(self.ball)
        self.w_h1_ball = mode_weight(lattice, 1.0).ravel()[self.ball_index]
        self.w_h2_ball = mode_weight(lattice, 2.0).ravel()[self.ball_index]
        self.root_ball = np.power(lattice.abs_k.ravel()[self.ball_index], 1.0 / cfg.gevrey.s)
        max_root = float(self.root_ball.max()) if self.root_ball.size else 0.0
        if cfg.phi_cap * max_root > cfg.gevrey.exp_guard:
            raise ValueError("phi_cap too large for this lattice/cutoff (Gevrey guard)")

        # the real phases (xi_k.k) per family position and the Ito corrector
        self.xi_phase, self.corrector_mult = nonlinear.transport_multipliers(
            lattice, system.xi.vectors)

        # additive sigma fields arrive pre-projected onto the ball, carried
        # over from the lattice they were built on
        self.additive_hat = None
        if system.g.variant == "additive":
            self.additive_hat = [
                np.where(self.ball, transfer(leray_project(sig), lattice).coeffs, 0.0)
                for sig in system.g.sigmas
            ]

    # -- pieces -------------------------------------------------------------

    def explicit_drift(self, c: np.ndarray) -> np.ndarray:
        """Drift without the viscous term: -P^N P((u.grad)u) + Ito corrector."""
        lat = self.lattice
        out = np.zeros_like(c)
        if self.cfg.convection and np.any(c):
            u = SpectralField(lat, c, solenoidal=True)
            conv = nonlinear.convect(u, u)
            out -= np.where(self.ball, conv.coeffs, 0.0)
        out += np.where(self.ball, c * self.corrector_mult, 0.0)
        return out

    def drift(self, c: np.ndarray) -> np.ndarray:
        return self.explicit_drift(c) - self.cfg.nu * self.visc * c

    def noise_sum(self, c: np.ndarray, dw_row: np.ndarray) -> np.ndarray:
        """sum_k diffusion_k(u) dW_k: one diagonal multiply plus the additive fields."""
        sys_ = self.system
        lin = 0.0
        diag_im = None
        acc = None
        for phase, k_index in zip(self.xi_phase, sys_.xi.index_set):
            dw = float(dw_row[k_index])
            if dw == 0.0:
                continue
            if diag_im is None:
                diag_im = (-dw) * phase
            else:
                diag_im -= dw * phase
        if sys_.g.variant == "linear":
            for pos, k_index in enumerate(sys_.g.index_set):
                lin += float(dw_row[k_index]) * sys_.g.coefficients[pos]
        elif sys_.g.variant == "additive":
            for pos, k_index in enumerate(sys_.g.index_set):
                dw = float(dw_row[k_index])
                if dw == 0.0:
                    continue
                contrib = dw * self.additive_hat[pos]
                acc = contrib if acc is None else acc + contrib
        if diag_im is not None:
            term = c * (lin + 1j * diag_im)
        elif lin != 0.0:
            term = c * lin
        else:
            term = None
        if term is None and acc is None:
            return np.zeros_like(c)
        if term is None:
            return acc
        return term if acc is None else term + acc

    def step_coeffs(self, c: np.ndarray, dw_row: np.ndarray) -> np.ndarray:
        pre = c + self.cfg.dt * self.explicit_drift(c)
        if self.system.n_wiener and dw_row.size:
            pre += self.noise_sum(c, dw_row)
        return self.decay * pre  # decay is zero off the Galerkin ball

    # -- scalar observables ---------------------------------------------------

    def observables(self, c: np.ndarray, phi: float) -> dict[str, float]:
        """Squared norms of a state supported on the ball, summed over the ball."""
        cb = np.take(c.reshape(c.shape[0], -1), self.ball_index, axis=1)
        mod = np.sum(cb.real**2 + cb.imag**2, axis=0)
        h1 = self.w_h1_ball * mod
        h2 = self.w_h2_ball * mod
        obs = {"l2_sq": float(np.sum(mod)),
               "h1_sq": float(np.sum(h1)),
               "h2_sq": float(np.sum(h2))}
        if phi == 0.0:
            obs["gevrey_h1_sq"], obs["gevrey_h2_sq"] = obs["h1_sq"], obs["h2_sq"]
        else:
            gev = np.exp((2.0 * phi) * self.root_ball)
            obs["gevrey_h1_sq"] = float(np.sum(h1 * gev))
            obs["gevrey_h2_sq"] = float(np.sum(h2 * gev))
        return obs


def _advance(state: SimState, stepper: _Stepper, dw_row: np.ndarray,
             obs_now: dict | None = None) -> tuple[SimState, dict]:
    """One step; returns the new state and its observables (reusable by the
    caller as the next step's obs_now to avoid recomputation)."""
    cfg = stepper.cfg
    c = state.u.coeffs
    if obs_now is None:
        obs_now = stepper.observables(c, cfg.phi_at(state.t))
    budget_int = state.budget_int + cfg.dt * cfg.nu * obs_now["gevrey_h2_sq"]
    h2_int = state.h2_int + cfg.dt * obs_now["h2_sq"]

    c_new = stepper.step_coeffs(c, dw_row)
    if not np.all(np.isfinite(c_new.view(np.float64))):
        raise NonFiniteError(f"non-finite coefficient at t={state.t + cfg.dt:.6g} "
                             f"(step {state.step + 1})")
    t_new = state.t + cfg.dt
    step_new = state.step + 1
    obs_new = stepper.observables(c_new, cfg.phi_at(t_new))
    bad = [name for name, value in obs_new.items() if not math.isfinite(value)]
    if bad:
        raise NonFiniteError(f"non-finite {', '.join(bad)} at t={t_new:.6g} (step {step_new})")
    budget_sup = max(state.budget_sup, obs_new["gevrey_h1_sq"])

    stops = state.stops
    if state.stop_for("budget") is None:
        value = budget_sup + budget_int
        if value > state.initial_h1_sq + cfg.budget_m:
            stops = stops + (StopRecord("budget", t_new, step_new, value),)
    if state.stop_for("h2") is None and h2_int >= cfg.h2_r:
        stops = stops + (StopRecord("h2", t_new, step_new, h2_int),)

    u_new = SpectralField(stepper.lattice, c_new, solenoidal=True)
    new_state = SimState(t=t_new, step=step_new, u=u_new, budget_sup=budget_sup,
                         budget_int=budget_int, h2_int=h2_int,
                         initial_h1_sq=state.initial_h1_sq, stops=stops)
    return new_state, obs_new


# ---------------------------------------------------------------------------
# public operations

def drift(u: SpectralField, cfg: StepperConfig, system: NoiseSystem) -> SpectralField:
    """Full drift including the viscous term, supported on |k| <= N."""
    stepper = _Stepper(cfg, system, u.lattice)
    c = np.where(stepper.ball, u.coeffs, 0.0)
    return SpectralField(u.lattice, stepper.drift(c), solenoidal=True)


def diffusion(u: SpectralField, cfg: StepperConfig, system: NoiseSystem) -> list[SpectralField]:
    """One diffusion field per Wiener index: P^N P[g_k(u) - (xi_k.grad)u],
    the stepper's noise sum for the unit increment row e_k."""
    stepper = _Stepper(cfg, system, u.lattice)
    c = np.where(stepper.ball, u.coeffs, 0.0)
    return [SpectralField(u.lattice, stepper.noise_sum(c, e_k), solenoidal=True)
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
    return SimState(t=t0, step=int(round(t0 / cfg.dt)), u=u,
                    budget_sup=h1_sq, budget_int=0.0, h2_int=0.0,
                    initial_h1_sq=h1_sq)


def step(state: SimState, cfg: StepperConfig, system: NoiseSystem,
         dw_row: np.ndarray) -> SimState:
    """One exponential Euler-Maruyama step; budgets and monitors updated."""
    dw_row = np.asarray(dw_row, dtype=np.float64)
    if dw_row.shape != (system.n_wiener,):
        raise ValueError(f"dW row must have length {system.n_wiener}")
    stepper = _Stepper(cfg, system, state.u.lattice)
    return _advance(state, stepper, dw_row)[0]


_SERIES_KEYS = ("t", "l2_sq", "h1_sq", "h2_sq", "gevrey_h1_sq", "gevrey_h2_sq",
                "budget_sup", "budget_int", "h2_int")


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
    if not system.validated:
        raise ValueError("NoiseSystem must pass validate_system before integration")
    if path.n_processes != system.n_wiener:
        raise ValueError("PathSpec.n_processes must equal the system's Wiener count")
    stepper = _Stepper(cfg, system, u0.lattice if resume is None else resume.u.lattice)

    if resume is None:
        state = initial_state(u0, cfg)
    else:
        state = resume
    if check_stability:
        warn_if_unstable(cfg, system, math.sqrt(max(state.initial_h1_sq, 0.0)))

    total_steps = cfg.n_steps
    start_step = state.step
    remaining = total_steps - start_step
    if remaining < 0:
        raise ValueError("checkpoint lies beyond t_end")
    if driving is not None:
        if abs(driving.dt - cfg.dt) > 1e-12 * cfg.dt:
            raise ValueError("driving block dt does not match the stepper dt")
        if driving.step0 != start_step or driving.n_steps < remaining:
            raise ValueError("driving block does not cover the requested steps")
        if driving.increments.shape[1] != system.n_wiener:
            raise ValueError("driving block has the wrong Wiener count")
        block = driving
    else:
        block = increments(path, start_step * cfg.dt, cfg.dt, remaining)

    states = [state]
    obs = stepper.observables(state.u.coeffs, cfg.phi_at(state.t))
    series = {key: [_series_row(state, obs)[key]] for key in _SERIES_KEYS}

    for i in range(remaining):
        try:
            state, obs = _advance(state, stepper, block.increments[i], obs_now=obs)
        except NonFiniteError as err:
            err.trajectory = _finish(cfg, states, series, state, path)
            raise
        row = _series_row(state, obs)
        for key in _SERIES_KEYS:
            series[key].append(row[key])
        if state.step % store_every == 0 or state.step == total_steps:
            states.append(state)
    if states[-1] is not state:
        states.append(state)
    return _finish(cfg, states, series, state, path)


def _series_row(state: SimState, obs: dict) -> dict[str, float]:
    row = dict(obs)
    row["t"] = state.t
    row["budget_sup"] = state.budget_sup
    row["budget_int"] = state.budget_int
    row["h2_int"] = state.h2_int
    return row


def _finish(cfg, states, series, last_state, path) -> Trajectory:
    arrays = {key: np.asarray(vals, dtype=np.float64) for key, vals in series.items()}
    return Trajectory(cfg=cfg, states=states, series=arrays,
                      stops=last_state.stops, path=path)


# ---------------------------------------------------------------------------
# exact linear oracle and the coupled-pair stopping monitor

def linear_exact(u0: SpectralField, xi, nu: float, w_value: float,
                 t: float) -> SpectralField:
    """Closed form for the linear system (no convection, g = 0, one constant xi).

    Mode-wise u_hat(t) = u_hat(0) exp(-nu |k|^2 t - i (xi.k) W_t); the modulus
    decays like the heat semigroup on every path.
    """
    lat = u0.lattice
    (theta,), _ = nonlinear.transport_multipliers(lat, [xi])
    factor = np.exp(-nu * lat.ksq.astype(np.float64) * t - 1j * theta * w_value)
    return u0.with_coeffs(np.where(lat.active, u0.coeffs * factor, 0.0))


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
