"""Experiment engines behind the CLI commands.

Each engine is a pure function of a validated ExperimentConfig returning
plain result objects; the CLI layer only serializes them. Ensembles are
split into contiguous chunks of paths by `_run_chunks`, a multiple of
`ensemble.workers` of them; each chunk is one thread-pool task that advances
its paths as one packed stack (`sde.PathStack`) through `sde._advance`, and
the results are reassembled in path order. A stack gives each path the
arithmetic it gets alone and the Wiener driver is counter-based, so results
do not depend on the worker count or the chunking. Every engine reads the
Galerkin states as packed balls: the shell spectra, the `invariants` step
checks, and the decay-study and linear-oracle errors, which are
`_Stepper.observables` sums over packed rows.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, nonlinear
from .brownian import increments_paths, refine_paths
from .config import ConfigError, ExperimentConfig
from .fields import (GevreyWeight, galerkin_complement, galerkin_project, inner_ball,
                     leray_project, random_field, sobolev_norm_sq, transfer, weighted_inner)
from .noise import (validate_commutativity, validate_growth_lipschitz,
                    validate_orthogonality, validate_system)
from .sde import (PathStack, Trajectory, _Stepper, _advance, dt_stability,
                  initial_state, integrate, integrate_paths)


# bytes one chunk of an ensemble may hold: its paths' stacked (dim, n_ball)
# states and their Wiener increments
_CHUNK_BYTES = 4 << 20


def _run_chunks(run_chunk, n_paths: int, workers: int, path_bytes: int,
                chunk_bytes: int) -> list:
    """Run run_chunk(range of path indices) over contiguous chunks of the
    paths, one pool task each; the per-path results come back in path order.

    There are `workers` chunks, or the smallest multiple of `workers` that
    keeps each within `chunk_bytes`, but never more than one per path; their
    sizes differ by at most one.
    """
    rounds = -(-n_paths * path_bytes // (workers * chunk_bytes))
    n_chunks = min(n_paths, workers * rounds)
    bounds = [n_paths * j // n_chunks for j in range(n_chunks + 1)]
    chunks = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    if workers <= 1:
        results = [run_chunk(chunk) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, chunks))
    return [result for chunk in results for result in chunk]


def _path_bytes(lattice, cutoffs, n_steps: int, n_wiener: int) -> int:
    """Bytes of one path in a chunk: its ball at each cutoff and its increments."""
    balls = sum(int(lattice.ball_mask(n).sum()) for n in cutoffs)
    return 16 * lattice.dim * balls + 8 * n_steps * n_wiener


def prepare(config: ExperimentConfig):
    """Shared setup: lattice, validated noise system, initial field.

    A noise system that fails the closed-form gate `noise.validate_system`
    (which samples no field) is refused with ConfigError.
    """
    lattice = config.build_lattice()
    system = config.build_noise_system(lattice)
    try:
        system = validate_system(system)
    except ValueError as exc:
        raise ConfigError(f"noise system failed validation: {exc}") from exc
    return lattice, system, config.initial_field(lattice)


# ---------------------------------------------------------------------------
# simulate

@dataclass
class PathResult:
    path_index: int
    trajectory: Trajectory   # partial when the path turned non-finite
    spectra: list = field(default_factory=list)        # ShellSpectrum per snapshot
    radius_fits: list = field(default_factory=list)    # (t, FitResult) per usable snapshot

    @property
    def nonfinite(self) -> str | None:
        return self.trajectory.nonfinite


@dataclass
class SimulateResult:
    paths: list[PathResult]
    dt_stability: list[dict]   # n_ref: dt against the step-size rule at ||u0^N||_H1

    @property
    def nonfinite_paths(self) -> list[int]:
        return [p.path_index for p in self.paths if p.nonfinite]


def simulate(config: ExperimentConfig) -> SimulateResult:
    """Ensemble run at N = n_ref with shell spectra and radius fits per path."""
    lattice, system, u0 = prepare(config)
    cfg = config.stepper_config(config["galerkin.n_ref"])
    stride = config["outputs.snapshot_stride"]
    burn_in = config.burn_in_time()

    def run_chunk(indices: range) -> list[PathResult]:
        paths = [config.path_spec(i, system.n_wiener) for i in indices]
        results = []
        for i, traj in zip(indices, integrate_paths(cfg, system, paths, u0,
                                                    store_every=stride)):
            result = PathResult(path_index=i, trajectory=traj)
            results.append(result)
            if traj.nonfinite:
                continue
            for state in traj.states:
                spec = diagnostics.shell_spectrum(state.c, state.lattice, state.cutoff, t=state.t)
                result.spectra.append(spec)
                if state.t >= burn_in:
                    try:
                        result.radius_fits.append((state.t, diagnostics.fit_radius(spec)))
                    except diagnostics.FitRefusedError:
                        pass
        return results

    paths = _run_chunks(run_chunk, config["ensemble.n_paths"], config["ensemble.workers"],
                        _path_bytes(lattice, [cfg.cutoff], cfg.n_steps, system.n_wiener),
                        _CHUNK_BYTES)
    start = paths[0].trajectory.states[0]
    return SimulateResult(paths=paths,
                          dt_stability=[dt_stability(cfg, system, start.initial_h1_sq)])


# ---------------------------------------------------------------------------
# Galerkin decay study (common-path coupling across cutoffs)

@dataclass
class DecayPathOutcome:
    path_index: int
    errors_sq: dict      # cutoff -> ||u_ref - u_N||_{H^1}^2 at T ^ tau_R
    stop_times: dict     # cutoff -> tau_R (== t_end when never triggered)
    ref_tail_sq: float   # ||Q^{max cutoff} u_ref(T)||_{H^1}^2 (reference headroom)
    nonfinite: str | None = None


@dataclass
class DecayResult:
    cutoffs: list[int]
    n_ref: int
    outcomes: list[DecayPathOutcome]
    mean_errors: list[float]   # per cutoff; empty when no path stayed finite
    std_errors: list[float]
    fit: diagnostics.FitResult | None
    # per cutoff, then n_ref: dt against the step-size rule at ||u0^N||_H1
    dt_stability: list[dict]


def decay_study(config: ExperimentConfig) -> DecayResult:
    """Integrate every cutoff and the reference on identical Wiener paths.

    All resolutions advance in lockstep consuming the same increment rows,
    which realizes the coupled difference system. The reference steps on
    the configured grid; each cutoff steps on its own minimal dealias grid
    (`config.cutoff_lattice`), where its quadratic products are just as
    exact. Per path and cutoff the squared H^1 error is taken at
    t_end ^ tau_R, where tau_R is the first step boundary at which the
    paired H^2 integral reaches R, h2_int(u_N) + h2_int(u_ref) >= R: the
    stepper's `h1_sq` of the packed reference rows less u_N on its rows
    (`fields.inner_ball`).
    """
    lattice, system, u0 = prepare(config)
    cutoffs = sorted(config["galerkin.cutoffs"])
    if len(cutoffs) < 3:
        raise ConfigError("decay study needs at least 3 cutoffs")
    n_ref = config["galerkin.n_ref"]
    runs = (*cutoffs, n_ref)
    r_threshold = config["monitors.h2_r"]
    lattices = {n: config.cutoff_lattice(n) for n in cutoffs}
    lattices[n_ref] = lattice
    steppers = {n: _Stepper(config.stepper_config(n), system, lattices[n]) for n in runs}
    starts = {n: initial_state(transfer(u0, lattices[n]), steppers[n].cfg) for n in runs}
    n_steps = steppers[n_ref].cfg.n_steps
    dt = steppers[n_ref].cfg.dt
    # u_N's packed ball is these rows of the reference's, in its order
    rows = {n: inner_ball(lattice, n_ref, n) for n in cutoffs}

    def h1_sq(c: np.ndarray) -> np.ndarray:
        return steppers[n_ref].observables(c, 0.0)["h1_sq"]

    def run_chunk(indices: range) -> list[DecayPathOutcome]:
        blocks = increments_paths([config.path_spec(i, system.n_wiener) for i in indices],
                                  0.0, dt, n_steps)
        dw = np.stack([block.increments for block in blocks], axis=1)
        stacks = {n: PathStack(starts[n], len(indices), steppers[n]) for n in runs}
        ref = stacks[n_ref]
        errors = [{} for _ in indices]
        stop_times = [{} for _ in indices]
        pending = {n: np.ones(len(indices), dtype=bool) for n in cutoffs}
        for i in range(n_steps + 1):
            if i:
                for n in runs:
                    # a path's first error ends it at every cutoff
                    for p in _advance(stacks[n], steppers[n], dw[i - 1]):
                        for other in stacks.values():
                            if other.live[p]:
                                other.fail(p, stacks[n].failed[p])
            for n in cutoffs:
                # the error is taken at tau_R, or at t_end when tau_R never comes
                take = pending[n] & ref.live
                if i < n_steps:
                    take &= stacks[n].h2_int + ref.h2_int >= r_threshold
                if take.any():
                    diff = ref.c[take]
                    diff[..., rows[n]] -= stacks[n].c[take]
                    for p, error in zip(np.flatnonzero(take), h1_sq(diff)):
                        pending[n][p] = False
                        stop_times[p][n] = stacks[n].t
                        errors[p][n] = float(error)
        tail = ref.c.copy()
        tail[..., rows[max(cutoffs)]] = 0.0
        outcomes = []
        for p, (path_index, tail_sq) in enumerate(zip(indices, h1_sq(tail))):
            if ref.failed[p]:
                outcomes.append(DecayPathOutcome(path_index=path_index, errors_sq={},
                                                 stop_times={}, ref_tail_sq=float("nan"),
                                                 nonfinite=ref.failed[p]))
            else:
                outcomes.append(DecayPathOutcome(path_index=path_index, errors_sq=errors[p],
                                                 stop_times=stop_times[p],
                                                 ref_tail_sq=float(tail_sq)))
        return outcomes

    outcomes = _run_chunks(run_chunk, config["ensemble.n_paths"], config["ensemble.workers"],
                           _path_bytes(lattice, runs, n_steps, system.n_wiener),
                           _CHUNK_BYTES)
    usable = [o for o in outcomes if not o.nonfinite]
    mean_errors, std_errors = [], []
    for n in cutoffs if usable else ():   # no finite path: no means, no fit
        vals = [o.errors_sq[n] for o in usable]
        mean, se = diagnostics.ensemble_mean(vals) if len(vals) >= 2 else (vals[0], 0.0)
        mean_errors.append(mean)
        std_errors.append(se)
    fit = None
    if mean_errors and all(e > 0 for e in mean_errors):
        try:
            fit = diagnostics.fit_exp_rate(cutoffs, mean_errors)
        except diagnostics.FitRefusedError:
            fit = None
    return DecayResult(cutoffs=cutoffs, n_ref=n_ref, outcomes=outcomes,
                       mean_errors=mean_errors, std_errors=std_errors, fit=fit,
                       dt_stability=[dt_stability(steppers[n].cfg, system,
                                                  starts[n].initial_h1_sq) for n in runs])


# ---------------------------------------------------------------------------
# linear oracle

# the oracle's chunk budget, bytes of one stacked (paths, dim, n_ball) state;
# larger chunks cost memory (on the oracle2d workload, 256 KiB raised peak
# RSS by 0.3-0.4 MiB and 4 MiB by 5.1-5.2 MiB)
_ORACLE_CHUNK_BYTES = 128 << 10


@dataclass
class OracleResult:
    dts: list[float]
    strong_errors: list[float]     # mean over finite paths, endpoint L^2 error vs closed form
    modulus_errors: list[float]    # mean over finite paths, max per-mode modulus error
    strong_slope: float | None     # None when no path stayed finite
    modulus_slope: float | None
    machine_precision: bool        # xi = 0 degenerate case
    nonfinite: dict = field(default_factory=dict)   # path index -> what turned non-finite


def linear_oracle_study(config: ExperimentConfig) -> OracleResult:
    """Strong dt-convergence against the closed-form linear solution.

    Requires convection off, zero g and exactly one constant xi; paths are
    coupled across dt levels by Brownian-bridge refinement of the base
    increments. The endpoint Wiener value is level-independent because
    refinement preserves block sums.

    Paths run through `_run_chunks` within `_ORACLE_CHUNK_BYTES` of stacked
    state per chunk: a chunk draws and refines its paths' increments and
    steps them as one `PathStack` per dt level through `_advance`. Each
    path's arithmetic does not depend on the chunk, so the results depend on
    neither the chunking nor `ensemble.workers`. A path that turns
    non-finite at any level is recorded with its first message and left out
    of the means.
    """
    if config["physics.convection"]:
        raise ConfigError("linear oracle requires physics.convection = false")
    if config["noise.multiplicative.variant"] != "zero":
        raise ConfigError("linear oracle requires zero multiplicative noise")
    lattice, system, u0 = prepare(config)
    if len(system.xi.index_set) != 1:
        raise ConfigError("linear oracle requires exactly one constant transport vector")
    nu = config["physics.nu"]
    t_end = config["physics.t_end"]
    dt0 = config["physics.dt"]
    levels = config["oracle.refinements"] + 1
    dts = [dt0 / 2**lvl for lvl in range(levels)]
    n_paths = config["ensemble.n_paths"]
    steppers = [_Stepper(dataclasses.replace(config.stepper_config(config["galerkin.n_ref"]),
                                             dt=dt), system, lattice) for dt in dts]
    start = initial_state(u0, steppers[0].cfg)
    # the closed form on the ball, u_hat(0) exp(-nu |k|^2 t - i (xi.k) W_t)
    heat_exp, i_theta = -nu * steppers[0].ksq * t_end, 1j * steppers[0].xi_phase[0]
    heat = np.abs(start.c * np.exp(heat_exp - i_theta * 0.0))

    def run_chunk(indices: range) -> list[tuple]:
        blocks = increments_paths([config.path_spec(i, system.n_wiener) for i in indices],
                                  0.0, dt0, steppers[0].cfg.n_steps)
        strong, modulus = np.zeros((2, len(indices), levels))
        failed = [None] * len(indices)
        for lvl, stepper in enumerate(steppers):
            if lvl:
                blocks = refine_paths(blocks, 2)
            stack = PathStack(start, len(indices), stepper)
            for dw in np.stack([block.increments for block in blocks], axis=1):
                _advance(stack, stepper, dw)
            failed = [first or now for first, now in zip(failed, stack.failed)]
            w_end = np.array([[[block.increments[:, 0].sum()]] for block in blocks])
            exact = start.c * np.exp(heat_exp - i_theta * w_end)
            strong[:, lvl] = np.sqrt(stepper.observables(stack.c - exact, 0.0)["l2_sq"])
            modulus[:, lvl] = np.abs(np.abs(stack.c) - heat).max(axis=(-2, -1))
        return list(zip(strong, modulus, failed))

    rows = _run_chunks(run_chunk, n_paths, config["ensemble.workers"], 16 * start.c.size,
                       _ORACLE_CHUNK_BYTES)
    nonfinite = {i: failed for i, (_, _, failed) in enumerate(rows) if failed}
    usable = [i for i in range(n_paths) if i not in nonfinite]
    if not usable:
        return OracleResult(dts=dts, strong_errors=[], modulus_errors=[], strong_slope=None,
                            modulus_slope=None, machine_precision=False, nonfinite=nonfinite)
    strong = np.mean([rows[i][0] for i in usable], axis=0)
    modulus = np.mean([rows[i][1] for i in usable], axis=0)
    # the start's ball L2 norm, the sum the strong errors are taken in
    eps_scale = 1e-12 * math.sqrt(steppers[0].observables(start.c, 0.0)["l2_sq"])
    machine = bool(np.all(strong < eps_scale))
    if machine:
        s_slope = m_slope = 0.0
    else:
        s_slope = float(np.polyfit(np.log(dts), np.log(np.maximum(strong, 1e-300)), 1)[0])
        m_slope = float(np.polyfit(np.log(dts), np.log(np.maximum(modulus, 1e-300)), 1)[0])
    return OracleResult(dts=dts, strong_errors=list(strong), modulus_errors=list(modulus),
                        strong_slope=s_slope, modulus_slope=m_slope,
                        machine_precision=machine, nonfinite=nonfinite)


# ---------------------------------------------------------------------------
# budget-monitor exceedance study

@dataclass
class ExceedanceResult:
    cutoffs: list[int]
    horizons: list[float]
    fractions: dict        # (cutoff, horizon) -> fraction of paths with budget stop <= horizon
    initial_budgets: list[float]
    nonfinite: dict        # cutoff -> indices of the paths that turned non-finite


def budget_exceedance(config: ExperimentConfig, cutoffs, horizons) -> ExceedanceResult:
    """Empirical exceedance fractions of the budget monitor per cutoff/horizon.

    One integration per (path, cutoff) over the longest horizon, each on the
    cutoff's minimal dealias grid (`config.cutoff_lattice`); the stop
    record gives exceedance at every shorter horizon for free, and the
    fraction is automatically nonincreasing as the horizon shrinks because
    the budget is nondecreasing. A path that turns non-finite has an
    infinite budget from then on: it exceeds from that time, unless its
    budget stop came earlier. It stays in the denominator, and
    `nonfinite` lists it under its cutoff.
    """
    lattice, system, u0 = prepare(config)
    horizons = sorted(horizons, reverse=True)
    t_max = horizons[0]
    fractions = {}
    initial_budgets = []
    nonfinite = {}
    n_paths = config["ensemble.n_paths"]
    for cutoff in cutoffs:
        cfg = dataclasses.replace(config.stepper_config(cutoff), t_end=t_max)
        u0_n = transfer(u0, config.cutoff_lattice(cutoff))

        def run_chunk(indices: range, cfg=cfg, u0_n=u0_n) -> list[Trajectory]:
            paths = [config.path_spec(i, system.n_wiener) for i in indices]
            return integrate_paths(cfg, system, paths, u0_n, store_every=10**9,
                                   check_stability=False)
        trajs = _run_chunks(run_chunk, n_paths, config["ensemble.workers"],
                            _path_bytes(lattice, [cutoff], cfg.n_steps, system.n_wiener),
                            _CHUNK_BYTES)
        nonfinite[cutoff] = [i for i, traj in enumerate(trajs) if traj.nonfinite]
        stop_times = [_budget_stop_time(traj) for traj in trajs]
        initial_budgets.append(trajs[0].states[0].budget_sup)
        for horizon in horizons:
            frac = sum(1 for t in stop_times if t <= horizon + 1e-12) / n_paths
            fractions[(cutoff, horizon)] = frac
    return ExceedanceResult(cutoffs=list(cutoffs), horizons=horizons, fractions=fractions,
                            initial_budgets=initial_budgets, nonfinite=nonfinite)


def _budget_stop_time(traj: Trajectory) -> float:
    """Time of the path's budget stop; for a path that turned non-finite
    without one, the time of its failed step (the step after the last
    finite row of its series); otherwise inf."""
    for rec in traj.stops:
        if rec.monitor == "budget":
            return rec.time
    return traj.times[-1] + traj.cfg.dt if traj.nonfinite else float("inf")


# ---------------------------------------------------------------------------
# structural invariant checks (the `invariants` command)

@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""


def invariant_checks(config: ExperimentConfig, seed: int = 12) -> list[CheckResult]:
    """Aggregate the module-level structural identities into one pass/fail table."""
    lattice = config.build_lattice()
    system = config.build_noise_system(lattice)
    w = config.gevrey_weight()
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def add(name, value, threshold, detail=""):
        results.append(CheckResult(name=name, value=float(value), threshold=threshold,
                                   passed=bool(value <= threshold), detail=detail))

    f = random_field(lattice, rng, envelope=lambda k: k**-1.5)
    scale = math.sqrt(sobolev_norm_sq(f, 0.0))

    p1 = leray_project(f)
    add("leray_idempotent",
        math.sqrt(sobolev_norm_sq(leray_project(p1) - p1, 0.0)) / scale, 1e-13)

    from .fields import gevrey_apply, stokes_power
    pure = GevreyWeight(s=w.s, r=0.0, phi=0.1, exp_guard=w.exp_guard)
    a = galerkin_project(stokes_power(gevrey_apply(p1, pure), 0.5), 6)
    b = gevrey_apply(stokes_power(galerkin_project(p1, 6), 0.5), pure)
    add("projector_multiplier_commute",
        math.sqrt(sobolev_norm_sq(a - b, 0.0)) / scale, 1e-13)

    ok = True
    for n in (2, 4, 8):
        for r in (0.0, 0.5, 1.0, 1.5, 2.0):
            for s in (r, min(r + 0.5, 2.0), 2.0):
                pn = galerkin_project(f, n)
                qn = galerkin_complement(f, n)
                lhs = sobolev_norm_sq(pn, s)
                rhs = float(n) ** (2 * (s - r)) * sobolev_norm_sq(pn, r)
                ok &= lhs <= rhs
                lhs2 = sobolev_norm_sq(qn, r)
                rhs2 = float(n) ** (2 * (r - s)) * sobolev_norm_sq(qn, s)
                ok &= lhs2 <= rhs2
                ok &= sobolev_norm_sq(pn, r) <= sobolev_norm_sq(f, r)
                ok &= sobolev_norm_sq(qn, r) <= sobolev_norm_sq(f, r)
    add("mode_trading_and_continuity_exact", 0.0 if ok else 1.0, 0.5)

    g = random_field(lattice, rng, envelope=lambda k: k**-1.0)
    inner = abs(weighted_inner(galerkin_project(f, 8), galerkin_complement(g, 8),
                               r=1.0, w=pure))
    add("pn_qn_orthogonal", inner / max(sobolev_norm_sq(f, 1.0), 1e-30), 1e-13)

    f_n, f_m = galerkin_project(f, 12), galerkin_project(g, 6)
    lhs = sobolev_norm_sq(f_n - f_m, 1.0)
    rhs = (sobolev_norm_sq(galerkin_complement(f_n, 6), 1.0)
           + sobolev_norm_sq(galerkin_project(f_n, 6) - f_m, 1.0))
    add("projection_identity", abs(lhs - rhs) / max(lhs, 1e-30), 1e-12)

    phys = nonlinear.to_physical(f)
    add("parseval",
        abs(float(np.mean(np.sum(phys**2, axis=0))) - sobolev_norm_sq(f, 0.0))
        / sobolev_norm_sq(f, 0.0), 1e-12)

    u = nonlinear.dealias(leray_project(random_field(lattice, rng,
                                                     envelope=lambda k: np.exp(-0.4 * k))))
    worst = 0.0
    for r in (0.0, 0.5, 1.0):
        for phi in (0.0, 0.1, 0.3):
            worst = max(worst, diagnostics.check_cancellation(
                np.array([0.7, -0.2] if lattice.dim == 2 else [0.7, -0.2, 0.4]),
                u, GevreyWeight(s=1.0, r=1.0, phi=phi), r))
    add("transport_cancellation", worst, 1e-12)

    tu = nonlinear.transport(np.array([0.5, 0.8] if lattice.dim == 2 else [0.5, 0.8, -0.1]), u)
    add("transport_skew_adjoint",
        abs(weighted_inner(tu, u, r=1.0, w=pure)) / sobolev_norm_sq(u, 1.0), 1e-12)

    cu = nonlinear.convect(u, u)
    add("convective_energy_orthogonality",
        abs(weighted_inner(cu, u)) / sobolev_norm_sq(u, 1.0), 1e-11)

    ortho = validate_orthogonality(system, lattice, w)
    add("noise_orthogonality", 0.0 if ortho.ok else ortho.worst_inner,
        1e-12, detail="structural" if ortho.structural else "evaluated")
    growth = validate_growth_lipschitz(system, lattice, w)
    add("noise_growth_lipschitz_finite", 0.0 if growth.finite else 1.0, 0.5)
    if system.g.variant == "linear":
        expected = sum(abs(c) for c in system.g.coefficients)
        add("linear_lipschitz_equals_sum",
            abs(growth.c_lipschitz - expected) / max(expected, 1e-30), 1e-12)
    if system.xi.vectors:
        probe = nonlinear.dealias(random_field(lattice, np.random.default_rng(1),
                                               envelope=lambda k: np.exp(-0.5 * k)))
        add("commutativity_constant_xi",
            max(validate_commutativity(xi, probe, w, r=w.r) for xi in system.xi.vectors),
            1e-10)

    try:
        sys_v = validate_system(system)
    except ValueError:
        add("noise_system_gate", 1.0, 0.5, detail="validation failed; integrator gated")
    else:
        cfg = config.stepper_config(min(config["galerkin.cutoffs"]))
        cfg = dataclasses.replace(cfg, t_end=3 * cfg.dt)
        traj = integrate(cfg, sys_v, config.path_spec(0, sys_v.n_wiener),
                         config.initial_field(lattice), check_stability=False)
        k_ball = lattice.k[:, lattice.ball_mask(cfg.cutoff)]
        worst_div = max(float(np.abs(np.sum(k_ball * state.c, axis=0)).max())
                        for state in traj.states[1:])
        step_scale = max(float(np.abs(traj.final.c).max()), 1e-30)
        add("step_preserves_divergence_free", worst_div / step_scale, 1e-12)
        # the packed ball stores no k = 0 row, so the mean is zero by construction
        add("step_preserves_mean_free", 0.0, 1e-12)

    return results
