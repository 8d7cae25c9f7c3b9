"""stochns benchmark: one workload, one closed-loop client, through the CLI.

Usage (from the repository root):

    python3 benchmarks/run.py --workload sim2d --seed 1 --seconds 25 --trace 0

The workload's command runs through `stochns.cli.main` one invocation at a
time, in this one process, with `ensemble.workers` at the program's default
and BLAS threads pinned to 1 (scipy.fft uses one worker by default). The
first invocation uses the workload's reference seed: it warms caches and its
headline value is checked against `baseline.json`. Then the command repeats
on the `--seed` inputs for `--seconds`, and every invocation passes the
workload's correctness gate (see `workloads.py`) and must write the same
data files (equal sha256 manifests).

--trace 0 prints the end-to-end metrics, medians over the invocations:
  wall_s       main([...]) to return, output and run_record.json included
  setup_s      import + config load/validation + studies.prepare, timed in
               fresh interpreters by setup_probe.py (median of several)
  peak_rss_mb  peak resident memory of this process

--trace 1 alternates untraced and traced invocations and prints the
per-layer metrics from the spans and counters of `tracing.py`, with
trace.overhead_frac = traced wall / untraced wall - 1, and the CPU seconds
and minor page faults of the untraced invocations (process.cpu_s,
process.minor_faults; faults count the allocation of large temporaries).

A path fails if its command exits with 4, if a CSV it wrote holds a
non-finite value, or if the invocation fails the gate; `attempted` and
`failed` count paths. Earlier stdout lines carry the environment record
and a readable summary; the last line is the JSON result. The full result
(every sample) and, with --trace 1, the spans of the last traced invocation
are written under `.bench_out/<workload>/`.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:        # before numpy is imported, here or in a child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, nonfinite_cells, read_record  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_SAMPLES = 3
PATH_FILE = re.compile(r"_path(\d+)\.")

# span name -> per-layer fields taken from it
SPAN_FIELDS = {
    "nonlinear.convect": ("calls", "self_s"),
    "sde.step": ("calls", "self_s"),
    "sde.explicit_drift": ("self_s",),
    "sde.noise_sum": ("self_s",),
    "sde.observables": ("calls", "self_s"),
    "brownian.increments": ("self_s",),
    "brownian.refine": ("self_s",),
    "diagnostics.shell_spectrum": ("calls", "self_s"),
    "diagnostics.fit_radius": ("calls", "self_s"),
    "diagnostics.fit_exp_rate": ("self_s",),
    "cli.write_csv": ("self_s",),
    "snapshots.save_state": ("self_s",),
    "cli.run_record": ("self_s",),
    "config.load": ("self_s",),
    "lattice.build_lattice": ("self_s",),
    "noise.validate_system": ("self_s",),
    "fields.random_h1_field": ("self_s",),
    "studies.prepare": ("self_s",),
}
COUNTERS = ("fft.calls", "fft.points", "fft.flops_est", "fft.bytes_computed",
            "brownian.normals", "cli.write_csv.bytes", "snapshots.save_state.bytes")


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# environment record

def _run_text(argv) -> str | None:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=20, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def _caches() -> dict | None:
    text = _run_text(["lscpu", "-C=NAME,ONE-SIZE,ALL-SIZE", "-B"])
    if text is None:
        return None
    caches = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 3 and parts[1].isdigit():
            caches[parts[0]] = {"one_bytes": int(parts[1]), "all_bytes": int(parts[2])}
    return caches


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload, baseline: dict) -> dict:
    import numpy
    import scipy
    commit = _run_text(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit.strip() if commit else None,
        "src_sha256": _src_sha256(),
        "caches": _caches(),
        **workload.state_bytes(),
        "baseline": baseline.get("metrics", {}).get(workload.name),
    }


# ---------------------------------------------------------------------------
# one invocation

class Session:
    """Runs one workload's command in a closed loop and checks each result."""

    def __init__(self, workload, seed: int, cli, defaults: dict, baseline: dict):
        self.workload = workload
        self.cli = cli
        self.dir = OUT / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self._write_config("config.json", workload.config(defaults, seed))
        self.reference_config = self._write_config(
            "reference.json", workload.config(defaults, workload.reference_seed))
        self.baseline = baseline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.manifest = None

    def _write_config(self, name: str, data: dict) -> Path:
        path = self.dir / name
        path.write_text(json.dumps(data, indent=1, sort_keys=True))
        return path

    def invoke(self, config_path: Path, trace=None) -> tuple[float, float, int, int, Path]:
        """One command; returns wall and CPU seconds, exit code, minor page faults."""
        out = self.dir / "run"
        shutil.rmtree(out, ignore_errors=True)
        argv = [self.workload.command, "--config", str(config_path), "--out", str(out)]
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        c0, t0 = time.process_time(), time.perf_counter()
        if trace is None:
            rc = self.cli.main(argv)
        else:
            with trace.span("cli.main"):
                rc = self.cli.main(argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return wall, cpu, rc, faults, out

    def check(self, rc: int, out: Path) -> dict | None:
        """Apply the gate; count attempted and failed paths. Returns the run record."""
        wl = self.workload
        self.attempted += wl.n_paths
        try:
            record = read_record(out)
        except (OSError, ValueError):
            record = None
        if rc not in (0, 4) or record is None:
            self.problems.append(f"command exited with {rc}"
                                 + ("" if record else ", no run record"))
            self.failed += wl.n_paths
            return None
        failed = set(record.get("nonfinite_paths", []))
        for entry in record["manifest"]:
            if entry["path"].endswith(".csv") and nonfinite_cells(out / entry["path"]):
                match = PATH_FILE.search(entry["path"])
                failed |= {int(match.group(1))} if match else set(range(wl.n_paths))
                self.problems.append(f"non-finite value in {entry['path']}")
        try:
            gate_failed = wl.gate(out, record, wl.n_paths)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as err:
            gate_failed = set(range(wl.n_paths))
            self.problems.append(f"gate could not read outputs: {err!r}")
        if gate_failed:
            self.problems.append(f"gate failed on paths {sorted(gate_failed)}")
        self.failed += len(failed | gate_failed)
        return record

    def check_manifest(self, record: dict | None) -> None:
        if record is None:
            return
        manifest = [(m["path"], m["sha256"]) for m in record["manifest"]]
        if self.manifest is None:
            self.manifest = manifest
        elif manifest != self.manifest:
            self.problems.append("data files differ between invocations of one seed")
            self.failed += self.workload.n_paths

    def warm_up(self) -> None:
        """Reference-seed invocation: fills caches, checks the headline value."""
        _, _, rc, _, out = self.invoke(self.reference_config)
        record = self.check(rc, out)
        wl = self.workload
        expected = self.baseline.get("headline", {}).get(wl.name)
        if record is None or expected is None:
            self.problems.append(f"headline {wl.headline_name}: no value to compare")
            return
        try:
            value = wl.headline(out, record)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as err:
            self.problems.append(f"headline {wl.headline_name} unreadable: {err!r}")
            return
        rel = abs(value - expected["value"]) / abs(expected["value"])
        if not rel <= expected["rel_tol"]:
            self.problems.append(f"headline {wl.headline_name} = {value!r}, baseline "
                                 f"{expected['value']!r} (rel {rel:.2e} > {expected['rel_tol']})")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def setup_times(config_path: Path) -> list[dict]:
    """Cold set-up in fresh interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(ROOT),
                               str(config_path)], capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if done.returncode != 0:
            fail(f"setup probe failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# the two modes

def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    setup = setup_times(session.config_path)
    session.warm_up()
    walls = []
    start = time.perf_counter()
    while True:
        wall, _, rc, _, out = session.invoke(session.config_path)
        walls.append(wall)
        session.check_manifest(session.check(rc, out))
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_SAMPLES and elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MiB"},
    }
    detail = {"wall_s_samples": walls, "setup_samples": setup,
              "samples": {"wall_s": len(walls), "setup_s": len(setup)}}
    return metrics, detail


def _layer_values(summary: dict, counters: dict) -> dict:
    """Per-layer values of one traced invocation (self times in seconds)."""
    values = {}
    for span, fields in SPAN_FIELDS.items():
        s = summary.get(span, {"calls": 0, "self_s": 0.0})
        for f in fields:
            values[f"{span}.{f}"] = s[f]
    for name in COUNTERS:
        values[name] = counters.get(name, 0)
    fits = summary.get("diagnostics.fit_radius", {"calls": 0, "failed": 0})
    values["diagnostics.fit_radius.refused"] = fits["failed"]
    values["diagnostics.fit_radius.accept_frac"] = (
        (fits["calls"] - fits["failed"]) / fits["calls"] if fits["calls"] else 0.0)
    steps = values["sde.step.calls"]
    values["fft.points_per_step"] = values["fft.points"] / steps if steps else 0.0
    return values


def _unit(key: str) -> str:
    if key.endswith("self_s"):
        return "s"
    if key.endswith(("bytes", "bytes_computed")):
        return "B"
    if key == "fft.flops_est":
        return "flop"
    if key.endswith("accept_frac"):
        return "ratio"
    return "count"


def measure_layers(session: Session, seconds: float, tracer, import_s: float):
    session.warm_up()
    plain, traced, cpus, faults = [], [], [], []
    per_call = {"nonlinear.convect": [], "sde.step": []}
    runs: list[dict] = []
    last_trace = None
    start = time.perf_counter()
    while True:
        for traced_turn in (False, True):
            trace = tracing.Trace() if traced_turn else None
            if trace is not None:
                tracer.install(trace)
            try:
                wall, cpu, rc, minflt, out = session.invoke(session.config_path, trace)
            finally:
                if trace is not None:
                    tracer.uninstall()
            session.check_manifest(session.check(rc, out))
            if trace is None:
                plain.append(wall)
                cpus.append(cpu)
                faults.append(minflt)
                continue
            traced.append(wall)
            summary = trace.summarize()
            runs.append(_layer_values(summary, trace.counters))
            for name in per_call:
                per_call[name] += summary.get(name, {}).get("durations_s", [])
            last_trace = trace
        elapsed = time.perf_counter() - start
        n = len(traced)
        if n >= 2 and elapsed * (n + 1) / n > seconds:
            break
    exact = [k for k in runs[0] if not k.endswith("self_s")]
    counts_equal = all(r[k] == runs[0][k] for r in runs for k in exact)
    if not counts_equal:
        session.problems.append("per-layer counts differ between traced invocations")
    metrics = {k: {"value": runs[0][k] if k in exact else statistics.median(r[k] for r in runs),
                   "unit": _unit(k)} for k in runs[0]}
    conv = [d * 1e3 for d in per_call["nonlinear.convect"]]
    step = [d * 1e6 for d in per_call["sde.step"]]
    metrics.update({
        "nonlinear.convect.ms_p50": {"value": percentile(conv, 50), "unit": "ms"},
        "nonlinear.convect.ms_p99": {"value": percentile(conv, 99), "unit": "ms"},
        "sde.step.us_p50": {"value": percentile(step, 50), "unit": "us"},
        "sde.step.us_p99": {"value": percentile(step, 99), "unit": "us"},
        "import_s": {"value": import_s, "unit": "s"},
        "process.cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "process.wall_s": {"value": statistics.median(plain), "unit": "s"},
        "process.minor_faults": {"value": statistics.median(faults), "unit": "count"},
        "trace.overhead_frac": {
            "value": statistics.median(traced) / statistics.median(plain) - 1, "unit": "ratio"},
        "trace.missing": {"value": len(tracer.missing), "unit": "count"},
    })
    last_trace.dump(session.dir / "spans.json")
    detail = {"untraced_wall_s": plain, "traced_wall_s": traced, "cpu_s": cpus,
              "traced_invocations": len(runs), "counts_repeat": counts_equal,
              "trace_missing": tracer.missing, "patched": tracer.patched,
              "samples": {"nonlinear.convect": len(conv), "sde.step": len(step)}}
    return metrics, detail


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stochns" / "__init__.py").is_file():
        fail(f"no stochns sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import stochns.cli as cli
    import stochns.studies  # noqa: F401  (the engines, as the CLI loads them)
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != SRC / "stochns":
        fail(f"stochns imported from {cli.__file__}, not from {SRC}")
    from stochns.config import DEFAULT_CONFIG

    workload = WORKLOADS[args.workload]
    baseline_path = BENCH / "baseline.json"
    baseline = json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
    session = Session(workload, args.seed, cli, DEFAULT_CONFIG, baseline)
    env = environment(workload, baseline)
    print("environment " + json.dumps(env, sort_keys=True), flush=True)

    if args.trace:
        metrics, detail = measure_layers(session, args.seconds, tracing.Tracer(), import_s)
    else:
        metrics, detail = measure_end_to_end(session, args.seconds)

    fail_frac = session.failed / session.attempted
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':42s} {fail_frac:.6g} ({session.failed}/{session.attempted} paths)")
    print("samples " + json.dumps(detail["samples"]))
    for problem in dict.fromkeys(session.problems):
        print(f"problem: {problem}")
    (session.dir / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "environment": env,
         "metrics": metrics, "detail": detail, "fail_frac": fail_frac,
         "problems": session.problems}, indent=1, sort_keys=True))
    print(json.dumps({"correct": session.correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
