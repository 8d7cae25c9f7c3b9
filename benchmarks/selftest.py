"""Self-test of the benchmark's tracer on tiny problems (a few seconds).

Usage (from the repository root): python3 benchmarks/selftest.py

Checks that two traced runs of one command give exactly the same counts,
that every per-layer span is recorded (or listed as missing), that the FFT
proxy leaves results bit-identical, that the oracle makes no FFT call, and
that a target that does not exist is listed without failing the run.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets the thread environment before numpy loads
import tracing
from workloads import _deep_update

OUT = run.OUT / "selftest"

TINY = {
    "lattice": {"dim": 2, "grid_n": 24},
    "physics": {"t_end": 0.02, "dt": 0.001},
    "galerkin": {"cutoffs": [2, 3, 4], "n_ref": 8},
    "ensemble": {"n_paths": 2},
    "outputs": {"snapshot_stride": 5},
}
TINY_ORACLE = _deep_update(json.loads(json.dumps(TINY)), {
    "physics": {"convection": False, "dt": 0.005},
    "galerkin": {"cutoffs": [2], "n_ref": 4},
    "noise": {"multiplicative": {"variant": "zero", "coefficients": [], "index_set": []},
              "transport": {"variant": "constant", "vectors": [[0.8, 0.0]], "index_set": [0]}},
})


def traced(cli, defaults, command: str, problem: dict, tracer=None):
    config = _deep_update(json.loads(json.dumps(defaults)), problem)
    path = OUT / "config.json"
    path.write_text(json.dumps(config))
    tracer = tracer or tracing.Tracer()
    trace = tracing.Trace()
    tracer.install(trace)
    try:
        rc = cli.main([command, "--config", str(path), "--out", str(OUT / "run")])
    finally:
        tracer.uninstall()
    assert rc == 0, f"{command} exited with {rc}"
    summary = trace.summarize()
    counts = {name: s["calls"] for name, s in summary.items()}
    return counts, dict(trace.counters), summary, tracer


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    import stochns.cli as cli
    from stochns import nonlinear
    from stochns.config import DEFAULT_CONFIG
    from stochns.fields import random_field
    from stochns.lattice import build_lattice

    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)

    for command in ("simulate", "decay-study"):
        first = traced(cli, DEFAULT_CONFIG, command, TINY)
        second = traced(cli, DEFAULT_CONFIG, command, TINY)
        assert first[:2] == second[:2], f"{command}: counts differ between two runs"
        counts, counters, _, tracer = first
        assert not tracer.missing, tracer.missing
        assert counts["sde.step"] > 0 and counts["nonlinear.convect"] > 0, counts
        assert counters["fft.calls"] == 3 * counts["nonlinear.convect"], counters
        assert counters["brownian.normals"] > 0, counters
    expected = set(run.SPAN_FIELDS) - {"brownian.refine", "diagnostics.fit_exp_rate"}
    simulate_counts = traced(cli, DEFAULT_CONFIG, "simulate", TINY)[0]
    assert expected <= set(simulate_counts), expected - set(simulate_counts)

    counts, counters, summary, _ = traced(cli, DEFAULT_CONFIG, "linear-oracle", TINY_ORACLE)
    assert "nonlinear.convect" not in counts and "fft.calls" not in counters
    assert counts["brownian.refine"] > 0 and counters["brownian.normals"] > 0

    # self time: a parent's self time excludes its children
    step = summary["sde.step"]
    assert 0 < step["self_s"] < step["total_s"], step

    lat = build_lattice(2, 24)
    u = nonlinear.dealias(random_field(lat, np.random.default_rng(1), solenoidal=True))
    plain = nonlinear.convect(u, u).coeffs
    tracer = tracing.Tracer()
    tracer.install(tracing.Trace())
    try:
        proxied = nonlinear.convect(u, u).coeffs
    finally:
        tracer.uninstall()
    assert np.array_equal(plain, proxied), "FFT proxy changed a result"
    assert nonlinear._fft is sys.modules["scipy.fft"], "proxy not removed on uninstall"

    bogus = tracing.Tracer(tracing.TARGETS + (("stochns.sde", "_Gone.method", "x", None),
                                              ("stochns.gone", "f", "y", None)))
    counts = traced(cli, DEFAULT_CONFIG, "simulate", TINY, bogus)[0]
    assert bogus.missing == ["stochns.sde._Gone.method", "stochns.gone.f"], bogus.missing
    assert counts["sde.step"] > 0

    shutil.rmtree(OUT)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
