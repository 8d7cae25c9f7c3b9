import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import smooth_field, transport_system
from stochns.brownian import PathSpec
from stochns.sde import StepperConfig, integrate

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # the tracer skips a target it cannot find and reports it as trace.missing;
    # a rename in stochns must fail here instead
    unresolved = []
    for module_name, attr_path, _, _ in _tracing_module().TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module_name}.{attr_path}")
    assert unresolved == []


def test_step_spans_fire_once_per_step(lat32):
    # convection, a linear g and transport on: each step of the stack calls
    # the drift and the noise sum once, so their spans count the steps
    pytest.importorskip("scipy.fft")   # the tracer hooks scipy.fft (ROADMAP item 1)
    tracing = _tracing_module()
    system = transport_system([np.array([0.4, 0.0]), np.array([0.0, 0.3])], g_coeffs=[0.2])
    cfg = StepperConfig(nu=0.05, dt=1e-3, t_end=0.005, cutoff=8)
    trace, tracer = tracing.Trace(), tracing.Tracer()
    tracer.install(trace)
    try:
        integrate(cfg, system, PathSpec(3, 0, system.n_wiener), smooth_field(lat32, seed=1))
    finally:
        tracer.uninstall()
    calls = {name: span["calls"] for name, span in trace.summarize().items()}
    assert calls["sde.step"] == cfg.n_steps
    assert calls["sde.noise_sum"] == calls["sde.explicit_drift"] == calls["sde.step"]
