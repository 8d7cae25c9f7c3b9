import importlib.util
from pathlib import Path

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
