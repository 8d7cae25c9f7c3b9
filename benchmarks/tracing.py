"""Span tracer and FFT counter, installed around stochns from outside.

Nothing under `src/` knows about this module. `Tracer.install` resolves each
target by name at run time and swaps the attribute for a timing wrapper:

* the public function of each layer, plus the module attributes the engines
  call (`sde._advance`, the `_Stepper` methods);
* every alias of a wrapped function that another stochns module made with
  `from .x import y` (`studies._advance`, `studies.increments`,
  `cli.save_state`, ...), found by identity, so a span is recorded whichever
  module makes the call;
* every stochns module attribute that is the `scipy.fft` module (replaced by
  a counting forwarding proxy) or one of its transform functions.

A target that no longer exists is listed in `missing` and never fails the
run, so a refactor that renames an internal loses one span, visibly.

A span is (name, start, end, parent). Spans stay in memory; `summarize`
turns them into per-name call counts, total and self time (duration minus
the time covered by the span's children), and durations.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import re
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path


def _sizes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# (module, attribute path, span name, (counter name, result -> amount) or None)
TARGETS = (
    ("stochns.config", "ExperimentConfig.from_file", "config.load", None),
    ("stochns.studies", "prepare", "studies.prepare", None),
    ("stochns.lattice", "build_lattice", "lattice.build_lattice", None),
    ("stochns.noise", "validate_system", "noise.validate_system", None),
    ("stochns.fields", "random_h1_field", "fields.random_h1_field", None),
    ("stochns.studies", "simulate", "studies.simulate", None),
    ("stochns.studies", "decay_study", "studies.decay_study", None),
    ("stochns.studies", "linear_oracle_study", "studies.linear_oracle_study", None),
    ("stochns.sde", "integrate", "sde.integrate", None),
    ("stochns.sde", "_advance", "sde.step", None),
    ("stochns.sde", "_Stepper.explicit_drift", "sde.explicit_drift", None),
    ("stochns.sde", "_Stepper.noise_sum", "sde.noise_sum", None),
    ("stochns.sde", "_Stepper.observables", "sde.observables", None),
    ("stochns.nonlinear", "convect", "nonlinear.convect", None),
    ("stochns.brownian", "increments", "brownian.increments",
     ("brownian.normals", lambda block: block.increments.size)),
    ("stochns.brownian", "refine", "brownian.refine",
     ("brownian.normals", lambda block: block.increments.size)),
    ("stochns.diagnostics", "shell_spectrum", "diagnostics.shell_spectrum", None),
    ("stochns.diagnostics", "fit_radius", "diagnostics.fit_radius", None),
    ("stochns.diagnostics", "fit_exp_rate", "diagnostics.fit_exp_rate", None),
    ("stochns.cli", "write_csv", "cli.write_csv",
     ("cli.write_csv.bytes", lambda path: _sizes([path]))),
    ("stochns.snapshots", "save_state", "snapshots.save_state",
     ("snapshots.save_state.bytes", _sizes)),
    ("stochns.cli", "RunRecorder.write", "cli.run_record", None),
)

FFT_MODULE = "scipy.fft"
_TRANSFORM = re.compile(r"^i?[rh]?fft[2n]?$|^i?d[cs]tn?$")


class Trace:
    """Spans and counters of one traced interval."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent index, failed]
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, False]
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        try:
            yield
        except BaseException:
            rec[4] = True
            raise
        finally:
            stack.pop()
            rec[2] = time.perf_counter_ns()

    def summarize(self) -> dict[str, dict]:
        """Per span name: calls, failed calls, total and self seconds, durations."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, failed) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "failed": 0, "total_s": 0.0,
                                      "self_s": 0.0, "durations_s": []})
            dur = end - start
            s["calls"] += 1
            s["failed"] += failed
            s["total_s"] += dur * 1e-9
            s["self_s"] += (dur - child_ns[i]) * 1e-9
            s["durations_s"].append(dur * 1e-9)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as compact JSON: names plus [name, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[index[n], a - t0, b - t0, p] for n, a, b, p, _ in self.spans]
        path.write_text(json.dumps({"names": names, "unit": "ns", "spans": rows},
                                   separators=(",", ":")))


# ---------------------------------------------------------------------------
# FFT boundary

def _transform_axes(fn_name: str, bound: inspect.BoundArguments, ndim: int) -> tuple:
    args = bound.arguments
    if "axes" in args and args["axes"] is not None:
        axes = args["axes"]
        return tuple(axes) if isinstance(axes, (tuple, list)) else (axes,)
    if "axis" in args and args["axis"] is not None:
        return (args["axis"],)
    if fn_name.endswith("2"):
        return (-2, -1)
    if fn_name.endswith("n"):
        shape = args.get("s")
        return tuple(range(-len(shape), 0)) if shape is not None else tuple(range(-ndim, 0))
    return (-1,)


def _counting_transform(name: str, fn, trace: Trace):
    """Wrap one scipy.fft transform: counts calls, points, flops and bytes.

    points: elements on the complex side (the output of a forward transform,
    the input of an inverse real transform), so a switch from c2c to r2c
    halves it. n is the real-space transform length (product over the
    transformed axes). flops_est = 5 * points * log2(n), the usual
    5 n log2 n per complex transform; bytes_computed = input + output bytes.
    Both are computed from array sizes, not measured.
    """
    sig = inspect.signature(fn)

    def wrapper(x, *args, **kwargs):
        out = fn(x, *args, **kwargs)
        axes = _transform_axes(name, sig.bind(x, *args, **kwargs), out.ndim)
        shape_in = getattr(x, "shape", out.shape)
        n = math.prod(max(shape_in[a], out.shape[a]) for a in axes)
        points = out.size if out.dtype.kind == "c" else getattr(x, "size", out.size)
        trace.count("fft.calls", 1)
        trace.count("fft.points", points)
        trace.count("fft.flops_est", 5.0 * points * math.log2(n) if n > 1 else 0.0)
        trace.count("fft.bytes_computed", getattr(x, "nbytes", 0) + out.nbytes)
        return out

    wrapper.__name__ = name
    wrapper.__wrapped__ = fn
    return wrapper


class CountingFFT:
    """Forwarding proxy for the scipy.fft module: transforms are counted,
    every other attribute is passed through unchanged."""

    def __init__(self, module, trace: Trace):
        self._module = module
        self._trace = trace
        self._wrapped: dict = {}

    def __getattr__(self, name: str):
        attr = getattr(self._module, name)
        if not _TRANSFORM.match(name) or not callable(attr):
            return attr
        wrapped = self._wrapped.get(name)
        if wrapped is None:
            wrapped = self._wrapped[name] = _counting_transform(name, attr, self._trace)
        return wrapped


# ---------------------------------------------------------------------------
# installation

def _stochns_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "stochns" or name.startswith("stochns."))]


class Tracer:
    """Installs timing wrappers into stochns for the lifetime of one Trace."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.trace: Trace | None = None
        self.missing: list[str] = []
        self.patched: list[str] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, span_name: str, counter):
        trace = self.trace

        def wrapper(*args, **kwargs):
            with trace.span(span_name):
                result = fn(*args, **kwargs)
            if counter is not None:
                name, amount = counter
                try:
                    trace.count(name, amount(result))
                except (AttributeError, TypeError, OSError):
                    if name not in self.missing:
                        self.missing.append(name)
            return result

        wrapper.__name__ = getattr(fn, "__name__", span_name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value, label: str) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)
        self.patched.append(label)

    def install(self, trace: Trace) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.trace = trace
        self.missing = []
        self.patched = []
        for module_name, attr_path, span_name, counter in self.targets:
            label = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                static = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if isinstance(static, (classmethod, staticmethod)):
                self._set(owner, attr, type(static)(self._wrap(static.__func__, span_name,
                                                                counter)), label)
                continue
            wrapper = self._wrap(static, span_name, counter)
            if parents:                      # a method: patch the class attribute
                self._set(owner, attr, wrapper, label)
                continue
            for module in _stochns_modules():  # the function and every alias of it
                for name, value in list(vars(module).items()):
                    if value is static:
                        self._set(module, name, wrapper, f"{module.__name__}.{name}")
        self._install_fft(trace)

    def _install_fft(self, trace: Trace) -> None:
        fft = importlib.import_module(FFT_MODULE)
        proxy = CountingFFT(fft, trace)
        transforms = {id(getattr(fft, n)): n for n in fft.__all__ if _TRANSFORM.match(n)}
        found = False
        for module in _stochns_modules():
            for name, value in list(vars(module).items()):
                if value is fft:
                    self._set(module, name, proxy, f"{module.__name__}.{name}")
                    found = True
                elif id(value) in transforms and getattr(fft, transforms[id(value)]) is value:
                    self._set(module, name,
                              _counting_transform(transforms[id(value)], value, trace),
                              f"{module.__name__}.{name}")
                    found = True
        if not found:
            self.missing.append(f"{FFT_MODULE} boundary")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self.trace = None
