"""In-memory span tracing of ssro's public functions, from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper that records
one span per call: name, start, end, parent span and a work count (draws,
shots, bytes or integration steps, depending on the function).  Spans stay
in memory until the run ends.

``ssro.cli`` and others import functions by name (``from .optics import
propagate``), so patching only the defining module would miss those calls.
``install`` therefore replaces the function object in every loaded ``ssro``
module that holds it, and ``uninstall`` puts every original back.

Tracing assumes the traced calls run on one thread: the parent of a span is
the innermost span open when it starts.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

_clock = time.perf_counter


def _arg(sig: inspect.Signature, name: str, args, kwargs):
    bound = sig.bind_partial(*args, **kwargs)
    if name in bound.arguments:
        return bound.arguments[name]
    return sig.parameters[name].default


def _propagate_steps(sig):
    def steps(args, kwargs, result):
        duration = _arg(sig, "duration_us", args, kwargs)
        step = _arg(sig, "step_us", args, kwargs)
        return int(round(duration / step))
    return steps


def _batch_shots(sig):
    def shots(args, kwargs, result):
        return int(_arg(sig, "n_shots", args, kwargs))
    return shots


def _file_bytes(sig):
    def size(args, kwargs, result):
        return os.path.getsize(_arg(sig, "path", args, kwargs))
    return size


def _array_size(name):
    # positional fast path: these wrappers run once per RNG call
    def factory(sig):
        return lambda a, k, r: int(np.size(a[0] if a else k[name]))
    return factory


# (module, attribute, span name, work function factory or None)
# A factory receives the original function's signature.
TARGETS = (
    ("ssro.rng", "uniforms", "rng.uniforms", _array_size("seeds")),
    ("ssro.rng", "poisson_from_uniform", "rng.poisson", _array_size("u")),
    ("ssro.rng", "geometric_from_uniform", "rng.geometric", _array_size("u")),
    ("ssro.rng", "shot_seed", "rng.shot_seed", None),
    ("ssro.trajectory", "simulate_batch", "trajectory.simulate_batch",
     _batch_shots),
    ("ssro.trajectory", "simulate_shot", "trajectory.simulate_shot", None),
    ("ssro.trajectory", "BatchResult.save_jsonl", "trajectory.save_jsonl",
     _file_bytes),
    ("ssro.trajectory", "BatchResult.load_jsonl", "trajectory.load_jsonl",
     _file_bytes),
    ("ssro.analysis", "exact_count_pmf", "analysis.exact_count_pmf", None),
    ("ssro.analysis", "exact_head_tail_pmf", "analysis.exact_head_tail_pmf",
     None),
    ("ssro.analysis", "exact_dual_pmf", "analysis.exact_dual_pmf", None),
    ("ssro.analysis", "fit_shot_model", "analysis.fit_shot_model", None),
    ("ssro.analysis", "scenario", "analysis.scenario", None),
    ("ssro.analysis", "optimize_threshold", "analysis.optimize_threshold",
     None),
    ("ssro.analysis", "fidelity_report", "analysis.fidelity_report", None),
    ("ssro.analysis", "fit_flip_rate", "analysis.fit_flip_rate", None),
    ("ssro.optics", "propagate", "optics.propagate", _propagate_steps),
    ("ssro.optics", "fit_pump_rates", "optics.fit_pump_rates", None),
    ("ssro.protocol", "gate_action", "protocol.gate_action", None),
    ("ssro.cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("ssro.cli", "cmd_analyze", "cli.cmd_analyze", None),
    ("ssro.cli", "cmd_fit_flip", "cli.cmd_fit_flip", None),
    ("ssro.config", "load_config", "config.load_config", None),
)

# The shot-model fit's objective is a closure; its evaluations are counted
# by wrapping the objective handed to the least-squares solver.
OBJECTIVE_SPAN = "analysis.fit_shot_model_objective"


class Tracer:
    """Records spans as [name, start, end, parent index, work, iteration]."""

    def __init__(self):
        self.spans: list[list] = []
        self.iteration = -1           # -1 marks set-up, before the body
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # --- recording -----------------------------------------------------

    def wrap(self, name, func, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, _clock(), 0.0, parent, 1, self.iteration]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = _clock()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    # --- patching ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ssro" or n.startswith("ssro.")]
        for modname, attr, name, factory in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                func = raw.__func__ if isinstance(raw, classmethod) else raw
                work = factory(inspect.signature(func)) if factory else None
                wrapped = self.wrap(name, func, work)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            func = getattr(owner, attr)
            work = factory(inspect.signature(func)) if factory else None
            wrapped = self.wrap(name, func, work)
            for mod in modules:
                if getattr(mod, attr, None) is func:
                    self._saved.append((mod, attr, func))
                    setattr(mod, attr, wrapped)
        analysis = sys.modules["ssro.analysis"]
        solver = analysis.least_squares

        def counted_solver(fun, *args, **kwargs):
            return solver(self.wrap(OBJECTIVE_SPAN, fun), *args, **kwargs)

        self._saved.append((analysis, "least_squares", solver))
        analysis.least_squares = counted_solver

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # --- output --------------------------------------------------------

    def save(self, path) -> None:
        """Write the spans as parallel arrays to an .npz file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        arr = np.array([(index[s[0]], s[1], s[2], s[3], s[4], s[5])
                        for s in self.spans], dtype=float).reshape(-1, 6)
        np.savez(path, names=np.array(names), name=arr[:, 0].astype(np.int32),
                 start=arr[:, 1], end=arr[:, 2],
                 parent=arr[:, 3].astype(np.int64),
                 work=arr[:, 4].astype(np.int64),
                 iteration=arr[:, 5].astype(np.int32))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another (calls from several threads), so the
    covered part is the length of the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[1]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s[2])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[2] - s[1]) - covered)
    return out


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, iterations) -> dict[str, float]:
    """Per-layer metrics: per-iteration totals, then the median over the
    traced iterations.  A layer the workload never reaches reads 0."""
    selfs = self_times(spans)
    per_iter = {it: {} for it in iterations}

    def add(it, key, value):
        if it in per_iter:
            per_iter[it][key] = per_iter[it].get(key, 0.0) + value

    shot_ms, config_s = [], []
    for s, self_s in zip(spans, selfs):
        name, start, end, _, work, it = s
        dur = end - start
        add(it, name + "_s", dur)
        add(it, name + "_self_s", self_s)
        add(it, name + "_calls", 1)
        add(it, name + "_work", work)
        if name == "trajectory.simulate_shot" and it in per_iter:
            shot_ms.append(1e3 * dur)
        if name == "config.load_config":
            config_s.append(dur)

    def med(key):
        vals = [per_iter[it].get(key, 0.0) for it in iterations]
        return float(np.median(vals)) if vals else 0.0

    return {
        "rng.uniforms_s": med("rng.uniforms_s"),
        "rng.uniforms_draws": med("rng.uniforms_work"),
        "rng.poisson_s": med("rng.poisson_s"),
        "rng.poisson_draws": med("rng.poisson_work"),
        "rng.geometric_s": med("rng.geometric_s"),
        "rng.shot_seed_calls": med("rng.shot_seed_calls"),
        "rng.shot_seed_s": med("rng.shot_seed_s"),
        "trajectory.simulate_batch_self_s":
            med("trajectory.simulate_batch_self_s"),
        "trajectory.simulate_batch_shots": med("trajectory.simulate_batch_work"),
        "trajectory.save_jsonl_s": med("trajectory.save_jsonl_s"),
        "trajectory.save_bytes": med("trajectory.save_jsonl_work"),
        "trajectory.load_jsonl_s": med("trajectory.load_jsonl_s"),
        "trajectory.load_bytes": med("trajectory.load_jsonl_work"),
        "trajectory.simulate_shot_calls": med("trajectory.simulate_shot_calls"),
        "trajectory.simulate_shot_p50_ms": _percentile(shot_ms, 50),
        "trajectory.simulate_shot_p90_ms": _percentile(shot_ms, 90),
        "analysis.exact_count_pmf_s": med("analysis.exact_count_pmf_s"),
        "analysis.exact_count_pmf_calls": med("analysis.exact_count_pmf_calls"),
        "analysis.exact_head_tail_pmf_s": med("analysis.exact_head_tail_pmf_s"),
        "analysis.exact_head_tail_pmf_calls":
            med("analysis.exact_head_tail_pmf_calls"),
        "analysis.exact_dual_pmf_s": med("analysis.exact_dual_pmf_s"),
        "analysis.exact_dual_pmf_calls": med("analysis.exact_dual_pmf_calls"),
        "analysis.fit_shot_model_s": med("analysis.fit_shot_model_s"),
        "analysis.fit_shot_model_evals": med(OBJECTIVE_SPAN + "_calls"),
        "analysis.scenario_s": med("analysis.scenario_s"),
        "analysis.optimize_threshold_s": med("analysis.optimize_threshold_s"),
        "analysis.fidelity_report_s": med("analysis.fidelity_report_s"),
        "analysis.fit_flip_rate_s": med("analysis.fit_flip_rate_s"),
        "optics.propagate_s": med("optics.propagate_s"),
        "optics.propagate_calls": med("optics.propagate_calls"),
        "optics.propagate_steps": med("optics.propagate_work"),
        "optics.fit_pump_rates_s": med("optics.fit_pump_rates_s"),
        "protocol.gate_action_s": med("protocol.gate_action_s"),
        "protocol.gate_action_calls": med("protocol.gate_action_calls"),
        "cli.cmd_simulate_self_s": med("cli.cmd_simulate_self_s"),
        "cli.cmd_analyze_self_s": med("cli.cmd_analyze_self_s"),
        "cli.cmd_fit_flip_self_s": med("cli.cmd_fit_flip_self_s"),
        "config.load_config_s":
            float(np.median(config_s)) if config_s else 0.0,
    }
