"""The package keeps what the benchmark's span tracer reaches into.

``bench/spans.py`` patches functions of ``ssro`` by name, reads
``propagate``'s ``step_us`` argument and wraps the least-squares solver
that ``ssro.analysis`` imports.  A traced benchmark run fails a layer of
a workload that records no span, so a rename, or a change in which exact
function calls which, would only show there; these tests run the tracer
on short calls so that it fails here instead.
"""
import dataclasses
import importlib.util
import pathlib
import sys

import pytest

import ssro.analysis
import ssro.optics
import ssro.trajectory
# the tracer patches every module it names, so each must be loaded
import ssro.cli  # noqa: F401
import ssro.config  # noqa: F401
import ssro.protocol  # noqa: F401
import ssro.rng  # noqa: F401
from ssro.analysis import ClassifierConfig
from ssro.model import Nuclear, PhysicalParams
from ssro.protocol import build_dual_step_readout, build_standard_readout
from ssro.trajectory import BatchResult, calibrated_shot_model

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench"
SPANS_PATH = BENCH_DIR / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def originals(spans):
    """Every traced attribute as the package holds it, by owner."""
    out = {}
    for modname, attr, _, _ in spans.TARGETS:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name)
            out[owner, meth] = owner.__dict__[meth]
        else:
            out[owner, attr] = getattr(owner, attr)
    out[ssro.analysis, "least_squares"] = ssro.analysis.least_squares
    return out


def test_tracer_records_work_and_restores_the_package(spans, tmp_path):
    before = originals(spans)
    protocol = build_standard_readout(PhysicalParams(), cycles=20)
    micro = dataclasses.replace(calibrated_shot_model(), mode="microscopic")
    tracer = spans.Tracer()
    tracer.install()
    try:
        # the package's own imports of a traced name are patched as well
        assert ssro.optics.propagate is not before[ssro.optics, "propagate"]
        assert ssro.analysis.least_squares is not \
            before[ssro.analysis, "least_squares"]
        ssro.optics.propagate(ssro.optics.default_optical_model(), 0.01)
        batch = ssro.trajectory.simulate_batch(
            calibrated_shot_model(), protocol, Nuclear.UP, 10, master_seed=3)
        path = tmp_path / "batch.jsonl"
        batch.save_jsonl(path)
        BatchResult.load_jsonl(path)
        ssro.trajectory.simulate_batch(micro, protocol, Nuclear.UP, 1,
                                       master_seed=4)
        ssro.analysis.least_squares(lambda x: x - 1.0, [0.0])
    finally:
        tracer.uninstall()
    assert originals(spans) == before

    work = {}
    for name, start, end, _, amount, _ in tracer.spans:
        assert end >= start
        work.setdefault(name, []).append(amount)
    expected = {
        "optics.propagate", "trajectory.simulate_batch",
        "trajectory.simulate_shot", "trajectory.save_jsonl",
        "trajectory.load_jsonl", "rng.uniforms", "rng.poisson",
        "rng.shot_seed", "protocol.gate_action", spans.OBJECTIVE_SPAN,
    }
    assert expected <= set(work)
    for name in expected:
        assert sum(work[name]) > 0, name
    # propagate's span counts integration steps from its step_us argument
    assert work["optics.propagate"][0] == round(
        0.01 / ssro.optics.DEFAULT_STEP_US)
    assert work["trajectory.simulate_batch"] == [10, 1]
    size = path.stat().st_size
    assert work["trajectory.save_jsonl"] == work["trajectory.load_jsonl"] \
        == [size]


def test_layer_metrics_read_the_recorded_spans(spans):
    tracer = spans.Tracer()
    tracer.iteration = 0
    tracer.install()
    try:
        ssro.optics.propagate(ssro.optics.default_optical_model(), 0.01)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, [0])
    assert metrics["optics.propagate_calls"] == 1
    assert metrics["optics.propagate_steps"] == 100
    assert metrics["optics.propagate_s"] > 0


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))   # workloads imports checks
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # dataclasses
    spec.loader.exec_module(module)
    return module


def test_calibrate_analysis_layers_record_spans(spans, workloads):
    """A short calibrate path gives every analysis layer of the calibrate
    workload a span."""
    layers = [name for name in workloads.Calibrate.layers
              if name.startswith("analysis.")]
    assert "analysis.exact_count_pmf_calls" in layers

    an = ssro.analysis
    model = calibrated_shot_model()
    protocol = build_standard_readout(PhysicalParams())
    tracer = spans.Tracer()
    tracer.iteration = 0
    tracer.install()
    try:
        for mode in ("raw", "conditional", "dual_step"):
            an.exact_fidelity_report(model, 40, ClassifierConfig(), mode)
        an.scenario(model, protocol, overrides={"cycles": 40})
        an.optimize_threshold(an.exact_count_pmf(model, 40, Nuclear.UP),
                              an.exact_count_pmf(model, 40, Nuclear.DOWN))
        an.fit_shot_model(an.REFERENCE_TARGETS)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, [0])
    assert [name for name in layers if not metrics[name] > 0] == []


def test_calibrate_optics_layers_record_spans(spans, workloads):
    """The pump fit reads populations without calling propagate, so the
    calibrate workload's optics layers rest on calibrate_collection's
    propagate call; a short calibrate path gives each of them a span."""
    layers = [name for name in workloads.Calibrate.layers
              if name.startswith("optics.")]
    assert {"optics.propagate_s", "optics.propagate_calls",
            "optics.propagate_steps", "optics.fit_pump_rates_s"} <= set(layers)

    op = ssro.optics
    tracer = spans.Tracer()
    tracer.iteration = 0
    tracer.install()
    try:
        optical = op.fit_pump_rates(op.PumpTarget(time_us=1.5,
                                                  min_fidelity=0.985))
        op.calibrate_collection(optical, target_photons=0.028,
                                laser_window_us=1.5)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, [0])
    assert [name for name in layers if not metrics[name] > 0] == []


def test_mc_readout_layers_record_spans(spans, workloads):
    """A short mc_readout path (standard and dual batches, the three
    sampled reports and the flip fit) gives every layer of the mc_readout
    workload a span: the read stage's uniforms, gaps and counts go through
    rng.uniforms, rng.geometric_from_uniform and rng.poisson_from_uniform."""
    layers = workloads.McReadout.layers
    assert "rng.geometric_s" in layers

    an = ssro.analysis
    model = calibrated_shot_model()
    params = PhysicalParams()
    protocols = {"standard": build_standard_readout(params, cycles=60),
                 "dual": build_dual_step_readout(params, cycles=60)}
    tracer = spans.Tracer()
    tracer.iteration = 0
    tracer.install()
    try:
        batches = {(kind, prep): ssro.trajectory.simulate_batch(
                       model, protocol, prep, 2000, master_seed=5)
                   for kind, protocol in protocols.items()
                   for prep in (Nuclear.UP, Nuclear.DOWN)}
        for mode, kind in (("raw", "standard"), ("conditional", "standard"),
                           ("dual_step", "dual")):
            an.fidelity_report(batches[kind, Nuclear.UP],
                               batches[kind, Nuclear.DOWN],
                               ClassifierConfig(), mode)
        an.fit_flip_rate(batches["standard", Nuclear.UP].detect1, 2000)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, [0])
    assert [name for name in layers if not metrics[name] > 0] == []
