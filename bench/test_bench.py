"""Self-tests of the benchmark: span arithmetic, patching and output checks.

    python3 -m pytest bench/test_bench.py -q
"""
import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import ssro  # noqa: E402
from ssro.model import Nuclear  # noqa: E402


def span(name, start, end, parent=-1, work=1, it=0):
    return [name, start, end, parent, work, it]


class TestSelfTime:
    def test_children_are_subtracted_once_and_clipped_to_the_parent(self):
        trace = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 3.0, parent=0),
            span("b", 2.0, 5.0, parent=0),       # overlaps a
            span("c", 8.0, 12.0, parent=0),      # runs past the parent
            span("grandchild", 1.5, 2.5, parent=1),
        ]
        got = spans.self_times(trace)
        assert got == pytest.approx([10.0 - 4.0 - 2.0, 2.0 - 1.0, 3.0, 4.0,
                                     1.0])

    def test_layer_metrics_take_the_median_over_iterations(self):
        trace = []
        for it, dur in ((1, 2.0), (3, 4.0), (5, 9.0)):
            trace.append(span("trajectory.simulate_batch", 0.0, dur,
                              work=100, it=it))
            trace.append(span("rng.uniforms", 0.0, 0.5, parent=len(trace) - 1,
                              work=7, it=it))
        trace.append(span("rng.uniforms", 0.0, 100.0, it=0))  # untraced it
        m = spans.layer_metrics(trace, [1, 3, 5])
        assert m["trajectory.simulate_batch_self_s"] == pytest.approx(3.5)
        assert m["trajectory.simulate_batch_shots"] == 100
        assert m["rng.uniforms_s"] == pytest.approx(0.5)
        assert m["rng.uniforms_draws"] == 7
        assert m["protocol.gate_action_calls"] == 0


def test_benchmark_json_names_what_the_runs_report():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer_names = [m["name"] for m in spec["per_layer"]]
    assert layer_names == [*spans.layer_metrics([], []),
                           "trace_overhead_frac"]
    for w in workloads.WORKLOADS.values():
        assert set(w.layers) <= set(layer_names)


class TestTracer:
    def test_patches_importing_modules_and_restores_them(self):
        original = ssro.trajectory.simulate_batch
        assert ssro.cli.simulate_batch is original
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert ssro.cli.simulate_batch is not original
            assert ssro.cli.simulate_batch is ssro.trajectory.simulate_batch
            model = ssro.trajectory.calibrated_shot_model()
            protocol = ssro.config.load_config().protocol.build()
            ssro.cli.simulate_batch(model, protocol, Nuclear.UP, 50, 1)
        finally:
            tracer.uninstall()
        assert ssro.cli.simulate_batch is original
        names = [s[0] for s in tracer.spans]
        assert names.count("trajectory.simulate_batch") == 1
        assert "rng.uniforms" in names and "config.load_config" in names
        batch_index = names.index("trajectory.simulate_batch")
        assert tracer.spans[batch_index][4] == 50
        child = tracer.spans[names.index("rng.uniforms")]
        assert child[3] == batch_index


@pytest.fixture(scope="module")
def small_batches(tmp_path_factory):
    model = ssro.trajectory.calibrated_shot_model()
    protocol = ssro.config.load_config().protocol.build()
    up = ssro.trajectory.simulate_batch(model, protocol, Nuclear.UP, 4000, 5)
    pmf = ssro.analysis.exact_count_pmf(model, protocol.cycles, Nuclear.UP)
    path = tmp_path_factory.mktemp("batch") / "batch_up.jsonl"
    up.save_jsonl(path)
    return up, pmf, path


class TestChecksRejectCorruptedOutputs:
    def test_histogram_matches_exact_pmf_until_shifted(self, small_batches):
        batch, pmf, _ = small_batches
        assert checks.counts_match("up", batch.total1, pmf) == []
        assert checks.counts_match("up", batch.total1 + 1, pmf) != []

    def test_truncated_batch_file_is_rejected(self, small_batches, tmp_path):
        _, _, path = small_batches
        assert checks.batch_file_complete(path, 4000) == []
        lines = path.read_text().splitlines(keepends=True)
        cut = tmp_path / "truncated.jsonl"
        cut.write_text("".join(lines[:-10]))
        assert checks.batch_file_complete(cut, 4000) != []

    def test_perturbed_fitted_model_is_rejected(self):
        ref = ssro.trajectory.calibrated_shot_model()
        assert workloads.shot_model_matches(ref, ref) == []
        off = dataclasses.replace(ref, charge_error=ref.charge_error * 1.001)
        assert workloads.shot_model_matches(off, ref) != []

    def test_manifest_digest_mismatch_is_rejected(self, tmp_path):
        (tmp_path / "out.txt").write_text("payload\n")
        digest = checks._sha256(tmp_path / "out.txt")
        (tmp_path / "manifest.json").write_text(
            json.dumps({"outputs": {"out.txt": digest}}))
        assert checks.manifest_verifies(tmp_path) == []
        (tmp_path / "out.txt").write_text("payload!\n")
        assert checks.manifest_verifies(tmp_path) != []

    def test_rate_far_from_exact_is_rejected(self):
        assert checks.rate_matches("r", 0.19, 20000, 0.1918) == []
        assert checks.rate_matches("r", 0.17, 20000, 0.1918) != []

    def test_threshold_scan_rejects_a_suboptimal_cutoff(self):
        up = np.array([0.1, 0.2, 0.7])
        dn = np.array([0.8, 0.15, 0.05])
        best = ssro.analysis.optimize_threshold(up, dn)
        assert best == (0, pytest.approx(0.85))
        assert checks.threshold_optimal(up, dn, *best) == []
        assert checks.threshold_optimal(up, dn, 1, 0.825) != []
