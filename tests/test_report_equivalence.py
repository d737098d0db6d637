"""The fidelity reports and histograms against per-mode reference copies.

``ref_fidelity_report`` and ``ref_exact_fidelity_report`` write each
readout rule separately, once over sampled batches and once over exact
PMFs; ``ref_tables`` builds the histograms with ``np.add.at``.  The
package scores one set of outcome tables with one rule per mode, so its
sampled reports must equal the references field for field, its exact
raw and conditional reports bit for bit, and its exact dual-step report
to rounding.
"""
import dataclasses

import numpy as np
import pytest

import ssro.analysis as analysis
from ssro.analysis import (AnalysisError, ClassifierConfig, CountHistogram,
                           FidelityReport, JointHistogram, exact_count_pmf,
                           exact_dual_pmf, exact_fidelity_report,
                           exact_head_tail_pmf, fidelity_report,
                           wilson_interval)
from ssro.model import Nuclear, PhysicalParams
from ssro.protocol import build_dual_step_readout, build_standard_readout
from ssro.trajectory import ShotModel, calibrated_shot_model, simulate_batch

SHOTS = 50_000
CYCLES = (40, 250)
CUTOFFS = (0, 1, 2, 5)
WINDOWS = (1, 30, 120)
MODES = ("raw", "conditional", "dual_step")


def ref_report(mode, err_up, n_up, err_dn, n_dn, used, discarded, config,
               per_prep=None):
    r_up = err_up / n_up
    r_dn = err_dn / n_dn
    return FidelityReport(
        mode=mode,
        misread_bright_as_dark=r_up,
        misread_dark_as_bright=r_dn,
        average_fidelity=1 - (r_up + r_dn) / 2,
        success_efficiency=used / (used + discarded) if used + discarded else 0.0,
        shots_used=used,
        shots_discarded=discarded,
        ci_bright_as_dark=wilson_interval(int(round(err_up)), int(n_up)),
        ci_dark_as_bright=wilson_interval(int(round(err_dn)), int(n_dn)),
        config=config,
        per_preparation=per_prep or {},
    )


def ref_fidelity_report(batch_up, batch_dn, config=ClassifierConfig(),
                        mode="raw"):
    if batch_up.n_shots < 1 or batch_dn.n_shots < 1:
        raise AnalysisError("batches must be non-empty")
    if (batch_up.prepared is not Nuclear.UP
            or batch_dn.prepared is not Nuclear.DOWN):
        raise AnalysisError(
            f"expected up- and down-prepared batches, got "
            f"{batch_up.prepared.value} and {batch_dn.prepared.value}")
    fields = ["cycles", "reads_per_cycle", "protocol_fingerprint"]
    if mode == "conditional":
        fields.append("head_window")
    for name in fields:
        a, b = getattr(batch_up, name), getattr(batch_dn, name)
        if a != b:
            raise AnalysisError(f"batches differ in {name}: {a!r} (up) vs "
                                f"{b!r} (down)")
    n_up, n_dn = batch_up.n_shots, batch_dn.n_shots
    cut = config.cutoff

    if mode == "raw":
        err_up = int((batch_up.total1 <= cut).sum())
        err_dn = int((batch_dn.total1 > cut).sum())
        return ref_report("raw", err_up, n_up, err_dn, n_dn,
                          n_up + n_dn, 0, config)

    if mode == "conditional":
        window = min(config.window, batch_up.cycles)
        if window != batch_up.head_window or window != batch_dn.head_window:
            if batch_up.counts1 is None or batch_dn.counts1 is None:
                raise AnalysisError(
                    f"batches recorded head counts for a {batch_up.head_window}-"
                    f"cycle window; re-simulate or keep cycles to analyze "
                    f"window {window}")
            head_up = batch_up.counts1[:, :window].sum(axis=1)
            head_dn = batch_dn.counts1[:, :window].sum(axis=1)
        else:
            head_up, head_dn = batch_up.head1, batch_dn.head1
        keep_up = head_up >= 1
        keep_dn = head_dn == 0
        if not keep_up.any() or not keep_dn.any():
            raise AnalysisError("post-selection kept 0 shots")
        err_up = int((batch_up.total1[keep_up] <= cut).sum())
        err_dn = int((batch_dn.total1[keep_dn] > cut).sum())
        used = int(keep_up.sum() + keep_dn.sum())
        return ref_report("conditional", err_up, int(keep_up.sum()),
                          err_dn, int(keep_dn.sum()),
                          used, n_up + n_dn - used, config)

    if mode == "dual_step":
        if batch_up.total2 is None or batch_dn.total2 is None:
            raise AnalysisError("dual_step analysis needs dual-read batches")

        def split(batch):
            as_bright = (batch.total1 > cut) & (batch.total2 <= cut)
            as_dark = (batch.total1 <= cut) & (batch.total2 > cut)
            return int(as_bright.sum()), int(as_dark.sum())

        b_up, d_up = split(batch_up)
        b_dn, d_dn = split(batch_dn)
        kept_up, kept_dn = b_up + d_up, b_dn + d_dn
        if kept_up == 0 or kept_dn == 0:
            raise AnalysisError("post-selection kept 0 shots")
        per_prep = {
            "up": dict(success_efficiency=kept_up / n_up,
                       fidelity=b_up / kept_up),
            "down": dict(success_efficiency=kept_dn / n_dn,
                         fidelity=d_dn / kept_dn),
        }
        used = kept_up + kept_dn
        return ref_report("dual_step", d_up, kept_up, b_dn, kept_dn,
                          used, n_up + n_dn - used, config, per_prep)

    raise AnalysisError(f"unknown analysis mode {mode!r}")


def ref_exact_fidelity_report(model, cycles, config=ClassifierConfig(),
                              mode="raw"):
    cut = config.cutoff
    if mode == "raw":
        pmf_up = exact_count_pmf(model, cycles, Nuclear.UP)
        pmf_dn = exact_count_pmf(model, cycles, Nuclear.DOWN)
        r_up = float(pmf_up[:cut + 1].sum())
        r_dn = float(pmf_dn[cut + 1:].sum())
        return dict(mode=mode, misread_bright_as_dark=r_up,
                    misread_dark_as_bright=r_dn,
                    average_fidelity=1 - (r_up + r_dn) / 2,
                    success_efficiency=1.0)
    if mode == "conditional":
        window = min(config.window, cycles)
        ju = exact_head_tail_pmf(model, cycles, window, Nuclear.UP)
        jd = exact_head_tail_pmf(model, cycles, window, Nuclear.DOWN)
        h = np.arange(ju.shape[0])[:, None]
        t = np.arange(ju.shape[1])[None, :]
        total = h + t
        keep_up = float(ju[1:, :].sum())
        keep_dn = float(jd[0, :].sum())
        r_up = float(ju[(h >= 1) & (total <= cut)].sum()) / keep_up
        r_dn = float(jd[0, cut + 1:].sum()) / keep_dn
        return dict(mode=mode, misread_bright_as_dark=r_up,
                    misread_dark_as_bright=r_dn,
                    average_fidelity=1 - (r_up + r_dn) / 2,
                    success_efficiency=(keep_up + keep_dn) / 2)
    if mode == "dual_step":
        ju = exact_dual_pmf(model, cycles, Nuclear.UP)
        jd = exact_dual_pmf(model, cycles, Nuclear.DOWN)
        t1 = np.arange(ju.shape[0])[:, None]
        t2 = np.arange(ju.shape[1])[None, :]
        as_bright = (t1 > cut) & (t2 <= cut)
        as_dark = (t1 <= cut) & (t2 > cut)
        keep_up = float(ju[as_bright].sum() + ju[as_dark].sum())
        keep_dn = float(jd[as_bright].sum() + jd[as_dark].sum())
        r_up = float(ju[as_dark].sum()) / keep_up
        r_dn = float(jd[as_bright].sum()) / keep_dn
        return dict(mode=mode, misread_bright_as_dark=r_up,
                    misread_dark_as_bright=r_dn,
                    average_fidelity=1 - (r_up + r_dn) / 2,
                    success_efficiency=(keep_up + keep_dn) / 2,
                    per_preparation={"up": keep_up, "down": keep_dn})
    raise AnalysisError(f"unknown analysis mode {mode!r}")


def ref_tables(up, dn):
    """Per-preparation histograms over one or two columns by np.add.at."""
    shape = tuple(int(max(a.max(), b.max())) + 1 for a, b in zip(up, dn))

    def hist(columns):
        h = np.zeros(shape, dtype=np.int64)
        np.add.at(h, columns, 1)
        return h

    return hist(up), hist(dn)


def outcome(call, *args):
    """A call's result, or the message of the AnalysisError it raised."""
    try:
        return call(*args)
    except AnalysisError as exc:
        return f"AnalysisError: {exc}"


@pytest.fixture(scope="module")
def cal():
    return calibrated_shot_model()


@pytest.fixture(scope="module")
def batches(cal):
    """50k-shot standard and dual batches per cycle count, cycles kept."""
    params = PhysicalParams()
    out = {}
    for cycles in CYCLES:
        for kind, build in (("standard", build_standard_readout),
                            ("dual", build_dual_step_readout)):
            protocol = build(params, cycles=cycles)
            out[cycles, kind] = tuple(
                simulate_batch(cal, protocol, prep, SHOTS,
                               master_seed=1000 + 10 * cycles + seed,
                               keep_cycles=True)
                for prep, seed in ((Nuclear.UP, 1), (Nuclear.DOWN, 2)))
    return out


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("cycles", CYCLES)
def test_sampled_report_equals_reference(batches, cycles, cutoff, window,
                                         mode):
    pair = batches[cycles, "dual" if mode == "dual_step" else "standard"]
    config = ClassifierConfig(cutoff=cutoff, window=window)
    rep = fidelity_report(*pair, config, mode)
    ref = ref_fidelity_report(*pair, config, mode)
    assert rep == ref
    assert rep.to_dict() == ref.to_dict()
    # the standard batches keep a 40- or 120-cycle head window, so the
    # smaller windows read their heads from the kept cycles
    head_from_cycles = min(window, cycles) != pair[0].head_window
    assert head_from_cycles == (window < min(120, cycles))


@pytest.mark.parametrize("cycles", CYCLES)
def test_reports_of_dual_batches_read_1_equal_reference(batches, cycles):
    pair = batches[cycles, "dual"]
    for mode in ("raw", "conditional"):
        for window in WINDOWS:
            config = ClassifierConfig(cutoff=1, window=window)
            assert fidelity_report(*pair, config, mode) == \
                ref_fidelity_report(*pair, config, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("cycles", CYCLES)
def test_exact_report_equals_reference(cal, cycles, cutoff, window, mode):
    config = ClassifierConfig(cutoff=cutoff, window=window)
    rep = exact_fidelity_report(cal, cycles, config, mode)
    ref = ref_exact_fidelity_report(cal, cycles, config, mode)
    assert list(rep) == list(ref)
    assert rep["success_efficiency"] <= 1
    if mode == "raw":
        assert rep["success_efficiency"] == 1.0
    if mode == "dual_step":
        assert rep["per_preparation"] == pytest.approx(
            ref["per_preparation"], rel=0, abs=1e-15)
        for key in ("misread_bright_as_dark", "misread_dark_as_bright",
                    "average_fidelity", "success_efficiency"):
            assert rep[key] == pytest.approx(ref[key], rel=0, abs=1e-15)
    else:
        assert rep == ref


def test_error_paths_match_reference(cal, batches):
    std = batches[40, "standard"]
    dual = batches[40, "dual"]
    # a model whose up state emits nothing keeps no up shot in the head
    silent = ShotModel(lambda_bright=0.0, lambda_dark=0.0, flip_bd=0.0,
                       flip_db=0.0, nuclear_init_error=0.0, charge_error=0.0)
    protocol = build_standard_readout(PhysicalParams(), cycles=40)
    quiet = tuple(simulate_batch(silent, protocol, prep, 100, master_seed=s,
                                 keep_cycles=True)
                  for prep, s in ((Nuclear.UP, 1), (Nuclear.DOWN, 2)))
    no_cycles = tuple(dataclasses.replace(b, counts1=None) for b in std)
    cases = [
        (quiet, ClassifierConfig(), "conditional"),
        (quiet, ClassifierConfig(window=5), "conditional"),
        (dual, ClassifierConfig(cutoff=1000), "dual_step"),
        (std, ClassifierConfig(), "dual_step"),
        (std, ClassifierConfig(), "bayesian"),
        (no_cycles, ClassifierConfig(window=30), "conditional"),
        ((std[1], std[0]), ClassifierConfig(), "bayesian"),
    ]
    messages = []
    for pair, config, mode in cases:
        got = outcome(fidelity_report, *pair, config, mode)
        assert got == outcome(ref_fidelity_report, *pair, config, mode)
        messages.append(got)
    assert messages == [
        "AnalysisError: post-selection kept 0 shots",
        "AnalysisError: post-selection kept 0 shots",
        "AnalysisError: post-selection kept 0 shots",
        "AnalysisError: dual_step analysis needs dual-read batches",
        "AnalysisError: unknown analysis mode 'bayesian'",
        "AnalysisError: batches recorded head counts for a 40-cycle window; "
        "re-simulate or keep cycles to analyze window 30",
        "AnalysisError: expected up- and down-prepared batches, got down "
        "and up",
    ]
    assert outcome(exact_fidelity_report, cal, 40, ClassifierConfig(),
                   "bayesian") == \
        "AnalysisError: unknown analysis mode 'bayesian'"


def test_unknown_mode_is_rejected_before_any_table(cal, batches,
                                                   monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an outcome table was built")

    for name in ("_tables", "exact_count_pmf", "exact_head_tail_pmf",
                 "exact_dual_pmf"):
        monkeypatch.setattr(analysis, name, forbidden)
    with pytest.raises(AnalysisError, match="unknown analysis mode"):
        fidelity_report(*batches[40, "dual"], mode="bayesian")
    with pytest.raises(AnalysisError, match="unknown analysis mode"):
        exact_fidelity_report(cal, 40, mode="bayesian")


@pytest.mark.parametrize("cycles", CYCLES)
def test_histograms_equal_add_at_builder(batches, cycles):
    up, dn = batches[cycles, "dual"]
    for read, column in ((1, "total1"), (2, "total2")):
        hist = CountHistogram.from_batches(up, dn, read=read)
        ref_up, ref_dn = ref_tables((getattr(up, column),),
                                    (getattr(dn, column),))
        for got, want in ((hist.counts_up, ref_up), (hist.counts_dn, ref_dn)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(hist.bins, np.arange(len(ref_up)))
    joint = JointHistogram.from_batches(up, dn)
    ref_up, ref_dn = ref_tables((up.total1, up.total2), (dn.total1, dn.total2))
    for got, want in ((joint.counts_up, ref_up), (joint.counts_dn, ref_dn)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
