"""The single-read law, the shot-model fit and ``scenario`` against
reference copies.

``exact_count_pmf`` is the full-window case of the head/tail DP;
``ref_squaring_count_pmf`` keeps the separate one-dimensional DP of the
read total that it replaced, and the two must agree bit for bit.
``ref_model_stats`` and ``ref_scenario_fidelities`` compute the fitted
statistics and the scenario fidelities as two separate exact laws: the
read total from its own one-dimensional DP (``ref_squaring_count_pmf``)
and the conditional rates from the head/tail table.  The package reads
both from one head/tail table per preparation, the total as its
anti-diagonal sums, so the two must agree to rounding and pick the same
cutoff.  ``scenario``'s override handling is not copied: the reference
takes the model, cycle count and window the package's report names.  Where
no cutoff beats chance (the always-flipping model), ``scenario`` refuses
the model instead of reporting a cutoff picked by rounding noise.
"""
import dataclasses

import numpy as np
import pytest

import ssro.analysis as analysis
from ssro.analysis import (AnalysisError, ClassifierConfig, _cycle_power,
                           _from_state, _mix, _model_stats, _pad, _pmf_length,
                           _poisson_kernel, exact_count_pmf,
                           exact_head_tail_pmf, optimize_threshold, scenario)
from ssro.model import Nuclear, PhysicalParams
from ssro.protocol import build_standard_readout
from ssro.trajectory import ShotModel, calibrated_shot_model

TOL = 1e-12
CYCLES = (1, 57, 250, 1000)
CAL = calibrated_shot_model()
MODELS = {
    "calibrated": CAL,
    "no_flips": ShotModel(**{**CAL.to_dict(), "flip_bd": 0.0, "flip_db": 0.0}),
    "always_flip": ShotModel(**{**CAL.to_dict(), "flip_bd": 1.0,
                                "flip_db": 1.0}),
    "five_fold_collection": ShotModel(**{**CAL.to_dict(), "lambda_bright":
                                         5 * CAL.lambda_bright}),
}


def ref_squaring_count_pmf(model, cycles, prepared):
    """The read-total DP as its own cycle power over the whole record."""
    lmax = _pmf_length(model, cycles)
    kb = _poisson_kernel(model.lambda_bright)
    kd = _poisson_kernel(model.lambda_dark)
    power = _cycle_power(kb, kd, *model.flip_rates(False), cycles, lmax)
    start = 0 if prepared is Nuclear.UP else 1
    return _mix(model, _from_state(power, start, lmax),
                _from_state(power, 1 - start, lmax),
                _pad(_poisson_kernel(model.lambda_dark * cycles), lmax))


def ref_conditional_rates(model, cycles, window, cut):
    ju = exact_head_tail_pmf(model, cycles, window, Nuclear.UP)
    jd = exact_head_tail_pmf(model, cycles, window, Nuclear.DOWN)
    h = np.arange(ju.shape[0])[:, None]
    t = np.arange(ju.shape[1])[None, :]
    keep_up = float(ju[1:, :].sum())
    keep_dn = float(jd[0, :].sum())
    r_up = float(ju[(h >= 1) & (h + t <= cut)].sum()) / keep_up
    r_dn = float(jd[0, cut + 1:].sum()) / keep_dn
    return r_up, r_dn


def ref_model_stats(model, cycles, config, conditional):
    pmf_up = ref_squaring_count_pmf(model, cycles, Nuclear.UP)
    pmf_dn = ref_squaring_count_pmf(model, cycles, Nuclear.DOWN)
    cut = config.cutoff
    stats = [float((np.arange(len(pmf)) * pmf).sum())
             for pmf in (pmf_up, pmf_dn)]
    stats += [float(pmf_up[:cut + 1].sum()), float(pmf_dn[cut + 1:].sum())]
    if conditional:
        stats += ref_conditional_rates(model, cycles,
                                       min(config.window, cycles), cut)
    return stats


def ref_scenario_fidelities(model, cycles, window):
    best_n, best_fid = optimize_threshold(
        ref_squaring_count_pmf(model, cycles, Nuclear.UP),
        ref_squaring_count_pmf(model, cycles, Nuclear.DOWN))
    r_up, r_dn = ref_conditional_rates(model, cycles, window, best_n)
    return best_n, best_fid, 1 - (r_up + r_dn) / 2


@pytest.fixture(scope="module")
def protocol():
    return build_standard_readout(PhysicalParams())


@pytest.mark.parametrize("cycles", [1, 7, 57, 250, 1000])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_count_pmf_equals_squaring_dp(name, cycles):
    model = MODELS[name]
    for prepared in (Nuclear.UP, Nuclear.DOWN):
        got = exact_count_pmf(model, cycles, prepared)
        ref = ref_squaring_count_pmf(model, cycles, prepared)
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("cycles", CYCLES)
@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("conditional", [False, True])
def test_model_stats_equal_reference(name, cycles, conditional):
    model, config = MODELS[name], ClassifierConfig()
    got = _model_stats(model, cycles, config, conditional)
    ref = ref_model_stats(model, cycles, config, conditional)
    assert len(got) == len(ref) == (6 if conditional else 4)
    np.testing.assert_allclose(got, ref, rtol=0, atol=TOL)


@pytest.mark.parametrize("cycles", CYCLES)
@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("readout_only", [True, False])
def test_scenario_equals_reference(protocol, name, cycles, readout_only):
    model = MODELS[name]
    if readout_only:
        model = dataclasses.replace(model, nuclear_init_error=0.0,
                                    charge_error=0.0)
    window = ClassifierConfig().scaled_window(cycles)
    best_n, best_fid, cond_fid = ref_scenario_fidelities(model, cycles,
                                                         window)
    if best_fid <= 0.5 + 1e-12:
        with pytest.raises(AnalysisError, match="above chance"):
            scenario(MODELS[name], protocol, {"cycles": cycles},
                     readout_only=readout_only)
        return
    rep = scenario(MODELS[name], protocol, {"cycles": cycles},
                   readout_only=readout_only)
    assert rep.cycles == cycles
    assert rep.model == model
    assert rep.conditional_window == window
    assert rep.best_cutoff == best_n
    assert rep.optimized_fidelity == pytest.approx(best_fid, rel=0, abs=TOL)
    assert rep.conditional_fidelity == pytest.approx(cond_fid, rel=0, abs=TOL)


def count_single_read_dps(monkeypatch):
    """Wrap the two single-read DPs; returns the call counts by name."""
    calls = {}
    for name in ("exact_count_pmf", "exact_head_tail_pmf"):
        original = getattr(analysis, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counted)
    return calls


def test_one_single_read_table_per_preparation(protocol, monkeypatch):
    calls = count_single_read_dps(monkeypatch)
    _model_stats(CAL, 250, ClassifierConfig(), conditional=True)
    assert calls == {"exact_head_tail_pmf": 2}
    calls.clear()
    scenario(CAL, protocol, {"lambda_bright_scale": 5})
    assert calls == {"exact_head_tail_pmf": 2}

