import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize
from scipy.stats import chi2, poisson

from ssro.analysis import (AnalysisError, ClassifierConfig, CountHistogram,
                           FitTargets, FidelityReport, JointHistogram,
                           REFERENCE_TARGETS, _score, exact_count_pmf,
                           exact_dual_pmf, exact_fidelity_report,
                           exact_head_tail_pmf, estimate_peak_separation,
                           fidelity_report, fit_flip_rate, fit_shot_model,
                           optimize_threshold, scenario,
                           separating_threshold, wilson_interval)
from ssro.model import Nuclear, PhysicalParams
from ssro.protocol import build_dual_step_readout, build_standard_readout
from ssro.trajectory import ShotModel, calibrated_shot_model, simulate_batch


@pytest.fixture(scope="module")
def params():
    return PhysicalParams()


@pytest.fixture(scope="module")
def protocol(params):
    return build_standard_readout(params)


@pytest.fixture(scope="module")
def cal():
    return calibrated_shot_model()


@pytest.fixture(scope="module")
def batches(cal, protocol):
    up = simulate_batch(cal, protocol, Nuclear.UP, 150_000, master_seed=101)
    dn = simulate_batch(cal, protocol, Nuclear.DOWN, 150_000, master_seed=102)
    return up, dn


def plain_model(**overrides):
    base = dict(lambda_bright=0.028, lambda_dark=0.0, flip_bd=0.0,
                flip_db=0.0, nuclear_init_error=0.0, charge_error=0.0)
    base.update(overrides)
    return ShotModel(**base)


class TestWilson:
    def test_bounds(self):
        lo, hi = wilson_interval(1, 2)
        assert 0.0 <= lo <= 0.5 <= hi <= 1.0

    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0 < hi < 0.05

    def test_needs_trials(self):
        with pytest.raises(AnalysisError):
            wilson_interval(0, 0)


class TestClassify:
    def test_cutoff_semantics(self):
        # one shot each at totals 0, 1 and 2: under cutoff 1 the cutoff
        # itself reads dark, two or more photons read bright
        shots = np.array([1, 1, 1])
        (kept_up, dark), (kept_dn, bright) = _score(
            "raw", shots, shots, ClassifierConfig(cutoff=1).cutoff, (3, 3))
        assert (kept_up, dark, kept_dn, bright) == (3, 2, 3, 1)

    def test_invalid_config(self):
        with pytest.raises(AnalysisError):
            ClassifierConfig(cutoff=-1)


class TestExactCountPmf:
    def test_poisson_limit_matches_scipy(self):
        # independent oracle: scipy.stats.poisson at mean 250 * 0.028 = 7
        pmf = exact_count_pmf(plain_model(), 250, Nuclear.UP)
        ref = poisson.pmf(np.arange(len(pmf)), 7.0)
        assert pmf[0] == pytest.approx(math.exp(-7.0), rel=1e-9)
        np.testing.assert_allclose(pmf, ref, atol=1e-12)

    def test_normalization(self, cal):
        for prep in (Nuclear.UP, Nuclear.DOWN):
            pmf = exact_count_pmf(cal, 250, prep)
            assert abs(pmf.sum() - 1.0) < 1e-9

    def test_flip_survival_mean_matches_closed_form(self):
        # E[total] = lam_b * sum_{i=1..250} (1-f)^i, flips before reads
        lam, f = 0.028, 7.7e-4
        pmf = exact_count_pmf(plain_model(flip_bd=f), 250, Nuclear.UP)
        closed = lam * sum((1 - f) ** i for i in range(1, 251))
        assert (np.arange(len(pmf)) * pmf).sum() == pytest.approx(closed,
                                                                  abs=1e-9)

    def test_calibrated_bright_mean_in_band(self, cal):
        pmf = exact_count_pmf(cal, 250, Nuclear.UP)
        mean = (np.arange(len(pmf)) * pmf).sum()
        assert 6.2 <= mean <= 6.5

    def test_calibrated_dark_mean(self, cal):
        pmf = exact_count_pmf(cal, 250, Nuclear.DOWN)
        mean = (np.arange(len(pmf)) * pmf).sum()
        assert mean == pytest.approx(0.4, abs=0.05)

    def test_oracle_matches_monte_carlo(self, cal, protocol, batches):
        up, _ = batches
        pmf = exact_count_pmf(cal, 250, Nuclear.UP)
        emp = np.bincount(up.total1, minlength=len(pmf))[:len(pmf)] / up.n_shots
        tv = 0.5 * np.abs(emp - pmf).sum()
        assert tv < 0.01

    def test_head_tail_marginal_consistent(self, cal):
        joint = exact_head_tail_pmf(cal, 250, 120, Nuclear.UP)
        pmf = exact_count_pmf(cal, 250, Nuclear.UP)
        h = np.arange(joint.shape[0])[:, None]
        t = np.arange(joint.shape[1])[None, :]
        totals = np.zeros(len(pmf))
        for k in range(len(pmf)):
            totals[k] = joint[(h + t) == k].sum()
        np.testing.assert_allclose(totals, pmf, atol=1e-9)

    def test_dual_marginal_consistent(self, cal):
        # in the dual protocol both states flip at the cycled rate
        joint = exact_dual_pmf(cal, 250, Nuclear.UP)
        both_cycled = dataclasses.replace(cal, flip_db=cal.flip_bd)
        pmf = exact_count_pmf(both_cycled, 250, Nuclear.UP)
        np.testing.assert_allclose(joint.sum(axis=1)[:len(pmf)], pmf,
                                   atol=1e-9)


class TestHistograms:
    def test_bins_sum_to_shots(self, batches):
        up, dn = batches
        hist = CountHistogram.from_batches(up, dn)
        assert hist.counts_up.sum() == up.n_shots
        assert hist.counts_dn.sum() == dn.n_shots

    def test_joint_marginal_equals_count_histogram(self, cal, params):
        proto = build_dual_step_readout(params, cycles=100)
        up = simulate_batch(cal, proto, Nuclear.UP, 20_000, master_seed=7)
        dn = simulate_batch(cal, proto, Nuclear.DOWN, 20_000, master_seed=8)
        joint = JointHistogram.from_batches(up, dn)
        direct = CountHistogram.from_batches(up, dn)
        for table, hist in ((joint.counts_up, direct.counts_up),
                            (joint.counts_dn, direct.counts_dn)):
            marginal = table.sum(axis=1)
            n = min(len(marginal), len(hist))
            np.testing.assert_array_equal(marginal[:n], hist[:n])

    @pytest.mark.parametrize("read", [0, 3])
    def test_invalid_read_index_rejected(self, batches, read):
        with pytest.raises(ValueError, match="has no read"):
            CountHistogram.from_batches(*batches, read=read)

    def test_read2_of_single_read_batches_rejected(self, batches):
        with pytest.raises(ValueError, match="has no read 2"):
            CountHistogram.from_batches(*batches, read=2)

    def test_read2_histograms_total2(self, cal, params):
        proto = build_dual_step_readout(params, cycles=20)
        up = simulate_batch(cal, proto, Nuclear.UP, 500, master_seed=7)
        dn = simulate_batch(cal, proto, Nuclear.DOWN, 500, master_seed=8)
        hist = CountHistogram.from_batches(up, dn, read=2)
        np.testing.assert_array_equal(
            hist.counts_up, np.bincount(up.total2, minlength=len(hist.bins)))

    def test_joint_csv_matches_cell_walk(self, params, tmp_path):
        # a bright model spreads the shots over many cells, some empty
        model = ShotModel(lambda_bright=0.5, lambda_dark=0.05)
        proto = build_dual_step_readout(params, cycles=40)
        joint = JointHistogram.from_batches(
            simulate_batch(model, proto, Nuclear.UP, 3000, master_seed=7),
            simulate_batch(model, proto, Nuclear.DOWN, 3000, master_seed=8))
        rows = []
        for (i, j), c_up in np.ndenumerate(joint.counts_up):
            c_dn = joint.counts_dn[i, j]
            if c_up or c_dn:
                rows.append((i, j, c_up, c_dn))
        ref = tmp_path / "ref.csv"
        np.savetxt(ref, np.asarray(rows, dtype=np.int64), fmt="%d",
                   delimiter=",", header="total_read1,total_read2,"
                   "count_up_prepared,count_dn_prepared", comments="")
        got = tmp_path / "joint.csv"
        joint.to_csv(got)
        assert (joint.counts_up == 0).any() and len(rows) > 100
        assert got.read_bytes() == ref.read_bytes()

    def test_csv_headers(self, batches, tmp_path):
        up, dn = batches
        hist = CountHistogram.from_batches(up, dn)
        path = tmp_path / "h.csv"
        hist.to_csv(path)
        assert path.read_text().splitlines()[0] == \
            "bin,count_up_prepared,count_dn_prepared"


class TestFidelityReport:
    def test_raw_matches_exact(self, cal, batches):
        up, dn = batches
        rep = fidelity_report(up, dn, mode="raw")
        exact = exact_fidelity_report(cal, 250, mode="raw")
        assert rep.average_fidelity == pytest.approx(
            exact["average_fidelity"], abs=0.004)
        assert rep.misread_bright_as_dark == pytest.approx(
            exact["misread_bright_as_dark"], abs=0.004)
        assert rep.p_up_given_dn == rep.misread_bright_as_dark

    def test_conditional_matches_exact(self, cal, batches):
        up, dn = batches
        rep = fidelity_report(up, dn, mode="conditional")
        exact = exact_fidelity_report(cal, 250, mode="conditional")
        assert rep.average_fidelity == pytest.approx(
            exact["average_fidelity"], abs=0.003)

    def test_conditional_beats_raw(self, batches):
        up, dn = batches
        raw = fidelity_report(up, dn, mode="raw")
        cond = fidelity_report(up, dn, mode="conditional")
        assert cond.average_fidelity >= raw.average_fidelity

    def test_efficiency_accounting_is_exact(self, batches):
        up, dn = batches
        rep = fidelity_report(up, dn, mode="conditional")
        total = rep.shots_used + rep.shots_discarded
        assert total == up.n_shots + dn.n_shots
        assert rep.success_efficiency == rep.shots_used / total

    def test_dual_step_report(self, cal, params):
        proto = build_dual_step_readout(params)
        up = simulate_batch(cal, proto, Nuclear.UP, 60_000, master_seed=71)
        dn = simulate_batch(cal, proto, Nuclear.DOWN, 60_000, master_seed=72)
        rep = fidelity_report(up, dn, mode="dual_step")
        exact = exact_fidelity_report(cal, 250, mode="dual_step")
        assert rep.average_fidelity == pytest.approx(
            exact["average_fidelity"], abs=0.006)
        assert rep.success_efficiency == pytest.approx(
            exact["success_efficiency"], abs=0.006)
        assert set(rep.per_preparation) == {"up", "down"}

    def test_dual_step_needs_dual_batches(self, batches):
        up, dn = batches
        with pytest.raises(AnalysisError, match="dual"):
            fidelity_report(up, dn, mode="dual_step")

    def test_empty_post_selection_raises(self, protocol):
        # a dark-prepared batch whose every shot has early photons leaves
        # nothing after the zero-photon window selection
        bright = plain_model(lambda_bright=0.5, lambda_dark=0.5)
        up = simulate_batch(bright, protocol, Nuclear.UP, 200, master_seed=1)
        dn = simulate_batch(bright, protocol, Nuclear.DOWN, 200, master_seed=2)
        with pytest.raises(AnalysisError, match="0 shots"):
            fidelity_report(up, dn, mode="conditional")

    def test_unknown_mode(self, batches):
        up, dn = batches
        with pytest.raises(AnalysisError, match="mode"):
            fidelity_report(up, dn, mode="bayesian")

    def test_swapped_preparations_rejected(self, batches):
        up, dn = batches
        for pair in ((dn, up), (up, up), (dn, dn)):
            with pytest.raises(AnalysisError, match="up- and down-prepared"):
                fidelity_report(*pair, mode="raw")

    @pytest.mark.parametrize("mode", ["raw", "conditional", "dual_step"])
    def test_mismatched_protocols_rejected(self, cal, params, mode):
        std = build_standard_readout(params, cycles=60)
        up = simulate_batch(cal, build_dual_step_readout(params, cycles=60),
                            Nuclear.UP, 200, master_seed=1)
        cases = {
            "cycles": build_dual_step_readout(params, cycles=61),
            "reads_per_cycle": std,
        }
        for field, protocol in cases.items():
            dn = simulate_batch(cal, protocol, Nuclear.DOWN, 200,
                                master_seed=2)
            with pytest.raises(AnalysisError, match=f"differ in {field}"):
                fidelity_report(up, dn, mode=mode)
        dn = simulate_batch(cal, build_dual_step_readout(params, cycles=60),
                            Nuclear.DOWN, 200, master_seed=2)
        dn.protocol_fingerprint = "0" * 16
        with pytest.raises(AnalysisError,
                           match="differ in protocol_fingerprint"):
            fidelity_report(up, dn, mode=mode)

    def test_mismatched_head_window_rejected_for_conditional(self, cal,
                                                            protocol):
        up = simulate_batch(cal, protocol, Nuclear.UP, 2000, master_seed=1,
                            head_window=60, keep_cycles=True)
        dn = simulate_batch(cal, protocol, Nuclear.DOWN, 2000, master_seed=2,
                            keep_cycles=True)
        with pytest.raises(AnalysisError, match="differ in head_window"):
            fidelity_report(up, dn, mode="conditional")
        # the raw read ignores the head counts
        fidelity_report(up, dn, mode="raw")

    def test_report_invariant_validation(self):
        with pytest.raises(AnalysisError):
            FidelityReport(mode="raw", misread_bright_as_dark=0.1,
                           misread_dark_as_bright=0.1, average_fidelity=0.5,
                           success_efficiency=1.0, shots_used=1,
                           shots_discarded=0)


class TestFitFlipRate:
    def _synthetic_curve(self, f, n_shots, cycles=500, seed=0,
                         p_bright=0.032, background=0.0003):
        # independent generator: exact survival curve + binomial noise
        k = np.arange(1, cycles + 1)
        p = (p_bright - background) * (1 - f) ** (k - 1) + background
        gen = np.random.default_rng(seed)
        return gen.binomial(n_shots, p)

    def _trajectory_curve(self, f, n_shots, cycles, seed, p_bright=0.032,
                          background=0.0003):
        # each shot leaves the bright state after a geometric number of
        # cycles, so its flip time correlates all of its later cycles
        gen = np.random.default_rng(seed)
        left = np.bincount(np.minimum(gen.geometric(f, n_shots), cycles),
                           minlength=cycles + 1)
        bright = n_shots - np.cumsum(left)[:cycles]
        return (gen.binomial(bright, p_bright)
                + gen.binomial(n_shots - bright, background))

    def test_recovers_reference_rate(self):
        # 1000 cycles, not 500: see test_criterion_5_flip_rate_recovery
        detections = self._synthetic_curve(7.7e-4, 500_000, cycles=1000)
        fit = fit_flip_rate(detections, 500_000)
        assert 6.9e-4 <= fit.flip_rate <= 8.5e-4
        assert fit.ci68[0] < fit.flip_rate < fit.ci68[1]

    def test_ci_at_zero_baseline_matches_bounded_fit(self):
        # a noise-free decay with no baseline puts b on its bound b >= 0;
        # below f-hat the profile must re-fit a with b held at 0, else the
        # lower bound collapses onto the estimate
        cycles, n = 500, 250_000
        k = np.arange(1, cycles + 1)
        d = n * 0.027 * (1 - 7.7e-4) ** (k - 1)
        fit = fit_flip_rate(d, n)

        def profile(f):
            # direct bounded maximisation over (a, b >= 0), scaled to O(1)
            x = (1 - f) ** (k - 1)

            def nll(theta):
                p = np.clip(theta[0] * 1e-2 * x + theta[1] * 1e-3,
                            1e-12, 1 - 1e-12)
                return -(d * np.log(p) + (n - d) * np.log1p(-p)).sum()
            return -min(minimize(nll, start, method="L-BFGS-B",
                                 bounds=[(1e-6, None), (0.0, None)],
                                 options=dict(ftol=1e-16, gtol=1e-10)).fun
                        for start in ((2.7, 0.0), (2.7, 1.0)))

        # the curve is the model at f = 7.7e-4, so that is the maximum
        drop = profile(7.7e-4) - chi2.ppf(0.6827, df=1) / 2
        lower = brentq(lambda f: profile(f) - drop, 7.5e-4, 7.7e-4)
        upper = brentq(lambda f: profile(f) - drop, 7.7e-4, 9.5e-4)
        assert fit.flip_rate == pytest.approx(7.7e-4, abs=1e-8)
        assert fit.ci68[0] == pytest.approx(lower, abs=5e-9)
        assert fit.ci68[1] == pytest.approx(upper, abs=5e-9)

    def test_seed_sweep_trajectory_bias(self):
        # 50 trajectory-correlated records of the criterion-5 size; the
        # Cramer-Rao sd of one estimate is about 1.2e-5
        rates = np.array([fit_flip_rate(self._trajectory_curve(
            7.7e-4, 500_000, 1000, seed), 500_000).flip_rate
            for seed in range(50)])
        assert np.all((rates >= 6.9e-4) & (rates <= 8.5e-4))
        assert rates.mean() == pytest.approx(7.7e-4, rel=0.02)

    def test_seed_sweep_binomial_coverage(self):
        # with independent binomial cycles the 68 % profile CI should
        # cover the truth at its nominal rate, within 3 binomial sd
        n_curves = 50
        covered = 0
        for seed in range(n_curves):
            detections = self._synthetic_curve(7.7e-4, 500_000, cycles=1000,
                                               seed=seed)
            lo, hi = fit_flip_rate(detections, 500_000).ci68
            covered += lo <= 7.7e-4 <= hi
        sd = math.sqrt(0.68 * 0.32 / n_curves)
        assert covered / n_curves >= 0.68 - 3 * sd

    def test_recovers_fast_flip(self):
        detections = self._synthetic_curve(5e-3, 1_000_000)
        fit = fit_flip_rate(detections, 1_000_000)
        assert fit.flip_rate == pytest.approx(5e-3, rel=0.10)

    def test_flat_curve_pins_zero(self):
        detections = self._synthetic_curve(0.0, 200_000)
        fit = fit_flip_rate(detections, 200_000)
        assert fit.flip_rate == 0.0
        assert fit.pinned_at_zero

    def test_needs_enough_cycles(self):
        with pytest.raises(AnalysisError):
            fit_flip_rate(np.zeros(10), 100)


class TestFitShotModel:
    def test_targets_beyond_the_rate_bound_raise(self):
        targets = FitTargets(mean_bright=2e5, mean_dark=1.0,
                             rate_bright_as_dark=0.1, rate_dark_as_bright=0.1)
        with pytest.raises(AnalysisError, match="photons per read window"):
            fit_shot_model(targets)

    def test_reference_targets_reproduced_within_five_percent(self):
        model = fit_shot_model(REFERENCE_TARGETS)
        pmf_up = exact_count_pmf(model, 250, Nuclear.UP)
        pmf_dn = exact_count_pmf(model, 250, Nuclear.DOWN)
        mean_up = (np.arange(len(pmf_up)) * pmf_up).sum()
        mean_dn = (np.arange(len(pmf_dn)) * pmf_dn).sum()
        fn = pmf_up[:2].sum()
        fp = pmf_dn[2:].sum()
        assert mean_up == pytest.approx(6.24, rel=0.05)
        assert mean_dn == pytest.approx(0.40, rel=0.05)
        assert fn == pytest.approx(0.191, rel=0.05)
        assert fp == pytest.approx(0.048, rel=0.05)

    def test_matches_shipped_calibration(self, cal):
        model = fit_shot_model(REFERENCE_TARGETS)
        for name in ("lambda_bright", "lambda_dark", "flip_db",
                     "nuclear_init_error", "charge_error"):
            assert getattr(model, name) == pytest.approx(
                getattr(cal, name), rel=1e-6)

    def test_round_trip_identifiability(self):
        truth = ShotModel(lambda_bright=0.030, lambda_dark=0.0004,
                          flip_bd=7.7e-4, flip_db=1.2e-4,
                          nuclear_init_error=0.03, charge_error=0.10)
        raw = exact_fidelity_report(truth, 250, mode="raw")
        cond = exact_fidelity_report(truth, 250, mode="conditional")
        pmf_up = exact_count_pmf(truth, 250, Nuclear.UP)
        pmf_dn = exact_count_pmf(truth, 250, Nuclear.DOWN)
        targets = FitTargets(
            mean_bright=float((np.arange(len(pmf_up)) * pmf_up).sum()),
            mean_dark=float((np.arange(len(pmf_dn)) * pmf_dn).sum()),
            rate_bright_as_dark=raw["misread_bright_as_dark"],
            rate_dark_as_bright=raw["misread_dark_as_bright"],
            cond_bright_as_dark=cond["misread_bright_as_dark"],
            cond_dark_as_bright=cond["misread_dark_as_bright"],
        )
        fitted = fit_shot_model(targets)
        for name in ("lambda_bright", "lambda_dark", "nuclear_init_error",
                     "charge_error", "flip_db"):
            assert getattr(fitted, name) == pytest.approx(
                getattr(truth, name), rel=0.02), name

    def test_infeasible_targets_raise_with_worst_statistic(self):
        bad = FitTargets(mean_bright=0.001, mean_dark=0.0005,
                         rate_bright_as_dark=0.001,
                         rate_dark_as_bright=0.0005)
        with pytest.raises(AnalysisError, match="residual"):
            fit_shot_model(bad)


class TestOptimizeThreshold:
    def test_calibrated_distributions_prefer_cutoff_one(self, cal):
        pmf_up = exact_count_pmf(cal, 250, Nuclear.UP)
        pmf_dn = exact_count_pmf(cal, 250, Nuclear.DOWN)
        best_n, best_fid = optimize_threshold(pmf_up, pmf_dn)
        # independent exhaustive re-scan
        fids = [1 - (pmf_up[:n + 1].sum() + pmf_dn[n + 1:].sum()) / 2
                for n in range(30)]
        assert best_n == int(np.argmax(fids)) == 1
        assert best_fid == pytest.approx(max(fids), abs=1e-12)

    def test_identical_pmfs_tie_break_to_zero(self):
        pmf = poisson.pmf(np.arange(40), 3.0)
        pmf = pmf / pmf.sum()
        best_n, best_fid = optimize_threshold(pmf, pmf)
        assert best_n == 0
        assert best_fid == pytest.approx(0.5, abs=1e-12)

    def test_separated_point_masses(self):
        pmf_dn = np.zeros(11)
        pmf_dn[0] = 1.0
        pmf_up = np.zeros(11)
        pmf_up[10] = 1.0
        best_n, best_fid = optimize_threshold(pmf_up, pmf_dn)
        assert best_n == 0 and best_fid == 1.0

    def test_depends_only_on_normalized_pmfs(self, cal):
        pmf_up = exact_count_pmf(cal, 250, Nuclear.UP)
        pmf_dn = exact_count_pmf(cal, 250, Nuclear.DOWN)
        a = optimize_threshold(pmf_up, pmf_dn)
        counts_up = np.round(pmf_up * 3e6)
        counts_dn = np.round(pmf_dn * 7e6)
        b = optimize_threshold(counts_up / counts_up.sum(),
                               counts_dn / counts_dn.sum())
        assert a[0] == b[0]
        assert a[1] == pytest.approx(b[1], abs=1e-4)

    def test_rejects_unnormalized(self):
        with pytest.raises(AnalysisError):
            optimize_threshold(np.ones(5), np.ones(5) / 5)


class TestSeparatingThreshold:
    def test_is_the_scan_when_a_cutoff_separates(self, cal):
        pmf_up = exact_count_pmf(cal, 250, Nuclear.UP)
        pmf_dn = exact_count_pmf(cal, 250, Nuclear.DOWN)
        assert separating_threshold(pmf_up, pmf_dn) == \
            optimize_threshold(pmf_up, pmf_dn)

    @pytest.mark.parametrize("lambda_dark", [0.032, 0.5])
    def test_refuses_when_no_cutoff_beats_chance(self, cal, lambda_dark):
        # the dark state as bright as, or brighter than, the bright one
        model = dataclasses.replace(cal, lambda_dark=lambda_dark,
                                    lambda_bright=0.032, flip_bd=0.02,
                                    flip_db=0.01)
        pmfs = [exact_count_pmf(model, 250, p)
                for p in (Nuclear.UP, Nuclear.DOWN)]
        assert optimize_threshold(*pmfs)[1] == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(AnalysisError, match="above chance"):
            separating_threshold(*pmfs)

    def test_refuses_identical_pmfs(self):
        pmf = poisson.pmf(np.arange(40), 3.0)
        pmf = pmf / pmf.sum()
        with pytest.raises(AnalysisError, match="above chance"):
            separating_threshold(pmf, pmf)

    @pytest.mark.parametrize("readout_only", [True, False])
    def test_scenario_refuses_a_dark_above_bright_model(self, cal, protocol,
                                                        readout_only):
        with pytest.raises(AnalysisError, match="above chance"):
            scenario(cal, protocol, overrides={"lambda_dark": 0.5},
                     readout_only=readout_only)


class TestScenario:
    def test_no_overrides_matches_baseline(self, cal, protocol):
        rep = scenario(cal, protocol, readout_only=False)
        pmf_up = exact_count_pmf(cal, 250, Nuclear.UP)
        pmf_dn = exact_count_pmf(cal, 250, Nuclear.DOWN)
        best_n, best_fid = optimize_threshold(pmf_up, pmf_dn)
        assert rep.cycles == 250
        assert rep.best_cutoff == best_n
        assert rep.optimized_fidelity == pytest.approx(best_fid, abs=1e-12)

    def test_duration_budget_sets_cycles(self, cal, protocol):
        rep = scenario(cal, protocol, overrides={"lambda_bright_scale": 5},
                       duration_budget_ms=0.2)
        # 3.5 us per cycle -> 57 full cycles in 0.2 ms
        assert rep.cycles == 57
        assert rep.readout_duration_us <= 200.0
        assert rep.optimized_fidelity > 0.99

    def test_smaller_flip_rate_improves_conditional_fidelity(self, cal, protocol):
        base = scenario(cal, protocol)
        better = scenario(cal, protocol, overrides={"flip_bd_scale": 0.1})
        assert better.conditional_fidelity > base.conditional_fidelity

    def test_unknown_override_rejected(self, cal, protocol):
        with pytest.raises(AnalysisError, match="override"):
            scenario(cal, protocol, overrides={"lambda_blue": 1.0})

    @pytest.mark.parametrize("key, value", [
        ("charge_error", 0.5), ("nuclear_init_error", 0.4),
        ("charge_error_scale", 3), ("nuclear_init_error_scale", 2)])
    def test_zeroed_field_override_rejected_under_readout_only(
            self, cal, protocol, key, value):
        with pytest.raises(AnalysisError,
                           match=f"override {key} has no effect: scenario "
                                 f"zeroes nuclear_init_error and "
                                 f"charge_error"):
            scenario(cal, protocol, overrides={key: value})

    def test_dual_protocol_rejected(self, cal, params):
        with pytest.raises(AnalysisError, match="single-read"):
            scenario(cal, build_dual_step_readout(params))

    def test_zeroed_field_override_applies_without_readout_only(
            self, cal, protocol):
        base = scenario(cal, protocol, readout_only=False)
        noisy = scenario(cal, protocol, overrides={"charge_error": 0.3},
                         readout_only=False)
        assert noisy.model.charge_error == 0.3
        assert noisy.optimized_fidelity < base.optimized_fidelity


class TestPeakSeparation:
    def test_recovers_known_separation(self):
        grid = np.arange(-10, 10, 0.05)
        spec = (np.exp(-0.5 * ((grid + 3.0) / 0.4) ** 2)
                + 0.4 * np.exp(-0.5 * ((grid - 3.0) / 0.4) ** 2))
        assert estimate_peak_separation(grid, spec) == pytest.approx(6.0,
                                                                     abs=0.05)

    def test_single_peak_rejected(self):
        grid = np.arange(-5, 5, 0.1)
        with pytest.raises(AnalysisError):
            estimate_peak_separation(grid, np.exp(-0.5 * grid ** 2))
