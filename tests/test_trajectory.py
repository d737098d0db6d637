import json
from dataclasses import replace

import numpy as np
import pytest

from ssro import rng, trajectory
from ssro.analysis import exact_count_pmf
from ssro.model import Nuclear, PhysicalParams
from ssro.optics import default_optical_model
from ssro.protocol import build_dual_step_readout, build_standard_readout
from ssro.trajectory import (BatchResult, ShotModel, ShotRecord,
                             calibrated_shot_model, cycle_detection_curve,
                             simulate_batch, simulate_shot)


@pytest.fixture(scope="module")
def params():
    return PhysicalParams()


@pytest.fixture(scope="module")
def protocol(params):
    return build_standard_readout(params)


@pytest.fixture(scope="module")
def dual_protocol(params):
    return build_dual_step_readout(params)


def ideal_model(**overrides):
    base = dict(lambda_bright=0.028, lambda_dark=0.0, flip_bd=0.0,
                flip_db=0.0, nuclear_init_error=0.0, charge_error=0.0)
    base.update(overrides)
    return ShotModel(**base)


class TestShotModel:
    def test_defaults(self):
        m = ShotModel()
        assert m.lambda_bright == 0.028
        assert m.lambda_dark == 0.0016
        assert m.flip_bd == 7.7e-4
        assert m.nuclear_init_error == 0.07

    def test_validation(self):
        with pytest.raises(ValueError):
            ShotModel(flip_bd=1.5)
        with pytest.raises(ValueError):
            ShotModel(lambda_bright=-0.1)
        with pytest.raises(ValueError):
            ShotModel(mode="quantum")

    def test_flip_rates_resolution(self):
        m = ShotModel(flip_bd=1e-3, flip_db=1e-5)
        assert m.flip_rates(dual=False) == (1e-3, 1e-5)
        assert m.flip_rates(dual=True) == (1e-3, 1e-3)

    def test_fingerprint_tracks_fields(self):
        assert ShotModel().fingerprint() != ShotModel(flip_bd=1e-3).fingerprint()

    def test_fingerprint_tracks_draw_layout(self, monkeypatch):
        model = ShotModel()
        micro = ShotModel(mode="microscopic")
        before = model.fingerprint(), micro.fingerprint()
        monkeypatch.setitem(trajectory._DRAW_LAYOUT, "effective", 1)
        assert model.fingerprint() != before[0]
        assert micro.fingerprint() == before[1]


class TestPoissonLimit:
    def test_mean_is_cycles_times_rate(self, protocol):
        # no flips, no errors: total1 ~ Poisson(250 * 0.028), mean 7.0
        batch = simulate_batch(ideal_model(), protocol, Nuclear.UP,
                               100_000, master_seed=11)
        assert batch.total1.mean() == pytest.approx(7.0, abs=0.03)

    def test_variance_is_poissonian(self, protocol):
        batch = simulate_batch(ideal_model(), protocol, Nuclear.UP,
                               100_000, master_seed=11)
        assert batch.total1.var() == pytest.approx(7.0, rel=0.02)

    def test_rate_at_the_bound_samples_the_right_mean(self, params):
        # exp(-lambda) must stay a normal double for the inverse CDF; the
        # largest accepted rate still gives Poisson(3 * 700) totals
        lam = trajectory._LAMBDA_MAX
        batch = simulate_batch(ideal_model(lambda_bright=lam),
                               build_standard_readout(params, cycles=3),
                               Nuclear.UP, 4000, master_seed=5)
        sd = np.sqrt(3 * lam / batch.n_shots)
        assert abs(batch.total1.mean() - 3 * lam) < 5 * sd
        assert batch.total1.var() == pytest.approx(3 * lam, rel=0.1)

    @pytest.mark.parametrize("name", ["lambda_bright", "lambda_dark"])
    def test_rate_above_the_bound_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must lie in "
                                             r"\[0, 700\]"):
            ShotModel(**{name: 746.0})


class TestFlipDecay:
    def test_mean_matches_geometric_survival_closed_form(self, protocol):
        # E[total] = lam_b * sum_{i=1..250} (1-f)^i = 6.36480 (flip precedes
        # the read within a cycle)
        model = ideal_model(flip_bd=7.7e-4)
        batch = simulate_batch(model, protocol, Nuclear.UP, 200_000,
                               master_seed=5)
        assert batch.total1.mean() == pytest.approx(6.36480, abs=0.03)

    def test_calibrated_means(self, protocol):
        model = calibrated_shot_model()
        up = simulate_batch(model, protocol, Nuclear.UP, 200_000, master_seed=1)
        dn = simulate_batch(model, protocol, Nuclear.DOWN, 200_000, master_seed=2)
        assert up.total1.mean() == pytest.approx(6.24, abs=0.15)
        assert dn.total1.mean() == pytest.approx(0.40, abs=0.05)

    def test_increasing_flip_rate_decreases_mean(self):
        # checked on the exact distributions: strict monotonicity
        means = []
        for f in (2e-4, 7.7e-4, 5e-3):
            pmf = exact_count_pmf(ideal_model(flip_bd=f), 250, Nuclear.UP)
            means.append(float((np.arange(len(pmf)) * pmf).sum()))
        assert means[0] > means[1] > means[2]


    def test_flip_cap_raises_instead_of_truncating(self, protocol):
        # at 0.2 per cycle a shot expects ~50 flips in 250 cycles, far more
        # than the draw layout holds
        model = ideal_model(flip_bd=0.2, flip_db=0.2)
        with pytest.raises(ValueError, match="0.2.*12 flips"):
            simulate_batch(model, protocol, Nuclear.UP, 100, master_seed=3)
        with pytest.raises(ValueError, match="0.2.*12 flips"):
            simulate_shot(model, protocol, Nuclear.UP, seed=12345)


class TestDeterminism:
    def test_same_master_seed_identical(self, protocol):
        model = calibrated_shot_model()
        a = simulate_batch(model, protocol, Nuclear.UP, 40_000, master_seed=9)
        b = simulate_batch(model, protocol, Nuclear.UP, 40_000, master_seed=9)
        np.testing.assert_array_equal(a.total1, b.total1)
        np.testing.assert_array_equal(a.head1, b.head1)
        np.testing.assert_array_equal(a.detect1, b.detect1)

    def test_worker_count_does_not_change_results(self, protocol):
        model = calibrated_shot_model()
        serial = simulate_batch(model, protocol, Nuclear.UP, 50_000,
                                master_seed=9, n_workers=1)
        threaded = simulate_batch(model, protocol, Nuclear.UP, 50_000,
                                  master_seed=9, n_workers=4)
        np.testing.assert_array_equal(serial.total1, threaded.total1)
        np.testing.assert_array_equal(serial.detect1, threaded.detect1)

    def test_different_seeds_agree_statistically(self, protocol):
        model = calibrated_shot_model()
        a = simulate_batch(model, protocol, Nuclear.UP, 100_000, master_seed=1)
        b = simulate_batch(model, protocol, Nuclear.UP, 100_000, master_seed=2)
        sigma = np.sqrt(a.total1.var() / a.n_shots + b.total1.var() / b.n_shots)
        assert abs(a.total1.mean() - b.total1.mean()) < 4 * sigma

    @pytest.mark.parametrize("mode, shots", [("effective", 500),
                                             ("microscopic", 40)],
                             ids=["effective", "microscopic"])
    def test_single_shot_replays_batch_record(self, protocol, mode, shots):
        model = replace(calibrated_shot_model(), mode=mode)
        batch = simulate_batch(model, protocol, Nuclear.UP, shots,
                               master_seed=3, keep_cycles=True)
        for i in (0, 17, shots - 1):
            rec = batch.record(i)
            replay = simulate_shot(model, protocol, Nuclear.UP, rec.seed)
            assert replay.total1 == rec.total1
            assert replay.head1 == rec.head1
            assert replay.counts_read1 == rec.counts_read1

    def test_single_shot_replays_dual_record(self, dual_protocol):
        model = calibrated_shot_model()
        batch = simulate_batch(model, dual_protocol, Nuclear.DOWN, 200,
                               master_seed=3, keep_cycles=True)
        for i in (0, 41, 199):
            rec = batch.record(i)
            replay = simulate_shot(model, dual_protocol, Nuclear.DOWN, rec.seed)
            assert replay.total1 == rec.total1
            assert replay.total2 == rec.total2
            assert replay.counts_read2 == rec.counts_read2


# Exact outputs of small fixed-seed batches: any change to the draw layout
# of either mode shows here.  The effective entries are of draw layout 2.
GOLDEN = {
    "standard": dict(
        total1=[0, 0, 1, 1, 0, 0, 12, 11, 7, 4, 8, 13, 9, 2, 4, 11, 7, 7, 8, 5,
                8, 0, 10, 7],
        head1=[0, 0, 0, 1, 0, 0, 3, 3, 1, 4, 2, 2, 4, 1, 3, 5, 3, 3, 2, 1, 1,
               0, 3, 0],
        detect1=[2, 2, 5, 5, 5, 3, 5, 3, 5, 3, 4, 2, 2, 1, 5, 6, 2, 4, 0, 2, 6,
                 3, 5, 2, 2, 2, 2, 5, 6, 3, 3, 1, 0, 3, 1, 1, 2, 0, 2, 2]),
    "dual": dict(
        total1=[1, 0, 0, 0, 2, 0, 10, 0, 2, 3, 0, 0, 1, 8, 3, 1, 3, 2, 0, 1, 8,
                6, 0, 1],
        head1=[1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 2, 0, 1, 1, 0, 0, 4,
               0, 0, 0],
        detect1=[1, 1, 0, 1, 1, 1, 2, 0, 2, 2, 0, 0, 1, 2, 0, 1, 0, 2, 3, 3, 2,
                 0, 0, 1, 0, 1, 2, 1, 0, 2, 0, 3, 2, 2, 0, 0, 1, 2, 1, 2],
        total2=[0, 10, 13, 12, 9, 21, 4, 19, 6, 9, 10, 18, 1, 5, 6, 10, 8, 9,
                19, 13, 3, 11, 10, 16],
        head2=[0, 5, 2, 5, 4, 5, 4, 6, 1, 4, 2, 3, 0, 0, 0, 3, 1, 3, 7, 3, 0,
               5, 2, 3],
        detect2=[6, 4, 4, 7, 9, 6, 5, 5, 6, 5, 6, 5, 4, 5, 5, 4, 6, 5, 6, 4, 5,
                 7, 5, 7, 2, 3, 4, 3, 8, 3, 3, 6, 4, 6, 4, 4, 5, 6, 5, 6]),
    "microscopic": dict(
        total1=[0, 0, 0, 0, 0, 2, 0, 0, 2, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 1,
                0, 3, 2],
        detect1=[0, 1, 0, 1, 1, 1, 2, 0, 0, 0, 0, 0, 0, 2, 0, 1, 0, 1, 0, 0, 2,
                 0, 0, 1, 1]),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_batch_matches_recorded_draws(params, kind):
    # flips, init and charge errors all fire often enough to pin their draws
    busy = ShotModel(lambda_bright=0.3, lambda_dark=0.02, flip_bd=0.02,
                     flip_db=0.01, nuclear_init_error=0.2, charge_error=0.1)
    if kind == "microscopic":
        batch = simulate_batch(
            replace(calibrated_shot_model(), mode="microscopic"),
            build_standard_readout(params, cycles=25), Nuclear.UP, 24,
            master_seed=1618, params=params)
    elif kind == "dual":
        batch = simulate_batch(busy, build_dual_step_readout(params, cycles=40),
                               Nuclear.DOWN, 24, master_seed=3141,
                               head_window=10)
    else:
        batch = simulate_batch(busy, build_standard_readout(params, cycles=40),
                               Nuclear.UP, 24, master_seed=2718,
                               head_window=10)
    for name, expected in GOLDEN[kind].items():
        np.testing.assert_array_equal(getattr(batch, name), expected,
                                      err_msg=name)


class TestDetectionCurve:
    def test_flip_free_bright_curve_is_flat(self, protocol):
        batch = simulate_batch(ideal_model(), protocol, Nuclear.UP, 150_000,
                               master_seed=21)
        p, se = cycle_detection_curve(batch)
        expected = 1 - np.exp(-0.028)
        assert p.mean() == pytest.approx(expected, abs=3 * se.mean() / 5)
        assert np.all(np.abs(p - expected) < 6 * np.maximum(se, 1e-4))

    def test_dark_curve_is_flat_at_background(self, protocol):
        model = ideal_model(lambda_dark=0.0016)
        batch = simulate_batch(model, protocol, Nuclear.DOWN, 150_000,
                               master_seed=22)
        p, _ = cycle_detection_curve(batch)
        assert p.mean() == pytest.approx(1 - np.exp(-0.0016), rel=0.05)

    def test_default_bright_curve_decays_at_flip_rate(self, params):
        protocol = build_standard_readout(params, cycles=500)
        model = calibrated_shot_model()
        batch = simulate_batch(model, protocol, Nuclear.UP, 150_000,
                               master_seed=23)
        p, _ = cycle_detection_curve(batch)
        # log-linear decay of the flip survival: slope ~ ln(1 - flip_bd)
        background = (model.charge_error + (1 - model.charge_error)
                      * model.nuclear_init_error) * model.lambda_dark
        y = np.log(np.clip(p - background, 1e-6, None))
        k = np.arange(500)
        slope = np.polyfit(k, y, 1)[0]
        assert slope == pytest.approx(np.log1p(-model.flip_bd), rel=0.15)

    def test_empty_read2_rejected(self, protocol):
        batch = simulate_batch(ideal_model(), protocol, Nuclear.UP, 100,
                               master_seed=1)
        with pytest.raises(ValueError):
            cycle_detection_curve(batch, read=2)

    @pytest.mark.parametrize("read", [0, 3, -1])
    def test_invalid_read_index_rejected(self, dual_protocol, read):
        batch = simulate_batch(ideal_model(), dual_protocol,
                               Nuclear.UP, 10, master_seed=1)
        with pytest.raises(ValueError, match="has no read"):
            cycle_detection_curve(batch, read=read)

    def test_read2_of_single_read_batch_names_the_read(self, protocol):
        batch = simulate_batch(ideal_model(), protocol, Nuclear.UP, 10,
                               master_seed=1)
        with pytest.raises(ValueError, match="has no read 2"):
            cycle_detection_curve(batch, read=2)


class TestDualProtocol:
    def test_reads_are_complementary(self, dual_protocol):
        model = ideal_model(lambda_dark=0.0)
        up = simulate_batch(model, dual_protocol, Nuclear.UP, 30_000,
                            master_seed=31)
        dn = simulate_batch(model, dual_protocol, Nuclear.DOWN, 30_000,
                            master_seed=32)
        assert up.total1.mean() == pytest.approx(7.0, abs=0.05)
        assert up.total2.mean() == 0.0
        assert dn.total1.mean() == 0.0
        assert dn.total2.mean() == pytest.approx(7.0, abs=0.05)

    def test_both_preparations_flip_in_dual_mode(self, dual_protocol):
        # the idle-state rate does not apply when every cycle is cycled
        model = ideal_model(flip_bd=7.7e-4, flip_db=0.0)
        up = simulate_batch(model, dual_protocol, Nuclear.UP, 60_000,
                            master_seed=33)
        dn = simulate_batch(model, dual_protocol, Nuclear.DOWN, 60_000,
                            master_seed=34)
        assert up.total2.mean() > 0.2
        assert dn.total1.mean() == pytest.approx(up.total2.mean(), rel=0.1)


class TestRecordsAndSerialization:
    def test_record_invariants(self):
        with pytest.raises(ValueError):
            ShotRecord(prepared=Nuclear.UP, seed=1, total1=5,
                       counts_read1=(1, 2, 3))

    def test_jsonl_round_trip(self, protocol, tmp_path):
        model = calibrated_shot_model()
        batch = simulate_batch(model, protocol, Nuclear.UP, 1000, master_seed=7)
        path = tmp_path / "batch.jsonl"
        batch.save_jsonl(path)
        loaded = BatchResult.load_jsonl(path)
        np.testing.assert_array_equal(loaded.total1, batch.total1)
        np.testing.assert_array_equal(loaded.head1, batch.head1)
        np.testing.assert_array_equal(loaded.detect1, batch.detect1)
        assert loaded.prepared is Nuclear.UP
        assert loaded.model_fingerprint == batch.model_fingerprint

    def test_jsonl_seeds_are_shot_seeds(self, dual_protocol, tmp_path):
        batch = simulate_batch(calibrated_shot_model(), dual_protocol,
                               Nuclear.UP, 300, master_seed=2**64 - 5)
        path = tmp_path / "batch.jsonl"
        batch.save_jsonl(path)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 300
        for shot, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["shot"] == shot
            assert rec["seed"] == rng.shot_seed(batch.master_seed, shot)
            assert rec["total2"] == batch.total2[shot]

    def test_jsonl_full_cycles(self, protocol, tmp_path):
        model = calibrated_shot_model()
        batch = simulate_batch(model, protocol, Nuclear.UP, 50, master_seed=7,
                               keep_cycles=True)
        path = tmp_path / "batch.jsonl"
        batch.save_jsonl(path, full_cycles=True)
        loaded = BatchResult.load_jsonl(path)
        np.testing.assert_array_equal(loaded.counts1, batch.counts1)
        first = json.loads(path.read_text().splitlines()[1])
        assert sum(first["counts1"]) == first["total1"]

    def test_full_cycles_requires_keep_cycles(self, protocol, tmp_path):
        batch = simulate_batch(ideal_model(), protocol, Nuclear.UP, 10,
                               master_seed=7)
        with pytest.raises(ValueError):
            batch.save_jsonl(tmp_path / "x.jsonl", full_cycles=True)

    def test_invalid_shot_count(self, protocol):
        with pytest.raises(ValueError):
            simulate_batch(ideal_model(), protocol, Nuclear.UP, 0, master_seed=1)

    @pytest.mark.parametrize("damage", ["truncated", "duplicated", "extra"])
    def test_jsonl_rejects_mismatched_records(self, protocol, tmp_path, damage):
        batch = simulate_batch(calibrated_shot_model(), protocol, Nuclear.UP,
                               100, master_seed=7)
        path = tmp_path / "batch.jsonl"
        batch.save_jsonl(path)
        lines = path.read_text().splitlines(keepends=True)
        if damage == "truncated":
            lines = lines[:-10]
        elif damage == "duplicated":
            lines.insert(50, lines[50])
            lines.pop()
        else:
            lines.append(lines[-1])
        bad = tmp_path / f"{damage}.jsonl"
        bad.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"{damage}.jsonl"):
            BatchResult.load_jsonl(bad)

    # (damage, file line the error names); record i sits on line i + 2
    @pytest.mark.parametrize("damage,line", [
        ("not_json", 52), ("cut_last_line", 101), ("blank_line", 30),
        ("two_records_on_a_line", 40), ("no_total1", 32), ("list_record", 7),
        ("float_counts", 101), ("header_not_json", 1)])
    def test_jsonl_rejects_malformed_lines(self, protocol, tmp_path, damage,
                                           line):
        batch = simulate_batch(calibrated_shot_model(), protocol, Nuclear.UP,
                               100, master_seed=7, keep_cycles=True)
        path = tmp_path / "batch.jsonl"
        batch.save_jsonl(path, full_cycles=damage == "float_counts")
        lines = path.read_text().splitlines(keepends=True)
        if damage == "not_json":
            lines[51] = "garbage\n"
        elif damage == "cut_last_line":
            lines[-1] = lines[-1][:20]
        elif damage == "blank_line":
            lines.insert(29, "\n")
        elif damage == "two_records_on_a_line":
            lines[39] = lines[39].rstrip("\n") + ", " + lines[40]
            del lines[40]
        elif damage == "no_total1":
            rec = json.loads(lines[31])
            del rec["total1"]
            lines[31] = json.dumps(rec) + "\n"
        elif damage == "list_record":
            lines[6] = "[1, 2]\n"
        elif damage == "float_counts":
            rec = json.loads(lines[-1])
            rec["counts1"][3] = 0.5
            lines[-1] = json.dumps(rec) + "\n"
        else:
            lines[0] = lines[0][:-30] + "\n"
        bad = tmp_path / f"{damage}.jsonl"
        bad.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"{damage}.jsonl: .*line {line}"):
            BatchResult.load_jsonl(bad)


    # (damage, header field the error names)
    @pytest.mark.parametrize("damage,field", [
        ("no_n_shots", "n_shots"), ("reads_per_cycle_3", "reads_per_cycle"),
        ("head_window_99_of_5", "head_window"), ("head_window_0", "head_window"),
        ("string_n_shots", "n_shots"), ("bool_cycles", "cycles"),
        ("zero_shots", "n_shots"), ("short_detect1", "detect1"),
        ("float_detect1", "detect1"), ("detect2_on_one_read", "detect2"),
        ("dual_without_detect2", "detect2"), ("unknown_prepared", "prepared"),
        ("negative_master_seed", "master_seed"),
        ("numeric_fingerprint", "model_fingerprint"), ("extra_field", "note")])
    def test_jsonl_rejects_malformed_header(self, protocol, dual_protocol,
                                           tmp_path, damage, field):
        dual = damage == "dual_without_detect2"
        batch = simulate_batch(calibrated_shot_model(),
                               dual_protocol if dual else protocol,
                               Nuclear.UP, 20, master_seed=7)
        path = tmp_path / "batch.jsonl"
        batch.save_jsonl(path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        edits = {
            "reads_per_cycle_3": dict(reads_per_cycle=3),
            "head_window_99_of_5": dict(cycles=5, head_window=99),
            "head_window_0": dict(head_window=0),
            "string_n_shots": dict(n_shots="20"),
            "bool_cycles": dict(cycles=True),
            "zero_shots": dict(n_shots=0),
            "short_detect1": dict(detect1=header["detect1"][:-1]),
            "float_detect1": dict(detect1=[0.5] * len(header["detect1"])),
            "detect2_on_one_read": dict(detect2=header["detect1"]),
            "dual_without_detect2": dict(detect2=None),
            "unknown_prepared": dict(prepared="sideways"),
            "negative_master_seed": dict(master_seed=-1),
            "numeric_fingerprint": dict(model_fingerprint=5),
            "extra_field": dict(note="hand-edited"),
        }
        if damage == "no_n_shots":
            del header["n_shots"]
        else:
            header.update(edits[damage])
        lines[0] = json.dumps(header) + "\n"
        bad = tmp_path / f"{damage}.jsonl"
        bad.write_text("".join(lines))
        with pytest.raises(ValueError,
                           match=f"{damage}.jsonl: header field '{field}'"):
            BatchResult.load_jsonl(bad)


class TestMicroscopicMode:
    def test_tracks_electron_and_emits(self, params, protocol):
        model = ShotModel(mode="microscopic", lambda_dark=0.0002,
                          nuclear_init_error=0.0, charge_error=0.0,
                          flip_bd=0.0, flip_db=0.0)
        rec = simulate_shot(model, protocol, Nuclear.UP, seed=123,
                            params=params)
        assert rec.total1 > 0
        # bright yield is bounded by the optics benchmark times cycles
        assert rec.total1 < 30

    def test_dark_state_stays_dark(self, params, protocol):
        model = ShotModel(mode="microscopic", lambda_dark=0.0,
                          nuclear_init_error=0.0, charge_error=0.0,
                          flip_bd=0.0, flip_db=0.0)
        rec = simulate_shot(model, protocol, Nuclear.DOWN, seed=123,
                            params=params)
        assert rec.total1 == 0

    def test_batch_is_deterministic(self, params, protocol):
        from ssro.protocol import build_standard_readout
        short = build_standard_readout(params, cycles=25)
        model = ShotModel(mode="microscopic")
        a = simulate_batch(model, short, Nuclear.UP, 50, master_seed=3,
                           params=params)
        b = simulate_batch(model, short, Nuclear.UP, 50, master_seed=3,
                           params=params)
        np.testing.assert_array_equal(a.total1, b.total1)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_batch_propagates_the_laser_window_once(self, params,
                                                    monkeypatch, n_workers):
        calls = []
        original = trajectory.propagate

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(trajectory, "propagate", counted)
        short = build_dual_step_readout(params, cycles=20)
        simulate_batch(ShotModel(mode="microscopic"), short, Nuclear.UP, 12,
                       master_seed=8, n_workers=n_workers, params=params)
        assert len(calls) == 1

    def test_batch_records_replay_with_their_own_optics(self, params):
        # a non-default optical model: the batch's shared laser window must
        # be the one each shot would propagate for itself
        optical = replace(default_optical_model(),
                          collection_efficiency=0.5, pump_a2=40.0)
        short = build_dual_step_readout(params, cycles=40)
        model = ShotModel(mode="microscopic", lambda_dark=0.002)
        batch = simulate_batch(model, short, Nuclear.DOWN, 12, master_seed=9,
                               keep_cycles=True, params=params,
                               optical=optical)
        for i in range(batch.n_shots):
            rec = batch.record(i)
            assert simulate_shot(model, short, Nuclear.DOWN, rec.seed,
                                 params=params, optical=optical) == rec

    def test_oracle_rejects_microscopic(self):
        from ssro.analysis import AnalysisError
        with pytest.raises(AnalysisError):
            exact_count_pmf(ShotModel(mode="microscopic"), 250, Nuclear.UP)
