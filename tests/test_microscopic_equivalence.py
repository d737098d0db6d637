"""Microscopic-mode shots against the per-draw reference loop.

``ref_simulate_shot_microscopic`` is the earlier microscopic sampler: it
draws every uniform and every Poisson count through its own one-element
rng call and names the CNOT pulses of each read explicitly.  The package's
sampler draws each shot's stream once and walks the protocol's own cycle
pulses; its records must equal the reference's, shot for shot.
"""
from dataclasses import replace

import numpy as np
import pytest

from ssro import rng
from ssro.config import default_config
from ssro.model import Electron, Nuclear, RegisterState, default_diagram
from ssro.optics import propagate
from ssro.protocol import (build_dual_step_readout, build_standard_readout,
                           gate_action, mw_pi)
from ssro.trajectory import (ShotModel, calibrated_shot_model, simulate_batch,
                             simulate_shot)

_PUMP_TO = {Electron.PLUS_3_2: Electron.PLUS_1_2,
            Electron.MINUS_3_2: Electron.MINUS_1_2}


class _SeqStream:
    def __init__(self, seed):
        self.seeds = np.array([seed], dtype=np.uint64)
        self.j = 0

    def random(self):
        u = rng.uniforms(self.seeds, self.j)[0]
        self.j += 1
        return float(u)

    def poisson(self, lam):
        return int(rng.poisson_from_uniform(
            np.array([self.random()]), np.array([lam]))[0])


def ref_simulate_shot_microscopic(model, protocol, prepared, seed, params,
                                  optical):
    """(counts1, counts2 or None) of one shot, one rng call per draw."""
    stream = _SeqStream(seed)
    diagram = default_diagram()
    curve = propagate(optical, protocol.laser_window_us)
    lam_bright = curve.detected_photons()
    pump_out = curve.pump_fidelity(protocol.laser_window_us)

    inverted = stream.random() < model.nuclear_init_error
    charge_ok = stream.random() >= model.charge_error
    nuclear = prepared.flipped() if inverted else prepared
    state = RegisterState(electron=Electron.PLUS_1_2, nuclear=nuclear,
                          charge_ok=charge_ok)

    rate_cycled, rate_idle = model.flip_rates(protocol.dual)
    counts1 = np.zeros(protocol.cycles, dtype=np.int64)
    counts2 = np.zeros(protocol.cycles, dtype=np.int64) if protocol.dual else None

    reads = [(("MW1A", "MW3A"), counts1)]
    if protocol.dual:
        reads.append((("MW1B", "MW3B"), counts2))

    for c in range(protocol.cycles):
        cycled = protocol.dual or state.nuclear is Nuclear.UP
        rate = rate_cycled if cycled else rate_idle
        if stream.random() < rate:
            state = replace(state, nuclear=state.nuclear.flipped())
        for labels, sink in reads:
            for label in labels:
                state = gate_action(mw_pi(label), state, params, stream,
                                    diagram=diagram)
            if state.charge_ok and state.electron in _PUMP_TO:
                sink[c] = stream.poisson(lam_bright + model.lambda_dark)
                if stream.random() < pump_out:
                    state = replace(state, electron=_PUMP_TO[state.electron])
            else:
                sink[c] = stream.poisson(model.lambda_dark)
    return counts1, counts2


CFG = default_config()
MODELS = {
    "calibrated": replace(calibrated_shot_model(), mode="microscopic"),
    # dark counts in most windows, frequent flips and charge failures
    "busy": ShotModel(mode="microscopic", lambda_dark=0.5, flip_bd=0.02,
                      flip_db=0.01, nuclear_init_error=0.3, charge_error=0.2),
}
BUILDERS = {"standard": build_standard_readout, "dual": build_dual_step_readout}


@pytest.mark.parametrize("pi_fidelity", [0.967, 0.6])
@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("prepared", [Nuclear.UP, Nuclear.DOWN],
                         ids=["up", "down"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_shots_match_reference(kind, prepared, model_name, pi_fidelity):
    model = MODELS[model_name]
    params = replace(CFG.physical, pi_pulse_fidelity=pi_fidelity)
    protocol = BUILDERS[kind](params, cycles=60)
    batch = simulate_batch(model, protocol, prepared, 6, master_seed=11,
                           keep_cycles=True, head_window=25, params=params,
                           optical=CFG.optical)
    for i in range(batch.n_shots):
        seed = rng.shot_seed(11, i)
        ref1, ref2 = ref_simulate_shot_microscopic(
            model, protocol, prepared, seed, params, CFG.optical)
        np.testing.assert_array_equal(batch.counts1[i], ref1)
        assert batch.head1[i] == ref1[:25].sum()
        if kind == "dual":
            np.testing.assert_array_equal(batch.counts2[i], ref2)
            assert batch.head2[i] == ref2[:25].sum()
        else:
            assert batch.counts2 is None


def test_full_length_shot_matches_reference():
    model = MODELS["calibrated"]
    protocol = build_dual_step_readout(CFG.physical)
    seed = rng.shot_seed(5, 3)
    rec = simulate_shot(model, protocol, Nuclear.UP, seed,
                        params=CFG.physical, optical=CFG.optical)
    ref1, ref2 = ref_simulate_shot_microscopic(
        model, protocol, Nuclear.UP, seed, CFG.physical, CFG.optical)
    assert rec.counts_read1 == tuple(ref1)
    assert rec.counts_read2 == tuple(ref2)
