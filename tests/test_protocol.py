import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssro.model import Electron, Nuclear, PhysicalParams, RegisterState
from ssro.protocol import (ProtocolError, ProtocolSpec, Pulse, Repeat,
                           Sequence, SequenceSyntaxError,
                           build_dual_step_readout, build_standard_readout,
                           gate_action, laser, mw_pi, parse_sequence,
                           print_sequence, wait)


@pytest.fixture
def params():
    return PhysicalParams()


class TestBuilders:
    def test_standard_defaults(self, params):
        spec = build_standard_readout(params)
        assert spec.cycles == 250
        assert spec.reads_per_cycle == 1
        assert spec.laser_window_us == 1.5
        assert spec.readout.count_read_slots() == 250

    def test_standard_readout_duration(self, params):
        spec = build_standard_readout(params)
        # 250 cycles x (1.5 us laser + 2 pi pulses of 1 us)
        assert spec.readout_duration_us() == pytest.approx(250 * 3.5)
        assert spec.total_duration_us() > spec.readout_duration_us()

    def test_single_cycle_has_one_read_slot(self, params):
        spec = build_standard_readout(params, cycles=1)
        assert spec.readout.count_read_slots() == 1

    def test_dual_defaults(self, params):
        spec = build_dual_step_readout(params)
        assert spec.reads_per_cycle == 2
        assert spec.readout.count_read_slots() == 2 * 250

    def test_dual_per_cycle_laser_time(self, params):
        spec = build_dual_step_readout(params, cycles=1)
        laser_time = sum(
            b.duration_us for b in spec.readout.blocks[0].body.blocks
            if isinstance(b, Pulse) and b.kind == "laser")
        assert laser_time == pytest.approx(3.0)

    @pytest.mark.parametrize("builder", [build_standard_readout,
                                         build_dual_step_readout])
    def test_zero_cycles_rejected(self, params, builder):
        with pytest.raises(ProtocolError):
            builder(params, cycles=0)


# fingerprints of the builders' specs before ProtocolSpec read its layout
# from the readout sequence; saved batch files carry these values
_FINGERPRINTS = {
    build_standard_readout: {1: "3a2a09f43237713e", 3: "31bf4d24a9f1b5ab",
                             250: "94ff1d4f49b67ae2", 1000: "5f4da9448f2ed5e8"},
    build_dual_step_readout: {1: "4c58c6aae4a8504a", 3: "ce08d3a5a22046f1",
                              250: "ac019f07c2ed546b", 1000: "20d253c8b1a5992d"},
}


class TestSpecLayout:
    @pytest.mark.parametrize("builder", list(_FINGERPRINTS))
    @pytest.mark.parametrize("cycles", [1, 3, 250, 1000])
    def test_builder_fingerprints_unchanged(self, params, builder, cycles):
        spec = builder(params, cycles=cycles)
        assert spec.fingerprint() == _FINGERPRINTS[builder][cycles]

    def test_layout_is_read_from_the_sequence(self, params):
        readout = parse_sequence("repeat 10 { mw_pi MW1A; mw_pi MW3A; "
                                 "laser A2 2us read1; mw_pi MW1B; "
                                 "mw_pi MW3B; laser A2 2us read2; }")
        spec = ProtocolSpec(build_standard_readout(params).init, readout)
        assert (spec.cycles, spec.reads_per_cycle, spec.laser_window_us,
                spec.dual) == (10, 2, 2.0, True)
        assert spec.cycle_pulses == readout.blocks[0].body.blocks

    def test_layout_is_not_a_field(self, params):
        # a layout given beside the sequence could disagree with it
        init = build_standard_readout(params).init
        readout = parse_sequence("repeat 10 { mw_pi MW1A; mw_pi MW3A; "
                                 "laser A2 1.5us read1; }")
        with pytest.raises(TypeError):
            ProtocolSpec(init, readout, cycles=250, reads_per_cycle=2)

    @pytest.mark.parametrize("text, match", [
        ("repeat 2 { laser A2 1.5us read1; } repeat 2 { laser A2 1.5us "
         "read1; }", "single repeat"),
        ("laser A2 1.5us read1;", "single repeat"),
        ("repeat 2 { mw_pi MW3A; repeat 2 { laser A2 1.5us read1; } }",
         "only pulses"),
        ("repeat 2 { mw_pi MW3A; laser A2 1.5us read2; }", "read slots"),
        ("repeat 2 { laser A2 1.5us read2; laser A2 1.5us read1; }",
         "read slots"),
        ("repeat 2 { laser A2 1.5us read1; laser A2 1.5us read1; }",
         "read slots"),
        ("repeat 2 { mw_pi MW3A; laser A2 1.5us; }", "read slots"),
        ("repeat 2 { laser A2 1.5us read1; laser A2 2us read2; }",
         "one duration"),
    ], ids=["two-blocks", "no-repeat", "nested-repeat", "slot2-alone",
            "slots-2-1", "slot1-twice", "no-slot", "unequal-windows"])
    def test_readouts_the_samplers_cannot_run_rejected(self, params, text,
                                                       match):
        init = build_standard_readout(params).init
        with pytest.raises(ProtocolError, match=match):
            ProtocolSpec(init, parse_sequence(text))

    def test_read_slot_only_on_laser(self):
        with pytest.raises(ProtocolError, match="laser"):
            Pulse("wait", duration_us=1.0, read_slot=1)


class TestPulseValidation:
    def test_zero_duration_laser_rejected(self):
        with pytest.raises(ProtocolError):
            laser("A2", 0.0)

    def test_unlabelled_mw_rejected(self):
        with pytest.raises(ProtocolError):
            Pulse("mw_pi")

    def test_bad_read_slot_rejected(self):
        with pytest.raises(ProtocolError):
            laser("A2", 1.5, read_slot=3)

    def test_zero_repeat_rejected(self):
        with pytest.raises(ProtocolError):
            Repeat(0, Sequence("", (wait(1.0),)))


class TestParser:
    def test_readout_cycle_matches_builder(self, params):
        text = "repeat 250 { mw_pi MW1A; mw_pi MW3A; laser A2 1.5us read1; }"
        parsed = parse_sequence(text)
        built = build_standard_readout(params).readout
        assert parsed.structurally_equal(built)

    def test_zero_duration_is_an_error(self):
        with pytest.raises(SequenceSyntaxError, match="duration"):
            parse_sequence("laser A2 0us;")

    def test_unknown_label_reports_position(self):
        with pytest.raises(SequenceSyntaxError, match="line 2"):
            parse_sequence("wait 1us;\nmw_pi MW7A;")

    def test_zero_repeat_count_is_an_error(self):
        with pytest.raises(SequenceSyntaxError, match="repeat count"):
            parse_sequence("repeat 0 { wait 1us; }")

    def test_missing_semicolon_is_an_error(self):
        with pytest.raises(SequenceSyntaxError, match="';'"):
            parse_sequence("wait 1us")

    def test_unclosed_repeat_is_an_error(self):
        with pytest.raises(SequenceSyntaxError, match="'}'"):
            parse_sequence("repeat 2 { wait 1us;")

    def test_comments_and_units(self):
        seq = parse_sequence("""
            # initialization
            laser A1 50us;      # pump
            wait 0.5ms;
            mw_pi MW3B;
            laser A2 1500ns read2;
        """)
        kinds = [b.kind for b in seq.blocks]
        assert kinds == ["laser", "wait", "mw_pi", "laser"]
        assert seq.blocks[1].duration_us == pytest.approx(500.0)
        assert seq.blocks[3].duration_us == pytest.approx(1.5)
        assert seq.blocks[3].read_slot == 2

    def test_print_parse_identity_on_builders(self, params):
        for spec in (build_standard_readout(params),
                     build_dual_step_readout(params, cycles=3)):
            text = print_sequence(spec.readout)
            assert parse_sequence(text).structurally_equal(spec.readout)


_LABELS = ("MW1A", "MW1B", "MW3A", "MW3B", "A1", "A2")


def _pulses():
    return st.one_of(
        st.sampled_from(["MW1A", "MW1B", "MW3A", "MW3B"]).map(mw_pi),
        st.tuples(st.sampled_from(["A1", "A2"]),
                  st.floats(min_value=0.001, max_value=100.0),
                  st.sampled_from([None, 1, 2])).map(
                      lambda t: laser(t[0], round(t[1], 3), read_slot=t[2])),
        st.floats(min_value=0.001, max_value=1000.0).map(
            lambda d: wait(round(d, 3))),
    )


def _sequences(depth=2):
    if depth == 0:
        return st.lists(_pulses(), min_size=1, max_size=4).map(
            lambda bs: Sequence("", tuple(bs)))
    sub = _sequences(depth - 1)
    block = st.one_of(
        _pulses(),
        st.tuples(st.integers(min_value=1, max_value=5), sub).map(
            lambda t: Repeat(*t)))
    return st.lists(block, min_size=1, max_size=4).map(
        lambda bs: Sequence("", tuple(bs)))


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(seq=_sequences())
    def test_parse_inverts_print(self, seq):
        text = print_sequence(seq)
        reparsed = parse_sequence(text)
        assert reparsed.structurally_equal(seq)
        # printing again is byte-stable
        assert print_sequence(reparsed) == text


class TestGateAction:
    def test_ideal_gate_flips_addressed_pair(self, params):
        ideal = PhysicalParams(pi_pulse_fidelity=1.0)
        rng = np.random.default_rng(0)
        state = RegisterState(electron=Electron.PLUS_1_2, nuclear=Nuclear.UP)
        out = gate_action(mw_pi("MW3A"), state, ideal, rng)
        assert out.electron is Electron.PLUS_3_2
        back = gate_action(mw_pi("MW3A"), out, ideal, rng)
        assert back.electron is Electron.PLUS_1_2

    def test_wrong_nuclear_state_blocks_gate(self, params):
        ideal = PhysicalParams(pi_pulse_fidelity=1.0)
        rng = np.random.default_rng(0)
        state = RegisterState(electron=Electron.PLUS_1_2, nuclear=Nuclear.DOWN)
        assert gate_action(mw_pi("MW3A"), state, ideal, rng) == state
        assert gate_action(mw_pi("MW3B"), state, ideal, rng).electron \
            is Electron.PLUS_3_2

    def test_unaddressed_electron_untouched(self, params):
        rng = np.random.default_rng(0)
        state = RegisterState(electron=Electron.MINUS_1_2, nuclear=Nuclear.UP)
        assert gate_action(mw_pi("MW3A"), state, params, rng) == state

    def test_finite_fidelity_flip_fraction(self, params):
        rng = np.random.default_rng(12345)
        state = RegisterState(electron=Electron.PLUS_1_2, nuclear=Nuclear.UP)
        n = 100_000
        flips = sum(
            gate_action(mw_pi("MW3A"), state, params, rng).electron
            is Electron.PLUS_3_2
            for _ in range(n))
        p = params.pi_pulse_fidelity
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(flips / n - p) < 3 * sigma

    def test_gate_never_touches_charge_flag(self, params):
        rng = np.random.default_rng(0)
        state = RegisterState(electron=Electron.PLUS_1_2, nuclear=Nuclear.UP,
                              charge_ok=False)
        out = gate_action(mw_pi("MW3A"), state, params, rng)
        assert out.charge_ok is False

    def test_laser_and_wait_are_identity_here(self, params):
        rng = np.random.default_rng(0)
        state = RegisterState()
        assert gate_action(laser("A2", 1.5), state, params, rng) == state
        assert gate_action(wait(1.0), state, params, rng) == state

    def test_unknown_label_raises(self, params):
        rng = np.random.default_rng(0)
        with pytest.raises(Exception, match="MW9"):
            gate_action(mw_pi("MW9"), RegisterState(), params, rng)

