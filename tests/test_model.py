import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssro.model import (Electron, ModelError, Nuclear, PhysicalParams,
                        RegisterState, default_diagram, odmr_spectrum,
                        transition_frequencies)
from ssro.analysis import estimate_peak_separation


@pytest.fixture
def params():
    return PhysicalParams()


@pytest.fixture
def diagram():
    return default_diagram()


class TestPhysicalParams:
    def test_defaults_are_reference_operating_point(self, params):
        assert params.magnetic_field == 942.0
        assert params.hyperfine_splitting == 8.0
        assert params.odmr_linewidth_fwhm == 0.6
        assert params.lifetime_a1 == 6.45
        assert params.lifetime_a2 == 10.58
        assert params.pi_pulse_fidelity == 0.967
        assert params.electron_init_fidelity == 0.99
        assert params.nuclear_init_fidelity == 0.93

    @pytest.mark.parametrize("bad", [
        dict(hyperfine_splitting=0.0),
        dict(lifetime_a1=-1.0),
        dict(pi_pulse_fidelity=1.2),
        dict(nuclear_init_fidelity=-0.1),
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ModelError):
            PhysicalParams(**bad)

    def test_dict_round_trip(self, params):
        assert PhysicalParams.from_dict(params.to_dict()) == params


class TestLevelDiagram:
    def test_eight_ground_states(self, diagram):
        assert len(diagram.ground_states) == 8

    def test_mw_lines_pair_up(self, diagram):
        partners = {"MW1A": "MW1B", "MW1B": "MW1A",
                    "MW3A": "MW3B", "MW3B": "MW3A"}
        for label, other in partners.items():
            t = diagram.find(label)
            partner = diagram.find(other)
            assert partner.electron_pair == t.electron_pair
            assert partner.nuclear_condition != t.nuclear_condition

    def test_unknown_label_raises(self, diagram):
        with pytest.raises(ModelError, match="MW9X"):
            diagram.find("MW9X")


class TestTransitionFrequencies:
    def test_default_separation_is_hyperfine_splitting(self, params, diagram):
        f = transition_frequencies(params, diagram)
        assert abs(f["MW3A"] - f["MW3B"]) == pytest.approx(8.0)
        assert abs(f["MW1A"] - f["MW1B"]) == pytest.approx(8.0)

    def test_degenerate_hyperfine(self, diagram):
        f = transition_frequencies(
            PhysicalParams(hyperfine_splitting=1e-12), diagram)
        assert f["MW3A"] == pytest.approx(f["MW3B"], abs=1e-12)

    def test_two_mhz_splitting(self, diagram):
        f = transition_frequencies(
            PhysicalParams(hyperfine_splitting=2.0), diagram)
        assert abs(f["MW3A"] - f["MW3B"]) == pytest.approx(2.0)

    def test_nuclear_relabeling_swaps_lines_keeps_separation(self, params):
        normal = transition_frequencies(params, default_diagram())
        swapped = transition_frequencies(params,
                                         default_diagram(up=Nuclear.DOWN))
        assert normal["MW3A"] == swapped["MW3B"]
        assert normal["MW3B"] == swapped["MW3A"]
        assert (abs(normal["MW3A"] - normal["MW3B"])
                == abs(swapped["MW3A"] - swapped["MW3B"]))


class TestOdmrSpectrum:
    grid = np.arange(-8.0, 8.0 + 1e-9, 0.05)

    def test_balanced_mixture_gives_equal_peaks(self, params, diagram):
        spec = odmr_spectrum(params, diagram, (0.5, 0.5), self.grid)
        left = spec[self.grid < 0].max()
        right = spec[self.grid > 0].max()
        assert left == pytest.approx(right, rel=1e-9)

    def test_initialized_mixture_peak_ratio(self, params, diagram):
        # amplitude ratio follows the initialization populations
        spec = odmr_spectrum(params, diagram, (0.93, 0.07), self.grid)
        major = spec[self.grid < 0].max()
        minor = spec[self.grid > 0].max()
        assert minor / major == pytest.approx(0.07 / 0.93, rel=1e-6)

    def test_pure_state_matches_closed_form_gaussian(self, params, diagram):
        # independent closed form: exp(-4 ln2 (f - f0)^2 / fwhm^2)
        spec = odmr_spectrum(params, diagram, (1.0, 0.0), self.grid)
        fwhm = params.odmr_linewidth_fwhm
        center = -params.hyperfine_splitting / 2
        for offset in (0.0, 0.15, 0.3, -0.3):
            f = center + offset
            i = int(np.argmin(np.abs(self.grid - f)))
            expected = math.exp(-4 * math.log(2) * (self.grid[i] - center) ** 2
                                / fwhm ** 2)
            assert spec[i] == pytest.approx(expected, rel=1e-9)

    def test_negative_population_rejected(self, params, diagram):
        with pytest.raises(ModelError):
            odmr_spectrum(params, diagram, (-0.1, 1.1), self.grid)

    def test_populations_must_sum_to_one(self, params, diagram):
        with pytest.raises(ModelError):
            odmr_spectrum(params, diagram, (0.6, 0.6), self.grid)

    def test_empty_grid_rejected(self, params, diagram):
        with pytest.raises(ModelError):
            odmr_spectrum(params, diagram, (0.5, 0.5), [])

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(min_value=0.0, max_value=1.0))
    def test_linearity_in_populations(self, a):
        params, diagram = PhysicalParams(), default_diagram()
        grid = np.arange(-6.0, 6.0, 0.25)
        mixed = odmr_spectrum(params, diagram, (a, 1.0 - a), grid)
        pure_up = odmr_spectrum(params, diagram, (1.0, 0.0), grid)
        pure_dn = odmr_spectrum(params, diagram, (0.0, 1.0), grid)
        np.testing.assert_allclose(mixed, a * pure_up + (1 - a) * pure_dn,
                                   atol=1e-12)

    def test_peak_separation_recovers_splitting(self, params, diagram):
        step = 0.1
        grid = np.arange(-8.0, 8.0 + 1e-9, step)
        spec = odmr_spectrum(params, diagram, (0.5, 0.5), grid)
        sep = estimate_peak_separation(grid, spec)
        assert sep == pytest.approx(params.hyperfine_splitting, abs=step)


class TestRegisterState:
    def test_defaults(self):
        s = RegisterState()
        assert s.electron is Electron.PLUS_3_2
        assert s.nuclear is Nuclear.UP
        assert s.charge_ok

    def test_nuclear_flip_helper(self):
        assert Nuclear.UP.flipped() is Nuclear.DOWN
        assert Nuclear.DOWN.flipped() is Nuclear.UP
