"""Physical parameters and the hyperfine-split ground-state level structure.

The register is a spin-3/2 color-center electron coupled to one spin-1/2
nucleus.  Under a strong axial field the four electron levels are
Zeeman-split and each is further split by the hyperfine coupling, giving
eight ground states.  Microwave transitions address one electron pair
conditioned on one nuclear state; the A/B label pairs differ only in the
nuclear condition and are separated by the hyperfine splitting.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, asdict
from importlib import resources

import numpy as np

__all__ = [
    "Electron",
    "Nuclear",
    "PhysicalParams",
    "Transition",
    "LevelDiagram",
    "RegisterState",
    "default_diagram",
    "transition_frequencies",
    "odmr_spectrum",
    "ModelError",
]


class ModelError(ValueError):
    """Invalid physical parameters or level-diagram lookups."""


def packaged_defaults() -> dict:
    """The built-in profile data/defaults.json (provenance of each value in
    data/defaults_notes.json), parsed afresh so callers may edit it."""
    text = resources.files("ssro").joinpath("data/defaults.json").read_text()
    return json.loads(text)


class Electron(enum.Enum):
    PLUS_3_2 = "+3/2"
    PLUS_1_2 = "+1/2"
    MINUS_1_2 = "-1/2"
    MINUS_3_2 = "-3/2"
    SHELVED = "shelved"  # metastable pool, populated only via the optical cycle


class Nuclear(enum.Enum):
    UP = "up"
    DOWN = "down"

    def flipped(self) -> "Nuclear":
        return Nuclear.DOWN if self is Nuclear.UP else Nuclear.UP


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of the defect and spin register.

    Defaults are the measured operating point of the reference experiment.
    """

    magnetic_field: float = 942.0         # G
    hyperfine_splitting: float = 8.0      # MHz
    odmr_linewidth_fwhm: float = 0.6      # MHz
    lifetime_a1: float = 6.45             # ns
    lifetime_a2: float = 10.58            # ns
    electron_t2_star: float = 0.8         # us
    nuclear_t2_star: float = 9.9          # ms
    pi_pulse_fidelity: float = 0.967
    electron_init_fidelity: float = 0.99
    nuclear_init_fidelity: float = 0.93
    zpl_wavelength: float = 916.0         # nm

    def __post_init__(self):
        positive = (
            "magnetic_field", "hyperfine_splitting", "odmr_linewidth_fwhm",
            "lifetime_a1", "lifetime_a2", "electron_t2_star",
            "nuclear_t2_star", "zpl_wavelength",
        )
        for name in positive:
            if not getattr(self, name) > 0:
                raise ModelError(f"{name} must be strictly positive")
        for name in ("pi_pulse_fidelity", "electron_init_fidelity",
                     "nuclear_init_fidelity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ModelError(f"{name} must lie in [0, 1], got {v}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PhysicalParams":
        return cls(**d)


@dataclass(frozen=True)
class Transition:
    """One labelled transition of the level diagram.

    Microwave transitions carry an electron pair and a nuclear condition;
    optical lines (A1/A2) carry neither.
    """

    label: str
    kind: str                                # "mw" | "optical"
    electron_pair: tuple[Electron, Electron] | None = None
    nuclear_condition: Nuclear | None = None


@dataclass(frozen=True)
class LevelDiagram:
    electron_levels: tuple[Electron, ...]
    nuclear_levels: tuple[Nuclear, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        if len(self.electron_levels) != 4:
            raise ModelError("expected the four Zeeman-split electron levels")
        if len(self.nuclear_levels) != 2:
            raise ModelError("expected two nuclear levels")
        mw = [t for t in self.transitions if t.kind == "mw"]
        for t in mw:
            if t.electron_pair is None or t.nuclear_condition is None:
                raise ModelError(
                    f"MW transition {t.label} needs an electron pair and a "
                    f"nuclear condition")

    @property
    def ground_states(self) -> list[tuple[Electron, Nuclear]]:
        return [(e, n) for e in self.electron_levels for n in self.nuclear_levels]

    def find(self, label: str) -> Transition:
        for t in self.transitions:
            if t.label == label:
                return t
        raise ModelError(f"unknown transition label {label!r}")


def default_diagram(up: Nuclear = Nuclear.UP) -> LevelDiagram:
    """The readout level diagram.

    MW3 drives +1/2 <-> +3/2 and MW1 drives -1/2 <-> -3/2; the pair
    assignment for MW1 follows the level ordering of the diagram and is an
    assumption, since only the MW3 pair is exercised by the readout.  The
    "A" lines are conditioned on nuclear `up`, the "B" lines on the other
    state; passing `up=Nuclear.DOWN` relabels the nuclear basis.
    """
    dn = up.flipped()
    mw3 = (Electron.PLUS_1_2, Electron.PLUS_3_2)
    mw1 = (Electron.MINUS_1_2, Electron.MINUS_3_2)
    transitions = (
        Transition("MW3A", "mw", electron_pair=mw3, nuclear_condition=up),
        Transition("MW3B", "mw", electron_pair=mw3, nuclear_condition=dn),
        Transition("MW1A", "mw", electron_pair=mw1, nuclear_condition=up),
        Transition("MW1B", "mw", electron_pair=mw1, nuclear_condition=dn),
        Transition("A1", "optical"),      # drives the +-1/2 doublet
        Transition("A2", "optical"),      # drives the +-3/2 doublet
    )
    return LevelDiagram(
        electron_levels=(Electron.PLUS_3_2, Electron.PLUS_1_2,
                         Electron.MINUS_1_2, Electron.MINUS_3_2),
        nuclear_levels=(up, dn),
        transitions=transitions,
    )


@dataclass(frozen=True)
class RegisterState:
    """Classical register snapshot used by the trajectory engine.

    The nuclear state persists across optical cycles except through explicit
    flip events; nuclear relaxation is slow enough to ignore on the shot
    timescale.
    """

    electron: Electron = Electron.PLUS_3_2
    nuclear: Nuclear = Nuclear.UP
    charge_ok: bool = True


def transition_frequencies(params: PhysicalParams,
                           diagram: LevelDiagram) -> dict[str, float]:
    """Relative MW frequencies (MHz) of the diagram's MW transitions.

    Frequencies are relative to each electron pair's Zeeman line center:
    the line conditioned on the physical up state sits at -splitting/2 and
    the down-conditioned partner at +splitting/2 (sign convention only).
    Absolute carrier frequencies are not modelled.
    """
    s = params.hyperfine_splitting
    out = {}
    for t in diagram.transitions:
        if t.kind != "mw":
            continue
        if t.nuclear_condition is None:
            raise ModelError(f"MW transition {t.label!r} lacks a nuclear condition")
        out[t.label] = -0.5 * s if t.nuclear_condition is Nuclear.UP else +0.5 * s
    return out


def odmr_spectrum(params: PhysicalParams,
                  diagram: LevelDiagram,
                  nuclear_population: tuple[float, float],
                  freq_grid) -> np.ndarray:
    """Synthesize the ODMR line pair of the readout electron transition.

    The two hyperfine components are Gaussians of FWHM
    ``params.odmr_linewidth_fwhm`` centered at the MW3A/MW3B frequencies,
    with unit peak height per unit nuclear population, so the spectrum is
    linear in the populations.

    Args:
        nuclear_population: (p_first, p_second) populations of the diagram's
            two nuclear levels; must be non-negative and sum to 1.
        freq_grid: frequencies (MHz) on the same relative axis as
            :func:`transition_frequencies`.

    Returns:
        Intensity sampled on ``freq_grid``.
    """
    p_first, p_second = nuclear_population
    if p_first < 0 or p_second < 0:
        raise ModelError("nuclear populations must be non-negative")
    if abs(p_first + p_second - 1.0) > 1e-9:
        raise ModelError("nuclear populations must sum to 1")
    grid = np.asarray(freq_grid, dtype=float)
    if grid.size == 0:
        raise ModelError("frequency grid is empty")

    freqs = transition_frequencies(params, diagram)
    first = diagram.nuclear_levels[0]
    sigma = params.odmr_linewidth_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))

    def gauss(center):
        return np.exp(-0.5 * ((grid - center) / sigma) ** 2)

    t_a = diagram.find("MW3A")
    if t_a.nuclear_condition is first:
        pop_a, pop_b = p_first, p_second
    else:
        pop_a, pop_b = p_second, p_first
    return pop_a * gauss(freqs["MW3A"]) + pop_b * gauss(freqs["MW3B"])
