"""DECISIONS.md holds only numbers the package reproduces.

Each test recomputes a value of the ledger from the exact laws, formats it
at the precision the ledger prints, and looks the text up in the ledger
(whitespace-normalized, so line wrapping does not matter).  A change to
the numeric path that moves a printed digit fails here, and so does an
edit of the ledger that the package does not back.
"""
import dataclasses
import pathlib

import pytest

from ssro.analysis import (ClassifierConfig, _rates, _score,
                           exact_dual_pmf, exact_fidelity_report, scenario)
from ssro.model import Nuclear, PhysicalParams
from ssro.protocol import build_standard_readout
from ssro.trajectory import calibrated_shot_model

LEDGER_PATH = pathlib.Path(__file__).resolve().parents[1] / "DECISIONS.md"
CAL = calibrated_shot_model()
ERROR_FREE = dataclasses.replace(CAL, nuclear_init_error=0.0,
                                 charge_error=0.0)
NO_FLIPS = dict(flip_bd=0.0, flip_db=0.0)


@pytest.fixture(scope="module")
def ledger():
    return " ".join(LEDGER_PATH.read_text(encoding="utf-8").split())


@pytest.fixture(scope="module")
def protocol():
    return build_standard_readout(PhysicalParams())


def assert_in(ledger, text):
    assert " ".join(text.split()) in ledger, text


def row(*cells):
    return "| " + " | ".join(str(c) for c in cells) + " |"


def test_single_read_reference_statistics(ledger):
    raw = exact_fidelity_report(CAL, 250, mode="raw")
    cond = exact_fidelity_report(CAL, 250, mode="conditional")
    assert_in(ledger, f"raw misread rates {raw['misread_bright_as_dark']:.4f} "
                      f"(p(up|dn)) and {raw['misread_dark_as_bright']:.4f} "
                      f"(p(dn|up)), average fidelity "
                      f"{raw['average_fidelity']:.4f}")
    assert_in(ledger, f"conditional rates {cond['misread_bright_as_dark']:.4f} "
                      f"and {cond['misread_dark_as_bright']:.4f}, fidelity "
                      f"{cond['average_fidelity']:.4f}, efficiency "
                      f"{cond['success_efficiency']:.4f} "
                      f"({ClassifierConfig().window}-cycle window)")


@pytest.mark.parametrize("label, model, cutoff", [
    ("error-free register (init and charge errors 0)", ERROR_FREE, 0),
    ("error-free register", ERROR_FREE, 1),
    ("error-free register", ERROR_FREE, 2),
    ("calibrated", CAL, 0),
    ("calibrated", CAL, 1),
    ("calibrated", CAL, 2),
    ("error-free register, no flips (control)",
     dataclasses.replace(ERROR_FREE, **NO_FLIPS), 1),
])
def test_dual_step_table(ledger, label, model, cutoff):
    rep = exact_fidelity_report(model, 250, ClassifierConfig(cutoff=cutoff),
                                mode="dual_step")
    assert_in(ledger, row(label, cutoff, f"{rep['average_fidelity']:.4f}",
                          f"{rep['success_efficiency']:.4f}"))


def test_dual_step_search(ledger):
    """Best dual-step fidelity at efficiency >= 0.878 over 10..500 cycles
    (step 10) and cutoffs 0..5."""
    def best(model):
        found = None
        for cycles in range(10, 501, 10):
            tables = [exact_dual_pmf(model, cycles, p)
                      for p in (Nuclear.UP, Nuclear.DOWN)]
            for cutoff in range(6):
                rep = _rates(_score("dual_step", *tables, cutoff, (1.0, 1.0)))
                if rep["success_efficiency"] >= 0.878 and (
                        found is None or rep["average_fidelity"] > found[0]):
                    found = (rep["average_fidelity"], cycles, cutoff)
        return found

    fid, cycles, cutoff = best(ERROR_FREE)
    assert_in(ledger, f"Error-free register: at efficiency ≥ 0.878 the best "
                      f"fidelity is {fid:.4f} ({cycles} cycles, cutoff "
                      f"{cutoff}).")
    assert best(CAL) is None
    assert_in(ledger, "Calibrated model: no setting reaches efficiency 0.878.")


@pytest.mark.parametrize("label, overrides", [
    ("five-fold collection", {}),
    ("five-fold collection, no flips (control)", NO_FLIPS),
])
def test_criterion_9_budget(ledger, protocol, label, overrides):
    rep = scenario(CAL, protocol, {"lambda_bright_scale": 5, **overrides},
                   duration_budget_ms=0.2)
    per_cycle_us = protocol.readout_duration_us() / protocol.cycles
    assert_in(ledger, f"A cycle of the standard protocol takes "
                      f"{per_cycle_us:.1f} µs, so the budget holds "
                      f"{rep.cycles} cycles.")
    assert_in(ledger, f"conditional fidelity (window "
                      f"{rep.conditional_window}) |")
    assert_in(ledger, row(label, rep.cycles, rep.best_cutoff,
                          f"{rep.optimized_fidelity:.5f}",
                          f"{rep.conditional_fidelity:.5f}"))


@pytest.mark.parametrize("scale", [5, 10, 20])
def test_fidelity_falls_with_the_budget(ledger, protocol, scale):
    fids = [scenario(CAL, protocol, {"lambda_bright_scale": scale},
                     duration_budget_ms=ms).optimized_fidelity
            for ms in (0.2, 0.5, 1.13)]
    assert fids == sorted(fids, reverse=True)
    assert_in(ledger, row(f"{scale}×", *(f"{f:.5f}" for f in fids)))
