"""The blocked and repeated-squaring operators against sequential references.

``propagate`` applies its RK4 step operator as blocked powers and the exact
count DPs apply one readout cycle by repeated squaring (for the dual read,
to the bright-cycle count, over which two Poisson PMFs are mixed).  The
references below are the plain step-by-step loops with the same step
operator, kernels and truncation; the fast forms must agree with them to
rounding.  The pump fit's target-time populations are checked against the
whole curve of ``propagate``, and the numpy Poisson PMFs against scipy's.
"""
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.stats import poisson

from ssro.analysis import (AnalysisError, _pmf_length, _poisson_kernel,
                           _poisson_pmf, exact_count_pmf, exact_dual_pmf,
                           exact_head_tail_pmf)
from ssro.model import Nuclear
from ssro.optics import (OpticalModel, PumpTarget, StepSizeError,
                         _pump_fidelities, _step_operator,
                         default_optical_model, fit_pump_rates, propagate)
from ssro.trajectory import ShotModel, calibrated_shot_model

ATOL = 1e-12


# --- sequential references ---------------------------------------------------

def ref_propagate(model, duration_us, step_us, x0):
    a = model.rate_matrix()
    n = int(round(duration_us / step_us))
    step_op = np.eye(5)
    power = np.eye(5)
    for order in (1, 2, 3, 4):
        power = power @ (a * step_us)
        step_op = step_op + power / math.factorial(order)
    xs = np.empty((n + 1, 5))
    xs[0] = x0
    x = x0
    for i in range(n):
        x = step_op @ x
        xs[i + 1] = x
    return xs


def _mixture(model, good, inverted, charge):
    e, c = model.nuclear_init_error, model.charge_error
    return (1 - c) * (1 - e) * good + (1 - c) * e * inverted + c * charge


def _padded(kern, n):
    return np.pad(kern, (0, max(0, n - len(kern))))[:n]


def conv_axis(arr, kern, axis):
    out = np.zeros_like(arr)
    n = arr.shape[axis]
    for i, kv in enumerate(kern):
        if i >= n:
            break
        if axis == 0:
            out[i:, :] += kv * arr[:n - i, :]
        else:
            out[:, i:] += kv * arr[:, :n - i]
    return out


def ref_count_pmf(model, cycles, prepared, dual=False):
    lmax = _pmf_length(model, cycles)
    kb = _poisson_kernel(model.lambda_bright)
    kd = _poisson_kernel(model.lambda_dark)
    f_cycled, f_idle = model.flip_rates(dual)
    f_up, f_dn = f_cycled, (f_cycled if dual else f_idle)

    def trajectory(start_bright):
        pb = np.zeros(lmax)
        pd = np.zeros(lmax)
        (pb if start_bright else pd)[0] = 1.0
        for _ in range(cycles):
            pb, pd = ((1 - f_up) * pb + f_dn * pd,
                      (1 - f_dn) * pd + f_up * pb)
            pb = np.convolve(pb, kb)[:lmax]
            pd = np.convolve(pd, kd)[:lmax]
        return pb + pd

    up = prepared is Nuclear.UP
    charge = _padded(_poisson_kernel(model.lambda_dark * cycles), lmax)
    return _mixture(model, trajectory(up), trajectory(not up), charge)


def ref_head_tail_pmf(model, cycles, window, prepared):
    hmax = _pmf_length(model, window)
    tmax = _pmf_length(model, cycles - window) if cycles > window else 2
    kb = _poisson_kernel(model.lambda_bright)
    kd = _poisson_kernel(model.lambda_dark)
    f_up, f_dn = model.flip_bd, model.flip_db

    def trajectory(start_bright):
        jb = np.zeros((hmax, tmax))
        jd = np.zeros((hmax, tmax))
        (jb if start_bright else jd)[0, 0] = 1.0
        for cyc in range(cycles):
            jb, jd = ((1 - f_up) * jb + f_dn * jd,
                      (1 - f_dn) * jd + f_up * jb)
            axis = 0 if cyc < window else 1
            jb = conv_axis(jb, kb, axis)
            jd = conv_axis(jd, kd, axis)
        return jb + jd

    up = prepared is Nuclear.UP
    charge = np.outer(
        _padded(_poisson_kernel(model.lambda_dark * window), hmax),
        _padded(_poisson_kernel(model.lambda_dark * (cycles - window)), tmax))
    return _mixture(model, trajectory(up), trajectory(not up), charge)


def ref_dual_pmf(model, cycles, prepared):
    m1 = _pmf_length(model, cycles)
    kb = _poisson_kernel(model.lambda_bright)
    kd = _poisson_kernel(model.lambda_dark)
    f = model.flip_bd

    def trajectory(start_bright):
        jb = np.zeros((m1, m1))
        jd = np.zeros((m1, m1))
        (jb if start_bright else jd)[0, 0] = 1.0
        for _ in range(cycles):
            jb, jd = ((1 - f) * jb + f * jd, (1 - f) * jd + f * jb)
            jb = conv_axis(conv_axis(jb, kb, 0), kd, 1)
            jd = conv_axis(conv_axis(jd, kd, 0), kb, 1)
        return jb + jd

    up = prepared is Nuclear.UP
    kc = _padded(_poisson_kernel(model.lambda_dark * cycles), m1)
    return _mixture(model, trajectory(up), trajectory(not up),
                    np.outer(kc, kc))


# --- propagate ---------------------------------------------------------------

G32 = np.array([0.0, 1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("model, duration_us, step_us, x0", [
    (default_optical_model(), 1e-4, 1e-4, G32),               # n = 1
    (default_optical_model(), 0.0143, 1e-4, G32),             # n + 1 = 12^2
    (default_optical_model(), 0.0144, 1e-4, G32),             # n = 12^2
    (default_optical_model(), 1.5, 1e-4, G32),                # n + 1 = 15001
    (default_optical_model(), 0.0123, 1e-4, G32),             # ragged block
    (OpticalModel(decay_a1=0.0, decay_a2=0.0), 0.5, 1e-4, G32),   # no rates
    (OpticalModel(decay_a1=0.0), 0.05, 1e-4,
     np.array([0.0, 0.0, 0.0, 1.0, 0.0])),                    # pure decay
], ids=["n1", "square_rows", "square_n", "window", "ragged", "zero_rates",
        "pure_decay"])
def test_propagate_matches_sequential_rk4(model, duration_us, step_us, x0):
    curve = propagate(model, duration_us, step_us, start=x0)
    ref = ref_propagate(model, duration_us, step_us, x0)
    assert curve.populations.shape == ref.shape
    np.testing.assert_allclose(curve.populations, ref, rtol=0, atol=ATOL)
    np.testing.assert_array_equal(curve.times_us,
                                  np.arange(len(ref)) * step_us)


def test_propagate_still_rejects_coarse_step():
    with pytest.raises(StepSizeError):
        propagate(default_optical_model(), 5.0, step_us=0.05)


# --- pump fidelity at the target times ---------------------------------------

OPTICAL_GRID = [
    OpticalModel(pump_a1=p1, pump_a2=p2, isc_e12=isc, isc_e32=isc,
                 m_to_g12=m12, m_to_g32=m32)
    for p1, p2, isc, m12, m32 in itertools.product(
        (0.0, 45.0), (0.0, 30.0, 200.0), (0.0, 15.6, 200.0), (0.0, 31.4),
        (0.0, 8.0))
] + [default_optical_model()]

# on the 0.1 ns grid, off it, the first step, t = 0 and the horizon
TARGET_TIMES = (0.0, 1e-4, 0.25, 0.73456789, 1.0, 1.23449999, 1.5)


@pytest.mark.parametrize("model", OPTICAL_GRID)
def test_pump_fidelities_equal_the_propagated_curve(model):
    curve = propagate(model, 1.5)
    want = [curve.pump_fidelity(t) for t in TARGET_TIMES]
    got = _pump_fidelities(model, list(TARGET_TIMES), 1.5)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for t in TARGET_TIMES[1:]:                    # one target, own horizon
        one = _pump_fidelities(model, [t], t)
        assert one[0] == pytest.approx(
            propagate(model, t).pump_fidelity(t), rel=0, abs=1e-12)


def test_pump_fidelities_keep_the_step_check():
    # A h has a diagonal entry of -5, so S has negative entries and the
    # curve diverges; both the curve and the target-time path reject it
    model = OpticalModel(pump_a2=5e4)
    assert _step_operator(model, 1e-4).min() < 0
    for horizon in (0.01, 1.5):
        with pytest.raises(StepSizeError):
            propagate(model, horizon)
        with pytest.raises(StepSizeError):
            _pump_fidelities(model, [horizon], horizon)
    with pytest.raises(StepSizeError):
        fit_pump_rates(PumpTarget(1.5, 0.985),
                       base=OpticalModel(decay_a2=5e4))


# --- exact DPs ---------------------------------------------------------------

CAL = calibrated_shot_model()
MODELS = {
    "calibrated": CAL,
    "no_flips": ShotModel(**{**CAL.to_dict(), "flip_bd": 0.0, "flip_db": 0.0}),
    "always_flip": ShotModel(**{**CAL.to_dict(), "flip_bd": 1.0,
                                "flip_db": 1.0}),
}


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("cycles", [1, 250, 1000])
@pytest.mark.parametrize("dual", [False, True])
def test_count_pmf_matches_sequential(name, cycles, dual):
    """The single-read total, and the dual protocol's read-1 marginal of
    the occupancy law."""
    model = MODELS[name]
    for prepared in (Nuclear.UP, Nuclear.DOWN):
        if dual:
            got = exact_dual_pmf(model, cycles, prepared).sum(axis=1)
        else:
            got = exact_count_pmf(model, cycles, prepared)
        ref = ref_count_pmf(model, cycles, prepared, dual=dual)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=ATOL)


@pytest.mark.parametrize("call", [
    lambda: exact_count_pmf(CAL, 0, Nuclear.UP),
    lambda: exact_head_tail_pmf(CAL, 0, 0, Nuclear.UP),
    lambda: exact_dual_pmf(CAL, -3, Nuclear.DOWN),
], ids=["count", "head_tail", "dual"])
def test_no_cycles_rejected(call):
    with pytest.raises(AnalysisError, match="cycles must be >= 1"):
        call()


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("cycles, window", [
    (250, 1), (250, 120), (250, 250), (1, 1), (40, 40)])
def test_head_tail_pmf_matches_2d_dp(name, cycles, window):
    model = MODELS[name]
    for prepared in (Nuclear.UP, Nuclear.DOWN):
        got = exact_head_tail_pmf(model, cycles, window, prepared)
        ref = ref_head_tail_pmf(model, cycles, window, prepared)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=ATOL)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("cycles", [1, 10, 250])
def test_dual_pmf_matches_2d_dp(name, cycles):
    model = MODELS[name]
    for prepared in (Nuclear.UP, Nuclear.DOWN):
        got = exact_dual_pmf(model, cycles, prepared)
        ref = ref_dual_pmf(model, cycles, prepared)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=ATOL)


# --- numpy Poisson PMFs against scipy ----------------------------------------

def poisson_rtol(lam, n):
    """Both sides evaluate exp(k ln lam - ln k! - lam) in doubles, whose
    terms are rounded to about eps of their size: 1e-12 relative, or 1e-12
    per 1000 of the largest term once that exceeds 1000 (lam >~ 120)."""
    size = lam + (n - 1) * abs(math.log(lam)) if lam > 0 else 0.0
    return 1e-12 * max(1.0, size / 1000.0)


@pytest.mark.parametrize("lam", [0.0, *np.geomspace(1e-6, 1e3, 61)])
def test_poisson_kernel_matches_scipy(lam):
    kernel = _poisson_kernel(lam)
    if lam == 0:
        np.testing.assert_array_equal(kernel, [1.0])
        return
    kmax = max(2, int(poisson.isf(1e-14, lam)) + 1)
    assert len(kernel) == kmax + 1
    np.testing.assert_allclose(kernel, poisson.pmf(np.arange(kmax + 1), lam),
                               rtol=poisson_rtol(lam, kmax + 1), atol=1e-300)


@pytest.mark.parametrize("lam", [731.6807143427208, 1e3])
def test_poisson_rtol_is_scipys_own_rounding(lam):
    """Near lam = 1e3 scipy's PMF itself is about 2e-12 from a 50-digit
    evaluation, so the scaled tolerance is no looser than the reference."""
    k = np.arange(len(_poisson_kernel(lam)))
    with localcontext() as ctx:
        ctx.prec = 50
        big = Decimal(lam)
        log_fact = np.cumsum([Decimal(0)] + [Decimal(int(j)).ln()
                                             for j in k[1:]])
        exact = np.array([float((int(j) * big.ln() - big - f).exp())
                          for j, f in zip(k, log_fact)])
    rtol = poisson_rtol(lam, len(k))
    for pmf in (_poisson_kernel(lam), poisson.pmf(k, lam)):
        np.testing.assert_allclose(pmf, exact, rtol=rtol, atol=1e-300)


@pytest.mark.parametrize("name", sorted(MODELS) + ["dark_free"])
@pytest.mark.parametrize("cycles", [1, 250, 1000])
def test_dual_pmf_poisson_grid_matches_scipy(name, cycles):
    """The read means exact_dual_pmf mixes, one per bright-cycle count;
    without dark counts the all-dark mean is 0."""
    model = (ShotModel(**{**CAL.to_dict(), "lambda_dark": 0.0})
             if name == "dark_free" else MODELS[name])
    m = np.arange(cycles + 1)
    means = m * model.lambda_bright + (cycles - m) * model.lambda_dark
    n = _pmf_length(model, cycles)
    got = _poisson_pmf(means, n)
    assert got.shape == (cycles + 1, n)
    np.testing.assert_allclose(
        got, poisson.pmf(np.arange(n), means[:, None]),
        rtol=poisson_rtol(means.max(), n), atol=1e-300)
    if name == "dark_free":
        np.testing.assert_array_equal(got[0], np.eye(n)[0])
