"""Rate-equation model of the six-level optical cycle.

The level structure is collapsed to five populations: two ground doublets
(g12 for the +-1/2 pair, g32 for the +-3/2 pair), two excited doublets
(e12, e32) and one metastable pool (m).  The A1 line couples g12 <-> e12,
the A2 line g32 <-> e32.  Laser excitation is treated as an incoherent
pump rate; spontaneous decay returns each excited doublet to its own
ground doublet; intersystem crossing feeds the metastable pool, which
relaxes back into both ground doublets.  That shelving path is what pumps
the electron out of the driven manifold.

The intersystem-crossing and metastable rates are not independently
measured; :func:`fit_pump_rates` calibrates them against pumping
benchmarks and the shipped :func:`default_optical_model` is one such
calibrated solution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace, asdict

import numpy as np
from scipy.optimize import minimize

from .model import Electron, RegisterState, packaged_defaults

__all__ = [
    "LEVELS",
    "OpticalModel",
    "PumpCurve",
    "PumpTarget",
    "propagate",
    "fit_pump_rates",
    "calibrate_collection",
    "expected_cycle_photons",
    "default_optical_model",
    "StepSizeError",
    "PumpFitError",
]

LEVELS = ("g12", "g32", "e12", "e32", "m")

DEFAULT_STEP_US = 1e-4  # 0.1 ns; >= 60 steps per optical lifetime


class StepSizeError(ValueError):
    """Integration step too large for the model's fastest rate."""


class PumpFitError(RuntimeError):
    """Pump-rate calibration did not reach the requested constraints."""

    def __init__(self, message, best_residual=None, best_rates=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.best_rates = best_rates


@dataclass(frozen=True)
class OpticalModel:
    """Rates in 1/us (= MHz); populations are dimensionless and sum to 1."""

    pump_a1: float = 0.0
    pump_a2: float = 0.0
    decay_a1: float = 1e3 / 6.45     # from the 6.45 ns A1 lifetime
    decay_a2: float = 1e3 / 10.58    # from the 10.58 ns A2 lifetime
    isc_e12: float = 0.0
    isc_e32: float = 0.0
    m_to_g12: float = 0.0
    m_to_g32: float = 0.0
    collection_efficiency: float = 1.0

    def __post_init__(self):
        for name in ("pump_a1", "pump_a2", "decay_a1", "decay_a2",
                     "isc_e12", "isc_e32", "m_to_g12", "m_to_g32"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.collection_efficiency <= 1.0:
            raise ValueError("collection_efficiency must lie in [0, 1]")

    def rate_matrix(self) -> np.ndarray:
        """Generator A of dx/dt = A x over (g12, g32, e12, e32, m)."""
        a = np.zeros((5, 5))
        a[0, 0] -= self.pump_a1
        a[2, 0] += self.pump_a1
        a[1, 1] -= self.pump_a2
        a[3, 1] += self.pump_a2
        a[2, 2] -= self.decay_a1 + self.isc_e12
        a[0, 2] += self.decay_a1
        a[4, 2] += self.isc_e12
        a[3, 3] -= self.decay_a2 + self.isc_e32
        a[1, 3] += self.decay_a2
        a[4, 3] += self.isc_e32
        a[4, 4] -= self.m_to_g12 + self.m_to_g32
        a[0, 4] += self.m_to_g12
        a[1, 4] += self.m_to_g32
        return a

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PumpCurve:
    """Time-resolved populations and detected emission rate.

    ``pumped_level`` names the ground doublet the laser drives; the pumping
    fidelity is the population that has left it.
    """

    times_us: np.ndarray
    populations: np.ndarray        # shape (n_times, 5), column order LEVELS
    detected_rate: np.ndarray      # 1/us, already scaled by collection
    pumped_level: str = "g32"

    @property
    def target_population(self) -> np.ndarray:
        return 1.0 - self.populations[:, LEVELS.index(self.pumped_level)]

    def pump_fidelity(self, t_us: float) -> float:
        i = int(np.searchsorted(self.times_us, t_us - 1e-12))
        i = min(i, len(self.times_us) - 1)
        return float(self.target_population[i])

    def detected_photons(self) -> float:
        """Integral of the detected rate over the whole curve."""
        return float(np.trapezoid(self.detected_rate, self.times_us))

    def to_csv(self, path) -> None:
        header = "time_us,pop_g12,pop_g32,pop_e12,pop_e32,pop_m,detected_rate"
        data = np.column_stack([self.times_us, self.populations, self.detected_rate])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def _start_vector(start) -> np.ndarray:
    if isinstance(start, RegisterState):
        x0 = np.zeros(5)
        if start.electron in (Electron.PLUS_3_2, Electron.MINUS_3_2):
            x0[1] = 1.0
        elif start.electron is Electron.SHELVED:
            x0[4] = 1.0
        else:
            x0[0] = 1.0
        return x0
    x0 = np.asarray(start, dtype=float)
    if x0.shape != (5,):
        raise ValueError("start must be a RegisterState or a 5-vector")
    if (x0 < 0).any() or abs(x0.sum() - 1.0) > 1e-9:
        raise ValueError("start populations must be non-negative and sum to 1")
    return x0


def _step_count(duration_us: float, step_us: float) -> int:
    if step_us <= 0:
        raise ValueError("step must be positive")
    if duration_us < step_us:
        raise ValueError("duration must be at least one step")
    return int(round(duration_us / step_us))


def _step_operator(model: OpticalModel, step_us: float) -> np.ndarray:
    """S, one classical RK4 step of dx/dt = A x: for this linear system the
    4th-order Taylor polynomial of exp(A h)."""
    a = model.rate_matrix()
    step_op = np.eye(5)
    power = np.eye(5)
    for order in (1, 2, 3, 4):
        power = power @ (a * step_us)
        step_op = step_op + power / math.factorial(order)
    return step_op


def _pumped_level(model: OpticalModel) -> str:
    return "g12" if model.pump_a1 > model.pump_a2 else "g32"


_DEFAULT_START = np.array([0.0, 1.0, 0.0, 0.0, 0.0])


def propagate(model: OpticalModel, duration_us: float,
              step_us: float = DEFAULT_STEP_US,
              start=None) -> PumpCurve:
    """Integrate the rate equations with fixed-step classical RK4.

    For this linear system one RK4 step equals multiplication by the
    4th-order Taylor polynomial S of exp(A h), which is precomputed once;
    :func:`fit_pump_rates` shares S through ``_step_operator``.  The n
    steps are applied as blocked powers rather than one by one: with a
    block of B ~ sqrt(n) steps, S^0..S^(B-1) and the block starts
    (S^B)^k x0 take about 2 sqrt(n) small products, and one einsum fills
    every row x_(kB+j) = S^j (S^B)^k x0 of the time grid.  Populations
    are checked to stay inside [0, 1] to 1e-6; a violation means the step
    does not resolve the fastest rate.  The curve's ``pumped_level``, read
    by its pump fidelity, is the doublet the stronger pump drains.

    Args:
        duration_us: total integration time, >= step.
        step_us: fixed step, > 0.
        start: initial populations (5-vector over LEVELS) or a
            RegisterState; defaults to everything in g32.

    Raises:
        StepSizeError: if the integration leaves [0, 1] by more than 1e-6,
            or diverges.
    """
    n = _step_count(duration_us, step_us)
    x0 = _start_vector(start if start is not None else _DEFAULT_START)
    step_op = _step_operator(model, step_us)

    block = max(1, math.isqrt(n + 1))
    powers = np.empty((block, 5, 5))          # S^0 .. S^(block-1)
    powers[0] = np.eye(5)
    for j in range(1, block):
        powers[j] = step_op @ powers[j - 1]
    jump = step_op @ powers[-1]               # S^block
    starts = np.empty((-(-(n + 1) // block), 5))
    starts[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        for k in range(1, len(starts)):
            starts[k] = jump @ starts[k - 1]
        xs = np.einsum("jab,kb->kja", powers, starts).reshape(-1, 5)[:n + 1]
    # written so that a diverged (NaN) population fails the check too
    if not (xs.min() >= -1e-6 and xs.max() <= 1.0 + 1e-6):
        raise StepSizeError(
            f"populations left [0, 1] with step {step_us} us; "
            f"use a smaller step (fastest rate "
            f"{np.abs(np.diag(model.rate_matrix())).max():.1f}/us)")

    times = np.arange(n + 1) * step_us
    rate = model.collection_efficiency * (
        model.decay_a2 * xs[:, 3] + model.decay_a1 * xs[:, 2])
    return PumpCurve(times_us=times, populations=xs, detected_rate=rate,
                     pumped_level=_pumped_level(model))


def _pump_fidelities(model: OpticalModel, times_us: list[float],
                     horizon_us: float) -> list[float]:
    """``propagate(model, horizon_us).pump_fidelity(t)`` for each t, from
    S^i x0 at each target's grid row i alone.

    Each column of S sums to 1 because each column of A sums to 0.  When S
    is also entrywise non-negative it maps populations to populations, so
    every row of the curve stays inside [0, 1] and propagate's step check
    cannot fire.  Otherwise the full curve is built, and checked.
    """
    n = _step_count(horizon_us, DEFAULT_STEP_US)
    step_op = _step_operator(model, DEFAULT_STEP_US)
    if step_op.min() < 0:
        curve = propagate(model, horizon_us)
        return [curve.pump_fidelity(t) for t in times_us]
    grid = np.arange(n + 1) * DEFAULT_STEP_US
    level = LEVELS.index(_pumped_level(model))
    out = []
    for t in times_us:
        i = min(int(np.searchsorted(grid, t - 1e-12)), n)
        x = np.linalg.matrix_power(step_op, i) @ _DEFAULT_START
        out.append(float(1.0 - x[level]))
    return out


@dataclass(frozen=True)
class PumpTarget:
    """Constraint: pumping fidelity >= min_fidelity at time_us."""

    time_us: float
    min_fidelity: float


def fit_pump_rates(targets: list[PumpTarget] | PumpTarget,
                   base: OpticalModel | None = None,
                   rate_bound: float = 200.0,
                   max_iter: int = 400) -> OpticalModel:
    """Calibrate (pump_a2, isc, metastable) rates against pumping targets.

    Minimizes the summed squared constraint violation with Nelder-Mead from
    a fixed starting simplex, so the result is deterministic.  Both ISC
    rates are tied together and the A1 pump is left off: only the A2-driven
    cycle is constrained by the targets.

    The objective reads the curve of :func:`propagate` only at the target
    times, so it computes just those rows, as powers S^i x0 of propagate's
    step operator S, and never builds the whole curve.  The values equal
    ``propagate(model, horizon).pump_fidelity(t)``, and its step check is
    kept: when S has no negative entry the check cannot fire (every row is
    a probability vector), and otherwise the full curve is built and
    checked, raising StepSizeError as before.

    Raises:
        StepSizeError: if a trial model is too fast for the default step.
        PumpFitError: if the violation cannot be driven to zero within
            ``max_iter`` iterations; carries the best residual seen.
    """
    targets = [targets] if isinstance(targets, PumpTarget) else list(targets)
    if not targets:
        raise ValueError("need at least one target")
    for t in targets:
        if t.min_fidelity >= 1.0:
            raise ValueError("pump fidelity target must be < 1")
    base = base or OpticalModel()
    times = [t.time_us for t in targets]
    horizon = max(times)

    def build(x):
        pump_a2, isc, m_g12, m_g32 = np.clip(x, 0.0, rate_bound)
        return replace(base, pump_a1=0.0, pump_a2=pump_a2,
                       isc_e12=isc, isc_e32=isc,
                       m_to_g12=m_g12, m_to_g32=m_g32)

    def violation(x):
        reached = _pump_fidelities(build(x), times, horizon)
        return sum(max(0.0, t.min_fidelity - f) ** 2
                   for t, f in zip(targets, reached))

    x0 = np.array([10.0, 5.0, 30.0, 10.0])
    res = minimize(violation, x0, method="Nelder-Mead",
                   options=dict(xatol=1e-3, fatol=1e-16, maxiter=max_iter))
    if res.fun > 1e-12:
        raise PumpFitError(
            f"no rate assignment met the pumping targets within {max_iter} "
            f"iterations (best residual {res.fun:.3e})",
            best_residual=float(res.fun), best_rates=np.clip(res.x, 0, rate_bound))
    return build(res.x)


def expected_cycle_photons(model: OpticalModel, laser_window_us: float,
                           start_state: RegisterState | None = None) -> float:
    """Expected detected photons in one laser window from a given start.

    This is the integral of the detected emission rate over the window and
    is linear in the collection efficiency; it calibrates the effective
    per-cycle bright rate of the trajectory model.
    """
    if laser_window_us <= 0:
        raise ValueError("laser window must be positive")
    curve = propagate(model, laser_window_us,
                      start=start_state or RegisterState())
    return curve.detected_photons()


def calibrate_collection(model: OpticalModel, target_photons: float,
                         laser_window_us: float) -> OpticalModel:
    """Set the collection efficiency so one bright window yields
    ``target_photons`` detected photons on average."""
    unit = expected_cycle_photons(replace(model, collection_efficiency=1.0),
                                  laser_window_us)
    if unit <= 0:
        raise PumpFitError("model emits no photons; cannot calibrate collection")
    eff = target_photons / unit
    if not 0.0 <= eff <= 1.0:
        raise PumpFitError(
            f"required collection efficiency {eff:.3g} is outside [0, 1]")
    return replace(model, collection_efficiency=eff)


def default_optical_model() -> OpticalModel:
    """The shipped calibrated optical model (the ``optical`` section of
    data/defaults.json, from fit_pump_rates + calibrate_collection)."""
    return OpticalModel(**packaged_defaults()["optical"])
