"""Count statistics, classification, post-selection and parameter fitting.

Two exact laws, each a dynamic program over (cycle, nuclear state) with
Poisson emissions per read window, give the count distributions of the
effective shot model.  The single read is the head/tail law
``exact_head_tail_pmf``: the photons in and after the post-selection
window, whose anti-diagonal sums are the read total and whose full-window
case (an empty tail) is ``exact_count_pmf``.  The dual read is the
occupancy law ``exact_dual_pmf``: the number of bright cycles, given which
the two read totals are independent Poisson variables.  The laws are the
oracle the Monte Carlo engine is validated against, and drive the exact
reports, threshold optimization, model fitting and scenarios.

Every readout rule is applied to outcome tables: one array per prepared
state over the outcomes the rule reads, the total (raw), the photons in
and after the head window (conditional) or the two read totals
(dual_step).  A sampled table holds shot counts, built by one
``np.bincount`` (a report merges the counts above cutoff + 1, which every
rule scores alike); an exact one holds probabilities.  ``_score`` is the
only place that compares a count with the cutoff or decides which shots a
mode keeps, and ``_rates`` turns its weights into misread rates,
fidelity and efficiency, so the sampled and the exact fidelity reports,
the shot-model fit and ``scenario`` cannot drift apart;
``optimize_threshold`` scans the same raw rule in cumulative form, and
``separating_threshold`` refuses its cutoff when no cutoff beats chance.
The histograms share the table builder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict, replace

import numpy as np
from scipy.optimize import least_squares, minimize_scalar
from scipy.stats import chi2

from .model import Nuclear
from .protocol import ProtocolSpec, build_standard_readout
from .trajectory import (BatchResult, ShotModel, DEFAULT_CONDITIONAL_WINDOW,
                         _LAMBDA_MAX)

__all__ = [
    "CountHistogram",
    "JointHistogram",
    "ClassifierConfig",
    "FidelityReport",
    "FitTargets",
    "FlipFitResult",
    "ScenarioReport",
    "AnalysisError",
    "wilson_interval",
    "exact_count_pmf",
    "exact_head_tail_pmf",
    "exact_dual_pmf",
    "fidelity_report",
    "exact_fidelity_report",
    "fit_flip_rate",
    "fit_shot_model",
    "optimize_threshold",
    "separating_threshold",
    "scenario",
    "estimate_peak_separation",
    "REFERENCE_TARGETS",
]


class AnalysisError(ValueError):
    pass


# --- small statistics helpers ------------------------------------------------

def wilson_interval(successes: int, total: int, z: float = 1.0) -> tuple[float, float]:
    """Wilson score interval; z = 1 gives the one-sigma-style 68 % band."""
    if total <= 0:
        raise AnalysisError("Wilson interval needs at least one trial")
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total))
    return max(0.0, center - half), min(1.0, center + half)


_LOG_FACTORIAL = np.zeros(0)


def _log_factorial(n: int) -> np.ndarray:
    """ln k! for k = 0..n-1, from a table that grows by doubling."""
    global _LOG_FACTORIAL
    if len(_LOG_FACTORIAL) < n:
        size = max(n, 2 * len(_LOG_FACTORIAL))
        _LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(size)])
    return _LOG_FACTORIAL[:n]


def _poisson_pmf(mean, n: int) -> np.ndarray:
    """Poisson probabilities of 0..n-1 along a new last axis, one row per
    mean, as exp(k ln mean - ln k! - mean); a mean of 0 puts all mass on 0."""
    mean = np.asarray(mean, dtype=float)[..., None]
    k = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_log_mean = np.where(k > 0, k * np.log(mean), 0.0)
    return np.exp(k_log_mean - _log_factorial(n) - mean)


def _poisson_kernel(lam: float, tail: float = 1e-14) -> np.ndarray:
    """Poisson(lam) probabilities of 0..kmax, with kmax one past the first
    k whose CDF, 1 - P(X > k) in doubles, reaches 1 - tail (at least 2)."""
    if lam <= 0:
        return np.array([1.0])
    # the mass beyond lam + 15 sqrt(lam) + 40 is far below tail * 1e-16
    pmf = _poisson_pmf(lam, int(lam + 15 * math.sqrt(lam)) + 40)
    beyond = np.cumsum(pmf[:0:-1])[::-1]          # P(X > k), k = 0..n-2
    kmax = max(2, int(np.argmax(1.0 - beyond >= 1.0 - tail)) + 1)
    return pmf[:kmax + 1]


def _pmf_length(model: ShotModel, cycles: int) -> int:
    lam = max(model.lambda_bright, model.lambda_dark)
    m = lam * cycles
    return int(m + 10 * math.sqrt(m + 1) + 25)


# --- outcome tables --------------------------------------------------------------

def _tables(up: tuple, dn: tuple,
            top: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Shot counts over the joint values of one or two count columns, for
    the up- and the down-prepared batch on one common shape.  Values above
    ``top`` share its bin."""
    if top is not None:
        up, dn = (tuple(np.minimum(c, top) for c in cols) for cols in (up, dn))
    shape = tuple(int(max(a.max(initial=0), b.max(initial=0))) + 1
                  for a, b in zip(up, dn))

    def table(columns):
        flat = np.ravel_multi_index(columns, shape)
        return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)

    return table(up), table(dn)


@dataclass
class CountHistogram:
    """Total-photon histograms per prepared state."""

    bins: np.ndarray                  # bin k counts shots with total == k
    counts_up: np.ndarray
    counts_dn: np.ndarray
    shots_up: int
    shots_dn: int

    @classmethod
    def from_batches(cls, batch_up: BatchResult, batch_dn: BatchResult,
                     read: int = 1) -> "CountHistogram":
        up, dn = ((b.column("total", read),) for b in (batch_up, batch_dn))
        counts_up, counts_dn = _tables(up, dn)
        return cls(np.arange(len(counts_up)), counts_up, counts_dn,
                   batch_up.n_shots, batch_dn.n_shots)

    def __post_init__(self):
        if self.counts_up.sum() != self.shots_up or self.counts_dn.sum() != self.shots_dn:
            raise AnalysisError("histogram bins must sum to the shot counts")

    def to_csv(self, path) -> None:
        data = np.column_stack([self.bins, self.counts_up, self.counts_dn])
        np.savetxt(path, data, fmt="%d", delimiter=",",
                   header="bin,count_up_prepared,count_dn_prepared", comments="")


@dataclass
class JointHistogram:
    """2-D histogram over (total_read1, total_read2) per prepared state."""

    counts_up: np.ndarray
    counts_dn: np.ndarray
    shots_up: int
    shots_dn: int

    @classmethod
    def from_batches(cls, batch_up: BatchResult, batch_dn: BatchResult) -> "JointHistogram":
        if batch_up.total2 is None or batch_dn.total2 is None:
            raise AnalysisError("joint histogram needs dual-read batches")
        return cls(*_tables((batch_up.total1, batch_up.total2),
                            (batch_dn.total1, batch_dn.total2)),
                   batch_up.n_shots, batch_dn.n_shots)

    def to_csv(self, path) -> None:
        """One row per cell that holds a shot of either preparation, in
        row-major order."""
        i, j = np.nonzero(self.counts_up | self.counts_dn)
        rows = np.column_stack([i, j, self.counts_up[i, j],
                                self.counts_dn[i, j]]).astype(np.int64)
        np.savetxt(path, rows, fmt="%d", delimiter=",",
                   header="total_read1,total_read2,count_up_prepared,count_dn_prepared",
                   comments="")


# --- classification ------------------------------------------------------------

@dataclass(frozen=True)
class ClassifierConfig:
    """Cutoff and post-selection settings.

    ``cutoff`` N classifies a shot bright iff its total exceeds N (so the
    default N = 1 means two or more photons).  ``window`` is the
    first-K-cycles rule of the conditional mode.  The dual rule assigns
    bright iff read1 > cutoff and read2 <= cutoff, and the mirror image
    for dark; everything else is inconclusive and discarded.
    """

    cutoff: int = 1
    window: int = DEFAULT_CONDITIONAL_WINDOW

    def __post_init__(self):
        if self.cutoff < 0:
            raise AnalysisError("cutoff must be >= 0")
        if self.window < 1:
            raise AnalysisError("window must be >= 1")

    def scaled_window(self, cycles: int) -> int:
        """Window rescaled proportionally below the 250-cycle reference."""
        if cycles >= 250:
            return min(self.window, cycles)
        return max(1, round(cycles * self.window / 250))


# --- exact distributions (oracle) ----------------------------------------------

def _check_effective(model: ShotModel, cycles: int):
    if model.mode != "effective":
        raise AnalysisError("exact distributions support only effective-mode models")
    if cycles < 1:
        raise AnalysisError(f"cycles must be >= 1, got {cycles!r}")


def _pad(poly: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of a count polynomial, zero-padded."""
    out = np.zeros(n)
    out[:min(n, len(poly))] = poly[:n]
    return out


def _cycle_power(kb: np.ndarray, kd: np.ndarray, f_up: float, f_dn: float,
                 cycles: int, lmax: int) -> list:
    """Count polynomials of ``cycles`` readout cycles by repeated squaring.

    Entry [to][from] (state 0 bright, 1 dark) of the one-cycle operator is
    "flip or stay, then the new state's count kernel", so its n-th power
    is the forward recursion of the two-state hidden Markov model over n
    cycles.  Every product is truncated at ``lmax`` coefficients, which
    leaves those coefficients exact because counts never decrease.
    """
    def mul(x, y):
        out = [[None, None], [None, None]]
        for i in (0, 1):
            for j in (0, 1):
                a = np.convolve(x[i][0], y[0][j])[:lmax]
                b = np.convolve(x[i][1], y[1][j])[:lmax]
                if len(a) < len(b):
                    a, b = b, a
                a[:len(b)] += b
                out[i][j] = a
        return out

    step = [[(1 - f_up) * kb[:lmax], f_dn * kb[:lmax]],
            [f_up * kd[:lmax], (1 - f_dn) * kd[:lmax]]]
    power = [[np.ones(1), np.zeros(1)], [np.zeros(1), np.ones(1)]]
    while cycles:
        if cycles & 1:
            power = mul(step, power)
        cycles >>= 1
        if cycles:
            step = mul(step, step)
    return power


def _from_state(power: list, start: int, n: int) -> np.ndarray:
    """PMF of the counts from ``start``, summed over the final state."""
    return _pad(power[0][start], n) + _pad(power[1][start], n)


def _mix(model: ShotModel, good: np.ndarray, inverted: np.ndarray,
         charge: np.ndarray) -> np.ndarray:
    """Mix the trajectories from the prepared and the inverted nuclear
    state with the charge-failed one, checking the support held the mass."""
    e, c = model.nuclear_init_error, model.charge_error
    pmf = (1 - c) * (1 - e) * good + (1 - c) * e * inverted + c * charge
    if abs(pmf.sum() - 1.0) > 1e-9:
        raise AnalysisError(f"PMF lost mass ({pmf.sum():.12f}); "
                            "increase the support length")
    return pmf


def exact_count_pmf(model: ShotModel, cycles: int,
                    prepared: Nuclear) -> np.ndarray:
    """Exact PMF of the read total for the single-read protocol.

    This is the single-read (head/tail) law of ``exact_head_tail_pmf`` at
    the full window: its tail is empty, so the total is the head, column 0
    of that table.  The dual read has its own (occupancy) law in
    ``exact_dual_pmf``.  The raw exact report and the CLI's threshold
    scan read this PMF; the shot-model fit and ``scenario`` read their
    totals from the head/tail tables they score anyway.
    """
    return exact_head_tail_pmf(model, cycles, cycles, prepared)[:, 0]


def exact_head_tail_pmf(model: ShotModel, cycles: int, window: int,
                        prepared: Nuclear) -> np.ndarray:
    """Joint PMF over (photons in cycles 1..window, photons after): the
    single-read law.

    The tail depends on the head only through the nuclear state at the
    window boundary, so the joint PMF is the sum over that state of the
    outer product of head and tail count PMFs, each a ``_cycle_power``.
    The exact reports, the shot-model fit and ``scenario`` score it or its
    anti-diagonal sums (``_total_pmf``).
    """
    _check_effective(model, cycles)
    if not 1 <= window <= cycles:
        raise AnalysisError("window must lie in [1, cycles]")
    hmax = _pmf_length(model, window)
    tmax = _pmf_length(model, cycles - window) if cycles > window else 2
    kb = _poisson_kernel(model.lambda_bright)
    kd = _poisson_kernel(model.lambda_dark)
    flips = model.flip_rates(dual=False)
    head = _cycle_power(kb, kd, *flips, window, hmax)
    tail = _cycle_power(kb, kd, *flips, cycles - window, tmax)
    tail_from = [_from_state(tail, s, tmax) for s in (0, 1)]

    def trajectory(start: int) -> np.ndarray:
        return sum(np.outer(_pad(head[s][start], hmax), tail_from[s])
                   for s in (0, 1))

    start = 0 if prepared is Nuclear.UP else 1
    return _mix(model, trajectory(start), trajectory(1 - start), np.outer(
        _pad(_poisson_kernel(model.lambda_dark * window), hmax),
        _pad(_poisson_kernel(model.lambda_dark * (cycles - window)), tmax)))


def exact_dual_pmf(model: ShotModel, cycles: int, prepared: Nuclear) -> np.ndarray:
    """Joint PMF over (total_read1, total_read2) for the dual protocol.

    Given the number m of cycles the nucleus spends bright, the two read
    totals are independent Poisson variables with means
    m * lambda_bright + (cycles - m) * lambda_dark and the mirror image, so
    the joint PMF is a mixture of outer products over m.  The PMF of m is
    the cycle power with indicator kernels (one per bright cycle, none per
    dark one) and the dual protocol's flip rates.
    """
    _check_effective(model, cycles)
    m1 = _pmf_length(model, cycles)
    occupancy = _cycle_power(np.array([0.0, 1.0]), np.array([1.0]),
                             *model.flip_rates(dual=True), cycles, cycles + 1)
    m = np.arange(cycles + 1)
    lb, ld = model.lambda_bright, model.lambda_dark
    read1 = _poisson_pmf(m * lb + (cycles - m) * ld, m1)
    read2 = _poisson_pmf(m * ld + (cycles - m) * lb, m1)

    def trajectory(start: int) -> np.ndarray:
        weights = _from_state(occupancy, start, cycles + 1)
        return np.einsum("mi,mj->ij", weights[:, None] * read1, read2)

    start = 0 if prepared is Nuclear.UP else 1
    kc = _pad(_poisson_kernel(model.lambda_dark * cycles), m1)
    return _mix(model, trajectory(start), trajectory(1 - start),
                np.outer(kc, kc))


# --- fidelity reports -----------------------------------------------------------

@dataclass
class FidelityReport:
    """Misread rates, average fidelity and efficiency of one analysis mode.

    ``misread_bright_as_dark`` is the probability that an up-prepared shot
    reads down, conventionally printed as p(up|dn); the mirror rate is
    printed as p(dn|up).  Intervals are Wilson 68 % bands.
    """

    mode: str
    misread_bright_as_dark: float
    misread_dark_as_bright: float
    average_fidelity: float
    success_efficiency: float
    shots_used: int
    shots_discarded: int
    ci_bright_as_dark: tuple[float, float] = (0.0, 1.0)
    ci_dark_as_bright: tuple[float, float] = (0.0, 1.0)
    config: ClassifierConfig = field(default_factory=ClassifierConfig)
    per_preparation: dict = field(default_factory=dict)

    @property
    def p_up_given_dn(self) -> float:
        return self.misread_bright_as_dark

    @property
    def p_dn_given_up(self) -> float:
        return self.misread_dark_as_bright

    def __post_init__(self):
        for r in (self.misread_bright_as_dark, self.misread_dark_as_bright,
                  self.average_fidelity, self.success_efficiency):
            if not -1e-12 <= r <= 1 + 1e-12:
                raise AnalysisError("rates must lie in [0, 1]")
        expected = 1 - (self.misread_bright_as_dark
                        + self.misread_dark_as_bright) / 2
        if abs(expected - self.average_fidelity) > 1e-9:
            raise AnalysisError("fidelity must equal 1 - mean misread rate")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["p_up_given_dn"] = self.p_up_given_dn
        d["p_dn_given_up"] = self.p_dn_given_up
        return d


def _check_mode(mode: str) -> None:
    if mode not in ("raw", "conditional", "dual_step"):
        raise AnalysisError(f"unknown analysis mode {mode!r}")


def _score(mode: str, table_up: np.ndarray, table_dn: np.ndarray, cut: int,
           trials: tuple) -> tuple[tuple, tuple]:
    """Kept and misread weight of each preparation under one readout rule.

    The two tables share one shape and hold shot counts or probabilities
    over the total (raw), over (head, tail) (conditional) or over
    (total1, total2) (dual_step); ``trials`` is each table's whole weight.
    A count above ``cut`` reads bright.  raw keeps every trial.
    conditional keeps an up-prepared trial iff its head saw a photon and a
    down-prepared one iff its head saw none, then reads the total.
    dual_step keeps a trial iff exactly one read is bright and reads read 1.
    Returns ((kept_up, misread_up), (kept_dn, misread_dn)) as Python
    numbers: ints for count tables, floats for probability tables.
    """
    grid = np.indices(table_up.shape)
    if mode == "raw":
        keep_up = keep_dn = None
        bright = grid[0] > cut
    elif mode == "conditional":
        keep_up, keep_dn = grid[0] >= 1, grid[0] == 0
        bright = grid[0] + grid[1] > cut
    else:
        bright, bright2 = grid > cut
        keep_up = keep_dn = bright != bright2

    def weigh(table, keep, wrong, n):
        if keep is None:
            return n, table[wrong].sum().item()
        return table[keep].sum().item(), table[keep & wrong].sum().item()

    return (weigh(table_up, keep_up, ~bright, trials[0]),
            weigh(table_dn, keep_dn, bright, trials[1]))


def _rates(scored: tuple, trials: tuple = (1.0, 1.0)) -> dict:
    """Misread rates, average fidelity and success efficiency from
    ``_score``'s kept and misread weights of tables that weigh ``trials``."""
    (kept_up, err_up), (kept_dn, err_dn) = scored
    r_up, r_dn = err_up / kept_up, err_dn / kept_dn
    return dict(misread_bright_as_dark=r_up, misread_dark_as_bright=r_dn,
                average_fidelity=1 - (r_up + r_dn) / 2,
                success_efficiency=(kept_up + kept_dn) / sum(trials))


def _total_pmf(table: np.ndarray) -> np.ndarray:
    """PMF of head + tail: the anti-diagonal sums of a head/tail table."""
    head, tail = np.indices(table.shape)
    return np.bincount((head + tail).ravel(), weights=table.ravel())


def fidelity_report(batch_up: BatchResult, batch_dn: BatchResult,
                    config: ClassifierConfig = ClassifierConfig(),
                    mode: str = "raw") -> FidelityReport:
    """Classify two prepared batches and report misread rates.

    raw: every shot is classified by the cutoff.
    conditional: up-prepared shots are kept iff they saw at least one
        photon in the first `window` cycles, down-prepared shots iff they
        saw none there; kept shots are then classified.
    dual_step: the two-read rule; shots outside the bright/dark signature
        subspace are discarded and the kept fraction is the success
        efficiency, reported per preparation as well.

    The batches must be up- and down-prepared runs of one protocol (and,
    for conditional, share a head window); a mismatch raises
    AnalysisError.
    """
    if batch_up.n_shots < 1 or batch_dn.n_shots < 1:
        raise AnalysisError("batches must be non-empty")
    if (batch_up.prepared is not Nuclear.UP
            or batch_dn.prepared is not Nuclear.DOWN):
        raise AnalysisError(
            f"expected up- and down-prepared batches, got "
            f"{batch_up.prepared.value} and {batch_dn.prepared.value}")
    fields = ["cycles", "reads_per_cycle", "protocol_fingerprint"]
    if mode == "conditional":
        fields.append("head_window")
    for name in fields:
        a, b = getattr(batch_up, name), getattr(batch_dn, name)
        if a != b:
            raise AnalysisError(f"batches differ in {name}: {a!r} (up) vs "
                                f"{b!r} (down)")
    _check_mode(mode)
    n_up, n_dn = batch_up.n_shots, batch_dn.n_shots
    # every rule compares a count only with 0 and the cutoff, so counts
    # above cutoff + 1 score alike and the tables need not grow with them
    top = config.cutoff + 1

    if mode == "raw":
        tables = _tables((batch_up.total1,), (batch_dn.total1,), top)
    elif mode == "conditional":
        window = min(config.window, batch_up.cycles)
        if window != batch_up.head_window:
            if batch_up.counts1 is None or batch_dn.counts1 is None:
                raise AnalysisError(
                    f"batches recorded head counts for a {batch_up.head_window}-"
                    f"cycle window; re-simulate or keep cycles to analyze "
                    f"window {window}")
            head_up = batch_up.counts1[:, :window].sum(axis=1)
            head_dn = batch_dn.counts1[:, :window].sum(axis=1)
        else:
            head_up, head_dn = batch_up.head1, batch_dn.head1
        tables = _tables((head_up, batch_up.total1 - head_up),
                         (head_dn, batch_dn.total1 - head_dn), top)
    else:
        if batch_up.total2 is None or batch_dn.total2 is None:
            raise AnalysisError("dual_step analysis needs dual-read batches")
        tables = _tables((batch_up.total1, batch_up.total2),
                         (batch_dn.total1, batch_dn.total2), top)

    scored = _score(mode, *tables, config.cutoff, (n_up, n_dn))
    (kept_up, err_up), (kept_dn, err_dn) = scored
    if kept_up == 0 or kept_dn == 0:
        raise AnalysisError("post-selection kept 0 shots")
    per_prep = {}
    if mode == "dual_step":
        per_prep = {
            "up": dict(success_efficiency=kept_up / n_up,
                       fidelity=(kept_up - err_up) / kept_up),
            "down": dict(success_efficiency=kept_dn / n_dn,
                         fidelity=(kept_dn - err_dn) / kept_dn),
        }
    used = kept_up + kept_dn
    return FidelityReport(
        mode=mode, **_rates(scored, (n_up, n_dn)), shots_used=used,
        shots_discarded=n_up + n_dn - used,
        ci_bright_as_dark=wilson_interval(err_up, kept_up),
        ci_dark_as_bright=wilson_interval(err_dn, kept_dn),
        config=config, per_preparation=per_prep)


def exact_fidelity_report(model: ShotModel, cycles: int,
                          config: ClassifierConfig = ClassifierConfig(),
                          mode: str = "raw") -> dict:
    """Noise-free analogue of fidelity_report from the exact distributions."""
    _check_mode(mode)
    preps = (Nuclear.UP, Nuclear.DOWN)
    if mode == "raw":
        tables = [exact_count_pmf(model, cycles, p) for p in preps]
    elif mode == "conditional":
        window = min(config.window, cycles)
        tables = [exact_head_tail_pmf(model, cycles, window, p) for p in preps]
    else:
        tables = [exact_dual_pmf(model, cycles, p) for p in preps]
    scored = _score(mode, *tables, config.cutoff, (1.0, 1.0))
    report = dict(mode=mode, **_rates(scored))
    if mode == "dual_step":
        report["per_preparation"] = {"up": scored[0][0], "down": scored[1][0]}
    return report


# --- flip-rate fitting -----------------------------------------------------------

@dataclass
class FlipFitResult:
    flip_rate: float
    amplitude: float
    baseline: float
    ci68: tuple[float, float]
    log_likelihood: float
    pinned_at_zero: bool = False


def fit_flip_rate(detections: np.ndarray, n_shots: int) -> FlipFitResult:
    """Maximum-likelihood fit of p_k = a (1-f)^(k-1) + b to a detection curve.

    ``detections[k]`` counts shots with >= 1 photon in cycle k+1 out of
    ``n_shots``.  The rate is located by a deterministic profile scan: for
    each candidate f the amplitude and baseline take their conditional ML
    values under the bounds a > 0 and b >= 0, and the binomial
    log-likelihood is evaluated exactly; the best grid point is refined
    parabolically.  The conditional ML comes from iteratively reweighted
    least squares (an identity-link binomial GLM).  When a step would
    leave the bounds, one parameter is pinned on its bound and the other
    is re-solved in closed form, so the profile is the constrained one on
    both sides of an optimum that sits at b = 0.

    The CI is the 68 % profile-likelihood interval.  It treats cycles as
    independent, which holds for curve-level (binomial) noise: coverage
    0.68 over 1000 curves of 1000 cycles x 500k shots.  For trajectory
    batches, where one shot's flip time correlates its cycles, it is
    noticeably optimistic: coverage 0.58 for the same record.  On
    500-cycle records at 1e6 shots it over-covers instead (0.87 binomial,
    0.82 trajectory), because b sits on its bound 0 in 42-45 % of the
    fits, where the chi2(1) cut is not calibrated.  b and f are
    confounded when (1-f)^cycles is near 1: a record in which little of
    the bright population decays cannot tell a slower decay from a higher
    baseline (|corr(b, f)| = 0.999 over 500 cycles at f = 7.7e-4), so
    shot-cycles buy more precision as cycles than as shots.  A curve with
    no significant decaying component pins f at 0 and flags the result.

    The fitted f is the relaxation rate of the bright occupancy; when the
    idle state can flip back (flip_db > 0) that rate is the sum of the two
    flip rates, not flip_bd alone.
    """
    d = np.asarray(detections, dtype=float)
    if d.ndim != 1 or len(d) < 50:
        raise AnalysisError("need a detection curve with at least 50 cycles")
    if n_shots < 1 or d.max() > n_shots:
        raise AnalysisError("invalid shot count for the detection curve")
    k = np.arange(1, len(d) + 1, dtype=float)
    eps = 1e-12
    p_hat = np.clip(d / n_shots, 1e-9, 1 - 1e-9)

    def nll_at(a, b, fv):
        p = np.clip(a * (1 - fv) ** (k - 1) + b, eps, 1 - eps)
        return -(d * np.log(p) + (n_shots - d) * np.log1p(-p)).sum()

    def ml_ab(fv):
        # conditional ML for (a, b) given f: identity-link binomial GLM,
        # solved by iteratively reweighted least squares (weights come
        # from the model, not the noisy observations)
        x = (1 - fv) ** (k - 1)
        a, b = max(p_hat[0] - p_hat[-1], 1e-9), max(p_hat[-1], 0.0)
        for _ in range(8):
            p = np.clip(a * x + b, 1e-9, 1 - 1e-9)
            w = 1.0 / (p * (1 - p))
            sxx = (w * x * x).sum()
            sx1 = (w * x).sum()
            s11 = w.sum()
            sxy = (w * x * p_hat).sum()
            s1y = (w * p_hat).sum()
            det = sxx * s11 - sx1 * sx1
            if det <= 0:
                return max(p_hat.mean(), eps), 0.0
            a_new = (s11 * sxy - sx1 * s1y) / det
            b_new = (sxx * s1y - sx1 * sxy) / det
            if a_new < eps or b_new < 0:
                # a bound is active, so the constrained optimum lies on an
                # edge: pin one parameter, solve the other in closed form
                # and keep the edge with the smaller weighted residual
                edges = ((max(sxy / sxx, eps), 0.0),
                         (eps, max((s1y - eps * sx1) / s11, 0.0)))
                a_new, b_new = min(edges, key=lambda ab: (
                    ab[0] * (sxx * ab[0] + 2 * sx1 * ab[1] - 2 * sxy)
                    + ab[1] * (s11 * ab[1] - 2 * s1y)))
            if abs(a_new - a) < 1e-12 and abs(b_new - b) < 1e-12:
                a, b = a_new, b_new
                break
            a, b = a_new, b_new
        return a, b

    def profile(fv):
        a, b = ml_ab(fv)
        return -nll_at(a, b, fv)

    f_grid = np.concatenate([[0.0], np.geomspace(1e-6, 0.5, 140)])
    lls = np.array([profile(fv) for fv in f_grid])
    best = int(np.argmax(lls))
    f = float(f_grid[best])
    if 0 < best < len(f_grid) - 1:
        # continuous refinement of the profile inside the bracket
        res = minimize_scalar(lambda fv: -profile(fv), method="bounded",
                              bounds=(f_grid[best - 1], f_grid[best + 1]),
                              options=dict(xatol=1e-9))
        if -res.fun >= lls[best]:
            f = float(res.x)
    a, b = ml_ab(f)
    ll = -nll_at(a, b, f)

    crit = chi2.ppf(0.6827, df=1) / 2.0

    # a curve without a significant decaying component pins f at 0: the
    # constant model (one parameter) is nested in the decay model (three),
    # so require the decay to win a 95 % likelihood-ratio test on 2 dof
    p_flat = np.clip(d.mean() / n_shots, eps, 1 - eps)
    ll_flat = float((d * np.log(p_flat)
                     + (n_shots - d) * np.log1p(-p_flat)).sum())
    if f <= 1e-9 or a <= 2 * eps or ll - ll_flat < chi2.ppf(0.95, df=2) / 2:
        return FlipFitResult(0.0, 0.0, float(p_flat), (0.0, 0.0), ll_flat,
                             pinned_at_zero=True)

    def boundary(direction):
        # expand away from the optimum until the profile drops by crit,
        # then bisect the crossing
        step = max(f * 0.5, 1e-6)
        inner, outer = f, None
        for _ in range(60):
            cand = f + direction * step
            if not 0.0 < cand < 0.999:
                edge = 0.0 if direction < 0 else 0.999
                if ll - profile(edge) < crit:
                    return edge
                outer = edge
                break
            if ll - profile(cand) >= crit:
                outer = cand
                break
            inner = cand
            step *= 2
        if outer is None:
            return 0.0 if direction < 0 else 0.999
        lo, hi = sorted((inner, outer))
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            outside = ll - profile(mid) >= crit
            if direction > 0:
                hi, lo = (mid, lo) if outside else (hi, mid)
            else:
                lo, hi = (mid, hi) if outside else (lo, mid)
        return 0.5 * (lo + hi)

    ci = (boundary(-1), boundary(+1))
    return FlipFitResult(float(f), float(a), float(b), ci, float(ll))


# --- shot-model fitting ------------------------------------------------------------

@dataclass(frozen=True)
class FitTargets:
    """Summary statistics the effective model is calibrated against."""

    mean_bright: float
    mean_dark: float
    rate_bright_as_dark: float
    rate_dark_as_bright: float
    cond_bright_as_dark: float | None = None
    cond_dark_as_bright: float | None = None
    weights: tuple = (3.0, 1.0, 1.0, 1.0, 1.5, 1.0)


REFERENCE_TARGETS = FitTargets(
    mean_bright=6.24,
    mean_dark=0.40,
    rate_bright_as_dark=0.191,
    rate_dark_as_bright=0.048,
    cond_bright_as_dark=0.028,
    cond_dark_as_bright=0.009,
)


def _model_stats(model: ShotModel, cycles: int, config: ClassifierConfig,
                 conditional: bool):
    """Mean totals and raw misread rates, then (when ``conditional``) the
    conditional misread rates, from one head/tail table per preparation."""
    window = min(config.window, cycles)
    tables = [exact_head_tail_pmf(model, cycles, window, p)
              for p in (Nuclear.UP, Nuclear.DOWN)]
    totals = [_total_pmf(t) for t in tables]
    stats = [float((np.arange(len(pmf)) * pmf).sum()) for pmf in totals]
    rules = [("raw", totals), ("conditional", tables)][:1 + conditional]
    for mode, pair in rules:
        rates = _rates(_score(mode, *pair, config.cutoff, (1.0, 1.0)))
        stats += [rates["misread_bright_as_dark"],
                  rates["misread_dark_as_bright"]]
    return stats


def fit_shot_model(targets: FitTargets = REFERENCE_TARGETS,
                   flip_bd: float = 7.7e-4,
                   cycles: int = 250,
                   config: ClassifierConfig = ClassifierConfig()) -> ShotModel:
    """Least-squares calibration of the effective model.

    The flip rate of the cycled state is fixed to its independently
    measured value; the photon rates, initialization error, charge error
    and (when conditional targets are given) the idle-state flip rate are
    fitted to the summary statistics by weighted relative least squares on
    the exact distributions, from a fixed deterministic start.

    Raises:
        AnalysisError: if the worst relative residual exceeds 0.25; the
            message names the worst statistic.
    """
    conditional = targets.cond_bright_as_dark is not None
    names = ["mean_bright", "mean_dark", "rate_bright_as_dark",
             "rate_dark_as_bright"]
    goals = [targets.mean_bright, targets.mean_dark,
             targets.rate_bright_as_dark, targets.rate_dark_as_bright]
    if conditional:
        names += ["cond_bright_as_dark", "cond_dark_as_bright"]
        goals += [targets.cond_bright_as_dark,
                  targets.cond_dark_as_bright or 0.0]
    for g in goals:
        if g < 0:
            raise AnalysisError("targets must be non-negative")
    if min(goals[:2]) <= 0 or min(goals[2:4]) <= 0:
        raise AnalysisError("means and raw rates must be positive to fit")
    weights = list(targets.weights[:len(goals)])

    base = targets.mean_bright / cycles
    if 4 * base > _LAMBDA_MAX:
        raise AnalysisError(
            f"mean_bright {targets.mean_bright:g} over {cycles} cycles needs "
            f"more than {_LAMBDA_MAX / 4:g} photons per read window to fit")
    x0 = [base, 0.1 * targets.mean_dark / cycles, 0.05, 0.1]
    lower = [base / 4, 0.0, 0.0, 0.0]
    upper = [base * 4, 0.05, 0.5, 0.5]
    if conditional:
        x0.append(1e-4)
        lower.append(0.0)
        upper.append(5e-3)

    def build(x):
        lam_b, lam_d, e, c = x[:4]
        f_db = x[4] if conditional else 0.0
        return ShotModel(lambda_bright=lam_b, lambda_dark=lam_d,
                         flip_bd=flip_bd, flip_db=f_db,
                         nuclear_init_error=e, charge_error=c)

    def residuals(x):
        m = build(np.clip(x, lower, upper))
        stats = _model_stats(m, cycles, config, conditional)
        return [w * (s - g) / g for w, s, g in zip(weights, stats, goals)]

    res = least_squares(residuals, np.asarray(x0),
                        bounds=(lower, upper), xtol=1e-12, ftol=1e-12)
    model = build(res.x)
    stats = _model_stats(model, cycles, config, conditional)
    rel = [abs(s - g) / g for s, g in zip(stats, goals)]
    worst = int(np.argmax(rel))
    if rel[worst] > 0.25:
        raise AnalysisError(
            f"fit residual too large: {names[worst]} = {stats[worst]:.4g} "
            f"vs target {goals[worst]:.4g} "
            f"({100 * rel[worst]:.1f} % off)")
    return model


# --- threshold optimization ---------------------------------------------------------

def optimize_threshold(pmf_up: np.ndarray,
                       pmf_dn: np.ndarray) -> tuple[int, float]:
    """Exhaustive integer-cutoff scan maximizing the average fidelity.

    A total above the cutoff reads bright, the raw rule of ``_score``
    applied to the cumulative PMFs.  Returns (N*, fidelity at N*); ties break toward the smaller cutoff.
    """
    pmf_up = np.asarray(pmf_up, dtype=float)
    pmf_dn = np.asarray(pmf_dn, dtype=float)
    for pmf in (pmf_up, pmf_dn):
        if abs(pmf.sum() - 1.0) > 1e-6:
            raise AnalysisError("PMFs must be normalized")
    cdf_up = np.cumsum(pmf_up)
    cdf_dn = np.cumsum(pmf_dn)

    best_n, best_fid = 0, -1.0
    for n in range(max(len(pmf_up), len(pmf_dn))):
        p_up_le = cdf_up[min(n, len(cdf_up) - 1)]
        p_dn_gt = 1.0 - cdf_dn[min(n, len(cdf_dn) - 1)]
        fid = 1.0 - (p_up_le + p_dn_gt) / 2.0
        if fid > best_fid + 1e-15:
            best_n, best_fid = n, fid
    return best_n, float(best_fid)


def separating_threshold(pmf_up: np.ndarray,
                         pmf_dn: np.ndarray) -> tuple[int, float]:
    """optimize_threshold's (N*, fidelity) for a readout that reads the up
    state as the bright one.

    When no cutoff beats chance, the scan's best fidelity is 0.5 at many
    cutoffs and N* is picked by rounding noise; so a best fidelity that
    does not exceed 0.5 by more than 1e-12 raises AnalysisError.  This
    happens when the up state does not emit more photons than the down
    state: lambda_dark at or above lambda_bright, or flips fast enough to
    mix the two states.
    """
    best_n, best_fid = optimize_threshold(pmf_up, pmf_dn)
    if not best_fid > 0.5 + 1e-12:
        raise AnalysisError(
            f"no count cutoff reads the up state above chance (best average "
            f"fidelity {best_fid!r}); the up state must emit more photons "
            f"than the down state")
    return best_n, best_fid


# --- improvement scenarios -----------------------------------------------------------

@dataclass
class ScenarioReport:
    model: ShotModel
    cycles: int
    best_cutoff: int
    optimized_fidelity: float
    conditional_fidelity: float
    conditional_window: int
    readout_duration_us: float
    total_duration_us: float

    def to_dict(self) -> dict:
        d = asdict(self)
        d["model"] = self.model.to_dict()
        return d


def scenario(model: ShotModel, protocol: ProtocolSpec,
             overrides: dict | None = None,
             duration_budget_ms: float | None = None,
             config: ClassifierConfig = ClassifierConfig(),
             readout_only: bool = True) -> ScenarioReport:
    """Predict readout performance under model/protocol overrides.

    ``overrides`` may set any ShotModel field, scale one with a
    ``*_scale`` key (e.g. ``lambda_bright_scale: 5``), or set ``cycles``.
    A duration budget instead derives the cycle count from the protocol's
    per-cycle duration.  With ``readout_only`` (default) the
    initialization and charge errors are zeroed so the numbers isolate
    the readout process itself, comparable to the conditional benchmark;
    an override or ``*_scale`` of either field then raises
    AnalysisError instead of being silently dropped.

    Reports the threshold-optimized fidelity of the count distributions
    (separating_threshold: AnalysisError when no cutoff beats chance)
    and the conditional-mode fidelity at the proportionally scaled
    post-selection window.  Both are single-read rules, so a dual-read
    protocol raises AnalysisError.
    """
    if protocol.dual:
        raise AnalysisError(
            "scenario models single-read readout; the protocol reads twice "
            "per cycle (dual)")
    overrides = dict(overrides or {})
    given = ", ".join(f"{k}={v!r}" for k, v in overrides.items())
    for key, value in overrides.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise AnalysisError(f"override {key}={value!r} is not a finite "
                                f"number")
    cycles = overrides.pop("cycles", protocol.cycles)
    if cycles < 1 or cycles != int(cycles):
        raise AnalysisError(f"override cycles={cycles!r} must be an integer "
                            f">= 1")
    cycles = int(cycles)
    zeroed = ("nuclear_init_error", "charge_error") if readout_only else ()
    for key in overrides:
        if key.removesuffix("_scale") in zeroed:
            raise AnalysisError(
                f"override {key} has no effect: scenario zeroes "
                f"nuclear_init_error and charge_error (readout_only)")
    fields = model.to_dict()
    for key in list(overrides):
        if key.endswith("_scale"):
            base_key = key[: -len("_scale")]
            if base_key not in fields:
                raise AnalysisError(f"unknown scale override {key!r}")
            fields[base_key] = fields[base_key] * overrides.pop(key)
    for key, value in overrides.items():
        if key not in fields:
            raise AnalysisError(f"unknown model override {key!r}")
        fields[key] = value
    fields.update(dict.fromkeys(zeroed, 0.0))
    try:
        mod = ShotModel(**fields)
    except ValueError as exc:
        raise AnalysisError(f"overrides {given} give an invalid model: "
                            f"{exc}") from exc

    per_cycle_us = (protocol.readout_duration_us() / protocol.cycles)
    if duration_budget_ms is not None:
        cycles = max(1, int(duration_budget_ms * 1e3 / per_cycle_us))

    window = config.scaled_window(cycles)
    tables = [exact_head_tail_pmf(mod, cycles, window, p)
              for p in (Nuclear.UP, Nuclear.DOWN)]
    best_n, best_fid = separating_threshold(*map(_total_pmf, tables))
    cond = _rates(_score("conditional", *tables, best_n, (1.0, 1.0)))

    readout_us = per_cycle_us * cycles
    init_us = protocol.init.duration_us(protocol.pi_duration_us)
    return ScenarioReport(
        model=mod,
        cycles=cycles,
        best_cutoff=best_n,
        optimized_fidelity=best_fid,
        conditional_fidelity=cond["average_fidelity"],
        conditional_window=window,
        readout_duration_us=readout_us,
        total_duration_us=init_us + readout_us,
    )


# --- spectra ------------------------------------------------------------------------

def estimate_peak_separation(freq_grid: np.ndarray,
                             intensity: np.ndarray) -> float:
    """Separation of the two dominant peaks, refined by quadratic
    interpolation through each peak's three top samples."""
    f = np.asarray(freq_grid, dtype=float)
    y = np.asarray(intensity, dtype=float)
    if len(f) < 5:
        raise AnalysisError("grid too coarse for peak estimation")
    interior = (y[1:-1] >= y[:-2]) & (y[1:-1] >= y[2:])
    peaks = np.flatnonzero(interior) + 1
    if len(peaks) < 2:
        raise AnalysisError("fewer than two peaks in the spectrum")
    top2 = peaks[np.argsort(y[peaks])][-2:]

    def refine(i):
        y0, y1, y2 = y[i - 1], y[i], y[i + 1]
        denom = y0 - 2 * y1 + y2
        if denom == 0:
            return f[i]
        delta = 0.5 * (y0 - y2) / denom
        return f[i] + delta * (f[i + 1] - f[i])

    a, b = sorted(refine(i) for i in top2)
    return b - a
