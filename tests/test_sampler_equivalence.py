"""Draw layout 2 of the effective read stage against a per-shot reference,
and its law against the exact oracle.

``_simulate_chunk`` draws a read window as geometric gaps between the
cycles that can give a photon, in rounds over all shots of a chunk.  The
reference below builds the dense shots x cycles table of rates from the
flip times, then walks each shot's read alone, one candidate at a time:
gap m from draw ``first + 2m``, value from draw ``first + 2m + 1``, the
rate of the cycle the gap lands on.  Both must give identical counts for
the same stream seeds.

The reference reads each shot's stream and its gaps with one elementwise
``rng`` call per shot: every element of those calls depends only on its
own stream, draw index and rate, so it equals the scalar call
(``test_block_uniforms_equal_per_draw_calls``).
"""
import functools
import math

import numpy as np
import pytest

from ssro import rng, trajectory
from ssro.analysis import exact_count_pmf, exact_dual_pmf, exact_head_tail_pmf
from ssro.model import Nuclear, PhysicalParams
from ssro.protocol import build_dual_step_readout, build_standard_readout
from ssro.trajectory import (_J_CHARGE, _J_FLIP, _J_INIT, _J_READ, _MAX_FLIPS,
                             ShotModel, _simulate_chunk, _states_present,
                             calibrated_shot_model, simulate_batch)


# --- per-shot reference --------------------------------------------------------

def ref_read_counts(model, seed, first_draw, lam_row, kmax):
    """Per-cycle counts of one shot's read window, whose cycle c (1-based)
    emits at ``lam_row[c - 1]``, by draw layout 2 from draw ``first_draw``.
    """
    cycles = len(lam_row)
    lam_max = max(model.lambda_bright, model.lambda_dark)
    floor, p = math.exp(-lam_max), -math.expm1(-lam_max)
    # draws first_draw .. first_draw + 2 * cycles: gap, value, gap, ...
    stream = rng.uniforms(np.uint64(seed),
                          np.arange(first_draw, first_draw + 2 * cycles + 1))
    gaps = rng.geometric_from_uniform(stream[0::2], p)
    values = stream[1::2]
    hit_cycles, u, lam = [], [], []
    cycle, m = 0, 0
    while True:
        cycle += gaps[m]
        if cycle > cycles:
            break
        c = int(cycle)
        hit_cycles.append(c)
        u.append(floor + p * values[m])
        lam.append(lam_row[c - 1])
        m += 1
    counts = np.zeros(cycles, dtype=np.int64)
    counts[np.array(hit_cycles, dtype=np.int64) - 1] = \
        rng.poisson_from_uniform(np.array(u), np.array(lam), kmax)
    return counts


def ref_flip_states(model, protocol, prepared, seeds):
    """The dense shots x cycles nuclear states (True = up-bright, for read
    1) and the per-shot charge flags, from the init, charge and flip draws."""
    n = len(seeds)
    cycles = protocol.cycles
    dual = protocol.dual

    inverted = rng.uniforms(seeds, _J_INIT) < model.nuclear_init_error
    charge_bad = rng.uniforms(seeds, _J_CHARGE) < model.charge_error
    bright0 = (np.full(n, prepared is Nuclear.UP) ^ inverted)

    rate_cycled, rate_idle = model.flip_rates(dual)
    state = bright0.copy()
    t = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    far = np.iinfo(np.int64).max
    bounds = []
    for s in range(_MAX_FLIPS):
        u = rng.uniforms(seeds, _J_FLIP + s)
        if dual:
            rate = np.full(n, rate_cycled)
        else:
            rate = np.where(state, rate_cycled, rate_idle)
        k = rng.geometric_from_uniform(u, rate)
        nxt = t + np.where(np.isfinite(k), k, far // 2).astype(np.int64)
        hit = alive & (nxt <= cycles)
        if hit.any():
            b = np.full(n, far, dtype=np.int64)
            b[hit] = nxt[hit]
            bounds.append(b)
        state = state ^ hit
        t = np.where(hit, nxt, t)
        alive = hit
        if not alive.any():
            break
    if alive.any():
        raise ValueError("flip cap")

    cyc = np.arange(1, cycles + 1, dtype=np.int64)
    parity = np.zeros((n, cycles), dtype=np.int8)
    for b in bounds:
        parity += cyc[None, :] >= b[:, None]
    return bright0[:, None] ^ (parity & 1).astype(bool), ~charge_bad[:, None]


@functools.lru_cache(maxsize=None)
def ref_counts(model, kind, cycles, prepared, n, master_seed):
    """Per read: the counts table of the first ``n`` shots, and the largest
    rate of its dense rate table (the count clamp's rate)."""
    protocol = _protocol(kind, cycles)
    seeds = _seeds(master_seed, n)
    bright_at, active = ref_flip_states(model, protocol, prepared, seeds)
    out = []
    for r, bright in enumerate((bright_at, ~bright_at)[:protocol.reads_per_cycle]):
        lam = np.where(bright & active, model.lambda_bright,
                       model.lambda_dark)
        kmax = rng.poisson_kmax(float(lam.max()))
        first = _J_READ + r * (2 * cycles + 1)
        counts = np.array([ref_read_counts(model, seed, first, row, kmax)
                           for seed, row in zip(seeds.tolist(), lam)])
        out.append((counts, float(lam.max())))
    return out


def ref_simulate_chunk(model, kind, cycles, prepared, n, master_seed,
                       head_window, keep_cycles):
    """_simulate_chunk's columns, from the per-shot reference, and the
    count clamp's rate of each read."""
    out = dict(total2=None, head2=None, detect2=None, counts2=None)
    rates = []
    for r, (counts, rate) in enumerate(
            ref_counts(model, kind, cycles, prepared, n, master_seed), 1):
        out[f"total{r}"] = counts.sum(axis=1)
        out[f"head{r}"] = counts[:, :head_window].sum(axis=1)
        out[f"detect{r}"] = (counts >= 1).sum(axis=0)
        out[f"counts{r}"] = counts.astype(np.int16) if keep_cycles else None
        rates.append(rate)
    return out, rates


# --- cases ---------------------------------------------------------------------

PARAMS = PhysicalParams()
CAL = calibrated_shot_model()
# flips, init and charge errors all fire often
BUSY = ShotModel(lambda_bright=0.3, lambda_dark=0.02, flip_bd=0.02,
                 flip_db=0.01, nuclear_init_error=0.2, charge_error=0.1)


def _model(base, **overrides):
    return ShotModel(**{**base.to_dict(), **overrides})


@functools.lru_cache(maxsize=None)
def _protocol(kind, cycles):
    build = build_dual_step_readout if kind == "dual" else build_standard_readout
    return build(PARAMS, cycles=cycles)


def _seeds(master_seed, n):
    return rng.shot_seeds(master_seed, np.arange(n, dtype=np.uint64))


def with_kmax_rates(func, *args):
    """func(*args) and the rates each poisson_kmax call saw during it."""
    seen = []
    real = rng.poisson_kmax
    rng.poisson_kmax = lambda lam_max: seen.append(lam_max) or real(lam_max)
    try:
        return func(*args), seen
    finally:
        rng.poisson_kmax = real


def assert_chunks_equal(model, kind, cycles, prepared, n, head_window,
                        keep_cycles, master_seed=7):
    args = (model, _protocol(kind, cycles), prepared,
            _seeds(master_seed, n), head_window, keep_cycles)
    got, got_rates = with_kmax_rates(_simulate_chunk, *args)
    ref, ref_rates = ref_simulate_chunk(model, kind, cycles, prepared, n,
                                        master_seed, head_window, keep_cycles)
    # the count clamp comes from the same largest rate, read by read
    assert got_rates == ref_rates
    assert got.keys() == ref.keys()
    for name, value in ref.items():
        if value is None:
            assert got[name] is None, name
        else:
            np.testing.assert_array_equal(got[name], value, err_msg=name)


CYCLES_SHOTS = [(1, 3000), (7, 3000), (250, 1500), (1000, 300)]


@pytest.mark.parametrize("kind", ["standard", "dual"])
@pytest.mark.parametrize("prepared", [Nuclear.UP, Nuclear.DOWN],
                         ids=["up", "down"])
@pytest.mark.parametrize("cycles, shots", CYCLES_SHOTS)
@pytest.mark.parametrize("keep_cycles", [False, True], ids=["totals", "keep"])
def test_matches_dense_reference(kind, prepared, cycles, shots, keep_cycles):
    # about two flips per record, far from the flip cap
    busy = _model(BUSY, flip_bd=min(0.02, 2 / cycles),
                  flip_db=min(0.01, 1 / cycles))
    for head_window in sorted({1, cycles}):
        assert_chunks_equal(busy, kind, cycles, prepared, shots, head_window,
                            keep_cycles)
        assert_chunks_equal(CAL, kind, cycles, prepared, shots, head_window,
                            keep_cycles)


@pytest.mark.parametrize("model", [
    _model(CAL, charge_error=0.0),
    _model(BUSY, charge_error=0.1),
    _model(BUSY, charge_error=1.0),                   # all dark: kmax from dark
    _model(CAL, lambda_bright=3.0),                   # most reads candidates
    _model(BUSY, lambda_bright=3.0, lambda_dark=0.5),
    _model(CAL, lambda_dark=0.05, lambda_bright=0.01),    # dark above bright
    _model(CAL, flip_bd=0.0, flip_db=0.0),
    _model(BUSY, flip_bd=0.0, flip_db=0.0, nuclear_init_error=0.0),
    _model(CAL, lambda_bright=0.0, lambda_dark=0.0),
], ids=["charge0", "charge0.1", "charge1", "bright3", "bright3_dark0.5",
        "dark_above_bright", "no_flips", "no_flips_no_init", "no_light"])
@pytest.mark.parametrize("kind", ["standard", "dual"])
def test_matches_dense_reference_across_models(model, kind):
    for prepared in (Nuclear.UP, Nuclear.DOWN):
        for keep_cycles in (False, True):
            assert_chunks_equal(model, kind, 70, prepared, 2000, 20,
                                keep_cycles)


def test_full_chunk_matches_dense_reference():
    # one full-size chunk of the shipped model and protocol
    assert_chunks_equal(CAL, "standard", 250, Nuclear.UP, 16384, 120, False,
                        master_seed=11)


def test_flip_cap_still_raises():
    model = ShotModel(lambda_bright=0.028, lambda_dark=0.0, flip_bd=0.2,
                      flip_db=0.2, nuclear_init_error=0.0)
    with pytest.raises(ValueError, match="0.2.*12 flips"):
        simulate_batch(model, build_standard_readout(PARAMS), Nuclear.UP,
                       100, master_seed=3)


@pytest.mark.parametrize("n_flips", [0, 1, 2, 3])
def test_states_present_matches_dense_states(n_flips):
    # flips at random cycles in 1..cycles + 3, the last ones often beyond
    # the record, as the flip stage lays them out in ``bounds``
    gen = np.random.default_rng(n_flips)
    n, cycles = 4000, 6
    far = np.iinfo(np.int64).max
    start = gen.random(n) < 0.5
    bounds = []
    t = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for _ in range(n_flips):
        nxt = t + gen.integers(1, 4, n)
        hit = alive & (nxt <= cycles)
        bounds.append(np.where(hit, nxt, far))
        t, alive = np.where(hit, nxt, t), hit
    cyc = np.arange(1, cycles + 1)
    parity = np.zeros((n, cycles), dtype=bool)
    for b in bounds:
        parity ^= cyc[None, :] >= b[:, None]
    state = start[:, None] ^ parity
    has_true, has_false = _states_present(start, bounds, cycles)
    np.testing.assert_array_equal(has_true, state.any(axis=1))
    np.testing.assert_array_equal(has_false, (~state).any(axis=1))


def test_block_uniforms_equal_per_draw_calls():
    seeds = _seeds(5, 257)
    draws = np.arange(_J_READ, _J_READ + 45)
    block = rng.uniforms(seeds[None, :], draws[:, None])
    assert block.shape == (45, 257)
    for k, j in enumerate(draws):
        np.testing.assert_array_equal(block[k], rng.uniforms(seeds, int(j)))
        assert block[k, 3] == rng.uniforms(seeds[3], int(j))
    # draw indices along the last axis broadcast the same way
    np.testing.assert_array_equal(rng.uniforms(seeds[:, None], draws),
                                  block.T)
    # and an index per stream gives each stream its own draw
    own = draws[np.arange(257) % 45]
    np.testing.assert_array_equal(rng.uniforms(seeds, own),
                                  block[np.arange(257) % 45, np.arange(257)])


@pytest.mark.parametrize("round_size", [1, 7])
def test_counts_do_not_depend_on_round_size(monkeypatch, round_size):
    # a draw's index alone fixes its value, so the walk's rounds do not
    # change the counts
    args = (BUSY, _protocol("dual", 70), Nuclear.UP, _seeds(23, 1500), 20,
            True)
    ref = _simulate_chunk(*args)
    monkeypatch.setattr(trajectory, "_GAP_ROUND", round_size)
    got = _simulate_chunk(*args)
    for name, value in ref.items():
        np.testing.assert_array_equal(got[name], value, err_msg=name)


# --- draw indices ----------------------------------------------------------------

def test_reads_use_disjoint_draw_ranges(monkeypatch):
    """At lambda 700 every cycle is a candidate, so each read walks its
    whole range of 2 * cycles + 1 draws; read r stays inside
    [_J_READ + r * (2 * cycles + 1), that + 2 * cycles]."""
    cycles, n = 30, 40
    model = ShotModel(lambda_bright=700.0, lambda_dark=0.0, flip_bd=0.0,
                      flip_db=0.0, nuclear_init_error=0.0, charge_error=0.0)
    drawn = {}                  # read index (None outside reads) -> draws
    read = [None]
    real_uniforms, real_read_counts = rng.uniforms, trajectory._read_counts

    def uniforms(seeds, draw_index):
        drawn.setdefault(read[0], set()).update(
            np.unique(np.asarray(draw_index)).tolist())
        return real_uniforms(seeds, draw_index)

    def read_counts(*args):
        read[0] = len([r for r in drawn if r is not None])
        try:
            return real_read_counts(*args)
        finally:
            read[0] = None

    monkeypatch.setattr(rng, "uniforms", uniforms)
    monkeypatch.setattr(trajectory, "_read_counts", read_counts)
    out = _simulate_chunk(model, _protocol("dual", cycles), Nuclear.UP,
                          _seeds(17, n), cycles, True)

    assert sorted(r for r in drawn if r is not None) == [0, 1]
    assert max(drawn[None]) < _J_READ
    for r in (0, 1):
        base = _J_READ + r * (2 * cycles + 1)
        assert drawn[r] == set(range(base, base + 2 * cycles + 1))
    assert not drawn[0] & drawn[1]
    # read 1 watches the prepared (bright) state, read 2 the dark one
    assert (out["counts1"] > 0).all()
    assert (out["counts2"] == 0).all()


# --- law against the exact oracle -------------------------------------------------

def tv_bound(pmf, n, p_fail=1e-6):
    """A TV distance an n-shot empirical PMF of ``pmf``'s law exceeds with
    probability below p_fail: the bound sum_i sqrt(p_i (1 - p_i) / n) / 2
    on its mean, plus McDiarmid's deviation sqrt(ln(1 / p_fail) / (2 n))
    (one shot moves the TV distance by at most 1 / n)."""
    pmf = np.ravel(pmf)
    mean = 0.5 * np.sqrt(pmf * (1 - pmf) / n).sum()
    return mean + math.sqrt(math.log(1 / p_fail) / (2 * n))


def tv_distance(pmf, *columns):
    """TV distance between ``pmf`` and the empirical PMF of the integer
    ``columns`` (one per axis of ``pmf``); outcomes beyond the table count
    in full."""
    pmf = np.asarray(pmf)
    shape = tuple(max(s, int(c.max()) + 1) for s, c in zip(pmf.shape, columns))
    emp = np.zeros(shape)
    np.add.at(emp, columns, 1.0 / len(columns[0]))
    exact = np.zeros(shape)
    exact[tuple(slice(0, s) for s in pmf.shape)] = pmf
    return 0.5 * np.abs(emp - exact).sum()


# (model, cycles, head window, shots); seeds are fixed per case below
LAW_MODELS = {
    "calibrated": (CAL, 250, 120, 200_000),
    "busy": (BUSY, 100, 40, 100_000),
    "dark_above_bright": (_model(CAL, lambda_dark=0.05, lambda_bright=0.01),
                          250, 120, 200_000),
    "bright3": (_model(CAL, lambda_bright=3.0), 20, 8, 50_000),
    "no_flips": (_model(BUSY, flip_bd=0.0, flip_db=0.0), 100, 40, 100_000),
}
PREPARED = {"up": Nuclear.UP, "down": Nuclear.DOWN}


@pytest.mark.parametrize("prep", sorted(PREPARED))
@pytest.mark.parametrize("name", sorted(LAW_MODELS))
def test_single_read_law_matches_oracle(name, prep):
    """Totals against exact_count_pmf and (head, tail) against
    exact_head_tail_pmf."""
    model, cycles, window, shots = LAW_MODELS[name]
    prepared = PREPARED[prep]
    seed = 5100 + 2 * sorted(LAW_MODELS).index(name) + (prep == "down")
    batch = simulate_batch(model, _protocol("standard", cycles), prepared,
                           shots, master_seed=seed, head_window=window)
    totals = exact_count_pmf(model, cycles, prepared)
    joint = exact_head_tail_pmf(model, cycles, window, prepared)
    assert tv_distance(totals, batch.total1) < tv_bound(totals, shots)
    assert tv_distance(joint, batch.head1, batch.total1 - batch.head1) \
        < tv_bound(joint, shots)


@pytest.mark.parametrize("prep", sorted(PREPARED))
@pytest.mark.parametrize("name", sorted(LAW_MODELS))
def test_dual_read_law_matches_oracle(name, prep):
    """(total1, total2) of the dual protocol against exact_dual_pmf."""
    model, cycles, _, shots = LAW_MODELS[name]
    prepared = PREPARED[prep]
    seed = 5200 + 2 * sorted(LAW_MODELS).index(name) + (prep == "down")
    batch = simulate_batch(model, _protocol("dual", cycles), prepared,
                           shots, master_seed=seed)
    joint = exact_dual_pmf(model, cycles, prepared)
    assert tv_distance(joint, batch.total1, batch.total2) \
        < tv_bound(joint, shots)
