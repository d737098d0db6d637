"""The block-streamed sparse read stage against the dense reference.

``_simulate_chunk`` draws the read uniforms a block of cycles at a time and
computes a state and a Poisson count only for the uniforms that can give a
photon.  The reference below is the dense sampler it replaced: one
``rng.uniforms`` call per cycle, full shots x cycles rate, parity and count
arrays, and one ``poisson_from_uniform`` call over all of them.  Both must
give identical counts for the same stream seeds.
"""
import numpy as np
import pytest

from ssro import rng
from ssro.model import Nuclear, PhysicalParams
from ssro.protocol import build_dual_step_readout, build_standard_readout
from ssro.trajectory import (_J_CHARGE, _J_FLIP, _J_INIT, _J_READ, _MAX_FLIPS,
                             _READ_BLOCK, ShotModel, _simulate_chunk,
                             _states_present, calibrated_shot_model,
                             simulate_batch)


# --- dense reference -----------------------------------------------------------

def ref_simulate_chunk(model, protocol, prepared, seeds, head_window,
                       keep_cycles):
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
    bright_at = bright0[:, None] ^ (parity & 1).astype(bool)

    active = ~charge_bad[:, None]
    lam1 = np.where(bright_at & active, model.lambda_bright, model.lambda_dark)
    u1 = np.empty((n, cycles))
    for c in range(cycles):
        u1[:, c] = rng.uniforms(seeds, _J_READ + c)
    c1 = rng.poisson_from_uniform(u1, lam1)
    out = dict(
        total1=c1.sum(axis=1),
        head1=c1[:, :head_window].sum(axis=1),
        detect1=(c1 >= 1).sum(axis=0),
        counts1=c1.astype(np.int16) if keep_cycles else None,
        total2=None, head2=None, detect2=None, counts2=None,
    )
    if dual:
        lam2 = np.where(~bright_at & active, model.lambda_bright,
                        model.lambda_dark)
        u2 = np.empty((n, cycles))
        for c in range(cycles):
            u2[:, c] = rng.uniforms(seeds, _J_READ + cycles + c)
        c2 = rng.poisson_from_uniform(u2, lam2)
        out.update(
            total2=c2.sum(axis=1),
            head2=c2[:, :head_window].sum(axis=1),
            detect2=(c2 >= 1).sum(axis=0),
            counts2=c2.astype(np.int16) if keep_cycles else None,
        )
    return out


# --- cases ---------------------------------------------------------------------

PARAMS = PhysicalParams()
CAL = calibrated_shot_model()
# flips, init and charge errors all fire often
BUSY = ShotModel(lambda_bright=0.3, lambda_dark=0.02, flip_bd=0.02,
                 flip_db=0.01, nuclear_init_error=0.2, charge_error=0.1)


def _model(base, **overrides):
    return ShotModel(**{**base.to_dict(), **overrides})


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


def assert_chunks_equal(model, protocol, prepared, n, head_window,
                        keep_cycles, master_seed=7):
    seeds = _seeds(master_seed, n)
    args = (model, protocol, prepared, seeds, head_window, keep_cycles)
    got, got_rates = with_kmax_rates(_simulate_chunk, *args)
    ref, ref_rates = with_kmax_rates(ref_simulate_chunk, *args)
    # the count clamp comes from the same largest rate, read by read
    assert got_rates == ref_rates
    assert got.keys() == ref.keys()
    for name, value in ref.items():
        if value is None:
            assert got[name] is None, name
        else:
            np.testing.assert_array_equal(got[name], value, err_msg=name)


CYCLES_SHOTS = [(1, 3000), (7, 3000), (250, 1500), (1000, 300)]


def test_widths_include_a_partial_last_block():
    assert any(cycles > _READ_BLOCK and cycles % _READ_BLOCK
               for cycles, _ in CYCLES_SHOTS)


@pytest.mark.parametrize("kind", ["standard", "dual"])
@pytest.mark.parametrize("prepared", [Nuclear.UP, Nuclear.DOWN],
                         ids=["up", "down"])
@pytest.mark.parametrize("cycles, shots", CYCLES_SHOTS)
@pytest.mark.parametrize("keep_cycles", [False, True], ids=["totals", "keep"])
def test_matches_dense_reference(kind, prepared, cycles, shots, keep_cycles):
    protocol = _protocol(kind, cycles)
    # about two flips per record, far from the flip cap
    busy = _model(BUSY, flip_bd=min(0.02, 2 / cycles),
                  flip_db=min(0.01, 1 / cycles))
    for head_window in sorted({1, cycles}):
        assert_chunks_equal(busy, protocol, prepared, shots, head_window,
                            keep_cycles)
        assert_chunks_equal(CAL, protocol, prepared, shots, head_window,
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
    protocol = _protocol(kind, 70)
    for prepared in (Nuclear.UP, Nuclear.DOWN):
        for keep_cycles in (False, True):
            assert_chunks_equal(model, protocol, prepared, 2000, 20,
                                keep_cycles)


def test_full_chunk_matches_dense_reference():
    # one full-size chunk of the shipped model and protocol
    assert_chunks_equal(CAL, build_standard_readout(PARAMS), Nuclear.UP,
                        16384, 120, False, master_seed=11)


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
    # draw indices along the last axis broadcast the same way
    np.testing.assert_array_equal(rng.uniforms(seeds[:, None], draws),
                                  block.T)
