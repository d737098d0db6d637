"""simulate_batch's one merge against the earlier per-mode merges.

``ref_microscopic_batch`` is the earlier microscopic batch: it preallocates
the batch's columns and stores each shot's record into them
(``ref_store_record``).  ``ref_effective_batch`` is the earlier effective
merge, which copied each chunk's columns into preallocated arrays.  The
package now turns every chunk into the same columns and joins them in one
place; its batches must equal the references column for column.
"""
from dataclasses import replace

import numpy as np
import pytest

from ssro import rng, trajectory
from ssro.model import Nuclear, PhysicalParams
from ssro.protocol import build_dual_step_readout, build_standard_readout
from ssro.trajectory import (BatchResult, calibrated_shot_model,
                             simulate_batch, simulate_shot)

COLUMNS = ("total1", "head1", "detect1", "counts1",
           "total2", "head2", "detect2", "counts2")
BUILDERS = {"standard": build_standard_readout,
            "dual": build_dual_step_readout}


def ref_empty_batch(model, protocol, prepared, n, master_seed, head_window,
                    keep_cycles):
    batch = BatchResult(
        prepared=prepared, master_seed=master_seed, n_shots=n,
        cycles=protocol.cycles, reads_per_cycle=protocol.reads_per_cycle,
        head_window=head_window, model_fingerprint=model.fingerprint(),
        protocol_fingerprint=protocol.fingerprint(),
        total1=np.empty(n, dtype=np.int64), head1=np.empty(n, dtype=np.int64),
        detect1=np.zeros(protocol.cycles, dtype=np.int64))
    if protocol.dual:
        batch.total2 = np.empty(n, dtype=np.int64)
        batch.head2 = np.empty(n, dtype=np.int64)
        batch.detect2 = np.zeros(protocol.cycles, dtype=np.int64)
    if keep_cycles:
        batch.counts1 = np.zeros((n, protocol.cycles), dtype=np.int16)
        if protocol.dual:
            batch.counts2 = np.zeros((n, protocol.cycles), dtype=np.int16)
    return batch


def ref_store_record(batch, i, rec, keep_cycles):
    batch.total1[i] = rec.total1
    batch.head1[i] = rec.head1
    counts1 = np.asarray(rec.counts_read1)
    batch.detect1 += counts1 >= 1
    if rec.total2 is not None:
        batch.total2[i] = rec.total2
        batch.head2[i] = rec.head2
        counts2 = np.asarray(rec.counts_read2)
        batch.detect2 += counts2 >= 1
    if keep_cycles:
        batch.counts1[i] = counts1
        if rec.counts_read2 is not None:
            batch.counts2[i] = np.asarray(rec.counts_read2)


def ref_microscopic_batch(model, protocol, prepared, n, master_seed,
                          head_window, keep_cycles, params):
    batch = ref_empty_batch(model, protocol, prepared, n, master_seed,
                            head_window, keep_cycles)
    for i in range(n):
        rec = simulate_shot(model, protocol, prepared,
                            rng.shot_seed(master_seed, i), params=params,
                            head_window=head_window)
        ref_store_record(batch, i, rec, keep_cycles)
    return batch


def ref_effective_batch(model, protocol, prepared, n, master_seed,
                        head_window, keep_cycles, chunk):
    batch = ref_empty_batch(model, protocol, prepared, n, master_seed,
                            head_window, keep_cycles)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        seeds = rng.shot_seeds(master_seed, np.arange(lo, hi, dtype=np.uint64))
        r = trajectory._simulate_chunk(model, protocol, prepared, seeds,
                                       head_window, keep_cycles)
        batch.total1[lo:hi] = r["total1"]
        batch.head1[lo:hi] = r["head1"]
        batch.detect1 += r["detect1"]
        if protocol.dual:
            batch.total2[lo:hi] = r["total2"]
            batch.head2[lo:hi] = r["head2"]
            batch.detect2 += r["detect2"]
        if keep_cycles:
            batch.counts1[lo:hi] = r["counts1"]
            if protocol.dual:
                batch.counts2[lo:hi] = r["counts2"]
    return batch


def assert_same_batch(got, ref):
    for name in ("prepared", "master_seed", "n_shots", "cycles",
                 "reads_per_cycle", "head_window", "model_fingerprint",
                 "protocol_fingerprint"):
        assert getattr(got, name) == getattr(ref, name), name
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(ref, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("kind", list(BUILDERS))
@pytest.mark.parametrize("keep_cycles", [True, False])
def test_microscopic_batch_matches_stored_records(kind, keep_cycles):
    params = PhysicalParams()
    protocol = BUILDERS[kind](params, cycles=40)
    model = replace(calibrated_shot_model(), mode="microscopic",
                    lambda_dark=0.02, flip_bd=0.01, flip_db=0.02)
    for prepared, seed in ((Nuclear.UP, 11), (Nuclear.DOWN, 12)):
        got = simulate_batch(model, protocol, prepared, 30, seed,
                             keep_cycles=keep_cycles, head_window=25,
                             params=params)
        ref = ref_microscopic_batch(model, protocol, prepared, 30, seed, 25,
                                    keep_cycles, params)
        assert_same_batch(got, ref)


@pytest.mark.parametrize("kind", list(BUILDERS))
@pytest.mark.parametrize("workers", [1, 2])
def test_chunks_merge_in_shot_order(kind, workers, monkeypatch):
    # small chunks so that a short batch spans several, the last one partial
    monkeypatch.setattr(trajectory, "_CHUNK", 7)
    params = PhysicalParams()
    protocol = BUILDERS[kind](params, cycles=60)
    model = replace(calibrated_shot_model(), lambda_bright=0.3,
                    flip_bd=0.01, flip_db=0.02)
    got = simulate_batch(model, protocol, Nuclear.UP, 45, 5, keep_cycles=True,
                         head_window=25, n_workers=workers)
    ref = ref_effective_batch(model, protocol, Nuclear.UP, 45, 5, 25, True, 7)
    assert_same_batch(got, ref)
    micro = replace(model, mode="microscopic")
    got = simulate_batch(micro, protocol, Nuclear.DOWN, 16, 6,
                         keep_cycles=True, head_window=25, n_workers=workers,
                         params=params)
    ref = ref_microscopic_batch(micro, protocol, Nuclear.DOWN, 16, 6, 25, True,
                                params)
    assert_same_batch(got, ref)
