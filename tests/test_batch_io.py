"""Block-wise batch files equal the per-line format they replaced.

``ref_save_jsonl`` and ``ref_load_jsonl`` keep the per-line writer and
reader that ``BatchResult.save_jsonl`` and ``load_jsonl`` replaced: one
``json.dumps`` per shot on the way out, one ``json.loads`` per line and
element-wise array fills on the way in.  The block-wise code must write the
same bytes, and read the same arrays with the same dtypes, from files of
either writer, including block counts that end exactly on, just before and
just after an ``_IO_BLOCK`` boundary.
"""
import json

import numpy as np
import pytest

from ssro import rng
from ssro.model import Nuclear, PhysicalParams
from ssro.protocol import build_dual_step_readout, build_standard_readout
from ssro.trajectory import (_IO_BLOCK, BatchResult, calibrated_shot_model,
                             simulate_batch)


def ref_save_jsonl(batch, path, full_cycles=False):
    if full_cycles and batch.counts1 is None:
        raise ValueError("batch was simulated without keep_cycles")
    header = dict(
        kind="batch_header",
        prepared=batch.prepared.value,
        master_seed=batch.master_seed,
        n_shots=batch.n_shots,
        cycles=batch.cycles,
        reads_per_cycle=batch.reads_per_cycle,
        head_window=batch.head_window,
        model_fingerprint=batch.model_fingerprint,
        protocol_fingerprint=batch.protocol_fingerprint,
        detect1=batch.detect1.tolist(),
        detect2=None if batch.detect2 is None else batch.detect2.tolist(),
    )
    seeds = rng.shot_seeds(
        batch.master_seed, np.arange(batch.n_shots, dtype=np.uint64)).tolist()
    total1, head1 = batch.total1.tolist(), batch.head1.tolist()
    if batch.total2 is not None:
        total2, head2 = batch.total2.tolist(), batch.head2.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for i in range(batch.n_shots):
            rec = {
                "shot": i,
                "seed": seeds[i],
                "total1": total1[i],
                "head1": head1[i],
            }
            if batch.total2 is not None:
                rec["total2"] = total2[i]
                rec["head2"] = head2[i]
            if full_cycles:
                rec["counts1"] = batch.counts1[i].tolist()
                if batch.counts2 is not None:
                    rec["counts2"] = batch.counts2[i].tolist()
            fh.write(json.dumps(rec) + "\n")


def ref_load_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "batch_header":
            raise ValueError(f"{path}: not a batch file")
        n = header["n_shots"]
        dual = header["reads_per_cycle"] == 2
        total1 = np.empty(n, dtype=np.int64)
        head1 = np.empty(n, dtype=np.int64)
        total2 = np.empty(n, dtype=np.int64) if dual else None
        head2 = np.empty(n, dtype=np.int64) if dual else None
        counts1 = None
        counts2 = None
        i = -1
        for i, line in enumerate(fh):
            rec = json.loads(line)
            if i >= n or rec.get("shot") != i:
                raise ValueError(
                    f"{path}: line {i + 2} holds shot {rec.get('shot')}; "
                    f"expected shots 0..{n - 1} in order")
            total1[i] = rec["total1"]
            head1[i] = rec["head1"]
            if dual:
                total2[i] = rec["total2"]
                head2[i] = rec["head2"]
            if "counts1" in rec:
                if counts1 is None:
                    counts1 = np.zeros((n, header["cycles"]), dtype=np.int16)
                counts1[i] = rec["counts1"]
                if dual:
                    if counts2 is None:
                        counts2 = np.zeros((n, header["cycles"]), dtype=np.int16)
                    counts2[i] = rec["counts2"]
        if i + 1 != n:
            raise ValueError(f"{path}: {i + 1} shot records, header "
                             f"declares {n}")
    return BatchResult(
        prepared=Nuclear(header["prepared"]),
        master_seed=header["master_seed"],
        n_shots=n,
        cycles=header["cycles"],
        reads_per_cycle=header["reads_per_cycle"],
        head_window=header["head_window"],
        model_fingerprint=header["model_fingerprint"],
        protocol_fingerprint=header["protocol_fingerprint"],
        total1=total1, total2=total2, head1=head1, head2=head2,
        detect1=np.asarray(header["detect1"], dtype=np.int64),
        detect2=(None if header["detect2"] is None
                 else np.asarray(header["detect2"], dtype=np.int64)),
        counts1=counts1, counts2=counts2,
    )


ARRAYS = ("total1", "head1", "detect1", "total2", "head2", "detect2",
          "counts1", "counts2")
SCALARS = ("prepared", "master_seed", "n_shots", "cycles", "reads_per_cycle",
           "head_window", "model_fingerprint", "protocol_fingerprint")

# (kind, shots, cycles, full_cycles, master seed)
CASES = {
    "standard": ("standard", 3000, 250, False, 7),
    "dual": ("dual", 3000, 250, False, 8),
    "full_cycles_standard": ("standard", 500, 60, True, 9),
    "full_cycles_dual": ("dual", 500, 60, True, 10),
    "one_shot": ("standard", 1, 250, False, 11),
    "block_minus_one": ("dual", _IO_BLOCK - 1, 40, True, 12),
    "block": ("standard", _IO_BLOCK, 40, False, 13),
    "block_plus_one": ("standard", _IO_BLOCK + 1, 40, True, 14),
    "three_blocks_and_five": ("dual", 3 * _IO_BLOCK + 5, 40, False, 15),
    "top_master_seed": ("dual", 300, 250, False, 2**64 - 5),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request, tmp_path_factory):
    kind, shots, cycles, full_cycles, seed = CASES[request.param]
    build = (build_dual_step_readout if kind == "dual"
             else build_standard_readout)
    protocol = build(PhysicalParams(), cycles=cycles)
    batch = simulate_batch(calibrated_shot_model(), protocol, Nuclear.UP,
                           shots, master_seed=seed, keep_cycles=full_cycles)
    out = tmp_path_factory.mktemp(request.param)
    new, ref = out / "new.jsonl", out / "ref.jsonl"
    batch.save_jsonl(new, full_cycles=full_cycles)
    ref_save_jsonl(batch, ref, full_cycles=full_cycles)
    return batch, new, ref


def assert_same_batch(got, expected):
    for name in SCALARS:
        assert getattr(got, name) == getattr(expected, name), name
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(expected, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_files_are_byte_identical(case):
    _, new, ref = case
    assert new.read_bytes() == ref.read_bytes()


def test_load_equals_reference_load(case):
    _, new, ref = case
    assert_same_batch(BatchResult.load_jsonl(new), ref_load_jsonl(new))
    assert_same_batch(BatchResult.load_jsonl(ref), ref_load_jsonl(ref))


def test_load_returns_the_saved_batch(case):
    batch, new, _ = case
    loaded = BatchResult.load_jsonl(new)
    if loaded.counts1 is None:
        batch = BatchResult(**{**batch.__dict__, "counts1": None,
                               "counts2": None})
    assert_same_batch(loaded, batch)


@pytest.mark.parametrize("damage", ["short", "long", "swapped"])
def test_block_boundary_damage_names_the_line(tmp_path, damage):
    """Record checks at the edge of a block name the same line as the
    per-line reader did."""
    protocol = build_standard_readout(PhysicalParams(), cycles=20)
    batch = simulate_batch(calibrated_shot_model(), protocol, Nuclear.UP,
                           2 * _IO_BLOCK, master_seed=5)
    path = tmp_path / f"{damage}.jsonl"
    batch.save_jsonl(path)
    lines = path.read_text().splitlines(keepends=True)
    if damage == "short":
        lines = lines[:-1]
    elif damage == "long":
        lines.append(lines[-1])
    else:
        k = _IO_BLOCK + 1               # the last line of the first block
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as new:
        BatchResult.load_jsonl(path)
    with pytest.raises(ValueError) as ref:
        ref_load_jsonl(path)
    assert str(new.value) == str(ref.value)
