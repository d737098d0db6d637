"""Output checks.  Each returns a list of problems; an empty list passes.

Statistical bounds are derived from the shot count so that a correct
program fails a check with probability well below 1e-6, whatever the seed.
The checks use only numpy and the standard library, so they do not lean on
the code they check.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

# z of the Wilson interval an MC rate must share with the exact rate
WILSON_Z = 5.0
# failure probability of the total-variation bound
TV_DELTA = 1e-9


def wilson(k: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return center - half, center + half


def rate_matches(label: str, rate: float, n: int, exact: float) -> list[str]:
    """An MC rate measured on n trials agrees with the exact rate."""
    k = int(round(rate * n))
    lo, hi = wilson(k, n)
    if lo <= exact <= hi:
        return []
    return [f"{label}: MC {rate:.5f} over {n} trials, exact {exact:.5f} "
            f"outside the {WILSON_Z:g}-sigma Wilson band [{lo:.5f}, {hi:.5f}]"]


def tv_bound(pmf: np.ndarray, n: int, delta: float = TV_DELTA) -> float:
    """High-probability bound on the TV distance between n samples and pmf.

    The expected distance is at most 1/2 sum_k sqrt(p_k (1 - p_k) / n)
    (Jensen per bin); one sample moves the distance by at most 1/n, so by
    McDiarmid it exceeds its mean by sqrt(ln(1/delta) / 2n) with
    probability at most delta.
    """
    p = np.asarray(pmf, dtype=float)
    mean = 0.5 * np.sqrt(p * (1 - p) / n).sum()
    return float(mean + math.sqrt(math.log(1 / delta) / (2 * n)))


def total_variation(samples: np.ndarray, pmf: np.ndarray) -> float:
    samples = np.asarray(samples)
    size = max(len(pmf), int(samples.max()) + 1)
    emp = np.bincount(samples, minlength=size) / samples.size
    ref = np.zeros(size)
    ref[:len(pmf)] = pmf
    return float(0.5 * np.abs(emp - ref).sum())


def counts_match(label: str, samples: np.ndarray, pmf: np.ndarray) -> list[str]:
    """Sampled counts follow the exact distribution."""
    samples = np.asarray(samples)
    if samples.size == 0 or samples.min() < 0:
        return [f"{label}: empty or negative counts"]
    tv = total_variation(samples, pmf)
    bound = tv_bound(pmf, samples.size)
    if tv <= bound:
        return []
    return [f"{label}: TV {tv:.4f} to the exact PMF exceeds {bound:.4f} "
            f"for {samples.size} shots"]


def batch_sane(label: str, batch, n_shots: int, cycles: int,
               dual: bool) -> list[str]:
    """Shapes, counts and per-cycle detections of a BatchResult agree."""
    problems = []
    if batch.n_shots != n_shots or len(batch.total1) != n_shots:
        problems.append(f"{label}: {batch.n_shots} shots, expected {n_shots}")
        return problems
    reads = [(batch.total1, batch.head1, batch.detect1)]
    if dual:
        if batch.total2 is None:
            return problems + [f"{label}: dual batch without read 2"]
        reads.append((batch.total2, batch.head2, batch.detect2))
    for total, head, detect in reads:
        if len(detect) != cycles:
            problems.append(f"{label}: detection curve of length "
                            f"{len(detect)}, expected {cycles}")
        elif (head < 0).any() or (head > total).any():
            problems.append(f"{label}: head counts outside [0, total]")
        elif (detect < 0).any() or (detect > n_shots).any() \
                or detect.sum() > total.sum():
            problems.append(f"{label}: detection counts inconsistent with "
                            f"totals")
    return problems


def threshold_optimal(pmf_up, pmf_dn, cutoff: int, fidelity: float) -> list[str]:
    """(cutoff, fidelity) is the first maximum of the average fidelity."""
    size = max(len(pmf_up), len(pmf_dn))
    up = np.zeros(size)
    dn = np.zeros(size)
    up[:len(pmf_up)] = pmf_up
    dn[:len(pmf_dn)] = pmf_dn
    fid = 1 - (np.cumsum(up) + 1 - np.cumsum(dn)) / 2
    best = int(np.argmax(fid > fid.max() - 1e-15))
    if best == cutoff and abs(fid[best] - fidelity) < 1e-12:
        return []
    return [f"optimize_threshold: got N={cutoff} ({fidelity:.6f}), "
            f"scan gives N={best} ({fid[best]:.6f})"]


def fields_match(label: str, got, want, names, rel: float) -> list[str]:
    problems = []
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        if not math.isclose(a, b, rel_tol=rel, abs_tol=0.0):
            problems.append(f"{label}: {name} = {a!r}, expected {b!r} "
                            f"within rel {rel:g}")
    return problems


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def manifest_verifies(out_dir) -> list[str]:
    """Every output listed in the run manifest hashes to its digest."""
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            outputs = json.load(fh)["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path}: unreadable manifest ({exc})"]
    if not outputs:
        return [f"{path}: lists no outputs"]
    problems = []
    for name, digest in outputs.items():
        target = os.path.join(out_dir, name)
        if not os.path.exists(target) or _sha256(target) != digest:
            problems.append(f"{target}: SHA-256 does not match the manifest")
    return problems


def batch_file_complete(path, n_shots: int) -> list[str]:
    """A JSON-lines batch holds its header and shots 0..n-1 in order."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            shots = [json.loads(line)["shot"] for line in fh]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path}: unreadable batch file ({exc})"]
    if header.get("n_shots") != n_shots:
        return [f"{path}: header says {header.get('n_shots')} shots, "
                f"expected {n_shots}"]
    if shots != list(range(n_shots)):
        return [f"{path}: holds {len(shots)} shot lines, expected "
                f"shots 0..{n_shots - 1}"]
    return []
