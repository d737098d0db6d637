"""Counter-based random streams for reproducible parallel sampling.

Every shot i of a batch owns an independent stream derived from the master
seed by the splitmix64 construction: the shot seed is the i-th output of
the splitmix64 stream seeded with the master seed, and draw j of that shot
is the j-th output of a splitmix64 stream seeded with the shot seed.  All
draws are pure functions of (master_seed, shot_index, draw_index), so any
partition of a batch across workers produces identical results, and a
single shot can be replayed from its recorded seed alone.

A sampler's draw layout says which draw feeds which variable.  A draw that
a sampler does not need is simply never computed: the effective read
stage (draw layout 2, see trajectory._read_counts) skips the cycles that
cannot give a photon by drawing geometric gaps between the ones that can,
and each of its draws is still a pure function of those three numbers.
"""
from __future__ import annotations

import numpy as np

__all__ = ["shot_seed", "shot_seeds", "uniforms", "poisson_kmax",
           "poisson_from_uniform", "geometric_from_uniform"]

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_INV_2_53 = 2.0 ** -53


def _finalize(z):
    # splitmix64 output mixing, in place on the uint64 array z
    z ^= z >> _U64(30)
    z *= _MIX1
    z ^= z >> _U64(27)
    z *= _MIX2
    z ^= z >> _U64(31)
    return z


def shot_seeds(master_seed: int, shot_index: np.ndarray) -> np.ndarray:
    """Per-shot stream seeds for a vector of shot indices."""
    idx = np.asarray(shot_index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _finalize(_U64(master_seed & 0xFFFFFFFFFFFFFFFF)
                         + (idx + _U64(1)) * _GAMMA)


def shot_seed(master_seed: int, shot_index: int) -> int:
    return int(shot_seeds(master_seed, np.array([shot_index]))[0])


def uniforms(seeds: np.ndarray, draw_index) -> np.ndarray:
    """Uniform [0, 1) draw number `draw_index` for each stream in `seeds`:
    the top 53 bits of that draw's splitmix64 word, times 2**-53.

    `draw_index` is an int or an array of non-negative ints that broadcasts
    against `seeds`: ``uniforms(seeds[None, :], js[:, None])`` holds draw
    ``js[k]`` of every stream in row k, identical to
    ``uniforms(seeds, js[k])``, and an index array of the shape of `seeds`
    gives each stream its own draw.
    """
    with np.errstate(over="ignore"):
        z = _finalize(np.asarray(seeds, dtype=np.uint64)
                      + _U64(draw_index + 1) * _GAMMA)
    z >>= _U64(11)
    u = z.astype(np.float64)
    u *= _INV_2_53
    return u


def poisson_kmax(lam_max: float) -> int:
    """Default count clamp of poisson_from_uniform for rates up to lam_max:
    its 1e-14 upper quantile, with margin."""
    return int(lam_max + 10.0 * np.sqrt(lam_max) + 20.0)


def poisson_from_uniform(u: np.ndarray, lam: np.ndarray,
                         kmax: int | None = None) -> np.ndarray:
    """Poisson counts by inverse CDF, one uniform per count.

    Works elementwise for arrays of matching shape.  Counts beyond `kmax`
    (by default poisson_kmax of the largest rate) are clamped; for the
    per-window rates used here that tail is negligible.  Each element's
    count depends only on its own (u, lam) and on `kmax`.
    """
    u = np.asarray(u, dtype=np.float64)
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), u.shape)
    if kmax is None:
        kmax = poisson_kmax(float(lam.max(initial=0.0)))
    out = np.zeros(u.shape, dtype=np.int64)
    flat = out.reshape(-1)
    cdf0 = np.exp(-lam)
    # the elements whose count is still open, with their uniform, rate,
    # last Poisson term and CDF
    idx = np.flatnonzero(u >= cdf0)
    uf, lf = u.ravel()[idx], lam.ravel()[idx]
    p = cdf0.ravel()[idx]
    cdf = p.copy()
    for k in range(1, kmax + 1):
        if idx.size == 0:
            break
        p *= lf
        p /= k
        cdf += p
        done = uf < cdf
        if done.any():
            flat[idx[done]] = k
            keep = np.flatnonzero(~done)
            idx, uf, lf, p, cdf = (idx[keep], uf[keep], lf[keep], p[keep],
                                   cdf[keep])
    flat[idx] = kmax            # still open after kmax terms: the clamp
    return out


def geometric_from_uniform(u, rate):
    """First-success trial index (>= 1) for per-trial probability `rate`,
    which broadcasts against `u`: the flip times of the effective sampler
    and the gaps between its read candidates.

    rate == 0 yields +inf (the event never occurs).
    """
    u = np.asarray(u, dtype=np.float64)
    rate = np.asarray(rate, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log1p(-u) / np.log1p(-np.minimum(rate, 1 - 1e-15))) + 1.0
    return np.where(rate > 0, k, np.inf)
