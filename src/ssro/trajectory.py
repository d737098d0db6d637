"""Monte Carlo engine producing per-shot photon-count records.

Effective mode samples, per shot: a nuclear initialization error, a
charge-state failure, per-cycle nuclear flips and per-read Poisson photon
counts.  The per-cycle flip probability models the hyperfine flip-flop
that accompanies optical cycling, so it attaches to whichever nuclear
state is being mapped onto the fluorescent electron manifold that cycle:
in the single-read protocol the up state cycles (flip_bd) while the down
state idles (flip_db); in the dual-read protocol both states are cycled
every cycle and both flip at the cycled rate.  Charge-failed shots emit
at the dark rate in every window.

Microscopic mode instead tracks the electron level through the CNOT
pulses and derives the bright emission from the optical model.

All randomness is drawn from counter-based per-shot streams (see rng), so
batches are bit-reproducible for a given master seed under any chunking
or worker schedule, and any record can be replayed from its shot seed.

The effective sampler works on chunks of shots.  It draws the flip cycles
per shot, then each read window by draw layout 2: only the cycles whose
uniform can give a photon at either rate (about 3 % at the calibrated
rates) are drawn, as geometric gaps between them and one value each, and
only they get a state and a Poisson count; see _read_counts.  The layout
version of each mode (_DRAW_LAYOUT) is part of the model fingerprint
every batch records, so batches drawn under different layouts never pass
for the same model.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, field, replace

import numpy as np

from . import rng
from .model import (Electron, Nuclear, PhysicalParams, RegisterState,
                    default_diagram, packaged_defaults)
from .optics import OpticalModel, default_optical_model, propagate
from .protocol import ProtocolSpec, gate_action

__all__ = [
    "ShotModel",
    "ShotRecord",
    "BatchResult",
    "simulate_shot",
    "simulate_batch",
    "cycle_detection_curve",
    "calibrated_shot_model",
    "DEFAULT_CONDITIONAL_WINDOW",
]

DEFAULT_CONDITIONAL_WINDOW = 120

# version of the draw layout of each mode; a change to which draw feeds
# which variable bumps it
_DRAW_LAYOUT = {"effective": 2, "microscopic": 1}

# fixed draw layout of one shot's stream (effective mode); a shot whose
# _MAX_FLIPS-th flip falls inside the record raises rather than truncating.
# Read r of a cycles-cycle protocol takes draws from
# _J_READ + r * (2 * cycles + 1) on (see _read_counts).
_J_INIT = 0
_J_CHARGE = 1
_J_FLIP = 2
_MAX_FLIPS = 12
_J_READ = _J_FLIP + _MAX_FLIPS

_CHUNK = 16384
_GAP_ROUND = 4        # candidate gaps drawn per shot per read-stage round
_IO_BLOCK = 1024      # batch-file records written or parsed per block

# rng.poisson_from_uniform starts its inverse CDF at exp(-lambda), which
# stays a normal double only up to lambda ~ 708; beyond it every count
# would come out as the clamp
_LAMBDA_MAX = 700.0


@dataclass(frozen=True)
class ShotModel:
    """Effective stochastic readout model.

    lambda_bright / lambda_dark are expected detected photons per read
    window when the read's CNOT pair does / does not address the current
    nuclear state.  flip_bd is the per-cycle flip probability of the
    optically cycled state, flip_db of the idle state (see module
    docstring for how the dual protocol maps onto these).
    """

    lambda_bright: float = 0.028
    lambda_dark: float = 0.0016
    flip_bd: float = 7.7e-4
    flip_db: float = 7.7e-4
    nuclear_init_error: float = 0.07
    charge_error: float = 0.0
    mode: str = "effective"

    def __post_init__(self):
        for name in ("lambda_bright", "lambda_dark"):
            if not 0.0 <= getattr(self, name) <= _LAMBDA_MAX:
                raise ValueError(f"{name} must lie in [0, {_LAMBDA_MAX:g}] "
                                 f"photons per read window")
        for name in ("flip_bd", "flip_db", "nuclear_init_error", "charge_error"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.mode not in ("effective", "microscopic"):
            raise ValueError("mode must be 'effective' or 'microscopic'")

    def flip_rates(self, dual: bool) -> tuple[float, float]:
        """(cycled-state rate, idle-state rate) resolved for the protocol."""
        if dual:
            return self.flip_bd, self.flip_bd
        return self.flip_bd, self.flip_db

    def to_dict(self) -> dict:
        return asdict(self)

    def fingerprint(self) -> str:
        """Hash of the fields and of the draw layout of the model's mode."""
        text = json.dumps(dict(self.to_dict(),
                               draw_layout=_DRAW_LAYOUT[self.mode]),
                          sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def calibrated_shot_model() -> ShotModel:
    """The shipped calibrated effective model (the ``shot_model`` section of
    data/defaults.json, from analysis.fit_shot_model)."""
    return ShotModel(**packaged_defaults()["shot_model"])


@dataclass(frozen=True)
class ShotRecord:
    """One single-shot run."""

    prepared: Nuclear
    seed: int
    total1: int
    total2: int | None = None
    head1: int | None = None          # photons in the first head_window cycles
    head2: int | None = None
    counts_read1: tuple | None = None
    counts_read2: tuple | None = None

    def __post_init__(self):
        if self.counts_read1 is not None and sum(self.counts_read1) != self.total1:
            raise ValueError("total1 must equal the sum of counts_read1")
        if self.counts_read2 is not None and self.total2 is not None \
                and sum(self.counts_read2) != self.total2:
            raise ValueError("total2 must equal the sum of counts_read2")


@dataclass
class BatchResult:
    """Struct-of-arrays result of simulate_batch.

    detect1/detect2 count, per cycle, the shots that saw at least one
    photon in that cycle's read window (the detection-curve aggregate).
    """

    prepared: Nuclear
    master_seed: int
    n_shots: int
    cycles: int
    reads_per_cycle: int
    head_window: int
    model_fingerprint: str
    protocol_fingerprint: str
    total1: np.ndarray = field(repr=False)
    head1: np.ndarray = field(repr=False)
    detect1: np.ndarray = field(repr=False)
    total2: np.ndarray | None = field(repr=False, default=None)
    head2: np.ndarray | None = field(repr=False, default=None)
    detect2: np.ndarray | None = field(repr=False, default=None)
    counts1: np.ndarray | None = field(repr=False, default=None)
    counts2: np.ndarray | None = field(repr=False, default=None)

    def column(self, name: str, read: int) -> np.ndarray:
        """Column ``name`` ("total", "head" or "detect") of read 1 or 2."""
        if read not in range(1, self.reads_per_cycle + 1):
            raise ValueError(f"batch has no read {read!r}: its reads are "
                             f"1..{self.reads_per_cycle}")
        return getattr(self, f"{name}{read}")

    def record(self, i: int) -> ShotRecord:
        return ShotRecord(
            prepared=self.prepared,
            seed=rng.shot_seed(self.master_seed, i),
            total1=int(self.total1[i]),
            total2=None if self.total2 is None else int(self.total2[i]),
            head1=int(self.head1[i]),
            head2=None if self.head2 is None else int(self.head2[i]),
            counts_read1=None if self.counts1 is None else tuple(self.counts1[i]),
            counts_read2=None if self.counts2 is None else tuple(self.counts2[i]),
        )

    def save_jsonl(self, path, full_cycles: bool = False) -> None:
        """One JSON record per line after a header line.

        Per-cycle count arrays are included only on request to keep
        million-shot files small.  The records are written _IO_BLOCK shots
        at a time: each column's slice becomes Python ints with one tolist
        call, and one format template gives each line the text json.dumps
        gives the record, keys in the same order, so the file is byte for
        byte the one a json.dumps per record writes.
        """
        if full_cycles and self.counts1 is None:
            raise ValueError("batch was simulated without keep_cycles")
        header = dict(
            kind="batch_header",
            prepared=self.prepared.value,
            master_seed=self.master_seed,
            n_shots=self.n_shots,
            cycles=self.cycles,
            reads_per_cycle=self.reads_per_cycle,
            head_window=self.head_window,
            model_fingerprint=self.model_fingerprint,
            protocol_fingerprint=self.protocol_fingerprint,
            detect1=self.detect1.tolist(),
            detect2=None if self.detect2 is None else self.detect2.tolist(),
        )
        columns = {"total1": self.total1, "head1": self.head1}
        if self.total2 is not None:
            columns.update(total2=self.total2, head2=self.head2)
        if full_cycles:
            columns["counts1"] = self.counts1
            if self.counts2 is not None:
                columns["counts2"] = self.counts2
        line = "{{" + ", ".join(f'"{key}": {{}}' for key in
                                ("shot", "seed", *columns)) + "}}\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for lo in range(0, self.n_shots, _IO_BLOCK):
                hi = min(lo + _IO_BLOCK, self.n_shots)
                seeds = rng.shot_seeds(self.master_seed,
                                       np.arange(lo, hi, dtype=np.uint64))
                fh.write("".join(map(
                    line.format, range(lo, hi), seeds.tolist(),
                    *(col[lo:hi].tolist() for col in columns.values()))))

    @classmethod
    def load_jsonl(cls, path) -> "BatchResult":
        """Read a save_jsonl file, _IO_BLOCK records at a time.

        Each block of lines is parsed with one JSON decode and sliced into
        the columns; per-cycle counts are read when the first record
        holds them.  A file that is not a batch file, a header that
        save_jsonl would not write (see _check_header), a line that is not
        one JSON record, a record that lacks a column or holds a value of
        the wrong shape, or shots other than 0..n-1 in order raise
        ValueError naming the file and the line or header field (or, where
        a value cannot be placed, the first line of its block).
        """
        with open(path, "r", encoding="utf-8") as fh:
            try:
                header = json.loads(fh.readline())
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line 1 is not JSON "
                                 f"({exc.msg})") from None
            if not isinstance(header, dict) \
                    or header.get("kind") != "batch_header":
                raise ValueError(f"{path}: not a batch file")
            _check_header(path, header)
            n = header["n_shots"]
            dual = header["reads_per_cycle"] == 2
            columns = {name: np.empty(n, dtype=np.int64) for name in
                       ("total1", "head1", "total2", "head2")[:4 if dual else 2]}
            i = 0
            while lines := list(itertools.islice(fh, _IO_BLOCK)):
                recs = _parse_records(path, lines, i + 2)
                shots = _field(path, recs, "shot", i + 2)
                expected = np.arange(i, i + len(recs))
                bad = np.flatnonzero((shots != expected) | (expected >= n))
                if bad.size:
                    k = bad[0]
                    raise ValueError(
                        f"{path}: line {i + k + 2} holds shot "
                        f"{recs[k]['shot']}; expected shots "
                        f"0..{n - 1} in order")
                if i == 0 and "counts1" in recs[0]:
                    for name in ("counts1", "counts2")[:2 if dual else 1]:
                        columns[name] = np.zeros((n, header["cycles"]),
                                                 dtype=np.int16)
                for name, out in columns.items():
                    out[i:i + len(recs)] = _field(path, recs, name, i + 2,
                                                  out.dtype, out.shape[1:])
                i += len(recs)
            if i != n:
                raise ValueError(f"{path}: {i} shot records, header "
                                 f"declares {n}")
        return cls(
            prepared=Nuclear(header["prepared"]),
            master_seed=header["master_seed"],
            n_shots=n,
            cycles=header["cycles"],
            reads_per_cycle=header["reads_per_cycle"],
            head_window=header["head_window"],
            model_fingerprint=header["model_fingerprint"],
            protocol_fingerprint=header["protocol_fingerprint"],
            detect1=np.asarray(header["detect1"], dtype=np.int64),
            detect2=(None if header["detect2"] is None
                     else np.asarray(header["detect2"], dtype=np.int64)),
            **columns,
        )


# the header fields save_jsonl writes, each with its JSON type
_HEADER_TYPES = dict(
    kind=str, prepared=str, master_seed=int, n_shots=int, cycles=int,
    reads_per_cycle=int, head_window=int, model_fingerprint=str,
    protocol_fingerprint=str, detect1=list, detect2=(list, type(None)))


def _check_header(path, header: dict) -> None:
    """Raise ValueError naming ``path`` and the field unless ``header`` has
    exactly save_jsonl's fields, each of its type and in its range."""
    def bad(name, why):
        raise ValueError(f"{path}: header field {name!r} {why}")

    for name in sorted(header.keys() - _HEADER_TYPES.keys()):
        bad(name, "is not a batch header field")
    for name, kind in _HEADER_TYPES.items():
        if name not in header:
            bad(name, "is missing")
        value = header[name]
        if isinstance(value, bool) or not isinstance(value, kind):
            bad(name, f"is {value!r}, not of type "
                      f"{getattr(kind, '__name__', 'list or null')}")
    if header["prepared"] not in [p.value for p in Nuclear]:
        bad("prepared", f"is {header['prepared']!r}, not 'up' or 'down'")
    if not 0 <= header["master_seed"] < 2**64:
        bad("master_seed", "must lie in [0, 2**64)")
    for name in ("n_shots", "cycles"):
        if header[name] < 1:
            bad(name, f"is {header[name]}, not >= 1")
    reads, cycles = header["reads_per_cycle"], header["cycles"]
    if reads not in (1, 2):
        bad("reads_per_cycle", f"is {reads}, not 1 or 2")
    if not 1 <= header["head_window"] <= cycles:
        bad("head_window", f"is {header['head_window']}, not in [1, cycles "
                           f"= {cycles}]")
    if (header["detect2"] is None) != (reads == 1):
        bad("detect2", f"must be {'null' if reads == 1 else 'a list'} for "
                       f"{reads} read(s) per cycle")
    for name in ("detect1", "detect2")[:reads]:
        counts = header[name]
        if len(counts) != cycles or not all(
                type(c) is int and 0 <= c <= header["n_shots"]
                for c in counts):
            bad(name, f"must hold {cycles} counts in [0, n_shots]")


def _not_integer(text):
    raise ValueError(f"non-integer number {text}")


# batch records hold only integers, strings and lists; a float, NaN or
# Infinity is a malformed record, not a count to truncate
_decode = json.JSONDecoder(parse_float=_not_integer,
                           parse_constant=_not_integer).decode


def _parse_records(path, lines, first_line):
    """The records of consecutive batch-file ``lines``, the first of which
    is line ``first_line``, parsed with one decoder call on the lines joined
    into a JSON array.

    On a parse failure, or a record count other than the line count (two
    records on one line), the lines are parsed one by one, which names the
    bad line.
    """
    try:
        recs = _decode("[" + ",".join(lines) + "]")
        if len(recs) == len(lines):
            return recs
    except ValueError:
        pass
    recs = []
    for k, line in enumerate(lines):
        try:
            recs.append(_decode(line))
        except ValueError as exc:
            raise ValueError(f"{path}: line {first_line + k} is not a JSON "
                             f"record of integers "
                             f"({getattr(exc, 'msg', exc)})") from None
    return recs


def _field(path, recs, name, first_line, dtype=np.int64, shape=()):
    """Field ``name`` of every record in ``recs`` (the first from line
    ``first_line``) as an array of ``dtype`` with rows of ``shape``."""
    try:
        values = np.array([rec[name] for rec in recs], dtype=dtype)
        if values.shape[1:] == shape:
            return values
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    for k, rec in enumerate(recs):
        if not isinstance(rec, dict) or name not in rec:
            raise ValueError(f"{path}: line {first_line + k} has no "
                             f"{name!r} field")
    kind = np.dtype(dtype).name
    what = f"rows of {shape[0]} {kind} values" if shape else f"{kind} values"
    raise ValueError(f"{path}: the {name!r} values of lines {first_line}.."
                     f"{first_line + len(recs) - 1} are not all {what}")


def _flip_cap_error(rate_cycled: float, rate_idle: float,
                    cycles: int) -> ValueError:
    return ValueError(
        f"a shot flipped {_MAX_FLIPS} times within {cycles} cycles (flip "
        f"rates {rate_cycled:g} cycled, {rate_idle:g} idle per cycle); the "
        f"draw layout holds at most {_MAX_FLIPS} flips per shot, so the "
        f"sampler cannot represent this model")


def _simulate_chunk(model: ShotModel, protocol: ProtocolSpec, prepared: Nuclear,
                    seeds: np.ndarray, head_window: int, keep_cycles: bool):
    """Vectorized effective-mode sampling of the shots with stream ``seeds``.

    Draws the init and charge errors and each shot's flip cycles
    (``bounds``: one array per flip index, the cycle of that flip or int64
    max), then the read counts of each read window with _read_counts.
    Returns a dict of total, head and detect arrays per read, and the int16
    per-cycle counts when ``keep_cycles``; the read-2 entries are None for
    single-read protocols.
    """
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
        raise _flip_cap_error(rate_cycled, rate_idle, cycles)

    active = ~charge_bad
    out = dict(total2=None, head2=None, detect2=None, counts2=None)
    for r, start in enumerate((bright0, ~bright0) if dual else (bright0,)):
        names = (f"total{r + 1}", f"head{r + 1}", f"detect{r + 1}",
                 f"counts{r + 1}")
        out.update(zip(names, _read_counts(
            model, seeds, _J_READ + r * (2 * cycles + 1), cycles,
            head_window, start, bounds, active, keep_cycles)))
    return out


def _states_present(start, bounds, cycles):
    """Per shot, whether its boolean state is True / False in at least one
    of cycles 1..cycles.  The state is ``start`` and toggles at each of the
    shot's flip cycles ``bounds`` (a flip at cycle b takes effect from
    cycle b on; each later flip falls strictly later)."""
    far = np.iinfo(np.int64).max
    first = bounds[0] if bounds else far
    second = bounds[1] if len(bounds) > 1 else far
    keeps = (first > 1) | (second <= cycles)
    leaves = first <= cycles
    return ((start & keeps) | (~start & leaves),
            (~start & keeps) | (start & leaves))


def _read_counts(model, seeds, first_draw, cycles, head_window, bright0,
                 bounds, active, keep_cycles):
    """Photon counts of one read window per cycle, as (total, head, detect,
    counts or None), by draw layout 2.

    Shot i is bright at cycle c (1-based) when ``bright0[i]`` xor the
    parity of its flip cycles ``bounds`` <= c; it emits at lambda_bright
    when bright and ``active[i]``, else at lambda_dark.

    poisson_from_uniform returns 0 wherever u < exp(-lam), so a cycle whose
    uniform lies below ``floor`` = exp(-max(lambda_bright, lambda_dark)) is
    a zero count in either state.  The other cycles, the candidates, form a
    Bernoulli process with probability ``p`` = 1 - floor per cycle, and
    only they are drawn: candidate m of a shot (from 0) takes the gap from
    the previous candidate (or from cycle 0) as rng.geometric_from_uniform
    of draw ``first_draw + 2m``, and a value v from draw
    ``first_draw + 2m + 1``.  Its uniform, floor + p * v, is uniform on
    [floor, 1) as the uniform of a candidate cycle is.  A read of ``cycles``
    cycles takes at most 2 * cycles + 1 draws, the last a gap that passes
    the end.  Each candidate gets the state of its cycle and
    poisson_from_uniform(u, lam, kmax), with ``kmax`` the default clamp of
    the largest rate any shot of the chunk takes in the window
    (_states_present).

    The shots are walked in rounds.  A round draws the next _GAP_ROUND
    gaps and values of every shot still inside the window, so all of them
    have drawn equally many, turns its candidates into counts, and adds the
    non-zero ones to the totals, heads, detection curve and per-cycle
    counts; a shot leaves once a gap passes the last cycle.  The round
    size does not change the counts.  A gap or value past the read's last
    draw is never used, and is drawn at that index instead, so no read
    touches another read's draws.
    """
    n = len(seeds)
    lam_on, lam_off = model.lambda_bright, model.lambda_dark
    has_on, has_off = _states_present(bright0, bounds, cycles)
    kmax = rng.poisson_kmax(max(lam_on if (active & has_on).any() else 0.0,
                                lam_off if (~active | has_off).any() else 0.0))
    lam_max = max(lam_on, lam_off)
    floor, p = math.exp(-lam_max), -math.expm1(-lam_max)
    # the rate of each shot before its first flip, and that flip's cycle;
    # a charge-failed shot stays at lambda_dark whatever its flips
    lam0 = np.where(bright0 & active, lam_on, lam_off)
    far = np.iinfo(np.int64).max
    first_flip = np.where(active, bounds[0], far) if bounds else np.full(n, far)

    total = np.zeros(n)
    head = np.zeros(n)
    detect = np.zeros(cycles, dtype=np.int64)
    counts = np.zeros((n, cycles), dtype=np.int16) if keep_cycles else None
    steps = np.arange(_GAP_ROUND)[:, None]
    last = first_draw + 2 * cycles
    live = np.arange(n)            # shots still inside the window
    pos = np.zeros(n)              # the cycle of each one's last candidate
    for drawn in itertools.count(0, _GAP_ROUND):
        gap_draw = np.minimum(first_draw + 2 * (drawn + steps), last)
        stream = seeds[live]
        at = pos + np.cumsum(rng.geometric_from_uniform(
            rng.uniforms(stream, gap_draw), p), axis=0)
        inside = at <= cycles
        shot = np.broadcast_to(live, inside.shape)[inside]
        cycle = at[inside]
        u = floor + p * rng.uniforms(stream,
                                     np.minimum(gap_draw + 1, last))[inside]
        lam = lam0[shot]
        flipped = np.flatnonzero(cycle >= first_flip[shot])
        if flipped.size:
            sh, cy = shot[flipped], cycle[flipped]
            bright = bright0[sh]
            for b in bounds:
                bright ^= cy >= b[sh]
            lam[flipped] = np.where(bright, lam_on, lam_off)
        k = rng.poisson_from_uniform(u, lam, kmax)
        hit = np.flatnonzero(k)
        shot, cycle, k = shot[hit], cycle[hit].astype(np.int64), k[hit]
        early = cycle <= head_window
        total += np.bincount(shot, weights=k, minlength=n)
        head += np.bincount(shot[early], weights=k[early], minlength=n)
        detect += np.bincount(cycle - 1, minlength=cycles)
        if keep_cycles:
            counts[shot, cycle - 1] = k
        more = inside[-1]
        if not more.any():
            break
        live, pos = live[more], at[-1, more]
    return total.astype(np.int64), head.astype(np.int64), detect, counts


def simulate_shot(model: ShotModel, protocol: ProtocolSpec, prepared: Nuclear,
                  seed: int,
                  params: PhysicalParams | None = None,
                  optical: OpticalModel | None = None,
                  head_window: int | None = None,
                  bright_window: tuple[float, float] | None = None
                  ) -> ShotRecord:
    """Simulate one shot from its own stream seed.

    In effective mode this runs the batch sampler on a one-shot chunk, so
    ``simulate_shot(..., seed=batch.record(i).seed)`` reproduces record i
    bit for bit.  Microscopic mode consumes the same stream sequentially,
    and simulate_batch calls this function once per shot.  Its
    ``bright_window`` is the (detected photons, pump-out probability) pair
    of one laser window of ``optical``, as ``_bright_window`` computes it;
    simulate_batch computes it once per batch, and a single shot computes
    it when it is omitted.
    """
    head_window = _resolve_head_window(head_window, protocol.cycles)
    if model.mode == "microscopic":
        if bright_window is None:
            bright_window = _bright_window(optical or default_optical_model(),
                                           protocol)
        return _simulate_shot_microscopic(model, protocol, prepared, seed,
                                          params or PhysicalParams(),
                                          bright_window, head_window)
    out = _simulate_chunk(model, protocol, prepared,
                          np.array([seed], dtype=np.uint64), head_window,
                          keep_cycles=True)
    return _record(prepared, seed, out["counts1"][0],
                   None if out["counts2"] is None else out["counts2"][0],
                   head_window)


def _record(prepared, seed, counts1, counts2, head_window) -> ShotRecord:
    return ShotRecord(
        prepared=prepared, seed=seed,
        total1=int(counts1.sum()),
        total2=None if counts2 is None else int(counts2.sum()),
        head1=int(counts1[:head_window].sum()),
        head2=None if counts2 is None else int(counts2[:head_window].sum()),
        counts_read1=tuple(int(x) for x in counts1),
        counts_read2=None if counts2 is None else tuple(int(x) for x in counts2),
    )


def _resolve_head_window(head_window, cycles):
    if head_window is None:
        return min(DEFAULT_CONDITIONAL_WINDOW, cycles)
    if not 1 <= head_window <= cycles:
        raise ValueError("head window must lie in [1, cycles]")
    return head_window


def simulate_batch(model: ShotModel, protocol: ProtocolSpec, prepared: Nuclear,
                   n_shots: int, master_seed: int,
                   keep_cycles: bool = False,
                   head_window: int | None = None,
                   n_workers: int = 1,
                   params: PhysicalParams | None = None,
                   optical: OpticalModel | None = None) -> BatchResult:
    """Simulate n_shots independent shots.

    Shots are partitioned into fixed-size chunks; each chunk is a pure
    function of the master seed and its shot indices, so results are
    identical for any worker count or scheduling order.  Microscopic chunks
    call simulate_shot per shot, with the laser window propagated once for
    the batch; _merge joins the chunks of either mode.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    head_window = _resolve_head_window(head_window, protocol.cycles)
    if model.mode == "microscopic":
        bright_window = _bright_window(optical or default_optical_model(),
                                       protocol)

    def run(lo):
        hi = min(lo + _CHUNK, n_shots)
        if model.mode == "microscopic":
            records = [simulate_shot(model, protocol, prepared,
                                     rng.shot_seed(master_seed, i),
                                     params=params, optical=optical,
                                     head_window=head_window,
                                     bright_window=bright_window)
                       for i in range(lo, hi)]
            return _record_columns(records, protocol.reads_per_cycle,
                                   head_window, keep_cycles)
        seeds = rng.shot_seeds(master_seed, np.arange(lo, hi, dtype=np.uint64))
        return _simulate_chunk(model, protocol, prepared, seeds, head_window,
                               keep_cycles)

    starts = range(0, n_shots, _CHUNK)
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(run, starts))
    else:
        parts = [run(lo) for lo in starts]

    return BatchResult(
        prepared=prepared, master_seed=master_seed, n_shots=n_shots,
        cycles=protocol.cycles, reads_per_cycle=protocol.reads_per_cycle,
        head_window=head_window,
        model_fingerprint=model.fingerprint(),
        protocol_fingerprint=protocol.fingerprint(),
        **_merge(parts))


def _record_columns(records, reads, head_window, keep_cycles):
    """The columns _simulate_chunk returns, from the records of its shots."""
    out = dict(total2=None, head2=None, detect2=None, counts2=None)
    for r in range(1, reads + 1):
        counts = np.array([getattr(rec, f"counts_read{r}") for rec in records])
        out[f"total{r}"] = counts.sum(axis=1)
        out[f"head{r}"] = counts[:, :head_window].sum(axis=1)
        out[f"detect{r}"] = (counts >= 1).sum(axis=0)
        out[f"counts{r}"] = counts.astype(np.int16) if keep_cycles else None
    return out


def _merge(parts):
    """One batch's columns from its chunks' columns, in shot order: per-shot
    columns are concatenated and detection curves summed."""
    merged = dict.fromkeys(parts[0])
    for key in merged:
        columns = [part[key] for part in parts]
        if columns[0] is not None:
            merged[key] = (sum(columns) if key.startswith("detect")
                           else np.concatenate(columns))
    return merged


def cycle_detection_curve(batch: BatchResult, read: int = 1):
    """Per-cycle probability of detecting at least one photon.

    Returns (p, stderr) arrays of length cycles, with binomial standard
    errors.
    """
    if batch.n_shots < 1:
        raise ValueError("empty batch")
    p = batch.column("detect", read) / batch.n_shots
    se = np.sqrt(np.clip(p * (1 - p), 0, None) / batch.n_shots)
    return p, se


# --- microscopic mode -------------------------------------------------------

_PUMP_TO = {Electron.PLUS_3_2: Electron.PLUS_1_2,
            Electron.MINUS_3_2: Electron.MINUS_1_2}


class _Draws:
    """One shot's stream, drawn in one call and handed out in order
    (the ``rng`` of gate_action)."""

    def __init__(self, seed, n):
        self.u = rng.uniforms(np.array([seed], dtype=np.uint64), np.arange(n))
        self.values = self.u.tolist()
        self.j = 0

    def random(self):
        self.j += 1
        return self.values[self.j - 1]


def _bright_window(optical, protocol):
    """(detected photons, pump-out probability) of one laser window of the
    protocol on a bright electron, from one propagation of the optical
    model: the photons are its expected_cycle_photons."""
    curve = propagate(optical, protocol.laser_window_us)
    return (curve.detected_photons(),
            curve.pump_fidelity(protocol.laser_window_us))


def _simulate_shot_microscopic(model, protocol, prepared, seed, params,
                               bright_window, head_window):
    """Track the electron through the pulses of the protocol's readout
    cycle; emission comes from optics.

    The bright window rate and pump-out probability are the
    ``bright_window`` pair of the optical model (``_bright_window``);
    lambda_dark remains the effective background bundle.  Each cycle takes
    a flip draw, a draw per MW pulse that addresses the register, and a
    count draw per read plus a pump-out draw after a bright one.  The
    stream is drawn once, up to the most draws a cycle can take, and the
    counts of each rate come from one poisson_from_uniform call.
    """
    diagram = default_diagram()
    lam_bright, pump_out = bright_window
    body = protocol.cycle_pulses
    most = 1 + sum(2 if p.read_slot else p.kind == "mw_pi" for p in body)
    stream = _Draws(seed, 2 + protocol.cycles * most)

    inverted = stream.random() < model.nuclear_init_error
    charge_ok = stream.random() >= model.charge_error
    nuclear = prepared.flipped() if inverted else prepared
    state = RegisterState(electron=Electron.PLUS_1_2, nuclear=nuclear,
                          charge_ok=charge_ok)

    rate_cycled, rate_idle = model.flip_rates(protocol.dual)
    reads = ([], [])          # (draw, read, cycle) at the bright, dark rate
    for c in range(protocol.cycles):
        cycled = protocol.dual or state.nuclear is Nuclear.UP
        if stream.random() < (rate_cycled if cycled else rate_idle):
            state = replace(state, nuclear=state.nuclear.flipped())
        for pulse in body:
            if not pulse.read_slot:
                state = gate_action(pulse, state, params, stream,
                                    diagram=diagram)
                continue
            bright = state.charge_ok and state.electron in _PUMP_TO
            reads[0 if bright else 1].append((stream.j, pulse.read_slot - 1, c))
            stream.j += 1
            if bright and stream.random() < pump_out:
                state = replace(state, electron=_PUMP_TO[state.electron])

    counts = np.zeros((protocol.reads_per_cycle, protocol.cycles),
                      dtype=np.int64)
    for lam, sink in zip((lam_bright + model.lambda_dark, model.lambda_dark),
                         reads):
        j, read, c = np.array(sink, dtype=np.int64).reshape(-1, 3).T
        counts[read, c] = rng.poisson_from_uniform(stream.u[j], lam)
    return _record(prepared, seed, counts[0],
                   counts[1] if protocol.dual else None, head_window)
