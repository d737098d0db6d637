"""Pulse sequences for initialization and readout, and gate actions.

A readout cycle maps the nuclear state onto the electron with two
conditional MW pi-pulses and then reads the electron with a laser window.
The MW "A" pulses fire only when the nucleus is up, the "B" pulses only
when it is down, so per cycle the electron is restored to the fluorescent
+-3/2 manifold exactly when the addressed nuclear state is present.

A ProtocolSpec's cycle count, reads per cycle and read window are read
from its readout sequence.

Sequences can be written in a small text format (see parse_sequence) and
round-trip through print_sequence.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property

from .model import (LevelDiagram, PhysicalParams, RegisterState,
                    default_diagram)

__all__ = [
    "Pulse",
    "Repeat",
    "Sequence",
    "ProtocolSpec",
    "ProtocolError",
    "SequenceSyntaxError",
    "mw_pi",
    "laser",
    "wait",
    "build_standard_readout",
    "build_dual_step_readout",
    "parse_sequence",
    "print_sequence",
    "gate_action",
]

DEFAULT_CYCLES = 250
DEFAULT_LASER_WINDOW_US = 1.5
DEFAULT_PI_DURATION_US = 1.0     # not independently measured; bookkeeping only
ELECTRON_INIT_US = 50.0
SWAP_GATE_US = 50.0              # opaque block standing in for the swap gate
PRE_READOUT_PUMP_US = 10.0


class ProtocolError(ValueError):
    """Invalid sequence or protocol structure."""


class SequenceSyntaxError(ProtocolError):
    """Sequence text that does not parse; carries line/column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Pulse:
    kind: str                        # "mw_pi" | "laser" | "wait"
    label: str | None = None         # transition label for mw_pi/laser
    duration_us: float | None = None
    read_slot: int | None = None     # 1 or 2 for tagged laser windows

    def __post_init__(self):
        if self.kind not in ("mw_pi", "laser", "wait"):
            raise ProtocolError(f"unknown pulse kind {self.kind!r}")
        if self.kind in ("laser", "wait"):
            if self.duration_us is None or self.duration_us <= 0:
                raise ProtocolError(f"{self.kind} pulse needs a positive duration")
        if self.kind in ("mw_pi", "laser") and not self.label:
            raise ProtocolError(f"{self.kind} pulse needs a transition label")
        if self.read_slot is not None and self.read_slot not in (1, 2):
            raise ProtocolError("read slot must be 1 or 2")
        if self.read_slot is not None and self.kind != "laser":
            raise ProtocolError("only a laser pulse can carry a read slot")


def mw_pi(label: str) -> Pulse:
    return Pulse("mw_pi", label=label)


def laser(label: str, duration_us: float, read_slot: int | None = None) -> Pulse:
    return Pulse("laser", label=label, duration_us=duration_us, read_slot=read_slot)


def wait(duration_us: float) -> Pulse:
    return Pulse("wait", duration_us=duration_us)


@dataclass(frozen=True)
class Repeat:
    count: int
    body: "Sequence"

    def __post_init__(self):
        if self.count < 1:
            raise ProtocolError("repeat count must be >= 1")


@dataclass(frozen=True)
class Sequence:
    name: str = field(default="", compare=False)
    blocks: tuple = ()

    def __post_init__(self):
        for b in self.blocks:
            if not isinstance(b, (Pulse, Repeat)):
                raise ProtocolError("sequence blocks must be pulses or repeats")

    def duration_us(self, pi_duration_us: float = DEFAULT_PI_DURATION_US) -> float:
        total = 0.0
        for b in self.blocks:
            if isinstance(b, Repeat):
                total += b.count * b.body.duration_us(pi_duration_us)
            elif b.kind == "mw_pi":
                total += pi_duration_us
            else:
                total += b.duration_us
        return total

    def count_read_slots(self) -> int:
        n = 0
        for b in self.blocks:
            if isinstance(b, Repeat):
                n += b.count * b.body.count_read_slots()
            elif b.kind == "laser" and b.read_slot is not None:
                n += 1
        return n

    def structurally_equal(self, other: "Sequence") -> bool:
        """Equality on pulse content, ignoring sequence names."""
        return self == other


@dataclass(frozen=True)
class ProtocolSpec:
    """Init and readout sequences; the layout the samplers use is read
    from the readout, so the two cannot disagree.

    The readout must be one Repeat of a cycle of pulses whose read windows
    are tagged read1, or read1 then read2, and share one duration.
    """

    init: Sequence
    readout: Sequence
    pi_duration_us: float = DEFAULT_PI_DURATION_US

    def __post_init__(self):
        blocks = self.readout.blocks
        if len(blocks) != 1 or not isinstance(blocks[0], Repeat):
            raise ProtocolError("readout must be a single repeat block")
        if not all(isinstance(b, Pulse) for b in self.cycle_pulses):
            raise ProtocolError("readout cycle must hold only pulses")
        reads = [p for p in self.cycle_pulses if p.read_slot]
        if [p.read_slot for p in reads] not in ([1], [1, 2]):
            raise ProtocolError("readout cycle must tag read slots 1, or 1 "
                                "then 2")
        if len({p.duration_us for p in reads}) > 1:
            raise ProtocolError("read windows must share one duration")

    @cached_property
    def cycle_pulses(self) -> tuple:
        """The pulses of one readout cycle, in order."""
        return self.readout.blocks[0].body.blocks

    @cached_property
    def cycles(self) -> int:
        return self.readout.blocks[0].count

    @cached_property
    def reads_per_cycle(self) -> int:
        return self.readout.count_read_slots() // self.cycles

    @cached_property
    def laser_window_us(self) -> float:
        return next(p.duration_us for p in self.cycle_pulses if p.read_slot)

    @cached_property
    def dual(self) -> bool:
        return self.reads_per_cycle == 2

    def readout_duration_us(self) -> float:
        return self.readout.duration_us(self.pi_duration_us)

    def total_duration_us(self) -> float:
        return (self.init.duration_us(self.pi_duration_us)
                + self.readout_duration_us())

    def fingerprint(self) -> str:
        import hashlib
        text = print_sequence(self.init) + "|" + print_sequence(self.readout)
        text += f"|{self.cycles}|{self.reads_per_cycle}|{self.pi_duration_us}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _init_sequence() -> Sequence:
    # Electron pumping, then an opaque block standing in for the
    # electron-nuclear swap (its internal pulse decomposition is not
    # modelled), then the pre-readout A2 pump.
    return Sequence("init", (
        laser("A1", ELECTRON_INIT_US),
        wait(SWAP_GATE_US),
        laser("A2", PRE_READOUT_PUMP_US),
    ))


def _readout_spec(conditions, cycles, laser_window_us,
                  pi_duration_us) -> ProtocolSpec:
    """Per cycle and condition c: MW1c, MW3c, then an A2 read window."""
    pulses = ()
    for slot, c in enumerate(conditions, 1):
        pulses += (mw_pi(f"MW1{c}"), mw_pi(f"MW3{c}"),
                   laser("A2", laser_window_us, read_slot=slot))
    readout = Sequence("readout", (Repeat(cycles, Sequence("cycle", pulses)),))
    return ProtocolSpec(_init_sequence(), readout, pi_duration_us)


def build_standard_readout(params: PhysicalParams,
                           cycles: int = DEFAULT_CYCLES,
                           laser_window_us: float = DEFAULT_LASER_WINDOW_US,
                           pi_duration_us: float = DEFAULT_PI_DURATION_US,
                           ) -> ProtocolSpec:
    """Single-read protocol: per cycle [MW1A, MW3A, A2 laser -> read1]."""
    return _readout_spec("A", cycles, laser_window_us, pi_duration_us)


def build_dual_step_readout(params: PhysicalParams,
                            cycles: int = DEFAULT_CYCLES,
                            laser_window_us: float = DEFAULT_LASER_WINDOW_US,
                            pi_duration_us: float = DEFAULT_PI_DURATION_US,
                            ) -> ProtocolSpec:
    """Dual-read protocol: the A-conditioned read is followed by the
    complementary B-conditioned read every cycle."""
    return _readout_spec("AB", cycles, laser_window_us, pi_duration_us)


# --- sequence text format ---------------------------------------------------
#
#   stmt := "mw_pi" LABEL ";" | "laser" LABEL DURATION [READTAG] ";"
#         | "wait" DURATION ";" | "repeat" INT "{" stmt* "}" [";"]
#   DURATION := number unit, unit in {ns, us, ms}; READTAG := read1 | read2
#   comments run from "#" to end of line

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<dur>\d+(?:\.\d+)?(?:ns|us|ms)\b)"
    r"|(?P<int>\d+\b)|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[;{}])")

_UNIT_US = {"ns": 1e-3, "us": 1.0, "ms": 1e3}


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SequenceSyntaxError(f"unexpected character {text[pos]!r}",
                                      line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, diagram):
        self.tokens = tokens
        self.pos = 0
        self.diagram = diagram

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind=None) -> _Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise SequenceSyntaxError(
                f"expected {kind}, found {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def fail(self, message):
        tok = self.peek()
        raise SequenceSyntaxError(message, tok.line, tok.column)

    def parse_duration(self) -> float:
        tok = self.take()
        if tok.kind != "dur":
            raise SequenceSyntaxError(
                f"expected a duration like 1.5us, found {tok.text!r}",
                tok.line, tok.column)
        value = float(tok.text[:-2])
        unit = tok.text[-2:]
        us = value * _UNIT_US[unit]
        if us <= 0:
            raise SequenceSyntaxError("duration must be positive",
                                      tok.line, tok.column)
        return us

    def parse_label(self) -> str:
        tok = self.take()
        if tok.kind != "word":
            raise SequenceSyntaxError(
                f"expected a transition label, found {tok.text!r}",
                tok.line, tok.column)
        try:
            self.diagram.find(tok.text)
        except Exception:
            raise SequenceSyntaxError(
                f"unknown transition label {tok.text!r}", tok.line, tok.column)
        return tok.text

    def parse_stmts(self, stop: str) -> list:
        blocks = []
        while True:
            tok = self.peek()
            if tok.kind == stop or (stop == "}" and tok.text == "}"):
                return blocks
            if tok.kind == "eof":
                if stop == "eof":
                    return blocks
                self.fail("unexpected end of input, missing '}'")
            blocks.append(self.parse_stmt())

    def parse_stmt(self):
        tok = self.take()
        if tok.kind != "word":
            raise SequenceSyntaxError(
                f"expected a statement, found {tok.text!r}", tok.line, tok.column)
        if tok.text == "mw_pi":
            label = self.parse_label()
            self.expect_semi()
            return mw_pi(label)
        if tok.text == "laser":
            label = self.parse_label()
            dur = self.parse_duration()
            slot = None
            nxt = self.peek()
            if nxt.kind == "word" and nxt.text in ("read1", "read2"):
                self.take()
                slot = 1 if nxt.text == "read1" else 2
            self.expect_semi()
            return laser(label, dur, read_slot=slot)
        if tok.text == "wait":
            dur = self.parse_duration()
            self.expect_semi()
            return wait(dur)
        if tok.text == "repeat":
            count_tok = self.take()
            if count_tok.kind != "int":
                raise SequenceSyntaxError(
                    f"expected a repeat count, found {count_tok.text!r}",
                    count_tok.line, count_tok.column)
            count = int(count_tok.text)
            if count < 1:
                raise SequenceSyntaxError("repeat count must be >= 1",
                                          count_tok.line, count_tok.column)
            brace = self.take()
            if brace.text != "{":
                raise SequenceSyntaxError(
                    f"expected '{{', found {brace.text!r}",
                    brace.line, brace.column)
            blocks = self.parse_stmts("}")
            self.take()  # closing brace
            if self.peek().text == ";":
                self.take()
            return Repeat(count, Sequence("", tuple(blocks)))
        raise SequenceSyntaxError(f"unknown statement {tok.text!r}",
                                  tok.line, tok.column)

    def expect_semi(self):
        tok = self.take()
        if tok.text != ";":
            raise SequenceSyntaxError(
                f"expected ';', found {tok.text!r}", tok.line, tok.column)


def parse_sequence(text: str, diagram: LevelDiagram | None = None,
                   name: str = "") -> Sequence:
    """Parse the sequence text format into a Sequence.

    Raises SequenceSyntaxError with line/column on lexical or syntax
    errors, unknown transition labels, non-positive durations and zero
    repeat counts.
    """
    diagram = diagram or default_diagram()
    parser = _Parser(_tokenize(text), diagram)
    blocks = parser.parse_stmts("eof")
    return Sequence(name, tuple(blocks))


def _format_duration(us: float) -> str:
    # canonical unit is us: no conversion, so print -> parse is exact
    text = repr(float(us))
    if "e" in text or "E" in text:
        text = f"{us:.15f}".rstrip("0")
        if text.endswith("."):
            text += "0"
    return f"{text}us"


def print_sequence(seq: Sequence, indent: int = 0) -> str:
    """Canonical text for a Sequence; parse_sequence inverts it."""
    pad = "    " * indent
    lines = []
    for b in seq.blocks:
        if isinstance(b, Repeat):
            lines.append(f"{pad}repeat {b.count} {{")
            lines.append(print_sequence(b.body, indent + 1))
            lines.append(f"{pad}}}")
        elif b.kind == "mw_pi":
            lines.append(f"{pad}mw_pi {b.label};")
        elif b.kind == "laser":
            tag = f" read{b.read_slot}" if b.read_slot else ""
            lines.append(f"{pad}laser {b.label} "
                         f"{_format_duration(b.duration_us)}{tag};")
        else:
            lines.append(f"{pad}wait {_format_duration(b.duration_us)};")
    return "\n".join(line for line in lines if line)


# --- gate semantics ---------------------------------------------------------

def gate_action(pulse: Pulse, state: RegisterState, params: PhysicalParams,
                rng, diagram: LevelDiagram | None = None) -> RegisterState:
    """Apply one pulse to the register.

    A MW pi-pulse flips its electron pair with probability
    ``params.pi_pulse_fidelity`` iff the nuclear state matches the pulse's
    condition; pulse infidelity leaves the population in place.  Laser and
    wait pulses leave the register unchanged here (photon emission and
    optical pumping are sampled by the trajectory engine), and no pulse
    touches the charge flag.
    """
    if pulse.kind != "mw_pi":
        return state
    diagram = diagram or default_diagram()
    t = diagram.find(pulse.label)
    if t.kind != "mw":
        raise ProtocolError(f"{pulse.label!r} is not a MW transition")
    if state.nuclear is not t.nuclear_condition:
        return state
    if state.electron not in t.electron_pair:
        return state
    if rng.random() >= params.pi_pulse_fidelity:
        return state
    a, b = t.electron_pair
    flipped = b if state.electron is a else a
    return replace(state, electron=flipped)

