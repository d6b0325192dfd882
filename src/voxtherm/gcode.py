"""Minimal G-code front end for extrusion printers.

Supports the slicer subset that matters for deposition ordering: linear
moves (G0/G1), absolute/relative positioning (G90/G91), extruder mode
overrides (M82/M83), datum shifts (G92) and comments. Arcs (G2/G3),
inch units (G20) and fractional G numbers (G1.5) are rejected, and so is
a second G or M word on a line whose command is acted on or rejected;
unrecognized commands are ignored so real slicer output (fan,
temperature, homing lines) parses cleanly.

A move becomes a :class:`ToolpathSegment`, which carries only what the
schedule reads: its start and end in machine coordinates and whether it
extrudes. A segment is *extruding* iff it is a G1 with strictly positive
net filament advance; retractions and G0 moves are travel. Feedrates are
read and dropped. Zero-length non-extruding moves (feed-only lines,
in-place retracts) produce no segment.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

__all__ = [
    "GcodeError",
    "GcodeParseError",
    "UnsupportedCommandError",
    "ToolpathSegment",
    "Toolpath",
    "parse_gcode",
]


class GcodeError(ValueError):
    """Base class for G-code front-end failures. Carries a 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class GcodeParseError(GcodeError):
    """Malformed, overflowing or repeated word on a recognized command."""


class UnsupportedCommandError(GcodeError):
    """Command outside the supported dialect that cannot be safely ignored."""


# One coordinate word: letter followed by a signed decimal number.
_WORD_RE = re.compile(r"([A-Za-z])\s*([-+]?(?:\d+(?:\.\d*)?|\.\d+))")
# Any letter immediately introducing a field, used to detect malformed numbers.
_LETTER_RE = re.compile(r"[A-Za-z]")
# A command word's letter, which may not follow the command on a line the parser acts on.
_COMMAND_RE = re.compile(r"[GMgm]")
# Command numbers the parser acts on (or rejects), by letter; other commands are ignored.
_ACTED_ON = {"G": {0, 1, 2, 3, 20, 21, 90, 91, 92}, "M": {82, 83}}


@dataclass
class MachineState:
    """Interpreter state threaded through the program.

    ``position`` is the physical head position in machine coordinates;
    G92 moves the logical datum (``offset``) instead of the head, so
    emitted segments stay connected in the physical frame.
    """

    position: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    offset: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    extruder: float = 0.0
    extruder_offset: float = 0.0
    absolute_moves: bool = True
    absolute_extruder: bool = True


@dataclass(frozen=True)
class ToolpathSegment:
    """One linear head motion. start == end only for extruding dwells."""

    start: tuple[float, float, float]
    end: tuple[float, float, float]
    extruding: bool


@dataclass
class Toolpath:
    """Ordered motion segments; consecutive segments share endpoints."""

    segments: list[ToolpathSegment] = field(default_factory=list)


def _strip_comments(line: str, line_no: int) -> str:
    """Remove ;-to-EOL and parenthesized inline comments."""
    out = []
    depth = 0
    for ch in line:
        if ch == ";" and depth == 0:
            break
        if ch == "(":
            depth += 1
            continue
        if ch == ")":
            if depth == 0:
                raise GcodeParseError("unbalanced ')' in comment", line_no)
            depth -= 1
            continue
        if depth == 0:
            out.append(ch)
    if depth != 0:
        raise GcodeParseError("unterminated '(' comment", line_no)
    return "".join(out)


def _number(word: re.Match, line_no: int) -> float:
    """The value of a matched word; one that overflows a float is malformed."""
    value = float(word.group(2))
    if not math.isfinite(value):
        raise GcodeParseError(f"number after '{word.group(1)}' is out of range", line_no)
    return value


def _parse_words(body: str, line_no: int) -> dict[str, float]:
    """Split 'X1.5 Y-2 E.3' into a letter->value map, validating numbers.

    A letter may appear once per line. That also rejects exponent notation:
    ``X1e2 E1`` reads as the words X1, E2 and E1.
    """
    words: dict[str, float] = {}
    pos = 0
    while pos < len(body):
        m = _LETTER_RE.search(body, pos)
        if m is None:
            break
        wm = _WORD_RE.match(body, m.start())
        if wm is None:
            raise GcodeParseError(
                f"malformed numeric field after '{body[m.start()]}'", line_no
            )
        letter = wm.group(1).upper()
        if letter in words:
            raise GcodeParseError(f"word '{letter}' repeated", line_no)
        words[letter] = _number(wm, line_no)
        pos = wm.end()
    return words


def parse_gcode(text: str) -> Toolpath:
    """Interpret a G-code program into a :class:`Toolpath`.

    The machine starts at the origin in absolute positioning and absolute
    extruder mode with zero filament. Deterministic: identical input bytes
    produce an identical toolpath.
    """
    st = MachineState()
    segments: list[ToolpathSegment] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = _strip_comments(raw, line_no).strip()
        if not body:
            continue
        # Command word is the first letter word on the line; N line numbers
        # are skipped. Lines without a command word are tolerated.
        m = _WORD_RE.match(body)
        if m is None:
            continue
        if m.group(1).upper() == "N":
            rest = body[m.end():].lstrip()
            m = _WORD_RE.match(rest)
            if m is None:
                continue
            body = rest
        letter = m.group(1).upper()
        value = _number(m, line_no)
        if not value.is_integer():
            if letter == "G":
                raise UnsupportedCommandError(f"G{m.group(2)}: fractional G numbers not supported",
                                              line_no)
            continue  # fractional M codes (M862.3, ...) and other letters are tolerated
        number = int(value)
        args = body[m.end():]
        if number in _ACTED_ON.get(letter, ()):
            second = _COMMAND_RE.search(args)
            if second is not None:
                raise GcodeParseError(
                    f"second command word '{second.group().upper()}' on a {letter}{number} line",
                    line_no)

        if letter == "G":
            if number in (0, 1):
                words = _parse_words(args, line_no)
                seg = _apply_move(st, words, is_g1=(number == 1))
                if seg is not None:
                    segments.append(seg)
            elif number == 90:
                st.absolute_moves = True
                st.absolute_extruder = True
            elif number == 91:
                st.absolute_moves = False
                st.absolute_extruder = False
            elif number == 92:
                _apply_datum(st, _parse_words(args, line_no))
            elif number == 21:
                pass  # millimeters: the only supported unit
            elif number == 20:
                raise UnsupportedCommandError("G20 inch units not supported", line_no)
            elif number in (2, 3):
                raise UnsupportedCommandError(
                    f"G{number} arc moves not supported", line_no
                )
            # other G codes (homing, bed level, ...) are tolerated as no-ops
        elif letter == "M":
            if number == 82:
                st.absolute_extruder = True
            elif number == 83:
                st.absolute_extruder = False
            # other M codes (temperatures, fans, ...) are tolerated
        # all other command letters tolerated

    return Toolpath(segments)


def _apply_move(st: MachineState, words: dict[str, float], is_g1: bool) -> ToolpathSegment | None:
    base = st.offset if st.absolute_moves else st.position  # what an axis word is added to
    target = [b + words[a] if a in words else p for a, b, p in zip("XYZ", base, st.position)]

    de = 0.0
    if "E" in words:
        if st.absolute_extruder:
            e_target = words["E"] + st.extruder_offset
            de = e_target - st.extruder
            st.extruder = e_target
        else:
            de = words["E"]
            st.extruder += de

    extruding = is_g1 and de > 0.0
    start, end = tuple(st.position), tuple(target)
    st.position = target
    if start == end and not extruding:
        return None  # feed-only line or in-place retract: no motion, no deposit
    return ToolpathSegment(start=start, end=end, extruding=extruding)


def _apply_datum(st: MachineState, words: dict[str, float]) -> None:
    """G92: re-declare current logical coordinates without moving the head."""
    st.offset = [p - words[a] if a in words else o
                 for a, p, o in zip("XYZ", st.position, st.offset)]
    if "E" in words:
        st.extruder_offset = st.extruder - words["E"]
