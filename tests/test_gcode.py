"""G-code front-end behavior: dialect coverage, state semantics, invariants."""

import os
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxtherm
from voxtherm.gcode import (
    GcodeError,
    GcodeParseError,
    Toolpath,
    UnsupportedCommandError,
    parse_gcode,
)


def test_single_absolute_extruding_move():
    tp = parse_gcode("G90\nG1 X10 E1\n")
    assert len(tp.segments) == 1
    seg = tp.segments[0]
    assert seg.extruding
    assert seg.start == (0.0, 0.0, 0.0)
    assert seg.end == (10.0, 0.0, 0.0)


def test_relative_mode_chains_two_extruding_segments():
    tp = parse_gcode("G91\nG1 X5 E0.5\nG1 X5 E0.5\n")
    ext = [s for s in tp.segments if s.extruding]
    assert len(ext) == 2
    assert ext[0].end == ext[1].start
    assert ext[1].end == (10.0, 0.0, 0.0)


def test_retraction_then_travel_is_never_extruding():
    tp = parse_gcode("G90\nG1 X5 E1\nG1 E-1\nG0 X10\nG1 X12\n")
    # in-place retract emits nothing; travel and un-extruded G1 are travel
    kinds = [s.extruding for s in tp.segments]
    assert kinds == [True, False, False]


def test_g0_never_extrudes_even_with_e_word():
    tp = parse_gcode("G0 X5 E3\n")
    assert len(tp.segments) == 1
    assert not tp.segments[0].extruding


def test_zero_length_extruding_dwell_is_kept():
    tp = parse_gcode("G1 X5 E1\nG1 E2\n")
    assert len(tp.segments) == 2
    dwell = tp.segments[1]
    assert dwell.extruding and dwell.start == dwell.end


def test_feed_only_line_emits_no_segment():
    tp = parse_gcode("G1 F1500\nG1 X1 E1\n")
    assert len(tp.segments) == 1


def test_g92_e_resets_bookkeeping_without_segment():
    tp = parse_gcode("G1 X5 E10\nG92 E0\nG1 X10 E1\n")
    assert [s.extruding for s in tp.segments] == [True, True]
    assert len(tp.segments) == 2


def test_g92_xyz_shifts_datum_but_keeps_physical_connectivity():
    tp = parse_gcode("G1 X10 E1\nG92 X0\nG1 X5 E2\n")
    assert len(tp.segments) == 2
    a, b = tp.segments
    assert a.end == b.start  # no teleport across the G92
    # absolute X5 in the shifted frame is physical X15
    assert b.end == (15.0, 0.0, 0.0)


def test_m82_m83_extruder_mode_switches():
    # relative E via M83: each E0.5 is an advance
    tp = parse_gcode("M83\nG1 X1 E0.5\nG1 X2 E0.5\nM82\nG92 E0\nG1 X3 E0.25\n")
    assert [s.extruding for s in tp.segments] == [True, True, True]


def test_comments_and_blank_lines():
    tp = parse_gcode("; header\nG1 X1 E1 ; inline\n(whole line)\nG1 (mid) X2 E2\n\n")
    assert len(tp.segments) == 2
    assert tp.segments[1].end == (2.0, 0.0, 0.0)


def test_units_g21_noop_g20_rejected():
    assert parse_gcode("G21\nG1 X1 E1\n").segments[0].extruding
    with pytest.raises(UnsupportedCommandError) as ei:
        parse_gcode("G21\nG20\n")
    assert ei.value.line_no == 2


@pytest.mark.parametrize("cmd", ["G2 X1 Y1 I0.5 J0", "G3 X1 Y1 R2"])
def test_arcs_rejected_with_line_number(cmd):
    with pytest.raises(UnsupportedCommandError) as ei:
        parse_gcode(f"G1 X1 E1\n{cmd}\n")
    assert ei.value.line_no == 2


def test_malformed_number_raises_with_line_number():
    with pytest.raises(GcodeParseError) as ei:
        parse_gcode("G90\nG1 Xabc\n")
    assert ei.value.line_no == 2


@pytest.mark.parametrize("line, message", [
    ("G1 X1 X3 E1", "word 'X' repeated"),
    ("G1 x1 X3 E1", "word 'X' repeated"),
    ("G1 X1e2 E1", "word 'E' repeated"),
    ("G1 X1e400 Y0 E1", "word 'E' repeated"),
    ("G" + "1" * 400, "number after 'G' is out of range"),
    ("G1 X" + "1" * 400 + " E1", "number after 'X' is out of range"),
], ids=["repeated", "repeated-in-other-case", "exponent", "exponent-past-float",
        "command-overflow", "coordinate-overflow"])
def test_repeated_or_overflowing_word_raises_with_line_number(line, message):
    with pytest.raises(GcodeParseError) as ei:
        parse_gcode(f"G90\n{line}\n")
    assert str(ei.value) == f"line 2: {message}"


@pytest.mark.parametrize("line, error, message", [
    ("G90 G1 X10 E1", GcodeParseError, "second command word 'G' on a G90 line"),
    ("G1 X1 G0 Y2 E1", GcodeParseError, "second command word 'G' on a G1 line"),
    ("G1 X1 M104 S200 E1", GcodeParseError, "second command word 'M' on a G1 line"),
    ("G1.5 X2 E1", UnsupportedCommandError, "G1.5: fractional G numbers not supported"),
    ("G0.9 X3", UnsupportedCommandError, "G0.9: fractional G numbers not supported"),
], ids=["mode-then-move", "move-then-move", "move-then-m-code", "fractional-g1",
        "fractional-g0"])
def test_command_word_is_never_absorbed_or_truncated(line, error, message):
    """A second command word on a line the parser acts on, or a G number
    that is not an integer, fails with its line instead of being dropped or
    read as another command."""
    with pytest.raises(error) as ei:
        parse_gcode(f"G90\n{line}\n")
    assert str(ei.value) == f"line 2: {message}"


@pytest.mark.parametrize("line", ["G01 X1 E1", "G1.0 X1 E1", "G1. X1 E1"])
def test_integer_g_numbers_in_any_spelling_mean_their_command(line):
    assert parse_gcode(line).segments == parse_gcode("G1 X1 E1").segments


def test_packed_words_parse():
    tp = parse_gcode("G1X10Y2E0.3\n")
    assert tp.segments[0].end == (10.0, 2.0, 0.0) and tp.segments[0].extruding


def test_unknown_commands_tolerated():
    tp = parse_gcode('M104 S200\nM117 hello world\nT0\nG28\nM862.3 P "MK3S"\nM862.1 P0.4\n'
                     "M117 Printing G1 part\nG1 X1 E1\n")
    assert len(tp.segments) == 1


def test_n_line_numbers_are_skipped():
    tp = parse_gcode("N10 G1 X1 E1\nN20 G1 X2 E2\n")
    assert len(tp.segments) == 2


def test_empty_program_and_empty_bounds():
    assert parse_gcode("") == Toolpath([])
    assert [s.extruding for s in parse_gcode("G0 X5\n").segments] == [False]


def test_import_leaves_numpy_unloaded():
    """The G-code front end tracks the head in plain Python floats: importing
    it loads no numpy."""
    probe = "import sys, voxtherm.gcode\nprint('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(voxtherm.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


# --- randomized dialect programs ------------------------------------------

_move_line = st.builds(
    lambda cmd, ax, val, e: f"{cmd} {ax}{val:.3f}" + (f" E{e:.3f}" if e is not None else ""),
    st.sampled_from(["G0", "G1"]),
    st.sampled_from(["X", "Y", "Z"]),
    st.floats(-50, 50, allow_nan=False),
    st.one_of(st.none(), st.floats(-2, 2, allow_nan=False)),
)
_mode_line = st.sampled_from(["G90", "G91", "M82", "M83", "G21", "G92 E0", "; note"])
_program = st.lists(st.one_of(_move_line, _mode_line), max_size=40).map("\n".join)


@settings(max_examples=80, deadline=None)
@given(_program)
def test_random_programs_connectivity_and_flags(prog):
    tp = parse_gcode(prog)
    for a, b in zip(tp.segments, tp.segments[1:]):
        assert a.end == b.start
    for seg in tp.segments:
        if seg.start == seg.end:
            assert seg.extruding


@settings(max_examples=30, deadline=None)
@given(_program)
def test_parse_is_deterministic(prog):
    assert parse_gcode(prog) == parse_gcode(prog)


# G-code fragments, one of them a number past the float range, and any printable text
_token = st.one_of(
    st.sampled_from(["G0", "G1", "G92", "M83", "N7", "X", "Y", "E", "e", "1", ".5", "-",
                     " ", ";", "(", ")", "\n", "9" * 320]),
    st.text(alphabet=string.printable, max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_token, max_size=12).map("".join))
def test_any_short_text_parses_or_names_its_line(text):
    """Printable text either parses, or fails as a GcodeError that names its
    line and holds no numpy repr; no other exception escapes."""
    try:
        parse_gcode(text)
    except GcodeError as err:
        assert str(err).startswith(f"line {err.line_no}: ")
        assert "np." not in str(err)
