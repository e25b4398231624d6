"""The CLI contract, property-based: every argv built from `build_parser()`'s
own subcommands, options and choices gets an answer (exit 0) or exactly one
`error:` line on stderr and exit 1, never a traceback.

Integer options draw from four sets: small values, each named limit and
2^20 one below, at and one above, a huge value near 10^18 and malformed
text.  String options draw from a pool per option with the same four kinds:
valid small inputs, inputs at the edges of the limits (forms at the descent
bound, spaces at SPACE_BOUND, degree ranges and exponents at DEGREE_BOUND),
huge integers inside the text, and malformed text.  Only `--help` is not
drawn: argparse answers it before any value is read.
"""

import argparse
import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ttspec import chow_motives, cli, finite_field, milnor_witt  # noqa: E402
from ttspec import quadratic_forms, tt_geometry, verify  # noqa: E402

LIMITS = (
    finite_field.CARDINALITY_BOUND,
    quadratic_forms.DESCENT_BOUND,
    milnor_witt.DEGREE_BOUND,
    finite_field.PRIME_BOUND,
    chow_motives.HOM_BASIS_BOUND,
    chow_motives.SPACE_BOUND,
    chow_motives.PAIRING_ENTRY_BOUND,
    tt_geometry.THOMASON_POINT_BOUND,
    tt_geometry.SPC_PAIR_BOUND,
    tt_geometry.SPC_ORDER_BOUND,
)
HUGE = 10 ** 18 + 3
SMALL = range(-3, 14)
BOUNDARY = sorted({v + d for v in (*LIMITS, 1 << 20) for d in (-1, 0, 1)})
MALFORMED = ["", "x", "1.5", "0x10", "1e3", "--", "-", "١٢", "9" * 5000]
INTEGERS = [str(v) for v in (*SMALL, *BOUNDARY, HUGE, -HUGE)] + MALFORMED


def _ones(n):
    return ",".join(["1"] * n)


# the largest rank over F_3 within the descent bound
_TOP_RANK = max(n for n in range(1, 100) if quadratic_forms._descent_cost(n, 3) <= quadratic_forms.DESCENT_BOUND)
_DEGREE = milnor_witt.DEGREE_BOUND
_SPACES = [
    "pt", "P0", "P1", "P2", "P1xP1", "P2xP1", "P1xP1xP1",
    f"P{chow_motives.SPACE_BOUND - 1}", f"P{chow_motives.SPACE_BOUND}",
    "x".join(["P1"] * 16), "x".join(["P1"] * 17), f"P{HUGE}",
    "", "Q2", "P-1", "P1xx", "P", "xP1", "P" + "9" * 5000,
]
STRINGS = {
    "range": ["-6..6", "0..0", "-2..3", f"-{_DEGREE}..{_DEGREE}", f"-{_DEGREE + 1}..0",
              f"0..{_DEGREE + 1}", f"-{HUGE}..{HUGE}", f"1..{'9' * 5000}", "3..1", "1..x", "..", "", "1"],
    "word": ["eta", "[2]", "h", "eta[2] + h", "[w^3]", "2*eta^3", "[2] * 2 * eta", "eta h",
             f"eta^{_DEGREE}", f"eta^{_DEGREE + 1}", f"[w^{HUGE}]", f"eta^{HUGE}", f"{HUGE} eta",
             f"[{HUGE}]", "[w", "eta^", "??", "[0]", "[-]", "", "eta^-1", "9" * 5000, f"[w^{'9' * 5000}]"],
    "form": ["1", "1,2", "1,1", "1,1,1", "1,2,3", "1,2,3,5", _ones(_TOP_RANK), _ones(_TOP_RANK + 1),
             _ones(200), f"{HUGE},1", f"{'9' * 5000},1", "0", "1,0", "a,b", "", ",", "1,,2"],
    "space": _SPACES,
    "target_space": _SPACES,
    "suite": [*verify.SUITES, "nope", ""],
}


def _commands(parser, prefix=()):
    """(argv prefix, its optional and positional actions) for every leaf
    subcommand, read off the parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, (*prefix, name))
            return
    yield prefix, [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


COMMANDS = list(_commands(cli.build_parser()))


def test_every_option_has_values():
    """A new option without a value pool would go undrawn."""
    for _, actions in COMMANDS:
        for a in actions:
            if a.nargs != 0 and a.choices is None and a.type is not int:
                assert a.dest in STRINGS, a.dest


@st.composite
def argvs(draw):
    prefix, actions = draw(st.sampled_from(COMMANDS))
    argv = list(prefix)
    for a in actions:
        if a.nargs == 0:  # --json, --dot
            if draw(st.booleans()):
                argv.append(a.option_strings[0])
            continue
        if not a.required and draw(st.booleans()):
            continue
        if a.choices is not None:
            value = draw(st.sampled_from([*a.choices, "nope"]))
        elif a.type is int:
            value = draw(st.sampled_from(INTEGERS))
        else:
            value = draw(st.sampled_from(STRINGS[a.dest]))
        argv += [value] if not a.option_strings else [f"{a.option_strings[0]}={value}"]
    return argv


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(argvs())
def test_every_argv_answers_or_prints_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert not any("error:" in line for line in lines), lines
    else:
        assert code == 1, (code, lines)
        assert sum("error:" in line for line in lines) == 1, lines
