"""Command-line front end: tables and JSON for every module.  `verify`
runs the suites of `ttspec.verify`, which holds every check.

Word expressions for `kmw reduce` follow a tiny grammar (see README):
sums of monomials c eta^i [a1][a2]..., where each bracket entry is an
integer representative or a power w^k of the fixed generator, and `h`
abbreviates the hyperbolic element 2 + eta[-1].
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import TtspecError
from .finite_field import _field_for, _prime_power, primitive_element

# The compute modules are imported by the functions that run them, so that
# each command loads only what it uses.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


# ---------------------------------------------------------------- word parser

_TOKEN = re.compile(r"\s*(\[|\]|\^|\+|-|\*|eta|h|w|\d+)")


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise TtspecError(f"cannot tokenize {text[pos:]!r}")
            break
        if len(m.group(1)) > 4000:  # int() refuses more than 4300 digits
            raise TtspecError(f"a word integer may have at most 4000 digits, got {len(m.group(1))}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _WordParser:
    """expr := term (('+'|'-') term)*
    term := ['-'] factor (['*'] factor)*   (juxtaposition or '*' is product)
    factor := INT | 'eta' ['^' INT] | 'h' | '[' entry ']'
    entry := ['-'] INT | 'w' ['^' INT]"""

    def __init__(self, field, tokens):
        self.field = field
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            want = f", expected {expected!r}" if expected else ""
            raise TtspecError(f"expression ended early{want}")
        if expected is not None and tok != expected:
            raise TtspecError(f"unexpected token {tok!r}, expected {expected!r}")
        self.pos += 1
        return tok

    def exponent(self):
        if self.peek() != "^":
            return 1
        self.take()
        tok = self.take()
        if not tok.isdigit():
            raise TtspecError(f"exponent must be a nonnegative integer, got {tok!r}")
        return int(tok)

    def parse(self):
        result = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            nxt = self.term()
            result = result + nxt if op == "+" else result - nxt
        if self.peek() is not None:
            raise TtspecError(f"trailing input at {self.tokens[self.pos:]}")
        return result

    def term(self):
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        result = self.factor()
        while self.peek() not in (None, "+", "-"):
            if self.peek() == "*":
                self.take()
            result = result * self.factor()
        return sign * result if sign == -1 else result

    def factor(self):
        from . import milnor_witt
        tok = self.peek()
        if tok is None:
            raise TtspecError("expression ended early")
        if tok.isdigit():
            self.take()
            return int(tok) * milnor_witt.word_one(self.field)
        if tok == "eta":
            self.take()
            return milnor_witt.word_eta(self.field, self.exponent())
        if tok == "h":
            self.take()
            return milnor_witt.word_h(self.field)
        if tok == "[":
            self.take()
            entry = self.entry()
            self.take("]")
            return milnor_witt.word_symbol(entry)
        raise TtspecError(f"unexpected token {tok!r}")

    def entry(self):
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.take()
        if tok == "w":
            value = primitive_element(self.field) ** self.exponent()
        elif tok.isdigit():
            value = self.field.element(int(tok))
        else:
            raise TtspecError(f"bad bracket entry {tok!r}")
        return -value if sign == -1 else value


def parse_word(field, text: str):
    return _WordParser(field, _tokenize(text)).parse()


# ------------------------------------------------------------------- commands


def _group_text(shape) -> str:
    if not shape.invariant_factors:
        return "0"
    parts = []
    for f in shape.invariant_factors:
        parts.append("Z" if f == 0 else f"Z/{f}")
    return " (+) ".join(parts)


def cmd_kmw_table(args):
    from . import milnor_witt
    field = _field_for(args.q)
    lo, hi = _parse_range(args.range)
    rows = []
    for n in range(lo, hi + 1):
        shape = milnor_witt.kmw_group(field, n)
        rows.append(
            {
                "degree": n,
                "group": _group_text(shape),
                "invariant_factors": list(shape.invariant_factors),
                "generators": list(shape.generators),
            }
        )
    return {"q": args.q, "rows": rows}


def cmd_kmw_reduce(args):
    from . import milnor_witt
    field = _field_for(args.q)
    w = parse_word(field, args.word)
    reduced = milnor_witt.reduce_word(w)
    components = []
    for n in sorted(reduced, reverse=True):
        el = reduced[n]
        shape = milnor_witt.kmw_group(field, n)
        components.append(
            {
                "degree": n,
                "coords": list(el.coords),
                "generators": list(shape.generators),
                "group": _group_text(shape),
            }
        )
    return {"q": args.q, "word": args.word, "components": components, "zero": not components}


def cmd_witt_classify(args):
    from . import quadratic_forms
    field = _field_for(args.q)
    try:
        entries = [int(x) for x in args.form.split(",") if x.strip()]
    except ValueError:
        raise TtspecError(f"form entries must be integers, got {args.form!r}") from None
    form = quadratic_forms.diagonal(field, entries)
    h, kernel = quadratic_forms.witt_decompose(form)
    cls = quadratic_forms.kernel_class(kernel)
    gwc = quadratic_forms.gw_class(form)
    return {
        "q": args.q,
        "form": entries,
        "rank": form.rank,
        "isotropic": h > 0,
        "hyperbolic_planes": h,
        "anisotropic_kernel": [a.value for a in kernel.entries],
        "witt_class": [a.value for a in cls.anisotropic_kernel.entries],
        "gw_class": {"rank": gwc.rank, "disc": gwc.disc},
    }


def cmd_gw(args):
    from . import quadratic_forms
    field = _field_for(args.q)
    witt = quadratic_forms.witt_ring_structure(field)
    return {
        "q": args.q,
        "gw": "Z (+) Z/2 as (rank, disc)",
        "witt": witt,
        "hyperbolic": {
            "rank": quadratic_forms.hyperbolic_class(field).rank,
            "disc": quadratic_forms.hyperbolic_class(field).disc,
        },
        "fundamental_ideal_orders": {
            n: quadratic_forms.fundamental_ideal_power(field, n)["order"] for n in range(4)
        },
    }


def cmd_milnor(args):
    from . import milnor_witt
    field = _field_for(args.q)
    shape = milnor_witt.milnor_group(field, args.n)
    return {
        "q": args.q,
        "degree": args.n,
        "group": _group_text(shape),
        "generators": list(shape.generators),
    }


def cmd_spech(args):
    from . import graded_spectrum
    _prime_power(args.q)  # validated, though the points are the same for every field
    space = graded_spectrum.enumerate_primes(args.prime_bound)
    points = []
    for p in space.points:
        points.append(
            {"generators": list(p.sorted_generators()), "discrepancy": p.discrepancy}
        )
    return {
        "q": args.q,
        "prime_bound": args.prime_bound,
        "points": points,
        "specializations": space.specializations(),
    }


def cmd_motive(args):
    from . import chow_motives
    space = chow_motives.parse_space(args.space)
    if args.motive_op == "decompose":
        twists = chow_motives._kunneth_twists(space)
        return {
            "space": repr(space),
            "summands": [f"L^{w}" if w else "1" for w in twists],
            "twists": twists,
        }
    if args.motive_op == "hom":  # between identity motives: all of CH^codim(X x Y)
        target = chow_motives.parse_space(args.target_space)
        codim = chow_motives.hom_ambient_codim(space, args.twist, target, args.target_twist)
        product = space.times(target)
        basis = [repr(chow_motives.monomial_class(product, m)) for m in product.monomials(codim)]
        return {
            "source": repr(space),
            "target": repr(target),
            "rank": len(basis),
            "ambient_codim": codim,
            "basis": basis,
        }
    if args.motive_op == "dual":  # (X, id, n)^dual = (X, id, dim X - n)
        return {"space": repr(space), "twist": args.twist, "dual_twist": space.dimension - args.twist}
    if args.motive_op == "pairing":
        return chow_motives.pairing_nondegenerate(space)
    raise TtspecError(f"unknown motive operation {args.motive_op!r}")


def cmd_spc(args):
    from . import tt_geometry
    _prime_power(args.q)  # validated for every operation, though only tate echoes it
    if args.spc_op == "tate":
        universe = tt_geometry.TateUniverse(args.twist_radius, args.shift_radius)
        found = tt_geometry.enumerate_primes(universe)
        return {
            "q": args.q,
            "window": [args.twist_radius, args.shift_radius],
            "primes": [repr(p) for p in found["primes"]],
            "diagnostic": found["diagnostic"],
            "end_of_unit": tt_geometry.END_OF_UNIT,
        }
    if args.spc_op == "sh-top":
        space = tt_geometry.spc_shtop(args.primes, args.height)
        pairs = sorted(pair for pair in space.specializes if pair[0] != pair[1])  # tuples sort faster
        out = {"points": list(space.points), "specializations": list(map(list, pairs))}
        if args.dot:
            out["dot"] = space.to_dot("shtop")
        return out
    if args.spc_op == "equivariant":
        space = tt_geometry.spc_equivariant(args.n, args.primes, args.height)
        out = {
            "n": args.n,
            "points": list(space.points),
            "point_count": len(space.points),
        }
        if args.dot:
            out["dot"] = space.to_dot("equivariant")
        return out
    raise TtspecError(f"unknown spc operation {args.spc_op!r}")


def cmd_verify(args):
    from . import verify
    return verify.run(args.suite)


# ------------------------------------------------------------------- plumbing


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d{1,4000})\.\.(-?\d{1,4000})", text.strip())
    if not m:
        raise TtspecError(f"range must look like -3..2, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise TtspecError(f"empty range {text!r}")
    return lo, hi


def _render_table(payload, indent=0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for key in payload:
            value = payload[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_table(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_table(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{payload}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    # no default, so that a subcommand does not reset a --json given before it
    json_flag = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    json_flag.add_argument("--json", action="store_true", help="emit a JSON envelope")
    parser = argparse.ArgumentParser(prog="ttspec", parents=[json_flag])
    sub = parser.add_subparsers(dest="command", required=True)

    kmw = sub.add_parser("kmw", help="Milnor-Witt K-theory tables and reduction")
    kmw_sub = kmw.add_subparsers(dest="kmw_op", required=True)
    table = kmw_sub.add_parser("table", parents=[json_flag])
    table.add_argument("--q", type=int, required=True)
    table.add_argument("--range", default="-6..6")
    table.set_defaults(func=cmd_kmw_table)
    reduce_p = kmw_sub.add_parser("reduce", parents=[json_flag])
    reduce_p.add_argument("--q", type=int, required=True)
    reduce_p.add_argument("--word", required=True)
    reduce_p.set_defaults(func=cmd_kmw_reduce)

    witt = sub.add_parser("witt", help="quadratic form classification")
    witt_sub = witt.add_subparsers(dest="witt_op", required=True)
    classify = witt_sub.add_parser("classify", parents=[json_flag])
    classify.add_argument("--q", type=int, required=True)
    classify.add_argument("--form", required=True)
    classify.set_defaults(func=cmd_witt_classify)

    gw = sub.add_parser("gw", parents=[json_flag], help="Grothendieck-Witt and Witt ring structure")
    gw.add_argument("--q", type=int, required=True)
    gw.set_defaults(func=cmd_gw)

    milnor = sub.add_parser("milnor", parents=[json_flag], help="Milnor K-theory groups")
    milnor.add_argument("--q", type=int, required=True)
    milnor.add_argument("--n", type=int, required=True)
    milnor.set_defaults(func=cmd_milnor)

    spech = sub.add_parser("spech", parents=[json_flag], help="homogeneous prime spectrum")
    spech.add_argument("--q", type=int, required=True)
    spech.add_argument("--prime-bound", type=int, default=50)
    spech.set_defaults(func=cmd_spech)

    motive = sub.add_parser("motive", parents=[json_flag], help="Chow motive computations")
    motive.add_argument("motive_op", choices=["decompose", "hom", "dual", "pairing"])
    motive.add_argument("--space", required=True)
    motive.add_argument("--target-space", default="pt")
    motive.add_argument("--twist", type=int, default=0)
    motive.add_argument("--target-twist", type=int, default=0)
    motive.set_defaults(func=cmd_motive)

    spc = sub.add_parser("spc", parents=[json_flag], help="spectra of tensor-triangular models")
    spc.add_argument("spc_op", choices=["tate", "sh-top", "equivariant"])
    spc.add_argument("--q", type=int, default=3)
    spc.add_argument("--twist-radius", type=int, default=4)
    spc.add_argument("--shift-radius", type=int, default=2)
    spc.add_argument("--primes", type=int, default=3)
    spc.add_argument("--height", type=int, default=3)
    spc.add_argument("--n", type=int, default=1)
    spc.add_argument("--dot", action="store_true")
    spc.set_defaults(func=cmd_spc)

    verify = sub.add_parser("verify", parents=[json_flag], help="run invariant suites")
    verify.add_argument("--suite", default=None)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # argparse reads `--q=--` as an empty list
            parser.error("an option value may not be '--'")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        payload = args.func(args)
    except TtspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    envelope = {
        "command": args.command,
        "parameters": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "json", "command") and v is not None
        },
        "result": payload,
    }
    try:
        if getattr(args, "json", False):
            print(json.dumps(envelope, sort_keys=True, default=str))
        else:
            print(_render_table(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`ttspec ... | head -1`).  Point
        # stdout at devnull so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.command == "verify" and not payload["ok"]:
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
