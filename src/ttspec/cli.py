"""Command-line front end: tables and JSON for every module plus a
verification driver.

Word expressions for `kmw reduce` follow a tiny grammar (see README):
sums of monomials c eta^i [a1][a2]..., where each bracket entry is an
integer representative or a power w^k of the fixed generator, and `h`
abbreviates the hyperbolic element 2 + eta[-1].
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys

from .errors import BoundExceeded, TtspecError
from .finite_field import CARDINALITY_BOUND, _is_prime, _prime_factors, make_field, primitive_element

# The compute modules are imported by the functions that run them, so that
# each command loads only what it uses.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


def _field_for(q: int):
    if q > CARDINALITY_BOUND:  # before the trial division, which takes sqrt(q) steps
        raise BoundExceeded(f"q = {q} exceeds the field bound {CARDINALITY_BOUND}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise TtspecError(f"{q} is not a prime power")
    ((p, e),) = factors.items()
    return make_field(p, e)


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
    field = _field_for(args.q)
    space = graded_spectrum.enumerate_primes(field, args.prime_bound)
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


def _kunneth_twists(space) -> list[int]:
    """Twists of the Kunneth summands L^w of a product of projective spaces,
    ascending: one per monomial of codimension dim - w."""
    counts = space.monomial_counts()
    return [w for w, n in enumerate(reversed(counts)) for _ in range(n)]


def cmd_motive(args):
    from . import chow_motives
    space = chow_motives.parse_space(args.space)
    if args.motive_op == "decompose":
        twists = _kunneth_twists(space)
        return {
            "space": repr(space),
            "summands": [f"L^{w}" if w else "1" for w in twists],
            "twists": twists,
        }
    if args.motive_op == "hom":
        target = chow_motives.parse_space(args.target_space)
        chow_motives.hom_ambient_codim(space, args.twist, target, args.target_twist)
        m = chow_motives.Motive(space, chow_motives.identity_correspondence(space), args.twist)
        n = chow_motives.Motive(target, chow_motives.identity_correspondence(target), args.target_twist)
        hom = chow_motives.hom_group(m, n)
        return {
            "source": repr(space),
            "target": repr(target),
            "rank": hom["rank"],
            "ambient_codim": hom["ambient_codim"],
            "basis": [repr(b) for b in hom["basis"]],
        }
    if args.motive_op == "dual":  # (X, id, n)^dual = (X, id, dim X - n)
        return {"space": repr(space), "twist": args.twist, "dual_twist": space.dimension - args.twist}
    if args.motive_op == "pairing":
        return chow_motives.pairing_nondegenerate(space)
    raise TtspecError(f"unknown motive operation {args.motive_op!r}")


def cmd_spc(args):
    from . import tt_geometry
    _field_for(args.q)  # validated for every operation, though only tate echoes it
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


# ------------------------------------------------------------------ verify


def _suite_ses():
    from . import milnor_witt
    failures = []
    for q in (3, 5, 7, 9):
        field = _field_for(q)
        for n in range(-4, 5):
            report = milnor_witt.verify_ses(field, n)
            if not report["ok"]:
                failures.append(report)
    return failures


def _suite_witt():
    """The closed-form W(F_q) against repeated `witt_add` by isotropy descent."""
    from . import quadratic_forms
    failures = []
    for q in (3, 5, 7, 9, 11, 13):
        field = _field_for(q)
        structure = quadratic_forms.witt_ring_structure(field)
        one = quadratic_forms.witt_one(field)
        order = quadratic_forms.additive_order(one)
        table, acc = {}, quadratic_forms.witt_zero(field)
        for k in range(order):
            table[f"{k}*<1>"] = tuple(a.value for a in acc.anisotropic_kernel.entries)
            acc = acc + one
        want = {
            "type": "Z/4" if order == 4 else "Z/2[e]/e^2",
            "order_of_unit_form": order,
            "generator_table": table,
        }
        got = {key: structure[key] for key in want}
        if got != want:
            failures.append({"q": q, "got": got, "want": want})
    return failures


def _witt_model(field):
    """W(F_q) and its powers I^n by closed forms, with no form decomposed.

    GW(F_q) = Z (+) Z/2 as GWClass (rank, discriminant square class), and
    W = GW / <h>.  A class of W is keyed by its rank parity and the square
    class of its signed discriminant (-1)^(r(r-1)/2) det: adding h = <1,-1>
    changes neither, and the four keys name the four classes.  I is the
    even-rank part, and I^(n+1) is spanned by the products of I^n with I.
    Returns (key, add, mul, ideal): the key of a GWClass, the addition and
    multiplication tables on keys, and ideal(n), the key set of I^n (W for
    n <= 0).
    """
    from . import quadratic_forms
    gw = quadratic_forms.GWClass
    minus_one = quadratic_forms.gw_class(quadratic_forms.diagonal(field, [-1])).disc

    def key(c):
        return c.rank % 2, (c.disc + c.rank * (c.rank - 1) // 2 * minus_one) % 2

    reps = {key(gw(field, rank, disc)): gw(field, rank, disc) for rank in range(4) for disc in range(2)}
    add = {(a, b): key(reps[a] + reps[b]) for a in reps for b in reps}
    mul = {(a, b): key(reps[a] * reps[b]) for a in reps for b in reps}
    powers = [set(reps), {k for k in reps if k[0] == 0}]
    while len(powers) < 7:
        products = {mul[a, b] for a in powers[-1] for b in powers[1]}
        span = {key(gw(field, 0, 0))}
        while not span >= (more := {add[a, b] for a in span for b in products}):
            span |= more
        powers.append(span)
    return key, add, mul, lambda n: powers[max(n, 0)]


def _suite_tables():
    """K^MW against Morel's fiber product K^MW_n = I^n x_(I^n/I^(n+1)) K^M_n
    (Comment. Math. Helv. 79, 2004) for q <= 13 and degrees -4..4, with
    I^n = W for n <= 0 and K^M_n = 0 for n < 0.  The coordinates map to
    W x K^M by 1 -> (<1>, 1), [w] -> (<w> - <1>, {w}), eta[w] ->
    (<w> - <1>, 0), eta^m -> (<1>, 0) and eta^(m+1)[w] -> (<w> - <1>, 0).
    Checked: each group order against the fiber product's; the map is
    well defined, injective and lands in the fiber product; and every
    product of generators by `kmw_mul` against the product in W x K^M."""
    from . import milnor_witt, quadratic_forms
    failures = []
    for q in (3, 5, 7, 9, 11, 13):
        field = _field_for(q)
        key, add, mul, ideal = _witt_model(field)
        gw = quadratic_forms.GWClass
        zero, one = key(gw(field, 0, 0)), key(gw(field, 1, 0))
        omega = primitive_element(field)
        # <a> - <1> for a = w^c: the Pfister map {a} -> I/I^2 on K^M_1
        pfister = [
            key(quadratic_forms.gw_class(quadratic_forms.diagonal(field, [omega ** c])) - gw(field, 1, 0))
            for c in range(q - 1)
        ]

        def milnor(n, coords):
            factors = milnor_witt.milnor_group(field, n).invariant_factors
            return tuple(c % f if f else c for c, f in zip(coords, factors))

        def scale(c, w):
            out = zero
            for _ in range(c % 4):  # 4 W = 0, since 4 <1> = <1,1,1,1> is hyperbolic
                out = add[out, w]
            return out

        # (W key, K^M coefficient) of the generators in degrees 1, 0 and < 0
        bracket = pfister[1]
        generators = {1: [(bracket, 1)], 0: [(one, 1), (bracket, 0)], -1: [(one, 0), (bracket, 0)]}
        images = {}

        def to_model(n, coords):
            """(W key, K^M coordinates) of the K^MW_n element `coords`."""
            if (n, coords) not in images:
                w, k = zero, 0
                for c, (g, km) in zip(coords, generators[max(n, -1)] if n < 2 else ()):
                    w, k = add[w, scale(c, g)], k + c * km
                images[n, coords] = w, milnor(n, (k,))
            return images[n, coords]

        def in_fiber(n, w, k):
            """w in I^n, and w = mu(k) mod I^(n+1) for the Pfister map mu."""
            mu = scale(k[0], one) if n == 0 else pfister[k[0]] if n == 1 else zero
            return w in ideal(n) and add[w, scale(-1, mu)] in ideal(n + 1)

        gens = {}
        for n in range(-4, 5):
            factors = milnor_witt.kmw_group(field, n).invariant_factors
            km_factors = milnor_witt.milnor_group(field, n).invariant_factors
            # orders: the free rank and the order of the torsion subgroup
            torsion = itertools.product(*(range(f) if f else (0,) for f in km_factors))
            fiber = sum(in_fiber(n, w, k) for k in torsion for w in ideal(n))
            got = (factors.count(0), math.prod(f for f in factors if f))
            if got != (km_factors.count(0), fiber):
                failures.append({"q": q, "n": n, "order": got, "fiber_product": fiber})
                continue
            units = [tuple(int(j == i) for j in range(len(factors))) for i in range(len(factors))]
            origin = to_model(n, (0,) * len(factors))
            for f, unit in zip(factors, units):
                if f and to_model(n, tuple(f * c for c in unit)) != origin:
                    failures.append({"q": q, "n": n, "not_well_defined": list(unit)})
            box = [to_model(n, c) for c in itertools.product(*(range(f) if f else range(-2, 3) for f in factors))]
            if len(set(box)) != len(box) or not all(in_fiber(n, w, k) for w, k in box):
                failures.append({"q": q, "n": n, "not_injective_into_fiber_product": True})
            gens[n] = [milnor_witt.KmwElement(field, n, unit) for unit in units]
        for (n1, xs), (n2, ys) in itertools.product(gens.items(), repeat=2):
            for x, y in itertools.product(xs, ys):
                z = milnor_witt.kmw_mul(x, y)
                (w1, k1), (w2, k2) = to_model(n1, x.coords), to_model(n2, y.coords)
                if n1 < 0 or n2 < 0 or n1 + n2 >= 2:
                    k = (0,)  # K^M vanishes in negative degrees and above 1
                else:
                    k = (k1[0] * k2[0],)
                if to_model(z.degree, z.coords) != (mul[w1, w2], milnor(n1 + n2, k)):
                    failures.append({"q": q, "product": [n1, list(x.coords), n2, list(y.coords)]})
    return failures


def _suite_spech():
    from . import graded_spectrum
    failures = []
    field = _field_for(3)
    space = graded_spectrum.enumerate_primes(field, 50)
    flagged = [p for p in space.points if p.discrepancy]
    if len(flagged) != 1:
        failures.append({"flagged": len(flagged)})
    want = {("[w]", "eta"), ("[w]", "2"), ("[w]", "eta", "2")}
    for p in range(3, 51):
        if _is_prime(p):
            want.add(("[w]", "eta", str(p)))
    got = {p.sorted_generators() for p in space.points}
    if got != want:
        failures.append({"got": sorted(got), "want": sorted(want)})
    # the listed points against the bounded certificate and inclusion test
    for cert in space.certificates:
        if not (cert["prime"] and cert["proper"]):
            failures.append({"not_prime": list(cert["generators"])})
    if graded_spectrum.is_prime_ideal(graded_spectrum.HomogeneousPrime(frozenset({"[w]"})))["prime"]:
        failures.append({"prime": ["[w]"]})
    pairs = [
        (i, j)
        for i, a in enumerate(space.points)
        for j, b in enumerate(space.points)
        if i != j and b.includes(a)
    ]
    if space.specializations() != pairs:
        failures.append({"specializations": space.specializations(), "want": pairs})
    return failures


def _suite_eta():
    from . import milnor_witt
    failures = []
    for q in (3, 5, 7, 9):
        field = _field_for(q)
        for n in (1, 16, 64):
            if not milnor_witt.eta_power_nonzero(field, n):
                failures.append({"q": q, "n": n})
        local = milnor_witt.localize_eta(field)
        if not local["four_is_zero"]:
            failures.append({"q": q, "fact": "4=0"})
        if local["two_is_zero"] != (q % 4 == 1):
            failures.append({"q": q, "fact": "2=0"})
    return failures


def _suite_motives():
    """`motive_decompose` against the Kunneth twists read off the monomial
    counts, each projector idempotent and their sum the diagonal; and
    rigidity on triples of Lefschetz motives.  A decomposition that raises
    (`Motive` refuses a projector that is not idempotent) is a failure."""
    from . import chow_motives
    failures = []
    for text in ("P0", "P1", "P2", "P3", "P4", "P1xP1", "P2xP1", "P1xP1xP1"):
        space = chow_motives.parse_space(text)
        try:
            parts = chow_motives.motive_decompose(space)
        except (TtspecError, ValueError, AssertionError) as exc:
            failures.append({"space": text, "error": str(exc)})
            continue
        twists = [w for _, w in parts]
        if twists != _kunneth_twists(space):
            failures.append({"space": text, "twists": twists})
        diagonal = chow_motives.identity_correspondence(space).cls
        total = chow_motives.ChowClass(diagonal.space, ())
        for m, _ in parts:
            p = m.projector
            if chow_motives.compose(p, p) != p:
                failures.append({"space": text, "not_idempotent": repr(p.cls)})
            total = total + p.cls
        if total != diagonal:
            failures.append({"space": text, "fact": "projectors sum to the diagonal"})
    for i, j, k in itertools.product(range(-3, 4), repeat=3):
        check = chow_motives.rigidity_check(
            chow_motives.lefschetz_motive(i), chow_motives.lefschetz_motive(j), chow_motives.lefschetz_motive(k)
        )
        if not check["bijective"]:
            failures.append({"twists": [i, j, k]})
    return failures


def _suite_tate():
    """The `spc tate` answers against the lines of TateUniverse(4, 2): a (x) a^dual
    = 1, so zero is the only proper ideal; a (x) b != 0, so zero is prime; and
    hom(1, u^n) is Q exactly when u^n = Q(n)[2n] is the unit."""
    from . import tt_geometry
    universe = tt_geometry.TateUniverse(4, 2)
    unit = tt_geometry.TATE_UNIT
    lines = [tt_geometry.tate_line(*key) for key in universe.lines()]
    failures = []
    if not all(a.tensor(a.dual()) == unit for a in lines):
        failures.append({"fact": "a (x) a^dual = 1"})
    if any(a.tensor(b).is_zero() for a in lines for b in lines):
        failures.append({"fact": "a (x) b != 0"})
    found = tt_geometry.enumerate_primes(universe)["primes"]
    if found != [tt_geometry.ThickTensorIdeal(universe, frozenset())]:
        failures.append({"primes": [repr(p) for p in found]})
    ring = tt_geometry.graded_endomorphism_ring(universe)
    want = {n: "Q" if tt_geometry.tate_line(n, 2 * n) == unit else "0" for n in range(-4, 5)}
    if ring["degrees"] != want or ring["unit"] != want[0]:
        failures.append({"end_of_unit": ring["unit"], "degrees": ring["degrees"]})
    return failures


def _suite_spaces():
    from . import tt_geometry
    failures = []
    space = tt_geometry.spc_shtop(3, 3)
    generic = tt_geometry.chromatic_label(0, 1)
    if space.closure({generic}) != set(space.points):
        failures.append({"fact": "generic point closure"})
    chain = space.closure({tt_geometry.chromatic_label(2, 1)})
    want = {tt_geometry.chromatic_label(2, n) for n in (1, 2, 3, "inf")}
    if chain != want:
        failures.append({"fact": "chain closure", "got": sorted(map(str, chain))})
    report = tt_geometry.verify_comparison(tt_geometry.TateUniverse(3, 2))
    if not report["ok"]:
        failures.append({"fact": "comparison", "report": report})
    # the Thomason lattice of 2 chains of height 2 under a generic point:
    # (height + 2)^#primes subsets without the generic point, plus the space
    small = tt_geometry.spc_shtop(3, 2)
    subsets = small.thomason_subsets()
    if len(subsets) != 17:
        failures.append({"fact": "thomason subsets", "got": len(subsets)})
    for y in subsets:
        rest = set(small.points) - y
        quotient = tt_geometry.lattice_quotient(small, y)
        if set(quotient.points) != rest or small.generization(rest) != rest:
            failures.append({"fact": "quotient", "subset": sorted(y)})
        local = tt_geometry.lattice_localize(small, y)
        if set(local.points) != y or not local.is_closed(y):
            failures.append({"fact": "localization", "subset": sorted(y)})
    return failures


SUITES = {
    "tables": _suite_tables,
    "witt": _suite_witt,
    "ses": _suite_ses,
    "spech": _suite_spech,
    "eta": _suite_eta,
    "motives": _suite_motives,
    "tate": _suite_tate,
    "spaces": _suite_spaces,
}


def cmd_verify(args):
    names = [args.suite] if args.suite else list(SUITES)
    for name in names:
        if name not in SUITES:
            raise TtspecError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    verdicts = {}
    ok = True
    for name in names:
        failures = SUITES[name]()
        verdicts[name] = {"ok": not failures, "failures": failures}
        ok = ok and not failures
    return {"suites": verdicts, "ok": ok}


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
