"""The graded ring K^MW of a small finite field, in canonical coordinates.

Coordinates are taken relative to the fixed multiplicative generator w of
F_q^* chosen by `finite_field.primitive_element`:

  degree n >= 2 : 0
  degree 1      : Z/(q-1) on [w]
  degree 0      : Z (+) Z/2 on 1 and eta*[w]
  degree -m < 0 : Z/4 on eta^m                      if q = 3 mod 4
                  Z/2 (+) Z/2 on eta^m, eta^(m+1)[w] if q = 1 mod 4

The rewriting facts used (each re-derived in the test suite from the
defining relations plus the degree-2 vanishing, and checked by `verify
--suite tables` against Morel's fiber product I^n x_(I^n/I^(n+1)) K^M_n):

  * any monomial with two or more bracket factors vanishes,
  * [a] = dlog(a) * [w] in degree 1,
  * eta*[a] = dlog(a) * eta[w] in degree 0, with eta[w] of order 2,
  * eta^(j)[a] = dlog(a) * eta^(j)[w] in negative degrees, where
    eta^(j)[w] = 2 * eta^(j-1) when -1 is not a square (q = 3 mod 4).

Degree 0 is GW(F_q) and degree -m < 0 is W(F_q) (Morel): 1 + eta[a] is <a>,
so degree 0's coordinates are a form's (rank, disc), and GW's elements are
these (`quadratic_forms.gw_class`); eta^m is <1> and eta^(m+1)[w] is
<w> - <1>, so degree -m's are a Witt class's (parity, disc), before the fold
below.  GW, W and I^n add and multiply only here.  Whether
-1 is a square is read from `PrimePower.minus_one_is_square` by `_factors`,
`KmwElement` and `hyperbolic_kmw`.

Products use (plain, bracket) coordinates: in degree n <= 0, x = p *
eta^(-n) + b * eta^(1-n)[w]; in degree 1, x = b * [w], with p = 0.  Since
eta is central and [w][w] = 0, `kmw_mul` gives the product the plain
coordinate p_x * p_y and the bracket coordinate p_x * b_y + b_x * p_y, the
only one in degree 1.  `reduce_word` evaluates a word as written (a
`SymbolWord` of text; `word` writes one from (coefficient, eta power,
entries) triples) as it reads it, with `eta`, `symbol`, `kmw_mul` and
`kmw_add`, so 40 factors h cost 40 products, not 2^40 monomials.  It holds
the word grammar and is what `kmw reduce` runs; `verify --suite tables`
checks its monomials against Morel's fiber product.  `KmwElement`
reduces its coordinates by the degree's invariant factors: mod q - 1 in
degree 1, the second mod 2 in degree 0, none above 1, and below 0 both
mod 2 when -1 is a square; otherwise it folds eta^(m+1)[w] = 2 eta^m into
the first and keeps that mod 4.
"""

from __future__ import annotations

import re

from ._value import Value
from .errors import InvalidArgument
from .finite_field import FieldElement, PrimePower, discrete_log, primitive_element

DEGREE_BOUND = 64


def _check_degree(n: int):
    if abs(n) > DEGREE_BOUND:
        raise InvalidArgument(f"degree {n} outside supported window [-{DEGREE_BOUND}, {DEGREE_BOUND}]")


class GroupShape(Value):
    """Finitely generated abelian group: invariant factors (0 means Z)."""

    __slots__ = ("invariant_factors", "generators")

    def __init__(self, invariant_factors: tuple[int, ...], generators: tuple[str, ...]):
        object.__setattr__(self, "invariant_factors", invariant_factors)
        object.__setattr__(self, "generators", generators)


def _factors(field: PrimePower, n: int) -> tuple[int, ...]:
    """Invariant factors of K^MW_n(F_q) (0 means Z)."""
    _check_degree(n)
    if n >= 2:
        return ()
    if n == 1:
        return (field.q - 1,)
    if n == 0:
        return (0, 2)
    return (2, 2) if field.minus_one_is_square else (4,)


def kmw_group(field: PrimePower, n: int) -> GroupShape:
    """The abelian group K^MW_n(F_q) with generator names."""
    factors = _factors(field, n)
    if n >= 2:
        names = ()
    elif n == 1:
        names = ("[w]",)
    elif n == 0:
        names = ("1", "eta[w]")
    else:
        names = (f"eta^{-n}", f"eta^{1 - n}[w]")[: len(factors)]
    return GroupShape(factors, names)


class KmwElement(Value):
    __slots__ = ("field", "degree", "coords")

    def __init__(self, field: PrimePower, degree: int, coords: tuple[int, ...]):
        # coords modulo the invariant factors of _factors(field, degree), inline;
        # below degree 0 a second coordinate is the eta^(1-degree)[w] one
        if degree == 1:
            coords = (coords[0] % (field.q - 1),)
        elif degree == 0:
            coords = (coords[0], coords[1] % 2)
        elif not -DEGREE_BOUND <= degree <= DEGREE_BOUND:
            _check_degree(degree)
        elif degree > 0:
            coords = ()
        elif field.minus_one_is_square:
            coords = (coords[0] % 2, coords[1] % 2)
        elif len(coords) == 2:  # eta^(1-degree)[w] = 2 eta^(-degree)
            coords = ((coords[0] + 2 * coords[1]) % 4,)
        else:
            coords = (coords[0] % 4,)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coords", coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __rmul__(self, scalar: int):
        return KmwElement(self.field, self.degree, [scalar * c for c in self.coords])


def kmw_zero(field: PrimePower, n: int) -> KmwElement:
    return KmwElement(field, n, (0, 0))


def kmw_one(field: PrimePower) -> KmwElement:
    return KmwElement(field, 0, (1, 0))


def eta(field: PrimePower, power: int = 1) -> KmwElement:
    """The element eta^power, power >= 1."""
    if power < 1:
        raise InvalidArgument("power must be >= 1")
    return KmwElement(field, -power, (1, 0))


def omega_symbol(field: PrimePower) -> KmwElement:
    """The degree-1 generator [w]."""
    return KmwElement(field, 1, (1,))


def symbol(a: FieldElement) -> KmwElement:
    """The degree-1 element [a] = dlog(a) * [w]."""
    if a.is_zero():
        raise InvalidArgument("[0] is not a symbol")
    return KmwElement(a.field, 1, (discrete_log(a),))


def hyperbolic_kmw(field: PrimePower) -> KmwElement:
    """h = 1 + (eta[-1] + 1) = 2 + eta[-1] in degree 0.  Only log(-1) mod 2
    enters: 0 iff -1 is a square."""
    return KmwElement(field, 0, (2, int(not field.minus_one_is_square)))


def kmw_add(x: KmwElement, y: KmwElement) -> KmwElement:
    if x.field != y.field:
        raise InvalidArgument("elements over different fields")
    if x.degree != y.degree:
        raise InvalidArgument(f"degrees {x.degree} and {y.degree}")
    return KmwElement(x.field, x.degree, [a + b for a, b in zip(x.coords, y.coords)])


def _plain_bracket(x: KmwElement) -> tuple[int, int]:
    """x's (plain, bracket) coordinates; both 0 above degree 1."""
    c = x.coords
    if len(c) == 2:
        return c
    if x.degree == 1:
        return 0, c[0]
    return (c[0], 0) if c else (0, 0)


def kmw_mul(x: KmwElement, y: KmwElement) -> KmwElement:
    field = x.field
    if field is not y.field and field != y.field:
        raise InvalidArgument("elements over different fields")
    degree = x.degree + y.degree
    px, bx = _plain_bracket(x)
    py, by = _plain_bracket(y)
    bracket = px * by + bx * py
    return KmwElement(field, degree, (bracket,) if degree == 1 else (px * py, bracket))


# ---------------------------------------------------------------- words

_TOKEN = re.compile(r"\s*(?:(\[|\]|\^|\+|-|\*|eta|h|w|\d+)|\S)")


class SymbolWord(Value):
    """A word in eta, h, integers and symbols [a] over `field`, as written;
    `reduce_word` reads it and refuses what the grammar does not admit."""

    __slots__ = ("field", "text")

    def __init__(self, field: PrimePower, text: str):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "text", text)


def word(field: PrimePower, *terms) -> SymbolWord:
    """The word sum c eta^i [a_1]...[a_k] of (c, i, entries) triples, as text.
    An entry is coerced into the field and written as its integer
    representative over a prime field, as w^dlog(a) over an extension."""
    texts = []
    for coeff, i, entries in terms:
        if i < 0:
            raise InvalidArgument("eta power must be >= 0")
        brackets = ""
        for a in map(field.element, entries):
            if a.is_zero():
                raise InvalidArgument("[0] is not a symbol")
            brackets += f"[{a.value}]" if field.e == 1 else f"[w^{discrete_log(a)}]"
        texts.append(" ".join(filter(None, (str(coeff), f"eta^{i}" if i else "", brackets))))
    return SymbolWord(field, " + ".join(texts) or "0")


def _tokenize(text: str) -> list[str]:
    out = []
    for m in _TOKEN.finditer(text):  # matches follow each other: any non-space matches
        tok = m.group(1)
        if tok is None:
            raise InvalidArgument(f"cannot tokenize {text[m.start():]!r}")
        if len(tok) > 4000:  # int() refuses more than 4300 digits
            raise InvalidArgument(f"a word integer may have at most 4000 digits, got {len(tok)}")
        out.append(tok)
    return out


def reduce_word(w: SymbolWord) -> dict[int, KmwElement]:
    """The word `w.text` evaluated in K^MW(F_q) as it is read: {degree:
    element} of its nonzero components.

        word   := term (('+'|'-') term)*
        term   := ['-'] factor (['*'] factor)*   (juxtaposition or '*' is product)
        factor := INT | 'eta' ['^' INT] | 'h' | '[' entry ']'
        entry  := ['-'] INT | 'w' ['^' INT]

    Each factor is a homogeneous element (INT times `kmw_one`, `eta`,
    `hyperbolic_kmw` or `symbol`), a term is their product under `kmw_mul`,
    and the terms are summed by `kmw_add` degree by degree.  `KmwElement`
    refuses a degree outside [-DEGREE_BOUND, DEGREE_BOUND], so every factor
    and every partial product of a term must lie in that window, even where
    the whole term vanishes or lands back inside it."""
    field = w.field
    tokens = _tokenize(w.text)[::-1]  # the next token is tokens[-1]

    def take(expected=None):
        if not tokens:
            raise InvalidArgument("expression ended early" + (f", expected {expected!r}" if expected else ""))
        tok = tokens.pop()
        if expected is not None and tok != expected:
            raise InvalidArgument(f"unexpected token {tok!r}, expected {expected!r}")
        return tok

    def exponent():
        if tokens[-1:] != ["^"]:
            return 1
        take()
        tok = take()
        if not tok.isdigit():
            raise InvalidArgument(f"exponent must be a nonnegative integer, got {tok!r}")
        return int(tok)

    def factor():
        tok = take()
        if tok.isdigit():
            return int(tok) * kmw_one(field)
        if tok == "eta":
            power = exponent()
            return eta(field, power) if power else kmw_one(field)
        if tok == "h":
            return hyperbolic_kmw(field)
        if tok != "[":
            raise InvalidArgument(f"unexpected token {tok!r}")
        negate = tokens[-1:] == ["-"]
        if negate:
            take()
        tok = take()
        if tok == "w":
            entry = primitive_element(field) ** exponent()
        elif tok.isdigit():
            entry = field.element(int(tok))
        else:
            raise InvalidArgument(f"bad bracket entry {tok!r}")
        take("]")
        return symbol(-entry if negate else entry)

    sums = {}
    sign = 1
    while True:
        if tokens[-1:] == ["-"]:
            take()
            sign = -sign
        x = factor()
        while tokens and tokens[-1] not in ("+", "-"):
            if tokens[-1] == "*":
                take()
            x = kmw_mul(x, factor())
        if sign == -1:
            x = -1 * x
        sums[x.degree] = kmw_add(sums[x.degree], x) if x.degree in sums else x
        if not tokens:  # a term stops only at '+', '-' or the end
            break
        sign = 1 if take() == "+" else -1
    return {n: x for n, x in sums.items() if not x.is_zero()}


class MilnorKElement(Value):
    """Element of Milnor K-theory: Z in degree 0, F_q^* in degree 1, 0 above.
    `value` is an int in degree 0, a FieldElement in degree 1, else None."""

    __slots__ = ("field", "degree", "value")

    def __init__(self, field: PrimePower, degree: int, value: object):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "value", value)

    def is_zero(self) -> bool:
        if self.degree == 0:
            return self.value == 0
        if self.degree == 1:
            return self.value == self.field.one()
        return True


def milnor_group(field: PrimePower, n: int) -> GroupShape:
    if n < 0:
        return GroupShape((), ())  # treated as 0 so the sequence check is total
    if n == 0:
        return GroupShape((0,), ("1",))
    if n == 1:
        return GroupShape((field.q - 1,), ("{w}",))
    return GroupShape((), ())


def to_milnor(x: KmwElement) -> MilnorKElement:
    """Quotient by the image of eta-multiplication (degree >= 0 only)."""
    if x.degree < 0:
        raise InvalidArgument("Milnor K-theory undefined in negative degrees")
    field = x.field
    if x.degree == 0:
        return MilnorKElement(field, 0, x.coords[0])
    if x.degree == 1:
        return MilnorKElement(field, 1, primitive_element(field) ** x.coords[0])
    return MilnorKElement(field, x.degree, None)


def from_fundamental_ideal(field: PrimePower, n: int, parity: int, disc: int) -> KmwElement:
    """The composite of the Pfister-form identification I^(n+1) ~ K^W_(n+1)
    with multiplication by eta, landing in K^MW_n.

    (parity, disc) are the bits of the class parity*<1> + disc*(<w> - <1>)
    of W(F_q), and <a> = 1 + eta[a] in K^MW_0, so the class maps to
    parity*eta^(-n) + disc*eta^(1-n)[w] for n < 0, where I^(n+1) is all of
    W.  For n = 0 only I = {0, <1,-w>}, the classes of parity 0, is
    accepted, and <1,-w> maps to eta[w].  For n >= 1, I^(n+1) = 0.
    """
    _check_degree(n)
    if n >= 0 and (parity or n >= 1 and disc):
        raise InvalidArgument(f"class not in I^{n + 1}")
    return KmwElement(field, n, (parity, disc))
