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
only one in degree 1.  `reduce_word` evaluates a formal word (a
`SymbolWord`, built by `word`) as the `kmw reduce` parser evaluates its
text: each monomial c * eta^i [a] is `eta` (or `kmw_one`) times `symbol`
under `kmw_mul`, scaled by c, and the monomials of one degree are summed
with `kmw_add`.  A monomial with c = 0 or with two or more brackets is 0
and is skipped.  Every factor and partial product of every monomial must
lie in the degree window, as in the parser, and `verify --suite tables`
checks the result against Morel's fiber product.  `KmwElement`
reduces its coordinates by the degree's invariant factors: mod q - 1 in
degree 1, the second mod 2 in degree 0, none above 1, and below 0 both
mod 2 when -1 is a square; otherwise it folds eta^(m+1)[w] = 2 eta^m into
the first and keeps that mod 4.
"""

from __future__ import annotations

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


class SymbolWord(Value):
    """Formal integer combination of monomials eta^i * [a_1]...[a_k], the
    input of `reduce_word`."""

    __slots__ = ("field", "terms")

    def __init__(self, field: PrimePower, terms: tuple[tuple[int, int, tuple[FieldElement, ...]], ...]):
        object.__setattr__(self, "field", field)
        # each term: (coefficient, eta power i >= 0, bracket entries)
        object.__setattr__(self, "terms", terms)
        for coeff, i, entries in terms:
            if i < 0:
                raise InvalidArgument("eta power must be >= 0")
            for a in entries:
                if a.is_zero():
                    raise InvalidArgument("[0] is not a symbol")


def word(field: PrimePower, *terms) -> SymbolWord:
    """Build a word from (coeff, eta_power, entries) triples; entries coerced."""
    built = []
    for coeff, i, entries in terms:
        built.append((coeff, i, tuple(field.element(a) for a in entries)))
    return SymbolWord(field, tuple(built))


def reduce_word(w: SymbolWord) -> dict[int, KmwElement]:
    """Reduce a formal word to canonical coordinates, one element per degree,
    with the operations of the `kmw reduce` parser.

    Only degrees with a nonzero result appear in the output map.
    """
    field = w.field
    sums: dict[int, KmwElement] = {}
    for coeff, i, entries in w.terms:
        if coeff == 0 or len(entries) >= 2:
            # the monomial is 0, as [a][b] lies in K^MW_2 = 0; the parser would
            # still refuse eta^i or a partial product outside the window
            _check_degree(-i)
            _check_degree(len(entries) - i)
            continue
        x = eta(field, i) if i else kmw_one(field)
        for a in entries:
            x = kmw_mul(x, symbol(a))
        x = coeff * x
        sums[x.degree] = kmw_add(sums[x.degree], x) if x.degree in sums else x
    return {n: x for n, x in sums.items() if not x.is_zero()}


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
