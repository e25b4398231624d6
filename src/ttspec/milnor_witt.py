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
  * eta^(j)[a] = 2 * dlog(a) * eta^(j-1) in negative degrees when
    q = 3 mod 4, and dlog(a) * eta^(j)[w] (order 2) when q = 1 mod 4.

`_monomial` is this table for one monomial c * eta^i [a]^k, k <= 1:

  k = 0:         c * 1 (i = 0), c * eta^i (i >= 1)
  k = 1, d = dlog(a):
    i = 0:       c*d * [w]
    i = 1:       c*d * eta[w]
    i >= 2:      2*c*d * eta^(i-1)  if q = 3 mod 4
                 c*d * eta^i[w]     if q = 1 mod 4

Each row is a multiple of one generator, so `_monomial` gives its degree,
the coordinate it lands in and the multiple.  `reduce_word` adds the rows
of a word's monomials straight into per-degree coordinates.  `kmw_mul`
writes each factor as at most two generator terms c * eta^i [w]^k,
multiplies them pairwise (eta powers and bracket counts add, so
[w]*[w] = 0), and adds their rows with d = 1.  `KmwElement` reduces its
coordinates by the degree's invariant factors, read off the table: mod
q - 1 in degree 1, the second mod 2 in degree 0, mod 4 (q = 3 mod 4) or
both mod 2 (q = 1 mod 4) below 0, none above 1.
"""

from __future__ import annotations

from ._value import Value
from .errors import (
    DegreeMismatch,
    FieldMismatch,
    InvalidArgument,
    NegativeDegree,
    NotInIdealPower,
    ZeroSymbolEntry,
)
from .finite_field import FieldElement, PrimePower, discrete_log, primitive_element
from .quadratic_forms import (
    GWClass,
    WittClass,
    fundamental_ideal_power,
    _witt_key,
)

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


def _factors(q: int, n: int) -> tuple[int, ...]:
    """Invariant factors of K^MW_n(F_q) (0 means Z)."""
    _check_degree(n)
    if n >= 2:
        return ()
    if n == 1:
        return (q - 1,)
    if n == 0:
        return (0, 2)
    return (4,) if q % 4 == 3 else (2, 2)


def kmw_group(field: PrimePower, n: int) -> GroupShape:
    """The abelian group K^MW_n(F_q) with generator names."""
    factors = _factors(field.q, n)
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
        # coords modulo the invariant factors of _factors(q, degree), inline
        if degree == 1:
            coords = (coords[0] % (field.q - 1),)
        elif degree == 0:
            coords = (coords[0], coords[1] % 2)
        elif not -DEGREE_BOUND <= degree <= DEGREE_BOUND:
            _check_degree(degree)
        elif degree > 0:
            coords = ()
        elif field.q & 3 == 3:
            coords = (coords[0] % 4,)
        else:
            coords = (coords[0] % 2, coords[1] % 2)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coords", coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __rmul__(self, scalar: int):
        return KmwElement(self.field, self.degree, tuple(scalar * c for c in self.coords))


def kmw_zero(field: PrimePower, n: int) -> KmwElement:
    return KmwElement(field, n, (0,) * len(_factors(field.q, n)))


def kmw_one(field: PrimePower) -> KmwElement:
    return KmwElement(field, 0, (1, 0))


def eta(field: PrimePower, power: int = 1) -> KmwElement:
    """The element eta^power, power >= 1."""
    if power < 1:
        raise InvalidArgument("power must be >= 1")
    if field.q % 4 == 3:
        return KmwElement(field, -power, (1,))
    return KmwElement(field, -power, (1, 0))


def omega_symbol(field: PrimePower) -> KmwElement:
    """The degree-1 generator [w]."""
    return KmwElement(field, 1, (1,))


def symbol(a: FieldElement) -> KmwElement:
    """The degree-1 element [a] = dlog(a) * [w]."""
    if a.is_zero():
        raise ZeroSymbolEntry("[0] is not a symbol")
    return KmwElement(a.field, 1, (discrete_log(a),))


def hyperbolic_kmw(field: PrimePower) -> KmwElement:
    """h = 1 + (eta[-1] + 1) = 2 + eta[-1] in degree 0.  Only log(-1) =
    (q - 1)/2 mod 2 enters: 0 iff -1 is a square iff q = 1 mod 4."""
    return KmwElement(field, 0, (2, (field.q - 1) // 2 % 2))


class SymbolWord(Value):
    """Formal integer combination of monomials eta^i * [a_1]...[a_k]."""

    __slots__ = ("field", "terms")

    def __init__(self, field: PrimePower, terms: tuple[tuple[int, int, tuple[FieldElement, ...]], ...]):
        object.__setattr__(self, "field", field)
        # each term: (coefficient, eta power i >= 0, bracket entries)
        object.__setattr__(self, "terms", terms)
        for coeff, i, entries in terms:
            if i < 0:
                raise ValueError("eta power must be >= 0")
            for a in entries:
                if a.is_zero():
                    raise ZeroSymbolEntry("[0] is not a symbol")

    def __add__(self, other: "SymbolWord") -> "SymbolWord":
        self._check(other)
        return SymbolWord(self.field, self.terms + other.terms)

    def __neg__(self):
        return SymbolWord(
            self.field, tuple((-c, i, e) for c, i, e in self.terms)
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "SymbolWord") -> "SymbolWord":
        self._check(other)
        terms = []
        for c1, i1, e1 in self.terms:
            for c2, i2, e2 in other.terms:
                terms.append((c1 * c2, i1 + i2, e1 + e2))
        return SymbolWord(self.field, tuple(terms))

    def __rmul__(self, scalar: int):
        return SymbolWord(self.field, tuple((scalar * c, i, e) for c, i, e in self.terms))

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("words over different fields")


def word(field: PrimePower, *terms) -> SymbolWord:
    """Build a word from (coeff, eta_power, entries) triples; entries coerced."""
    built = []
    for coeff, i, entries in terms:
        built.append((coeff, i, tuple(field.element(a) for a in entries)))
    return SymbolWord(field, tuple(built))


def word_one(field: PrimePower) -> SymbolWord:
    return SymbolWord(field, ((1, 0, ()),))


def word_eta(field: PrimePower, power: int = 1) -> SymbolWord:
    return SymbolWord(field, ((1, power, ()),))


def word_symbol(a: FieldElement) -> SymbolWord:
    if a.is_zero():
        raise ZeroSymbolEntry("[0] is not a symbol")
    return SymbolWord(a.field, ((1, 0, (a,)),))


def word_h(field: PrimePower) -> SymbolWord:
    return SymbolWord(field, ((2, 0, ()), (1, 1, (-field.one(),))))


def _monomial(q3: bool, c: int, i: int, bracket: int, d: int = 1) -> tuple[int, int, int]:
    """(degree, coordinate index, multiple) of c * eta^i, or of
    c * eta^i [a] with d = dlog(a) when `bracket` is 1; q3 is q = 3 mod 4."""
    if not bracket:
        return -i, 0, c
    c *= d
    if i == 0:
        return 1, 0, c
    if i == 1:
        return 0, 1, c
    return (1 - i, 0, 2 * c) if q3 else (1 - i, 1, c)


def reduce_word(w: SymbolWord) -> dict[int, KmwElement]:
    """Reduce a formal word to canonical coordinates, one element per degree.

    Only degrees with a nonzero result appear in the output map.
    """
    field = w.field
    q3 = field.q % 4 == 3
    acc: dict[int, list[int]] = {}  # KmwElement keeps as many as K^MW_n has factors
    for coeff, i, entries in w.terms:
        if coeff == 0 or len(entries) >= 2:
            continue  # a double bracket lies in K^MW_2 = 0 and kills the monomial
        d = discrete_log(entries[0]) if entries else 1
        degree, idx, c = _monomial(q3, coeff, i, len(entries), d)
        cur = acc.get(degree)
        if cur is None:
            cur = acc[degree] = [0, 0]
        cur[idx] += c
    out = {}
    for degree, coords in acc.items():
        el = KmwElement(field, degree, coords)
        if not el.is_zero():
            out[degree] = el
    return out


def reduce_homogeneous(w: SymbolWord, degree: int) -> KmwElement:
    """Reduce a word and return the component in the given degree."""
    return reduce_word(w).get(degree, kmw_zero(w.field, degree))


def kmw_add(x: KmwElement, y: KmwElement) -> KmwElement:
    if x.field != y.field:
        raise FieldMismatch("elements over different fields")
    if x.degree != y.degree:
        raise DegreeMismatch(f"degrees {x.degree} and {y.degree}")
    return KmwElement(x.field, x.degree, tuple(a + b for a, b in zip(x.coords, y.coords)))


def _generator_terms(x: KmwElement) -> tuple[tuple[int, int, int], ...]:
    """x as at most two terms (coefficient, eta power, bracket count)."""
    n, c = x.degree, x.coords
    if n >= 2:
        return ()
    if n == 1:
        return ((c[0], 0, 1),)
    if n == 0:
        return ((c[0], 0, 0), (c[1], 1, 1))
    if len(c) == 1:
        return ((c[0], -n, 0),)
    return ((c[0], -n, 0), (c[1], 1 - n, 1))


def kmw_mul(x: KmwElement, y: KmwElement) -> KmwElement:
    field = x.field
    if field is not y.field and field != y.field:
        raise FieldMismatch("elements over different fields")
    q3 = field.q % 4 == 3
    acc = [0, 0]  # KmwElement keeps as many coordinates as K^MW_n has factors
    for c1, i1, b1 in _generator_terms(x):
        if c1:
            for c2, i2, b2 in _generator_terms(y):
                if c2 and b1 + b2 < 2:
                    _, idx, c = _monomial(q3, c1 * c2, i1 + i2, b1 + b2)
                    acc[idx] += c
    return KmwElement(field, x.degree + y.degree, acc)


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
        raise NegativeDegree("Milnor K-theory undefined in negative degrees")
    field = x.field
    if x.degree == 0:
        return MilnorKElement(field, 0, x.coords[0])
    if x.degree == 1:
        return MilnorKElement(field, 1, primitive_element(field) ** x.coords[0])
    return MilnorKElement(field, x.degree, None)


def from_fundamental_ideal(field: PrimePower, n: int, w: WittClass) -> KmwElement:
    """The composite of the Pfister-form identification I^(n+1) ~ K^W_(n+1)
    with multiplication by eta, landing in K^MW_n.

    For n = 0 this is <1,-a> |-> eta[a]; for n < 0 the Witt class
    sum of <a_i> maps to (sum_i (1 + eta[a_i])) * eta^(-n).
    """
    _check_degree(n)
    power = fundamental_ideal_power(field, max(n + 1, 0))
    if _witt_key(w) not in {_witt_key(m) for m in power["members"]}:
        raise NotInIdealPower(f"class not in I^{n + 1}")
    if n >= 1:
        return kmw_zero(field, n)  # I^(n+1) = 0 there
    if n == 0:
        if w.is_zero():
            return kmw_zero(field, 0)
        # the nonzero element of I is the Pfister class <1,-w> |-> eta[w]
        return KmwElement(field, 0, (0, 1))
    entries = w.anisotropic_kernel.entries
    wrd = SymbolWord(field, ())
    for a in entries:
        wrd = wrd + SymbolWord(field, ((1, -n, ()), (1, -n + 1, (a,))))
    return reduce_homogeneous(wrd, n)


def kmw_to_gw(x: KmwElement) -> GWClass:
    """The ring isomorphism K^MW_0 -> GW; 1 + eta[a] corresponds to <a>."""
    if x.degree != 0:
        raise DegreeMismatch("gw_iso requires degree 0")
    return GWClass(x.field, x.coords[0], x.coords[1])


def gw_to_kmw(c: GWClass) -> KmwElement:
    return KmwElement(c.field, 0, (c.rank, c.disc))


def localize_eta(field: PrimePower, degree_window: int = 6) -> dict:
    """The graded ring K^MW(F_q)[eta^(-1)], computed as a degreewise colimit.

    Each graded piece stabilizes to the Witt group W(F_q).  The
    stabilization index of a degree is the least k >= 1 such that every
    transition map (multiplication by eta) after the k-th step is
    surjective, i.e. the stage whose image already fills the colimit.  By
    the K^MW table, eta * - : K^MW_m -> K^MW_(m-1) is onto for m <= 0,
    where it carries the generators eta^j and eta^j[w] to eta^(j+1) and
    eta^(j+1)[w], and for m >= 3, where the target is 0; it is not onto
    for m = 1, where the image of [w] misses the free part of K^MW_0, nor
    for m = 2, where the source is 0.  So degree n stabilizes at
    max(1, n).  The report also records the torsion facts used
    downstream: 4 = 0 always, and 2 = 0 iff q = 1 mod 4.
    """
    colimit_shape = (2, 2) if field.q % 4 == 1 else (4,)
    degrees = {
        n: {"colimit_invariant_factors": colimit_shape, "stabilization_index": max(1, n)}
        for n in range(degree_window, -degree_window - 1, -1)
    }
    return {
        "q": field.q,
        "ring": "W(F_q)[eta, eta^-1]",
        "degreewise": degrees,
        "four_is_zero": _localized_scalar_is_zero(field, 4),
        "two_is_zero": _localized_scalar_is_zero(field, 2),
    }


def _localized_scalar_is_zero(field: PrimePower, scalar: int) -> bool:
    """Is the integer scalar zero in the eta-localization?

    scalar becomes zero iff scalar * eta^m = 0 for some m >= 1 (the colimit
    kills it); the maps stabilize immediately in negative degrees.
    """
    return (scalar * eta(field, 1)).is_zero()
