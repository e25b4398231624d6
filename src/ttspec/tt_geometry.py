"""Combinatorial tensor-triangular geometry on the semisimple Tate model.

Objects are finite sums of rational lines Q(i)[m] (twist i, shift m), and
every triangle splits, so duals and thick tensor ideals are read off the
lines an object contains.  Within a finite twist/shift window the only
proper thick tensor ideal is zero, which is also the unique prime, so
ideal closures are computed in closed form: a nonzero line tensored with
its inverse line, which the symmetric window also holds, is the unit.  The
module also writes down the finite spectral spaces of the chromatic and
equivariant posets from their known orders, and draws their covers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ._value import Value
from .errors import BoundExceeded, InvalidArgument
from .finite_field import _prime_factors, _primes_upto


class TateObject(Value):
    """Finite sum of lines Q(i)[m] with multiplicities."""

    __slots__ = ("slots",)

    def __init__(self, slots: tuple[tuple[tuple[int, int], int], ...]):
        object.__setattr__(self, "slots", slots)  # sorted ((twist, shift), dim) pairs

    @staticmethod
    def from_dict(dims: dict) -> "TateObject":
        kept = {}
        for key, d in dims.items():
            if d < 0:
                raise InvalidArgument("dimensions must be >= 0")
            if d:
                kept[tuple(key)] = kept.get(tuple(key), 0) + d
        return TateObject(tuple(sorted(kept.items())))

    def is_zero(self) -> bool:
        return not self.slots

    def tensor(self, other: "TateObject") -> "TateObject":
        out = {}
        for (i1, m1), d1 in self.slots:
            for (i2, m2), d2 in other.slots:
                key = (i1 + i2, m1 + m2)
                out[key] = out.get(key, 0) + d1 * d2
        return TateObject.from_dict(out)

    def dual(self) -> "TateObject":
        return TateObject.from_dict({(-i, -m): d for (i, m), d in self.slots})

    def __repr__(self):
        if not self.slots:
            return "0"
        parts = []
        for (i, m), d in self.slots:
            base = f"Q({i})[{m}]"
            parts.append(base if d == 1 else f"{base}^{d}")
        return " + ".join(parts)


def tate_line(twist: int, shift: int = 0) -> TateObject:
    return TateObject.from_dict({(twist, shift): 1})


TATE_UNIT = tate_line(0, 0)
END_OF_UNIT = "Q"  # hom(1, 1) = Q: the unit's endomorphisms are the rational scalars


class TateUniverse(Value):
    """Truncation window: lines Q(i)[m] with |i| <= twist_radius and
    |m| <= shift_radius.  A negative radius gives the degenerate
    universe containing only the zero object."""

    __slots__ = ("twist_radius", "shift_radius")

    def __init__(self, twist_radius: int, shift_radius: int):
        object.__setattr__(self, "twist_radius", twist_radius)
        object.__setattr__(self, "shift_radius", shift_radius)

    def lines(self):
        """The window's lines, twist-major in ascending order; none when a
        radius is negative, since its range is then empty."""
        t, s = self.twist_radius, self.shift_radius
        return list(itertools.product(range(-t, t + 1), range(-s, s + 1)))

    def contains(self, a: TateObject) -> bool:
        return all(
            abs(i) <= self.twist_radius and abs(m) <= self.shift_radius
            for (i, m), _ in a.slots
        )


class ThickTensorIdeal(Value):
    """Thick tensor ideal of the windowed Tate model, recorded by the set
    of lines it contains (semisimplicity makes this complete data)."""

    __slots__ = ("universe", "lines")

    def __init__(self, universe: TateUniverse, lines: frozenset):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "lines", lines)

    def __repr__(self):
        return "(0)" if not self.lines else f"ideal<{len(self.lines)} lines>"


@lru_cache
def _window(twist_radius: int, shift_radius: int) -> frozenset:
    """The lines of the window with these radii, as one set built once per
    window: every nonzero ideal of the window holds them all."""
    t, s = twist_radius, shift_radius
    return frozenset(itertools.product(range(-t, t + 1), range(-s, s + 1)))


def ideal_closure(generators, universe: TateUniverse) -> ThickTensorIdeal:
    """Least thick tensor ideal containing the generators.

    Closed form: the zero ideal when every generator is zero, else the
    whole window, because any nonzero line tensored with its inverse line
    (in the symmetric window) is the unit, which generates every line.
    """
    nonzero = False
    for g in generators:
        if not universe.contains(g):
            raise InvalidArgument(f"{g} is outside the window")
        nonzero = nonzero or not g.is_zero()
    lines = _window(universe.twist_radius, universe.shift_radius) if nonzero else frozenset()
    return ThickTensorIdeal(universe, lines)


def enumerate_primes(universe: TateUniverse) -> dict:
    """All prime thick tensor ideals of the windowed Tate model.

    The window has two thick tensor ideals, zero and the window itself
    (see `ideal_closure`), and only zero is proper.  Zero is prime: in the
    semisimple model a (x) b = 0 forces a = 0 or b = 0, since the
    multiplicities of a tensor product are products of multiplicities.
    So the answer is the zero ideal, the closure of no generators, plus a
    diagnostic for the degenerate window without a unit."""
    if not universe.contains(TATE_UNIT):
        return {"primes": [], "diagnostic": "window has no unit object; no proper prime exists"}
    return {"primes": [ideal_closure((), universe)], "diagnostic": None}


class FiniteSpectralSpace(Value):
    """Finite poset of points; (a, b) in specializes means b lies in the
    closure of a (a transitive reflexive relation on labels)."""

    __slots__ = ("points", "specializes")

    def __init__(self, points: tuple[str, ...], specializes: frozenset):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "specializes", specializes)

    @staticmethod
    def from_edges(points, edges) -> "FiniteSpectralSpace":
        """Transitive closure of the edges plus a loop at each point, by one
        depth-first search per node.  An edge end outside `points` gets a
        loop only when a cycle passes through it."""
        points = tuple(points)
        successors = {p: {p} for p in points}
        for a, b in edges:
            successors.setdefault(a, set()).add(b)
        rel = set()
        for a, direct in successors.items():
            reached = set(direct)
            stack = list(direct)
            while stack:
                for c in successors.get(stack.pop(), ()):
                    if c not in reached:
                        reached.add(c)
                        stack.append(c)
            rel.update((a, b) for b in reached)
        return FiniteSpectralSpace(points, frozenset(rel))

    def to_dot(self, name: str = "spc") -> str:
        """Graphviz digraph of the points and the covers, read off successor
        sets: b covers a when b is below a and below no other point below a."""
        below = {}
        for a, b in self.specializes:
            if a != b:
                below.setdefault(a, set()).add(b)
        points = set(self.points)
        covers = (
            (a, b)
            for a, succ in below.items()
            for b in succ.difference(*(below.get(c, ()) for c in succ & points))
        )
        lines = [f"digraph {name} {{"] + [f'  "{p}";' for p in self.points]
        lines += [f'  "{a}" -> "{b}";' for a, b in sorted(covers)]
        lines.append("}")
        return "\n".join(lines)


def chromatic_label(p, n) -> str:
    return f"P_{p},{n}"


# Cold `spc ... --dot --json` near the limits, median of 5 (2-CPU x86-64 VM,
# Python 3.11): sh-top --primes 600 --height 40 (98,319 pairs) 0.49 s, one
# chain of height 440 (97,903 pairs) 0.40 s, equivariant --n 720720 --primes
# 400 --height 1 (93,840 pairs) 0.30 s, sh-top --primes 200000 --height 1 0.49 s.
SPC_PAIR_BOUND = 100_000
# largest group order `spc_equivariant` factors: trial division takes up to
# sqrt(n) steps, and a cold `spc equivariant --n 999999999989` (a prime) 0.3 s
SPC_ORDER_BOUND = 10 ** 12


def spc_shtop(prime_bound: int, height_bound: int) -> FiniteSpectralSpace:
    """Chromatic poset, written down: the generic point P_0,1 lies over the
    totally ordered chains P_p,1 -> ... -> P_p,height -> P_p,inf, one for
    each prime p <= prime_bound."""
    return _chromatic_space(prime_bound, height_bound, 1)


def _chromatic_space(prime_bound: int, height_bound: int, copies: int) -> FiniteSpectralSpace:
    """`spc_shtop`, after checking the pairs of `copies` disjoint copies,
    1 + P*L(L+3)/2 per copy for P chains of L points, before any point is
    built.  The primes come from the sieve, which PRIME_BOUND caps."""
    if prime_bound < 1 or height_bound < 1:
        raise InvalidArgument("bounds must be >= 1")
    primes = _primes_upto(prime_bound)
    pairs = copies * (1 + len(primes) * (height_bound + 1) * (height_bound + 4) // 2)
    if pairs > SPC_PAIR_BOUND:
        raise BoundExceeded(f"{pairs} specialization pairs exceed the spc pair bound {SPC_PAIR_BOUND}")
    generic = chromatic_label(0, 1)
    points, rel = [generic], {(generic, generic)}
    for p in primes:
        chain = [chromatic_label(p, n) for n in [*range(1, height_bound + 1), "inf"]]
        points.extend(chain)
        rel.update((generic, b) for b in chain)
        rel.update((a, b) for i, a in enumerate(chain) for b in chain[i:])
    return FiniteSpectralSpace(tuple(points), frozenset(rel))


def spc_equivariant(n: int, prime_bound: int, height_bound: int) -> FiniteSpectralSpace:
    """Equivariant poset for the cyclic group of order n: one chromatic copy
    per divisor of n, ascending, points prefixed H<divisor>:.  Disjoint
    copies of a closed relation are closed, so each copy is a renaming."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    if n > SPC_ORDER_BOUND:
        raise BoundExceeded(f"group order {n} exceeds the spc order bound {SPC_ORDER_BOUND}")
    divisors = [1]
    for p, e in _prime_factors(n).items():
        divisors = [d * p ** k for d in divisors for k in range(e + 1)]
    base = _chromatic_space(prime_bound, height_bound, len(divisors))
    points, rel = [], set()
    for tag in (f"H{m}:" for m in sorted(divisors)):
        points.extend(tag + p for p in base.points)
        rel.update((tag + a, tag + b) for a, b in base.specializes)
    return FiniteSpectralSpace(tuple(points), frozenset(rel))
