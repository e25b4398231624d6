"""Homogeneous prime spectrum of the graded ring attached to K^MW(F_q).

Killing the nilpotent generators ([w] and eta[w], both of square zero,
which `verify --suite spech` checks by explicit multiplication) leaves the
graded ring Z[t]/(2t) with t = eta in degree -1.  Homogeneous elements of
the reduced ring are an integer in degree 0 or a Z/2 multiple of eta^d in
degree -d.  Its homogeneous primes are known (Thornton, arXiv
1608.02913): (eta), (2), (eta, 2) and (eta, p) for each odd prime p, each
with [w] added, and inclusion is the only specialization between them.
`enumerate_primes` lists them from that classification.  The degree- and
coefficient-bounded multiplicativity check of each point, `is_prime_ideal`,
lives in `ttspec.verify` with the other checks.
"""

from __future__ import annotations

import math

from ._value import Value
from .errors import InvalidArgument
from .finite_field import _primes_upto

GENERATOR_OMEGA = "[w]"
GENERATOR_ETA = "eta"


class ReducedElement(Value):
    """Homogeneous element of Z[eta]/(2 eta): degree 0 integers, or
    coefficient-mod-2 multiples of eta^d in degree -d."""

    __slots__ = ("degree", "coeff")

    def __init__(self, degree: int, coeff: int):
        if degree > 0:
            raise ValueError("reduced ring vanishes in positive degrees")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeff", coeff % 2 if degree < 0 else coeff)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __mul__(self, other: "ReducedElement") -> "ReducedElement":
        return ReducedElement(self.degree + other.degree, self.coeff * other.coeff)

    def __repr__(self):
        if self.degree == 0:
            return str(self.coeff)
        return f"{self.coeff}*eta^{-self.degree}"


class HomogeneousPrime(Value):
    """Named-generator homogeneous ideal of the reduced ring.

    Generators are drawn from {[w], eta, 2} plus odd integer primes; [w]
    is always present (it generates the nilradical of K^MW).  `discrepancy`
    flags the ([w], eta, 2) point absent from the usual list.
    """

    __slots__ = ("generators", "discrepancy")

    def __init__(self, generators: frozenset[str], discrepancy: bool = False):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "discrepancy", discrepancy)

    @property
    def has_eta(self) -> bool:
        return GENERATOR_ETA in self.generators

    @property
    def integer_generators(self) -> tuple[int, ...]:
        return tuple(sorted(int(g) for g in self.generators if g not in _ALPHABET_SPECIALS))

    def sorted_generators(self) -> tuple[str, ...]:
        def key(g):
            if g == GENERATOR_OMEGA:
                return (0, 0)
            if g == GENERATOR_ETA:
                return (1, 0)
            return (2, int(g))

        return tuple(sorted(self.generators, key=key))

    def contains(self, x: ReducedElement) -> bool:
        """Ideal membership in the reduced ring.

        The degree-0 part of the ideal is g*Z for g the gcd of the integer
        generators; in negative degrees the ideal contains eta^d iff eta
        is a generator or some odd integer is (odd * eta^d = eta^d since
        2*eta = 0).
        """
        if x.is_zero():
            return True
        g = math.gcd(*self.integer_generators)
        if x.degree == 0:
            return g != 0 and x.coeff % g == 0
        return self.has_eta or (g != 0 and g % 2 == 1)

    def includes(self, other: "HomogeneousPrime") -> bool:
        """Ideal inclusion other <= self, decided on generators."""
        gens = []
        if other.has_eta:
            gens.append(ReducedElement(-1, 1))
        for m in other.integer_generators:
            gens.append(ReducedElement(0, m))
        return all(self.contains(x) for x in gens)

    def __repr__(self):
        return "(" + ", ".join(self.sorted_generators()) + ")"


_ALPHABET_SPECIALS = {GENERATOR_OMEGA, GENERATOR_ETA}


class SpecHSpace(Value):
    """Finite truncation of Spec^h of the reduced ring."""

    __slots__ = ("points", "prime_bound")

    def __init__(self, points: tuple[HomogeneousPrime, ...], prime_bound: int):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "prime_bound", prime_bound)

    def specializations(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with point j in the closure of point i (P_i <= P_j).

        Inclusion is the only specialization: the generic point ([w], eta)
        lies in every other point that contains eta, and ([w], 2) lies in
        ([w], eta, 2).
        """
        index = {p.generators: i for i, p in enumerate(self.points)}
        generic = index[frozenset({GENERATOR_OMEGA, GENERATOR_ETA})]
        out = [(generic, j) for j, p in enumerate(self.points) if p.has_eta and j != generic]
        two = index.get(frozenset({GENERATOR_OMEGA, "2"}))
        if two is not None:
            out.append((two, index[frozenset({GENERATOR_OMEGA, GENERATOR_ETA, "2"})]))
        return sorted(out)


def enumerate_primes(prime_bound: int) -> SpecHSpace:
    """The homogeneous primes of the reduced ring with integer
    generators <= prime_bound, sorted by their sorted generators.

    They are ([w], eta), ([w], 2) and ([w], eta, 2) when prime_bound >= 2,
    and ([w], eta, p) for each odd prime p <= prime_bound.  The point
    ([w], eta, 2), which the usual classification folds into its
    neighbours, is flagged as a discrepancy.  The points are the same for
    every field, so none is passed; the sieve refuses a prime_bound above
    PRIME_BOUND.
    """
    if prime_bound < 0:
        raise InvalidArgument(f"prime bound must be >= 0, got {prime_bound}")
    points = [HomogeneousPrime(frozenset({GENERATOR_OMEGA, GENERATOR_ETA}))]
    if prime_bound >= 2:
        points.append(HomogeneousPrime(frozenset({GENERATOR_OMEGA, "2"})))
        points.append(
            HomogeneousPrime(frozenset({GENERATOR_OMEGA, GENERATOR_ETA, "2"}), discrepancy=True)
        )
    points += [
        HomogeneousPrime(frozenset({GENERATOR_OMEGA, GENERATOR_ETA, str(p)}))
        for p in _primes_upto(prime_bound)[1:]
    ]
    points.sort(key=HomogeneousPrime.sorted_generators)
    return SpecHSpace(tuple(points), prime_bound)
