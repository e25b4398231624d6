"""Combinatorial tensor-triangular geometry on the semisimple Tate model.

Objects are finite sums of rational lines Q(i)[m] (twist i, shift m);
morphisms are slotwise rational matrices and every triangle splits, so
cones, duals and thick tensor ideals are exactly computable.  Within a
finite twist/shift window the only proper thick tensor ideal is zero,
which is also the unique prime, so ideal closures are computed in closed
form: a nonzero line tensored with its inverse line, which the symmetric
window also holds, is the unit.  The module also writes down the finite
spectral spaces of the chromatic and equivariant posets from their known
orders, and computes Thomason subsets, lattice-level quotient/localization,
and the comparison map into the homogeneous spectrum of the degree-0
endomorphism ring, which `verify --suite spaces` (in `ttspec.verify`)
checks against the supports of cones.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ._value import Value
from .errors import (
    BoundExceeded,
    InvalidArgument,
    NotSpecializationClosed,
    ShapeMismatch,
    UniverseTooSmall,
)
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
                raise ValueError("dimensions must be >= 0")
            if d:
                kept[tuple(key)] = kept.get(tuple(key), 0) + d
        return TateObject(tuple(sorted(kept.items())))

    def dims(self) -> dict:
        return dict(self.slots)

    def is_zero(self) -> bool:
        return not self.slots

    @property
    def support_lines(self) -> frozenset:
        return frozenset(k for k, _ in self.slots)

    def dim_at(self, key) -> int:
        return self.dims().get(tuple(key), 0)

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


def tate_line(twist: int, shift: int = 0, dim: int = 1) -> TateObject:
    return TateObject.from_dict({(twist, shift): dim})


TATE_UNIT = tate_line(0, 0)
END_OF_UNIT = "Q"  # hom(1, 1) = Q: the unit's endomorphisms are the rational scalars
THOMASON_POINT_BOUND = 12  # most points `thomason_subsets` takes the 2^points subsets of


class TateMorphism(Value):
    """Slotwise rational matrices source -> target (rows = target dim)."""

    __slots__ = ("source", "target", "blocks")

    def __init__(
        self,
        source: TateObject,
        target: TateObject,
        blocks: tuple[tuple[tuple[int, int], tuple[tuple, ...]], ...],  # rows of Fractions
    ):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "blocks", blocks)

    @staticmethod
    def from_dict(source: TateObject, target: TateObject, blocks: dict) -> "TateMorphism":
        from fractions import Fraction  # loaded only where a morphism is built
        kept = {}
        for key, mat in blocks.items():
            key = tuple(key)
            rows = target.dim_at(key)
            cols = source.dim_at(key)
            mat = tuple(tuple(Fraction(x) for x in row) for row in mat)
            if len(mat) != rows or any(len(row) != cols for row in mat):
                raise ShapeMismatch(f"block at {key} must be {rows}x{cols}")
            if any(any(row) for row in mat):
                kept[key] = mat
        return TateMorphism(source, target, tuple(sorted(kept.items())))

    def block_at(self, key):
        from fractions import Fraction
        for k, mat in self.blocks:
            if k == tuple(key):
                return mat
        rows = self.target.dim_at(key)
        cols = self.source.dim_at(key)
        return tuple((Fraction(0),) * cols for _ in range(rows))


def identity_morphism(a: TateObject) -> TateMorphism:
    blocks = {}
    for key, d in a.slots:
        blocks[key] = [[int(i == j) for j in range(d)] for i in range(d)]  # from_dict makes Fractions
    return TateMorphism.from_dict(a, a, blocks)


def _matrix_rank(mat) -> int:
    rows = [list(r) for r in mat]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def cone(f: TateMorphism) -> TateObject:
    """ker(f)[1] + coker(f), slot by slot, by rank-nullity."""
    keys = {k for k, _ in f.source.slots} | {k for k, _ in f.target.slots}
    out = {}
    for key in keys:
        i, m = key
        src = f.source.dim_at(key)
        tgt = f.target.dim_at(key)
        rank = _matrix_rank(f.block_at(key)) if src and tgt else 0
        ker = src - rank
        coker = tgt - rank
        if ker:
            out[(i, m + 1)] = out.get((i, m + 1), 0) + ker
        if coker:
            out[(i, m)] = out.get((i, m), 0) + coker
    return TateObject.from_dict(out)


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

    def contains(self, a: TateObject) -> bool:
        return a.support_lines <= self.lines

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
            raise UniverseTooSmall(f"{g} is outside the window")
        nonzero = nonzero or not g.is_zero()
    lines = _window(universe.twist_radius, universe.shift_radius) if nonzero else frozenset()
    return ThickTensorIdeal(universe, lines)


def enumerate_primes(universe: TateUniverse) -> dict:
    """All prime thick tensor ideals of the windowed Tate model.

    The window has two thick tensor ideals, zero and the window itself
    (see `ideal_closure`), and only zero is proper.  Zero is prime: in the
    semisimple model a (x) b = 0 forces a = 0 or b = 0, since the
    multiplicities of a tensor product are products of multiplicities.
    So the answer is the zero ideal, read off without a search, plus a
    diagnostic for the degenerate window without a unit."""
    if not universe.contains(TATE_UNIT):
        return {"primes": [], "diagnostic": "window has no unit object; no proper prime exists"}
    return {"primes": [ThickTensorIdeal(universe, frozenset())], "diagnostic": None}


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

    def closure(self, subset) -> set:
        subset = set(subset)
        return {b for a, b in self.specializes if a in subset}

    def generization(self, subset) -> set:
        subset = set(subset)
        return {a for a, b in self.specializes if b in subset}

    def is_closed(self, subset) -> bool:
        return self.closure(subset) == set(subset)

    def thomason_subsets(self) -> list[frozenset]:
        """All specialization-closed subsets, by brute force."""
        if len(self.points) > THOMASON_POINT_BOUND:
            raise BoundExceeded(f"{len(self.points)} points exceeds the bound {THOMASON_POINT_BOUND}")
        out = []
        for r in range(len(self.points) + 1):
            for combo in itertools.combinations(self.points, r):
                if self.is_closed(combo):
                    out.append(frozenset(combo))
        return out

    def subspace(self, subset) -> "FiniteSpectralSpace":
        subset = set(subset)
        pts = tuple(p for p in self.points if p in subset)
        rel = frozenset((a, b) for a, b in self.specializes if a in subset and b in subset)
        return FiniteSpectralSpace(pts, rel)

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


def lattice_quotient(space: FiniteSpectralSpace, thomason) -> FiniteSpectralSpace:
    """Quotient by a Thomason subset: the open complement subspace."""
    thomason = set(thomason)
    if not space.is_closed(thomason):
        raise NotSpecializationClosed(f"{sorted(thomason)} is not specialization closed")
    return space.subspace(set(space.points) - thomason)


def lattice_localize(space: FiniteSpectralSpace, closed) -> FiniteSpectralSpace:
    """Localize at a closed subset: that subspace with the induced order."""
    closed = set(closed)
    if not space.is_closed(closed):
        raise NotSpecializationClosed(f"{sorted(closed)} is not closed")
    return space.subspace(closed)


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


def graded_endomorphism_ring(universe: TateUniverse) -> dict:
    """The ring sum_n hom(1, u^n) for u = Q(1)[2]: Q in degree 0, zero
    elsewhere (the lines 1 and u^n differ for n != 0)."""
    r = universe.twist_radius
    degrees = {}
    for nn in range(-r, r + 1):
        degrees[nn] = END_OF_UNIT if nn == 0 else "0"
    return {"unit": END_OF_UNIT, "degrees": degrees}


def rho_bullet(prime: ThickTensorIdeal) -> dict:
    """Image of a Tate-model prime in the homogeneous spectrum of the
    degree-0 endomorphism ring: the ideal generated by maps 1 -> u^n
    whose cone lies outside the prime.

    Nonzero scalars have zero cone (which lies in every ideal), so they
    never contribute; the zero maps in degrees n != 0 contribute only the
    zero element.  Every prime therefore lands on the zero ideal, the
    unique point of Spec^h(Q)."""
    contributing = []
    # u^n = Q(n)[2n] is the unit only in degree 0, which lies in the window
    # unless its radius is negative; other degrees hold only the zero map,
    # which generates only zero
    if prime.universe.twist_radius >= 0:
        # degree 0: generators are nonzero scalars, cone = 0 is in the prime
        scalar_cone = cone(identity_morphism(TATE_UNIT))
        if not prime.contains(scalar_cone):
            contributing.append(("scalar", 0))
    return {"ideal_generators": contributing, "point": "zero ideal"}
