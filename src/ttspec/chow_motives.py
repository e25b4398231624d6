"""Pure motives of Tate type over products of projective spaces.

Chow rings of products of projective spaces are truncated polynomial
rings Z[h_1, ..., h_k] / (h_i^{n_i + 1}), so correspondence composition
is exact polynomial bookkeeping.  h^n is the class of a point on P^n, so
composition is a per-factor degree rule on monomials, and h^a . h^b is the
point class exactly when a + b is the top monomial: the intersection
pairing is an anti-identity on monomial bases.  Motives are triples
(X, p, n) with p a sum of Kunneth projectors (see `Motive`); the Lefschetz
motive L is the point with twist -1, and the dual of (X, id, n) is
(X, id, dim X - n), which `motive dual` prints.

hom((X, p, n), (Y, q, m)) is the subgroup of classes a in
CH^{dim X + m - n}(X x Y) fixed by a -> q o a o p, which fixes or kills
each monomial (see `hom_group`).  `verify --suite motives` (in
`ttspec.verify`) checks the splitting and these hom groups.
"""

from __future__ import annotations

import itertools
import math
from operator import sub

from ._value import Value
from .errors import BoundExceeded, InvalidArgument

# largest ambient monomial basis of a hom group.  It bounds the basis that
# `motive hom` prints, one monomial class each: cold, P9xP9xP9 to P4xP4xP4
# (3,812 monomials) prints 199 kB of `--json` in 0.13 s (median of 7, 2-CPU
# x86-64 VM).  The library's `hom_group`, which only `verify` and lib-warm
# call, takes 5-7 ms in-process on the identity motives of that pair (best of 3)
HOM_BASIS_BOUND = 4_000
# most monomials `parse_space` accepts on one space, and at most 16 factors,
# since P0 factors lengthen a monomial without adding any.  It bounds what
# the commands that take a space print: cold, `motive decompose` P1^16
# prints 685 kB in 0.10 s, and `motive pairing --space P65535` 4.5 MB in
# 0.39 s (medians of 7, 2-CPU x86-64 VM)
SPACE_BOUND = 2 ** 16
# most matrix entries `pairing_nondegenerate` returns, all printed by `motive
# pairing`: P12xP12xP12 has 204,763 (621 kB of `--json` in 0.13 s cold on a
# 2-CPU x86-64 VM), P15xP15xP15 577,744
PAIRING_ENTRY_BOUND = 250_000


class ProjSpaceProduct(Value):
    """Product P^{n_1} x ... x P^{n_k}; the empty product is the point."""

    __slots__ = ("dims",)

    def __init__(self, dims: tuple[int, ...]):
        if min(dims, default=0) < 0:
            raise InvalidArgument("projective space dimensions must be >= 0")
        object.__setattr__(self, "dims", tuple(dims))

    @property
    def dimension(self) -> int:
        return sum(self.dims)

    @property
    def factors(self) -> int:
        return len(self.dims)

    def times(self, other: "ProjSpaceProduct") -> "ProjSpaceProduct":
        return ProjSpaceProduct(self.dims + other.dims)

    def monomials(self, codim: int = None):
        """Monomial basis (exponent tuples) in lex order; with `codim`, only
        the monomials of that codimension, built factor by factor."""
        if codim is None:
            return itertools.product(*[range(n + 1) for n in self.dims])
        rest = self.dimension
        prefixes = [((), codim)]  # (exponents so far, codimension still to place)
        for n in self.dims:
            rest -= n
            # e from max(0, left - rest) to min(n, left), without the builtin calls
            prefixes = [(mono + (e,), left - e) for mono, left in prefixes
                        for e in range(left - rest if left > rest else 0, (n if n < left else left) + 1)]
        return [mono for mono, left in prefixes if not left]

    def monomial_counts(self) -> list[int]:
        """Number of monomials of each codimension 0..dim: the coefficients
        of the product of 1 + t + ... + t^n over the factors P^n."""
        counts = [1]
        for n in self.dims:
            prefix = [0, *itertools.accumulate(counts)]
            counts = [prefix[min(c + 1, len(counts))] - prefix[max(0, c - n)] for c in range(len(counts) + n)]
        return counts

    def __repr__(self):
        if not self.dims:
            return "pt"
        return "x".join(f"P{n}" for n in self.dims)


POINT = ProjSpaceProduct(())


class ChowClass(Value):
    """Cycle class: integer combination of hyperplane
    monomials, truncated by h_i^{n_i + 1} = 0.  `terms` is canonical: one
    nonzero coefficient per monomial, within the truncation, in sorted order.
    `from_dict` checks monomials that come from outside; the library's
    derived classes are built in that form from monomials already checked."""

    __slots__ = ("space", "terms")

    def __init__(self, space: ProjSpaceProduct, terms: tuple[tuple[tuple[int, ...], object], ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", terms)  # sorted (monomial, coeff) pairs

    @staticmethod
    def from_dict(space: ProjSpaceProduct, coeffs: dict) -> "ChowClass":
        kept = {}
        for mono, c in coeffs.items():
            mono = tuple(mono)
            if len(mono) != space.factors:
                raise InvalidArgument(f"monomial {mono} has wrong arity for {space}")
            if any(e > n for e, n in zip(mono, space.dims)):
                continue  # truncation
            if any(e < 0 for e in mono):
                raise InvalidArgument("negative exponent")
            if c:
                kept[mono] = kept.get(mono, 0) + c
        kept = {m: c for m, c in kept.items() if c}
        return ChowClass(space, tuple(sorted(kept.items())))

    def __repr__(self):
        if not self.terms:
            return f"0@{self.space}"
        parts = []
        for m, c in self.terms:
            mono = "*".join(f"h{i + 1}^{e}" for i, e in enumerate(m) if e)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts) + f" @{self.space}"


def monomial_class(space: ProjSpaceProduct, mono, coeff=1) -> ChowClass:
    return ChowClass.from_dict(space, {tuple(mono): coeff})


class Correspondence(Value):
    """Degree-r correspondence X -> Y: a class in CH^{dim X + r}(X x Y)."""

    __slots__ = ("source", "target", "shift", "cls")

    def __init__(self, source: ProjSpaceProduct, target: ProjSpaceProduct, shift: int, cls: ChowClass):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "cls", cls)
        if cls.space.dims != source.dims + target.dims:
            raise InvalidArgument(f"class lives on {cls.space}, expected {source.times(target)}")
        want = source.dimension + shift
        if any(sum(m) != want for m, _ in cls.terms):
            raise InvalidArgument(
                f"degree-{shift} correspondence needs codimension {want}"
            )


def identity_correspondence(space: ProjSpaceProduct) -> Correspondence:
    """Kunneth diagonal: the sum of h^a (x) h^(n - a) over the monomials h^a."""
    # sorted already: the monomials a come in lex order, each once
    terms = tuple((a + tuple(n - x for n, x in zip(space.dims, a)), 1) for a in space.monomials())
    return Correspondence(space, space, 0, ChowClass(space.times(space), terms))


def compose(beta: Correspondence, alpha: Correspondence) -> Correspondence:
    """beta o alpha by the per-factor degree rule: x^a y^b composed with
    y^b' z^e is x^a z^e exactly when b + b' is the top monomial of Y, so
    each term of alpha meets only the terms of beta whose Y-part is its
    complement."""
    if alpha.target != beta.source:
        raise InvalidArgument(f"cannot compose {beta.source}->{beta.target} after {alpha.source}->{alpha.target}")
    kx, ky = alpha.source.factors, beta.source.factors
    by_middle = {}
    for m, d in beta.cls.terms:
        by_middle.setdefault(m[:ky], []).append((m[ky:], d))
    top = beta.source.dims
    out = {}
    for m, c in alpha.cls.terms:
        partner = tuple(n - b for n, b in zip(top, m[kx:]))
        for e, d in by_middle.get(partner, ()):
            key = m[:kx] + e
            out[key] = out.get(key, 0) + c * d
    cls = ChowClass(alpha.source.times(beta.target), tuple(sorted((m, c) for m, c in out.items() if c)))
    return Correspondence(alpha.source, beta.target, alpha.shift + beta.shift, cls)


class Motive(Value):
    """Triple (X, p, n) with twist n: p is a sum of distinct Kunneth projectors
    h^a (x) h^(dims - a) with coefficient 1, idempotent by the degree rule,
    checked on its terms; any other projector is refused, idempotent or not.
    Up to isomorphism that loses no motive of Tate type over X (Manin, 1968)."""

    __slots__ = ("space", "projector", "twist")

    def __init__(self, space: ProjSpaceProduct, projector: Correspondence, twist: int):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "projector", projector)
        object.__setattr__(self, "twist", twist)
        p = projector
        if (p.source, p.target, p.shift) != (space, space, 0):
            raise InvalidArgument("projector must be a degree-0 endocorrespondence")
        k, dims = space.factors, space.dims
        sources = {mono[:k] for mono, c in p.cls.terms if c == 1 and len(mono) == 2 * k
                   and min(mono, default=0) >= 0 and mono[k:] == tuple(map(sub, dims, mono))}
        if len(sources) != len(p.cls.terms):  # a term that is no Kunneth projector, or one listed twice
            raise InvalidArgument("projector is not a sum of distinct Kunneth projectors")

    def __repr__(self):
        return f"({self.space}, p, {self.twist})"


def motive_decompose(space: ProjSpaceProduct) -> list[tuple[Motive, int]]:
    """Split the diagonal into Kunneth projectors h^a (x) h^(dims - a), each
    isomorphic to L^w for the a of codimension dim - w: (motive, w) pairs by
    w, and in lex order of a within one w."""
    product, dim = space.times(space), space.dimension
    by_twist = [[] for _ in range(dim + 1)]
    for exps in space.monomials():  # one lex walk, bucketed stably by w
        by_twist[dim - sum(exps)].append(exps)
    out = []
    for w, monomials in enumerate(by_twist):
        for exps in monomials:
            term = (exps + tuple(map(sub, space.dims, exps)), 1)
            out.append((Motive(space, Correspondence(space, space, 0, ChowClass(product, (term,))), 0), w))
    return out


def _kunneth_twists(space: ProjSpaceProduct) -> list[int]:
    """Twists of the Kunneth summands L^w of a product of projective spaces,
    ascending: one per monomial of codimension dim - w."""
    counts = space.monomial_counts()
    return [w for w, n in enumerate(reversed(counts)) for _ in range(n)]


def hom_ambient_codim(space: ProjSpaceProduct, twist: int, target: ProjSpaceProduct, target_twist: int) -> int:
    """Codimension dim X + twist(n) - twist(m) of the ambient group of
    hom((X, p, twist), (Y, q, target_twist)) in CH(X x Y), after checking
    from the spaces alone that its monomial basis is within HOM_BASIS_BOUND."""
    codim = space.dimension + target_twist - twist
    counts = space.times(target).monomial_counts()
    size = counts[codim] if 0 <= codim < len(counts) else 0
    if size > HOM_BASIS_BOUND:
        raise BoundExceeded(f"hom basis of {size} monomials exceeds the bound {HOM_BASIS_BOUND}")
    return codim


def hom_group(m: Motive, n: Motive) -> dict:
    """Free abelian basis of hom(m, n) inside CH^{dim X + twist(n) -
    twist(m)}(X x Y), the image of a -> q o a o p.  By the degree rule,
    x^c y^b o p is x^c y^b if c is the source part of a term of the Kunneth
    sum p, else 0, and q o x^c y^b likewise for b and the target parts of q:
    the basis is the monomials of that codimension that both keep, in lex order."""
    codim = hom_ambient_codim(m.space, m.twist, n.space, n.twist)
    kx, ky = m.space.factors, n.space.factors
    sources = {mono[:kx] for mono, _ in m.projector.cls.terms}
    targets = {mono[ky:] for mono, _ in n.projector.cls.terms}
    product = m.space.times(n.space)
    classes = [ChowClass(product, ((mono, 1),)) for mono in product.monomials(codim)
               if mono[:kx] in sources and mono[kx:] in targets]
    return {"rank": len(classes), "ambient_codim": codim, "basis": classes, "space": product}


def pairing_nondegenerate(space: ProjSpaceProduct) -> dict:
    """Intersection pairing CH^i x CH^{d-i} -> CH^d = Z on monomial
    bases.  h^a . h^b is the point class exactly when a + b = dims, and
    a -> dims - a reverses lex order, so each degree's matrix is the k x k
    anti-identity, of determinant (-1)^(k(k-1)/2): the pairing is
    unimodular in every degree."""
    counts = space.monomial_counts()
    entries = sum(a * b for a, b in zip(counts, reversed(counts)))
    if entries > PAIRING_ENTRY_BOUND:
        raise BoundExceeded(f"pairing matrices of {entries} entries exceed the bound {PAIRING_ENTRY_BOUND}")
    per_degree = {}
    for i, k in enumerate(counts):
        matrix = [[int(r + c == k - 1) for c in range(k)] for r in range(k)]
        per_degree[i] = {"matrix": matrix, "determinant": (-1) ** (k * (k - 1) // 2), "nondegenerate": True}
    return {"space": repr(space), "degrees": per_degree, "nondegenerate": True}


def parse_space(text: str) -> ProjSpaceProduct:
    """Parse labels like 'P2xP1' or 'pt' into a product of projective
    spaces."""
    text = text.strip()
    if text in ("pt", "point", ""):
        return POINT
    dims = []
    for part in text.split("x"):
        part = part.strip()
        if not part.startswith(("P", "p")) or not part[1:].isdigit() or len(part) > 4000:
            raise InvalidArgument(f"cannot parse space factor {part!r}")
        dims.append(int(part[1:]))
    size = math.prod(n + 1 for n in dims)
    if max(size, 2 ** len(dims)) > SPACE_BOUND:
        raise BoundExceeded(
            f"space of {len(dims)} factors and {size} monomials exceeds the space bound of "
            f"{SPACE_BOUND} monomials and {SPACE_BOUND.bit_length() - 1} factors"
        )
    return ProjSpaceProduct(tuple(dims))
