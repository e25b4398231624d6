"""Pure motives of Tate type over products of projective spaces.

Chow rings of products of projective spaces are truncated polynomial
rings Z[h_1, ..., h_k] / (h_i^{n_i + 1}), so every cycle-level operation
(intersection, transpose, external product, correspondence composition)
is exact polynomial bookkeeping; h^n is the class of a point on P^n, so
composition is a per-factor degree rule on monomials.  Motives are
triples (X, p, n) with p an idempotent correspondence; the Lefschetz
motive is the point with twist -1, and twisting by n corresponds to
tensoring with its (-n)-th power.

hom((X, p, n), (Y, q, m)) is the subgroup of classes a in
CH^{dim X + m - n}(X x Y) fixed by a -> q o a o p.  The compression
operator is idempotent, so the hom group is its image, computed as an
integer column lattice.
"""

from __future__ import annotations

import itertools
import math

from ._value import Value
from .errors import BoundExceeded, InvalidArgument, SpaceMismatch

# largest ambient monomial basis `hom_group` accepts: its column reduction
# scans the remaining columns once per row, so the time grows with the square
# of the basis.  On a 2-CPU x86-64 VM a cold `motive hom --space P9xP9xP9
# --target-space P4xP4xP4 --json` (3,812 monomials) takes 0.52 s and 19 MB
HOM_BASIS_BOUND = 4_000
# most monomials `parse_space` accepts on one space; it also refuses more than
# 16 = log2(SPACE_BOUND) factors, since a monomial holds one exponent per factor
# and P0 factors lengthen it without adding monomials.  Cold on a 2-CPU x86-64
# VM, the slowest accepted spaces take: `motive decompose --space` P1^16 3.1 s,
# `motive dual` P1^16 1.9 s, `motive hom` P1^16 to P1^16 (a 496-monomial basis)
# 2.2 s and 136 MB, and `motive pairing --space P65535` 1.5 s
SPACE_BOUND = 2 ** 16
# most entries, one chow_mul each, `pairing_nondegenerate` accepts over all
# its degree matrices: a cold `motive pairing --space P12xP12xP12` (204,763)
# takes 1.5 s on a 2-CPU x86-64 VM, and P15xP15xP15 (577,744) 4.5 s
PAIRING_ENTRY_BOUND = 250_000


class ProjSpaceProduct(Value):
    """Product P^{n_1} x ... x P^{n_k}; the empty product is the point."""

    __slots__ = ("dims",)

    def __init__(self, dims: tuple[int, ...]):
        if any(n < 0 for n in dims):
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
            prefixes = [
                (mono + (e,), left - e)
                for mono, left in prefixes
                for e in range(max(0, left - rest), min(n, left) + 1)
            ]
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
    monomials, truncated by h_i^{n_i + 1} = 0."""

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
                raise SpaceMismatch(f"monomial {mono} has wrong arity for {space}")
            if any(e > n for e, n in zip(mono, space.dims)):
                continue  # truncation
            if any(e < 0 for e in mono):
                raise ValueError("negative exponent")
            if c:
                kept[mono] = kept.get(mono, 0) + c
        kept = {m: c for m, c in kept.items() if c}
        return ChowClass(space, tuple(sorted(kept.items())))

    def coeffs(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "ChowClass"):
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space} vs {other.space}")

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        out = self.coeffs()
        for m, c in other.terms:
            out[m] = out.get(m, 0) + c
        return ChowClass.from_dict(self.space, out)

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


def chow_mul(a: ChowClass, b: ChowClass) -> ChowClass:
    a._check(b)
    out = {}
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return ChowClass.from_dict(a.space, out)


def degree(a: ChowClass):
    """Coefficient of the top monomial (the class of a point)."""
    return a.coeffs().get(a.space.dims, 0)


class Correspondence(Value):
    """Degree-r correspondence X -> Y: a class in CH^{dim X + r}(X x Y)."""

    __slots__ = ("source", "target", "shift", "cls")

    def __init__(self, source: ProjSpaceProduct, target: ProjSpaceProduct, shift: int, cls: ChowClass):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "cls", cls)
        product = source.times(target)
        if cls.space != product:
            raise SpaceMismatch(f"class lives on {cls.space}, expected {product}")
        want = source.dimension + shift
        if any(sum(m) != want for m, _ in cls.terms):
            raise SpaceMismatch(
                f"degree-{shift} correspondence needs codimension {want}"
            )

    def transpose(self) -> "Correspondence":
        ks = self.source.factors
        out = {}
        for m, c in self.cls.terms:
            out[m[ks:] + m[:ks]] = c
        cls = ChowClass.from_dict(self.target.times(self.source), out)
        shift = self.source.dimension + self.shift - self.target.dimension
        return Correspondence(self.target, self.source, shift, cls)

    def external_product(self, other: "Correspondence") -> "Correspondence":
        """(f x g): X x X' -> Y x Y' with interleaved factor bookkeeping."""
        src = self.source.times(other.source)
        tgt = self.target.times(other.target)
        big = src.times(tgt)
        ks, ks2 = self.source.factors, other.source.factors
        out = {}
        for m1, c1 in self.cls.terms:
            for m2, c2 in other.cls.terms:
                mono = m1[:ks] + m2[:ks2] + m1[ks:] + m2[ks2:]
                out[mono] = out.get(mono, 0) + c1 * c2
        return Correspondence(src, tgt, self.shift + other.shift, ChowClass.from_dict(big, out))


def identity_correspondence(space: ProjSpaceProduct) -> Correspondence:
    """Kunneth diagonal: the sum of h^a (x) h^(n - a) over the monomials h^a."""
    terms = {a + tuple(n - x for n, x in zip(space.dims, a)): 1 for a in space.monomials()}
    return Correspondence(space, space, 0, ChowClass.from_dict(space.times(space), terms))


def compose(beta: Correspondence, alpha: Correspondence) -> Correspondence:
    """beta o alpha by the per-factor degree rule: x^a y^b composed with
    y^b' z^e is x^a z^e exactly when b + b' is the top monomial of Y, so
    each term of alpha meets only the terms of beta whose Y-part is its
    complement."""
    if alpha.target != beta.source:
        raise SpaceMismatch(f"cannot compose {beta.source}->{beta.target} after {alpha.source}->{alpha.target}")
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
    cls = ChowClass.from_dict(alpha.source.times(beta.target), out)
    return Correspondence(alpha.source, beta.target, alpha.shift + beta.shift, cls)


class Motive(Value):
    """Triple (X, p, n): idempotent correspondence p and twist n."""

    __slots__ = ("space", "projector", "twist")

    def __init__(self, space: ProjSpaceProduct, projector: Correspondence, twist: int):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "projector", projector)
        object.__setattr__(self, "twist", twist)
        p = projector
        if p.source != space or p.target != space or p.shift != 0:
            raise SpaceMismatch("projector must be a degree-0 endocorrespondence")
        if compose(p, p) != p:
            raise ValueError("projector is not idempotent")

    def __repr__(self):
        return f"({self.space}, p, {self.twist})"


def lefschetz_motive(power: int = 1) -> Motive:
    """L^power as a twisted point motive; negative powers are duals."""
    return Motive(POINT, identity_correspondence(POINT), -power)


def motive_tensor(m: Motive, n: Motive) -> Motive:
    return Motive(
        m.space.times(n.space),
        m.projector.external_product(n.projector),
        m.twist + n.twist,
    )


def motive_dual(m: Motive) -> Motive:
    """(X, p, n)^dual = (X, transpose p, dim X - n)."""
    return Motive(m.space, m.projector.transpose(), m.space.dimension - m.twist)


def motive_decompose(space: ProjSpaceProduct) -> list[tuple[Motive, int]]:
    """Split the diagonal into Kunneth projectors; each summand is
    isomorphic to a power of the Lefschetz motive, returned as
    (motive, power) sorted by power."""
    product = space.times(space)
    out = []
    for exps in space.monomials():
        mono = exps + tuple(n - a for n, a in zip(space.dims, exps))
        proj = Correspondence(space, space, 0, monomial_class(product, mono))
        weight = sum(n - a for n, a in zip(space.dims, exps))
        out.append((Motive(space, proj, 0), weight))
    out.sort(key=lambda pair: (pair[1], pair[0].projector.cls.terms))
    total = {}
    for m, _ in out:
        for mono, c in m.projector.cls.terms:
            total[mono] = total.get(mono, 0) + c
    diagonal = identity_correspondence(space).cls
    assert ChowClass.from_dict(product, total) == diagonal, "projectors must sum to the diagonal"
    return out


def _column_lattice_basis(cols):
    """Hermite-style column reduction over Z on sparse {row: nonzero entry}
    columns; returns basis columns.  Rows are taken in sorted order.  Row i is
    gcd-reduced by the first column of least |c[i]| until one column, the
    pivot, is nonzero there; the rest are then zero at every row up to i."""
    cols = [dict(c) for c in cols]
    basis = []
    for i in sorted({r for c in cols for r in c}):
        live = [c for c in cols if i in c]
        while len(live) > 1:
            small = min(live, key=lambda c: abs(c[i]))
            for c in live:
                if c is not small:
                    f = c[i] // small[i]
                    for r, v in small.items():
                        w = c.get(r, 0) - f * v
                        if w:
                            c[r] = w
                        else:
                            c.pop(r, None)
            live = [c for c in live if i in c]
        if not live:
            continue
        pivot = live[0]
        if pivot[i] < 0:
            for r in pivot:
                pivot[r] = -pivot[r]
        basis.append(pivot)
        cols = [c for c in cols if c is not pivot]
    return basis


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
    twist(m)}(X x Y), as the image of the idempotent compression
    a -> q o a o p.  By the per-factor degree rule, x^c y^b meets only the
    terms x^u x^v of p with v = dims(X) - c and the terms y^s y^t of q with
    s = dims(Y) - b, and goes to the sum of p_uv q_st x^u y^t."""
    codim = hom_ambient_codim(m.space, m.twist, n.space, n.twist)
    kx, ky = m.space.factors, n.space.factors
    by_target, by_source = {}, {}
    for mono, c in m.projector.cls.terms:
        by_target.setdefault(mono[kx:], []).append((mono[:kx], c))
    for mono, c in n.projector.cls.terms:
        by_source.setdefault(mono[:ky], []).append((mono[ky:], c))
    product = m.space.times(n.space)
    cols = []
    for mono in product.monomials(codim):
        v = tuple(d - e for d, e in zip(m.space.dims, mono[:kx]))
        s = tuple(d - e for d, e in zip(n.space.dims, mono[kx:]))
        cols.append({u + t: pc * qc for u, pc in by_target.get(v, ()) for t, qc in by_source.get(s, ())})
    classes = [ChowClass.from_dict(product, col) for col in _column_lattice_basis(cols)]
    return {
        "rank": len(classes),
        "ambient_codim": codim,
        "basis": classes,
        "space": product,
    }


def rigidity_check(m: Motive, n: Motive, p: Motive) -> dict:
    """hom(m (x) n, p) = hom(m, dual(n) (x) p): both compressions live in
    the cycle group of the same triple product in the same codimension,
    so the canonical map is the identity on classes; check the two
    subgroups coincide."""
    left = hom_group(motive_tensor(m, n), p)
    right = hom_group(m, motive_tensor(motive_dual(n), p))
    if left["space"] != right["space"] or left["ambient_codim"] != right["ambient_codim"]:
        raise SpaceMismatch("rigidity sides live in different cycle groups")
    same = frozenset(c.terms for c in left["basis"]) == frozenset(
        c.terms for c in right["basis"]
    )
    return {
        "left_rank": left["rank"],
        "right_rank": right["rank"],
        "bijective": same and left["rank"] == right["rank"],
    }


def pairing_nondegenerate(space: ProjSpaceProduct) -> dict:
    """Intersection pairing CH^i x CH^{d-i} -> CH^d = Z on monomial
    bases; nondegenerate in each degree iff the matrix is unimodular."""
    d = space.dimension
    counts = space.monomial_counts()
    entries = sum(a * b for a, b in zip(counts, reversed(counts)))
    if entries > PAIRING_ENTRY_BOUND:
        raise BoundExceeded(f"pairing matrices of {entries} entries exceed the bound {PAIRING_ENTRY_BOUND}")
    per_degree = {}
    all_ok = True
    for i in range(d + 1):
        rows = [monomial_class(space, a) for a in space.monomials(i)]
        cols = [monomial_class(space, b) for b in space.monomials(d - i)]
        matrix = [[degree(chow_mul(a, b)) for b in cols] for a in rows]
        square = len(rows) == len(cols)
        det = _int_det(matrix) if square else 0
        ok = square and det in (1, -1)
        all_ok = all_ok and ok
        per_degree[i] = {"matrix": matrix, "determinant": det, "nondegenerate": ok}
    return {"space": repr(space), "degrees": per_degree, "nondegenerate": all_ok}


def _int_det(matrix) -> int:
    """Determinant over Z by fraction-free (Bareiss) elimination: after step
    i, each entry right of and below the pivot is a minor of order i + 2,
    so the division by the previous pivot is exact.  A row with zero in the
    pivot column is left as it is when the pivot equals the previous one,
    which keeps the sparse pairing matrices at quadratic cost."""
    mat = [list(row) for row in matrix]
    n = len(mat)
    sign, previous = 1, 1
    for i in range(n):
        pivot = next((r for r in range(i, n) if mat[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            mat[i], mat[pivot] = mat[pivot], mat[i]
            sign = -sign
        top, p = mat[i][i + 1:], mat[i][i]
        for r in range(i + 1, n):
            row, f = mat[r], mat[r][i]
            if f or p != previous:
                mat[r] = row[:i + 1] + [(x * p - f * y) // previous for x, y in zip(row[i + 1:], top)]
        previous = p
    return sign * previous


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
