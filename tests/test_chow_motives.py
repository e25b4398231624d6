import itertools
import random
from fractions import Fraction

import pytest

from ttspec.errors import InvalidArgument
from ttspec import chow_motives as cm
from ttspec import verify

from helpers import lefschetz


P1 = cm.ProjSpaceProduct((1,))
P2 = cm.ProjSpaceProduct((2,))
P1xP1 = cm.ProjSpaceProduct((1, 1))


# ---------------------------------------------------------------- oracles
# The triple-product route to composition (pull both classes back to
# X x Y x Z, intersect, push down to X x Z), the first version of the
# column reduction, and the pairing matrices from intersection products
# with determinants by elimination over Q.  `compose`,
# `_column_lattice_basis` and `pairing_nondegenerate` must agree with them
# exactly.


def chow_mul(a, b):
    """Intersection product: exponents add, and h_i^{n_i + 1} = 0."""
    assert a.space == b.space
    out = {}
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return cm.ChowClass.from_dict(a.space, out)


def degree(a):
    """Coefficient of the top monomial (the class of a point)."""
    return dict(a.terms).get(a.space.dims, 0)


def pullback(a, product, positions):
    """Pull a back along the projection of `product` onto the listed
    factor positions (which must present a's space in order)."""
    if tuple(product.dims[i] for i in positions) != a.space.dims:
        raise InvalidArgument(f"positions {positions} of {product} do not match {a.space}")
    out = {}
    for m, c in a.terms:
        full = [0] * product.factors
        for i, e in zip(positions, m):
            full[i] = e
        out[tuple(full)] = c
    return cm.ChowClass.from_dict(product, out)


def pushforward(a, keep):
    """Push a forward along the projection keeping the listed factor
    positions.  A monomial survives iff every integrated-out factor
    carries its top power; the coefficient is then transported."""
    product = a.space
    drop = [i for i in range(product.factors) if i not in keep]
    target = cm.ProjSpaceProduct(tuple(product.dims[i] for i in keep))
    out = {}
    for m, c in a.terms:
        if all(m[i] == product.dims[i] for i in drop):
            key = tuple(m[i] for i in keep)
            out[key] = out.get(key, 0) + c
    return cm.ChowClass.from_dict(target, out)


def compose_via_triple_product(beta, alpha):
    if alpha.target != beta.source:
        raise InvalidArgument("cannot compose")
    kx = alpha.source.factors
    ky = alpha.target.factors
    kz = beta.target.factors
    triple = alpha.source.times(alpha.target).times(beta.target)
    a_up = pullback(alpha.cls, triple, tuple(range(kx + ky)))
    b_up = pullback(beta.cls, triple, tuple(range(kx, kx + ky + kz)))
    prod = chow_mul(a_up, b_up)
    down = pushforward(prod, tuple(range(kx)) + tuple(range(kx + ky, kx + ky + kz)))
    return cm.Correspondence(alpha.source, beta.target, alpha.shift + beta.shift, down)


def column_lattice_basis_reference(cols):
    cols = [list(c) for c in cols if any(c)]
    rows = len(cols[0]) if cols else 0
    basis = []
    for i in range(rows):
        cols = [c for c in cols if any(c)]
        pivots = [c for c in cols if c[i] != 0]
        if not pivots:
            continue
        while True:
            pivots = sorted((c for c in cols if c[i] != 0), key=lambda c: abs(c[i]))
            if len(pivots) <= 1:
                break
            small = pivots[0]
            for c in pivots[1:]:
                f = c[i] // small[i]
                for j in range(rows):
                    c[j] -= f * small[j]
        pivot = next((c for c in cols if c[i] != 0), None)
        if pivot is None:
            continue
        if pivot[i] < 0:
            for j in range(rows):
                pivot[j] = -pivot[j]
        basis.append(pivot)
        cols = [c for c in cols if c is not pivot]
        for c in cols:
            f = c[i] // pivot[i]
            if f:
                for j in range(rows):
                    c[j] -= f * pivot[j]
    return basis


def column_lattice_basis_by_scan(cols):
    """The sparse reduction as it was before its buckets: every row scans
    all remaining columns for the ones nonzero there."""
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


def compression_matrix_dense(m, n, basis):
    """Matrix of a -> q o a o p on the listed monomial basis, composing
    each basis monomial with the whole projectors."""
    product = m.space.times(n.space)
    index = {mono: i for i, mono in enumerate(basis)}
    cols = []
    for mono in basis:
        alpha = cm.Correspondence(m.space, n.space, n.twist - m.twist, cm.monomial_class(product, mono))
        image = cm.compose(n.projector, cm.compose(alpha, m.projector))
        col = [0] * len(basis)
        for mo, c in image.cls.terms:
            col[index[mo]] = c
        cols.append(col)
    return cols  # column-major


def column_lattice_basis_dense(cols):
    """The one-pass reduction on dense columns, touching only positions
    from the current row on."""
    cols = [list(c) for c in cols]
    rows = len(cols[0]) if cols else 0
    basis = []
    for i in range(rows):
        live = [c for c in cols if c[i]]
        while len(live) > 1:
            small = min(live, key=lambda c: abs(c[i]))
            for c in live:
                if c is not small:
                    f = c[i] // small[i]
                    for j in range(i, rows):
                        c[j] -= f * small[j]
            live = [c for c in live if c[i]]
        if not live:
            continue
        pivot = live[0]
        if pivot[i] < 0:
            for j in range(i, rows):
                pivot[j] = -pivot[j]
        basis.append(pivot)
        cols = [c for c in cols if c is not pivot]
    return basis


def hom_basis_dense(m, n):
    """Basis of hom(m, n) from the dense compression matrix on the
    monomials of the ambient codimension, listed by a filtered walk."""
    product = m.space.times(n.space)
    codim = m.space.dimension + n.twist - m.twist
    basis = [mono for mono in product.monomials() if sum(mono) == codim]
    image = column_lattice_basis_dense(compression_matrix_dense(m, n, basis))
    return [cm.ChowClass.from_dict(product, {mono: c for mono, c in zip(basis, col) if c}) for col in image]


def int_det_reference(matrix):
    """Gaussian elimination over Q with `Fraction` entries."""
    n = len(matrix)
    mat = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if mat[r][i] != 0), None)
        if pivot is None:
            return 0
        if pivot != i:
            mat[i], mat[pivot] = mat[pivot], mat[i]
            det = -det
        det *= mat[i][i]
        for r in range(i + 1, n):
            f = mat[r][i] / mat[i][i]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[i])]
    assert det.denominator == 1
    return int(det)


# -------------------------------------------------------------- Chow rings


def test_truncated_ring():
    h = cm.monomial_class(P2, (1,))
    h2 = chow_mul(h, h)
    assert h2 == cm.monomial_class(P2, (2,))
    assert not chow_mul(h, h2).terms


def test_pushforward_point_degree():
    # top class of P1 x pt pushes to 1 on the point
    space = cm.ProjSpaceProduct((1,))
    top = cm.monomial_class(space, (1,))
    down = pushforward(top, ())
    assert down == cm.monomial_class(cm.POINT, ())
    # classes missing the top power of the integrated factor die
    down0 = pushforward(cm.monomial_class(space, (0,)), ())
    assert not down0.terms


def test_pushforward_coefficient_extraction_oracle():
    space = cm.ProjSpaceProduct((2, 1))
    for mono in space.monomials():
        cls = cm.monomial_class(space, mono, 3)
        down = pushforward(cls, (0,))
        if mono[1] == 1:  # top power of the dropped P1 factor
            assert down == cm.monomial_class(cm.ProjSpaceProduct((2,)), (mono[0],), 3)
        else:
            assert not down.terms


def test_pullback_positions():
    cls = cm.monomial_class(P1, (1,))
    product = P1.times(P2)
    up = pullback(cls, product, (0,))
    assert up == cm.monomial_class(product, (1, 0))
    with pytest.raises(InvalidArgument):
        pullback(cls, product, (1,))


def test_degree():
    assert degree(cm.monomial_class(P1xP1, (1, 1), 5)) == 5
    assert degree(cm.monomial_class(P1xP1, (1, 0))) == 0


# --------------------------------------------------------- correspondences


def test_diagonal_is_identity():
    for space in (P1, P2, P1xP1):
        delta = cm.identity_correspondence(space)
        assert cm.compose(delta, delta) == delta


def test_composition_associative_unital():
    space = P2
    delta = cm.identity_correspondence(space)
    product = space.times(space)
    samples = [
        cm.Correspondence(space, space, 0, cm.monomial_class(product, (a, 2 - a)))
        for a in range(3)
    ]
    samples.append(
        cm.Correspondence(
            space, space, 0,
            cm.ChowClass.from_dict(product, {(0, 2): 1, (1, 1): 2}),
        )
    )
    for f, g, h in itertools.product(samples, repeat=3):
        assert cm.compose(h, cm.compose(g, f)) == cm.compose(cm.compose(h, g), f)
    for f in samples:
        assert cm.compose(delta, f) == f
        assert cm.compose(f, delta) == f


def test_kunneth_projectors_idempotent():
    for n in (1, 2, 3):
        space = cm.ProjSpaceProduct((n,))
        product = space.times(space)
        for a in range(n + 1):
            e = cm.Correspondence(space, space, 0, cm.monomial_class(product, (a, n - a)))
            assert cm.compose(e, e) == e


def test_projection_to_infinity_idempotent():
    # pi = [P1 x pt] splits off the Lefschetz summand of M(P1)
    product = P1.times(P1)
    pi = cm.Correspondence(P1, P1, 0, cm.monomial_class(product, (0, 1)))
    assert cm.compose(pi, pi) == pi
    # complementary unit projector, and orthogonality
    unit = cm.Correspondence(P1, P1, 0, cm.monomial_class(product, (1, 0)))
    assert cm.compose(unit, unit) == unit
    assert not cm.compose(pi, unit).cls.terms
    assert not cm.compose(unit, pi).cls.terms


def test_compose_space_mismatch():
    a = cm.identity_correspondence(P1)
    b = cm.identity_correspondence(P2)
    with pytest.raises(InvalidArgument):
        cm.compose(b, a)


def test_correspondence_refuses_a_class_on_the_wrong_space():
    """The space check compares dimension tuples, and names both spaces."""
    cases = [
        (P1, P1, cm.monomial_class(P1xP1.times(P1), (1, 0, 0)), "P1xP1xP1", "P1xP1"),
        (P2, P1, cm.monomial_class(P1.times(P2), (1, 1)), "P1xP2", "P2xP1"),
        (cm.POINT, cm.POINT, cm.monomial_class(P1, (0,)), "P1", "pt"),
    ]
    for source, target, cls, lives, expected in cases:
        with pytest.raises(InvalidArgument, match=rf"^class lives on {lives}, expected {expected}$"):
            cm.Correspondence(source, target, 0, cls)


# two idempotents of P1xP1 that are not sums of Kunneth projectors
_NON_KUNNETH = [
    cm.Correspondence(P1xP1, P1xP1, 0, cm.ChowClass.from_dict(P1xP1.times(P1xP1), terms)) for terms in (
        {(0, 0, 1, 1): 1, (1, 0, 0, 1): 1, (1, 0, 1, 0): 1},
        {(0, 0, 1, 1): 1, (0, 1, 0, 1): -2, (0, 1, 1, 0): -1, (1, 0, 0, 1): 2, (1, 0, 1, 0): 1},
    )
]


def _canonical(cls):
    """cls is what `ChowClass.from_dict` makes of its own terms: sorted,
    nonzero, one term per monomial, each within the truncation."""
    return cls == cm.ChowClass.from_dict(cls.space, dict(cls.terms))


def test_derived_classes_are_canonical():
    """`identity_correspondence`, `motive_decompose`, `compose` and
    `hom_group` build their classes without `from_dict`.  Over every pair of
    spaces from pt to P2xP1xP1, twists -1..2 on each side, each identity or
    Kunneth projector of X meets a projector of Y in turn; every hom basis
    class is also composed, as a correspondence X -> Y, with both.  P1xP1
    adds the two idempotents of `_NON_KUNNETH`, whose negative coefficients
    cancel in products."""
    spaces = [cm.parse_space(t) for t in ("pt", "P1", "P2", "P1xP1", "P2xP1", "P1xP1xP1", "P2xP1xP1")]
    projectors = {}
    for x in spaces:
        projectors[x] = [cm.identity_correspondence(x), *(m.projector for m, _ in cm.motive_decompose(x))]
        assert all(_canonical(p.cls) for p in projectors[x]), x
        if x == P1xP1:
            projectors[x] += _NON_KUNNETH
        for a, b in itertools.product(projectors[x], repeat=2):
            assert _canonical(cm.compose(b, a).cls), (a, b)
    homs = 0
    for x, y in itertools.product(spaces, repeat=2):
        for twist, target_twist in itertools.product(range(-1, 3), repeat=2):
            for p, q in zip(projectors[x], itertools.cycle(projectors[y])):
                hom = cm.hom_group(cm.Motive(x, p, twist), cm.Motive(y, q, target_twist))
                for cls in hom["basis"]:
                    assert _canonical(cls), (p, q, cls)
                    alpha = cm.Correspondence(x, y, target_twist - twist, cls)
                    assert _canonical(cm.compose(q, cm.compose(alpha, p)).cls), (p, q, cls)
                    homs += 1
    assert homs == 4792


def _random_class(rng, space, codim, picks, extra=()):
    monos = list(space.monomials(codim))
    chosen = rng.sample(monos, min(picks, len(monos))) + list(extra)
    return cm.ChowClass.from_dict(space, {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in chosen})


def _random_pair(rng, x, y, z, picks):
    """Homogeneous alpha: X -> Y and beta: Y -> Z; beta also takes a
    partner of about half of alpha's terms, so that few compositions
    vanish."""
    xy, yz = x.times(y), y.times(z)
    codim_a = rng.randint(0, xy.dimension)
    alpha_cls = _random_class(rng, xy, codim_a, picks)
    codim = rng.randint(0, yz.dimension)
    by_middle = {}
    for m in yz.monomials(codim):
        by_middle.setdefault(m[:y.factors], []).append(m)
    partners = []
    for m, _ in alpha_cls.terms:
        partner = tuple(n - b for n, b in zip(y.dims, m[x.factors:]))
        if partner in by_middle and rng.random() < 0.5:
            partners.append(rng.choice(by_middle[partner]))
    beta_cls = _random_class(rng, yz, codim, picks, partners)
    alpha = cm.Correspondence(x, y, codim_a - x.dimension, alpha_cls)
    beta = cm.Correspondence(y, z, codim - y.dimension, beta_cls)
    return alpha, beta


def _check_against_triple_product(rng, triples, picks, rounds):
    nonzero = 0
    for x, y, z in triples:
        for _ in range(rounds):
            alpha, beta = _random_pair(rng, x, y, z, picks)
            got = cm.compose(beta, alpha)
            assert got == compose_via_triple_product(beta, alpha), (x, y, z, alpha, beta)
            nonzero += bool(got.cls.terms)
    return nonzero


def test_compose_matches_triple_product_small_spaces():
    """Every (X, Y, Z) with at most 2 factors of dimension <= 2."""
    spaces = [cm.ProjSpaceProduct(d) for k in range(3) for d in itertools.product(range(3), repeat=k)]
    triples = list(itertools.product(spaces, repeat=3))
    nonzero = _check_against_triple_product(random.Random(1), triples, 4, 2)
    assert nonzero > len(triples) // 2


def test_compose_matches_triple_product_three_factors():
    rng = random.Random(2)
    spaces = [cm.ProjSpaceProduct(d) for d in itertools.product(range(4), repeat=3)]
    triples = [tuple(rng.choice(spaces) for _ in range(3)) for _ in range(200)]
    nonzero = _check_against_triple_product(rng, triples, 12, 1)
    assert nonzero > len(triples) // 2


# ---------------------------------------------------------- decomposition


@pytest.mark.parametrize(
    "dims,twists",
    [((1,), [0, 1]), ((2,), [0, 1, 2]), ((1, 1), [0, 1, 1, 2]), ((3,), [0, 1, 2, 3]),
     ((2, 1), [0, 1, 1, 2, 2, 3])],
)
def test_decompose_twists(dims, twists):
    parts = cm.motive_decompose(cm.ProjSpaceProduct(dims))
    assert [w for _, w in parts] == twists


def test_decompose_orthogonal_complete():
    for dims in ((1,), (2,), (1, 1)):
        space = cm.ProjSpaceProduct(dims)
        parts = cm.motive_decompose(space)
        total = {}
        for m, _ in parts:
            for mono, c in m.projector.cls.terms:
                total[mono] = total.get(mono, 0) + c
            assert cm.compose(m.projector, m.projector) == m.projector
        total = cm.ChowClass.from_dict(space.times(space), total)
        assert cm.Correspondence(space, space, 0, total) == cm.identity_correspondence(space)
        for (m1, _), (m2, _) in itertools.combinations(parts, 2):
            assert not cm.compose(m1.projector, m2.projector).cls.terms


def test_decompose_check_fails_without_one_projector(monkeypatch):
    """`verify --suite motives` checks that the projectors sum to the diagonal."""
    real = cm.motive_decompose

    def dropping(space):  # the projector h1 (x) 1 of P1 becomes zero
        zero = cm.Correspondence(space, space, 0, cm.ChowClass(space.times(space), ()))
        return [(cm.Motive(space, zero, 0), w) if m.projector.cls.terms == (((1, 0), 1),) else (m, w)
                for m, w in real(space)]

    monkeypatch.setattr(cm, "motive_decompose", dropping)
    assert {"space": "P1", "fact": "projectors sum to the diagonal"} in verify._suite_motives()


def test_monomial_counts_match_walk():
    for dims in [(), (0,), (3,), (2, 1), (4, 3, 2), (1, 1, 1, 1), (5, 0, 2)]:
        space = cm.ProjSpaceProduct(dims)
        walked = [[m for m in itertools.product(*[range(n + 1) for n in dims]) if sum(m) == c]
                  for c in range(-1, space.dimension + 2)]
        assert [list(space.monomials(c)) for c in range(-1, space.dimension + 2)] == walked, dims
        assert space.monomial_counts() == [len(w) for w in walked[1:-1]], dims


def test_non_idempotent_rejected():
    product = P1.times(P1)
    bad = cm.Correspondence(P1, P1, 0, cm.monomial_class(product, (1, 0), 2))
    with pytest.raises(ValueError):
        cm.Motive(P1, bad, 0)


# ------------------------------------------------------------- hom groups


def test_hom_tate_twists():
    for i in range(-3, 4):
        for j in range(-3, 4):
            rank = cm.hom_group(lefschetz(i), lefschetz(j))["rank"]
            assert rank == (1 if i == j else 0)


def test_hom_projective_line():
    m = cm.Motive(P1, cm.identity_correspondence(P1), 0)
    assert cm.hom_group(m, m)["rank"] == 2
    assert cm.hom_group(lefschetz(0), lefschetz(0))["rank"] == 1


def test_hom_rank_equals_cycle_rank():
    # hom(M(X), M(Y)) has the rank of CH^{dim X}(X x Y)
    for dims_x, dims_y in (((1,), (1,)), ((2,), (1,)), ((1, 1), (1,))):
        x = cm.ProjSpaceProduct(dims_x)
        y = cm.ProjSpaceProduct(dims_y)
        mx = cm.Motive(x, cm.identity_correspondence(x), 0)
        my = cm.Motive(y, cm.identity_correspondence(y), 0)
        want = len(list(x.times(y).monomials(x.dimension)))
        assert cm.hom_group(mx, my)["rank"] == want


def test_summand_homs_are_semisimple():
    # End of each Tate summand is rank 1; cross homs vanish
    parts = cm.motive_decompose(P2)
    for (m1, w1), (m2, w2) in itertools.product(parts, repeat=2):
        rank = cm.hom_group(m1, m2)["rank"]
        assert rank == (1 if w1 == w2 else 0)


def _projectors(space):
    """The identity, each Kunneth projector and each sum of two of them."""
    kunneth = [m.projector.cls.terms for m, _ in cm.motive_decompose(space)]
    sums = [a + b for a, b in itertools.combinations(kunneth, 2)]
    product = space.times(space)
    out = {cm.identity_correspondence(space)}
    out.update(cm.Correspondence(space, space, 0, cm.ChowClass.from_dict(product, dict(t))) for t in kunneth + sums)
    return sorted(out, key=lambda p: p.cls.terms)


def test_hom_group_matches_dense_compression():
    """Every pair of spaces with at most 2 factors of dimension <= 2, every
    source twist -1..2; every projector of X (identity, Kunneth, sums of two
    Kunneth, and two non-Kunneth idempotents on P1xP1) meets the projectors
    of Y in turn."""
    spaces = [cm.ProjSpaceProduct(d) for k in range(3) for d in itertools.product(range(3), repeat=k)]
    projectors = {x: _projectors(x) for x in spaces}
    projectors[P1xP1] += _NON_KUNNETH
    turn, ranks = 0, set()
    for x, y in itertools.product(spaces, repeat=2):
        for p in projectors[x]:
            for twist in range(-1, 3):
                q = projectors[y][turn % len(projectors[y])]
                turn += 1
                m, n = cm.Motive(x, p, twist), cm.Motive(y, q, 0)
                got = cm.hom_group(m, n)
                want = hom_basis_dense(m, n)
                assert got["rank"] == len(want), (m, n, p, q)
                assert list(map(repr, got["basis"])) == list(map(repr, want)), (m, n, p, q)
                ranks.add(got["rank"])
    assert ranks >= set(range(6))


# ------------------------------------------------------------------ duals


def test_dual_lefschetz_behavior():
    """A P1-model of L, (P1, [P1 x pt], 0), has the homs of L, and its dual
    (P1, [pt x P1], dim P1 - 0), with the twist that `motive dual` prints
    and the transposed projector, has those of L^-1."""
    product = P1.times(P1)
    pi = cm.Correspondence(P1, P1, 0, cm.monomial_class(product, (0, 1)))
    model = cm.Motive(P1, pi, 0)
    assert cm.hom_group(model, lefschetz(1))["rank"] == 1
    assert cm.hom_group(model, lefschetz(0))["rank"] == 0
    transposed = cm.Correspondence(P1, P1, 0, cm.monomial_class(product, (1, 0)))
    dual = cm.Motive(P1, transposed, P1.dimension - model.twist)
    assert cm.hom_group(dual, lefschetz(-1))["rank"] == 1
    assert cm.hom_group(dual, lefschetz(0))["rank"] == 0


# ---------------------------------------------------------------- pairing


def test_pairing_matrices():
    p2 = cm.pairing_nondegenerate(P2)
    assert p2["nondegenerate"]
    assert p2["degrees"][1]["matrix"] == [[1]]
    assert p2["degrees"][0]["matrix"] == [[1]]
    mid = cm.pairing_nondegenerate(P1xP1)["degrees"][1]["matrix"]
    assert mid == [[0, 1], [1, 0]]
    point = cm.pairing_nondegenerate(cm.POINT)
    assert point["degrees"][0]["matrix"] == [[1]]
    assert point["nondegenerate"]


def test_pairing_small_products():
    for dims in ((1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1)):
        assert cm.pairing_nondegenerate(cm.ProjSpaceProduct(dims))["nondegenerate"]


def pairing_by_intersection(space):
    """`pairing_nondegenerate` from intersection products of the monomials
    of each degree, listed by a filtered walk, and Q-elimination
    determinants."""
    d = space.dimension
    per_degree, all_ok = {}, True
    for i in range(d + 1):
        rows = [cm.monomial_class(space, a) for a in space.monomials() if sum(a) == i]
        cols = [cm.monomial_class(space, b) for b in space.monomials() if sum(b) == d - i]
        matrix = [[degree(chow_mul(a, b)) for b in cols] for a in rows]
        det = int_det_reference(matrix) if len(rows) == len(cols) else 0
        ok = len(rows) == len(cols) and det in (1, -1)
        all_ok = all_ok and ok
        per_degree[i] = {"matrix": matrix, "determinant": det, "nondegenerate": ok}
    return {"space": repr(space), "degrees": per_degree, "nondegenerate": all_ok}


def test_pairing_matches_intersection_oracle():
    """Every product of at most three factors of dimension <= 3, P0 factors
    and the point included."""
    for k in range(4):
        for dims in itertools.product(range(4), repeat=k):
            space = cm.ProjSpaceProduct(dims)
            assert cm.pairing_nondegenerate(space) == pairing_by_intersection(space), dims


def test_parse_space():
    assert cm.parse_space("P2xP1").dims == (2, 1)
    assert cm.parse_space("pt") == cm.POINT
    with pytest.raises(ValueError):
        cm.parse_space("X3")


def _random_matrix(rng):
    """Column-major integer matrix with zero columns, repeated and
    dependent columns, negative entries and non-unit pivots."""
    rows = rng.randint(0, 7)
    cols = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if kind < 0.15 or not rows:
            cols.append([0] * rows)
        elif kind < 0.3 and cols:
            k = rng.choice((-2, -1, 1, 3))
            cols.append([k * v for v in rng.choice(cols)])
        else:
            cols.append([rng.choice((0, 0, 0, 1, -1, 2, -2, 3, -4, 6)) for _ in range(rows)])
    return cols


def test_column_lattice_basis_matches_the_scan_on_sparse_columns():
    """Sparse columns over scattered rows, with repeats, multiples and
    columns that reduce to zero: the same basis columns in the same order,
    and the input left untouched."""
    rng = random.Random(11)
    for _ in range(3000):
        rows = rng.sample(range(60), rng.randint(1, 12))
        cols = []
        for _ in range(rng.randint(0, 14)):
            if cols and rng.random() < 0.2:
                k = rng.choice((-3, -1, 1, 2))
                cols.append({r: k * v for r, v in rng.choice(cols).items()})
            else:
                picked = rng.sample(rows, rng.randint(0, min(4, len(rows))))
                cols.append({r: rng.choice((-6, -4, -2, -1, 1, 2, 3, 5)) for r in picked})
        before = [dict(c) for c in cols]
        got = cm._column_lattice_basis(cols)
        assert cols == before
        want = column_lattice_basis_by_scan(cols)
        assert [sorted(b.items()) for b in got] == [sorted(b.items()) for b in want], cols


def test_column_lattice_basis_matches_reference():
    rng = random.Random(3)
    for _ in range(3000):
        cols = _random_matrix(rng)
        want = column_lattice_basis_reference([list(c) for c in cols])
        rows = len(cols[0]) if cols else 0
        got = cm._column_lattice_basis([{i: v for i, v in enumerate(c) if v} for c in cols])
        assert [[b.get(i, 0) for i in range(rows)] for b in got] == want, cols
