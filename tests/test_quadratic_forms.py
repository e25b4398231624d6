import itertools
import random
import sys

import pytest

from ttspec.errors import BoundExceeded, InvalidArgument
from ttspec.finite_field import make_field, primitive_element, square_class
from ttspec import milnor_witt as mw
from ttspec import quadratic_forms as qf

from helpers import field_units, tensor_form, witt_classes

SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2)]


def _field(q):
    return make_field(3, 2) if q == 9 else make_field(q)


def _mat_mul(field, a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[field.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = field.zero()
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            out[i][j] = s
    return out


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _det(field, m):
    """Determinant of a square matrix of field elements, by elimination."""
    n = len(m)
    m = [row[:] for row in m]
    det = field.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if pivot is None:
            return field.zero()
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] = m[r][c] + -(factor * m[col][c])
    return det


def _diagonalize(field, g):
    """Diagonalize a nondegenerate symmetric matrix of field elements by
    symmetric congruence, the general elimination `witt_decompose` once ran
    on every step.  Returns (the diagonal entries of C^T G C, C)."""
    n = len(g)
    if _det(field, g).is_zero():
        raise InvalidArgument("zero determinant")
    a = [row[:] for row in g]
    c = [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]

    def col_op(target, source, factor):
        # col_target += factor * col_source, applied symmetrically to a, and to c
        for i in range(n):
            a[i][target] = a[i][target] + factor * a[i][source]
        for j in range(n):
            a[target][j] = a[target][j] + factor * a[source][j]
        for i in range(n):
            c[i][target] = c[i][target] + factor * c[i][source]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            c[r][i], c[r][j] = c[r][j], c[r][i]

    for k in range(n):
        if a[k][k].is_zero():
            j = next((t for t in range(k + 1, n) if not a[t][t].is_zero()), None)
            if j is not None:
                col_swap(k, j)
            else:
                j = next(t for t in range(k + 1, n) if not a[k][t].is_zero())
                col_op(k, j, field.one())  # new norm is 2*a[k][j] != 0 in odd characteristic
        inv = a[k][k].inverse()
        for j in range(k + 1, n):
            if not a[k][j].is_zero():
                col_op(j, k, -a[k][j] * inv)
    return [a[i][i] for i in range(n)], c


def _gram(form):
    """The Gram matrix of a diagonal form."""
    z = form.field.zero()
    n = form.rank
    return [[form.entries[i] if i == j else z for j in range(n)] for i in range(n)]


def isometric_bruteforce(f, g):
    """Brute-force isometry search over GL_n(F_q); oracle for the
    classification of forms by `gw_class`, rank and discriminant."""
    if f.field != g.field:
        raise InvalidArgument("forms over different fields")
    if f.rank != g.rank:
        return False
    field = f.field
    n = f.rank
    if n == 0:
        return True
    fg, gg = _gram(f), _gram(g)
    for flat in itertools.product(range(field.q), repeat=n * n):
        c = [[field.from_index(flat[i * n + j]) for j in range(n)] for i in range(n)]
        if _det(field, c).is_zero():
            continue
        if _mat_mul(field, _transpose(c), _mat_mul(field, fg, c)) == gg:
            return True
    return False


# ---------------------------------------------------------- oracle elimination


def _congruence_holds(field, g):
    entries, cmat = _diagonalize(field, g)
    product = _mat_mul(field, _transpose(cmat), _mat_mul(field, g, cmat))
    n = len(g)
    return all(
        product[i][j] == (entries[i] if i == j else field.zero())
        for i in range(n)
        for j in range(n)
    )


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_diagonalize_congruence_witness(p, e):
    """The oracle's elimination returns a change of basis C with C^T G C
    diagonal, through both of its pivot repairs (swap, and column sum)."""
    field = make_field(p, e)

    def gram(rows):
        return [[field.element(x) for x in row] for row in rows]

    # deterministic battery of symmetric matrices of rank 2 and 3
    seeds = [(1, 0, 1), (0, 1, 0), (1, 1, 2), (2, 1, 1), (1, 2, 0)]
    for a, b, c in seeds:
        g = gram([[a, b], [b, c]])
        if not _det(field, g).is_zero():
            assert _congruence_holds(field, g)
    assert _congruence_holds(field, gram([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))


def test_degenerate_rejected():
    field = make_field(3)
    with pytest.raises(InvalidArgument):
        _diagonalize(field, [[field.one()] * 2] * 2)
    with pytest.raises(InvalidArgument):
        qf.diagonal(field, [1, 0])


# ----------------------------------------------------------------- isotropy


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_rank3_always_isotropic(q):
    # exhaustive over square-class representative entries; scaling
    # invariance is verified separately below
    field = _field(q)
    omega = primitive_element(field)
    reps = [field.one(), omega]
    for entries in itertools.product(reps, repeat=3):
        form = qf.DiagonalForm(field, entries)
        assert qf.is_isotropic(form)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_scaling_by_squares_preserves_class(q):
    field = _field(q)
    for a in field_units(field):
        for c in field_units(field):
            f1 = qf.witt_class(qf.DiagonalForm(field, (a,)))
            f2 = qf.witt_class(qf.DiagonalForm(field, (a * c * c,)))
            assert qf._witt_key(f1) == qf._witt_key(f2)


def test_rank2_isotropy_criterion():
    # <a, b> isotropic iff -a/b is a square, against the exhaustive search
    for q in (3, 5, 7):
        field = _field(q)
        for a, b in itertools.product(field_units(field), repeat=2):
            form = qf.DiagonalForm(field, (a, b))
            assert qf.is_isotropic(form) == (square_class(-a / b) == 0)


def test_witt_decompose_examples():
    f7 = make_field(7)
    h, kernel = qf.witt_decompose(qf.diagonal(f7, [1, -1, 1]))
    assert h == 1
    assert [a.value for a in kernel.entries] == [1]
    f5 = make_field(5)
    h, kernel = qf.witt_decompose(qf.diagonal(f5, [1, 1]))
    assert (h, kernel.rank) == (1, 0)  # -1 = 2^2 is a square mod 5
    h, kernel = qf.witt_decompose(qf.diagonal(f5, [1, 1, 1, 1]))
    assert (h, kernel.rank) == (2, 0)


def test_witt_decompose_searches_only_at_rank_three_and_up(monkeypatch):
    """A binary step asks `is_isotropic`, which decides it: h = 1 iff the
    form is isotropic, and the kernel rank is 2 - 2h.  `witt_decompose`
    itself searches only at rank >= 3, and above _EXHAUSTIVE_Q no binary
    form is searched at all."""
    calls = []
    search = qf._isotropic_vector

    def recorded(f):
        calls.append((sys._getframe(1).f_code.co_name, f.rank, f.field.q))
        return search(f)

    monkeypatch.setattr(qf, "_isotropic_vector", recorded)
    rng = random.Random("binary descent")
    fields = (make_field(7), make_field(3, 2), make_field(131), make_field(139), make_field(3, 5))
    for field in fields:
        for _ in range(40):
            a, b = (field.from_index(rng.randrange(1, field.q)) for _ in range(2))
            h, kernel = qf.witt_decompose(qf.DiagonalForm(field, (a, b)))
            assert h == (square_class(-a / b) == 0)
            assert [x.value for x in kernel.entries] == ([] if h else [a.value, b.value])
    for field, rank in [(f, r) for f in fields[:2] for r in (3, 4, 5)] + [(fields[2], 4)]:
        entries = [field.from_index(rng.randrange(1, field.q)) for _ in range(rank)]
        h, kernel = qf.witt_decompose(qf.DiagonalForm(field, tuple(entries)))
        assert kernel.rank == rank - 2 * h
    own = [rank for caller, rank, _ in calls if caller == "witt_decompose"]
    assert own and min(own) >= 3
    assert not [q for _, rank, q in calls if rank == 2 and q > qf._EXHAUSTIVE_Q]


def test_descent_bound_refuses_before_any_search(monkeypatch):
    def no_search(f):
        raise AssertionError("searched past the descent bound")

    # the largest rank over F_3 within the bound, and one more
    top = max(n for n in range(1, 80) if qf._descent_cost(n, 3) <= qf.DESCENT_BOUND)
    assert qf._descent_cost(top + 1, 3) > qf.DESCENT_BOUND
    assert qf._descent_cost(2, 1 << 20) == 0  # a binary form never searches
    assert qf._descent_cost(3, 7) == 2 * 49 * 3 + 27
    assert qf._descent_cost(5, 7) == 2 * 49 * 5 + 125 + 2 * 49 * 3 + 27
    monkeypatch.setattr(qf, "_isotropic_vector", no_search)
    for field, rank in ((make_field(3), top + 1), (make_field(1019), 3), (make_field(3), 200)):
        with pytest.raises(BoundExceeded, match=f"descent bound {qf.DESCENT_BOUND}"):
            qf.witt_decompose(qf.diagonal(field, [1] * rank))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_witt_decompose_invariants(q):
    field = _field(q)
    omega = primitive_element(field)
    reps = [field.one(), omega, -field.one(), -omega]
    for r in (1, 2, 3):
        for entries in itertools.product(reps, repeat=r):
            form = qf.DiagonalForm(field, entries)
            h, kernel = qf.witt_decompose(form)
            assert 2 * h + kernel.rank == r
            assert not qf.is_isotropic(kernel)
            # discriminant is preserved: det(form) = (-1)^h det(kernel) mod squares
            total = field.one()
            for a in entries:
                total = total * a
            ker_det = field.one()
            for a in kernel.entries:
                ker_det = ker_det * a
            lhs = square_class(total)
            rhs = square_class(ker_det * (-field.one()) ** h)
            assert lhs == rhs


# ----------------------------------------------------------------- Witt ring


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_witt_ring_structure(q):
    field = _field(q)
    structure = qf.witt_ring_structure(field)
    expected = "Z/4" if q % 4 == 3 else "Z/2[e]/e^2"
    assert structure["type"] == expected
    assert structure["order_of_unit_form"] == (4 if q % 4 == 3 else 2)
    elements = witt_classes(field)
    assert len({qf._witt_key(c) for c in elements}) == 4
    # group axioms on the 4-element addition table of W(F_q) = K^MW_-1
    images = [_in_kmw(c) for c in elements]
    for a, b in itertools.product(images, repeat=2):
        assert mw.kmw_add(a, b) in images
    zero = mw.kmw_zero(field, -1)
    for a in images:
        assert mw.kmw_add(a, zero) == a
        assert sum(mw.kmw_add(a, b).is_zero() for b in images) == 1  # one additive inverse


def _in_kmw(cls, n=-1):
    """The Witt class cls as an element of K^MW_n = W(F_q), n < 0."""
    return mw.from_fundamental_ideal(cls.field, n, cls.parity, cls.disc)


def _additive_order(x):
    """The least k >= 1 with k x = 0, by `kmw_add`; W(F_q) has exponent 4."""
    multiples = itertools.accumulate([x] * 4, mw.kmw_add)
    return next(k for k, m in enumerate(multiples, 1) if m.is_zero())


def _concat(f, g):
    return qf.DiagonalForm(f.field, f.entries + g.entries)


def _oracle_add(a, b):
    """Witt addition as forms: the class of the orthogonal sum of the two
    canonical kernels, by isotropy descent."""
    return qf.witt_class(_concat(a.anisotropic_kernel, b.anisotropic_kernel))


def _oracle_mul(a, b):
    """Witt product as forms: the class of the tensor product of the two
    canonical kernels, by isotropy descent."""
    return qf.witt_class(tensor_form(a.anisotropic_kernel, b.anisotropic_kernel))


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (31, 1), (43, 1)])
def test_witt_add_and_mul_match_the_form_oracle(p, e):
    """All 16 sums of the four classes in K^MW_-1, and their products in
    K^MW_-2, against the descent of the concatenated or tensored kernels."""
    field = make_field(p, e)
    for a, b in itertools.product(witt_classes(field), repeat=2):
        x, y = _in_kmw(a), _in_kmw(b)
        assert mw.kmw_add(x, y) == _in_kmw(_oracle_add(a, b)), (a, b)
        assert mw.kmw_mul(x, y) == _in_kmw(_oracle_mul(a, b), -2), (a, b)


@pytest.mark.parametrize("p,e", [(3, 3), (31, 1), (43, 1), (7, 2), (3, 4), (5, 3)])
def test_witt_ring_structure_matches_witt_add_oracle(p, e):
    """The closed form against the multiples k*<1> built by repeated
    `_oracle_add`, i.e. by isotropy descent, up to the first zero."""
    field = make_field(p, e)
    structure = qf.witt_ring_structure(field)
    zero, one = (qf.witt_class(qf.diagonal(field, [1] * r)) for r in (0, 1))
    multiples = [zero]
    while _oracle_add(multiples[-1], one) != zero:
        multiples.append(_oracle_add(multiples[-1], one))
    assert structure["order_of_unit_form"] == len(multiples) == _additive_order(_in_kmw(one))
    assert structure["type"] == ("Z/4" if len(multiples) == 4 else "Z/2[e]/e^2")
    assert structure["generator_table"] == {
        f"{k}*<1>": qf._witt_key(c) for k, c in enumerate(multiples)
    }


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_witt_multiplication_ring_axioms(q):
    """W(F_q) as K^MW_-1, whose products land in K^MW_-2 and K^MW_-3:
    <1> = eta is the unit up to that shift, and `kmw_mul` is commutative,
    associative and distributes over `kmw_add`."""
    field = _field(q)
    elements = witt_classes(field)
    one = mw.eta(field)
    add, mul = mw.kmw_add, mw.kmw_mul
    for a, b, c in itertools.product(elements, repeat=3):
        x, y, z = _in_kmw(a), _in_kmw(b), _in_kmw(c)
        assert mul(x, one) == _in_kmw(a, -2)
        assert mul(x, y) == mul(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


# ---------------------------------------------------------------------- GW


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_gw_class_against_forms(q):
    field = _field(q)
    omega = primitive_element(field)
    reps = [field.one(), omega]
    forms = [
        qf.DiagonalForm(field, entries)
        for r in (1, 2)
        for entries in itertools.product(reps, repeat=r)
    ]
    for f, g in itertools.product(forms, repeat=2):
        # in K^MW_0, products are tensor products and sums orthogonal sums
        x, y = qf.gw_class(f), qf.gw_class(g)
        assert x.degree == 0 and x.coords == (f.rank, sum(map(square_class, f.entries)) % 2)
        assert qf.gw_class(tensor_form(f, g)) == mw.kmw_mul(x, y)
        assert qf.gw_class(_concat(f, g)) == mw.kmw_add(x, y)


def _morel_fields(full=False):
    """(p, e) of the fields of the Morel-presentation oracle: q in {3, 5, 7,
    9, 11, 13, 25, 27}, or in full every odd prime power q <= 243."""
    if not full:
        return [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)]
    primes = [p for p in range(3, 244, 2) if all(p % d for d in range(3, int(p ** 0.5) + 1, 2))]
    return [(p, e) for p in primes for e in range(1, 6) if p ** e <= 243]


@pytest.mark.parametrize("p,e", _morel_fields())
def test_gw_class_matches_morel_presentation(p, e, full=False):
    """`gw_class(f)` against Morel's presentation of GW(F_q) = K^MW_0, where
    <a> = 1 + eta[a]: the `kmw_add` sum over the entries a_i of f of
    `kmw_one` + eta [a_i], with [a_i] from `symbol`, which reads
    `discrete_log` rather than `square_class`; the empty form gives
    `kmw_zero`.  Every diagonal form of rank 0-3 on up to four seeded
    units, or in full of rank 0-5 over every odd prime power q <= 243,
    81,963 forms: cd tests && PYTHONPATH=../src python -c "import
    test_quadratic_forms as t; [t.test_gw_class_matches_morel_presentation(*f,
    full=True) for f in t._morel_fields(full=True)]" """
    field = make_field(p, e)
    rng = random.Random(f"morel presentation {field.q}")
    units = [field.from_index(v) for v in rng.sample(range(1, field.q), min(4, field.q - 1))]
    one, eta = mw.kmw_one(field), mw.eta(field)
    for rank in range(6 if full else 4):
        for entries in itertools.product(units, repeat=rank):
            want = mw.kmw_zero(field, 0)
            for a in entries:
                want = mw.kmw_add(want, mw.kmw_add(one, mw.kmw_mul(eta, mw.symbol(a))))
            assert qf.gw_class(qf.DiagonalForm(field, entries)) == want, entries


def _to_witt(c):
    """Canonical quotient GW -> W: the Witt class of the representative
    form <1>^(rank - disc) + <w>^disc of the K^MW_0 element c.  The
    exponent of <1> is reduced mod 4 (the additive exponent of W)."""
    field = c.field
    rank, disc = c.coords
    ones = (field.one(),) * ((rank - disc) % 4)
    omegas = (primitive_element(field),) * disc
    return qf.witt_class(qf.DiagonalForm(field, ones + omegas))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_gw_to_witt_quotient(q):
    field = _field(q)
    omega = primitive_element(field)
    reps = [field.one(), omega]
    for r in (1, 2, 3):
        for entries in itertools.product(reps, repeat=r):
            form = qf.DiagonalForm(field, entries)
            via_gw = _to_witt(qf.gw_class(form))
            direct = qf.witt_class(form)
            assert qf._witt_key(via_gw) == qf._witt_key(direct)


def test_hyperbolic_class():
    for q in (3, 5):
        field = _field(q)
        h = qf.gw_class(qf.diagonal(field, [1, -1]))
        assert h.coords == (2, 1 if q % 4 == 3 else 0)  # rank 2, disc = -1 mod squares
        assert h == mw.hyperbolic_kmw(field)  # h = 2 + eta[-1] in K^MW_0
        assert _in_kmw(qf.witt_class(qf.diagonal(field, [1, -1]))).is_zero()


# ------------------------------------------------------- fundamental ideal


def _in_ideal(cls, n):
    """Whether `from_fundamental_ideal` accepts cls as a class of I^n,
    n >= 0, placed in K^MW_(n-1)."""
    try:
        mw.from_fundamental_ideal(cls.field, n - 1, cls.parity, cls.disc)
    except InvalidArgument:
        return False
    return True


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_fundamental_ideal_filtration(q):
    field = _field(q)
    orders = [qf.fundamental_ideal_order(n) for n in range(4)]
    assert orders == [4, 2, 1, 1]
    with pytest.raises(InvalidArgument):
        qf.fundamental_ideal_order(-1)
    ideal = [c for c in witt_classes(field) if _in_ideal(c, 1)]
    assert len(ideal) == orders[1]
    # I = even-rank classes
    for member in ideal:
        assert member.anisotropic_kernel.rank % 2 == 0
    # Pfister forms <1,-a> all land in I
    for a in field_units(field):
        assert _in_ideal(qf.witt_class(qf.DiagonalForm(field, (field.one(), -a))), 1)


def _ideal_power_bfs(field, n):
    """Oracle: the breadth-first search over sums of n-fold Pfister
    products, on the form-based Witt arithmetic."""
    if n == 0:
        return witt_classes(field)
    reps = [field.one(), primitive_element(field)]
    pfisters = [qf.witt_class(qf.DiagonalForm(field, (field.one(), -a))) for a in reps]
    generators = []
    for combo in itertools.product(pfisters, repeat=n):
        prod = combo[0]
        for c in combo[1:]:
            prod = _oracle_mul(prod, c)
        generators.append(prod)
    zero = qf.witt_class(qf.DiagonalForm(field, ()))
    seen = {qf._witt_key(zero): zero}
    frontier = [zero]
    while frontier:
        new = []
        for m in frontier:
            for g in generators:
                cand = _oracle_add(m, g)
                if qf._witt_key(cand) not in seen:
                    seen[qf._witt_key(cand)] = cand
                    new.append(cand)
        frontier = new
    return list(seen.values())


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_fundamental_ideal_power_matches_bfs_oracle(q):
    """The closed-form orders |I^n| that `gw` prints, and the classes that
    `from_fundamental_ideal` accepts as I^n, against the search."""
    field = _field(q)
    for n in range(4):
        want = _ideal_power_bfs(field, n)
        assert qf.fundamental_ideal_order(n) == len(want)
        assert {c for c in witt_classes(field) if _in_ideal(c, n)} == set(want)


# ---------------------------------------------------------------- isometry


def test_isometry_against_bruteforce_rank2():
    field = make_field(3)
    reps = list(field_units(field))
    forms = [
        qf.DiagonalForm(field, entries)
        for entries in itertools.product(reps, repeat=2)
    ]
    for f, g in itertools.product(forms[:6], forms[:6]):
        assert (qf.gw_class(f) == qf.gw_class(g)) == isometric_bruteforce(f, g)


def test_isometry_rank1_bruteforce():
    for q in (3, 5):
        field = _field(q)
        for a, b in itertools.product(field_units(field), repeat=2):
            f = qf.DiagonalForm(field, (a,))
            g = qf.DiagonalForm(field, (b,))
            assert (qf.gw_class(f) == qf.gw_class(g)) == isometric_bruteforce(f, g)


def test_field_mismatch():
    f3 = make_field(3)
    f5 = make_field(5)
    with pytest.raises(InvalidArgument):
        mw.kmw_mul(mw.eta(f3), mw.eta(f5))
    with pytest.raises(InvalidArgument):
        mw.kmw_add(mw.eta(f3), mw.eta(f5))


# ------------------------------------------------------- descent oracle


def _orthogonal_complement(field, entries, vectors):
    """Basis of the subspace orthogonal to the given vectors, for the
    diagonal form with the given entries (Gaussian elimination over F_q)."""
    n = len(entries)
    rows = [[entries[j] * v[j] for j in range(n)] for v in vectors]
    reduced, pivots = [], []
    for row in rows:
        row = row[:]
        for prow, pcol in zip(reduced, pivots):
            if not row[pcol].is_zero():
                factor = row[pcol] * prow[pcol].inverse()
                row = [x + -(factor * y) for x, y in zip(row, prow)]
        pcol = next((j for j in range(n) if not row[j].is_zero()), None)
        if pcol is not None:
            reduced.append(row)
            pivots.append(pcol)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for fcol in free:
        vec = [field.zero()] * n
        vec[fcol] = field.one()
        for prow, pcol in reversed(list(zip(reduced, pivots))):
            s = field.zero()
            for j in range(n):
                if j != pcol:
                    s = s + prow[j] * vec[j]
            vec[pcol] = -s * prow[pcol].inverse()
        basis.append(vec)
    return basis


def _descent_oracle(f):
    """The isotropy descent `witt_decompose` replaced: an `is_isotropic`
    pre-check, a second search for the same vector, a dual coordinate
    vector u with b(v, u) != 0, and the complement of span(v, u) by
    Gaussian elimination."""
    field = f.field
    h = 0
    current = f
    while current.rank >= 2 and qf.is_isotropic(current):
        v = qf._isotropic_vector(current)
        n = current.rank
        entries = current.entries

        def bilin(x, y):
            s = field.zero()
            for i in range(n):
                s = s + entries[i] * x[i] * y[i]
            return s

        u = None
        for i in range(n):
            cand = [field.one() if j == i else field.zero() for j in range(n)]
            if not bilin(v, cand).is_zero():
                u = cand
                break
        comp = _orthogonal_complement(field, entries, [v, u])
        sub_gram = [[bilin(x, y) for y in comp] for x in comp]
        current = qf.DiagonalForm(field, tuple(_diagonalize(field, sub_gram)[0]))
        h += 1
    return h, current


def _descent_cases(full=False):
    """Forms for the descent oracle.  In full, every form of rank <= 3 for
    q <= 13 and of rank 4 for q <= 7, then 400 seeded forms of rank 2-5
    over six larger fields in turn, less the 15 rank-5 forms over F_243
    that exceed DESCENT_BOUND, then three seeded forms of each rank 5-9
    over F_3, F_5, F_7 and F_9: 5,953 forms, minutes of run time.
    Otherwise a Tier-1 sample of them: every form of rank <= 2, every
    32nd of the rest over q <= 13, every 12th round of seeded forms over
    q <= 31, the seeded binary forms over q = 131 and 243 (a form of
    rank 3 or more there costs up to seconds in the vector search), and
    all of the seeded forms of rank 5-9, whose steps meet tail vectors
    with three nonzero coordinates."""
    cases = []
    for q in (3, 5, 7, 9, 11, 13):
        field = _field(q)
        units = list(field_units(field))
        for r in range(5 if q <= 7 else 4):
            forms = [qf.DiagonalForm(field, e) for e in itertools.product(units, repeat=r)]
            cases.extend(forms if full or r <= 2 else forms[::32])
    fields = [make_field(p, e) for p, e in ((17, 1), (5, 2), (3, 3), (31, 1), (131, 1), (3, 5))]
    rng = random.Random("witt descent oracle")
    for i in range(400):
        field = fields[i % len(fields)]
        units = [field.from_index(rng.randrange(1, field.q)) for _ in range(rng.randint(2, 5))]
        small = field.q <= 31 and i // len(fields) % 12 == 0
        if qf._descent_cost(len(units), field.q) > qf.DESCENT_BOUND:
            continue  # witt_decompose refuses it
        if full or small or (field.q > 31 and len(units) == 2):
            cases.append(qf.DiagonalForm(field, tuple(units)))
    for q in (3, 5, 7, 9):
        field = _field(q)
        for rank in range(5, 10):
            for _ in range(3):
                units = [field.from_index(rng.randrange(1, q)) for _ in range(rank)]
                cases.append(qf.DiagonalForm(field, tuple(units)))
    return cases


def test_isotropic_vector_lies_in_the_last_three_coordinates():
    """The invariant `witt_decompose` rests on: the search of a whole form
    of rank >= 3 returns a vector that is zero off its last three
    coordinates, equal to the vector found for that rank-3 tail.  Some of
    these vectors have three nonzero coordinates, so the complement's
    a_t + a_k c_t^2 entry is reached."""
    full_support = 0
    for form in _descent_cases():
        if form.rank < 3:
            continue
        v = qf._isotropic_vector(form)
        assert all(x.is_zero() for x in v[:-3]), (form.field.q, [a.value for a in form.entries])
        tail = qf._isotropic_vector(qf.DiagonalForm(form.field, form.entries[-3:]))
        assert v[-3:] == tail
        full_support += not any(x.is_zero() for x in tail)
    assert full_support


def test_witt_decompose_matches_descent_oracle(full=False):
    """One search per step and the closed-form complement give the same h
    and the same kernel entries as the old descent.  For the full sweep:
    cd tests && PYTHONPATH=../src python -c "import test_quadratic_forms
    as t; t.test_witt_decompose_matches_descent_oracle(full=True)" """
    for form in _descent_cases(full):
        h, kernel = qf.witt_decompose(form)
        want_h, want_kernel = _descent_oracle(form)
        got = (h, [a.value for a in kernel.entries])
        want = (want_h, [a.value for a in want_kernel.entries])
        assert got == want, (form.field.q, [a.value for a in form.entries])
