import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ttspec.cli import parse_word
from ttspec.errors import InvalidArgument
from ttspec.finite_field import discrete_log, make_field, primitive_element
from ttspec import milnor_witt as mw
from ttspec import quadratic_forms as qf
from ttspec import verify

from helpers import eta_word, field_units, h_word, symbol_word, tensor_form, word_product, word_sum

QS = [3, 5, 7, 9]


def _field(q):
    return make_field(3, 2) if q == 9 else make_field(q)


def _order(shape):
    """Order of a finite GroupShape, None for an infinite one."""
    factors = shape.invariant_factors
    return None if 0 in factors else math.prod(factors)


# ------------------------------------------------------------- group shapes


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_group_shapes(q):
    field = _field(q)
    for n in range(2, 7):
        assert mw.kmw_group(field, n).invariant_factors == ()
    assert mw.kmw_group(field, 1).invariant_factors == (q - 1,)
    assert mw.kmw_group(field, 0).invariant_factors == (0, 2)
    for n in range(-6, 0):
        want = (4,) if q % 4 == 3 else (2, 2)
        assert mw.kmw_group(field, n).invariant_factors == want


# -------------------------------------------- defining relations, rederived


@pytest.mark.parametrize("q", QS)
def test_steinberg_relation(q):
    field = _field(q)
    one = field.one()
    for a in field_units(field):
        if a == one:
            continue
        w = word_product(symbol_word(a), symbol_word(one + -a))
        assert mw.reduce_word(w) == {}


@pytest.mark.parametrize("q", QS)
def test_twisted_logarithm_relation(q):
    # [ab] = [a] + [b] + eta [a][b]
    field = _field(q)
    for a, b in itertools.product(field_units(field), repeat=2):
        lhs = symbol_word(a * b)
        rhs = word_sum(symbol_word(a), symbol_word(b),
                       word_product(eta_word(field), symbol_word(a), symbol_word(b)))
        assert mw.reduce_word(lhs) == mw.reduce_word(rhs)


@pytest.mark.parametrize("q", QS)
def test_eta_commutes_with_symbols(q):
    field = _field(q)
    for a in field_units(field):
        lhs = word_product(eta_word(field), symbol_word(a))
        rhs = word_product(symbol_word(a), eta_word(field))
        assert mw.reduce_word(lhs) == mw.reduce_word(rhs)


@pytest.mark.parametrize("q", QS)
def test_eta_h_relation(q):
    field = _field(q)
    assert mw.reduce_word(word_product(eta_word(field), h_word(field))) == {}
    # equivalently (q+1) eta = 0 in canonical coordinates
    assert ((q + 1) * mw.eta(field)).is_zero()


@pytest.mark.parametrize("q", QS)
def test_epsilon_commutation(q):
    # [a][b] = eps [b][a] with eps = -<-1> = -1 - eta[-1]
    field = _field(q)
    eps = mw.word(field, (-1, 0, ()), (-1, 1, (-1,)))
    units = list(field_units(field))
    for a, b in itertools.product(units[:4], repeat=2):
        lhs = word_product(symbol_word(a), symbol_word(b))
        rhs = word_product(eps, symbol_word(b), symbol_word(a))
        assert mw.reduce_word(lhs) == mw.reduce_word(rhs)


@pytest.mark.parametrize("q", QS)
def test_double_symbols_vanish(q):
    field = _field(q)
    units = list(field_units(field))
    for a, b in itertools.product(units[:5], repeat=2):
        assert mw.reduce_word(word_product(symbol_word(a), symbol_word(b))) == {}


@pytest.mark.parametrize("q", QS)
def test_symbol_coordinates(q):
    field = _field(q)
    omega = primitive_element(field)
    for a in field_units(field):
        assert mw.symbol(a).coords == (discrete_log(a) % (q - 1),)
    for k in range(q - 1):
        assert mw.symbol(omega ** k).coords == (k,)


# ---------------------------------------------------- degree-0 ring = GW


def test_hyperbolic_kmw_matches_log_of_minus_one():
    for q in range(3, 244, 2):
        factors = [p for p in range(3, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]
        if len(factors) != 1:
            continue
        p = factors[0]
        e = next(e for e in range(1, 6) if p ** e == q)
        field = make_field(p, e)
        assert mw.hyperbolic_kmw(field).coords == (2, discrete_log(-field.one()) % 2), q


@pytest.mark.parametrize("q", QS)
def test_degree_zero_is_gw(q):
    field = _field(q)
    classes = [
        mw.KmwElement(field, 0, (m, s)) for m in range(-2, 3) for s in range(2)
    ]
    for x, y in itertools.product(classes, repeat=2):
        (m, s), (n, t) = x.coords, y.coords
        # GW(F_q) on (rank, disc): ranks add and multiply; discs multiply, and
        # disc(<rank m, disc s> (x) <rank n, disc t>) = n s + m t mod 2
        assert mw.kmw_add(x, y) == mw.KmwElement(field, 0, (m + n, s ^ t))
        assert mw.kmw_mul(x, y) == mw.KmwElement(field, 0, (m * n, (n * s + m * t) % 2))
    # h corresponds to the hyperbolic form
    h = qf.gw_class(qf.diagonal(field, [1, -1]))
    assert mw.KmwElement(field, 0, (h.rank, h.disc)) == mw.hyperbolic_kmw(field)


@pytest.mark.parametrize("q", QS)
def test_unit_is_identity(q):
    field = _field(q)
    one = mw.kmw_one(field)
    for n in (-3, -1, 0, 1):
        for x in verify._kmw_elements_for_check(field, n):
            assert mw.kmw_mul(one, x) == x
            assert mw.kmw_mul(x, one) == x


# ------------------------------------- independent Witt model, degrees <= 0


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", [-1, -2, -3, -4])
def test_negative_degrees_match_witt_model(q, n):
    # w |-> (sum (1 + eta[a_i])) eta^(-n) is an additive bijection W -> K^MW_n
    field = _field(q)
    witt = qf.witt_elements(field)
    images = {w_cls: mw.from_fundamental_ideal(field, n, w_cls) for w_cls in witt}
    assert len({img.coords for img in images.values()}) == 4
    group = mw.kmw_group(field, n)
    assert _order(group) == 4
    for w1, w2 in itertools.product(witt, repeat=2):
        assert images[qf.witt_class(qf.DiagonalForm(
            field, w1.anisotropic_kernel.entries + w2.anisotropic_kernel.entries
        ))] == mw.kmw_add(images[w1], images[w2])


@pytest.mark.parametrize("q", QS)
def test_negative_degree_multiplication_matches_witt(q):
    # the Witt-model identifications are multiplicative across degrees, with
    # the product of W(F_q) the tensor product of the kernels
    field = _field(q)
    witt = qf.witt_elements(field)
    for a, b in ((-1, -1), (-1, -2), (-2, -2)):
        for w1, w2 in itertools.product(witt, repeat=2):
            lhs = mw.kmw_mul(
                mw.from_fundamental_ideal(field, a, w1),
                mw.from_fundamental_ideal(field, b, w2),
            )
            product = qf.witt_class(tensor_form(w1.anisotropic_kernel, w2.anisotropic_kernel))
            assert lhs == mw.from_fundamental_ideal(field, a + b, product)


@pytest.mark.parametrize("q", QS)
def test_eta_powers_multiply(q):
    field = _field(q)
    for i, j in itertools.product(range(1, 5), repeat=2):
        assert mw.kmw_mul(mw.eta(field, i), mw.eta(field, j)) == mw.eta(field, i + j)


# ------------------------------------------- products against the word route


def _to_word(x):
    """Oracle: canonical coordinates expanded into a generator word."""
    field = x.field
    omega = primitive_element(field)
    n = x.degree
    terms = []
    if n >= 2 or x.is_zero():
        return mw.SymbolWord(field, ())
    if n == 1:
        terms.append((x.coords[0], 0, (omega,)))
    elif n == 0:
        m, t = x.coords
        if m:
            terms.append((m, 0, ()))
        if t:
            terms.append((t, 1, (omega,)))
    else:
        m = -n
        if field.q % 4 == 3:
            terms.append((x.coords[0], m, ()))
        else:
            s, t = x.coords
            if s:
                terms.append((s, m, ()))
            if t:
                terms.append((t, m + 1, (omega,)))
    return mw.SymbolWord(field, tuple(terms))


def _bounded_elements(field, n):
    """Every element with torsion coordinates below min(factor, 6) and
    free coordinates in -3..3."""
    factors = mw.kmw_group(field, n).invariant_factors
    ranges = [range(-3, 4) if f == 0 else range(min(f, 6)) for f in factors]
    return [mw.KmwElement(field, n, coords) for coords in itertools.product(*ranges)]


# The rules that `kmw_mul` and `reduce_word` replaced, kept as oracles: the
# per-monomial table, the product of generator terms read off it, and word
# reduction by adding table rows straight into coordinates.


def _monomial(c, i, bracket, d=1):
    """Oracle: (degree, coordinate index, multiple) of c * eta^i, or of
    c * eta^i [a] with d = dlog(a) when `bracket` is 1."""
    if not bracket:
        return -i, 0, c
    return 1 - i, 1 if i else 0, c * d


def _generator_terms(x):
    """Oracle: x as at most two terms (coefficient, eta power, bracket count)."""
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


def _generator_term_product(x, y):
    """Oracle: the pairwise products of the generator terms, where eta
    powers and bracket counts add and [w][w] = 0, summed by table row."""
    acc = [0, 0]
    for c1, i1, b1 in _generator_terms(x):
        for c2, i2, b2 in _generator_terms(y):
            if b1 + b2 < 2:
                _, idx, c = _monomial(c1 * c2, i1 + i2, b1 + b2)
                acc[idx] += c
    return mw.KmwElement(x.field, x.degree + y.degree, acc)


def _table_reduce_word(w):
    """Oracle: the table row of each monomial with at most one bracket,
    added into per-degree coordinates; two brackets kill a monomial."""
    acc = {}
    for coeff, i, entries in w.terms:
        if coeff and len(entries) < 2:
            d = discrete_log(entries[0]) if entries else 1
            degree, idx, c = _monomial(coeff, i, len(entries), d)
            acc.setdefault(degree, [0, 0])[idx] += c
    reduced = {n: mw.KmwElement(w.field, n, coords) for n, coords in acc.items()}
    return {n: x for n, x in reduced.items() if not x.is_zero()}


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)])
def test_kmw_mul_matches_word_route(p, e):
    """Coordinate products against expanding both factors into words,
    multiplying the words formally and reducing the product by the
    monomial table, which shares no code with `kmw_mul`."""
    field = make_field(p, e)
    elements = [x for n in range(-4, 3) for x in _bounded_elements(field, n)]
    for x, y in itertools.product(elements, repeat=2):
        degree = x.degree + y.degree
        want = _table_reduce_word(word_product(_to_word(x), _to_word(y))).get(degree, mw.kmw_zero(field, degree))
        assert mw.kmw_mul(x, y) == want, (x, y)


def _product_grid_fields(full=False):
    """(p, e) of the fields of the `kmw_mul` oracle grid: q in {3, 5, 7, 9,
    13, 25, 27}, and 11 too in full."""
    fields = [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3)]
    return fields + [(11, 1)] if full else fields


@pytest.mark.parametrize("p,e", _product_grid_fields())
def test_kmw_mul_matches_generator_term_product(p, e, full=False):
    """`kmw_mul` on (plain, bracket) coordinates against the product of
    generator terms, on every pair of elements built from coordinates
    (a, b) in degrees -4..2: a in -2..2 and b in -1..1, or in full a in
    -5..5 and b in -3..3, 2,324,168 products over the eight fields: cd tests
    && PYTHONPATH=../src python -c "import test_milnor_witt as t;
    [t.test_kmw_mul_matches_generator_term_product(*f, full=True) for f in
    t._product_grid_fields(full=True)]" """
    field = make_field(p, e)
    a_range, b_range = (range(-5, 6), range(-3, 4)) if full else (range(-2, 3), range(-1, 2))
    elements = [mw.KmwElement(field, n, coords)
                for n in range(-4, 3) for coords in itertools.product(a_range, b_range)]
    for x, y in itertools.product(elements, repeat=2):
        assert mw.kmw_mul(x, y) == _generator_term_product(x, y), (x, y)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3)])
def test_reduce_word_matches_monomial_table(p, e):
    """`reduce_word`, which evaluates each nonzero monomial with `eta`,
    `symbol`, `kmw_mul` and `kmw_add`, against the monomial table on seeded
    words with up to three brackets per monomial."""
    field = make_field(p, e)
    rng = random.Random(f"reduce_word:{p}^{e}")
    units = list(field_units(field))
    for _ in range(300):
        terms = []
        for _ in range(rng.randint(1, 5)):
            entries = [rng.choice(units) for _ in range(rng.choice((0, 1, 1, 2, 3)))]
            terms.append((rng.randint(-4, 4), rng.randint(0, 6), entries))
        w = mw.word(field, *terms)
        assert mw.reduce_word(w) == _table_reduce_word(w), terms


@pytest.mark.parametrize("i,k", [*itertools.product([64, 65, 66], range(3)), (0, 64), (0, 65), (1, 65), (1, 66)])
@pytest.mark.parametrize("coeff", [1, 0])
def test_reduce_word_and_parser_share_the_degree_window(coeff, i, k):
    """A word of one monomial, c eta^i times k brackets, and its text are
    accepted and refused alike: eta^i and every partial product must lie
    in [-DEGREE_BOUND, DEGREE_BOUND], even where the whole product lands
    back inside it or is 0 for its coefficient or its brackets."""
    field = make_field(7)
    entries = [2 + j % 4 for j in range(k)]
    text = " ".join([str(coeff), f"eta^{i}", *(f"[{a}]" for a in entries)])
    outcomes = []
    for evaluate in (lambda: mw.reduce_word(mw.word(field, (coeff, i, entries))), lambda: parse_word(field, text)):
        try:
            outcomes.append(evaluate())
        except InvalidArgument as exc:
            assert "outside supported window" in str(exc)
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is not None) == (i <= mw.DEGREE_BOUND and k - i <= mw.DEGREE_BOUND)


def test_import_leaves_quadratic_forms_unloaded():
    """K^MW is built from F_q alone: importing `milnor_witt` in a fresh
    process loads no `quadratic_forms`."""
    src = str(Path(mw.__file__).resolve().parents[1])
    code = "import sys, ttspec.milnor_witt; print('ttspec.quadratic_forms' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ----------------------------------------------------------- exact sequence


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", range(-4, 5))
def test_verify_ses(q, n):
    report = verify.verify_ses(_field(q), n)
    assert report["ok"], report


def test_from_fundamental_ideal_membership():
    field = make_field(3)
    odd = qf.witt_class(qf.diagonal(field, [1]))  # rank 1, not in I
    with pytest.raises(InvalidArgument):
        mw.from_fundamental_ideal(field, 0, odd)
    # the nonzero class of I maps to eta[w]
    pfister = qf.witt_class(qf.diagonal(field, [1, -2]))  # <1,-w> over F_3
    assert pfister != qf.WittClass(field, 0, 0)
    assert mw.from_fundamental_ideal(field, 0, pfister) == mw.KmwElement(field, 0, (0, 1))


@pytest.mark.parametrize("q", QS)
def test_from_fundamental_ideal_accepts_exactly_the_ideal_power(q):
    """The membership rule on (parity, disc) against the member lists of
    `fundamental_ideal_power`: every class of W in degrees -3..3."""
    field = _field(q)
    for n in range(-3, 4):
        members = qf.fundamental_ideal_power(field, max(n + 1, 0))["members"]
        for w_cls in qf.witt_elements(field):
            if w_cls in members:
                assert mw.from_fundamental_ideal(field, n, w_cls) == mw.KmwElement(field, n, (w_cls.parity, w_cls.disc))
            else:
                with pytest.raises(InvalidArgument, match=f"class not in I\\^{n + 1}"):
                    mw.from_fundamental_ideal(field, n, w_cls)


# ------------------------------------------------------------------- milnor


@pytest.mark.parametrize("q", QS)
def test_milnor_quotient(q):
    field = _field(q)
    assert mw.milnor_group(field, 0).invariant_factors == (0,)
    assert mw.milnor_group(field, 1).invariant_factors == (q - 1,)
    assert mw.milnor_group(field, 2).invariant_factors == ()
    # degree 1 quotient map is an isomorphism onto F_q^*
    hit = {mw.to_milnor(mw.KmwElement(field, 1, (c,))).value for c in range(q - 1)}
    assert len(hit) == q - 1
    with pytest.raises(InvalidArgument):
        mw.to_milnor(mw.eta(field))


# ------------------------------------------------------------- localization


@pytest.mark.parametrize("q", QS)
def test_eta_power_nonzero(q):
    """eta^n is eta times eta^(n-1) under `kmw_mul`, and is not zero."""
    field = _field(q)
    for n in range(2, 65):
        power = mw.eta(field, n)
        assert power == mw.kmw_mul(mw.eta(field, 1), mw.eta(field, n - 1))
        assert not power.is_zero()


@pytest.mark.parametrize("q", QS)
def test_negative_degrees_are_witt_groups(q):
    """K^MW_-n is W(F_q) for n >= 1: Z/2 (+) Z/2 when q = 1 mod 4, else
    Z/4.  So 4 eta^n = 0, and 2 eta^n = 0 exactly when q = 1 mod 4."""
    field = _field(q)
    want = (2, 2) if q % 4 == 1 else (4,)
    for n in range(1, 7):
        assert mw.kmw_group(field, -n).invariant_factors == want
        power = mw.eta(field, n)
        assert (4 * power).is_zero()
        assert (2 * power).is_zero() == (q % 4 == 1)


def _eta_surjective_by_subgroup(field, n):
    """Oracle: is eta * - : K^MW_n -> K^MW_(n-1) onto?  Generates the
    image of eta by breadth-first search.  The image of a homomorphism has
    at most |source| elements, so with a finite source the search fails
    once it holds more; otherwise it is capped at |target|.  One of the
    two is finite in every degree."""
    tgt = mw.kmw_group(field, n - 1)
    if _order(tgt) == 1:
        return True
    src = mw.kmw_group(field, n)
    if not src.invariant_factors:
        return False
    bound = _order(src) or _order(tgt)
    gen_images = []
    for idx in range(len(src.invariant_factors)):
        coords = tuple(int(j == idx) for j in range(len(src.invariant_factors)))
        gen_images.append(mw.kmw_mul(mw.eta(field), mw.KmwElement(field, n, coords)))
    zero = mw.kmw_zero(field, n - 1)
    reached = {zero.coords}
    frontier = [zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gen_images:
                y = mw.kmw_add(x, g)
                if y.coords not in reached:
                    reached.add(y.coords)
                    new.append(y)
            assert len(reached) <= bound, f"the image of eta in degree {n} outgrows {bound} elements"
        frontier = new
    return len(reached) == _order(tgt)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_eta_map_surjectivity_matches_subgroup_oracle(q):
    """eta * - : K^MW_m -> K^MW_(m-1) is onto exactly when m <= 0 or m >= 3,
    by the K^MW table: for m <= 0 it carries the generators eta^j and
    eta^j[w] to eta^(j+1) and eta^(j+1)[w], and for m >= 3 the target is 0;
    the image of [w] misses the free part of K^MW_0 (m = 1), and K^MW_2 is
    0 (m = 2).  Checked against the subgroup oracle."""
    field = _field(q)
    for m in range(-14, 10):
        assert _eta_surjective_by_subgroup(field, m) == (m <= 0 or m >= 3), m


# ------------------------------------------------------ coordinate plumbing


def test_error_paths():
    f3, f5 = make_field(3), make_field(5)
    with pytest.raises(InvalidArgument):
        mw.kmw_add(mw.eta(f3), mw.kmw_one(f3))
    with pytest.raises(InvalidArgument):
        mw.kmw_add(mw.kmw_one(f3), mw.kmw_one(f5))
    with pytest.raises(InvalidArgument):
        mw.symbol(f3.zero())
    with pytest.raises(ValueError):
        mw.kmw_group(f3, 100)


def test_scalar_multiples_and_order():
    field = make_field(3)
    e = mw.eta(field)
    assert (4 * e).is_zero()
    assert not (2 * e).is_zero()
    f5 = make_field(5)
    assert (2 * mw.eta(f5)).is_zero()


@pytest.mark.parametrize("q", [3, 5, 9])
def test_degree_bound_on_every_path(q):
    """Every way to build an element outside [-DEGREE_BOUND, DEGREE_BOUND]
    refuses, and the degrees at the bound are accepted."""
    field, bound = _field(q), mw.DEGREE_BOUND
    assert bound == 64
    for n in (bound, -bound):
        assert mw.kmw_zero(field, n).degree == n
    assert mw.kmw_mul(mw.kmw_zero(field, bound - 1), mw.omega_symbol(field)).degree == bound
    assert mw.kmw_mul(mw.eta(field, 32), mw.eta(field, 32)).degree == -bound
    refused = [
        lambda: mw.kmw_mul(mw.kmw_zero(field, bound), mw.omega_symbol(field)),
        lambda: mw.kmw_mul(mw.eta(field, 40), mw.eta(field, 40)),
        lambda: mw.KmwElement(field, bound + 1, ()),
        lambda: mw.KmwElement(field, -bound - 1, (0, 0)),
        lambda: mw.kmw_zero(field, bound + 1),
        lambda: mw.eta(field, bound + 1),
        lambda: mw.reduce_word(eta_word(field, bound + 1)),
        lambda: mw.reduce_word(mw.word(field, (1, bound + 2, [2]))),
    ]
    for build in refused:
        with pytest.raises(InvalidArgument, match="outside supported window"):
            build()


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 25, 27])
def test_normalization_rule_matches_invariant_factors(q):
    """KmwElement reduces coordinates by the degree rule; the oracle reduces
    each by the invariant factor that `_factors` lists for the degree.  Below
    degree 0, when K^MW_n = Z/4 on eta^(-n), a second coordinate is that of
    eta^(1-n)[w] = 2 eta^(-n), and folds into the first."""
    field = make_field(5, 2) if q == 25 else make_field(3, 3) if q == 27 else _field(q)
    rng = random.Random(f"normalize:{q}")
    for n in range(-mw.DEGREE_BOUND, mw.DEGREE_BOUND + 1):
        factors = mw._factors(field, n)
        for _ in range(6):
            coords = [rng.randrange(-4 * q, 4 * q) for _ in range(2)]
            want = tuple(c % f if f else c for c, f in zip(coords, factors))
            assert mw.KmwElement(field, n, coords[: len(factors)]).coords == want, (n, coords)
            if n < 0 and factors == (4,):
                want = ((coords[0] + 2 * coords[1]) % 4,)
            assert mw.KmwElement(field, n, coords).coords == want, (n, coords)
