import itertools
import math
import random

import pytest

from ttspec.errors import (
    DegreeMismatch,
    FieldMismatch,
    InvalidArgument,
    NegativeDegree,
    NotInIdealPower,
    ZeroSymbolEntry,
)
from ttspec.finite_field import discrete_log, make_field, primitive_element
from ttspec import milnor_witt as mw
from ttspec import quadratic_forms as qf
from ttspec import verify

from helpers import field_units

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
        w = mw.word_symbol(a) * mw.word_symbol(one + -a)
        assert mw.reduce_word(w) == {}


@pytest.mark.parametrize("q", QS)
def test_twisted_logarithm_relation(q):
    # [ab] = [a] + [b] + eta [a][b]
    field = _field(q)
    for a, b in itertools.product(field_units(field), repeat=2):
        lhs = mw.word_symbol(a * b)
        rhs = mw.word_symbol(a) + mw.word_symbol(b) + mw.word_eta(field) * (
            mw.word_symbol(a) * mw.word_symbol(b)
        )
        assert mw.reduce_word(lhs) == mw.reduce_word(rhs)


@pytest.mark.parametrize("q", QS)
def test_eta_commutes_with_symbols(q):
    field = _field(q)
    for a in field_units(field):
        lhs = mw.word_eta(field) * mw.word_symbol(a)
        rhs = mw.word_symbol(a) * mw.word_eta(field)
        assert mw.reduce_word(lhs) == mw.reduce_word(rhs)


@pytest.mark.parametrize("q", QS)
def test_eta_h_relation(q):
    field = _field(q)
    assert mw.reduce_word(mw.word_eta(field) * mw.word_h(field)) == {}
    # equivalently (q+1) eta = 0 in canonical coordinates
    assert ((q + 1) * mw.eta(field)).is_zero()


@pytest.mark.parametrize("q", QS)
def test_epsilon_commutation(q):
    # [a][b] = eps [b][a] with eps = -<-1> = -1 - eta[-1]
    field = _field(q)
    eps = -mw.word_one(field) - mw.word_eta(field) * mw.word_symbol(-field.one())
    units = list(field_units(field))
    for a, b in itertools.product(units[:4], repeat=2):
        lhs = mw.word_symbol(a) * mw.word_symbol(b)
        rhs = eps * (mw.word_symbol(b) * mw.word_symbol(a))
        assert mw.reduce_word(lhs) == mw.reduce_word(rhs)


@pytest.mark.parametrize("q", QS)
def test_double_symbols_vanish(q):
    field = _field(q)
    units = list(field_units(field))
    for a, b in itertools.product(units[:5], repeat=2):
        assert mw.reduce_word(mw.word_symbol(a) * mw.word_symbol(b)) == {}


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
        gx, gy = mw.kmw_to_gw(x), mw.kmw_to_gw(y)
        assert mw.kmw_to_gw(mw.kmw_add(x, y)) == gx + gy
        assert mw.kmw_to_gw(mw.kmw_mul(x, y)) == gx * gy
        assert mw.gw_to_kmw(gx) == x
    # h corresponds to the hyperbolic form
    assert mw.gw_to_kmw(qf.hyperbolic_class(field)) == mw.hyperbolic_kmw(field)


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
        assert images[qf.witt_class(
            w1.anisotropic_kernel.concat(w2.anisotropic_kernel)
        )] == mw.kmw_add(images[w1], images[w2])


@pytest.mark.parametrize("q", QS)
def test_negative_degree_multiplication_matches_witt(q):
    # the Witt-model identifications are multiplicative across degrees
    field = _field(q)
    witt = qf.witt_elements(field)
    for a, b in ((-1, -1), (-1, -2), (-2, -2)):
        for w1, w2 in itertools.product(witt, repeat=2):
            lhs = mw.kmw_mul(
                mw.from_fundamental_ideal(field, a, w1),
                mw.from_fundamental_ideal(field, b, w2),
            )
            rhs = mw.from_fundamental_ideal(field, a + b, qf.witt_mul(w1, w2))
            assert lhs == rhs


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


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)])
def test_kmw_mul_matches_word_route(p, e):
    """Coordinate products against expanding both factors into words,
    multiplying the words and reducing the product."""
    field = make_field(p, e)
    elements = [x for n in range(-4, 3) for x in _bounded_elements(field, n)]
    for x, y in itertools.product(elements, repeat=2):
        want = mw.reduce_homogeneous(_to_word(x) * _to_word(y), x.degree + y.degree)
        assert mw.kmw_mul(x, y) == want, (x, y)


# ----------------------------------------------------------- exact sequence


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", range(-4, 5))
def test_verify_ses(q, n):
    report = verify.verify_ses(_field(q), n)
    assert report["ok"], report


def test_from_fundamental_ideal_membership():
    field = make_field(3)
    odd = qf.witt_one(field)  # rank 1, not in I
    with pytest.raises(NotInIdealPower):
        mw.from_fundamental_ideal(field, 0, odd)
    # the nonzero class of I maps to eta[w]
    pfister = qf.witt_class(qf.diagonal(field, [1, -2]))  # <1,-w> over F_3
    assert not pfister.is_zero()
    assert mw.from_fundamental_ideal(field, 0, pfister) == mw.KmwElement(field, 0, (0, 1))


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
    with pytest.raises(NegativeDegree):
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
def test_localize_eta(q):
    field = _field(q)
    report = mw.localize_eta(field)
    assert report["four_is_zero"]
    assert report["two_is_zero"] == (q % 4 == 1)
    want = (2, 2) if q % 4 == 1 else (4,)
    for n, data in report["degreewise"].items():
        assert data["colimit_invariant_factors"] == want
        if n <= 1:
            assert data["stabilization_index"] == 1


def _eta_surjective_by_subgroup(field, n):
    """Oracle: is eta * - : K^MW_n -> K^MW_(n-1) onto?  Generates the
    image of eta inside the finite target."""
    tgt = mw.kmw_group(field, n - 1)
    if _order(tgt) == 1:
        return True
    src = mw.kmw_group(field, n)
    if not src.invariant_factors:
        return False
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
        frontier = new
    return len(reached) == _order(tgt)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_eta_map_surjectivity_matches_subgroup_oracle(q):
    """The stabilization indices of `localize_eta` against the search they
    replaced: the least k >= 1 after which every eta-map down to the floor
    of the window is onto, with ontoness from the subgroup oracle."""
    field = _field(q)
    onto = {m: _eta_surjective_by_subgroup(field, m) for m in range(-14, 10)}
    for window in range(10):
        report = mw.localize_eta(field, window)
        floor = -window - 4
        for n, data in report["degreewise"].items():
            k = 1
            while not all(onto[m] for m in range(n - k, floor, -1)):
                k += 1
            assert data["stabilization_index"] == k, (window, n)


# ------------------------------------------------------ coordinate plumbing


def test_error_paths():
    f3, f5 = make_field(3), make_field(5)
    with pytest.raises(DegreeMismatch):
        mw.kmw_add(mw.eta(f3), mw.kmw_one(f3))
    with pytest.raises(FieldMismatch):
        mw.kmw_add(mw.kmw_one(f3), mw.kmw_one(f5))
    with pytest.raises(ZeroSymbolEntry):
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
        lambda: mw.reduce_word(mw.word_eta(field, bound + 1)),
        lambda: mw.reduce_word(mw.word(field, (1, bound + 2, [2]))),
    ]
    for build in refused:
        with pytest.raises(InvalidArgument, match="outside supported window"):
            build()


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 25, 27])
def test_normalization_rule_matches_invariant_factors(q):
    """KmwElement reduces coordinates by the degree rule; the oracle reduces
    each by the invariant factor that `_factors` lists for the degree."""
    field = make_field(5, 2) if q == 25 else make_field(3, 3) if q == 27 else _field(q)
    rng = random.Random(f"normalize:{q}")
    for n in range(-mw.DEGREE_BOUND, mw.DEGREE_BOUND + 1):
        factors = mw._factors(q, n)
        for _ in range(6):
            coords = [rng.randrange(-4 * q, 4 * q) for _ in range(2)]
            want = tuple(c % f if f else c for c, f in zip(coords, factors))
            assert mw.KmwElement(field, n, coords[: len(factors)]).coords == want, (n, coords)
            assert mw.KmwElement(field, n, coords).coords == want, (n, coords)
