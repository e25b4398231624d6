import itertools
import random
from math import gcd

import pytest

from ttspec import milnor_witt as mw
from ttspec import verify
from ttspec.errors import BoundExceeded, EvenCharacteristic, FieldMismatch, InvalidArgument, NotPrime, ZeroInput
from ttspec.finite_field import (
    LOG_TABLE_BOUND,
    PRIME_BOUND,
    FieldElement,
    PrimePower,
    _log_table,
    _norm,
    _pohlig_hellman,
    _poly_inverse,
    _poly_mul_mod,
    _times,
    discrete_log,
    is_square,
    make_field,
    primitive_element,
    square_class,
    _poly_divmod,
    _poly_is_irreducible,
    _prime_factors,
    _primes_upto,
)

from helpers import field_elements, field_units

FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)]
# the prime-power fields that perfbench builds (lib-warm, cli-small, cli-arith)
BENCH_POWERS = [(3, 2), (5, 2), (3, 3), (3, 5), (3, 7), (3, 8), (3, 9), (13, 4),
                (5, 7), (41, 3), (43, 3), (3, 10)]


def _schoolbook_mul_mod(a, b, modulus, p):
    """Oracle: the product of coefficient sequences by the schoolbook loop,
    reduced by the monic modulus one leading coefficient at a time."""
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, e - 1, -1):
        c, prod[i] = prod[i], 0
        for j in range(e + 1):
            prod[i - e + j] = (prod[i - e + j] - c * modulus[j]) % p
    return tuple(prod[:e] + [0] * (e - len(prod)))


def _irreducible_by_trial_division(poly, p):
    """Oracle: no monic polynomial of degree 1 .. e/2 divides poly."""
    e = len(poly) - 1
    for d in range(1, e // 2 + 1):
        for v in range(p ** d):
            divisor = [(v // p ** i) % p for i in range(d)] + [1]
            if not _poly_divmod(poly, divisor, p)[1]:
                return False
    return True


def test_rejects_bad_parameters():
    with pytest.raises(EvenCharacteristic):
        make_field(2)
    with pytest.raises(NotPrime):
        make_field(9)
    with pytest.raises(NotPrime):
        make_field(15)
    with pytest.raises(BoundExceeded):
        make_field(11, 6)  # 11^6 > 2^20
    with pytest.raises(ValueError):
        make_field(3, 0)


def test_sieve_matches_trial_division():
    oracle = [p for p in range(3001) if _prime_factors(p) == {p: 1}]
    for n in range(3001):
        assert _primes_upto(n) == [p for p in oracle if p <= n], n
    assert _primes_upto(-5) == []


def test_sieve_at_the_prime_bound():
    primes = _primes_upto(PRIME_BOUND)
    assert (len(primes), primes[-1]) == (41538, 499979)
    with pytest.raises(BoundExceeded, match=f"prime bound {PRIME_BOUND + 1} exceeds the bound {PRIME_BOUND}"):
        _primes_upto(PRIME_BOUND + 1)


@pytest.mark.parametrize(
    "p,e", FIELDS + sorted(({(p, e) for p in (3, 5, 7) for e in range(1, 7)} | set(BENCH_POWERS)) - set(FIELDS)))
def test_modulus_is_least_irreducible(p, e):
    """The search under Ben-Or's test picks what trial division picks."""
    field = make_field(p, e)
    assert len(field.modulus) == e + 1
    assert field.modulus[-1] == 1
    assert _irreducible_by_trial_division(field.modulus, p)
    if e > 1:
        # no lexicographically smaller monic polynomial is irreducible
        value = sum(c * p ** i for i, c in enumerate(field.modulus[:-1]))
        for v in range(value):
            cand = tuple((v // p ** i) % p for i in range(e)) + (1,)
            assert not _irreducible_by_trial_division(cand, p)


def test_irreducibility_oracle_roots():
    # a degree-2 or 3 polynomial is irreducible iff it has no root
    for p in (3, 5):
        for e in (2, 3):
            for v in range(p ** e):
                poly = tuple((v // p ** i) % p for i in range(e)) + (1,)
                has_root = any(
                    sum(c * x ** i for i, c in enumerate(poly)) % p == 0
                    for x in range(p)
                )
                assert _poly_is_irreducible(poly, p) == (not has_root)


@pytest.mark.parametrize("p,e", FIELDS)
def test_field_arithmetic(p, e):
    field = make_field(p, e)
    q = field.q
    elements = list(field_elements(field))
    assert len(elements) == q
    one = field.one()
    for a in field_units(field):
        assert a * a.inverse() == one
        assert a / a == one
    sample = elements[:: max(1, q // 7)]
    for a, b, c in itertools.product(sample, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in sample:
        assert a.is_zero() == (a == field.zero())
        power = one
        for n in range(6):  # `**` against repeated multiplication
            assert a ** n == power
            if not a.is_zero():
                assert a ** -n == power.inverse()
            power = power * a


@pytest.mark.parametrize("p,e", FIELDS)
def test_primitive_element_and_dlog(p, e):
    field = make_field(p, e)
    omega = primitive_element(field)
    assert _order_by_walk(omega) == field.q - 1
    # omega is the least full-order element in representative order
    for v in range(2, omega.value):
        assert _order_by_walk(field.from_index(v)) < field.q - 1
    for a in field_units(field):
        k = discrete_log(a)
        assert omega ** k == a
        assert 0 <= k < field.q - 1


@pytest.mark.parametrize("p,e", FIELDS)
def test_squares(p, e):
    field = make_field(p, e)
    squares = {(a * a).value for a in field_units(field)}
    for a in field_units(field):
        assert is_square(a) == (a.value in squares)
        assert square_class(a) == (discrete_log(a) % 2)
    # multiplicativity of the square-class bit
    units = list(field_units(field))[:8]
    for a, b in itertools.product(units, repeat=2):
        assert square_class(a * b) == (square_class(a) ^ square_class(b))


def _inverse_by_ladder(a):
    return a ** (a.field.q - 2)


def _is_square_by_ladder(a):
    return a ** ((a.field.q - 1) // 2) == a.field.one()


@pytest.mark.parametrize(
    "p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (11, 2), (5, 3), (3, 5), (3, 7)]
)
def test_inverse_and_is_square_match_power_ladder_on_every_unit(p, e):
    """Euclid's inverse and the norm's Euler criterion against a^(q-2) and
    a^((q-1)/2) by the power ladder of `**` (builtin `pow` on a prime
    field), which uses neither Euclid nor the norm."""
    field = make_field(p, e)
    for a in field_units(field):
        assert a.inverse() == _inverse_by_ladder(a), a
        assert is_square(a) == _is_square_by_ladder(a), a


@pytest.mark.parametrize("p,e", [(3, 10), (65521, 1), (1048573, 1)])
def test_inverse_and_is_square_match_power_ladder_on_seeded_units(p, e):
    field = make_field(p, e)
    rng = random.Random(f"inverse:{field.q}")
    for _ in range(16):
        a = field.from_index(rng.randrange(1, field.q))
        assert a.inverse() == _inverse_by_ladder(a), a
        assert is_square(a) == _is_square_by_ladder(a), a


@pytest.mark.parametrize("p", [3, 5, 7, 127, 4093, 65521, 1048573])
def test_is_square_matches_sympy_quadratic_residue(p):
    """Prime fields against sympy's residue test (its `legendre_symbol` in
    `sympy.ntheory` is deprecated, and the symbolic one is 30x slower)."""
    sympy_ntheory = pytest.importorskip("sympy.ntheory")
    field = make_field(p)
    rng = random.Random(f"legendre:{p}")
    values = range(1, p) if p < 5000 else [rng.randrange(1, p) for _ in range(16)]
    for v in values:
        assert is_square(field.element(v)) == sympy_ntheory.is_quad_residue(v, p), v


def test_zero_input_errors():
    field = make_field(5)
    with pytest.raises(ZeroInput):
        field.zero().inverse()
    with pytest.raises(ZeroInput):
        field.zero() ** -1
    with pytest.raises(ZeroInput):
        discrete_log(field.zero())
    with pytest.raises(ZeroInput):
        is_square(field.zero())


def test_element_coercion_and_value():
    field = make_field(3, 2)
    # from_index enumerates by base-p value; element embeds integers
    for v in range(9):
        assert field.from_index(v).value == v
    a = field.element((1, 2))
    assert a.value == 1 + 2 * 3
    assert field.element(-1) == -field.one()
    assert field.element(3).is_zero()  # ring image of the characteristic
    assert field.element(4) == field.one()


def test_element_reduces_long_sequences_by_the_modulus():
    f5 = make_field(5)
    assert f5.element((1, 2)) == f5.one()  # 1 + 2x with x = 0 in Z/5[x]/(x)
    assert f5.element((1, 2)).value == 1
    f9 = make_field(3, 2)
    assert f9.modulus == (1, 0, 1)
    assert f9.element((1, 0, 1)).is_zero()
    assert f9.element((0, 0, 1)) == f9.element((-1,))  # x^2 = -1


@pytest.mark.parametrize("p,e", FIELDS + [(3, 7), (3, 12), (13, 5), (43, 3), (1021, 2)])
def test_element_sequence_oracle(p, e):
    """Up to length e a sequence is padded as before; a longer one gives the
    remainder of degree < e, checked by the modulus dividing the difference
    and against the schoolbook reduction."""
    field = make_field(p, e)
    rng = random.Random(f"element {p}^{e}")
    for _ in range(200):
        seq = [rng.randrange(-2 * p, 2 * p) for _ in range(rng.randint(0, e + 3))]
        coeffs = field.element(seq).coeffs
        assert len(coeffs) == e and all(0 <= c < p for c in coeffs)
        if len(seq) <= e:
            assert coeffs == tuple(c % p for c in seq) + (0,) * (e - len(seq))
        else:
            diff = [(s - r) % p for s, r in zip(seq, coeffs + (0,) * len(seq))]
            assert not _poly_divmod(diff, field.modulus, p)[1]
            assert coeffs == _schoolbook_mul_mod(seq, (1,), field.modulus, p)


@pytest.mark.parametrize("p,e", [(p, e) for p in (3, 5, 7) for e in range(1, 5)] + [(3, 5), (3, 6)])
def test_ben_or_matches_trial_division_on_every_monic_poly(p, e):
    for v in range(p ** e):
        poly = tuple((v // p ** i) % p for i in range(e)) + (1,)
        assert _poly_is_irreducible(poly, p) == _irreducible_by_trial_division(poly, p), poly


def test_log_table_large_field_path():
    # a field above the log-table bound still answers dlog queries
    field = make_field(13, 5)  # 371293 > 2^16
    omega = primitive_element(field)
    a = omega ** 12345
    assert discrete_log(a) == 12345


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3)])
def test_times_matches_poly_mul_mod_on_every_pair(p, e):
    """Both packed products against the schoolbook oracle, on every pair."""
    field = make_field(p, e)
    elements = [a.coeffs for a in field_elements(field)]
    for c in elements:
        times_c = _times(c, field.modulus, p)
        for x in elements:
            want = _schoolbook_mul_mod(x, c, field.modulus, p)
            assert times_c(x) == _poly_mul_mod(x, c, field.modulus, p) == want, (c, x)


@pytest.mark.parametrize("p,e", [(3, 7), (3, 12), (13, 5), (43, 3), (1021, 2), (1048573, 1)])
def test_times_matches_poly_mul_mod_on_seeded_pairs(p, e):
    """Large e or p, where the slots are widest: the pair of all-(p-1)
    tuples fills every slot to its bound ((p-1)^2 at e = 1)."""
    field = make_field(p, e)
    rng = random.Random(f"times:{field.q}")
    draws = [field.from_index(rng.randrange(field.q)).coeffs for _ in range(400)]
    top = (p - 1,) * e
    for c, x in [(top, top)] + list(zip(draws[::2], draws[1::2])):
        want = _schoolbook_mul_mod(x, c, field.modulus, p)
        assert _times(c, field.modulus, p)(x) == _poly_mul_mod(x, c, field.modulus, p) == want, (c, x)


# ------------------------------------------------- oracles for the set-up


def _order_by_walk(a):
    """Oracle: the multiplicative order of a unit by the O(q) power walk."""
    x, n, one = a, 1, a.field.one()
    while x != one:
        x = x * a
        n += 1
    return n


def _primitive_by_walk(field):
    """Oracle: the first candidate of full order by the power walk."""
    for v in range(2, field.q):
        a = field.from_index(v)
        if _order_by_walk(a) == field.q - 1:
            return a
    raise AssertionError("no generator")


def _odd_prime_powers(bound):
    primes = [p for p in range(3, bound + 1) if all(p % d for d in range(2, p))]
    return [(p, e) for p in primes for e in range(1, 9) if p ** e <= bound]


@pytest.mark.parametrize("p,e", _odd_prime_powers(400))
def test_generator_and_order_match_power_walk(p, e):
    """The generator, and the full-order test it is found by (a^((q-1)/l)
    != 1 for every prime l | q - 1), against the power walk."""
    field = make_field(p, e)
    omega = primitive_element(field)
    assert omega == _primitive_by_walk(field)
    one, n = field.one(), field.q - 1
    for v in range(1, min(field.q, 24)):
        a = field.from_index(v)
        full = all(a ** (n // ell) != one for ell in _prime_factors(n))
        assert full == (_order_by_walk(a) == n), (field, v)


def _primitive_by_cofactors(field):
    """Oracle: the first candidate with a^((q-1)/l) != 1 for every prime
    l | q - 1, every power taken in F_q by `**` (no norm)."""
    one, n = field.one(), field.q - 1
    cofactors = [n // ell for ell in _prime_factors(n)]
    for v in range(2, field.q):
        a = field.from_index(v)
        if all(a ** c != one for c in cofactors):
            return a
    raise AssertionError("no generator")


@pytest.mark.parametrize("p,e", [(7, 5), (13, 4), (31, 3), (41, 3), (43, 3), (5, 7), (3, 10)])
def test_generator_through_the_norm_matches_every_cofactor_in_f_q(p, e):
    """primitive_element tests the primes l | p - 1 on N(a) in F_p; the
    oracle takes every cofactor power in F_q."""
    field = _fresh_field(p, e)
    assert primitive_element(field) == _primitive_by_cofactors(field)


@pytest.mark.parametrize("p", [65521, 65537, 67003, 1048573])
def test_generator_matches_sympy_primitive_root(p):
    sympy_ntheory = pytest.importorskip("sympy.ntheory")
    assert primitive_element(make_field(p)).value == sympy_ntheory.primitive_root(p)


@pytest.mark.parametrize(
    "p,e", [(7, 1), (3, 2), (5, 2), (3, 3), (11, 2), (5, 3), (3, 5), (3, 7)]
)
def test_pohlig_hellman_matches_log_table(p, e):
    field = make_field(p, e)
    for coeffs, k in _log_table(field).items():
        assert _pohlig_hellman(FieldElement(field, coeffs)) == k


@pytest.mark.parametrize(
    "p,e",
    [(4099, 1), (3, 8), (13, 4), (65521, 1), (65537, 1), (67003, 1), (41, 3), (5, 7), (3, 12),
     (1048573, 1)],
)
def test_discrete_log_above_table_bound(p, e):
    field = make_field(p, e)
    q = field.q
    omega = primitive_element(field)
    rng = random.Random(f"dlog:{q}")
    for k in [0, 1, (q - 1) // 2, q - 2] + [rng.randrange(q - 1) for _ in range(16)]:
        assert discrete_log(omega ** k) == k, (q, k)


def _fresh_field(p, e):
    """The field of make_field(p, e) with an empty cache."""
    return PrimePower(p, e, make_field(p, e).modulus)


def _logs_by_walk(field):
    """Oracle: coeffs of omega^k -> k from a walk over all q - 1 powers."""
    omega, x, table = primitive_element(field), field.one(), {}
    for k in range(field.q - 1):
        table[x.coeffs] = k
        x = x * omega
    return table


@pytest.mark.parametrize("p,e", [(3, 7), (5, 5), (7, 4), (4093, 1)])
def test_log_table_matches_walk_in_order(p, e):
    """The table walked by the packed multiply-by-omega map against the
    walk by FieldElement multiplication: the same keys, values and order."""
    field = _fresh_field(p, e)
    assert list(_log_table(field).items()) == list(_logs_by_walk(field).items())


def test_pohlig_hellman_every_unit_of_largest_prime_below_table_bound():
    field = _fresh_field(4093, 1)  # the largest prime below 2^12
    for coeffs, k in _logs_by_walk(field).items():
        assert _pohlig_hellman(FieldElement(field, coeffs)) == k


@pytest.mark.parametrize("p,e", [(3, 8), (13, 4)])
def test_discrete_log_matches_walk_on_seeded_units(p, e):
    field = _fresh_field(p, e)
    table = _logs_by_walk(field)
    rng = random.Random(f"units:{field.q}")
    for _ in range(2000):
        a = field.from_index(rng.randrange(1, field.q))
        assert discrete_log(a) == table[a.coeffs], (field, a)


def test_log_table_only_up_to_bound():
    assert LOG_TABLE_BOUND == 1 << 12
    small = _fresh_field(3, 7)  # 2187
    discrete_log(small.from_index(5))
    assert "logs" in small._cache
    for p, e in [(4099, 1), (3, 8), (13, 4), (65521, 1)]:
        field = _fresh_field(p, e)
        omega = primitive_element(field)
        assert discrete_log(omega ** 1000) == 1000
        assert "logs" not in field._cache, field


# q in {3, 5, 7, 9, 25, 27, 121, 125, 243, 2187}: primes, squares and cubes of
# primes, and F_243 and F_2187, where Euclid and the norm cost most
TABLE_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (11, 2), (5, 3), (3, 5), (3, 7)]


@pytest.mark.parametrize("p,e", TABLE_FIELDS)
def test_inverse_and_is_square_from_the_log_table_match_euclid_and_the_norm(p, e):
    """With the table built, a = omega^k has inverse omega^-k and is a square
    iff k is even: checked on every unit against extended Euclid and the
    norm's Euler criterion, the paths a field without a table takes."""
    field = _fresh_field(p, e)
    _log_table(field)
    for a in field_units(field):
        assert a.inverse().coeffs == _poly_inverse(a.coeffs, field.modulus, p), a
        assert is_square(a) == (pow(_norm(a.coeffs, field.modulus, p), (p - 1) // 2, p) == 1), a
    assert "logs" in field._cache


@pytest.mark.parametrize("p,e", TABLE_FIELDS)
def test_inverse_and_is_square_never_build_the_log_table(p, e):
    field = _fresh_field(p, e)
    rng = random.Random(f"no-table:{field.q}")
    for _ in range(64):
        a = field.from_index(rng.randrange(1, field.q))
        assert a * a.inverse() == field.one() == a * a ** -1 == a / a, a
        assert square_class(a) == (not is_square(a)), a
    assert "logs" not in field._cache and "powers" not in field._cache, field


@pytest.mark.parametrize("p,e,coeffs", [(3, 1, (4,)), (3, 3, (4, 5, 7))])
def test_table_lookups_reduce_coefficients_out_of_canonical_form(p, e, coeffs):
    """An element built with coefficients outside 0..p-1 answers as its
    reduction does, before and after the log table is built; no lookup
    raises KeyError."""
    field = _fresh_field(p, e)
    a, reduced = FieldElement(field, coeffs), field.element(coeffs)
    assert a.coeffs != reduced.coeffs
    before = (a.inverse(), is_square(a))
    assert discrete_log(a) == discrete_log(reduced)
    assert "logs" in field._cache
    assert before == (a.inverse(), is_square(a)) == (reduced.inverse(), is_square(reduced))
    with pytest.raises(ZeroInput):
        discrete_log(FieldElement(field, (p,) * e))



def test_table_less_paths_reduce_coefficients_out_of_canonical_form():
    """Without a log table, `inverse`, `is_square` and Pohlig-Hellman
    reduce a tuple out of canonical form first: a zero written as (3,)
    raises ZeroInput rather than a bare ValueError from `pow`, and
    (4, 5, 7) over F_27 gets the answers of its reduction (1, 2, 1)."""
    f3 = _fresh_field(3, 1)
    for call in (FieldElement.inverse, is_square):
        with pytest.raises(ZeroInput):
            call(FieldElement(f3, (3,)))
    f27 = _fresh_field(3, 3)
    for coeffs, want in (((4, 5, 7), (1, 2, 1)), ((1, 2, 3), (1, 2, 0))):  # the second has top entry 0 mod 3
        a, reduced = FieldElement(f27, coeffs), f27.element(coeffs)
        assert reduced.coeffs == want
        assert a.inverse().coeffs == _poly_inverse(reduced.coeffs, f27.modulus, 3)
        assert is_square(a) == (_norm(reduced.coeffs, f27.modulus, 3) == 1)  # Euler's criterion at p = 3
    assert "logs" not in f3._cache and "logs" not in f27._cache
    big = _fresh_field(3, 8)  # above LOG_TABLE_BOUND: Pohlig-Hellman
    omega = primitive_element(big)
    for k in (1, 1000, big.q - 2):
        x = (omega ** k).coeffs
        assert discrete_log(FieldElement(big, tuple(c + 9 for c in x))) == k
    with pytest.raises(ZeroInput):
        discrete_log(FieldElement(big, (3,) * 8))
    assert "logs" not in big._cache


@pytest.mark.parametrize("p,e", [(3, 1), (13, 1), (127, 1), (3, 2), (3, 3)])
def test_from_index_is_the_base_p_encoding_of_v_mod_q(p, e):
    field, q = make_field(p, e), p ** e
    for v in range(-2 * q, 3 * q):
        want = tuple((v % q) // p ** i % p for i in range(e))
        assert field.from_index(v).coeffs == want, v


@pytest.mark.parametrize("p,e", [(13, 1), (3, 2), (3, 3)])
def test_add_and_divide_coerce_ints_and_refuse_foreign_fields(p, e):
    field, foreign = make_field(p, e), make_field(5, 3)
    twin = _fresh_field(p, e)  # equal to field, not the same object
    for a in field_units(field):
        for n in (-1, 2, p + 2, 3 * p - 1):
            assert a + n == a + field.element(n), (a, n)
            if n % p:
                assert a / n == a / field.element(n), (a, n)
        b = twin.from_index(a.value)
        assert a + b == a + a and a / b == field.one()
        for op in ("__add__", "__truediv__"):
            with pytest.raises(FieldMismatch):
                getattr(a, op)(foreign.one())


@pytest.mark.parametrize("p,e", [(3, 1), (13, 1), (3, 2), (3, 3)])
def test_negation_is_canonical(p, e):
    field = make_field(p, e)
    for a in field_elements(field):
        neg = -a
        assert neg.coeffs == field.element([-c for c in a.coeffs]).coeffs, a
        assert all(0 <= c < p for c in neg.coeffs) and len(neg.coeffs) == e, a
        assert (a + neg).is_zero()


@pytest.mark.parametrize("p,e", [(3, 1), (13, 1), (3, 3)])
def test_zero_and_one_are_built_once_per_field(p, e):
    field = _fresh_field(p, e)
    shared = make_field(p, e)
    key = hash(field)
    zero, one = field.zero(), field.one()
    assert zero == field.element(0) and one == field.element(1)
    assert field.zero() is zero and field.one() is one
    assert zero.coeffs == (0,) * e and one.coeffs == (1,) + (0,) * (e - 1)
    assert field == shared and hash(field) == key == hash(shared)
    assert field.zero() == shared.zero() and field.one() == shared.one()


def _change_of_generator(x, new_omega):
    """K^MW coordinates of x relative to another generator new_omega =
    omega^d: the degree-1 and bracket coordinates rescale by k = d^-1 mod
    (q - 1), since omega = new_omega^k; the group shapes are unchanged."""
    field = x.field
    d = discrete_log(new_omega)
    if gcd(d, field.q - 1) != 1:
        raise InvalidArgument("not a multiplicative generator")
    k = pow(d, -1, field.q - 1)
    n = x.degree
    if n == 1:
        return ((x.coords[0] * k) % (field.q - 1),)
    if n == 0 or (n < 0 and field.q % 4 == 1):
        return (x.coords[0], (x.coords[1] * k) % 2)
    return x.coords


def _change_of_generator_by_walk(x, new_omega):
    """Oracle: k with new_omega^k = omega found by stepping through powers."""
    field = x.field
    omega = primitive_element(field)
    k, acc = 0, field.one()
    while acc != omega:
        acc = acc * new_omega
        k += 1
    n = x.degree
    if n == 1:
        return ((x.coords[0] * k) % (field.q - 1),)
    if n == 0 or (n < 0 and field.q % 4 == 1):
        return (x.coords[0], (x.coords[1] * k) % 2)
    return x.coords


def _from_new_generator(field, n, coords, new_omega):
    """The element with coordinates `coords` on the generators of degree n
    with [new_omega] in place of [omega], built by `symbol` and `kmw_mul`."""
    bracket = mw.symbol(new_omega)
    if n == 1:
        gens = [bracket]
    elif n == 0:
        gens = [mw.kmw_one(field), mw.kmw_mul(mw.eta(field), bracket)]
    else:
        gens = [mw.eta(field, -n), mw.kmw_mul(mw.eta(field, 1 - n), bracket)]
    out = mw.kmw_zero(field, n)
    for c, g in zip(coords, gens):
        out = mw.kmw_add(out, c * g)
    return out


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)])
def test_change_of_generator_matches_walk(p, e):
    """The change-of-generator rule against the walk, and the new
    coordinates rebuilt through `symbol` and `kmw_mul` give back x."""
    field = make_field(p, e)
    elements = [
        x for n in (-2, -1, 0, 1) for x in verify._kmw_elements_for_check(field, n)
    ]
    for a in field_units(field):
        if _order_by_walk(a) != field.q - 1:
            with pytest.raises(InvalidArgument):
                _change_of_generator(elements[0], a)
            continue
        for x in elements:
            coords = _change_of_generator(x, a)
            assert coords == _change_of_generator_by_walk(x, a)
            assert _from_new_generator(field, x.degree, coords, a) == x, (x, a)
