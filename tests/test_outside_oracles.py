"""F_q and Chow motives against sympy, an implementation written outside
this repository.

Every other oracle in the suite was written here, often beside the code it
checks.  These compare `finite_field` with `sympy.polys.galoistools` and
`sympy.ntheory`, and the ranks and determinants of `chow_motives` with
`sympy.Matrix`; each check names the sympy function it reads.  galoistools
writes a polynomial over F_p as a list of coefficients, highest degree
first, with no leading zeros; `finite_field` keeps coefficients lowest
first, so `_gf` turns one into the other.
"""

import itertools
import random

import pytest

pytest.importorskip("sympy")

from sympy import Matrix
from sympy.ntheory import discrete_log as sympy_discrete_log, factorint, primerange
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcdex, gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem, gf_strip

from ttspec import chow_motives as cm
from ttspec import finite_field as ff
from ttspec.finite_field import FieldElement, discrete_log, is_square, make_field, primitive_element

from test_chow_motives import _projectors, compression_matrix_dense

# ten extension fields, e up to 10; 3^7, 3^10 and 5^7 lie above LOG_TABLE_BOUND
FIELDS = [(3, 2), (5, 2), (3, 3), (7, 3), (3, 4), (13, 2), (5, 4), (3, 7), (3, 10), (5, 7)]


def _gf(coeffs):
    """A `finite_field` coefficient tuple as a galoistools polynomial."""
    return gf_strip(list(reversed(coeffs)))


def _units(field, count, seed):
    rng = random.Random(f"{seed}:{field.p}^{field.e}")
    return [field.from_index(rng.randrange(1, field.q)) for _ in range(count)]


@pytest.mark.parametrize("p,e", FIELDS)
def test_products_powers_and_inverses_match_galoistools(p, e):
    """`*` against `gf_mul` then `gf_rem` by the field's modulus, `**`
    against `gf_pow_mod`, and `inverse` against the Bezout coefficient of
    `gf_gcdex` (s a + t m = 1 makes s the inverse of a mod m): in a field
    with no log table, by the power ladder a^(q-2), and in the shared
    field, from its table where one has been built."""
    field = make_field(p, e)
    fresh = make_field.__wrapped__(p, e)  # the same field with an empty cache, so no log table
    modulus = _gf(field.modulus)
    rng = random.Random(f"exponents:{p}^{e}")
    units = _units(field, 101, "products")
    for a, b in zip(units, units[1:]):
        assert _gf((a * b).coeffs) == gf_rem(gf_mul(_gf(a.coeffs), _gf(b.coeffs), p, ZZ), modulus, p, ZZ)
        k = rng.randrange(field.q ** 2)
        assert _gf((a ** k).coeffs) == gf_pow_mod(_gf(a.coeffs), k, modulus, p, ZZ)
        s, _, gcd = gf_gcdex(_gf(a.coeffs), modulus, p, ZZ)
        assert gcd == [1]
        ladder = FieldElement(fresh, a.coeffs).inverse()
        assert _gf(a.inverse().coeffs) == _gf(ladder.coeffs) == gf_rem(s, modulus, p, ZZ)
    assert "logs" not in fresh._cache


@pytest.mark.parametrize("p,e", FIELDS)
def test_modulus_is_the_least_irreducible_candidate(p, e):
    """`make_field` scans the monic polynomials of degree e in the order
    of their low coefficients read as a base-p integer; by
    `gf_irreducible_p` its modulus is irreducible and no earlier candidate
    is."""
    field = make_field(p, e)
    assert gf_irreducible_p(_gf(field.modulus), p, ZZ)
    position = ff._coeffs_to_int(field.modulus[:-1], p)
    for v in range(position):
        assert not gf_irreducible_p(_gf(ff._int_to_coeffs(v, p, e) + (1,)), p, ZZ), v


@pytest.mark.parametrize("p,e", FIELDS)
def test_primitive_element_is_the_least_generator(p, e):
    """w^((q-1)/l) != 1 for each prime l | q - 1 (`factorint`, `gf_pow_mod`),
    and every element before w, from 2 on, fails that test for some l."""
    field = make_field(p, e)
    modulus, n = _gf(field.modulus), field.q - 1

    def generates(a):
        return all(gf_pow_mod(_gf(a.coeffs), n // ell, modulus, p, ZZ) != [1] for ell in factorint(n))

    omega = primitive_element(field)
    assert generates(omega)
    assert not any(generates(field.from_index(v)) for v in range(2, omega.value))


@pytest.mark.parametrize("p", [3, 4093, 4099, 65521, 1048573])
def test_prime_field_discrete_log_matches_sympy(p):
    """`discrete_log` against `sympy.ntheory.discrete_log` on prime fields,
    from the log table (p <= LOG_TABLE_BOUND) and from baby-step giant-step."""
    field = make_field(p)
    omega = primitive_element(field).value
    for a in _units(field, 40, "prime logs"):
        assert discrete_log(a) == sympy_discrete_log(p, a.value, omega), a


@pytest.mark.parametrize("p,e", FIELDS)
def test_extension_field_discrete_log_and_squares_match_gf_pow_mod(p, e):
    """w^k = a by `gf_pow_mod` for k = `discrete_log(a)` in [0, q - 2], on
    both sides of LOG_TABLE_BOUND; and `is_square` against Euler's
    criterion a^((q-1)/2) = 1, before any log table is built (the norm
    path) and after."""
    field = make_field(p, e)
    fresh = make_field.__wrapped__(p, e)  # the same field with an empty cache, so no log table
    modulus, omega = _gf(field.modulus), _gf(primitive_element(field).coeffs)
    units = _units(field, 40, "extension logs")

    def euler(a):
        return gf_pow_mod(_gf(a.coeffs), (field.q - 1) // 2, modulus, p, ZZ) == [1]

    for a in units:
        assert is_square(FieldElement(fresh, a.coeffs)) == euler(a), a
    assert "logs" not in fresh._cache
    for a in units:
        k = discrete_log(a)
        assert 0 <= k < field.q - 1
        assert gf_pow_mod(omega, k, modulus, p, ZZ) == _gf(a.coeffs), a
        assert is_square(a) == euler(a), a  # from the log table when q <= LOG_TABLE_BOUND


def test_sieve_and_trial_division_match_sympy():
    """`_primes_upto(n)` against `primerange` for n = PRIME_BOUND and every
    n < 1,000, and `_prime_factors(n)`, primes ascending, against
    `factorint` for n < 20,000."""
    assert ff._primes_upto(ff.PRIME_BOUND) == list(primerange(ff.PRIME_BOUND + 1))
    for n in range(1_000):
        assert ff._primes_upto(n) == list(primerange(n + 1)), n
    for n in range(20_000):
        assert list(ff._prime_factors(n).items()) == sorted(factorint(n).items() if n >= 2 else []), n


# the point, P1, P2, P1xP1 and P2xP1: compressions of at most 10 x 10 keep sympy quick
SPACES = [cm.ProjSpaceProduct(d) for d in [(), (1,), (2,), (1, 1), (2, 1)]]


def test_hom_group_rank_matches_matrix_rank():
    """`hom_group`'s rank against `Matrix.rank` of the dense compression
    a -> q o a o p on the ambient monomials: the image is a lattice of that
    rank.  Every projector of X (identity, Kunneth, sums of two) with the
    projectors of Y and the twists -1..2 taken in turn."""
    turn, ranks = 0, set()
    for x, y in itertools.product(SPACES, repeat=2):
        targets = _projectors(y)
        for p in _projectors(x):
            m, n = cm.Motive(x, p, turn % 4 - 1), cm.Motive(y, targets[turn % len(targets)], 0)
            turn += 1
            basis = list(m.space.times(n.space).monomials(x.dimension - m.twist))
            rank = Matrix(compression_matrix_dense(m, n, basis)).rank() if basis else 0
            assert cm.hom_group(m, n)["rank"] == rank, (m, n)
            ranks.add(rank)
    assert ranks >= set(range(5))


@pytest.mark.parametrize("dims", [(), (1,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 1, 2)])
def test_pairing_determinants_match_matrix_det(dims):
    """Each degree's pairing matrix is h^a . h^b on the monomials, 1 where
    a + b = dims, and its determinant is `Matrix.det` of it; the pairing
    is nondegenerate where that is a unit."""
    space = cm.ProjSpaceProduct(dims)
    got = cm.pairing_nondegenerate(space)
    for i, degree in got["degrees"].items():
        rows, cols = list(space.monomials(i)), list(space.monomials(space.dimension - i))
        matrix = [[int(all(u + v == n for u, v, n in zip(a, b, space.dims))) for b in cols] for a in rows]
        assert degree["matrix"] == matrix, (space, i)
        det = Matrix(matrix).det()
        assert degree["determinant"] == det and degree["nondegenerate"] == (abs(det) == 1), (space, i)
    assert got["nondegenerate"]
