"""Exact arithmetic in F_q for odd prime powers q.

Fields are represented as Z/p[x] modulo a deterministically chosen
irreducible polynomial (the lexicographically least monic irreducible of
the requested degree, by Ben-Or's test), so every downstream coordinate is
reproducible.  Elements are coefficient tuples of length e.  A fixed
multiplicative generator (the least element of full order in
representative order) is cached on the field.  It is found by testing
candidates against the prime factors l of q - 1, never by walking their
powers: for l | p - 1 the test a^((q-1)/l) != 1 is N(a)^((p-1)/l) != 1 in
F_p, and only the other l take a power in F_q.  Discrete logs come from a cached table of all q - 1 powers
for q <= LOG_TABLE_BOUND = 2^12, and above it from Pohlig-Hellman with a
cached per-field plan and baby-step giant-step in each prime-order
subgroup: O(sqrt(l)) multiplications for the largest prime l | q - 1.  A
product of two elements runs `_poly_mul_mod`: for e >= 2 one integer product
of the operands packed in bit slots (Kronecker substitution), with the high
slots folded back through packed powers x^(e+j) mod the modulus, and for
e = 1 a residue product.  The table walk multiplies by w alone, q - 1
times, so it runs `_times`, that multiplication as an F_p-linear map on
packed integers, and keeps the powers it walked beside the table.  A
built table answers logs, inverses and squareness: a = w^k has inverse
w^(-k), read off the kept powers, and is a square iff k is even.  Nothing
but `discrete_log` builds it.  Without a table, inverses come from the
extended Euclidean algorithm on coefficient tuples, and squareness from
the norm N(a) = Res(modulus, a) in F_p, also by Euclid: a is a square iff
N(a)^((p-1)/2) = 1, since (q-1)/2 = ((q-1)/(p-1)) * ((p-1)/2) and
N(a) = a^((q-1)/(p-1)).  On a prime field both are a single builtin
`pow`, and so is `**`, which everywhere runs the one ladder `_tuple_pow`
on coefficient tuples.  Every list of primes comes from one bytearray
sieve of Eratosthenes, `_primes_upto`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import isqrt
from operator import mul

from ._value import Value
from .errors import BoundExceeded, EvenCharacteristic, FieldMismatch, NotPrime, TtspecError, ZeroInput

CARDINALITY_BOUND = 1 << 20
# first log in a fresh process once the generator is known, table build vs
# planned Pohlig-Hellman solve, best of 7 (2-CPU x86-64 VM, Python 3.11):
# 3.3 vs 0.34 ms at 2187, 3.5 vs 0.11 ms at 4093 (the largest q below the
# bound), 16 vs 0.5 ms at 6561.  Warm, mean of 2,000 seeded units: lookup
# 0.2-0.6 us; solve 2 us at 7, 8 us at 4093, 140 us at 2187, 210-390 us at
# 3^8, 13^4, 3^10 and 5^7.  Only `discrete_log` builds the table; once
# built, it answers logs, `inverse` and `is_square` (warm, 500 seeded units,
# Euclid or norm -> table: inverse 17.4 -> 1.6 us at 243 and 28 -> 1.7 us at
# 2187, is_square 11.5 -> 0.5 and 19 -> 0.5 us).
LOG_TABLE_BOUND = 1 << 12
# largest bound of a prime listing; the sieve is cheap, so this bounds output: a cold
# `spech --q 3 --prime-bound 500000 --json` prints 3.1 MB in 0.35-0.45 s (2-CPU x86-64 VM)
PRIME_BOUND = 500_000


def _prime_factors(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 2 by trial division, primes ascending;
    {} for n < 2."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = 1
    return factors


def _primes_upto(n: int) -> list[int]:
    """The primes <= n, ascending, by a sieve of Eratosthenes; [] for n < 2."""
    if n > PRIME_BOUND:
        raise BoundExceeded(f"prime bound {n} exceeds the bound {PRIME_BOUND}")
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)  # empty tail for n < 2
    for p in range(2, isqrt(max(n, 0)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


class PrimePower(Value):
    """Field descriptor for F_q with q = p^e, q odd.  `modulus` is monic,
    coefficients low-to-high, length e + 1; `_q` = p^e is computed once, and
    `_cache` is filled lazily (zero, one, the generator, the log table);
    both are left out of equality and hashing."""

    __slots__ = ("p", "e", "modulus", "_q", "_cache")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_q", p ** e)
        object.__setattr__(self, "_cache", {})

    def __hash__(self):  # direct: every FieldElement hash calls it
        return hash((self.p, self.e, self.modulus))

    @property
    def q(self) -> int:
        return self._q

    def element(self, value) -> "FieldElement":
        """Coerce a value into this field.

        Integers map through the ring homomorphism Z -> F_q (reduction
        mod p); sequences are coefficients low-to-high, reduced by the
        modulus when longer than e.  Use `from_index` for the base-p
        enumeration of all q elements.
        """
        if isinstance(value, FieldElement):
            # make_field caches fields, so identity settles almost every call
            if value.field is not self and value.field != self:
                raise FieldMismatch(f"element of F_{value.field.q} used in F_{self.q}")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.e - 1)
        else:
            coeffs = tuple(c % self.p for c in value)
            if len(coeffs) > self.e:
                coeffs = tuple(_poly_divmod(coeffs, self.modulus, self.p)[1])
            coeffs = coeffs + (0,) * (self.e - len(coeffs))
        return FieldElement(self, coeffs)

    def from_index(self, v: int) -> "FieldElement":
        """The v-th element in representative order (base-p encoding)."""
        if self.e == 1:  # the isotropy search's hot call: one residue
            return FieldElement(self, (v % self.p,))
        return FieldElement(self, _int_to_coeffs(v % self._q, self.p, self.e))

    def zero(self) -> "FieldElement":
        zero = self._cache.get("zero")
        if zero is None:
            zero = self._cache["zero"] = self.element(0)
        return zero

    def one(self) -> "FieldElement":
        one = self._cache.get("one")
        if one is None:
            one = self._cache["one"] = self.element(1)
        return one

    def __repr__(self):
        return f"F_{self.q}" if self.e == 1 else f"F_{self.q}(p={self.p},e={self.e})"


def _int_to_coeffs(v: int, p: int, e: int) -> tuple[int, ...]:
    coeffs = []
    for _ in range(e):
        coeffs.append(v % p)
        v //= p
    return tuple(coeffs)


def _coeffs_to_int(coeffs: tuple[int, ...], p: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


def _pack(coeffs, s: int) -> int:
    """The coefficients as one integer, coefficient i in bits [i*s, (i+1)*s)."""
    v = 0
    for c in reversed(coeffs):
        v = v << s | c
    return v


def _times_x_powers(c, modulus, p: int, count: int) -> list:
    """c, c*x, ..., c*x^(count-1) mod (modulus, p), as coefficient lists."""
    col, out = list(c), []
    for _ in range(count):
        out.append(col)
        top = col[-1]  # col * x, reduced by the monic modulus
        col = [(cj - top * mj) % p for cj, mj in zip([0] + col[:-1], modulus)]
    return out


@lru_cache(maxsize=None)
def _mul_plan(modulus, p: int):
    """The packed product's constants for (modulus, p): the slot width
    s = bit_length(2e(p-1)^2), its mask, the width e*s of the low slots and
    their mask, and x^(e+j) mod (modulus, p) for j < e - 1, packed."""
    e = len(modulus) - 1
    s = (2 * e * (p - 1) ** 2).bit_length()
    x_e = [-m % p for m in modulus[:-1]]
    folds = [_pack(col, s) for col in _times_x_powers(x_e, modulus, p, e - 1)]
    return s, (1 << s) - 1, e * s, (1 << e * s) - 1, folds, range(e)


def _poly_mul_mod(a, b, modulus, p):
    """Multiply coefficient tuples of length e mod (modulus, p).

    For e >= 2 this is one integer product (Kronecker substitution): both
    operands are packed in slots of s bits and multiplied, so slot k holds
    sum_(i+j=k) a_i b_j <= e(p-1)^2.  Each of the e - 1 high slots is
    reduced mod p and added back times the packed x^(e+j) mod modulus,
    which puts at most (e-1)(p-1)^2 more in a low slot; no slot reaches
    2e(p-1)^2, so none carries into the next, and each low slot is reduced
    mod p once."""
    if len(modulus) == 2:  # prime field: residues mod p
        return (a[0] * b[0] % p,)
    s, mask, low, low_mask, folds, slots = _mul_plan(modulus, p)
    v = _pack(a, s) * _pack(b, s)
    high, v = v >> low, v & low_mask
    for fold in folds:
        v += (high & mask) % p * fold
        high >>= s
    out = []
    for _ in slots:
        out.append((v & mask) % p)
        v >>= s
    return tuple(out)


def _times(c, modulus, p: int):
    """x -> c*x mod (modulus, p) on coefficient tuples, for a fixed c: the
    F_p-linear map whose column i is c*x^i, each column packed into one
    integer in slots of s = bit_length(e(p-1)^2) bits.  A slot of
    sum(x_i * column_i) is at most e(p-1)^2, so none carries into the next,
    and each is reduced mod p once."""
    e = len(modulus) - 1
    s = (e * (p - 1) ** 2).bit_length()
    mask = (1 << s) - 1
    columns = [_pack(col, s) for col in _times_x_powers(c, modulus, p, e)]
    slots = range(e)

    def times(y):
        v, out = sum(map(mul, y, columns)), []
        for _ in slots:
            out.append((v & mask) % p)
            v >>= s
        return tuple(out)

    return times


def _trim(coeffs):
    """The coefficient sequence without leading (high) zeros."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


def _poly_divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    """Quotient and trimmed remainder of a by b over F_p, for coefficient
    sequences low-to-high with b trimmed and nonzero."""
    rem, db = list(a), len(b) - 1
    if len(rem) <= db:
        return [], rem
    inv_lead, quot = pow(b[-1], -1, p), [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv_lead % p
        if c:
            quot[i - db] = c
            for j in range(db):
                rem[i - db + j] = (rem[i - db + j] - c * b[j]) % p
    del rem[db:]
    return quot, _trim(rem)


def _poly_inverse(coeffs, modulus, p: int) -> tuple[int, ...]:
    """The inverse of a nonzero residue mod (modulus, p) by the extended
    Euclidean algorithm: s * a = r mod modulus along the remainder sequence
    r, which ends in a nonzero constant since the modulus is irreducible."""
    r0, r1 = modulus, _trim(coeffs)
    s0, s1 = [], [1]
    while len(r1) > 1:
        quot, rem = _poly_divmod(r0, r1, p)
        s = s0 + [0] * (len(quot) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(quot):
            if qi:
                for j, sj in enumerate(s1):
                    s[i + j] = (s[i + j] - qi * sj) % p
        r0, r1, s0, s1 = r1, rem, s1, s
    scale = pow(r1[0], -1, p)
    for i, c in enumerate(s1):
        s1[i] = c * scale % p
    return tuple(s1 + [0] * (len(modulus) - 1 - len(s1)))


def _norm(coeffs, modulus, p: int) -> int:
    """N(a) = Res(modulus, a) in F_p, by the Euclidean remainder sequence:
    Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r) with
    r = f mod g, and Res(f, c) = c^(deg f) for a constant c.  It is 0 when
    a and the modulus share a factor, which an irreducible modulus does only
    with a = 0."""
    f, g = modulus, _trim(coeffs)
    res = 1
    while len(g) > 1:
        r = _poly_divmod(f, g, p)[1]
        m, n = len(f) - 1, len(g) - 1
        res = res * pow(g[-1], m - len(r) + 1, p) % p
        if m & n & 1:
            res = -res
        f, g = g, r
    if not g:
        return 0
    return res * pow(g[0], len(f) - 1, p) % p


def _poly_is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test for a monic poly f of degree e: f is irreducible iff
    gcd(x^(p^i) - x, f) = 1, that is Res(f, x^(p^i) - x) != 0, for every
    i <= e/2.  Each x^(p^i) mod f is the p-th power of the one before.  A
    zero constant term, the factor x of x^p - x, rejects f before any power."""
    e = len(poly) - 1
    if not poly[0]:
        return e == 1
    x_power = (0, 1) + (0,) * (e - 2)
    for _ in range(e // 2):
        x_power = _tuple_pow(x_power, p, poly, p)
        if not _norm((x_power[0], (x_power[1] - 1) % p) + x_power[2:], poly, p):
            return False
    return True


class FieldElement(Value):
    """An element of `field` as its coefficient tuple, low-to-high.

    The constructor does not reduce: `coeffs` must have length e and
    entries in 0..p-1, the form that `*`, `+`, `/`, `inverse` and
    `is_square` compute on (the packed product's slots overflow on larger
    entries).  `field.element` is the entry point that coerces an int or
    any sequence into that form.  The table-less paths of `inverse`,
    `is_square` and `discrete_log`, and any table miss, still reduce a
    tuple out of that form through it, so a zero written as (p,) raises
    `ZeroInput`."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimePower, coeffs: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    # the hottest class: direct methods rather than the generic ones of Value
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.field, self.coeffs) == (other.field, other.coeffs)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def value(self) -> int:
        """Canonical integer representative (base-p encoding of coefficients)."""
        return _coeffs_to_int(self.coeffs, self.field.p)

    def __add__(self, other):
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            other = field.element(other)
        p = field.p
        return FieldElement(field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            other = field.element(other)
        return FieldElement(field, _poly_mul_mod(self.coeffs, other.coeffs, field.modulus, field.p))

    def inverse(self) -> "FieldElement":
        """omega^-k for self = omega^k when the field holds its log table,
        else extended Euclid.  Never builds the table."""
        field = self.field
        logs = field._cache.get("logs")
        k = None if logs is None else logs.get(self.coeffs)
        if k is None:  # no table, zero, or coefficients out of canonical form
            coeffs = field.element(self.coeffs).coeffs
            if not any(coeffs):
                raise ZeroInput("zero has no inverse")
            if logs is None:
                return FieldElement(field, _poly_inverse(coeffs, field.modulus, field.p))
            k = logs[coeffs]
        return FieldElement(field, field._cache["powers"][-k])

    def __truediv__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self.field.element(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        base = self.inverse() if n < 0 else self
        field = self.field
        return FieldElement(field, _tuple_pow(base.coeffs, abs(n), field.modulus, field.p))

    def __repr__(self):
        return f"{self.value}@F_{self.field.q}"


@lru_cache(maxsize=None)
def make_field(p: int, e: int = 1) -> PrimePower:
    """Return the field descriptor for F_{p^e} with a deterministic modulus."""
    if p == 2:
        raise EvenCharacteristic("characteristic 2 is not supported")
    if _prime_factors(p) != {p: 1}:
        raise NotPrime(f"{p} is not prime")
    if e < 1:
        raise ValueError("exponent must be >= 1")
    if p ** e > CARDINALITY_BOUND:
        raise BoundExceeded(f"{p}^{e} exceeds the bound {CARDINALITY_BOUND}")
    if e == 1:
        modulus = (0, 1)  # the polynomial x; elements are residues mod p
    else:
        modulus = None
        for v in range(p ** e):
            cand = _int_to_coeffs(v, p, e) + (1,)
            if _poly_is_irreducible(cand, p):
                modulus = cand
                break
        assert modulus is not None
    return PrimePower(p, e, modulus)


def _prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, checked as `make_field` checks it (p odd, q within
    CARDINALITY_BOUND) but without building the field."""
    if q > CARDINALITY_BOUND:  # before the trial division, which takes sqrt(q) steps
        raise BoundExceeded(f"q = {q} exceeds the field bound {CARDINALITY_BOUND}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise TtspecError(f"{q} is not a prime power")
    ((p, e),) = factors.items()
    if p == 2:
        raise EvenCharacteristic("characteristic 2 is not supported")
    return p, e


def _field_for(q: int) -> PrimePower:
    """F_q, built once `_prime_power` has checked q."""
    return make_field(*_prime_power(q))


def primitive_element(field: PrimePower) -> FieldElement:
    """Least element (in representative order) of multiplicative order q - 1:
    the first a with a^((q-1)/l) != 1 for every prime l dividing q - 1.
    For l | p - 1 that power is N(a)^((p-1)/l) in F_p, since
    a^((q-1)/(p-1)) = N(a); only the other l take a power in F_q."""
    cached = field._cache.get("primitive")
    if cached is not None:
        return cached
    p, n, modulus, one = field.p, field.q - 1, field.modulus, field.one()
    by_norm = [(p - 1) // ell for ell in _prime_factors(p - 1)]
    by_power = [n // ell for ell in _prime_factors(n) if (p - 1) % ell]
    for v in range(2, field.q):
        a = field.from_index(v)
        norm = _norm(a.coeffs, modulus, p)
        if all(pow(norm, c, p) != 1 for c in by_norm) and all(a ** c != one for c in by_power):
            field._cache["primitive"] = a
            return a
    raise AssertionError("no generator found; field construction is broken")


def _log_table(field: PrimePower) -> dict[tuple[int, ...], int]:
    """coeffs of omega^k -> k for k in 0..q-2, built on bare coefficient
    tuples (no FieldElement per step).  Its keys in walk order, the powers
    omega^k, are cached beside it as "powers", for `inverse`."""
    table = field._cache.get("logs")
    if table is None:
        times_omega = _times(primitive_element(field).coeffs, field.modulus, field.p)
        table = {}
        x = field.one().coeffs
        for k in range(field.q - 1):
            table[x] = k
            x = times_omega(x)
        field._cache["powers"] = list(table)
        field._cache["logs"] = table
    return table


def _tuple_pow(x: tuple[int, ...], k: int, modulus, p: int) -> tuple[int, ...]:
    """x^k for k >= 0 on bare coefficient tuples, by left-to-right binary
    powering from x itself."""
    if len(modulus) == 2:  # prime field
        return (pow(x[0], k, p),)
    if not k:
        return (1,) + (0,) * (len(modulus) - 2)
    result = x
    for bit in bin(k)[3:]:
        result = _poly_mul_mod(result, result, modulus, p)
        if bit == "1":
            result = _poly_mul_mod(result, x, modulus, p)
    return result


def _pohlig_hellman_plan(field: PrimePower) -> list[tuple]:
    """Per prime power l^e exactly dividing n = q - 1, cached on the field:
    l, e, the cofactor n / l^e, the CRT weight, g^-(l^i) for i < e with
    g = omega^cofactor, and baby-step giant-step data for gamma =
    g^(l^(e-1)) of order l: m = ceil(sqrt(l)), {gamma^j: j < m}, gamma^-m."""
    plan = field._cache.get("pohlig_hellman")
    if plan is None:
        n, modulus, p = field.q - 1, field.modulus, field.p
        omega, plan = primitive_element(field).coeffs, []
        for ell, e in _prime_factors(n).items():
            cofactor = n // ell ** e
            g = _tuple_pow(omega, cofactor, modulus, p)
            gamma, m = _tuple_pow(g, ell ** (e - 1), modulus, p), isqrt(ell - 1) + 1
            baby, x = {}, field.one().coeffs
            for j in range(m):
                baby[x] = j
                x = _poly_mul_mod(x, gamma, modulus, p)
            weight = cofactor * pow(cofactor, -1, ell ** e)
            g_inv = [_tuple_pow(g, ell ** e - ell ** i, modulus, p) for i in range(e)]
            plan.append((ell, e, cofactor, weight, g_inv, m, baby, _tuple_pow(gamma, ell - m, modulus, p)))
        field._cache["pohlig_hellman"] = plan
    return plan


def _pohlig_hellman(a: FieldElement) -> int:
    """Least k in [0, q-2] with omega^k = a (Pohlig-Hellman, 1978).

    For each prime power l^e exactly dividing n = q - 1, the residue x of
    k mod l^e is found digit by digit in base l: digit i is the log of
    (a^cofactor * g^-x)^(l^(e-1-i)) in the subgroup of order l, by
    baby-step giant-step, and g^-x is updated one digit at a time.  The
    residues are joined by the CRT."""
    field, modulus, p = a.field, a.field.modulus, a.field.p
    k = 0
    for ell, e, cofactor, weight, g_inv, m, baby, giant in _pohlig_hellman_plan(field):
        target = _tuple_pow(a.coeffs, cofactor, modulus, p)  # = g^(k mod l^e)
        for i in range(e):
            y = _tuple_pow(target, ell ** (e - 1 - i), modulus, p)
            for giant_steps in range(m):
                j = baby.get(y)
                if j is not None:
                    break
                y = _poly_mul_mod(y, giant, modulus, p)
            digit = giant_steps * m + j
            if digit and i < e - 1:
                target = _poly_mul_mod(target, _tuple_pow(g_inv[i], digit, modulus, p), modulus, p)
            k += digit * ell ** i * weight
    return k % (field.q - 1)


def discrete_log(a: FieldElement) -> int:
    """Least k >= 0 with omega^k = a, for the fixed generator omega: a table
    lookup for q <= LOG_TABLE_BOUND, Pohlig-Hellman above it."""
    field = a.field
    logs = field._cache.get("logs")
    k = None if logs is None else logs.get(a.coeffs)
    if k is None:  # no table yet, zero, or coefficients out of canonical form
        a = field.element(a.coeffs)
        if not any(a.coeffs):
            raise ZeroInput("discrete log of zero undefined")
        if field._q > LOG_TABLE_BOUND:
            return _pohlig_hellman(a)
        k = _log_table(field)[a.coeffs]
    return k


def is_square(a: FieldElement) -> bool:
    """Whether a is a square: k is even for a = omega^k when the field holds
    its log table, else the Euler criterion on the norm, N(a)^((p-1)/2) == 1
    in F_p.  Never builds the table."""
    field = a.field
    logs = field._cache.get("logs")
    k = None if logs is None else logs.get(a.coeffs)
    if k is None:  # no table, zero, or coefficients out of canonical form
        coeffs = field.element(a.coeffs).coeffs
        if not any(coeffs):
            raise ZeroInput("squareness of zero undefined")
        if logs is None:
            p = field.p
            return pow(_norm(coeffs, field.modulus, p), (p - 1) // 2, p) == 1
        k = logs[coeffs]
    return not k & 1


def square_class(a: FieldElement) -> int:
    """0 for squares, 1 for non-squares."""
    return 0 if is_square(a) else 1
