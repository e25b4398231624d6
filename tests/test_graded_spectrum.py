import json
from functools import lru_cache
from types import SimpleNamespace

import pytest

from ttspec import cli
from ttspec.errors import BoundExceeded, InvalidArgument
from ttspec.finite_field import PRIME_BOUND, make_field
from ttspec import graded_spectrum as gs
from ttspec import milnor_witt as mw
from ttspec import verify


F3 = make_field(3)
F5 = make_field(5)


def test_reduced_element_normalization():
    assert gs.ReducedElement(-2, 3).coeff == 1
    assert gs.ReducedElement(-1, 4).is_zero()
    assert gs.ReducedElement(0, 3).coeff == 3
    with pytest.raises(ValueError):
        gs.ReducedElement(1, 1)
    # 2 eta = 0
    assert (gs.ReducedElement(0, 2) * gs.ReducedElement(-1, 1)).is_zero()


@pytest.mark.parametrize("field", [F3, F5])
def test_nilradical_reduction(field, capsys, monkeypatch):
    """`verify --suite spech` exits 2 when `kmw_mul` gets one of the three
    squares wrong in one field: a square of [w] or eta[w] that is not zero,
    or an eta^2 that is."""
    assert cli.main(["verify", "--suite", "spech"]) == 0
    true_mul = mw.kmw_mul
    cases = [
        (mw.omega_symbol(field), "[w]"),
        (mw.KmwElement(field, 0, (0, 1)), "eta[w]"),
        (mw.eta(field), "eta"),
    ]
    for factor, name in cases:

        def broken(x, y, _factor=factor):
            z = true_mul(x, y)
            if x != _factor:
                return z
            return mw.kmw_one(field) if z.is_zero() else mw.kmw_zero(field, z.degree)

        monkeypatch.setattr(mw, "kmw_mul", broken)
        capsys.readouterr()
        assert cli.main(["verify", "--suite", "spech", "--json"]) == 2
        failures = json.loads(capsys.readouterr().out)["result"]["suites"]["spech"]["failures"]
        assert failures == [{"q": field.q, "square": name}]


def test_membership_rules():
    p_eta = gs.HomogeneousPrime(frozenset({"[w]", "eta"}))
    p_two = gs.HomogeneousPrime(frozenset({"[w]", "2"}))
    p_three = gs.HomogeneousPrime(frozenset({"[w]", "eta", "3"}))
    eta = gs.ReducedElement(-1, 1)
    two = gs.ReducedElement(0, 2)
    three = gs.ReducedElement(0, 3)
    assert p_eta.contains(eta) and not p_eta.contains(two)
    assert p_two.contains(two) and not p_two.contains(eta)
    assert p_three.contains(three) and p_three.contains(eta)
    # odd integer generators absorb eta: 3 * eta = eta
    p_three_raw = gs.HomogeneousPrime(frozenset({"[w]", "3"}))
    assert p_three_raw.contains(eta)
    assert p_three.includes(p_three_raw) and p_three_raw.includes(p_three)


def test_zero_ideal_not_prime():
    # 2 * eta = 0 with neither factor in (0)
    zero_like = gs.HomogeneousPrime(frozenset({"[w]"}))
    cert = verify.is_prime_ideal(zero_like)
    assert not cert["prime"]
    assert cert["counterexample"] is not None


def test_improper_ideal_rejected():
    everything = gs.HomogeneousPrime(frozenset({"[w]", "2", "3"}))
    cert = verify.is_prime_ideal(everything)
    assert not cert["proper"] and not cert["prime"]


def test_unknown_generator():
    with pytest.raises(InvalidArgument):
        verify.is_prime_ideal(gs.HomogeneousPrime(frozenset({"[w]", "x"})))
    with pytest.raises(InvalidArgument):
        verify.is_prime_ideal(gs.HomogeneousPrime(frozenset({"[w]", "1"})))


@pytest.mark.parametrize("field", [F3, F5])
def test_enumerate_primes_list(field):
    space = gs.enumerate_primes(50)
    got = {p.sorted_generators() for p in space.points}
    want = {("[w]", "eta"), ("[w]", "2"), ("[w]", "eta", "2")}
    for p in range(3, 51, 2):
        if all(p % d for d in range(2, p)):
            want.add(("[w]", "eta", str(p)))
    assert got == want
    flagged = [p for p in space.points if p.discrepancy]
    assert len(flagged) == 1
    assert flagged[0].sorted_generators() == ("[w]", "eta", "2")
    for cert in map(verify.is_prime_ideal, space.points):
        assert cert["prime"] and cert["proper"]
    # the points are the same for every field; `spech` only validates q
    assert cli.cmd_spech(SimpleNamespace(q=field.q, prime_bound=50))["points"] == [
        {"generators": list(p.sorted_generators()), "discrepancy": p.discrepancy} for p in space.points
    ]


def test_specialization_order():
    space = gs.enumerate_primes(7)
    by_gens = {p.sorted_generators(): i for i, p in enumerate(space.points)}
    spec = set(space.specializations())
    generic = by_gens[("[w]", "eta")]
    closed_pt = by_gens[("[w]", "eta", "2")]
    two = by_gens[("[w]", "2")]
    three = by_gens[("[w]", "eta", "3")]
    assert (generic, closed_pt) in spec
    assert (generic, three) in spec
    assert (two, closed_pt) in spec
    assert (three, closed_pt) not in spec
    assert (closed_pt, generic) not in spec


def v_closed(space, ideal):
    """V(I) = points containing I."""
    return [p for p in space.points if p.includes(ideal)]


def d_open(space, s):
    """D(s) = points not containing the homogeneous element s."""
    return [p for p in space.points if not p.contains(s)]


def closure(space, subset):
    return [p for p in space.points if any(p.includes(q) for q in subset)]


def test_open_closed_sets():
    space = gs.enumerate_primes(7)
    eta = gs.ReducedElement(-1, 1)
    two = gs.ReducedElement(0, 2)
    d_eta = {p.sorted_generators() for p in d_open(space, eta)}
    assert d_eta == {("[w]", "2")}
    v_two = {p.sorted_generators() for p in v_closed(
        space, gs.HomogeneousPrime(frozenset({"[w]", "2"}))
    )}
    assert v_two == {("[w]", "2"), ("[w]", "eta", "2")}
    assert not d_open(space, gs.ReducedElement(0, 0))
    # closure of the generic point is everything except ([w],2)
    generic = next(p for p in space.points if p.sorted_generators() == ("[w]", "eta"))
    cl = {p.sorted_generators() for p in closure(space, [generic])}
    assert ("[w]", "2") not in cl
    assert len(cl) == len(space.points) - 1


def test_certificate_is_bounded_and_reported():
    cert = verify.is_prime_ideal(gs.HomogeneousPrime(frozenset({"[w]", "eta"})), degree_bound=6, coeff_bound=5)
    assert cert["prime"]
    assert cert["degree_bound"] == 6
    assert cert["coeff_bound"] == 5


# ---------------------------------------------------------------- oracle
# The search that `enumerate_primes` used before it listed the points from
# the classification: candidates from the generator alphabet, an odd
# integer generator absorbing eta, each candidate kept when its bounded
# certificate says prime; the order is the pairwise inclusion scan.


@lru_cache(maxsize=None)
def _certify(generators, degree_bound):
    # a certificate depends on the generators and the bound only, so the
    # oracle runs for many bounds and fields share them
    return verify.is_prime_ideal(gs.HomogeneousPrime(generators), degree_bound=degree_bound)


def enumerate_primes_by_search(prime_bound, degree_bound=12):
    """(points, certificates) of the candidates that certify as prime."""
    int_primes = [p for p in range(2, prime_bound + 1) if all(p % d for d in range(2, p))]
    seen = {}
    for use_eta in (False, True):
        for ip in [None] + int_primes:
            gens = {"[w]"}
            if use_eta:
                gens.add("eta")
            if ip is not None:
                gens.add(str(ip))
            if ip is not None and ip % 2 == 1:
                gens.add("eta")
            seen.setdefault(frozenset(gens), None)
    found = []
    for gens in seen:
        cert = _certify(gens, degree_bound)
        if cert["prime"]:
            flagged = gens == frozenset({"[w]", "eta", "2"})
            found.append((gs.HomogeneousPrime(gens, discrepancy=flagged), cert))
    found.sort(key=lambda pc: pc[0].sorted_generators())
    return tuple(p for p, _ in found), tuple(c for _, c in found)


def specializations_by_scan(points):
    return [
        (i, j)
        for i, a in enumerate(points)
        for j, b in enumerate(points)
        if i != j and b.includes(a)
    ]


def _assert_matches_oracle(prime_bound):
    space = gs.enumerate_primes(prime_bound)
    points, _ = enumerate_primes_by_search(prime_bound)
    assert space.points == points
    assert [p.discrepancy for p in space.points] == [p.discrepancy for p in points]
    assert space.specializations() == specializations_by_scan(points)
    return points


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_closed_form_matches_search(q):
    """The points are the same for every field: `spech --q q` lists the
    search's points at each bound."""
    for prime_bound in range(0, 61):
        points = _assert_matches_oracle(prime_bound)
        got = cli.cmd_spech(SimpleNamespace(q=q, prime_bound=prime_bound))["points"]
        assert [tuple(p["generators"]) for p in got] == [p.sorted_generators() for p in points]
    space = gs.enumerate_primes(60)
    assert tuple(map(verify.is_prime_ideal, space.points)) == enumerate_primes_by_search(60)[1]


def test_closed_form_matches_search_bound_500():
    _assert_matches_oracle(500)
    space = gs.enumerate_primes(500)
    assert len(space.points) == 97  # 94 odd primes, plus (eta), (2) and (eta, 2)
    assert tuple(map(verify.is_prime_ideal, space.points)) == enumerate_primes_by_search(500)[1]


def test_points_sort_as_strings():
    names = [p.sorted_generators() for p in gs.enumerate_primes(101).points]
    assert names[:5] == [("[w]", "2"), ("[w]", "eta"), ("[w]", "eta", "101"),
                         ("[w]", "eta", "11"), ("[w]", "eta", "13")]


def test_degree_zero_lists_no_false_point():
    # a degree-0 certificate cannot see eta, so the search let ([w]) in,
    # although 2 * eta = 0 with neither factor in ([w])
    omega = frozenset({"[w]"})
    assert omega in {p.generators for p in enumerate_primes_by_search(7, degree_bound=0)[0]}
    space = gs.enumerate_primes(7)
    assert omega not in {p.generators for p in space.points}
    assert not verify.is_prime_ideal(gs.HomogeneousPrime(omega))["prime"]


def test_prime_bound_limit():
    assert len(gs.enumerate_primes(0).points) == 1
    with pytest.raises(BoundExceeded, match=f"exceeds the bound {PRIME_BOUND}"):
        gs.enumerate_primes(PRIME_BOUND + 1)
