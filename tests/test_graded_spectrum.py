import pytest

from ttspec.errors import UnknownGenerator
from ttspec.finite_field import make_field
from ttspec import graded_spectrum as gs


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
def test_nilradical_reduction(field):
    pres = gs.nilradical_reduction(field)
    assert pres.t_degree == -1
    assert pres.torsion == 2
    assert len(pres.nilpotent_witnesses) == 2
    assert pres.element(-3, 1).coeff == 1


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
    cert = gs.is_prime_ideal(zero_like)
    assert not cert["prime"]
    assert cert["counterexample"] is not None


def test_improper_ideal_rejected():
    everything = gs.HomogeneousPrime(frozenset({"[w]", "2", "3"}))
    cert = gs.is_prime_ideal(everything)
    assert not cert["proper"] and not cert["prime"]


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        gs.is_prime_ideal(gs.HomogeneousPrime(frozenset({"[w]", "x"})))
    with pytest.raises(UnknownGenerator):
        gs.is_prime_ideal(gs.HomogeneousPrime(frozenset({"[w]", "1"})))


@pytest.mark.parametrize("field", [F3, F5])
def test_enumerate_primes_list(field):
    space = gs.enumerate_primes(field, 50)
    got = {p.sorted_generators() for p in space.points}
    want = {("[w]", "eta"), ("[w]", "2"), ("[w]", "eta", "2")}
    for p in range(3, 51, 2):
        if all(p % d for d in range(2, p)):
            want.add(("[w]", "eta", str(p)))
    assert got == want
    flagged = [p for p in space.points if p.discrepancy]
    assert len(flagged) == 1
    assert flagged[0].sorted_generators() == ("[w]", "eta", "2")
    for cert in space.certificates:
        assert cert["prime"] and cert["proper"]


def test_specialization_order():
    space = gs.enumerate_primes(F3, 7)
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


def test_open_closed_sets():
    space = gs.enumerate_primes(F3, 7)
    eta = gs.ReducedElement(-1, 1)
    two = gs.ReducedElement(0, 2)
    d_eta = {p.sorted_generators() for p in space.d_open(eta)}
    assert d_eta == {("[w]", "2")}
    v_two = {p.sorted_generators() for p in space.v_closed(
        gs.HomogeneousPrime(frozenset({"[w]", "2"}))
    )}
    assert v_two == {("[w]", "2"), ("[w]", "eta", "2")}
    assert not space.d_open(gs.ReducedElement(0, 0))
    # closure of the generic point is everything except ([w],2)
    generic = next(p for p in space.points if p.sorted_generators() == ("[w]", "eta"))
    cl = {p.sorted_generators() for p in space.closure([generic])}
    assert ("[w]", "2") not in cl
    assert len(cl) == len(space.points) - 1


def test_certificate_is_bounded_and_reported():
    cert = gs.is_prime_ideal(gs.HomogeneousPrime(frozenset({"[w]", "eta"})), degree_bound=6, coeff_bound=5)
    assert cert["prime"]
    assert cert["degree_bound"] == 6
    assert cert["coeff_bound"] == 5
