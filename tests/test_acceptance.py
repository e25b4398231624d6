"""End-to-end acceptance suite.

Each test covers one acceptance criterion and emits a single
"ACCEPTANCE <k> (<label>): PASS|FAIL" line.  Run with

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import functools
import itertools
import json
import time

from ttspec import cli
from ttspec import chow_motives as cm
from ttspec import graded_spectrum as gs
from ttspec import milnor_witt as mw
from ttspec import quadratic_forms as qf
from ttspec import tt_geometry as tg
from ttspec import verify
from ttspec.finite_field import make_field

from helpers import field_units


def criterion(number, label, budget=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
                elapsed = time.monotonic() - start
                if budget is not None:
                    assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.1f}s"
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")

        return run

    return wrap


def _field(q):
    return make_field(3, 2) if q == 9 else make_field(q)


# --------------------------------------------------------------------------


@criterion(1, "kmw tables", budget=5.0)
def test_acceptance_1_kmw_tables():
    for q in (3, 5, 7, 9, 11, 13):
        field = _field(q)
        for n in range(2, 7):
            assert mw.kmw_group(field, n).invariant_factors == ()
        assert mw.kmw_group(field, 1).invariant_factors == (q - 1,)
        assert mw.kmw_group(field, 0).invariant_factors == (0, 2)
        want = (4,) if q % 4 == 3 else (2, 2)
        for n in range(-6, 0):
            assert mw.kmw_group(field, n).invariant_factors == want


def _value_fingerprint(form):
    """Isometry invariant: how often each scalar is represented."""
    field = form.field
    counts = {}
    dim = form.rank
    for idx in itertools.product(range(field.q), repeat=dim):
        vec = [field.from_index(i) for i in idx]
        val = form.evaluate(vec)
        counts[val] = counts.get(val, 0) + 1
    return tuple(sorted((k.coeffs, v) for k, v in counts.items()))


def _split_zero_count(q, rank):
    # zero count of a split (hyperbolic) form of even rank 2m on F_q^2m
    m = rank // 2
    return q ** (rank - 1) + q ** m - q ** (m - 1)


@criterion(2, "witt dichotomy", budget=30.0)
def test_acceptance_2_witt_dichotomy():
    for q in (3, 5, 7, 9, 11, 13):
        field = _field(q)
        if q <= 9:
            entry_pool = list(field_units(field))
        else:
            # forms are invariant under scaling entries by squares
            # (checked exhaustively in test_quadratic_forms), so two
            # square-class representatives suffice for the larger fields
            entry_pool = [field.one(), qf.primitive_element(field)]
        for rank in (1, 2, 3):
            forms = [
                qf.DiagonalForm(field, entries)
                for entries in itertools.product(entry_pool, repeat=rank)
            ]
            prints = {}
            for form in forms:
                fp = _value_fingerprint(form)
                cls = qf.witt_class(form)
                prints.setdefault(fp, set()).add(qf._witt_key(cls))
                # brute-force isotropy agrees with the library predicate
                zero_hits = any(
                    form.evaluate([field.from_index(i) for i in idx]).is_zero()
                    for idx in itertools.product(range(field.q), repeat=rank)
                    if any(idx)
                )
                assert qf.is_isotropic(form) == zero_hits
            # equal fingerprints <=> equal Witt class at fixed rank
            assert all(len(keys) == 1 for keys in prints.values())
            seen = [next(iter(keys)) for keys in prints.values()]
            assert len(seen) == len(set(seen))
        # additive order of <1> by independent zero counting
        brute_order = None
        for n in (2, 4):
            ones = qf.diagonal(field, [1] * n)
            zeros = sum(
                1
                for idx in itertools.product(range(field.q), repeat=n)
                if ones.evaluate([field.from_index(i) for i in idx]).is_zero()
            )
            if zeros == _split_zero_count(q, n):
                brute_order = n
                break
        structure = qf.witt_ring_structure(field)
        assert structure["order_of_unit_form"] == brute_order
        assert brute_order == (4 if q % 4 == 3 else 2)
        assert structure["type"] == ("Z/4" if q % 4 == 3 else "Z/2[e]/e^2")


@criterion(3, "ses exactness", budget=10.0)
def test_acceptance_3_ses():
    for q in (3, 5, 7, 9):
        field = _field(q)
        for n in range(-4, 5):
            report = verify.verify_ses(field, n)
            assert report["ok"], (q, n, report)


@criterion(4, "witt model oracle")
def test_acceptance_4_witt_oracle():
    for q in (3, 5, 7, 9):
        field = _field(q)
        witt = qf.witt_elements(field)
        # degree 0: ring isomorphism with GW coordinates
        classes = [mw.KmwElement(field, 0, (m, s)) for m in range(-2, 3) for s in range(2)]
        for x, y in itertools.product(classes, repeat=2):
            assert mw.kmw_to_gw(mw.kmw_add(x, y)) == mw.kmw_to_gw(x) + mw.kmw_to_gw(y)
            assert mw.kmw_to_gw(mw.kmw_mul(x, y)) == mw.kmw_to_gw(x) * mw.kmw_to_gw(y)
            assert mw.gw_to_kmw(mw.kmw_to_gw(x)) == x
        # negative degrees: additive bijection with W, multiplicative across degrees
        for n in (-1, -2, -3, -4):
            images = {w: mw.from_fundamental_ideal(field, n, w) for w in witt}
            assert len({img.coords for img in images.values()}) == 4
            for w1, w2 in itertools.product(witt, repeat=2):
                total = qf.witt_class(
                    w1.anisotropic_kernel.concat(w2.anisotropic_kernel)
                )
                assert images[total] == mw.kmw_add(images[w1], images[w2])
        for a, b in ((-1, -1), (-1, -2), (-2, -2)):
            for w1, w2 in itertools.product(witt, repeat=2):
                lhs = mw.kmw_mul(
                    mw.from_fundamental_ideal(field, a, w1),
                    mw.from_fundamental_ideal(field, b, w2),
                )
                assert lhs == mw.from_fundamental_ideal(field, a + b, qf.witt_mul(w1, w2))


@criterion(5, "graded spectrum", budget=30.0)
def test_acceptance_5_graded_spectrum():
    space = gs.enumerate_primes(50)
    got = {p.sorted_generators() for p in space.points}
    want = {("[w]", "eta"), ("[w]", "2"), ("[w]", "eta", "2")}
    for p in range(3, 51, 2):
        if all(p % d for d in range(2, p)):
            want.add(("[w]", "eta", str(p)))
    assert got == want
    for cert in map(verify.is_prime_ideal, space.points):
        assert cert["prime"] and cert["proper"]
        assert cert["degree_bound"] == 12
    flagged = [p for p in space.points if p.discrepancy]
    assert len(flagged) == 1
    assert flagged[0].sorted_generators() == ("[w]", "eta", "2")


@criterion(6, "eta localization")
def test_acceptance_6_eta():
    for q in (3, 5, 7, 9):
        field = _field(q)
        for n in range(2, 65):
            power = mw.eta(field, n)
            assert power == mw.kmw_mul(mw.eta(field, 1), mw.eta(field, n - 1))
            assert not power.is_zero()
        report = mw.localize_eta(field)
        assert report["four_is_zero"]
        assert report["two_is_zero"] == (q % 4 == 1)


def _dims_up_to(total):
    out = []

    def rec(prefix, remaining, cap):
        for d in range(1, min(remaining, cap) + 1):
            dims = prefix + (d,)
            out.append(dims)
            rec(dims, remaining - d, d)

    rec((), total, total)
    return out


@criterion(7, "motive calculus", budget=60.0)
def test_acceptance_7_motives():
    for n in range(1, 5):
        space = cm.ProjSpaceProduct((n,))
        parts = cm.motive_decompose(space)
        assert [w for _, w in parts] == list(range(n + 1))
        for (m1, _), (m2, _) in itertools.combinations(parts, 2):
            assert not cm.compose(m1.projector, m2.projector).cls.terms
    for i, j, k in itertools.product(range(-3, 4), repeat=3):
        report = verify.rigidity_check(
            cm.lefschetz_motive(i), cm.lefschetz_motive(j), cm.lefschetz_motive(k)
        )
        assert report["bijective"], (i, j, k)
    spaces = [cm.POINT] + [cm.ProjSpaceProduct(d) for d in _dims_up_to(4)]
    for space in spaces:
        assert cm.pairing_nondegenerate(space)["nondegenerate"], space


@criterion(8, "unique tate prime", budget=60.0)
def test_acceptance_8_tate_prime():
    universe = tg.TateUniverse(4, 2)
    found = tg.enumerate_primes(universe)
    assert len(found["primes"]) == 1
    assert found["primes"][0].lines == frozenset()
    assert found["diagnostic"] is None
    assert tg.graded_endomorphism_ring(universe)["unit"] == "Q"


@criterion(9, "spectral spaces")
def test_acceptance_9_spaces():
    space = tg.spc_shtop(3, 3)
    assert len(space.points) == 9
    assert space.closure({"P_0,1"}) == set(space.points)
    assert space.closure({"P_2,2"}) == {"P_2,2", "P_2,3", "P_2,inf"}
    assert space.generization({"P_3,1"}) == {"P_0,1", "P_3,1"}
    assert space.generization({"P_3,inf"}) == {"P_0,1", "P_3,1", "P_3,2", "P_3,3", "P_3,inf"}
    for small in (tg.spc_shtop(2, 1), tg.spc_shtop(3, 2), tg.spc_shtop(2, 3)):
        subsets = small.thomason_subsets()
        pts = list(small.points)
        brute = 0
        for r in range(len(pts) + 1):
            for combo in itertools.combinations(pts, r):
                chosen = set(combo)
                if all(
                    b in chosen
                    for a in chosen
                    for x, b in small.specializes
                    if x == a
                ):
                    brute += 1
        assert len(subsets) == brute
    report = verify.verify_comparison(tg.TateUniverse(3, 2))
    assert report["ok"]


@criterion(10, "cli determinism")
def test_acceptance_10_cli_determinism(capsys):
    commands = [
        ("kmw", "table", "--q", "13", "--range=-6..6"),
        ("kmw", "table", "--q", "9", "--range=-6..6", "--json"),
        ("kmw", "reduce", "--q", "7", "--word", "eta[3] + h - 2", "--json"),
        ("witt", "classify", "--q", "11", "--form", "1,2,3", "--json"),
        ("gw", "--q", "3", "--json"),
        ("milnor", "--q", "5", "--n", "1", "--json"),
        ("spech", "--q", "3", "--prime-bound", "50", "--json"),
        ("motive", "decompose", "--space", "P2xP2", "--json"),
        ("motive", "pairing", "--space", "P1xP1", "--json"),
        ("spc", "tate", "--q", "3", "--json"),
        ("spc", "sh-top", "--primes", "3", "--height", "3", "--dot"),
        ("verify", "--suite", "tables", "--json"),
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli.main(list(argv))
            out = capsys.readouterr().out
            assert code == 0, argv
            runs.append(out)
            if "--json" in argv:
                json.loads(out)
        assert runs[0] == runs[1], argv
