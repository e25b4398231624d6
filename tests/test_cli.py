import itertools
import json
import os
import random
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from ttspec import cli
from ttspec.errors import InvalidArgument, TtspecError
from ttspec import finite_field
from ttspec.finite_field import discrete_log, make_field, primitive_element
from ttspec import milnor_witt as mw
from ttspec import quadratic_forms

from helpers import eta_word, formal_reduce, h_word, symbol_word, word_product, word_scale, word_sum
from test_finite_field import _odd_prime_powers


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ----------------------------------------------------------------- parsing


def _parse(field, text):
    """The word `text` over `field` as `kmw reduce` evaluates it."""
    return mw.reduce_word(mw.SymbolWord(field, text))


def test_word_grammar():
    field = make_field(3)
    cases = {
        "eta": {(-1): (1,)},
        "eta^2": {(-2): (1,)},
        "[2]": {1: (1,)},
        "[w]": {1: (1,)},
        "[w^2]": {},  # w^2 = 1 and [1] = 0
        "2 + eta[-1]": {0: (2, 1)},
        "h": {0: (2, 1)},
        "eta h": {},
        "3eta": {(-1): (3,)},
        "[2][2]": {},
        "eta - eta": {},
        "2*eta^3": {(-3): (2,)},
    }
    for text, want in cases.items():
        got = {n: el.coords for n, el in _parse(field, text).items()}
        assert got == want, text


def _word_fields(full=False):
    """(p, e) of the fields the seeded words run over: q in {3, 5, 7, 9, 13,
    25, 27}, or in full every odd prime power q <= 243; and 4099, above the
    log table bound, so that its brackets take baby-step giant-step logs."""
    fields = _odd_prime_powers(243) if full else [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3)]
    return fields + [(4099, 1)]


def _random_word(rng, field):
    """A word of at most 3 terms of at most 4 factors, as text and as the
    formal word (term tuples) built from its factors, which `formal_reduce`
    maps into K^MW.  Eta powers are at most 9, so every partial degree lies
    in the window."""
    texts, words = [], []
    for t in range(rng.randint(1, 3)):
        sign = rng.choice("+-") if t else rng.choice(["", "-"])
        factors, formal = [], []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(4)
            if kind == 0:
                c = rng.randint(0, 12)
                factors.append(str(c))
                formal.append(((c, 0, ()),))
            elif kind == 1:
                k = rng.randint(0, 9)
                factors.append(rng.choice(["eta", "eta^1"]) if k == 1 else f"eta^{k}")
                formal.append(eta_word(k))
            elif kind == 2:
                factors.append("h")
                formal.append(h_word())
            else:
                if rng.random() < 0.5:
                    k = rng.randint(0, field.q)
                    entry, a = f"w^{k}", primitive_element(field) ** k
                else:
                    v = rng.randint(-2 * field.p, 2 * field.p)
                    entry, a = str(v), field.element(v)
                factors.append(f"[{entry}]")
                formal.append(symbol_word(a) if not a.is_zero() else None)  # [0] is refused
        texts.append(f"{sign} {rng.choice([' ', ' * ']).join(factors)}")
        if None in formal:
            words = None
        elif words is not None:
            words.append(word_scale(-1 if sign == "-" else 1, word_product(*formal)))
    return " ".join(texts), None if words is None else word_sum(*words)


def test_parse_word_matches_the_formal_word(full=False):
    """2,400 seeded words, or in full 18,600 over 62 fields: `reduce_word`
    parses each text and evaluates as it reads, and agrees with
    `formal_reduce` of the formal word; a word with a [0] is refused.  In
    full: cd tests && PYTHONPATH=../src python -c "import test_cli as t;
    t.test_parse_word_matches_the_formal_word(full=True)" """
    rng = random.Random("parse-word")
    for p, e in _word_fields(full):
        field = make_field(p, e)
        for _ in range(300):
            text, formal = _random_word(rng, field)
            if formal is None:
                with pytest.raises(InvalidArgument):
                    _parse(field, text)
            else:
                assert _parse(field, text) == formal_reduce(field, formal), (field.q, text)


def test_word_degree_window(capsys):
    """Every factor and every partial product of a term lies in
    [-DEGREE_BOUND, DEGREE_BOUND], even where the term vanishes or its
    degree lands back inside."""
    assert mw.DEGREE_BOUND == 64
    for text in ("eta^64", "[2] eta^64", "eta^32 eta^32"):
        assert run(capsys, "kmw", "reduce", "--q", "7", "--word", text)[0] == 0, text
    refused = [("[2] eta^65", -65), ("0 eta^100", -100), ("[2][3] eta^70", -70), ("eta^40 eta^25 [2]", -65)]
    for text, degree in refused:
        assert cli.main(["kmw", "reduce", "--q", "7", "--word", text]) == 1, text
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: degree {degree} outside supported window [-64, 64]"]


def test_word_grammar_errors():
    field = make_field(3)
    for bad in ("[0]", "eta +", "[w", "??", "[x]"):
        with pytest.raises(Exception):
            _parse(field, bad)
    with pytest.raises(TtspecError, match="^expression ended early$"):
        _parse(field, "eta^")


def test_parse_range():
    assert cli._parse_range("-3..2") == (-3, 2)
    with pytest.raises(Exception):
        cli._parse_range("2..-3")
    with pytest.raises(Exception):
        cli._parse_range("abc")


# ---------------------------------------------------------------- commands


def test_kmw_table(capsys):
    code, out = run(capsys, "kmw", "table", "--q", "3", "--range=-2..2", "--json")
    assert code == 0
    payload = json.loads(out)
    rows = {r["degree"]: r for r in payload["result"]["rows"]}
    assert rows[2]["group"] == "0"
    assert rows[1]["group"] == "Z/2"
    assert rows[0]["group"] == "Z (+) Z/2"
    assert rows[-1]["group"] == "Z/4"
    code5, out5 = run(capsys, "kmw", "table", "--q", "5", "--range=-1..-1", "--json")
    assert json.loads(out5)["result"]["rows"][0]["group"] == "Z/2 (+) Z/2"


def test_kmw_reduce(capsys):
    code, out = run(capsys, "kmw", "reduce", "--q", "3", "--word", "eta[2] + h", "--json")
    assert code == 0
    payload = json.loads(out)
    comps = payload["result"]["components"]
    assert comps == [
        {"degree": 0, "coords": [2, 0], "generators": ["1", "eta[w]"], "group": "Z (+) Z/2"}
    ]


def test_witt_classify(capsys):
    code, out = run(capsys, "witt", "classify", "--q", "5", "--form", "1,1", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["isotropic"] is True
    assert result["hyperbolic_planes"] == 1
    assert result["witt_class"] == []


def test_gw_and_milnor(capsys):
    code, out = run(capsys, "gw", "--q", "7", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["witt"]["type"] == "Z/4"
    code, out = run(capsys, "milnor", "--q", "5", "--n", "1", "--json")
    assert json.loads(out)["result"]["group"] == "Z/4"


def test_spech(capsys):
    code, out = run(capsys, "spech", "--q", "3", "--prime-bound", "7", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    flagged = [p for p in result["points"] if p["discrepancy"]]
    assert len(flagged) == 1


def test_motive_commands(capsys):
    code, out = run(capsys, "motive", "decompose", "--space", "P1xP1", "--json")
    assert code == 0
    assert json.loads(out)["result"]["twists"] == [0, 1, 1, 2]
    code, out = run(capsys, "motive", "hom", "--space", "P1", "--target-space", "P1", "--json")
    assert json.loads(out)["result"]["rank"] == 2
    code, out = run(capsys, "motive", "dual", "--space", "P2", "--twist", "1", "--json")
    assert json.loads(out)["result"]["dual_twist"] == 1
    code, out = run(capsys, "motive", "pairing", "--space", "P2", "--json")
    assert json.loads(out)["result"]["nondegenerate"] is True


def test_spc_commands(capsys):
    code, out = run(capsys, "spc", "tate", "--q", "3", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["primes"] == ["(0)"]
    assert result["end_of_unit"] == "Q"
    code, out = run(capsys, "spc", "sh-top", "--primes", "3", "--height", "2", "--json")
    assert len(json.loads(out)["result"]["points"]) == 7
    code, out = run(capsys, "spc", "sh-top", "--primes", "2", "--height", "1", "--dot")
    assert "digraph" in out
    code, out = run(capsys, "spc", "equivariant", "--n", "6", "--primes", "2", "--height", "1", "--json")
    assert json.loads(out)["result"]["point_count"] == 12


# ------------------------------------------------------------------ verify


def test_verify_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "ses", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["suites"]["ses"]["ok"] is True


def test_verify_unknown_suite(capsys):
    # the empty name too: it names no suite, so it must not run all eight
    for name in ("nope", ""):
        assert cli.main(["verify", "--suite", name]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: unknown suite {name!r}; choose from ")


def test_verify_spaces_fails_on_wrong_equivariant_copies(capsys, monkeypatch):
    from ttspec import tt_geometry

    right = tt_geometry.spc_equivariant
    monkeypatch.setattr(tt_geometry, "spc_equivariant", lambda n, primes, height: right(1, primes, height))
    code, out = run(capsys, "verify", "--suite", "spaces", "--json")
    assert code == 2
    failures = json.loads(out)["result"]["suites"]["spaces"]["failures"]
    assert failures == [{"fact": "equivariant copies", "n": n} for n in (6, 12)]


def test_verify_witt_fails_on_wrong_table(capsys, monkeypatch):
    from ttspec import quadratic_forms

    right = quadratic_forms.witt_ring_structure

    def wrong(field):
        structure = right(field)
        table = dict(structure["generator_table"])
        table["1*<1>"] = table["0*<1>"]
        return dict(structure, generator_table=table)

    monkeypatch.setattr(quadratic_forms, "witt_ring_structure", wrong)
    code, out = run(capsys, "verify", "--suite", "witt", "--json")
    assert code == 2
    failures = json.loads(out)["result"]["suites"]["witt"]["failures"]
    assert [f["q"] for f in failures] == [3, 5, 7, 9, 11, 13]


def test_verify_witt_fails_on_the_zero_counts_when_descent_and_closed_form_agree(capsys, monkeypatch):
    # at q = 3 the closed form says <1> has order 2; the zero counts see that
    # <1,1> is anisotropic there and <1> has order 4.  Their order bounds the
    # multiples that `kmw_add` and the descent are checked on, so the wrong
    # order is reported once, by the counts, and no multiple is compared
    right_structure = quadratic_forms.witt_ring_structure

    def structure(field):
        out = right_structure(field)
        if field.q == 3:
            table = dict(itertools.islice(out["generator_table"].items(), 2))
            out = dict(out, type="Z/2[e]/e^2", order_of_unit_form=2, generator_table=table)
        return out

    monkeypatch.setattr(quadratic_forms, "witt_ring_structure", structure)
    code, out = run(capsys, "verify", "--suite", "witt", "--json")
    assert code == 2
    failures = json.loads(out)["result"]["suites"]["witt"]["failures"]
    assert failures == [{"q": 3, "zero_counts": [1, 33], "got": 2, "want": 4}]


def test_verify_witt_fails_when_witt_mul_adds(capsys, monkeypatch):
    """A `kmw_mul` that adds coordinates, in the degree of the product."""
    right = mw.kmw_add
    monkeypatch.setattr(mw, "kmw_mul", lambda x, y: mw.KmwElement(x.field, x.degree + y.degree, right(x, y).coords))
    code, out = run(capsys, "verify", "--suite", "witt", "--json")
    assert code == 2
    failures = json.loads(out)["result"]["suites"]["witt"]["failures"]
    assert {f["q"] for f in failures} == {3, 5}
    assert all(set(f) == {"q", "product", "got", "want"} for f in failures)
    # <1> (x) <1> = <1>, so eta * eta = eta^2; but eta + eta = 2 eta^2 in K^MW_-2
    assert {"q": 3, "product": [[1, 0], [1, 0]], "got": [2], "want": [1]} in failures


def test_verify_eta_fails_on_a_product_that_vanishes_below_degree_minus_eight(capsys, monkeypatch):
    right = mw.kmw_mul

    def wrong(x, y):
        z = right(x, y)
        return mw.kmw_zero(z.field, z.degree) if z.degree < -8 else z

    monkeypatch.setattr(mw, "kmw_mul", wrong)
    code, out = run(capsys, "verify", "--suite", "eta", "--json")
    assert code == 2
    failures = json.loads(out)["result"]["suites"]["eta"]["failures"]
    assert [(f["q"], f["n"], f["order"]) for f in failures if "order" in f] == [
        (q, n, 1) for q in (3, 5, 7, 9) for n in (16, 64)
    ]
    # every multiple of a zero eta^n is zero, unlike <1> in the W(F_q) model
    assert [(f["q"], f["n"], f["multiple"]) for f in failures if "multiple" in f and f["multiple"] == 1] == [
        (q, n, 1) for q in (3, 5, 7, 9) for n in (16, 64)
    ]


def test_verify_ses_fails_when_the_class_of_i_maps_to_zero(capsys, monkeypatch):
    right = mw.from_fundamental_ideal

    def wrong(field, n, parity, disc):
        return mw.kmw_zero(field, 0) if n == 0 else right(field, n, parity, disc)

    monkeypatch.setattr(mw, "from_fundamental_ideal", wrong)
    code, out = run(capsys, "verify", "--suite", "ses", "--json")
    assert code == 2
    failures = json.loads(out)["result"]["suites"]["ses"]["failures"]
    assert [(f["field"], f["degree"], f["ok"]) for f in failures] == [(q, 0, False) for q in (3, 5, 7, 9)]


def test_verify_ses_fails_when_the_printed_order_of_i_squared_is_two(capsys, monkeypatch):
    """The |I^n| that `gw` prints are checked against the key sets of the W
    model: a closed form with |I^2| = 2 fails in degree 1, where I^2 enters."""
    right = quadratic_forms.fundamental_ideal_order
    monkeypatch.setattr(quadratic_forms, "fundamental_ideal_order", lambda n: 2 if n == 2 else right(n))
    code, out = run(capsys, "verify", "--suite", "ses", "--json")
    assert code == 2
    failures = json.loads(out)["result"]["suites"]["ses"]["failures"]
    assert [(f["field"], f["degree"], f["ideal_order"], f["model_ideal_order"]) for f in failures] == [
        (q, 1, 2, 1) for q in (3, 5, 7, 9)
    ]
    assert all(f["injective"] and f["additive"] and f["exact_middle"] and f["surjective"] for f in failures)


def _wrong_decomposition(fault):
    """`motive_decompose` with one fault on P1xP1, in its first summand."""
    from ttspec import chow_motives as cm

    right = cm.motive_decompose

    def wrong(space):
        parts = right(space)
        if space.dims != (1, 1):
            return parts
        (m, w), rest = parts[0], parts[1:]
        twice = {mono: 2 * c for mono, c in m.projector.cls.terms}
        doubled = cm.Correspondence(space, space, 0, cm.ChowClass.from_dict(m.projector.cls.space, twice))
        if fault == "weight":
            first = m, w + 1
        elif fault == "identity":  # idempotent, but the sum is not the diagonal
            first = cm.Motive(space, cm.identity_correspondence(space), 0), w
        elif fault == "doubled":  # a summand not built through Motive's check
            first = types.SimpleNamespace(projector=doubled), w
        else:
            first = cm.Motive(space, doubled, 0), w  # raises: coefficient 2
        return [first, *rest]

    return wrong


@pytest.mark.parametrize(
    "fault, want",
    [
        ("weight", [{"space": "P1xP1", "twists": [1, 1, 1, 2]}]),
        ("identity", [{"space": "P1xP1", "fact": "projectors sum to the diagonal"}]),
        ("doubled", [
            {"space": "P1xP1", "not_idempotent": "2*h1^1*h2^1 @P1xP1xP1xP1"},
            {"space": "P1xP1", "fact": "projectors sum to the diagonal"},
        ]),
        ("raises", [{"space": "P1xP1", "error": "projector is not a sum of distinct Kunneth projectors"}]),
    ],
)
def test_verify_motives_fails_on_a_wrong_decomposition(capsys, monkeypatch, fault, want):
    from ttspec import chow_motives

    monkeypatch.setattr(chow_motives, "motive_decompose", _wrong_decomposition(fault))
    code, out = run(capsys, "verify", "--suite", "motives", "--json")
    assert code == 2
    assert json.loads(out)["result"]["suites"]["motives"]["failures"] == want


def test_verify_motives_fails_on_a_hom_group_missing_a_class(capsys, monkeypatch):
    from ttspec import chow_motives

    right = chow_motives.hom_group

    def dropping(m, n):  # the last basis class goes missing from P2xP1
        hom = right(m, n)
        if m.space.dims != (2, 1):
            return hom
        return dict(hom, basis=hom["basis"][:-1], rank=hom["rank"] - 1)

    monkeypatch.setattr(chow_motives, "hom_group", dropping)
    code, out = run(capsys, "verify", "--suite", "motives", "--json")
    assert code == 2
    failures = json.loads(out)["result"]["suites"]["motives"]["failures"]
    cases = [["P2xP1", t, "P1xP1", u] for t in range(-1, 2) for u in range(-1, 2)]
    assert [f["hom"] for f in failures if "rank" in f] == cases
    assert {tuple(f["hom"]) for f in failures} == set(map(tuple, cases))
    # `compose` fixes the missing class: each other failure is one pair of
    # projectors that fixes it, and names it alone
    compressed = [f for f in failures if "rank" not in f]
    assert compressed and all(set(f) == {"hom", "projectors", "compression"} for f in compressed)
    assert all(len(f["compression"]) == 1 for f in compressed)


_HOM_SPACES = [
    "pt", "P1", "P2", "P3", "P0xP1", "P1xP1", "P2xP1",
    "P1xP2", "P3xP1", "P2xP2", "P1xP1xP1", "P2xP1xP1", "P1xP0xP2", "P3xP2xP1",
]
# every 13th of the 14 x 14 x 6 x 6 cases, so that each twist pair occurs
_HOM_CASES = list(itertools.product(_HOM_SPACES, _HOM_SPACES, range(-2, 4), range(-2, 4)))[::13]


def test_motive_hom_matches_hom_group_of_identity_motives(capsys):
    """`motive hom` prints the monomials of the ambient codimension; the
    library's `hom_group` must find the same basis."""
    from ttspec import chow_motives as cm

    for source, target, twist, target_twist in _HOM_CASES:
        x, y = cm.parse_space(source), cm.parse_space(target)
        hom = cm.hom_group(
            cm.Motive(x, cm.identity_correspondence(x), twist),
            cm.Motive(y, cm.identity_correspondence(y), target_twist),
        )
        code, out = run(
            capsys, "motive", "hom", "--space", source, "--target-space", target,
            f"--twist={twist}", f"--target-twist={target_twist}", "--json",
        )
        assert code == 0
        assert json.loads(out)["result"] == {
            "source": source if x.dims else "pt",
            "target": target if y.dims else "pt",
            "rank": hom["rank"],
            "ambient_codim": hom["ambient_codim"],
            "basis": [repr(b) for b in hom["basis"]],
        }, (source, target, twist, target_twist)


@pytest.mark.parametrize("text", ["pt", "P0", "P1", "P2", "P1xP1", "P2xP1", "P1xP1xP1", "P3xP2"])
def test_motive_decompose_twists_match_the_projectors(capsys, text):
    """The small spaces of the CLI property test, and one more."""
    from ttspec import chow_motives

    code, out = run(capsys, "motive", "decompose", "--space", text, "--json")
    assert code == 0
    want = [w for _, w in chow_motives.motive_decompose(chow_motives.parse_space(text))]
    assert json.loads(out)["result"]["twists"] == want


def _eta_order_two(z):
    """Breaks the order of eta^m when q = 3 mod 4: coordinates mod 2."""
    if z.degree < 0 and z.field.q % 4 == 3:
        return mw.KmwElement(z.field, z.degree, (z.coords[0] % 2,))
    return z


def _no_eta_bracket_term(z):
    """Breaks degree-0 products: the eta[w] term is dropped."""
    if z.degree == 0:
        return mw.KmwElement(z.field, 0, (z.coords[0], 0))
    return z


def test_verify_tate_fails_without_the_zero_prime(capsys, monkeypatch):
    from ttspec import tt_geometry

    monkeypatch.setattr(tt_geometry, "enumerate_primes", lambda universe: {"primes": [], "diagnostic": None})
    code, out = run(capsys, "verify", "--suite", "tate", "--json")
    assert code == 2
    assert json.loads(out)["result"]["suites"]["tate"]["failures"] == [{"primes": []}]


def test_verify_tate_fails_on_a_wrong_end_of_unit(capsys, monkeypatch):
    from ttspec import tt_geometry

    monkeypatch.setattr(tt_geometry, "END_OF_UNIT", "0")
    code, out = run(capsys, "verify", "--suite", "tate", "--json")
    assert code == 2
    assert json.loads(out)["result"]["suites"]["tate"]["failures"] == [{"end_of_unit": "0"}]


def test_verify_tate_fails_on_integral_scalars(capsys, monkeypatch):
    """End(1) = Z, a plausible wrong answer, differs from the one copy of Q
    that the unit's multiplicity in 1 (x) 1^dual gives."""
    from ttspec import tt_geometry

    monkeypatch.setattr(tt_geometry, "END_OF_UNIT", "Z")
    code, out = run(capsys, "verify", "--suite", "tate", "--json")
    assert code == 2
    assert json.loads(out)["result"]["suites"]["tate"]["failures"] == [{"end_of_unit": "Z"}]


@pytest.mark.parametrize("breaker", [None, _eta_order_two, _no_eta_bracket_term])
def test_verify_tables_fails_on_a_broken_product_rule(capsys, monkeypatch, breaker):
    if breaker is not None:
        right = mw.kmw_mul
        monkeypatch.setattr(mw, "kmw_mul", lambda x, y: breaker(right(x, y)))
    code, out = run(capsys, "verify", "--suite", "tables", "--json")
    assert code == (0 if breaker is None else 2)
    failures = json.loads(out)["result"]["suites"]["tables"]["failures"]
    if breaker is _eta_order_two:
        assert {f["q"] for f in failures} == {3, 7, 11}
    elif breaker is _no_eta_bracket_term:
        assert {f["q"] for f in failures} == {3, 5, 7, 9, 11, 13}


# --------------------------------------------------------------- exit codes


def test_usage_errors(capsys):
    assert run(capsys, "kmw", "table", "--q", "4")[0] == 1  # not a prime power? 4 = 2^2 even
    assert run(capsys, "kmw", "reduce", "--q", "3", "--word", "[0]")[0] == 1
    assert cli.main(["nonsense"]) == 1
    assert cli.main(["kmw", "table"]) == 1  # missing --q


def _run_cold(*argv):
    """Run the CLI in a fresh interpreter; the timeout only guards against
    a hang and is not a time budget."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "ttspec.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def _cold_json_result(*argv):
    proc = _run_cold(*argv, "--json")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["result"]


@pytest.mark.parametrize(
    "argv",
    [
        ["kmw", "table", "--q", "3", "--range=-100..0"],
        ["motive", "decompose", "--space", "P-1"],
        ["spc", "sh-top", "--primes", "0"],
        ["spc", "equivariant", "--n", "0"],
        ["gw", "--q=0"],
        ["gw", "--q=1"],
        ["gw", "--q=-3"],
        ["gw", "--q=12"],
        ["gw", "--q=1046529"],
        ["gw", "--q=4"],
        ["spech", "--q", "3", "--prime-bound", "500001"],
        ["motive", "hom", "--space", "P9xP9xP9", "--target-space", "P9xP9xP9"],
        ["motive", "hom", "--space", "P20xP20xP20", "--target-space", "P20xP20xP20"],
        ["motive", "pairing", "--space", "P15xP15xP15"],
        ["motive", "decompose", "--space", "x".join(["P1"] * 22)],
    ],
)
def test_invalid_arguments_print_one_error_line(argv):
    proc = _run_cold(*argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    if argv[0] == "gw":
        q = argv[1].removeprefix("--q=")
        want = "characteristic 2 is not supported" if q == "4" else f"{q} is not a prime power"
        assert lines[0] == f"error: {want}"
    if argv[0] == "spech":
        assert lines[0] == "error: prime bound 500001 exceeds the bound 500000"
    if argv[0] == "motive" and argv[1] == "hom":
        size = 55252 if argv[3] == "P9xP9xP9" else 2248575
        assert lines[0] == f"error: hom basis of {size} monomials exceeds the bound 4000"
    if argv[0] == "motive" and argv[1] == "pairing":
        assert lines[0] == "error: pairing matrices of 577744 entries exceed the bound 250000"
    if argv[0] == "motive" and argv[1] == "decompose" and argv[3].startswith("P1x"):
        assert lines[0] == (
            "error: space of 22 factors and 4194304 monomials exceeds the space bound of "
            "65536 monomials and 16 factors"
        )


# a bad value for every subcommand: non-integers, even q, q = 1, zero or
# negative sizes, and malformed words, forms, ranges and spaces
_BAD_VALUES = [
    ["kmw", "table", "--q", "abc"],
    ["kmw", "table", "--q", "4"],
    ["kmw", "table", "--q", "1"],
    ["kmw", "table", "--q", "3", "--range", "1..x"],
    ["kmw", "table", "--q", "3", "--range", "3..1"],
    ["kmw", "reduce", "--q", "5", "--word", "eta^-1"],
    ["kmw", "reduce", "--q", "7", "--word", "[w^-1]"],
    ["kmw", "reduce", "--q", "5", "--word", "eta^"],
    ["kmw", "reduce", "--q", "3", "--word", "[w"],
    ["kmw", "reduce", "--q", "3", "--word", "[0]"],
    ["kmw", "reduce", "--q", "3", "--word", "??"],
    ["kmw", "reduce", "--q", "9", "--word", "[-]"],
    ["witt", "classify", "--q", "7", "--form", "a,b"],
    ["witt", "classify", "--q", "7", "--form", "1,0"],
    ["witt", "classify", "--q", "8", "--form", "1"],
    ["gw", "--q", "x"],
    ["gw", "--q", "1"],
    ["gw", "--q", "4"],
    ["milnor", "--q", "5", "--n", "x"],
    ["milnor", "--q", "1", "--n", "1"],
    ["milnor", "--q", "6", "--n", "1"],
    ["spech", "--q", "3", "--prime-bound", "x"],
    ["spech", "--q", "2"],
    ["spech", "--q", "1"],
    ["spech", "--q", "3", "--prime-bound", "-1"],
    ["motive", "decompose", "--space", "P-1"],
    ["motive", "decompose", "--space", "Q2"],
    ["motive", "hom", "--space", "P1", "--target-space", "P-2"],
    ["motive", "dual", "--space", "P1", "--twist", "x"],
    ["motive", "pairing", "--space", "P1xx"],
    ["motive", "hom", "--space", "P9xP9xP9", "--target-space", "P9xP9xP9"],
    ["motive", "decompose", "--space", "x".join(["P1"] * 22)],
    ["motive", "dual", "--space", "x".join(["P1"] * 22)],
    ["motive", "hom", "--space", "x".join(["P1"] * 22), "--target-space", "pt", "--twist", "22"],
    ["motive", "hom", "--space", "P1", "--target-space", "x".join(["P0"] * 17)],
    ["spc", "tate", "--twist-radius", "x"],
    ["spc", "tate", "--q", "4"],
    ["spc", "sh-top", "--q", "6"],
    ["spc", "sh-top", "--primes", "0"],
    ["spc", "sh-top", "--height", "-1"],
    ["spc", "equivariant", "--n", "0"],
    ["spc", "equivariant", "--n", "-2"],
    ["spc", "sh-top", "--primes", "2000", "--height", "200"],
    ["spc", "equivariant", "--n", "1000000000", "--primes", "1000", "--height", "100"],
    ["verify", "--suite", "nope"],
    ["gw", "--q", "1000000000000000003"],
    ["kmw", "table", "--q", "1000000000000000003"],
    ["spc", "tate", "--q", "1000000000000000003"],
    ["spc", "equivariant", "--n", "1000000000000000003", "--primes", "3", "--height", "1"],
    ["witt", "classify", "--q", "3", "--form", ",".join(["1"] * 200)],
    ["witt", "classify", "--q", "1019", "--form", "1,1,1"],
    ["kmw", "reduce", "--q", "5", "--word", "9" * 5000],
    ["kmw", "table", "--q", "5", "--range", "1.." + "9" * 5000],
    ["kmw", "table", "--q", "5", "--q=--"],
    ["motive", "dual", "--space", "P" + "9" * 5000],
]


@pytest.mark.parametrize("argv", _BAD_VALUES, ids=" ".join)
def test_bad_value_prints_one_error_line(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1, err


@pytest.mark.parametrize(
    "argv, pairs",
    [
        (["spc", "sh-top", "--primes", "2000", "--height", "200"], 6212107),
        (["spc", "equivariant", "--n", "1000000000", "--primes", "1000", "--height", "100"], 88233700),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_spc_limits_refuse_cold_within_two_seconds(argv, pairs):
    """The pairs are counted before any point is built, so the refusal
    costs about a process start."""
    start = time.perf_counter()
    proc = _run_cold(*argv)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: {pairs} specialization pairs exceed the spc pair bound 100000"
    ]
    assert elapsed < 2


_HUGE = "1000000000000000003"  # a prime near 10^18: sqrt(n) trial divisions never finish
_REFUSED_COLD = [
    (["gw", "--q", _HUGE], "the field bound 1048576"),
    (["kmw", "table", "--q", _HUGE], "the field bound 1048576"),
    (["spc", "tate", "--q", _HUGE], "the field bound 1048576"),
    (["spc", "equivariant", "--n", _HUGE, "--primes", "3", "--height", "1"],
     "the spc order bound 1000000000000"),
    (["spc", "sh-top", "--primes", "500001", "--height", "1"], "prime bound 500001 exceeds the bound 500000"),
    (["witt", "classify", "--q", "3", "--form", ",".join(["1"] * 200)], "the descent bound 700000"),
    (["witt", "classify", "--q", "1019", "--form", "1,1,1"], "the descent bound 700000"),
]


@pytest.mark.parametrize("argv, limit", _REFUSED_COLD, ids=[" ".join(a)[:40] for a, _ in _REFUSED_COLD])
def test_unbounded_inputs_refuse_cold_within_two_seconds(argv, limit):
    """Each limit is checked before the factorization or search it bounds."""
    start = time.perf_counter()
    proc = _run_cold(*argv)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and line.endswith(limit)
    assert elapsed < 2


def test_witt_classify_decomposes_once(capsys, monkeypatch):
    calls = {"witt_decompose": 0, "is_isotropic": 0}
    for name in calls:
        original = getattr(quadratic_forms, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(quadratic_forms, name, counted)
    code, out = run(capsys, "witt", "classify", "--q", "37", "--form", "1,2,3", "--json")
    assert code == 0
    assert json.loads(out)["result"]["isotropic"] is True
    assert calls == {"witt_decompose": 1, "is_isotropic": 0}


# one invocation of every subcommand (and of every motive operation)
_EVERY_SUBCOMMAND = [
    ["kmw", "table", "--q", "3", "--range=-2..2"],
    ["kmw", "reduce", "--q", "3", "--word", "eta[2] + h"],
    ["witt", "classify", "--q", "5", "--form", "1,2"],
    ["gw", "--q", "3"],
    ["milnor", "--q", "5", "--n", "1"],
    ["spech", "--q", "3", "--prime-bound", "7"],
    ["motive", "decompose", "--space", "P1xP1"],
    ["motive", "hom", "--space", "P1", "--target-space", "P1"],
    ["motive", "dual", "--space", "P2", "--twist", "1"],
    ["motive", "pairing", "--space", "P1xP1"],
    ["spc", "tate", "--twist-radius", "2", "--shift-radius", "1"],
    ["spc", "sh-top", "--primes", "2", "--height", "2"],
    ["spc", "equivariant", "--n", "6", "--primes", "2", "--height", "1"],
    ["verify", "--suite", "witt"],
]


@pytest.mark.parametrize(
    "argv", _EVERY_SUBCOMMAND, ids=lambda argv: "-".join(a for a in argv[:2] if a[0] != "-")
)
def test_json_flag_position_does_not_matter(capsys, argv):
    before = run(capsys, "--json", *argv)
    after = run(capsys, *argv, "--json")
    assert before == after
    assert json.loads(after[1])["command"] == argv[0]


def test_closed_stdout_leaves_stderr_empty():
    """`ttspec ... | head -1`: the reader is gone before the first write."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ttspec.cli", "spc", "sh-top", "--primes", "300", "--height", "30"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 0


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Both cost start-up time in every CLI process; -S keeps modules that
    site-packages hooks import out of the check."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, ttspec.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_kmw_reduce_above_log_table_bound():
    result = _cold_json_result("kmw", "reduce", "--q", "531441", "--word", "[2]")
    assert [c["coords"] for c in result["components"]] == [[265720]]


def test_kmw_reduce_is_linear_in_the_word_cold():
    """A word is evaluated as it is read: 40 factors h would expand to 2^40
    formal terms, and each of 8,000 terms is added once."""
    start = time.perf_counter()
    result = _cold_json_result("kmw", "reduce", "--q", "7", "--word", " ".join(["h"] * 40))
    assert time.perf_counter() - start < 1
    assert [(c["degree"], c["coords"]) for c in result["components"]] == [(0, [2 ** 40, 0])]
    start = time.perf_counter()
    result = _cold_json_result("kmw", "reduce", "--q", "7", "--word", " + ".join(["[2]"] * 8000))
    assert time.perf_counter() - start < 1
    want = 8000 * discrete_log(make_field(7).element(2)) % 6
    assert [(c["degree"], c["coords"]) for c in result["components"]] == [(1, [want])]


def test_kmw_reduce_between_table_bounds():
    # 2^12 < 19683 = 3^9 <= 2^16: a baby-step giant-step solve in a fresh process
    result = _cold_json_result("kmw", "reduce", "--q", "19683", "--word", "[w^12345]")
    assert [c["coords"] for c in result["components"]] == [[12345]]


def test_motive_hom_three_factor_products():
    result = _cold_json_result(
        "motive", "hom", "--space", "P4xP4xP4", "--target-space", "P4xP4xP4"
    )
    assert result["rank"] == len(result["basis"]) == 1751
    assert result["ambient_codim"] == 12


def test_spech_large_prime_bound():
    result = _cold_json_result("spech", "--q", "3", "--prime-bound", "100000")
    assert len(result["points"]) == 9594  # 9591 odd primes, plus (eta), (2) and (eta, 2)
    assert len(result["specializations"]) == 9593


def test_spech_at_the_prime_bound_answers_cold_within_two_seconds():
    start = time.perf_counter()
    result = _cold_json_result("spech", "--q", "3", "--prime-bound", "500000")
    assert time.perf_counter() - start < 2
    assert len(result["points"]) == 41540  # 41537 odd primes, plus (eta), (2) and (eta, 2)
    assert len(result["specializations"]) == 41539


@pytest.mark.parametrize("p,e", [(3, 12), (101, 3), (1048573, 1)])
def test_kmw_reduce_at_the_most_giant_steps_answers_cold_within_two_seconds(p, e):
    """The fields with the most baby and giant steps, ceil(sqrt(q - 1)) =
    729, 1016 and 1024, each solve [2] in a fresh process: the answer c
    of [w^(q-2)] + [2] has w^(c+1) = 2, checked by the power ladder."""
    q = p ** e
    start = time.perf_counter()
    result = _cold_json_result("kmw", "reduce", "--q", str(q), "--word", f"[w^{q - 2}] + [2]")
    assert time.perf_counter() - start < 2
    coords = [(c["degree"], c["coords"]) for c in result["components"]]
    c = coords[0][1][0] if coords else 0  # w = 2 at q = 1048573, so the sum is zero
    assert coords == ([(1, [c])] if c else []) and 0 <= c < q - 1
    field = make_field(p, e)
    assert primitive_element(field) ** (c + 1) == field.element(2)


def test_spc_shtop_lists_primes_past_ten_thousand_cold_within_two_seconds():
    """Only the pair bound limits `--primes` below the listing bound."""
    start = time.perf_counter()
    result = _cold_json_result("spc", "sh-top", "--primes", "200000", "--height", "1")
    assert time.perf_counter() - start < 2
    assert len(result["points"]) == 35969  # the generic point and 17984 chains of 2
    assert len(result["specializations"]) == 53952  # 89921 pairs less the 35969 reflexive ones


def test_gw_large_q_three_mod_four():
    result = _cold_json_result("gw", "--q", "1019")
    assert result["witt"]["type"] == "Z/4"
    assert result["witt"]["generator_table"] == {
        "0*<1>": [], "1*<1>": [1], "2*<1>": [1, 1017], "3*<1>": [2],
    }


def test_spc_tate_wide_window():
    result = _cold_json_result("spc", "tate", "--twist-radius", "40", "--shift-radius", "40")
    assert result["primes"] == ["(0)"]


def test_spc_tate_answers_cold_at_any_twist_radius():
    """End(1) is read without listing the twists of the window."""
    start = time.perf_counter()
    result = _cold_json_result("spc", "tate", "--twist-radius", "1000000000")
    assert time.perf_counter() - start < 2
    assert result["primes"] == ["(0)"] and result["end_of_unit"] == "Q"


def test_motive_hom_and_pairing_answer_cold_at_the_largest_spaces():
    """Both are read off the monomials: no correspondence, no product."""
    p1 = "x".join(["P1"] * 16)
    start = time.perf_counter()
    result = _cold_json_result("motive", "hom", "--space", p1, "--target-space", p1, "--target-twist", "-14")
    assert time.perf_counter() - start < 2
    assert result["rank"] == len(result["basis"]) == 496
    start = time.perf_counter()
    result = _cold_json_result("motive", "pairing", "--space", "P12xP12xP12")
    assert time.perf_counter() - start < 2
    assert result["nondegenerate"] and len(result["degrees"]) == 37


_IMPORT_PROBE = """
import json, sys
import ttspec.cli
loaded = sorted(sys.modules)
ttspec.cli.main(sys.argv[1:])
print(json.dumps([loaded, sorted(sys.modules)]))
"""

_COMMAND_MODULES = [
    (["gw", "--q", "3"], {"ttspec.quadratic_forms", "ttspec.milnor_witt"}),
    (["kmw", "reduce", "--q", "7", "--word", "eta[2] + h"], {"ttspec.milnor_witt"}),
    (["milnor", "--q", "5", "--n", "1"], {"ttspec.milnor_witt"}),
    (["spech", "--q", "3"], {"ttspec.graded_spectrum"}),
    (["spc", "sh-top", "--primes", "3"], {"ttspec.tt_geometry"}),
    (["motive", "hom", "--space", "P2xP1", "--target-space", "P1"], {"ttspec.chow_motives"}),
    (["motive", "pairing", "--space", "P2xP1"], {"ttspec.chow_motives"}),
    (["verify", "--suite", "tate"], {"ttspec.verify", "ttspec.tt_geometry"}),
    (["verify", "--suite", "spaces"], {"ttspec.verify", "ttspec.tt_geometry"}),
]


def test_each_command_loads_only_the_modules_it_runs():
    """Each command in a fresh process: `import ttspec.cli` loads no compute
    module, and the command adds only its own, and no `fractions`."""
    src = str(Path(cli.__file__).resolve().parents[1])
    compute = {
        f"ttspec.{m}" for m in ("quadratic_forms", "milnor_witt", "graded_spectrum", "chow_motives", "tt_geometry")
    }
    for argv, modules in _COMMAND_MODULES:
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded, after = map(set, json.loads(proc.stdout.splitlines()[-1]))
        assert not loaded & (compute | {"fractions", "decimal"})
        added = after - loaded
        assert {m for m in added if m.startswith("ttspec")} == modules, argv
        assert not added & {"fractions", "decimal"}, argv


def test_spech_and_spc_check_q_without_building_a_field(capsys, monkeypatch):
    """`spech` and `spc` only validate --q, with the error lines that
    building the field would give, and never call `make_field`."""
    def refuse(p, e=1):
        raise AssertionError(f"make_field({p}, {e}) called")

    monkeypatch.setattr(finite_field, "make_field", refuse)
    for q in ("531441", "1046527", "3"):
        assert run(capsys, "spech", "--q", q, "--prime-bound", "2")[0] == cli.EXIT_OK
        assert run(capsys, "spc", "tate", "--q", q)[0] == cli.EXIT_OK
    for q, line in [
        ("4", "error: characteristic 2 is not supported"),
        ("2", "error: characteristic 2 is not supported"),
        ("6", "error: 6 is not a prime power"),
        ("1", "error: 1 is not a prime power"),
        ("1048583", "error: q = 1048583 exceeds the field bound 1048576"),
    ]:
        for argv in (["spech", "--q", q], ["spc", "sh-top", "--q", q]):
            assert cli.main(argv) == cli.EXIT_USAGE
            assert capsys.readouterr().err.splitlines() == [line], argv


def test_json_envelope_round_trip(capsys):
    _, out = run(capsys, "gw", "--q", "3", "--json")
    payload = json.loads(out)
    assert payload["command"] == "gw"
    assert payload["parameters"]["q"] == 3
    assert json.loads(json.dumps(payload)) == payload


def test_envelope_matches_shipped_schema(capsys):
    import pathlib

    schema = json.loads(
        (pathlib.Path(__file__).parent.parent / "schemas" / "envelope.schema.json").read_text()
    )
    commands = [
        ("kmw", "table", "--q", "3", "--range=-2..2", "--json"),
        ("witt", "classify", "--q", "5", "--form", "1,1", "--json"),
        ("spc", "tate", "--q", "3", "--json"),
        ("verify", "--suite", "witt", "--json"),
    ]
    for argv in commands:
        _, out = run(capsys, *argv)
        payload = json.loads(out)
        assert set(payload) == set(schema["required"])
        assert payload["command"] in schema["properties"]["command"]["enum"]
        allowed = (str, int, bool)
        assert all(isinstance(v, allowed) for v in payload["parameters"].values())
        assert isinstance(payload["result"], (dict, list))


def test_determinism(capsys):
    commands = [
        ("kmw", "table", "--q", "9", "--range=-4..4", "--json"),
        ("spech", "--q", "3", "--prime-bound", "20", "--json"),
        ("motive", "decompose", "--space", "P2xP1", "--json"),
        ("spc", "sh-top", "--primes", "3", "--height", "3", "--dot"),
        ("verify", "--suite", "witt", "--json"),
    ]
    for argv in commands:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
