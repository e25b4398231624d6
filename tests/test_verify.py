"""The fault matrix of `ttspec verify`.

Each row of `FAULTS` is (suite, "module.name", make_wrong): the library
function that the suite calls straight from `ttspec.verify`, or one of
verify's own checks, and a maker that takes the right function (or
property) and returns a wrong stand-in.
`test_fault_is_caught` patches the stand-in in and runs `verify --suite`
in-process: it must exit 2 with a failure entry in that suite, and raise
nothing.  The suite catches the stand-in either by a comparison that
names the wrong value, or only because a check raises, which `run`
reports as one `{"error", "at"}` entry.  `RAISE_ONLY` names the rows of
the second kind with the error class raised, so a row that moves between
the two kinds fails the test.  Like `ALLOWLIST`, it only shrinks.

`test_every_direct_call_is_covered` records under `sys.setprofile`, as
`test_reach.py` does, which package functions each suite calls from a
frame of `verify.py`.  Each needs a row in that suite, or an `ALLOWLIST`
entry that gives a reason; only input builders may be allowlisted.  A row
or an allowlist entry that no suite calls fails it too, so both lists
follow the code.  A row for a check of verify's own needs no such record:
its suite can fail under the stand-in only if it runs the check.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from ttspec import cli, verify

from test_reach import defined_functions

VERIFY_FILE = Path(verify.__file__)

_BUILDER = "an input builder: it makes what the suite checks, and is not itself compared"

ALLOWLIST = {
    "finite_field._field_for": "an input builder: F_q for each q a suite runs over",
    "quadratic_forms.diagonal": "an input builder: the diagonal form of the entries given",
    "chow_motives.parse_space": "an input builder: the product of projective spaces named",
    "tt_geometry.tate_line": "a constructor: the line Q(i)[m] as a TateObject",
    "tt_geometry.chromatic_label": "an input builder: the label of a chromatic point",
    "milnor_witt.KmwElement.__init__": _BUILDER,
    "graded_spectrum.HomogeneousPrime.__init__": _BUILDER,
    "graded_spectrum.ReducedElement.__init__": _BUILDER,
    "chow_motives.Motive.__init__": _BUILDER,
    "tt_geometry.TateUniverse.__init__": _BUILDER,
    "tt_geometry.ThickTensorIdeal.__init__": _BUILDER,
    "tt_geometry.FiniteSpectralSpace.__init__": _BUILDER,
}


def _mod(name):
    return importlib.import_module(f"ttspec.{name}")


# ----------------------------------------------------------- stand-in makers


def _self_twice(right):
    """A binary operation that reads its first operand twice."""
    return lambda a, b: right(a, a)


def _shifted_property(right):
    return property(lambda self: right.fget(self) + 2)


def _identity_eq(right):
    """Equality by identity: equal values built apart compare unequal."""
    return lambda self, other: self is other


def _torsion_made_free(right):
    """A group shape with Z in place of each cyclic factor."""
    def wrong(field, n):
        shape = right(field, n)
        return type(shape)((0,) * len(shape.invariant_factors), shape.generators)
    return wrong


def _first_coordinate_bumped(right):
    """A K^MW answer whose first coordinate is off by one."""
    def wrong(*args, **kwargs):
        z = right(*args, **kwargs)
        if not z.coords:
            return z
        return _mod("milnor_witt").KmwElement(z.field, z.degree, (z.coords[0] + 1, *z.coords[1:]))
    return wrong


def _reduced_coordinate_bumped(right):
    """`reduce_word` with each component's first coordinate off by one."""
    bump = _first_coordinate_bumped(lambda x: x)
    return lambda w: {n: bump(x) for n, x in right(w).items()}


def _eta_powers_dropped(right):
    return lambda field, *terms: right(field, *((c, 0, entries) for c, _, entries in terms))


def _drop_disc(right):
    return lambda f: _mod("quadratic_forms").GWClass(f.field, f.rank, 0)


def _with_wrong_table(right):
    def wrong(field):
        structure = right(field)
        table = dict(structure["generator_table"])
        table["1*<1>"] = table["0*<1>"]
        return dict(structure, generator_table=table)
    return wrong


def _parity_flipped(right):
    """A Witt class of the other rank parity: <1> for <>, and so on."""
    def wrong(f):
        c = right(f)
        return _mod("quadratic_forms").WittClass(c.field, c.parity + 1, c.disc)
    return wrong


def _kernel_cut_to_one_entry(right):
    qf = _mod("quadratic_forms")
    return property(lambda self: qf.DiagonalForm(self.field, right.fget(self).entries[:1]))


def _twice_eta(right):
    return lambda field, power=1: 2 * right(field, power)


def _thrice_eta(right):
    """3 eta in place of eta: eta^n keeps its additive order, so only a
    comparison of its multiples sees it."""
    return lambda field, power=1: 3 * right(field, power)


def _omega_is_eta(right):
    return lambda field: _mod("milnor_witt").eta(field)


def _class_of_i_to_zero(right):
    mw = _mod("milnor_witt")
    return lambda field, n, w: mw.kmw_zero(field, 0) if n == 0 else right(field, n, w)


def _next_ideal_power(right):
    return lambda field, n: right(field, n + 1)


def _twice_one(right):
    return lambda field: 2 * right(field)


def _doubled_before(right):
    return lambda x: right(2 * x)


def _generator_squared(right):
    return lambda field: right(field) ** 2


def _pow_plus_one(right):
    return lambda self, n: right(self, n + 1)


def _index_halved(right):
    return lambda self, v: right(self, v // 2)


def _zero_is_one(right):
    return lambda self: self.one()


def _one_class_twice(right):
    """The four classes of W(F_q) with <1> in place of <w>."""
    def wrong(field):
        zero, one, _, pfister = right(field)
        return [zero, one, one, pfister]
    return wrong


def _point_dropped(right):
    def wrong(prime_bound):
        space = right(prime_bound)
        return type(space)(space.points[:-1])
    return wrong


def _reversed_result(right):
    return lambda *args: tuple(reversed(right(*args)))


def _unit_coefficients(right):
    gs = _mod("graded_spectrum")
    return lambda x, y: gs.ReducedElement(x.degree + y.degree, 1)


def _twists_reversed(right):
    return lambda space: right(space)[::-1]


def _compose_to_identity(right):
    cm = _mod("chow_motives")
    return lambda beta, alpha: cm.identity_correspondence(alpha.source)


def _doubled_diagonal(right):
    cm = _mod("chow_motives")

    def wrong(space):
        diagonal = right(space)
        twice = {m: 2 * c for m, c in diagonal.cls.terms}
        return cm.Correspondence(space, space, 0, cm.ChowClass.from_dict(diagonal.cls.space, twice))
    return wrong


def _hom_missing_a_class(right):
    def wrong(m, n):  # the last basis class goes missing from P2xP1
        hom = right(m, n)
        if m.space.dims != (2, 1):
            return hom
        return dict(hom, basis=hom["basis"][:-1], rank=hom["rank"] - 1)
    return wrong


def _doubled_class(right):
    return lambda space, mono, coeff=1: right(space, mono, 2 * coeff)


def _wrong_decomposition(right):
    def wrong(space):
        parts = right(space)
        return [(m, w + 1) for m, w in parts]
    return wrong


def _factors_swapped(right):
    return lambda a, b: right(b, a)


def _summand_dropped(right):
    return lambda classes: right(list(classes)[:-1])


def _no_prime(right):
    return lambda universe: {"primes": [], "diagnostic": None}


def _lines_without_the_last(right):
    return lambda self: right(self)[:-1]


def _first_operand(right):
    return lambda a, b: a


def _dual_is_self(right):
    return lambda self: self


def _always(value):
    return lambda right: lambda *args: value


def _higher_chains(right):
    return lambda primes, height: right(primes, height + 1)


def _trivial_group(right):
    """The poset of the trivial group, whatever the order asked for."""
    return lambda n, primes, height: right(1, primes, height)


def _last_edge_dropped(right):
    """A drawing without its last edge, the line before the closing brace."""
    def wrong(self, name="spc"):
        lines = right(self, name).splitlines()
        return "\n".join(lines[:-2] + lines[-1:])
    return wrong


FAULTS = [
    ("tables", "finite_field.FieldElement.__pow__", _pow_plus_one),
    ("tables", "finite_field.primitive_element", _generator_squared),
    ("tables", "milnor_witt.kmw_group", _torsion_made_free),
    ("tables", "milnor_witt.kmw_mul", _first_coordinate_bumped),
    ("tables", "milnor_witt.milnor_group", _torsion_made_free),
    ("tables", "milnor_witt.reduce_word", _reduced_coordinate_bumped),
    ("tables", "milnor_witt.word", _eta_powers_dropped),
    ("tables", "quadratic_forms.gw_class", _drop_disc),
    ("tables", "verify._gw_add", _self_twice),
    ("tables", "verify._gw_mul", _self_twice),
    ("witt", "_value.Value.__eq__", _identity_eq),
    ("witt", "finite_field.FieldElement.__add__", _self_twice),
    ("witt", "finite_field.FieldElement.__eq__", _identity_eq),
    ("witt", "finite_field.FieldElement.__hash__", lambda right: lambda self: id(self)),
    ("witt", "finite_field.FieldElement.__mul__", _self_twice),
    ("witt", "finite_field.FieldElement.__neg__", lambda right: lambda self: self),
    ("witt", "finite_field.PrimePower.from_index", _index_halved),
    ("witt", "finite_field.PrimePower.q", _shifted_property),
    ("witt", "finite_field.PrimePower.zero", _zero_is_one),
    ("witt", "milnor_witt.KmwElement.is_zero", _always(False)),
    ("witt", "milnor_witt.eta", _thrice_eta),
    ("witt", "milnor_witt.kmw_add", _first_operand),
    ("witt", "milnor_witt.kmw_mul", _first_coordinate_bumped),
    ("witt", "milnor_witt.kmw_zero", _first_coordinate_bumped),
    ("witt", "quadratic_forms.WittClass.anisotropic_kernel", _kernel_cut_to_one_entry),
    ("witt", "quadratic_forms.gw_class", _drop_disc),
    ("witt", "quadratic_forms.kernel_class", _parity_flipped),
    ("witt", "quadratic_forms.witt_class", _parity_flipped),
    ("witt", "quadratic_forms.witt_elements", _one_class_twice),
    ("witt", "quadratic_forms.witt_ring_structure", _with_wrong_table),
    ("witt", "verify.additive_order", _always(2)),
    ("witt", "verify._gw_add", _self_twice),
    ("witt", "verify._gw_mul", _self_twice),
    ("ses", "finite_field.FieldElement.__hash__", lambda right: lambda self: id(self)),
    ("ses", "finite_field.FieldElement.__eq__", _identity_eq),
    ("ses", "finite_field.PrimePower.from_index", _index_halved),
    ("ses", "finite_field.PrimePower.q", _shifted_property),
    ("ses", "milnor_witt.MilnorKElement.is_zero", _always(False)),
    ("ses", "milnor_witt.from_fundamental_ideal", _class_of_i_to_zero),
    ("ses", "milnor_witt.kmw_group", _torsion_made_free),
    ("ses", "milnor_witt.kmw_one", _twice_one),
    ("ses", "milnor_witt.to_milnor", _doubled_before),
    ("ses", "quadratic_forms.fundamental_ideal_power", _next_ideal_power),
    ("spech", "graded_spectrum.HomogeneousPrime.contains", _always(True)),
    ("spech", "graded_spectrum.HomogeneousPrime.includes", _always(False)),
    ("spech", "graded_spectrum.HomogeneousPrime.sorted_generators", _reversed_result),
    ("spech", "graded_spectrum.ReducedElement.__mul__", _unit_coefficients),
    ("spech", "graded_spectrum.ReducedElement.__repr__", lambda right: lambda self: "x"),
    ("spech", "graded_spectrum.ReducedElement.is_zero", _always(False)),
    ("spech", "graded_spectrum.SpecHSpace.specializations", _always([])),
    ("spech", "graded_spectrum.enumerate_primes", _point_dropped),
    ("spech", "milnor_witt.KmwElement.is_zero", _always(False)),
    ("spech", "milnor_witt.eta", _twice_eta),
    ("spech", "milnor_witt.kmw_mul", _first_coordinate_bumped),
    ("spech", "milnor_witt.omega_symbol", _omega_is_eta),
    ("eta", "_value.Value.__eq__", _identity_eq),
    ("eta", "finite_field.FieldElement.__add__", _self_twice),
    ("eta", "finite_field.FieldElement.__eq__", _identity_eq),
    ("eta", "finite_field.FieldElement.__hash__", lambda right: lambda self: id(self)),
    ("eta", "finite_field.FieldElement.__mul__", _first_operand),
    ("eta", "finite_field.FieldElement.__neg__", lambda right: lambda self: self.field.zero()),
    ("eta", "finite_field.PrimePower.from_index", _index_halved),
    ("eta", "finite_field.PrimePower.q", _shifted_property),
    ("eta", "finite_field.PrimePower.zero", _zero_is_one),
    ("eta", "milnor_witt.KmwElement.is_zero", _always(False)),
    ("eta", "milnor_witt.eta", _twice_eta),
    ("eta", "milnor_witt.eta", _thrice_eta),
    ("eta", "milnor_witt.kmw_add", lambda right: lambda x, y: x),
    ("eta", "milnor_witt.kmw_mul", _first_coordinate_bumped),
    ("eta", "quadratic_forms.gw_class", _drop_disc),
    ("eta", "verify._gw_add", _self_twice),
    ("motives", "_value.Value.__eq__", _identity_eq),
    ("motives", "chow_motives.ProjSpaceProduct.times", _factors_swapped),
    ("motives", "chow_motives._kunneth_twists", _twists_reversed),
    ("motives", "chow_motives.compose", _compose_to_identity),
    ("motives", "chow_motives.hom_group", _hom_missing_a_class),
    ("motives", "chow_motives.identity_correspondence", _doubled_diagonal),
    ("motives", "chow_motives.monomial_class", _doubled_class),
    ("motives", "chow_motives.motive_decompose", _wrong_decomposition),
    ("motives", "verify._summed_terms", _summand_dropped),
    ("tate", "_value.Value.__eq__", _identity_eq),
    ("tate", "tt_geometry.TateObject.dual", _dual_is_self),
    ("tate", "tt_geometry.TateObject.is_zero", _always(True)),
    ("tate", "tt_geometry.TateObject.tensor", _first_operand),
    ("tate", "tt_geometry.TateUniverse.lines", _lines_without_the_last),
    ("tate", "tt_geometry.enumerate_primes", _no_prime),
    ("spaces", "_value.Value.__eq__", _identity_eq),
    ("spaces", "tt_geometry.FiniteSpectralSpace.to_dot", _last_edge_dropped),
    ("spaces", "tt_geometry.spc_equivariant", _trivial_group),
    ("spaces", "tt_geometry.spc_shtop", _higher_chains),
]


# broken F_q arithmetic stops the isotropy descent before a comparison runs;
# a `kmw_add` or `is_zero` that never reaches zero stops `additive_order`
RAISE_ONLY = {
    "witt-finite_field.FieldElement.__add__": "ValueError",
    "witt-finite_field.FieldElement.__mul__": "ValueError",
    "witt-finite_field.PrimePower.from_index": "ValueError",
    "witt-finite_field.PrimePower.q": "ValueError",
    "witt-milnor_witt.KmwElement.is_zero": "TtspecError",
    "witt-milnor_witt.kmw_add": "TtspecError",
}


def _owner_and_attr(name):
    module, *path, attr = name.split(".")
    owner = _mod(module)
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _row_ids(rows):
    """suite-name for each row, with the maker's name added to a second row
    of the same function."""
    seen, ids = set(), []
    for suite, name, make_wrong in rows:
        ids.append(f"{suite}-{name}" + (f"-{make_wrong.__name__}" if (suite, name) in seen else ""))
        seen.add((suite, name))
    return ids


@pytest.mark.parametrize("suite, name, make_wrong", FAULTS, ids=_row_ids(FAULTS))
def test_fault_is_caught(request, capsys, monkeypatch, suite, name, make_wrong):
    owner, attr = _owner_and_attr(name)
    right = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    monkeypatch.setattr(owner, attr, make_wrong(right))
    code = cli.main(["verify", "--suite", suite, "--json"])
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == cli.EXIT_VERIFY
    result = json.loads(captured.out)["result"]["suites"][suite]
    assert result["ok"] is False and result["failures"]
    raised = [f["error"].partition(":")[0] for f in result["failures"] if set(f) == {"error", "at"}]
    row = request.node.callspec.id
    assert raised == ([RAISE_ONLY[row]] if row in RAISE_ONLY else []), result["failures"]


def test_raise_only_names_rows():
    assert sorted(set(RAISE_ONLY) - set(_row_ids(FAULTS))) == []


def direct_calls(suite) -> set[str]:
    """"module.qualified name" of each package function that `suite` calls
    from a frame of verify.py.  Code objects are named through
    `defined_functions`, since `co_qualname` is new in Python 3.11."""
    names = {key: name.replace(".py:", ".") for key, name in defined_functions().items()}
    verify_file = str(VERIFY_FILE)
    codes = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None and frame.f_back.f_code.co_filename == verify_file:
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        failures = verify.SUITES[suite]()
    finally:
        sys.setprofile(previous)
    assert failures == []
    package = VERIFY_FILE.parent
    return {
        names[path.name, code.co_firstlineno, code.co_name]
        for code in codes
        if (path := Path(code.co_filename)).parent == package and path != VERIFY_FILE
    }


def test_every_direct_call_is_covered():
    rows = {(suite, name) for suite, name, _ in FAULTS}
    called = {suite: direct_calls(suite) for suite in verify.SUITES}
    uncovered = sorted(
        (suite, name) for suite, names in called.items() for name in names
        if (suite, name) not in rows and name not in ALLOWLIST
    )
    assert uncovered == [], "direct calls with no row and no allowlist entry:\n" + _listed(uncovered)
    own = [name for _, name in rows if name.startswith("verify.")]
    stale = sorted((suite, name) for suite, name in rows if name not in called[suite] and name not in own)
    assert stale == [], "rows for functions that their suite does not call:\n" + _listed(stale)
    every = set().union(*called.values())
    unused = sorted(name for name in ALLOWLIST if name not in every)
    assert unused == [], "allowlist entries that no suite calls:\n" + _listed(unused)


def _listed(entries):
    """One entry a line, so that pytest's message shows every one."""
    return "\n".join(map(str, entries))
