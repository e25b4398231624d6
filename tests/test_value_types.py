"""Value semantics of the slot-based records, checked against frozen
dataclass twins.

Each value type used to be a `@dataclass(frozen=True)`.  The twin built
here is that dataclass again: the same class name and the same fields,
declared in this file rather than read from the library, with the library
class's own methods (its custom repr among them) copied in.  Library
instances and twins built from the same field values must agree on `==`,
`hash` and `repr`, so set and dict order, and every printed output, are
those of the dataclasses.
"""

import copy
import dataclasses
import inspect
import pickle
import types
from fractions import Fraction
from itertools import product

import pytest

from ttspec import chow_motives as cm
from ttspec import graded_spectrum as gs
from ttspec import milnor_witt as mw
from ttspec import quadratic_forms as qf
from ttspec import tt_geometry as tt
from ttspec.finite_field import FieldElement, PrimePower, make_field, primitive_element

from helpers import lefschetz


# the fields of each former dataclass, in declaration order
FIELDS = {
    PrimePower: ("p", "e", "modulus"),
    FieldElement: ("field", "coeffs"),
    qf.DiagonalForm: ("field", "entries"),
    qf.WittClass: ("field", "parity", "disc"),
    mw.GroupShape: ("invariant_factors", "generators"),
    mw.KmwElement: ("field", "degree", "coords"),
    mw.SymbolWord: ("field", "text"),
    mw.MilnorKElement: ("field", "degree", "value"),
    gs.ReducedElement: ("degree", "coeff"),
    gs.HomogeneousPrime: ("generators", "discrepancy"),
    gs.SpecHSpace: ("points",),
    cm.ProjSpaceProduct: ("dims",),
    cm.ChowClass: ("space", "terms"),
    cm.Correspondence: ("source", "target", "shift", "cls"),
    cm.Motive: ("space", "projector", "twist"),
    tt.TateObject: ("slots",),
    tt.TateUniverse: ("twist_radius", "shift_radius"),
    tt.ThickTensorIdeal: ("universe", "lines"),
    tt.FiniteSpectralSpace: ("points", "specializes"),
}

# field defaults of the former dataclasses
DEFAULTS = {gs.HomogeneousPrime: {"discrepancy": False}}

# what the library class supplies itself, or what the dataclass generates
_NOT_COPIED = {"__slots__", "__init__", "__eq__", "__hash__", "__module__", "__qualname__",
               "__doc__", "_fields", "_key"}


def _twin(cls):
    namespace = {
        name: attr
        for name, attr in vars(cls).items()
        if name not in _NOT_COPIED and not isinstance(attr, types.MemberDescriptorType)
    }
    defaults = DEFAULTS.get(cls, {})
    fields = [
        (name, object, dataclasses.field(default=defaults[name])) if name in defaults else name
        for name in FIELDS[cls]
    ]
    if cls is PrimePower:
        fields.append(("_q", int, dataclasses.field(
            init=False, compare=False, repr=False, hash=False)))
        fields.append(("_cache", dict, dataclasses.field(
            default_factory=dict, compare=False, repr=False, hash=False)))
        namespace["__post_init__"] = lambda self: object.__setattr__(self, "_q", self.p ** self.e)
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


TWINS = {cls: _twin(cls) for cls in FIELDS}


def _as_twin(obj):
    cls = type(obj)
    return TWINS[cls](*(getattr(obj, name) for name in FIELDS[cls]))


def _samples():
    f3, f5, f9 = make_field(3), make_field(5), make_field(3, 2)
    fresh_f3 = PrimePower(3, 1, (0, 1))  # equal to f3, empty cache
    primitive_element(f3)  # fills f3's cache
    form = qf.diagonal(f5, [1, 2])
    p1, p2 = cm.parse_space("P1"), cm.parse_space("P2")
    line = tt.tate_line(1, 0)
    universe = tt.TateUniverse(2, 1)
    return {
        PrimePower: [f3, fresh_f3, f5, f9],
        FieldElement: [f5.from_index(2), FieldElement(f5, (2,)), f5.from_index(3),
                       f9.from_index(4), FieldElement(fresh_f3, (1,)), f3.one()],
        qf.DiagonalForm: [form, qf.diagonal(f5, [1, 2]), qf.diagonal(f5, [2, 1]),
                          qf.diagonal(f9, [1, 1, 1])],
        qf.WittClass: [qf.witt_class(form), qf.witt_class(qf.diagonal(f5, [1, 2])),
                       qf.witt_class(qf.diagonal(f5, [1])), qf.WittClass(f5, 0, 0)],
        mw.GroupShape: [mw.kmw_group(f3, n) for n in (-1, 0, 1, 2)]
        + [mw.kmw_group(f5, -1), mw.kmw_group(f5, 0)],
        mw.KmwElement: [mw.eta(f3), mw.KmwElement(f3, -1, (5,)), mw.kmw_one(f5),
                        mw.KmwElement(f3, 1, (3,)), mw.hyperbolic_kmw(f9)],
        mw.SymbolWord: [mw.word(f5, (2, 0, []), (1, 1, [-1])), mw.word(f5, (2, 0, []), (1, 1, [4])),
                        mw.SymbolWord(f5, "2 + eta^1 [4]"), mw.word(f5, (1, 2, [])),
                        mw.word(f9, (2, 1, [f9.from_index(4)])), mw.SymbolWord(f9, "h")],
        mw.MilnorKElement: [mw.MilnorKElement(f5, 0, 3), mw.MilnorKElement(f5, 0, 3),
                            mw.MilnorKElement(f5, 1, f5.element(2)),
                            mw.MilnorKElement(f5, 2, None)],
        gs.ReducedElement: [gs.ReducedElement(0, 3), gs.ReducedElement(-1, 3),
                            gs.ReducedElement(-1, 1), gs.ReducedElement(-2, 1)],
        gs.HomogeneousPrime: [gs.HomogeneousPrime(frozenset({"[w]", "eta"})),
                              gs.HomogeneousPrime(frozenset({"[w]", "eta"}), discrepancy=True),
                              gs.HomogeneousPrime(generators=frozenset({"[w]", "eta"}))],
        gs.SpecHSpace: [gs.enumerate_primes(7), gs.enumerate_primes(7), gs.enumerate_primes(5)],
        cm.ProjSpaceProduct: [p1, cm.ProjSpaceProduct([1]), p2, cm.POINT,
                              cm.parse_space("P1xP2")],
        cm.ChowClass: [cm.identity_correspondence(p1).cls, cm.identity_correspondence(p1).cls,
                       cm.monomial_class(p2, (1,), Fraction(1, 2)), cm.monomial_class(p2, (2,))],
        cm.Correspondence: [cm.identity_correspondence(p1), cm.identity_correspondence(p1),
                            cm.identity_correspondence(p2)],
        cm.Motive: [lefschetz(0), lefschetz(1), lefschetz(1),
                    cm.Motive(p1, cm.identity_correspondence(p1), 2)],
        tt.TateObject: [line, tt.tate_line(1, 0), tt.TateObject.from_dict({(1, 0): 2}),
                        tt.TateObject.from_dict({})],
        tt.TateUniverse: [universe, tt.TateUniverse(2, 1), tt.TateUniverse(-1, 0)],
        tt.ThickTensorIdeal: [tt.ideal_closure([line], universe), tt.ideal_closure([], universe),
                              tt.ideal_closure([line], tt.TateUniverse(2, 1))],
        tt.FiniteSpectralSpace: [tt.FiniteSpectralSpace.from_edges("ab", [("a", "b")]),
                                 tt.FiniteSpectralSpace.from_edges("ab", [("a", "b")]),
                                 tt.spc_shtop(2, 1)],
    }


SAMPLES = _samples()


def test_every_value_type_has_samples():
    assert set(SAMPLES) == set(FIELDS)
    assert len(FIELDS) == 19


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_matches_frozen_dataclass_twin(cls):
    samples = SAMPLES[cls]
    assert all(type(x) is cls for x in samples)
    twins = [_as_twin(x) for x in samples]
    equal_pairs = 0
    for (a, ta), (b, tb) in product(zip(samples, twins), repeat=2):
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)
        equal_pairs += a == b
    assert equal_pairs > len(samples), "the samples should hold an equal, distinct pair"
    for a, ta in zip(samples, twins):
        assert repr(a) == repr(ta)
        assert a.__eq__("other") is NotImplemented
        assert ta.__eq__("other") is NotImplemented
        try:
            want = hash(ta)
        except TypeError:  # a field holds a dict or list
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == want


def test_values_of_different_classes_are_unequal():
    universe, reduced = tt.TateUniverse(-1, 1), gs.ReducedElement(-1, 1)
    assert universe != reduced and universe.__eq__(reduced) is NotImplemented
    everything = [x for samples in SAMPLES.values() for x in samples] + [universe, reduced]
    for a, b in product(everything, repeat=2):
        if type(a) is not type(b):
            assert a != b and not a == b


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_immutable(cls):
    obj = SAMPLES[cls][0]
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters
    twin_params = inspect.signature(TWINS[cls]).parameters
    assert list(params) == list(FIELDS[cls])
    for name in params:
        assert params[name].default == twin_params[name].default


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_copy_and_pickle_round_trip(cls):
    for obj in SAMPLES[cls]:
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(clone) is cls
            assert clone == obj


def test_prime_power_cache_is_not_a_field():
    f3 = make_field(3)
    primitive_element(f3)  # fills f3's cache
    fresh = PrimePower(3, 1, (0, 1))
    assert f3._cache and not fresh._cache
    assert f3 == fresh and hash(f3) == hash(fresh) == hash((3, 1, (0, 1)))
    assert repr(f3) == repr(fresh)
    assert fresh._cache is not PrimePower(3, 1, (0, 1))._cache
    with pytest.raises(AttributeError):
        f3._cache = {}


def test_prime_power_q_is_stored_and_not_a_field():
    for field in (make_field(3), make_field(3, 5), PrimePower(5, 2, (2, 0, 1))):
        for clone in (field, copy.copy(field), pickle.loads(pickle.dumps(field))):
            assert clone._q == clone.q == field.p ** field.e
    assert "_q" not in PrimePower._fields and "q=" not in repr(make_field(3, 5))
    with pytest.raises(AttributeError):
        make_field(3)._q = 4
