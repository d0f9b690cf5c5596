"""The value-type contract shared by the engine's ten immutable classes.

Each class is compared on its fields alone, in constructor order: the
attributes derived from them (``rank``, ``doubled``, ``row_maps``,
``gram``, ``scaled``, ``shift``, ``row_map``, ``text``, ``values``) take no
part in equality, hash or repr.  Instances of another class compare as NotImplemented.
The hash is the hash of the field tuple, so set and dict order is that
of the tuples.  Attributes can be neither assigned nor deleted.  Copies
and pickles call the constructor on the field tuple, so they recompute
the derived attributes, and a tampered pickle is refused as the
constructor refuses its arguments.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from b2weyl.algebra import (UNIT_WEIGHTS, ZERO, Frozen, MassVector, ReflectionSystem, Weights,
                            _word_map, apply_word, scaled_values)
from b2weyl.cascade import CascadeState, Collapse, SatelliteMerge
from b2weyl.orbit import MembershipCertificate, OrbitElement
from b2weyl.weyl2 import NaturalityCertificate, Subsystem

F = Fraction
RANK_ONE = ((F(1),),)
HALF = Weights((F(1, 2), F(1), F(3)))

# (class, keyword arguments in constructor order, derived attributes, repr)
CASES = [
    (ReflectionSystem, {"name": "r1", "cartan": RANK_ONE, "symmetrizer": (1,)},
     ("rank", "doubled", "row_maps", "gram"),
     "ReflectionSystem(name='r1', cartan=((Fraction(1, 1),),), symmetrizer=(1,))"),
    (Weights, {"values": (F(1, 2), F(1), F(3))}, ("scaled",),
     "Weights(values=(Fraction(1, 2), Fraction(1, 1), Fraction(3, 1)))"),
    (MassVector, {"coeff": ((4, 0), (0, 8))}, (), "MassVector(coeff=((4, 0), (0, 8)))"),
    (OrbitElement, {"sigma": MassVector(((4,),)), "level": 1, "word": (1,)}, (),
     "OrbitElement(sigma=MassVector(coeff=((4,),)), level=1, word=(1,))"),
    (MembershipCertificate, {"nonneg": True, "div4": False, "quadric_zero": False}, (),
     "MembershipCertificate(nonneg=True, div4=False, quadric_zero=False)"),
    (SatelliteMerge, {"mass": (4, 8, 0)}, ("shift", "text"), "SatelliteMerge(mass=(4, 8, 0))"),
    (Collapse, {"subset": (1, 3), "variant": "i3"}, ("row_map", "text"),
     "Collapse(subset=(1, 3), variant='i3')"),
    (CascadeState, {"gamma": ZERO, "lattice": (1, 2, 3), "probe": HALF}, ("values",),
     "CascadeState(gamma=MassVector(coeff=((0, 0, 0), (0, 0, 0), (0, 0, 0))), "
     "lattice=(1, 2, 3), probe=Weights(values=(Fraction(1, 2), Fraction(1, 1), "
     "Fraction(3, 1))))"),
    (Subsystem, {"name": "s1", "cartan": RANK_ONE, "symmetrizer": (1,), "expected_size": 2},
     ("rank", "doubled", "row_maps", "gram"),
     "Subsystem(name='s1', cartan=((Fraction(1, 1),),), symmetrizer=(1,), expected_size=2)"),
    (NaturalityCertificate,
     {"tuples": ((0, 4),), "all_nonnegative": True, "all_multiples_of_four": True}, (),
     "NaturalityCertificate(tuples=((0, 4),), all_nonnegative=True, "
     "all_multiples_of_four=True)"),
]
IDS = [case[0].__name__ for case in CASES]
parametrize = pytest.mark.parametrize("cls,kwargs,derived,text", CASES, ids=IDS)


def field_tuple(x, kwargs):
    return tuple(getattr(x, name) for name in kwargs)


def test_every_value_type_is_covered():
    subclasses, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            subclasses.add(sub)
            todo.append(sub)
    assert {case[0] for case in CASES} == subclasses and len(subclasses) == 10


@parametrize
def test_keyword_and_positional_construction_agree(cls, kwargs, derived, text):
    x = cls(**kwargs)
    assert x == cls(*kwargs.values())
    assert field_tuple(x, kwargs) == tuple(kwargs.values())


@parametrize
def test_hash_is_the_hash_of_the_field_tuple(cls, kwargs, derived, text):
    x = cls(**kwargs)
    assert hash(x) == hash(field_tuple(x, kwargs))
    assert hash(x) == hash(cls(**kwargs))


@parametrize
def test_repr(cls, kwargs, derived, text):
    assert repr(cls(**kwargs)) == text


@parametrize
def test_equality_ignores_the_derived_attributes(cls, kwargs, derived, text):
    x = cls(**kwargs)
    for name in derived:
        patched = copy.copy(x)
        object.__setattr__(patched, name, object())
        assert patched == x and not patched != x
        assert hash(patched) == hash(x) and repr(patched) == repr(x)


@parametrize
def test_another_class_is_not_implemented(cls, kwargs, derived, text):
    x = cls(**kwargs)
    assert x.__eq__(field_tuple(x, kwargs)) is NotImplemented
    assert x != field_tuple(x, kwargs)
    assert x.__eq__(object()) is NotImplemented


def test_a_subsystem_is_not_equal_to_its_reflection_system():
    base = ReflectionSystem("s1", RANK_ONE, (1,))
    sub = Subsystem("s1", RANK_ONE, (1,), 2)
    assert base.__eq__(sub) is NotImplemented and sub.__eq__(base) is NotImplemented
    assert base != sub


@parametrize
def test_attributes_can_be_neither_assigned_nor_deleted(cls, kwargs, derived, text):
    x = cls(**kwargs)
    for name in (*kwargs, *derived, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle{p}": (lambda x, p=p: pickle.loads(pickle.dumps(x, p)))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
@parametrize
def test_copies_and_pickles_keep_every_attribute(cls, kwargs, derived, text, trip):
    x = cls(**kwargs)
    y = trip(x)
    assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == text
    for name in derived:
        assert getattr(y, name) == getattr(x, name)
    with pytest.raises(AttributeError):
        setattr(y, next(iter(kwargs)), None)


DERIVING = [case for case in CASES if case[2]]


@pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
@pytest.mark.parametrize("cls,kwargs,derived,text", DERIVING,
                         ids=[case[0].__name__ for case in DERIVING])
def test_copies_and_pickles_recompute_the_derived_attributes(cls, kwargs, derived, text, trip):
    for name in derived:
        patched = cls(**kwargs)
        object.__setattr__(patched, name, "patched")
        assert getattr(trip(patched), name) == getattr(cls(**kwargs), name) != "patched"


def tampered_pickle(x, old: bytes, new: bytes) -> bytes:
    """``x`` pickled with protocol 0, its one ``old`` replaced by ``new``."""
    data = pickle.dumps(x, 0)
    assert data.count(old) == 1
    return data.replace(old, new)


@pytest.mark.parametrize("data,detail", [
    (tampered_pickle(Collapse((1, 3), "i3"), b"Vi3\n", b"Vzz\n"), "needs a variant"),
    (tampered_pickle(MassVector(((4, 0), (0, 8))), b"I8\n", b"I8\nI9\n"),
     "coefficient matrix must be 2x2"),
], ids=["Collapse-bad-variant", "MassVector-not-square"])
def test_a_tampered_pickle_is_refused_at_load(data, detail):
    with pytest.raises(ValueError, match=detail):
        pickle.loads(data)


def test_a_state_derives_its_values():
    for gamma in (ZERO, apply_word(ZERO, (3, 1)), apply_word(ZERO, (1, 3, 2, 3))):
        for lattice, probe in (((0, 0, 0), UNIT_WEIGHTS), ((1, 2, 3), HALF)):
            state = CascadeState(gamma, lattice, probe)
            assert state.values == scaled_values(gamma, probe)[0]
    with pytest.raises(TypeError):
        CascadeState(values=(9, 9, 9))  # type: ignore[call-arg]


def test_defaults_and_derived_values():
    assert CascadeState() == CascadeState(ZERO, (0, 0, 0), UNIT_WEIGHTS)
    assert CascadeState(lattice=(1, 2, 3), probe=HALF).values == (0, 0, 0)
    assert Collapse((2,)).variant is None
    assert Collapse((3, 1), "i3").subset == (1, 3)
    assert HALF.scaled == ((1, 2, 6), 2)
    assert SatelliteMerge((4, 8, 0)).shift == (1, 2, 0)
    assert SatelliteMerge((1, 2, 3)).shift is None
    assert SatelliteMerge((1, 2, 3)).text == "merge 1 2 3"
    assert Collapse((2,)).text == "collapse 2"
    assert Collapse((3, 1), "i3").text == "collapse 13 i3"
    assert Collapse((3, 1), "i3").row_map == _word_map((3, 1))
    system = ReflectionSystem("r1", RANK_ONE, (1,))
    assert (system.rank, system.doubled, system.row_maps, system.gram) == (
        1, ((2,),), (((0, -1),),), ((1,),))
