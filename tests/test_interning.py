"""Hash-consed type terms: one node per distinct term, held weakly."""

import copy
import gc
import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from generators import type_strategy
from hoq.type_ast import Arrow, Atom, Elementary, parse_type, print_canonical

TABLES = (Atom._table, Elementary._table, Arrow._table)


@given(type_strategy())
def test_parse_of_the_canonical_text_is_the_same_node(x):
    assert parse_type(print_canonical(x)) is x


# A small pool of atoms, so that two draws are often the same term.  Terms
# are described by nested tuples, rendered here without the package.
_ATOM = st.sampled_from([("A", 2), ("B", 2), ("A", 3), ("I", 1)])
_SHAPE = st.recursive(
    st.lists(_ATOM, min_size=1, max_size=2).map(lambda a: ("E", tuple(a))),
    lambda sub: st.tuples(st.just("A"), sub, sub),
    max_leaves=4,
)


def _build(shape):
    if shape[0] == "E":
        return Elementary(tuple(Atom(label, d) for label, d in shape[1]))
    return Arrow(_build(shape[1]), _build(shape[2]))


def _text(shape):
    if shape[0] == "E":
        return "*".join("I" if d == 1 else f"{label}:{d}" for label, d in shape[1])
    return f"({_text(shape[1])})->({_text(shape[2])})"


@given(_SHAPE, _SHAPE)
def test_two_terms_are_one_object_exactly_when_their_texts_agree(a, b):
    x, y = _build(a), _build(b)
    same_text = print_canonical(parse_type(_text(a))) == print_canonical(
        parse_type(_text(b))
    )
    assert (x is y) == same_text
    assert (x == y) == same_text
    assert parse_type(_text(a)) is x


def test_tables_shrink_once_the_last_reference_is_gone():
    # labels that no other test uses, so nothing else holds these nodes
    x = parse_type("(Zq:3*Zr->Zs:5)->(Zt->Zq:3*Zr)")
    grown = [len(t) for t in TABLES]
    del x
    gc.collect()
    assert all(len(t) < g for t, g in zip(TABLES, grown))
    assert ("Zq", 3) not in Atom._table


def test_a_late_callback_keeps_the_rebuilt_entry():
    key = ("Zu", 7)
    a = Atom(*key)
    old = Atom._table[key]
    del a
    gc.collect()
    assert key not in Atom._table
    b = Atom(*key)
    Atom._forget(old)  # the dead node's removal, arriving after the rebuild
    assert Atom._table[key]() is b
    assert Atom(*key) is b


@given(type_strategy())
def test_pickle_and_copy_return_the_interned_node(x):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(x, protocol)) is x
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    a = x.atoms[0] if isinstance(x, Elementary) else Atom("A", 3)
    assert pickle.loads(pickle.dumps(a)) is a
    assert copy.copy(a) is a and copy.deepcopy(a) is a


def test_nodes_are_immutable():
    x = parse_type("(A->B)->C")
    for node, name in [(x, "tail"), (x, "dims"), (x.head, "atoms"),
                       (x.head.atoms[0], "dim"), (x, "new_attribute")]:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    with pytest.raises(AttributeError):
        del x.head
    assert print_canonical(x) == "(A:2->B:2)->C:2"


REFUSED = [
    ("A:1", 2, ValueError),  # bad label
    ("1A", 2, ValueError),  # bad label
    ("A", 1, ValueError),
    ("I", 2, ValueError),
    ("A", 0, ValueError),
    ("I", True, TypeError),  # equals ("I", 1) as a key
    ("A", 2.0, TypeError),  # equals ("A", 2) as a key
    ("I", 1.0, TypeError),
    ("A", False, TypeError),
    ("A", np.int64(2), TypeError),
]


@pytest.mark.parametrize("label, dim, error", REFUSED)
def test_a_refused_atom_is_refused_on_every_call(label, dim, error):
    for _ in range(2):
        with pytest.raises(error):
            Atom(label, dim)
    valid = Atom("I", 1), Atom("A", 2)
    for _ in range(2):
        with pytest.raises(error):
            Atom(label, dim)
    assert Atom("I", 1) is valid[0] and Atom("A", 2) is valid[1]


def test_refused_layers_and_arrows():
    a = Atom("A", 2)
    with pytest.raises(ValueError):
        Elementary(())
    with pytest.raises(TypeError):
        Elementary(("A",))
    with pytest.raises(TypeError):
        Arrow(a, Elementary((a,)))  # an atom is not a type
    assert Elementary([a]) is Elementary((a,)) is parse_type("A:2")
