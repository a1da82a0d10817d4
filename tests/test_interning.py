"""Invariants of the hash-consed term and formula nodes."""

import copy
import gc
import pickle
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkit import (
    App,
    Atom,
    Forall,
    Implies,
    Param,
    Term,
    Var,
    free_vars,
    has_params,
    min_rank,
)
from folkit import syntax
from strategies import SIG3, formulas, terms

PARAMS = ("m", "k")
DATA = st.one_of(terms(SIG3, params=PARAMS), formulas(SIG3, params=PARAMS))


def rebuild(d):
    """Build d again from its fields, node by node, bottom up."""
    if isinstance(d, Var):
        return Var(d.index)
    if isinstance(d, Param):
        return Param(d.name)
    if isinstance(d, App):
        return App(d.symbol, tuple(rebuild(a) for a in d.args))
    if isinstance(d, Atom):
        return Atom(d.symbol, tuple(rebuild(a) for a in d.args))
    if isinstance(d, Implies):
        return Implies(rebuild(d.lhs), rebuild(d.rhs))
    return Forall(rebuild(d.body))


def shape(d):
    """The tree as nested tuples of plain values: the structural oracle."""
    if isinstance(d, Var):
        return ("Var", d.index)
    if isinstance(d, Param):
        return ("Param", d.name)
    if isinstance(d, (App, Atom)):
        return (type(d).__name__, d.symbol, tuple(shape(a) for a in d.args))
    if isinstance(d, Implies):
        return ("Implies", shape(d.lhs), shape(d.rhs))
    return ("Forall", shape(d.body))


def params_walk(d) -> bool:
    """Whether a parameter occurs in d, found by walking the tree."""
    if isinstance(d, Param):
        return True
    if isinstance(d, Var):
        return False
    if isinstance(d, (App, Atom)):
        return any(params_walk(a) for a in d.args)
    if isinstance(d, Implies):
        return params_walk(d.lhs) or params_walk(d.rhs)
    return params_walk(d.body)


@given(DATA)
@settings(max_examples=300)
def test_rebuilding_yields_the_same_object(d):
    assert rebuild(d) is d


@given(DATA, DATA)
@settings(max_examples=300)
def test_equality_is_identity(a, b):
    assert (a == b) is (a is b)
    assert (shape(a) == shape(b)) is (a is b)


@given(DATA)
@settings(max_examples=300)
def test_cached_rank_matches_free_variables(d):
    assert d.min_rank == min_rank(d) == max(free_vars(d), default=0)


@given(DATA)
@settings(max_examples=300)
def test_cached_parameter_flag_matches_the_walker(d):
    assert d.has_params is has_params(d) is params_walk(d)


@given(DATA)
@settings(max_examples=100)
def test_pickle_and_copy_preserve_identity(d):
    assert pickle.loads(pickle.dumps(d)) is d
    assert copy.copy(d) is d
    assert copy.deepcopy(d) is d
    assert copy.deepcopy([d, d]) == [d, d]


def test_nodes_are_immutable():
    t = App("f", [Var(1)])
    assert t.args == (Var(1),)
    for name, value in (("symbol", "g"), ("args", ()), ("min_rank", 0)):
        with pytest.raises(AttributeError):
            setattr(t, name, value)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert repr(Forall(Atom("P", (t, Param("m"))))) == (
        "Forall(body=Atom(symbol='P', args=(App(symbol='f', args=(Var(index=1),)), "
        "Param(name='m'))))"
    )


def test_unreferenced_nodes_leave_the_table():
    gc.collect()
    before = len(syntax._nodes)
    leaf = Param("gc_probe")
    top = Forall(Implies(Atom("P", (App("f", (leaf,)),)), Atom("P", (leaf,))))
    assert len(syntax._nodes) >= before + 6
    probe = weakref.ref(top)
    del leaf, top
    gc.collect()
    assert probe() is None
    assert (Param, "gc_probe") not in syntax._nodes
    assert len(syntax._nodes) == before


def test_threads_building_the_same_formulas_share_one_object_each():
    # fresh symbols, so that every construction takes the locked miss path
    workers, count = 8, 200
    barrier = threading.Barrier(workers)
    results: list[list] = [[] for _ in range(workers)]

    def build(slot: int) -> None:
        barrier.wait(timeout=10)
        for i in range(count):
            t: Term = App("f", (Param(f"race{i}"), Var(i + 1)))
            results[slot].append(Forall(Implies(Atom("P", (t,)), Atom("Q", (t, t)))))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(built) == count for built in results)
    for i in range(count):
        first = results[0][i]
        assert all(built[i] is first for built in results)
        t = first.body.lhs.args[0]
        assert first.body.rhs.args == (t, t)
