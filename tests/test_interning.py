"""Invariants of the hash-consed term and formula nodes."""

import copy
import gc
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkit import (
    FALSE,
    App,
    Atom,
    Forall,
    Implies,
    Param,
    Structure,
    Term,
    Var,
    eval_formula,
    free_vars,
    has_params,
    min_rank,
)
from folkit import syntax
import reference_semantics as reference
from strategies import SIG3, SIG5, formulas, random_structure, terms

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


def test_an_evaluated_formula_leaves_the_table_without_a_collection():
    # the compiled code kept on a node refers to no node, so the node
    # still dies by reference count alone
    structure = Structure.make(SIG5, ("0", "probe"), {"g": {("0",): "probe", ("probe",): "0"}},
                               {"R": {("0", "probe")}})
    gc.collect()
    before = len(syntax._nodes)
    gc.disable()
    try:
        leaf = Param("probe")
        r = Atom("R", (App("g", (Var(1),)), leaf))
        top = Forall(Implies(r, Implies(Forall(r), Implies(Atom("eq", (Var(1), leaf)), FALSE))))
        assert eval_formula(top, structure, ()) is True
        assert len(syntax._nodes) > before
        probe = weakref.ref(top)
        del leaf, r, top
        assert probe() is None
        assert (Param, "probe") not in syntax._nodes
        assert len(syntax._nodes) == before
    finally:
        gc.enable()


def test_threads_evaluating_fresh_formulas_agree_with_the_reference():
    # every thread builds and evaluates the same fresh formulas in the same
    # order, so threads race to compile each node and store its code
    workers, count = 8, 60
    rng = random.Random(7)
    structures = [random_structure(rng, SIG5, rng.randint(1, 3)) for _ in range(6)]
    models = [reference.named_tables(s) for s in structures]
    envs = [tuple(rng.choice(s.domain) for _ in range(2)) for s in structures]
    barrier = threading.Barrier(workers)
    results: list[list] = [[] for _ in range(workers)]

    def build(i: int):
        t: Term = Var(i % 2 + 1)
        for _ in range(i):
            t = App("g", (t,))
        body = Implies(Atom("R", (t, Var(1))), Atom("eq", (Var(2), App("g", (t,)))))
        return Forall(Implies(body, Forall(Atom("R", (t, Var(i % 3 + 1))))))

    def evaluate(slot: int) -> None:
        barrier.wait(timeout=10)
        for i in range(count):
            f = build(i)
            results[slot].append([eval_formula(f, s, env) for s, env in zip(structures, envs)])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=evaluate, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    expected = [[reference.eval_formula(build(i), m, env) for m, env in zip(models, envs)]
                for i in range(count)]
    assert all(verdicts == expected for verdicts in results)


def test_a_failed_insert_leaves_no_reference_without_its_key(monkeypatch):
    # a node whose table insert fails dies at once; its reference must
    # already know its key, or _forget raises where nothing can catch it
    class FailOnce(dict):
        failed = False

        def __setitem__(self, key, value):
            if not FailOnce.failed:
                FailOnce.failed = True
                raise MemoryError
            super().__setitem__(key, value)

    gc.collect()  # no other node dies while the table is swapped
    unraisable: list = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    monkeypatch.setattr(syntax, "_nodes", FailOnce(syntax._nodes))
    with pytest.raises(MemoryError):
        Param("insert_fails")
    gc.collect()
    assert FailOnce.failed
    assert (Param, "insert_fails") not in syntax._nodes
    node = Param("insert_fails")
    assert Param("insert_fails") is node
    del node
    gc.collect()
    assert (Param, "insert_fails") not in syntax._nodes
    assert unraisable == []
