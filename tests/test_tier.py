"""The compiled evaluator: every formula that eval_formula evaluates runs
one generated Python function from its first evaluation, with the answers
and the errors of the tree walk and of the reference evaluator.

The test names keep the words of the evaluator the walk replaced, so that
their results stay comparable across versions: "the closures" is the walk,
a node that "keeps its closures" is one past the generator's limits, and
"tier up" is a node's first evaluation."""

import gc
import itertools
import random
import sys
import threading
import time
import traceback
import weakref
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from folkit import (
    EMPTY_THEORY,
    FALSE,
    App,
    Atom,
    EvalError,
    Forall,
    Implies,
    Param,
    Signature,
    Structure,
    Term,
    Var,
    eval_formula,
    find_countermodel,
    min_rank,
)
from folkit import _codegen, semantics
import reference_semantics as reference
from strategies import SIG3, SIG3EQ, SIG5, random_env, random_formula, random_structure

SMALL = Signature({"a": 0, "f": 1}, {"P": 1})  # SIG3 without g, Q and R
# (formula signature, structure signature): the last two leave tables out
PAIRS = ((SIG3, SIG3), (SIG3EQ, SIG3EQ), (SIG5, SIG5), (SIG3, SMALL), (SIG3EQ, SIG3))


def outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except EvalError as exc:
        return f"EvalError: {exc}"


def first_call(f, structure, env):
    """eval_formula's outcome on its first evaluation of f, which generates
    f's function, checked against the second, which runs it."""
    result = outcome(eval_formula, f, structure, env)
    assert outcome(eval_formula, f, structure, env) == result
    return result


def generated(f) -> bool:
    return getattr(f._code, "__name__", None) == "generated"


def walk(f):
    return partial(semantics._holds, f)


def encoded(structure, env):
    index = structure._index
    return (len(structure.domain), structure._fns, structure._preds, index,
            tuple(index[m] for m in env))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_generated_code_matches_the_closures_and_the_reference(seed):
    # parameters are sometimes outside the carrier, environments sometimes
    # short and tables sometimes missing, so the errors are compared too
    rng = random.Random(seed)
    sig, structure_sig = rng.choice(PAIRS)
    structure = random_structure(rng, structure_sig, rng.randint(1, 3))
    params = structure.domain + (("9",) if rng.random() < 0.2 else ())
    f = random_formula(rng, sig, 3, 3, params=params)
    env = random_env(rng, structure, rng.randint(0, 3))
    expected = outcome(reference.eval_formula, f, reference.named_tables(structure), env)
    assert first_call(f, structure, env) == expected
    assert generated(f)
    args = encoded(structure, env)
    assert outcome(walk(f), *args) == expected
    try:
        answer = f._code(*args)
    except (IndexError, KeyError):
        pass  # read on entry; eval_formula then returns the walk's outcome
    else:
        assert answer == expected


def test_generated_code_matches_the_closures_on_every_environment():
    rng = random.Random(18)
    structures = [random_structure(rng, SIG5, size) for size in (1, 2, 3) for _ in range(10)]
    checks = 0
    for _ in range(300):
        f = random_formula(rng, SIG5, 4, 3)
        fast = _codegen.generate(f)
        slow = walk(f)
        for structure in structures:
            for env in itertools.product(structure.domain, repeat=min_rank(f)):
                args = encoded(structure, env)
                assert fast(*args) == slow(*args), f
                checks += 1
    assert checks > 20_000


def test_loops_past_the_static_block_limit_keep_the_closures():
    # past the limit the node has no function and the walk answers;
    # R holds only at 0, so each loop goes deeper once and not 2**n times
    structure = Structure.make(SIG5, ("0", "1"), {"g": {("0",): "1", ("1",): "0"}},
                               {"R": {("0", "0")}})
    for loops, tiered in ((_codegen._MAX_LOOPS, True), (_codegen._MAX_LOOPS + 1, False)):
        # every quantifier's body reads its variable, so each is a loop
        f = Atom("eq", (Var(1), Var(1)))
        for _ in range(loops):
            f = Forall(Implies(Atom("R", (Var(1), Var(1))), f))
        assert first_call(f, structure, ()) is True
        assert generated(f) is tiered
        assert tiered or f._code is None


def test_a_formula_that_unfolds_exponentially_keeps_its_closures():
    # a DAG of 40 shared levels is a tree of 2**40 nodes; false on the left
    # decides each level at once, but no source can be written for it, so
    # the walk answers
    structure = Structure.make(SIG5, ("0",), {"g": {("0",): "0"}}, {})
    f = Atom("R", (Var(1), Var(2)))
    for _ in range(40):
        f = Implies(FALSE, Implies(f, f))
    start = time.perf_counter()
    assert first_call(f, structure, ("0", "0")) is True
    assert time.perf_counter() - start < 2
    assert f._code is None
    # the search checks each distinct node of it against the signature once
    start = time.perf_counter()
    assert find_countermodel(EMPTY_THEORY, f, SIG5, 1) is None
    assert time.perf_counter() - start < 2


def test_no_symbol_or_parameter_name_reaches_the_generated_code():
    sig = Signature({"gen_fn": 1}, {"gen_pred": 2})
    structure = Structure.make(sig, ("gen_a", "gen_b"),
                               {"gen_fn": {("gen_a",): "gen_b", ("gen_b",): "gen_a"}},
                               {"gen_pred": {("gen_a", "gen_b")}})
    a = Param("gen_a")
    f = Forall(Implies(Atom("gen_pred", (Var(1), App("gen_fn", (a,)))),
                       Forall(Atom("gen_pred", (App("gen_fn", (Var(1),)), Var(2))))))
    assert first_call(f, structure, ()) == reference.eval_formula(
        f, reference.named_tables(structure), ())
    assert generated(f)
    code = f._code.__code__
    names = {"gen_fn", "gen_pred", "gen_a", "gen_b"}
    assert not names & set(code.co_consts)
    assert not names & set(code.co_names)
    assert not names & set(code.co_varnames)
    assert set(f._code.__defaults__) == {"gen_fn/1", "gen_pred/2", "gen_a"}


class Interrupting(dict):
    def __getitem__(self, key):
        raise KeyboardInterrupt


def test_a_traceback_through_generated_code_can_be_formatted():
    # the generated code keeps the line table that compile makes; with
    # none, formatting any traceback through it failed
    structure = Structure.make(SIG5, ("0", "1"), {"g": {("0",): "1", ("1",): "0"}},
                               {"R": {("0", "1")}})
    f = Forall(Atom("R", (Var(1), App("g", (Var(2),)))))
    assert first_call(f, structure, ("0",)) is False
    assert generated(f)
    k, fns, preds, index, env = encoded(structure, ("0",))
    for bad_preds, raised in ((None, TypeError), (Interrupting(), KeyboardInterrupt)):
        try:
            f._code(k, fns, bad_preds, index, env)
        except raised:
            text = traceback.format_exc()
        else:
            raise AssertionError(f"{raised.__name__} not raised")
        assert 'File "<folkit generated>", line' in text and ", in generated" in text
        assert text.rstrip().splitlines()[-1].startswith(raised.__name__)


def test_a_tiered_node_still_dies_by_reference_count():
    structure = Structure.make(SIG5, ("0", "tier_probe"),
                               {"g": {("0",): "tier_probe", ("tier_probe",): "0"}},
                               {"R": {("0", "tier_probe"), ("tier_probe", "0")}})
    model = reference.named_tables(structure)
    gc.collect()
    gc.disable()
    try:
        leaf = Param("tier_probe")
        r = Atom("R", (App("g", (Var(1),)), Var(2)))
        top = Forall(Implies(r, Forall(Atom("eq", (Var(1), Var(2))))))
        top = Implies(Atom("R", (leaf, Var(1))), top)
        assert first_call(top, structure, ("0",)) == reference.eval_formula(top, model, ("0",))
        assert generated(top)
        probes = weakref.ref(top), weakref.ref(top._code)
        del leaf, r, top
        assert [probe() for probe in probes] == [None, None]
    finally:
        gc.enable()


def test_threads_racing_across_the_tier_up_agree_with_the_reference():
    # every thread evaluates the same fresh formulas in the same order, so
    # they race to generate each formula's function at its first evaluation
    workers, count, rounds = 8, 12, 3
    rng = random.Random(11)
    structures = [random_structure(rng, SIG5, rng.randint(1, 3)) for _ in range(6)]
    models = [reference.named_tables(s) for s in structures]
    envs = [tuple(rng.choice(s.domain) for _ in range(2)) for s in structures]
    barrier = threading.Barrier(workers)
    results: list[list] = [[] for _ in range(workers)]

    def build(i: int):
        t: Term = Var(i % 2 + 1)
        for _ in range(i + 5):
            t = App("g", (t,))
        body = Implies(Atom("R", (t, Var(1))), Atom("eq", (Var(2), App("g", (t,)))))
        return Forall(Implies(body, Forall(Atom("R", (t, Var(2))))))

    def evaluate(slot: int) -> None:
        barrier.wait(timeout=10)
        for i in range(count):
            f = build(i)
            verdicts = []
            for _ in range(rounds):
                verdicts.append([outcome(eval_formula, f, s, env)
                                 for s, env in zip(structures, envs)])
            results[slot].append((f, verdicts))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=evaluate, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(count):
        f = results[0][i][0]
        expected = [outcome(reference.eval_formula, f, m, env) for m, env in zip(models, envs)]
        for built, verdicts in (result[i] for result in results):
            assert built is f
            assert verdicts == [expected] * rounds
        assert generated(f)
