import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkit import (
    DEFAULT_CEILING,
    EMPTY_THEORY,
    FALSE,
    MAX_DEPTH,
    App,
    Atom,
    EvalError,
    Forall,
    Implies,
    Param,
    ParseError,
    SearchLimit,
    Signature,
    Structure,
    Theory,
    Var,
    count_structures,
    enumerate_structures,
    eval_formula,
    eval_term,
    find_countermodel,
    forall_n,
    free_vars,
    induced_valuation_check,
    instantiate,
    is_axiom,
    min_rank,
    parse_model,
    print_model,
    shift_up,
    subst_formula,
    subst_term,
    syntax,
)
import reference_semantics as reference
from reference_semantics import AtomicValuation, herbrand_eval
from strategies import (
    SIG3,
    SIG3EQ,
    SIG4,
    SIG5,
    max_index,
    random_axiom_instance,
    random_env,
    random_formula,
    random_structure,
    random_substitution,
    random_term,
)

MOD2 = Signature({"plus": 2}, {"P": 1})
PLUS_TABLE = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}


def mod2_structure(p_elems=("0",)):
    return Structure.make(
        MOD2, ("0", "1"), {"plus": PLUS_TABLE}, {"P": {(m,) for m in p_elems}}
    )


class TestEvalTerm:
    def test_table_lookup(self):
        s = mod2_structure()
        assert eval_term(App("plus", (Var(1), Var(2))), s, ("1", "1")) == "0"

    def test_parameters_evaluate_to_themselves(self):
        s = mod2_structure()
        assert eval_term(Param("1"), s, ()) == "1"

    def test_env_too_short(self):
        with pytest.raises(EvalError):
            eval_term(Var(1), mod2_structure(), ())

    def test_parameter_outside_carrier(self):
        with pytest.raises(EvalError):
            eval_term(Param("9"), mod2_structure(), ())

    def test_environment_element_outside_carrier(self):
        s = mod2_structure()
        with pytest.raises(EvalError, match="'7' is not a carrier element"):
            eval_term(Var(1), s, ("7",))
        with pytest.raises(EvalError, match="'7' is not a carrier element"):
            eval_formula(Atom("P", (Var(1),)), s, ("0", "7"))


class TestEvalFormula:
    def test_quantifier_needs_every_element(self):
        assert eval_formula(Forall(Atom("P", (Var(1),))), mod2_structure(("0",)), ()) is False
        assert eval_formula(Forall(Atom("P", (Var(1),))), mod2_structure(("0", "1")), ()) is True

    def test_falsum_is_false(self):
        assert eval_formula(FALSE, mod2_structure(), ()) is False

    def test_material_implication(self):
        s = mod2_structure(("0",))
        p0 = Atom("P", (Param("0"),))
        p1 = Atom("P", (Param("1"),))
        assert eval_formula(Implies(p1, p0), s, ()) is True
        assert eval_formula(Implies(p0, p1), s, ()) is False


class TestCompiledEvaluator:
    """The compiled evaluator raises where the reference walk raises: when
    evaluation reaches the failing node, and never on a branch it skips."""

    def outcomes(self, f, structure, env):
        model = reference.named_tables(structure)
        return (_outcome(eval_formula, f, structure, env),
                _outcome(reference.eval_formula, f, model, env))

    def test_short_environment_reached_only_under_a_binder(self):
        s = mod2_structure()
        for f in (Forall(Atom("P", (Var(2),))),
                  Forall(Atom("P", (App("plus", (Var(1), Var(3))),))),
                  Forall(Forall(Implies(Atom("P", (Var(2),)), Atom("P", (Var(4),)))))):
            ours, theirs = self.outcomes(f, s, ())
            assert ours == theirs and ours.startswith("EvalError: environment of length")
            assert eval_formula(f, s, ("0", "0", "0")) == reference.eval_formula(
                f, reference.named_tables(s), ("0", "0", "0"))

    def test_errors_on_a_branch_never_taken_are_not_raised(self):
        s = mod2_structure(("0",))
        p0 = Atom("P", (Param("0"),))
        for unreached in (Atom("P", (Var(5),)), Atom("P", (Param("9"),)),
                          Atom("Q", ()), Atom("P", (App("h", (Var(1),)),)), Var(1)):
            for f in (Implies(FALSE, unreached), Implies(unreached, p0),
                      Forall(Implies(Atom("P", (Var(1),)), Implies(FALSE, unreached)))):
                ours, theirs = self.outcomes(f, s, ())
                assert ours == theirs
        assert eval_formula(Implies(FALSE, Atom("P", (Var(5),))), s, ()) is True

    def test_forall_over_a_body_of_rank_0(self):
        p0 = Atom("P", (Param("0"),))
        for p_elems in ((), ("0",), ("1",), ("0", "1")):
            s = mod2_structure(p_elems)
            for f in (Forall(p0), Forall(Forall(p0)), Forall(Implies(p0, FALSE)),
                      Forall(Atom("P", (Param("9"),))), Forall(Param("0"))):
                ours, theirs = self.outcomes(f, s, ("1",))
                assert ours == theirs
        assert eval_formula(Forall(p0), mod2_structure(("0",)), ()) is True
        assert eval_formula(Forall(p0), mod2_structure(("1",)), ()) is False

    def test_deep_nesting_is_refused_when_built(self):
        # no tree deeper than MAX_DEPTH can be built, so none reaches the evaluator
        atom = Atom("P", (Var(1),))
        chain, term = atom, Var(1)
        with pytest.raises(ValueError, match="nested too deeply"):
            for _ in range(3000):
                chain = Implies(atom, chain)
        with pytest.raises(ValueError, match="nested too deeply"):
            for _ in range(3000):
                term = App("plus", (term, Var(1)))
        assert chain.depth == term.depth == MAX_DEPTH
        assert (Implies, atom, chain) not in syntax._nodes
        assert (App, "plus", (term, Var(1))) not in syntax._nodes
        assert eval_formula(chain, mod2_structure(), ("0",)) is True


class TestStructureInvariants:
    def test_carrier_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Structure.make(MOD2, (), {"plus": {}}, {})

    def test_function_tables_must_be_total(self):
        bad = dict(PLUS_TABLE)
        del bad[("1", "1")]
        with pytest.raises(ValueError):
            Structure.make(MOD2, ("0", "1"), {"plus": bad}, {})

    def test_falsum_table_is_fixed(self):
        with pytest.raises(ValueError):
            Structure.make(MOD2, ("0", "1"), {"plus": PLUS_TABLE}, {"false": {()}})

    def test_equality_is_identity(self):
        s = random_structure(random.Random(0), SIG5, 2)
        assert s.pred_tables["eq"] == frozenset({("0", "0"), ("1", "1")})

    def test_make_copies_its_tables(self):
        g = {("0",): "1", ("1",): "0"}
        r = {("0", "1")}
        s = Structure.make(SIG5, ("0", "1"), {"g": g}, {"R": r})
        g[("0",)] = "0"
        r.add(("1", "1"))
        assert s.fn_tables["g"] == {("0",): "1", ("1",): "0"}
        assert s.pred_tables["R"] == frozenset({("0", "1")})
        assert eval_formula(Atom("R", (Param("1"), Param("1"))), s, ()) is False

    def test_large_predicate_arity_encodes_only_the_members(self):
        # the carrier has 3**12 = 531,441 rows of arity 12; only the two
        # members may be encoded
        sig = Signature({"c": 0}, {"P": 12})
        rows = {("a",) * 12, ("a",) * 11 + ("c",)}
        tracemalloc.start()
        start = time.perf_counter()
        try:
            s = Structure.make(sig, ("a", "b", "c"), {"c": {(): "b"}}, {"P": rows})
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 100_000
        assert s._preds["P"] == frozenset({0, 2})
        env = ("a",)
        assert eval_formula(Atom("P", (Var(1),) * 12), s, env) is True
        assert eval_formula(Atom("P", (Var(1),) * 11 + (App("c"),)), s, env) is False
        with pytest.raises(ValueError, match="bad entry"):
            Structure.make(sig, ("a", "b"), {"c": {(): "b"}}, {"P": {("a",) * 11}})
        with pytest.raises(ValueError, match="bad entry"):
            Structure.make(sig, ("a", "b"), {"c": {(): "b"}}, {"P": {("a",) * 11 + ("z",)}})

    def test_large_predicate_arity_decodes_only_the_members(self):
        # print_model reads pred_tables, which decodes each member's
        # position; it must never list the carrier's 3**12 rows
        sig = Signature({}, {"P": 12})
        s = Structure.make(sig, ("0", "1", "2"), {}, {"P": {("2", "0", "1") * 4}})
        tracemalloc.start()
        start = time.perf_counter()
        try:
            text = print_model(s)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 1_000_000
        assert text == "domain 0 1 2\npred P: " + " ".join(("2", "0", "1") * 4) + "\n"

    def test_hashable_and_equal_by_content(self):
        first = mod2_structure(("0",))
        second = mod2_structure(("0",))
        assert first == second and hash(first) == hash(second)
        assert first != mod2_structure(("1",))
        assert len({first, second, mod2_structure(("1",))}) == 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_semantic_substitution_lemma(seed):
    rng = random.Random(seed)
    structure = random_structure(rng, SIG3, rng.randint(1, 3))
    a = random_formula(rng, SIG3, 3, 3, params=structure.domain)
    sigma = random_substitution(rng, SIG3, 3, 3, params=structure.domain)
    rank = min_rank(a)
    need = max([max_index(sigma.entry(i)) for i in range(1, rank + 1)], default=0)
    env = random_env(rng, structure, need)
    env_image = tuple(eval_term(sigma.entry(i), structure, env) for i in range(1, rank + 1))
    assert eval_formula(subst_formula(a, sigma), structure, env) == eval_formula(
        a, structure, env_image
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_environment_locality(seed):
    rng = random.Random(seed)
    structure = random_structure(rng, SIG3, rng.randint(1, 3))
    a = random_formula(rng, SIG3, 3, 3, params=structure.domain)
    env = random_env(rng, structure, min_rank(a))
    padded = env + random_env(rng, structure, rng.randint(1, 3))
    assert eval_formula(a, structure, env) == eval_formula(a, structure, padded)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_shift_coherence(seed):
    rng = random.Random(seed)
    structure = random_structure(rng, SIG3, rng.randint(1, 3))
    a = random_formula(rng, SIG3, 3, 3, params=structure.domain)
    env = random_env(rng, structure, min_rank(a))
    m = rng.choice(structure.domain)
    assert eval_formula(shift_up(a), structure, (m,) + env) == eval_formula(
        a, structure, env
    )


def test_equality_axioms_hold_in_every_structure():
    rng = random.Random(3)
    instances = [
        random_axiom_instance(rng, SIG5, schema, max_var=2, meta_depth=0)
        for schema in ("A7", "A8")
        for _ in range(10)
    ]
    for size in (1, 2):
        for structure in enumerate_structures(SIG5, size):
            for f in instances:
                env = tuple(structure.domain[0] for _ in range(min_rank(f)))
                assert eval_formula(f, structure, env)


class TestAudit:
    def test_random_batches_pass(self):
        rng = random.Random(9)
        for _ in range(20):
            structure = random_structure(rng, SIG5, rng.randint(1, 3))
            env = random_env(rng, structure, 2)
            samples = [
                random_formula(rng, SIG5, 2, 2, params=structure.domain)
                for _ in range(5)
            ]
            samples += [Forall(random_formula(rng, SIG5, 1, 2)), Implies(samples[0], samples[1])]
            terms = [Var(1), App("g", (Var(2),))]
            report = induced_valuation_check(structure, env, samples, terms)
            assert report.ok, report.summary()

    def test_reflexivity_instances_are_audited(self):
        structure = random_structure(random.Random(1), SIG5, 2)
        report = induced_valuation_check(
            structure, ("0",), [Forall(Atom("eq", (Var(1), Var(1))))], []
        )
        assert report.ok
        assert report.conditions[3].checked > 0

    def test_closure_work_past_the_ceiling_evaluates_nothing(self):
        calls = []

        def recording(f, structure, env):
            calls.append(f)
            return eval_formula(f, structure, env)

        structure = random_structure(random.Random(1), SIG5, 2)
        sample = Atom("R", (Var(1), Var(25)))
        with pytest.raises(SearchLimit):
            induced_valuation_check(structure, ("0", "1"), [sample], [], eval_fn=recording)
        assert calls == []
        # a rank the ceiling admits is audited as before
        report = induced_valuation_check(
            structure, ("0", "1"), [Atom("R", (Var(1), Var(3)))], [], eval_fn=recording
        )
        assert report.ok and calls

    def test_broken_quantifier_caught_by_instantiation(self):
        def broken(f, structure, env):
            ty = type(f)
            if ty is Atom:
                return tuple(eval_term(a, structure, env) for a in f.args) in structure.pred_tables[f.symbol]
            if ty is Implies:
                return (not broken(f.lhs, structure, env)) or broken(f.rhs, structure, env)
            return all(
                broken(f.body, structure, (m,) + tuple(env))
                for m in structure.domain[:-1]
            )

        structure = Structure.make(
            SIG5, ("0", "1"), {"g": {("0",): "0", ("1",): "0"}}, {"R": {("0", "0")}}
        )
        sample = Forall(Atom("R", (Var(1), Var(1))))
        report = induced_valuation_check(structure, (), [sample], [], eval_fn=broken)
        assert not report.conditions[2].ok
        assert not report.ok


SIG_P = Signature({}, {"P": 1})


class TestCountermodel:
    def test_smallest_refutation_golden(self):
        found = find_countermodel(EMPTY_THEORY, Forall(Atom("P", (Var(1),))), SIG_P, 1)
        assert found is not None
        structure, env = found
        assert structure.domain == ("0",)
        assert structure.pred_tables["P"] == frozenset()
        assert env == ()

    def test_axioms_have_no_countermodel(self):
        p1 = Atom("P", (Var(1),))
        instance = Implies(p1, Implies(Forall(p1), p1))
        assert is_axiom(instance, SIG_P) is not None
        assert find_countermodel(EMPTY_THEORY, instance, SIG_P, 2) is None

    def test_theory_instances_have_no_countermodel(self):
        sig = Signature({"zero": 0}, {"P": 1})
        theory = Theory("t", (("all", Forall(Atom("P", (Var(1),)))),))
        assert find_countermodel(theory, Atom("P", (App("zero"),)), sig, 2) is None

    def test_environment_search(self):
        # P(x1) is falsified by some environment in any structure where P
        # misses an element
        found = find_countermodel(EMPTY_THEORY, Atom("P", (Var(1),)), SIG_P, 1)
        assert found is not None
        structure, env = found
        assert env == ("0",)
        assert structure.pred_tables["P"] == frozenset()

    def test_deterministic_least_countermodel(self):
        first = find_countermodel(EMPTY_THEORY, Forall(Atom("P", (Var(1),))), SIG_P, 2)
        second = find_countermodel(EMPTY_THEORY, Forall(Atom("P", (Var(1),))), SIG_P, 2)
        assert first == second

    def test_ceiling_guard(self):
        with pytest.raises(SearchLimit):
            find_countermodel(EMPTY_THEORY, Forall(Atom("P", (Var(1),))), SIG_P, 1, ceiling=0)

    def test_ceiling_stops_counting_at_the_first_size_past_it(self):
        monoid = Signature({"e": 0, "m": 2}, {"P": 1})
        start = time.perf_counter()
        with pytest.raises(SearchLimit) as info:
            find_countermodel(EMPTY_THEORY, Forall(Atom("P", (Var(1),))), monoid, 400)
        assert time.perf_counter() - start < 1.0
        # sizes 1..3 hold 472,522 candidates; size 4 pushes the total past
        assert info.value.count == sum(count_structures(monoid, k) for k in (1, 2, 3, 4))
        assert info.value.ceiling == DEFAULT_CEILING
        assert "ceiling" in str(info.value)

    def test_ceiling_check_of_a_huge_arity_builds_no_huge_number(self):
        for arity in (24, 40):
            sig = Signature({}, {"P": arity})
            start = time.perf_counter()
            with pytest.raises(SearchLimit) as info:
                find_countermodel(EMPTY_THEORY, Atom("P", (Var(1),) * arity), sig, 2)
            assert time.perf_counter() - start < 1.0
            # size 1 has 2 candidates; size 2 has 2 ** (2 ** arity), of which
            # the ceiling squared is reported as a lower bound
            assert info.value.count == 2 + 2 ** (2 * DEFAULT_CEILING.bit_length())
            assert "exceeds the ceiling" in str(info.value)

    def test_parameters_rejected(self):
        with pytest.raises(ValueError):
            find_countermodel(EMPTY_THEORY, Atom("P", (Param("m"),)), SIG_P, 1)

    def test_count_structures(self):
        assert count_structures(SIG_P, 1) == 2
        assert count_structures(SIG5, 2) == 2**4 * 2**2
        assert sum(1 for _ in enumerate_structures(SIG5, 2)) == 64

    def test_enumeration_bit_order(self):
        # predicate bits before function entries, last tuple's bit fastest
        structures = list(enumerate_structures(SIG5, 2))
        assert structures[0].pred_tables["R"] == frozenset()
        assert structures[0].fn_tables["g"] == {("0",): "0", ("1",): "0"}
        assert structures[1].pred_tables["R"] == frozenset()
        assert structures[1].fn_tables["g"] == {("0",): "0", ("1",): "1"}
        # after the 4 function tables the next predicate bit flips, which
        # is the membership bit of the lexicographically last tuple
        assert structures[4].pred_tables["R"] == frozenset({("1", "1")})
        assert structures[4].fn_tables["g"] == {("0",): "0", ("1",): "0"}


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except EvalError as exc:
        return f"EvalError: {exc}"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_evaluator_matches_reference(seed):
    # parameters are sometimes outside the carrier and environments
    # sometimes short, so the errors are compared too
    rng = random.Random(seed)
    sig = rng.choice((SIG3, SIG3EQ, SIG5))
    structure = random_structure(rng, sig, rng.randint(1, 3))
    model = reference.named_tables(structure)
    params = structure.domain + (("9",) if rng.random() < 0.2 else ())
    f = random_formula(rng, sig, 3, 3, params=params)
    t = random_term(rng, sig, 2, 3, params=params)
    env = random_env(rng, structure, rng.randint(0, 3))
    assert _outcome(eval_formula, f, structure, env) == _outcome(
        reference.eval_formula, f, model, env
    )
    assert _outcome(eval_term, t, structure, env) == _outcome(
        reference.eval_term, t, model, env
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_countermodel_matches_naive_search(seed):
    rng = random.Random(seed)
    sig, max_size = rng.choice(((SIG_C, 3), (SIG4, 2), (SIG5, 2)))
    f = random_formula(rng, sig, 3, 2)
    theory = EMPTY_THEORY
    if rng.random() < 0.5:
        g = random_formula(rng, sig, 2, 2)
        theory = Theory("t", (("s", forall_n(g, min_rank(g))),))
    found = find_countermodel(theory, f, sig, max_size)
    assert found == reference.naive_countermodel(theory, f, sig, max_size)


SIG_C = Signature({"c": 0}, {"P": 1})
SIG_CD = Signature({"c": 0, "d": 0}, {"P": 1})


class TestHerbrand:
    def test_single_constant(self):
        e = AtomicValuation(frozenset({Atom("P", (App("c"),))}))
        assert herbrand_eval(e, Forall(Atom("P", (Var(1),))), SIG_C) is True

    def test_missing_instance(self):
        e = AtomicValuation(frozenset({Atom("P", (App("c"),))}))
        assert herbrand_eval(e, Forall(Atom("P", (Var(1),))), SIG_CD) is False

    def test_falsum_cannot_be_chosen(self):
        with pytest.raises(ValueError):
            AtomicValuation(frozenset({FALSE}))

    def test_atoms_must_be_closed(self):
        with pytest.raises(ValueError):
            AtomicValuation(frozenset({Atom("P", (Var(1),))}))

    def test_rejects_equality_and_real_functions(self):
        e = AtomicValuation(frozenset())
        with pytest.raises(EvalError):
            herbrand_eval(e, FALSE, Signature({"f": 1}, {"P": 1}))
        with pytest.raises(EvalError):
            herbrand_eval(e, FALSE, Signature({}, {"P": 1}, True))

    def test_empty_universe(self):
        e = AtomicValuation(frozenset())
        sig = Signature({}, {"P": 1})
        assert herbrand_eval(e, FALSE, sig) is False
        with pytest.raises(EvalError):
            herbrand_eval(e, Forall(Atom("P", (Var(1),))), sig)

    def test_material_structure(self):
        e = AtomicValuation(frozenset({Atom("P", (App("c"),))}))
        f = Implies(Atom("P", (App("c"),)), Atom("P", (App("d"),)))
        assert herbrand_eval(e, f, SIG_CD) is False

    def test_agrees_with_structure_semantics(self):
        # the two-constant Herbrand universe is the two-element structure
        # whose carrier is the constants themselves
        rng = random.Random(13)
        for _ in range(50):
            true_atoms = frozenset(
                Atom("P", (App(c),)) for c in ("c", "d") if rng.random() < 0.5
            )
            e = AtomicValuation(true_atoms)
            structure = Structure.make(
                SIG_CD,
                ("c", "d"),
                {"c": {(): "c"}, "d": {(): "d"}},
                {"P": {(c,) for c in ("c", "d") if Atom("P", (App(c),)) in true_atoms}},
            )
            f = random_formula(rng, SIG_CD, 3, 1)
            closed = subst_formula(f, instantiate(App("c")))
            while free_vars(closed):
                closed = subst_formula(closed, instantiate(App("c")))
            assert herbrand_eval(e, closed, SIG_CD) == eval_formula(closed, structure, ())


class TestModelFiles:
    def test_round_trip(self):
        structure = random_structure(random.Random(2), SIG5, 2)
        text = print_model(structure, ("0", "1"))
        parsed, env = parse_model(text, SIG5)
        assert parsed == structure and env == ("0", "1")

    def test_missing_domain(self):
        with pytest.raises(ParseError):
            parse_model("fn g: 0 -> 0\n", SIG5)

    def test_partial_table(self):
        with pytest.raises(ParseError):
            parse_model("domain 0 1\nfn g: 0 -> 0\n", SIG5)

    def test_env_outside_domain(self):
        structure = random_structure(random.Random(2), SIG5, 2)
        text = print_model(structure) + "env 7\n"
        with pytest.raises(ParseError):
            parse_model(text, SIG5)

    def test_zero_ary_function_lines(self):
        sig = Signature({"zero": 0}, {"P": 1})
        text = "domain 0 1\nfn zero: -> 1\npred P: 0\n"
        structure, env = parse_model(text, sig)
        assert structure.fn_tables["zero"][()] == "1"
        assert env is None
        assert print_model(structure) == "domain 0 1\nfn zero: -> 1\npred P: 0\n"
