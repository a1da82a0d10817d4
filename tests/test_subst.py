import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkit import (
    FALSE,
    IDENTITY,
    SHIFT_DOWN,
    SHIFT_UP,
    App,
    Atom,
    Forall,
    Implies,
    Param,
    Substitution,
    Var,
    compose,
    forall_n,
    forall_var,
    free_vars,
    has_rank,
    instantiate,
    is_independent,
    lift,
    min_rank,
    neg,
    parse_formula,
    parse_substitution,
    print_substitution,
    shift_down,
    shift_up,
    single,
    single_subst,
    subst_formula,
    subst_term,
    swap_front,
)
from strategies import (
    SIG3,
    data,
    formulas,
    fresh_index,
    max_index,
    substitutions,
    terms,
    with_entry,
)

# a slot far past any formula's size: a substitution stores an exception
# there as one entry
HUGE = 10**9


def apply(d, sigma):
    return subst_term(d, sigma) if isinstance(d, (Var, Param, App)) else subst_formula(d, sigma)


class TestSubstitutionRepresentation:
    def test_canonical_trim(self):
        assert Substitution((Var(1),), 0) == IDENTITY
        assert Substitution((Var(2), Var(3)), 1) == SHIFT_UP
        assert Substitution((Var(2), Var(2)), 1).prefix == (Var(2), Var(2))

    def test_named_sequences(self):
        assert [SHIFT_UP.entry(i) for i in (1, 2, 3)] == [Var(2), Var(3), Var(4)]
        assert [SHIFT_DOWN.entry(i) for i in (1, 2, 3)] == [Var(1), Var(1), Var(2)]
        assert [swap_front(3).entry(i) for i in (1, 2, 3, 4)] == [
            Var(2), Var(3), Var(1), Var(5),
        ]
        assert [swap_front(1).entry(i) for i in (1, 2, 3)] == [Var(1), Var(3), Var(4)]
        assert [instantiate(App("a")).entry(i) for i in (1, 2)] == [App("a"), Var(1)]
        assert single(App("a"), 3).entry(2) == Var(2)
        assert [single(App("a"), HUGE).entry(i) for i in (1, HUGE - 1, HUGE, HUGE + 1)] == [
            Var(1), Var(HUGE - 1), App("a"), Var(HUGE + 1),
        ]
        assert [swap_front(HUGE).entry(i) for i in (1, HUGE - 1, HUGE, HUGE + 1)] == [
            Var(2), Var(HUGE), Var(1), Var(HUGE + 2),
        ]

    def test_dense_prefix_on_request(self):
        assert swap_front(3) == Substitution((Var(2), Var(3), Var(1)), 1)
        assert swap_front(3).prefix == (Var(2), Var(3), Var(1))
        assert print_substitution(swap_front(3)) == "[x2, x3, x1; +1]"
        assert single(App("a"), 2).prefix == (Var(1), App("a"))
        assert SHIFT_DOWN.prefix == (Var(1),) and SHIFT_UP.prefix == ()

    def test_immutable(self):
        for name in ("prefix", "tail_offset", "_entries"):
            with pytest.raises(AttributeError):
                setattr(SHIFT_UP, name, 0)
        assert SHIFT_UP.tail_offset == 1

    def test_illegal_tail(self):
        with pytest.raises(ValueError):
            Substitution((), -1)

    def test_text_round_trip(self):
        sigma = Substitution((App("f", (Var(2),)), App("a")), 1)
        assert print_substitution(sigma) == "[f(x2), a(); +1]"
        assert parse_substitution("[f(x2), a(); +1]", SIG3) == sigma
        assert print_substitution(IDENTITY) == "[; +0]"
        assert parse_substitution("[; +0]", SIG3) == IDENTITY

    def test_text_errors(self):
        from folkit import ParseError

        for bad in ("f(x1); +0", "[f(x1)]", "[f(x1); 0]", "[f(x1); +0] junk", "[f(x1,; +0]"):
            with pytest.raises(ParseError):
                parse_substitution(bad, SIG3)


class TestWorkedExamples:
    def test_subst_term(self):
        assert subst_term(Var(1), single(App("f", (Var(2),)), 1)) == App("f", (Var(2),))
        assert subst_term(Param("c"), SHIFT_DOWN) == Param("c")
        assert subst_term(App("g", (Var(1), Var(3))), SHIFT_UP) == App("g", (Var(2), Var(4)))

    def test_subst_formula(self):
        got = subst_formula(
            Forall(Atom("Q", (Var(1), Var(2)))), single(App("f", (Var(1),)), 1)
        )
        assert got == Forall(Atom("Q", (Var(1), App("f", (Var(2),)))))
        assert subst_formula(FALSE, SHIFT_UP) == FALSE

    def test_compose(self):
        assert compose(SHIFT_UP, SHIFT_DOWN) == IDENTITY
        t = App("f", (Var(1),))
        assert compose(single(t, 1), SHIFT_UP) == Substitution(
            (App("f", (Var(2),)),), 1
        )

    def test_shifts(self):
        assert shift_up(Atom("P", (Var(1),))) == Atom("P", (Var(2),))
        assert shift_up(Forall(Atom("P", (Var(1),)))) == Forall(Atom("P", (Var(1),)))

    def test_single_subst(self):
        assert single_subst(Atom("P", (Var(2),)), App("a"), 2) == Atom("P", (App("a"),))
        assert single_subst(Atom("P", (Var(1),)), Var(1), 1) == Atom("P", (Var(1),))
        assert single_subst(Forall(Atom("P", (Var(2),))), App("a"), 1) == Forall(
            Atom("P", (App("a"),))
        )

    def test_free_vars(self):
        assert free_vars(App("g", (Var(1), Var(3)))) == {1, 3}
        assert free_vars(Forall(Atom("P", (Var(1),)))) == set()
        assert free_vars(Forall(Atom("Q", (Var(1), Var(3))))) == {2}

    def test_independence(self):
        assert is_independent(Atom("P", (Var(1),)), 2)
        assert not is_independent(Atom("P", (Var(1),)), 1)
        assert not is_independent(Forall(Atom("P", (Var(2),))), 1)

    def test_rank(self):
        assert min_rank(Atom("Q", (Var(1), Var(3)))) == 3
        assert min_rank(Forall(Atom("P", (Var(1),)))) == 0
        assert not has_rank(Atom("P", (Var(2),)), 1)
        # rank oracle: the least n accepted by the literal substitution test
        f = Atom("Q", (Var(1), Var(3)))
        assert min(n for n in range(6) if has_rank(f, n)) == 3

    def test_forall_var(self):
        assert forall_var(Atom("P", (Var(1),)), 1) == Forall(Atom("P", (Var(1),)))
        assert forall_var(Atom("Q", (Var(1), Var(2))), 2) == Forall(
            Atom("Q", (Var(2), Var(1)))
        )
        assert forall_var(FALSE, 7) == Forall(FALSE)

    def test_forall_n(self):
        f = Atom("P", (Var(1),))
        assert forall_n(f, 0) == f
        assert forall_n(f, 1) == Forall(f)
        assert forall_n(f, 2) == Forall(Forall(f))

    def test_neg(self):
        assert neg(FALSE) == Implies(FALSE, FALSE)
        a = Atom("P", (Var(1),))
        assert neg(neg(a)) == Implies(Implies(a, FALSE), FALSE)


class TestSubstitutionLaws:
    @given(data(SIG3))
    def test_identity_unit(self, d):
        assert apply(d, IDENTITY) == d

    @given(substitutions(SIG3), st.integers(1, 8))
    def test_projection_unit(self, sigma, i):
        assert subst_term(Var(i), sigma) == sigma.entry(i)

    @given(data(SIG3), substitutions(SIG3), substitutions(SIG3))
    def test_associativity(self, d, sigma, tau):
        assert apply(apply(d, sigma), tau) == apply(d, compose(sigma, tau))

    @given(substitutions(SIG3), substitutions(SIG3), st.integers(1, 8))
    def test_compose_entrywise(self, sigma, tau, i):
        assert compose(sigma, tau).entry(i) == subst_term(sigma.entry(i), tau)

    @given(data(SIG3), substitutions(SIG3))
    def test_local_finiteness(self, d, sigma):
        outside = max(free_vars(d), default=0) + 1 + len(sigma.prefix)
        changed = with_entry(sigma, outside, App("a"))
        assert apply(d, sigma) == apply(d, changed)


def huge_substitutions(sig=SIG3):
    """single and swap_front at a slot next to HUGE."""
    slots = st.integers(HUGE - 1, HUGE + 1)
    return st.one_of(st.builds(single, terms(sig), slots), st.builds(swap_front, slots))


def near_huge(d):
    """d beside the variables at slots HUGE .. HUGE + 2, free and bound."""
    if isinstance(d, (Var, Param, App)):
        return App("g", (d, App("g", (Var(HUGE), Var(HUGE + 2)))))
    return Implies(Atom("Q", (Var(HUGE), Var(HUGE + 1))), Forall(Implies(Atom("P", (Var(HUGE + 2),)), d)))


class TestHugeSlots:
    """The laws with one exception at a huge slot."""

    @given(data(SIG3), st.one_of(substitutions(SIG3), huge_substitutions()), huge_substitutions())
    def test_associativity(self, d, sigma, tau):
        for x in (d, near_huge(d)):
            for s, t in ((sigma, tau), (tau, sigma), (tau, tau)):
                assert apply(apply(x, s), t) == apply(x, compose(s, t))

    @given(substitutions(SIG3), huge_substitutions(),
           st.sampled_from((1, 2, 3, HUGE - 2, HUGE - 1, HUGE, HUGE + 1, HUGE + 2)))
    def test_compose_entrywise(self, sigma, tau, i):
        for s, t in ((sigma, tau), (tau, sigma), (tau, tau)):
            assert compose(s, t).entry(i) == subst_term(s.entry(i), t)

    def test_equality_hash_and_pickle(self):
        for sigma in (single(App("a"), HUGE), swap_front(HUGE)):
            copy = pickle.loads(pickle.dumps(sigma))
            assert copy == sigma and hash(copy) == hash(sigma)
            assert copy != IDENTITY and copy != SHIFT_UP
        assert single(Var(HUGE), HUGE) == IDENTITY

    def test_costs_follow_the_formula(self):
        start = time.perf_counter()
        f = parse_formula(f"(forall x{10**7} P(x{10**7}))", SIG3)
        assert f == Forall(Atom("P", (Var(1),)))
        assert is_independent(Atom("P", (Var(1),)), HUGE)
        assert not is_independent(Atom("P", (Var(HUGE),)), HUGE)
        assert time.perf_counter() - start < 1.0


class TestShiftAndRank:
    @given(data(SIG3))
    def test_shift_round_trip(self, d):
        assert shift_down(shift_up(d)) == d

    @given(data(SIG3), st.integers(1, 8))
    def test_independence_agrees_with_free_vars(self, d, i):
        assert is_independent(d, i) == (i not in free_vars(d))

    @given(data(SIG3), st.integers(0, 8))
    def test_rank_literal_agrees_with_fast_path(self, d, n):
        assert has_rank(d, n) == (min_rank(d) <= n)

    @given(data(SIG3), st.integers(0, 6))
    def test_rank_is_upward_closed(self, d, n):
        if has_rank(d, n):
            assert has_rank(d, n + 1)

    @given(formulas(SIG3))
    def test_closing_every_rank_gives_a_sentence(self, f):
        assert min_rank(forall_n(f, min_rank(f))) == 0


class TestRankClosure:
    @given(formulas(SIG3), formulas(SIG3))
    def test_connectives_preserve_rank(self, a, b):
        n = max(min_rank(a), min_rank(b))
        assert has_rank(Implies(a, b), n)
        assert has_rank(Forall(a), n)
        for i in (1, n + 1):
            assert has_rank(forall_var(a, i), n)

    @given(formulas(SIG3))
    def test_binding_the_top_slot_lowers_rank(self, a):
        n = min_rank(a)
        if n > 0:
            assert has_rank(Forall(a), n - 1)
            assert has_rank(forall_var(a, n), n - 1)


class TestQuantifierLemmas:
    @given(formulas(SIG3), st.integers(1, 5))
    def test_quantified_variable_is_not_free(self, a, i):
        assert is_independent(forall_var(a, i), i)

    @given(formulas(SIG3), st.integers(1, 5))
    def test_renaming_to_a_fresh_variable(self, a, i):
        j = fresh_index(a, i=i)
        assert is_independent(a, j)
        assert forall_var(a, i) == forall_var(single_subst(a, Var(j), i), j)

    @given(formulas(SIG3), substitutions(SIG3), st.integers(1, 5))
    def test_substitution_passes_through_the_quantifier(self, a, sigma, i):
        y = fresh_index(a, sigma, i)
        for j in free_vars(a):
            if j != i:
                assert is_independent(sigma.entry(j), y)
        lhs = subst_formula(forall_var(a, i), sigma)
        rhs = forall_var(subst_formula(a, with_entry(sigma, i, Var(y))), y)
        assert lhs == rhs

    @given(formulas(SIG3))
    def test_primitive_from_derived(self, a):
        i = max_index(a) + 1
        assert is_independent(a, i + 1)
        assert Forall(a) == forall_var(subst_formula(a, instantiate(Var(i))), i)

    @given(formulas(SIG3))
    def test_vacuous_quantification_shifts(self, a):
        i = fresh_index(a)
        assert forall_var(a, i) == Forall(shift_up(a))

    @given(formulas(SIG3))
    def test_first_slot_quantifier_is_shifted_primitive(self, a):
        assert forall_var(a, 1) == shift_up(Forall(a))
        assert Forall(a) == shift_down(forall_var(a, 1))

    @given(formulas(SIG3), st.integers(1, 5))
    def test_derived_quantifier_via_front_swap(self, a, i):
        assert forall_var(a, i) == shift_down(
            forall_var(subst_formula(a, swap_front(i)), 1)
        )


class TestLift:
    @given(st.one_of(substitutions(SIG3), huge_substitutions()),
           st.one_of(st.integers(1, 6), st.integers(HUGE - 1, HUGE + 2)))
    def test_lift_entries(self, sigma, i):
        lifted = lift(sigma)
        if i == 1:
            assert lifted.entry(1) == Var(1)
        else:
            assert lifted.entry(i) == shift_up(sigma.entry(i - 1))


def test_random_builders_respect_signature():
    rng = random.Random(7)
    from folkit import check_formula
    from strategies import random_formula

    for _ in range(50):
        check_formula(random_formula(rng, SIG3, params=("m",)), SIG3)


def test_exhaustive_small_space_associativity():
    # no sampling: every one-connective formula over a tiny atom pool,
    # against every substitution pair drawn from a small prefix pool
    from itertools import product

    from strategies import enumerate_formulas

    atoms = [Atom("P", (Var(1),)), Atom("Q", (Var(2), App("f", (Var(1),))))]
    formulas_pool = enumerate_formulas(atoms, 1)
    pool = [Var(1), Var(2), App("a"), App("f", (Var(2),))]
    subs = []
    for n in range(3):
        for prefix in product(pool, repeat=n):
            for d in range(-n, 2):
                subs.append(Substitution(prefix, d))
    assert len(subs) > 50
    for f in formulas_pool:
        for sigma, tau in product(subs, repeat=2):
            assert subst_formula(subst_formula(f, sigma), tau) == subst_formula(
                f, compose(sigma, tau)
            )
