import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkit import (
    FALSE,
    App,
    Atom,
    ByAxiom,
    ByHyp,
    ByInd,
    ByMP,
    Forall,
    Implies,
    ParseError,
    Proof,
    ProofLine,
    Signature,
    Theory,
    Var,
    arith_signature,
    arith_theory,
    axiom_from_tag,
    check_formula,
    check_proof,
    forall_var,
    induction_sentence,
    instantiate,
    is_axiom,
    match_a5,
    min_rank,
    neg,
    parse_proof,
    parse_theory,
    print_proof,
    print_theory,
    shift_up,
    single_subst,
    subst_formula,
)
from folkit import free_vars
from strategies import (
    SCHEMAS,
    SIG3EQ,
    SIG4,
    a5_witness_brute,
    enumerate_formulas,
    enumerate_terms,
    formulas,
    fresh_index,
    random_axiom_instance,
    random_formula,
    random_term,
)

SIG = Signature({"zero": 0, "succ": 1, "f": 1}, {"P": 1, "Q": 0}, True)

P = lambda t: Atom("P", (t,))
x1, x2 = Var(1), Var(2)


class TestAxiomRecognition:
    def test_a1(self):
        tag = is_axiom(Implies(P(x1), Implies(Atom("Q"), P(x1))), SIG)
        assert tag is not None and tag.schema == "A1" and tag.stripped == 0

    def test_a1_under_closure(self):
        tag = is_axiom(Forall(Implies(P(x1), Implies(FALSE, P(x1)))), SIG)
        assert tag is not None and tag.schema == "A1" and tag.stripped == 1

    def test_not_an_axiom(self):
        assert is_axiom(FALSE, SIG) is None
        assert is_axiom(Implies(FALSE, FALSE), SIG) is None

    def test_a3(self):
        tag = is_axiom(Implies(neg(neg(P(x1))), P(x1)), SIG)
        assert tag is not None and tag.schema == "A3"

    def test_a4(self):
        a, b = P(x1), P(App("f", (x1,)))
        f = Implies(Forall(Implies(a, b)), Implies(Forall(a), Forall(b)))
        tag = is_axiom(f, SIG)
        assert tag is not None and tag.schema == "A4"

    def test_a5_records_the_witness(self):
        f = Implies(Forall(P(x1)), P(App("f", (x1,))))
        tag = is_axiom(f, SIG)
        assert tag is not None and tag.schema == "A5"
        assert tag.witness == App("f", (x1,))

    def test_a6(self):
        f = Implies(P(x1), Forall(P(x2)))
        tag = is_axiom(f, SIG)
        assert tag is not None and tag.schema == "A6"

    def test_a7(self):
        tag = is_axiom(Atom("eq", (x2, x2)), SIG)
        assert tag is not None and tag.schema == "A7" and tag.var_pair == (2, 2)

    def test_a8(self):
        f = Implies(Atom("eq", (x1, x2)), Implies(P(x1), P(x2)))
        tag = is_axiom(f, SIG)
        assert tag is not None and tag.schema == "A8" and tag.var_pair == (1, 2)

    def test_a8_allows_equal_variables(self):
        f = Implies(Atom("eq", (x1, x1)), Implies(P(x1), P(x1)))
        assert is_axiom(f, SIG) is not None

    def test_equality_schemas_need_the_flag(self):
        plain = Signature({"f": 1}, {"P": 1})
        f = Implies(P(x1), Implies(P(x1), P(x1)))
        assert is_axiom(f, plain) is not None  # A1 still fine
        # an eq-atom cannot even be well-formed without the flag, so build
        # the closest shape over an ordinary predicate: not an axiom
        g = Atom("P", (x1,))
        assert is_axiom(g, plain) is None

    def test_first_match_determinism(self):
        # A = B = (false -> false) makes A1 and A2 shapes collide on A1
        a = Implies(FALSE, FALSE)
        f = Implies(a, Implies(a, a))
        tag = is_axiom(f, SIG)
        assert tag is not None and tag.schema == "A1"


class TestTagSoundness:
    def test_reconstruction_round_trip(self):
        rng = random.Random(42)
        for _ in range(300):
            schema = rng.choice(SCHEMAS)
            f = random_axiom_instance(
                rng, SIG3EQ, schema, closures=rng.randint(0, 2)
            )
            tag = is_axiom(f, SIG3EQ)
            assert tag is not None, f
            assert axiom_from_tag(tag) == f, (f, tag)

    @given(formulas(SIG3EQ))
    def test_any_match_reconstructs_exactly(self, f):
        tag = is_axiom(f, SIG3EQ)
        if tag is not None:
            assert axiom_from_tag(tag) == f


class TestMatchA5:
    def test_simple_witness(self):
        f = Implies(Forall(P(x1)), P(App("f", (x1,))))
        assert match_a5(f) == App("f", (x1,))

    def test_independent_slot_gives_canonical_witness(self):
        f = Implies(Forall(P(x2)), P(x1))
        assert match_a5(f) == Var(1)

    def test_conflicting_occurrences(self):
        sig2 = Signature({"zero": 0, "succ": 1}, {"D": 2})
        body = Atom("D", (x1, x1))
        target = Atom("D", (App("zero"), App("succ", (App("zero"),))))
        assert match_a5(Implies(Forall(body), target)) is None

    def test_witness_under_binders(self):
        body = Forall(Atom("eq", (Var(1), Var(2))))
        t = App("succ", (App("zero"),))
        f = Implies(Forall(body), subst_formula(body, instantiate(t)))
        assert match_a5(f) == t

    def test_agrees_with_brute_force(self):
        # exhaustive over a small space: every pair (A, B) built from an
        # instance or a perturbation, compared against the enumeration oracle
        atoms = [FALSE, Atom("P", (Var(1),)), Atom("P", (Var(2),)), Atom("P", (App("c"),))]
        bodies = enumerate_formulas(atoms, 2)
        terms = enumerate_terms(SIG4, 1, 2)
        rng = random.Random(5)
        targets_per_body = 4
        for body in bodies:
            picks = [subst_formula(body, instantiate(rng.choice(terms)))
                     for _ in range(targets_per_body)]
            picks.append(rng.choice(bodies))  # usually a non-instance
            for target in picks:
                got = match_a5(Implies(Forall(body), target))
                expect = a5_witness_brute(body, target, SIG4)
                assert (got is None) == (expect is None), (body, target)
                if got is not None:
                    assert subst_formula(body, instantiate(got)) == target
                    if 1 in free_vars(body):
                        # the witness is unique when the slot is used
                        assert got == expect


class TestPrimedSchemas:
    @given(formulas(SIG3EQ), formulas(SIG3EQ), st.integers(1, 4))
    def test_distribution_over_a_named_variable(self, a, b, i):
        f = Implies(
            forall_var(Implies(a, b), i),
            Implies(forall_var(a, i), forall_var(b, i)),
        )
        assert is_axiom(f, SIG3EQ) is not None

    @given(formulas(SIG3EQ), st.integers(1, 4), st.data())
    def test_named_instantiation(self, a, i, data_):
        rng = random.Random(data_.draw(st.integers(0, 2**16)))
        t = random_term(rng, SIG3EQ, 2, 3)
        f = Implies(forall_var(a, i), single_subst(a, t, i))
        assert is_axiom(f, SIG3EQ) is not None

    @given(formulas(SIG3EQ))
    def test_vacuous_generalization(self, a):
        i = fresh_index(a)
        f = Implies(a, forall_var(a, i))
        assert is_axiom(f, SIG3EQ) is not None


ALL_P = Forall(P(x1))
Q0 = Atom("Q")
MP_THEORY = Theory("facts", (("all_p", ALL_P), ("p_implies_q", Implies(ALL_P, Q0))))
MP_PROOF = Proof((
    ProofLine(ALL_P, ByHyp("all_p")),
    ProofLine(Implies(ALL_P, Q0), ByHyp("p_implies_q")),
    ProofLine(Q0, ByMP(1, 2)),
))


class TestCheckProof:
    def test_modus_ponens_golden(self):
        assert check_proof(MP_PROOF, MP_THEORY, SIG).ok

    def test_instantiation_golden(self):
        proof = Proof((
            ProofLine(ALL_P, ByHyp("all_p")),
            ProofLine(Implies(ALL_P, P(App("f", (x1,)))), ByAxiom()),
            ProofLine(P(App("f", (x1,))), ByMP(1, 2)),
        ))
        assert check_proof(proof, MP_THEORY, SIG).ok

    def test_self_reference_rejected(self):
        proof = Proof((ProofLine(Q0, ByMP(1, 1)),))
        verdict = check_proof(proof, MP_THEORY, SIG)
        assert not verdict.ok and verdict.line == 1

    def test_forward_reference_rejected(self):
        proof = Proof((
            ProofLine(ALL_P, ByHyp("all_p")),
            ProofLine(Q0, ByMP(1, 3)),
            ProofLine(Implies(ALL_P, Q0), ByHyp("p_implies_q")),
        ))
        verdict = check_proof(proof, MP_THEORY, SIG)
        assert not verdict.ok and verdict.line == 2

    def test_unknown_hypothesis_rejected(self):
        proof = Proof((ProofLine(ALL_P, ByHyp("nope")),))
        verdict = check_proof(proof, MP_THEORY, SIG)
        assert not verdict.ok and verdict.line == 1
        assert "unknown hypothesis" in verdict.reason

    def test_hypothesis_mismatch_rejected(self):
        proof = Proof((ProofLine(Q0, ByHyp("all_p")),))
        verdict = check_proof(proof, MP_THEORY, SIG)
        assert not verdict.ok and verdict.line == 1

    def test_fake_axiom_rejected(self):
        proof = Proof((ProofLine(Implies(FALSE, FALSE), ByAxiom()),))
        verdict = check_proof(proof, MP_THEORY, SIG)
        assert not verdict.ok and verdict.line == 1
        assert verdict.reason == "not an axiom instance"

    def test_mp_shape_mismatch_rejected(self):
        proof = Proof((
            ProofLine(ALL_P, ByHyp("all_p")),
            ProofLine(Implies(ALL_P, Q0), ByHyp("p_implies_q")),
            ProofLine(P(App("zero")), ByMP(1, 2)),
        ))
        verdict = check_proof(proof, MP_THEORY, SIG)
        assert not verdict.ok and verdict.line == 3

    def test_monotone_under_larger_theories(self):
        bigger = Theory("facts2", MP_THEORY.sentences + (("extra", Forall(P(x1))),))
        assert check_proof(MP_PROOF, bigger, SIG).ok

    def test_accepted_prefixes_stay_accepted(self):
        for k in range(1, len(MP_PROOF.lines) + 1):
            assert check_proof(Proof(MP_PROOF.lines[:k]), MP_THEORY, SIG).ok

    def test_provable_formulas_form_a_filter(self):
        # every generated axiom instance has a one-line proof, and two
        # accepted proofs splice into an accepted modus ponens step
        rng = random.Random(77)
        for _ in range(100):
            schema = rng.choice(SCHEMAS)
            f = random_axiom_instance(rng, SIG3EQ, schema)
            assert check_proof(Proof((ProofLine(f, ByAxiom()),)), MP_THEORY, SIG3EQ).ok
        premise = Proof((ProofLine(ALL_P, ByHyp("all_p")),))
        implication = Proof((ProofLine(Implies(ALL_P, Q0), ByHyp("p_implies_q")),))
        spliced = Proof(
            premise.lines
            + implication.lines
            + (ProofLine(Q0, ByMP(1, len(premise.lines) + 1)),)
        )
        assert check_proof(spliced, MP_THEORY, SIG).ok


class TestTheory:
    def test_sentences_must_be_closed(self):
        with pytest.raises(ValueError):
            Theory("bad", (("open", P(x1)),))

    def test_sentences_must_be_parameter_free(self):
        from folkit import Param

        with pytest.raises(ValueError):
            Theory("bad", (("param", P(Param("m")),),))

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            Theory("bad", (("s", Q0), ("s", Q0)))

    def test_file_round_trip(self):
        text = print_theory(MP_THEORY)
        assert parse_theory(text, SIG) == MP_THEORY

    def test_deep_nesting_is_a_parse_error(self):
        deep = "~" * 3000 + "P(x1)"
        with pytest.raises(ParseError, match="input nested too deeply"):
            parse_theory(f"theory t\ns: {deep}\n", SIG)
        with pytest.raises(ParseError, match="input nested too deeply"):
            parse_proof(f"1. {deep} ; axiom\n", SIG)
        with pytest.raises(ParseError, match="input nested too deeply"):
            parse_proof(f"1. P(x1) ; ind({deep}, 1)\n", SIG)


class TestArithmetic:
    def test_base_sentences_are_sentences(self):
        theory = arith_theory()
        sig = arith_signature()
        assert len(theory.sentences) == 6
        assert theory.has_induction
        for name, f in theory.sentences:
            assert min_rank(f) == 0, name
            check_formula(f, sig)

    def test_first_sentence_shape(self):
        theory = arith_theory()
        zero = App("zero")
        expected = forall_var(neg(Atom("eq", (zero, App("succ", (x1,))))), 1)
        assert theory.get("zero_ne_succ") == expected

    def test_right_identity_shape(self):
        theory = arith_theory()
        expected = forall_var(Atom("eq", (App("plus", (x1, App("zero"))), x1)), 1)
        assert theory.get("add_zero") == expected

    def test_induction_golden(self):
        a = Atom("eq", (App("plus", (App("zero"), x1)), x1))
        sentence = induction_sentence(a, 1)
        assert min_rank(sentence) == 0
        check_formula(sentence, arith_signature())
        step = forall_var(
            Implies(a, single_subst(a, App("succ", (x1,)), 1)), 1
        )
        body = Implies(
            single_subst(a, App("zero"), 1),
            Implies(step, forall_var(a, 1)),
        )
        assert sentence == forall_var(body, 1)

    def test_induction_rejects_sentences(self):
        with pytest.raises(ValueError):
            induction_sentence(arith_theory().get("add_zero"), 1)

    def test_induction_rejects_out_of_range_variable(self):
        a = Atom("eq", (App("plus", (App("zero"), x1)), x1))
        with pytest.raises(ValueError):
            induction_sentence(a, 2)

    def test_induction_closure_on_random_formulas(self):
        rng = random.Random(11)
        sig = arith_signature()
        for _ in range(100):
            a = random_formula(rng, sig, 2, 3)
            n = min_rank(a)
            if n == 0:
                continue
            i = rng.randint(1, n)
            assert min_rank(induction_sentence(a, i)) == 0

    def test_induction_justification(self):
        a = Atom("eq", (App("plus", (App("zero"), x1)), x1))
        sentence = induction_sentence(a, 1)
        proof = Proof((ProofLine(sentence, ByInd(a, 1)),))
        assert check_proof(proof, arith_theory(), arith_signature()).ok

    def test_wrong_induction_instance_rejected(self):
        a = Atom("eq", (App("plus", (App("zero"), x1)), x1))
        proof = Proof((ProofLine(Forall(induction_sentence(a, 1)), ByInd(a, 1)),))
        verdict = check_proof(proof, arith_theory(), arith_signature())
        assert not verdict.ok and verdict.line == 1

    def test_induction_needs_the_schema(self):
        a = Atom("eq", (App("plus", (App("zero"), x1)), x1))
        sentence = induction_sentence(a, 1)
        proof = Proof((ProofLine(sentence, ByInd(a, 1)),))
        plain = Theory("plain", arith_theory().sentences)
        verdict = check_proof(proof, plain, arith_signature())
        assert not verdict.ok and "induction" in verdict.reason


class TestProofFiles:
    def test_round_trip(self):
        text = print_proof(MP_PROOF)
        assert parse_proof(text, SIG) == MP_PROOF

    def test_line_numbers_must_be_sequential(self):
        with pytest.raises(ParseError):
            parse_proof("2. Q() ; axiom\n", SIG)

    def test_ind_round_trip(self):
        sig = arith_signature()
        a = Atom("eq", (App("plus", (App("zero"), x1)), x1))
        proof = Proof((ProofLine(induction_sentence(a, 1), ByInd(a, 1)),))
        assert parse_proof(print_proof(proof), sig) == proof

    def test_parameters_rejected(self):
        with pytest.raises(ParseError):
            parse_proof("1. P($m) ; axiom\n", SIG)

    def test_empty_proof_rejected(self):
        with pytest.raises(ParseError):
            parse_proof("# nothing here\n", SIG)
