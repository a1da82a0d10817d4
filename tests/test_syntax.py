import copy
import pickle
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkit import (
    FALSE,
    MAX_DEPTH,
    App,
    Atom,
    Forall,
    Formula,
    Implies,
    Param,
    ParseError,
    Signature,
    Var,
    check_formula,
    check_term,
    forall_var,
    neg,
    parse_formula,
    parse_proof,
    parse_signature,
    parse_substitution,
    parse_term,
    print_formula,
    print_term,
)
from strategies import SIG3, SIG3EQ, formulas, mutated, terms

SIG = Signature({"zero": 0, "succ": 1, "plus": 2}, {"P": 1, "Q": 2}, True)


class TestSignature:
    def test_false_always_present(self):
        sig = parse_signature("fn zero 0\nfn succ 1")
        assert sig.functions == {"zero": 0, "succ": 1}
        assert sig.predicates == {"false": 0}
        assert not sig.with_equality

    def test_equality_directive_adds_eq(self):
        sig = parse_signature("with-equality\nfn plus 2")
        assert sig.predicates["eq"] == 2
        assert sig.with_equality

    def test_declaring_eq_sets_the_flag(self):
        sig = parse_signature("pred eq 2")
        assert sig.with_equality

    def test_reserved_arity_conflicts(self):
        with pytest.raises(ParseError):
            parse_signature("pred false 1")
        with pytest.raises(ParseError):
            parse_signature("pred eq 3")
        with pytest.raises(ParseError):
            parse_signature("fn eq 2")

    def test_reserved_names_are_not_function_symbols(self):
        for name in ("eq", "false"):
            message = f"reserved name '{name}' cannot be a function symbol"
            for args in (({name: 2},), ({name: 2}, {}, False), ({name: 0}, {}, True)):
                with pytest.raises(ValueError, match=message):
                    Signature(*args)
            with pytest.raises(ParseError, match=f"^line 2: {message}$"):
                parse_signature(f"fn f 1\nfn {name} 2")

    @pytest.mark.parametrize("text, message", [
        ("fn f -1", "line 1: arity of 'f' must be an int >= 0, got -1"),
        ("pred x1 0", "line 1: invalid symbol name 'x1'"),
        ("fn forall 1", "line 1: invalid symbol name 'forall'"),
        ("pred false 1", "line 1: reserved predicate 'false' must have arity 0"),
        ("pred eq 3", "line 1: reserved predicate 'eq' must have arity 2"),
        ("pred eq 2\npred eq 2", "line 2: duplicate name 'eq'"),
        ("pred false 0\n\npred false 0", "line 3: duplicate name 'false'"),
    ])
    def test_declaration_errors_name_their_line(self, text, message):
        # each declaration is checked by Signature itself, built alone
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_signature(text)

    def test_duplicates_and_negative_arity(self):
        with pytest.raises(ParseError):
            parse_signature("fn f 1\npred f 2")
        with pytest.raises(ParseError):
            parse_signature("fn f -1")
        with pytest.raises(ParseError):
            parse_signature("fn x1 0")

    def test_arity_must_be_a_nonnegative_int(self):
        for arity in ("2", True, -1):
            message = f"arity of 'f' must be an int >= 0, got {arity!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                Signature({"f": arity})
            with pytest.raises(ValueError, match=re.escape(message)):
                Signature({}, {"f": arity})

    def test_directive_must_come_first(self):
        with pytest.raises(ParseError):
            parse_signature("fn f 1\nwith-equality")

    def test_comments_and_blanks(self):
        sig = parse_signature("# header\n\nfn f 1  # unary\n")
        assert sig.functions == {"f": 1}

    def test_immutable_and_hashable(self):
        functions = {"f": 1}
        sig = Signature(functions, {"P": 1})
        functions["g"] = 2
        assert sig.functions == {"f": 1}
        with pytest.raises(TypeError):
            sig.functions["g"] = 2
        with pytest.raises(TypeError):
            sig.predicates["Q"] = 0
        assert hash(sig) == hash(sig) == hash(Signature({"f": 1}, {"P": 1}))
        assert {sig: 1}[Signature({"f": 1}, {"P": 1, "false": 0})] == 1
        assert hash(sig) != hash(Signature({"f": 1}, {"P": 1}, True))
        assert pickle.loads(pickle.dumps(sig)) == sig == copy.deepcopy(sig)


class TestTermParsing:
    def test_single_constructor(self):
        assert parse_term("succ(x1)", SIG) == App("succ", (Var(1),))

    def test_nesting_and_parameter(self):
        assert parse_term("plus(zero(),$c)", SIG) == App(
            "plus", (App("zero"), Param("c"))
        )

    def test_arity_error(self):
        with pytest.raises(ParseError):
            parse_term("succ(x1,x2)", SIG)

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_term("minus(x1,x2)", SIG)

    def test_malformed_variable(self):
        with pytest.raises(ParseError):
            parse_term("x0", SIG)

    def test_numeric_parameters(self):
        assert parse_term("$0", SIG) == Param("0")


class TestFormulaParsing:
    def test_implication(self):
        assert parse_formula("(P(x1) -> false)", SIG) == Implies(
            Atom("P", (Var(1),)), FALSE
        )

    def test_negation_sugar(self):
        assert parse_formula("~P(x1)", SIG) == parse_formula("(P(x1) -> false)", SIG)
        assert parse_formula("~P(x1)", SIG) == neg(Atom("P", (Var(1),)))

    def test_primitive_quantifier(self):
        assert parse_formula("(forall P(x1))", SIG) == Forall(Atom("P", (Var(1),)))

    def test_variable_quantifier_sugar(self):
        got = parse_formula("(forall x2 Q(x1,x2))", SIG)
        assert got == forall_var(Atom("Q", (Var(1), Var(2))), 2)
        assert got == Forall(Atom("Q", (Var(2), Var(1))))

    def test_variable_quantifier_sugar_compound_body(self):
        got = parse_formula("(forall x2 (P(x1) -> P(x2)))", SIG)
        body = Implies(Atom("P", (Var(1),)), Atom("P", (Var(2),)))
        assert got == forall_var(body, 2)

    def test_equality_sugar(self):
        assert parse_formula("x1 = zero()", SIG) == Atom("eq", (Var(1), App("zero")))
        assert parse_formula("plus(x1,x2) = x1", SIG) == Atom(
            "eq", (App("plus", (Var(1), Var(2))), Var(1))
        )

    def test_equality_requires_the_flag(self):
        with pytest.raises(ParseError):
            parse_formula("x1 = x2", Signature({}, {"P": 1}))

    def test_right_associated_chain(self):
        got = parse_formula("P(x1) -> Q(x1,x2) -> false", SIG)
        assert got == Implies(
            Atom("P", (Var(1),)), Implies(Atom("Q", (Var(1), Var(2))), FALSE)
        )

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_formula("(P(x1) -> false", SIG)
        with pytest.raises(ParseError):
            parse_formula("P(x1))", SIG)

    def test_unknown_predicate(self):
        with pytest.raises(ParseError):
            parse_formula("S(x1)", SIG)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="input nested too deeply"):
            parse_formula("~" * 3000 + "P(x1)", SIG)
        with pytest.raises(ParseError, match="input nested too deeply"):
            parse_term("succ(" * 3000 + "x1" + ")" * 3000, SIG)
        with pytest.raises(ParseError, match="input nested too deeply"):
            parse_substitution("[" + "succ(" * 3000 + "x1" + ")" * 3000 + "; +0]", SIG)

    def test_quantifying_a_large_unused_index_is_fast(self):
        start = time.perf_counter()
        got = parse_formula("(forall x3000000 P(x1))", SIG)
        assert time.perf_counter() - start < 1.0
        assert got == Forall(Atom("P", (Var(2),)))


class TestPrinting:
    def test_goldens(self):
        assert print_term(App("succ", (Var(1),))) == "succ(x1)"
        assert print_formula(Forall(Atom("P", (Var(1),)))) == "(forall P(x1))"
        assert print_formula(Implies(FALSE, FALSE)) == "(false -> false)"
        assert print_term(Param("m")) == "$m"
        assert print_formula(Atom("Q", (Var(1), App("zero")))) == "Q(x1,zero())"

    def test_false_never_prints_parens(self):
        assert print_formula(FALSE) == "false"
        assert parse_formula("false", SIG) == FALSE
        assert parse_formula("false()", SIG) == FALSE


@given(terms(SIG3, params=("m", "k")))
@settings(max_examples=200)
def test_term_round_trip(t):
    assert parse_term(print_term(t), SIG3) == t
    check_term(t, SIG3)


@given(formulas(SIG3, params=("m", "k")))
@settings(max_examples=200)
def test_formula_round_trip(f):
    assert parse_formula(print_formula(f), SIG3) == f
    check_formula(f, SIG3)


def test_check_refuses_a_node_of_the_wrong_kind():
    p = Atom("P", (Var(1),))
    for f, message in ((Implies(p, Var(1)), "not a formula: Var"),
                       (Forall(App("a")), "not a formula: App"),
                       (Atom("P", (p,)), "not a term: Atom"),
                       (Atom("Q", (App("f", (Forall(p),)), Var(1))), "not a term: Forall")):
        with pytest.raises(ValueError, match=message):
            check_formula(f, SIG3)
    with pytest.raises(ValueError, match="not a term: Atom"):
        check_term(App("f", (p,)), SIG3)


P1 = Atom("P", (Var(1),))
# six shapes of chain, each grown from a formula of depth 2
CHAINS = {
    "-> right": (P1, lambda f: Implies(P1, f)),
    "-> left": (P1, lambda f: Implies(f, P1)),
    "~": (P1, neg),
    "forall": (P1, Forall),
    "application": (P1, lambda f: Atom("P", (App("succ", f.args),))),
    "equation": (Atom("eq", (Var(1), Var(2))),
                 lambda f: Atom("eq", (App("succ", f.args[:1]), f.args[1]))),
}


@pytest.mark.parametrize("start, grow", CHAINS.values(), ids=CHAINS)
def test_printed_formulas_parse_back_up_to_the_limit(start, grow):
    f = start
    while f.depth < MAX_DEPTH:
        f = grow(f)
        assert parse_formula(print_formula(f), SIG) is f, f.depth


DIGITS = "1" * 5000
LONG_INTEGERS = {
    "variable": lambda: parse_formula(f"P(x{DIGITS})", SIG),
    "forall xN": lambda: parse_formula(f"(forall x{DIGITS} P(x1))", SIG),
    "term": lambda: parse_term(f"x{DIGITS}", SIG),
    "tail offset": lambda: parse_substitution(f"[x1; +{DIGITS}]", SIG),
    "proof line": lambda: parse_proof(f"{DIGITS}. P(x1) ; axiom", SIG),
    "mp": lambda: parse_proof(f"1. P(x1) ; mp 1 {DIGITS}", SIG),
    "ind": lambda: parse_proof(f"1. P(x1) ; ind(P(x1), {DIGITS})", SIG),
    "arity": lambda: parse_signature(f"fn f {DIGITS}"),
}


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="int() converts integers of any length here")
@pytest.mark.parametrize("parse", LONG_INTEGERS.values(), ids=LONG_INTEGERS)
def test_integers_too_long_for_int_raise_parse_error(parse):
    with pytest.raises(ParseError) as info:
        parse()
    assert "nested too deeply" not in str(info.value)


def test_var_index_must_be_positive():
    with pytest.raises(ValueError):
        Var(0)


def test_var_index_is_always_an_int():
    # an equal float or bool is refused, or answered with the int's node
    for index in (77.0, True, 2.0):
        try:
            v = Var(index)
        except ValueError:
            continue
        assert type(v.index) is int
    assert print_term(Var(77)) == "x77"


# SIG3EQ's symbols at other arities: text printed over it must be refused.
_MISARITY = Signature({"a": 1, "f": 2, "g": 1}, {"P": 2, "Q": 1, "R": 1}, True)
# Tokens of SIG3EQ's surface syntax that the mutations splice in.
_PIECES = ("a", "f", "g", "P", "Q", "R", "eq", "~", "(", ")", "->", ",", "=", "x1", "x2",
           "$m", "false", "(forall ", "(forall x2 ")


def _sugared(f: Formula) -> str:
    """Text using the ``~``, ``=`` and ``forall xi`` sugar.  It need not read
    back as ``f``: ``(forall x1 A)`` re-binds, which is fine for parsing."""
    if isinstance(f, Atom):
        if f.symbol == "eq":
            return f"{print_term(f.args[0])} = {print_term(f.args[1])}"
        return print_formula(f)
    if isinstance(f, Implies):
        if f.rhs == FALSE:
            return f"~{_sugared(f.lhs)}"
        return f"({_sugared(f.lhs)} -> {_sugared(f.rhs)})"
    return f"(forall x1 {_sugared(f.body)})"


@given(st.data())
@settings(max_examples=150)
def test_accepted_formula_text_passes_check_formula(data):
    # the parser enforces what check_formula checks, so the proof and
    # theory parsers need not walk its output again
    f = data.draw(formulas(data.draw(st.sampled_from((SIG3EQ, _MISARITY))), params=("m",)))
    text = data.draw(mutated(data.draw(st.sampled_from((print_formula(f), _sugared(f)))), _PIECES))
    try:
        parsed = parse_formula(text, SIG3EQ)
    except ParseError:
        return
    check_formula(parsed, SIG3EQ)


@given(st.data())
@settings(max_examples=100)
def test_accepted_term_text_passes_check_term(data):
    t = data.draw(terms(data.draw(st.sampled_from((SIG3EQ, _MISARITY))), params=("m",)))
    text = data.draw(mutated(print_term(t), _PIECES))
    try:
        parsed = parse_term(text, SIG3EQ)
    except ParseError:
        return
    check_term(parsed, SIG3EQ)
