"""The one nesting limit: no node is deeper than MAX_DEPTH, every walker
handles a node at the limit with stack to spare, and the parsers refuse
deeper text with ParseError and raise nothing else."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkit import (
    EMPTY_THEORY,
    MAX_DEPTH,
    SHIFT_UP,
    App,
    Atom,
    Forall,
    Formula,
    Implies,
    ParseError,
    Signature,
    Structure,
    Var,
    check_formula,
    check_term,
    eval_formula,
    eval_term,
    find_countermodel,
    forall_n,
    free_vars,
    has_rank,
    is_axiom,
    parse_formula,
    parse_substitution,
    parse_term,
    print_formula,
    print_term,
    subst_formula,
    subst_term,
)
from folkit import semantics, syntax
import reference_semantics as reference

SIG = Signature({"f": 1}, {"P": 1}, with_equality=True)
STRUCTURE = Structure.make(SIG, ("0", "1"), {"f": {("0",): "1", ("1",): "0"}}, {"P": {("0",)}})
ATOM = Atom("P", (Var(1),))


def on_deep_stack(call, *args, frames=300):
    """call(*args), made from under ``frames`` more stack frames."""
    if frames:
        return on_deep_stack(call, *args, frames=frames - 1)
    return call(*args)


def applications(n: int):
    t = Var(1)
    for _ in range(n):
        t = App("f", (t,))
    return t


def implications(n: int):
    f = ATOM
    for _ in range(n):
        f = Implies(ATOM, f)
    return f


# (name, a formula of depth MAX_DEPTH, the constructor one level up)
AT_LIMIT = (
    ("implies", lambda: implications(MAX_DEPTH - 2), lambda f: Implies(ATOM, f)),
    ("forall", lambda: forall_n(ATOM, MAX_DEPTH - 2), Forall),
    ("applications", lambda: Atom("P", (applications(MAX_DEPTH - 2),)),
     lambda f: Atom("P", (App("f", f.args),))),
)


def round_trip(d):
    return pickle.loads(pickle.dumps(d))


@pytest.mark.parametrize("build, one_more", [case[1:] for case in AT_LIMIT],
                         ids=[case[0] for case in AT_LIMIT])
def test_every_walker_handles_a_formula_at_the_limit(build, one_more):
    f = build()
    assert f.depth == MAX_DEPTH
    assert on_deep_stack(print_formula, f).endswith(")")
    assert on_deep_stack(repr, f).startswith(type(f).__name__)
    assert on_deep_stack(free_vars, f) <= {1}
    assert on_deep_stack(check_formula, f, SIG) is None
    assert on_deep_stack(has_rank, f, 1) and on_deep_stack(has_rank, f, 0) == (f.min_rank == 0)
    assert on_deep_stack(subst_formula, f, SHIFT_UP).depth == MAX_DEPTH
    on_deep_stack(is_axiom, f, SIG)
    assert on_deep_stack(eval_formula, f, STRUCTURE, ("0",)) in (True, False)
    on_deep_stack(find_countermodel, EMPTY_THEORY, f, SIG, 2)
    assert on_deep_stack(round_trip, f) is f
    assert on_deep_stack(copy.deepcopy, f) is f
    with pytest.raises(ValueError, match="nested too deeply"):
        one_more(f)


@pytest.mark.parametrize("build", [case[1] for case in AT_LIMIT],
                         ids=[case[0] for case in AT_LIMIT])
def test_a_formula_at_the_limit_tiers_up_to_generated_code(build):
    f = build()
    expected = reference.eval_formula(f, reference.named_tables(STRUCTURE), ("0",))
    for _ in range(2):  # the first evaluation generates the function, the second runs it
        assert on_deep_stack(eval_formula, f, STRUCTURE, ("0",)) is expected
    assert f._code.__name__ == "generated"
    encoded = 2, STRUCTURE._fns, STRUCTURE._preds, STRUCTURE._index, (0,)
    assert on_deep_stack(semantics._holds, f, *encoded) is expected


def test_every_walker_handles_a_term_at_the_limit():
    t = applications(MAX_DEPTH - 1)
    assert t.depth == MAX_DEPTH
    assert on_deep_stack(print_term, t).startswith("f(f(")
    assert on_deep_stack(repr, t).startswith("App(")
    assert on_deep_stack(free_vars, t) == {1}
    assert on_deep_stack(check_term, t, SIG) is None
    assert on_deep_stack(has_rank, t, 1)
    assert on_deep_stack(subst_term, t, SHIFT_UP).depth == MAX_DEPTH
    assert on_deep_stack(eval_term, t, STRUCTURE, ("0",)) in STRUCTURE.domain
    assert on_deep_stack(round_trip, t) is t
    assert on_deep_stack(copy.deepcopy, t) is t
    with pytest.raises(ValueError, match="nested too deeply"):
        App("f", (t,))
    assert (App, "f", (t,)) not in syntax._nodes


def term_text(n: int) -> str:
    return "f(" * n + "x1" + ")" * n


# Text nested n levels deep, for each construct the parsers count.
FORMULA_TEXTS = {
    "~": lambda n: "~" * n + "P(x1)",
    "parentheses": lambda n: "(" * n + "P(x1)" + ")" * n,
    "->": lambda n: "P(x1) -> " * n + "P(x1)",
    "~ left of ->": lambda n: "~" * n + "P(x1) -> P(x1)",
    "forall": lambda n: "(forall " * n + "P(x1)" + ")" * n,
    "forall xN": lambda n: "(forall x2 " * n + "P(x2)" + ")" * n,
    "=": lambda n: term_text(n) + " = x1",
    "application": lambda n: f"P({term_text(n)})",
}
PARSERS = (
    ("formula", lambda n, text: parse_formula(text(n), SIG), FORMULA_TEXTS),
    ("term", lambda n, text: parse_term(text(n), SIG), {"application": term_text}),
    ("substitution", lambda n, text: parse_substitution(f"[{text(n)}; +1]", SIG).prefix[0],
     {"application": term_text}),
)


def parsed_depth(parse, n, text):
    """The depth of the node parsed, or None for a ParseError."""
    try:
        return on_deep_stack(parse, n, text).depth
    except ParseError as exc:
        assert str(exc) == "input nested too deeply"
        return None


@pytest.mark.parametrize("parse, texts", [case[1:] for case in PARSERS],
                         ids=[case[0] for case in PARSERS])
def test_parsers_refuse_text_past_the_limit(parse, texts):
    for name, text in texts.items():
        depths = [parsed_depth(parse, n, text) for n in range(MAX_DEPTH - 3, MAX_DEPTH + 2)]
        assert depths[0] is not None and depths[-1] is None, name
        assert all(d is None or d <= MAX_DEPTH for d in depths), name
    # the limit is exact for nesting that builds a level per construct
    if "~" in texts:
        assert parse(MAX_DEPTH - 2, texts["~"]).depth == MAX_DEPTH
        assert parsed_depth(parse, MAX_DEPTH - 1, texts["~"]) is None


WRAP_FORMULA = (
    lambda a: "~" + a,
    lambda a: f"({a})",
    lambda a: f"(forall {a})",
    lambda a: f"(forall x2 {a})",
    lambda a: f"({a}) -> P(x1)",
    lambda a: f"{a} -> P(x1)",
    lambda a: f"P(x1) -> {a}",
)
# no text starts with a variable, which "(forall" would take as its xN
WRAP_TERM = (lambda t: f"P({t})", lambda t: f"f({t}) = x1", lambda t: f"f(x1) = {t}")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, MAX_DEPTH + 5), st.integers(0, 2),
       st.lists(st.sampled_from(WRAP_FORMULA), min_size=MAX_DEPTH - 30, max_size=MAX_DEPTH + 5))
def test_mixed_nesting_parses_within_the_limit_or_is_refused(n, atom, wraps):
    text = WRAP_TERM[atom](term_text(n))
    for wrap in wraps:
        text = wrap(text)
    try:
        f = parse_formula(text, SIG)
    except ParseError as exc:
        assert str(exc) == "input nested too deeply"
    else:
        assert isinstance(f, Formula) and f.depth <= MAX_DEPTH
