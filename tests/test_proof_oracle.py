"""Differential tests: schema recognition, the induction check and the
comparing walker against the build-and-compare oracles."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from folkit import (
    FALSE,
    App,
    Atom,
    ByInd,
    EQ_NAME,
    Forall,
    Implies,
    Proof,
    ProofLine,
    Substitution,
    Term,
    Var,
    Theory,
    check_proof,
    forall_n,
    induction_sentence,
    instantiate,
    is_axiom,
    lift,
    min_rank,
    shift_up,
    subst_formula,
    subst_term,
)
from folkit.proof import _image
from reference_proof import reference_induction_reason, reference_is_axiom
from strategies import (
    SCHEMAS,
    SIG3EQ,
    data,
    formulas,
    random_axiom_instance,
    terms,
    with_entry,
)

INDUCTIVE = Theory("inductive", (), has_induction=True)


def _instance(seed: int):
    rng = random.Random(seed)
    return random_axiom_instance(rng, SIG3EQ, SCHEMAS[seed % len(SCHEMAS)], max_var=4,
                                 meta_depth=rng.randint(0, 3), closures=rng.randint(0, 2))


def _term_count(d) -> int:
    if isinstance(d, Term):
        return 1 + sum(map(_term_count, getattr(d, "args", ())))
    if isinstance(d, Atom):
        return sum(map(_term_count, d.args))
    if isinstance(d, Implies):
        return _term_count(d.lhs) + _term_count(d.rhs)
    return _term_count(d.body)


def _replace_term(d, k: int, new: Term):
    """d with its k-th term node, counted in preorder from 0, replaced by new."""
    def walk(d):
        nonlocal k
        if isinstance(d, Term):
            k -= 1
            if k == -1:
                return new
            return App(d.symbol, tuple(map(walk, d.args))) if isinstance(d, App) else d
        if isinstance(d, Atom):
            return Atom(d.symbol, tuple(map(walk, d.args)))
        if isinstance(d, Implies):
            return Implies(walk(d.lhs), walk(d.rhs))
        return Forall(walk(d.body))

    return walk(d)


def _one_term_mutants(f, k: int, t: Term):
    """f with one term node, picked by k, replaced by t and by x1."""
    n = _term_count(f)
    return [_replace_term(f, k % n, new) for new in (t, Var(1))] if n else []


def _near_misses(f, t, k):
    """One-node mutations of an axiom instance f, kept under its closures:
    a shifted consequent, a wrong A5 witness t, an extra quantifier on
    either side, a swapped equality pair, and one term replaced."""
    closures = 0
    while isinstance(f, Forall):
        f, closures = f.body, closures + 1
    out = _one_term_mutants(f, k, t)
    if isinstance(f, Implies):
        out += [
            Implies(f.lhs, shift_up(f.rhs)),
            Implies(f.lhs, Forall(f.rhs)),
            Implies(Forall(f.lhs), f.rhs),
        ]
        if isinstance(f.lhs, Forall):
            out.append(Implies(f.lhs, subst_formula(f.lhs.body, instantiate(t))))
        if isinstance(f.lhs, Atom) and f.lhs.symbol == EQ_NAME:
            out.append(Implies(Atom(EQ_NAME, f.lhs.args[::-1]), f.rhs))
    return [forall_n(m, closures) for m in out]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), terms(SIG3EQ), st.integers(0, 2**16))
def test_is_axiom_matches_the_oracle_on_instances_and_near_misses(seed, t, k):
    f = _instance(seed)
    assert is_axiom(f, SIG3EQ) is not None
    for candidate in [f] + _near_misses(f, t, k):
        assert is_axiom(candidate, SIG3EQ) == reference_is_axiom(candidate, SIG3EQ), candidate


@settings(max_examples=200, deadline=None)
@given(formulas(SIG3EQ))
def test_is_axiom_matches_the_oracle_on_any_formula(f):
    assert is_axiom(f, SIG3EQ) == reference_is_axiom(f, SIG3EQ)


def _captured(d, t: Term, depth: int = 0):
    """d[t, x1, x2, ...] done wrongly: t is not shifted under binders, so
    its variables are captured by them."""
    if isinstance(d, Var):
        if d.index == depth + 1:
            return t
        return d if d.index <= depth else Var(d.index - 1)
    if isinstance(d, (App, Atom)):
        return type(d)(d.symbol, tuple(_captured(a, t, depth) for a in d.args))
    if isinstance(d, Implies):
        return Implies(_captured(d.lhs, t, depth), _captured(d.rhs, t, depth))
    if isinstance(d, Forall):
        return Forall(_captured(d.body, t, depth + 1))
    return d


@settings(max_examples=300, deadline=None)
@given(formulas(SIG3EQ), terms(SIG3EQ))
def test_a5_refuses_captured_witnesses(body, t):
    for target in (_captured(body, t), _captured(body, Var(1))):
        f = Implies(Forall(body), target)
        assert is_axiom(f, SIG3EQ) == reference_is_axiom(f, SIG3EQ)


def test_a5_refuses_a_witness_bound_at_its_only_occurrence():
    body = Forall(Atom("Q", (Var(1), Var(2))))
    f = Implies(Forall(body), Forall(Atom("Q", (Var(1), Var(1)))))
    assert reference_is_axiom(f, SIG3EQ) is None
    assert is_axiom(f, SIG3EQ) is None


def _ind_verdict(u, a, i):
    verdict = check_proof(Proof((ProofLine(u, ByInd(a, i)),)), INDUCTIVE, SIG3EQ)
    return None if verdict.ok else verdict.reason


@settings(max_examples=300, deadline=None)
@given(formulas(SIG3EQ), st.integers(0, 5), st.integers(1, 5), formulas(SIG3EQ),
       terms(SIG3EQ), st.integers(0, 2**16))
def test_induction_verdict_matches_the_oracle(a, i, j, other, t, k):
    n = min_rank(a)
    u = induction_sentence(a, min(j, n)) if n else Forall(a)
    candidates = [u, shift_up(u), Forall(u), Implies(u, FALSE), other]
    candidates += _one_term_mutants(u, k, t)
    if isinstance(u, Forall):
        candidates.append(u.body)
    if min_rank(other):
        candidates.append(induction_sentence(other, 1))
    for candidate in candidates:
        assert _ind_verdict(candidate, a, i) == reference_induction_reason(candidate, a, i)


def _lifted(sigma: Substitution, depth: int) -> Substitution:
    for _ in range(depth):
        sigma = lift(sigma)
    return sigma


def _apply(d, sigma):
    return subst_term(d, sigma) if isinstance(d, Term) else subst_formula(d, sigma)


def _one_slot(slot: int, term: Term, tail: int) -> Substitution:
    """The sequence mapping slot to term and every other slot j to x(j + tail)."""
    if not slot:
        return Substitution((), tail)
    return Substitution(tuple(Var(j + tail) for j in range(1, slot)) + (term,), tail)


@settings(max_examples=300, deadline=None)
@given(data(SIG3EQ), st.integers(0, 4), terms(SIG3EQ), st.integers(-1, 2), st.integers(0, 2),
       st.integers(1, 4), terms(SIG3EQ))
def test_image_decides_substitution_images(s, slot, term, tail, depth, other, t):
    if tail < 0:
        slot = 1  # every other slot j must map to a variable x(j + tail)
    sigma = _one_slot(slot, term, tail)
    image = _apply(s, _lifted(sigma, depth))
    wrong_entry = _apply(s, _lifted(with_entry(sigma, other, t), depth))
    wrong_tail = _apply(s, _lifted(Substitution(sigma.prefix, sigma.tail_offset + 1), depth))
    for u in (image, shift_up(image), wrong_entry, wrong_tail, s):
        assert _image(s, u, slot, term, tail, depth, None) == (u is image)
