"""Reference oracles for ``folkit.proof``: schema recognition and the
induction check by building the expected formula and comparing it, as
the library did before it decided both by one comparing walk.

Each schema's metavariables are read off the formula's shape, the
instance they determine is rebuilt with the substitution calculus, and
the formula is an instance exactly when the rebuilt one is it.  A5's
witness comes from an aligner that records what the consequent holds at
each free occurrence of the instantiated slot.  Differential tests
compare ``is_axiom`` and ``check_proof`` against these.
"""

from __future__ import annotations

from dataclasses import replace

from folkit import (
    EQ_NAME,
    FALSE,
    App,
    Atom,
    AxiomTag,
    Forall,
    Formula,
    Implies,
    Param,
    Signature,
    Term,
    Var,
    induction_sentence,
    instantiate,
    shift_down,
    shift_up,
    single_subst,
    subst_formula,
)


def _align_term(s: Term, u: Term, depth: int, hits: list[tuple[Term, int]]) -> bool:
    if isinstance(s, Var):
        slot = depth + 1
        if s.index == slot:
            hits.append((u, depth))
            return True
        if s.index < slot:
            return u == s
        return u == Var(s.index - 1)
    if isinstance(s, Param):
        return u == s
    return (
        isinstance(u, App)
        and u.symbol == s.symbol
        and len(u.args) == len(s.args)
        and all(_align_term(a, b, depth, hits) for a, b in zip(s.args, u.args))
    )


def _align_formula(s: Formula, u: Formula, depth: int, hits: list[tuple[Term, int]]) -> bool:
    if isinstance(s, Atom):
        return (
            isinstance(u, Atom)
            and u.symbol == s.symbol
            and len(u.args) == len(s.args)
            and all(_align_term(a, b, depth, hits) for a, b in zip(s.args, u.args))
        )
    if isinstance(s, Implies):
        return (
            isinstance(u, Implies)
            and _align_formula(s.lhs, u.lhs, depth, hits)
            and _align_formula(s.rhs, u.rhs, depth, hits)
        )
    return isinstance(u, Forall) and _align_formula(s.body, u.body, depth + 1, hits)


def a5_witness(f: Formula) -> Term | None:
    """A term t with f = (forall body) -> body[t, x1, x2, ...], or None:
    the first aligned occurrence shifted down, verified by substitution."""
    if not (isinstance(f, Implies) and isinstance(f.lhs, Forall)):
        return None
    body, target = f.lhs.body, f.rhs
    hits: list[tuple[Term, int]] = []
    if not _align_formula(body, target, 0, hits):
        return None
    if hits:
        witness, depth = hits[0]
        for _ in range(depth):
            witness = shift_down(witness)
    else:
        witness = Var(1)
    if subst_formula(body, instantiate(witness)) == target:
        return witness
    return None


def _is_var_eq(f: Formula) -> bool:
    return (
        isinstance(f, Atom)
        and f.symbol == EQ_NAME
        and len(f.args) == 2
        and all(isinstance(a, Var) for a in f.args)
    )


def _candidate(schema: str, f: Formula) -> tuple[AxiomTag, Formula] | None:
    """The tag f's shape determines for one schema, with the instance that
    tag stands for, or None when f lacks the schema's outline."""
    imp = isinstance(f, Implies)
    if schema == "A1" and imp and isinstance(f.rhs, Implies):
        a, b = f.lhs, f.rhs.lhs
        return AxiomTag("A1", (a, b)), Implies(a, Implies(b, a))
    if schema == "A2" and imp and isinstance(f.lhs, Implies) and isinstance(f.lhs.rhs, Implies):
        a, b, c = f.lhs.lhs, f.lhs.rhs.lhs, f.lhs.rhs.rhs
        built = Implies(Implies(a, Implies(b, c)), Implies(Implies(a, b), Implies(a, c)))
        return AxiomTag("A2", (a, b, c)), built
    if schema == "A3" and imp:
        a = f.rhs
        return AxiomTag("A3", (a,)), Implies(Implies(Implies(a, FALSE), FALSE), a)
    if (schema == "A4" and imp and isinstance(f.lhs, Forall)
            and isinstance(f.lhs.body, Implies)):
        a, b = f.lhs.body.lhs, f.lhs.body.rhs
        return AxiomTag("A4", (a, b)), Implies(Forall(Implies(a, b)), Implies(Forall(a), Forall(b)))
    if schema == "A5":
        t = a5_witness(f)
        if t is None:
            return None
        a = f.lhs.body
        return AxiomTag("A5", (a,), witness=t), Implies(Forall(a), subst_formula(a, instantiate(t)))
    if schema == "A6" and imp:
        a = f.lhs
        return AxiomTag("A6", (a,)), Implies(a, Forall(shift_up(a)))
    if schema == "A7" and _is_var_eq(f):
        x = f.args[0].index
        return AxiomTag("A7", var_pair=(x, x)), Atom(EQ_NAME, (Var(x), Var(x)))
    if schema == "A8" and imp and _is_var_eq(f.lhs) and isinstance(f.rhs, Implies):
        x, y = f.lhs.args[0].index, f.lhs.args[1].index
        a = f.rhs.lhs
        built = Implies(f.lhs, Implies(a, single_subst(a, Var(y), x)))
        return AxiomTag("A8", (a,), var_pair=(x, y)), built
    return None


def reference_is_axiom(f: Formula, sig: Signature) -> AxiomTag | None:
    """``is_axiom`` by build and compare: strip outer quantifiers, then
    the first schema, in order, whose rebuilt instance is f."""
    stripped = 0
    while isinstance(f, Forall):
        f = f.body
        stripped += 1
    schemas = ("A1", "A2", "A3", "A4", "A5", "A6")
    if sig.with_equality:
        schemas += ("A7", "A8")
    for schema in schemas:
        found = _candidate(schema, f)
        if found is not None and found[1] == f:
            return replace(found[0], stripped=stripped)
    return None


def reference_induction_reason(u: Formula, a: Formula, i: int) -> str | None:
    """The rejection ``check_proof`` owes a line u justified by
    ``ind(a, i)`` in a theory with induction, or None to accept it."""
    try:
        expected = induction_sentence(a, i)
    except ValueError as exc:
        return f"bad induction instance: {exc}"
    return None if expected == u else "wrong induction instance"
