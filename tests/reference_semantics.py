"""Reference oracles for ``folkit.semantics``: the evaluator over
name-keyed tables that the library used before it switched to integer
encoding, a naive countermodel search built on it, and Herbrand
evaluation over constants.

Differential tests compare the library against these.  The oracle reads
a structure only through its public name-keyed views, decoded once per
structure by :func:`named_tables`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from folkit import (
    FALSE,
    App,
    Atom,
    EvalError,
    Forall,
    Formula,
    Implies,
    Param,
    Signature,
    Term,
    Theory,
    Var,
    check_formula,
    enumerate_structures,
    has_params,
    instantiate,
    min_rank,
    print_formula,
    subst_formula,
)

Env = tuple[str, ...]


class NamedTables(NamedTuple):
    domain: tuple[str, ...]
    fn_tables: dict[str, dict[tuple[str, ...], str]]
    pred_tables: dict[str, frozenset[tuple[str, ...]]]


def named_tables(structure) -> NamedTables:
    return NamedTables(structure.domain, structure.fn_tables, structure.pred_tables)


def eval_term(t: Term, model: NamedTables, env: Env) -> str:
    ty = type(t)
    if ty is Var:
        if t.index > len(env):
            raise EvalError(
                f"environment of length {len(env)} is too short for x{t.index}"
            )
        return env[t.index - 1]
    if ty is Param:
        if t.name not in model.domain:
            raise EvalError(f"parameter {t.name!r} is not a carrier element")
        return t.name
    table = model.fn_tables.get(t.symbol)
    if table is None:
        raise EvalError(f"no table for function {t.symbol!r}")
    return table[tuple(eval_term(a, model, env) for a in t.args)]


def eval_formula(f: Formula, model: NamedTables, env: Env) -> bool:
    ty = type(f)
    if ty is Atom:
        table = model.pred_tables.get(f.symbol)
        if table is None:
            raise EvalError(f"no table for predicate {f.symbol!r}")
        return tuple(eval_term(a, model, env) for a in f.args) in table
    if ty is Implies:
        return (not eval_formula(f.lhs, model, env)) or eval_formula(f.rhs, model, env)
    if ty is Forall:
        body = f.body
        return all(eval_formula(body, model, (m,) + tuple(env)) for m in model.domain)
    raise EvalError(f"not a formula: {f!r}")


def naive_countermodel(theory: Theory, formula: Formula, sig: Signature, max_size: int):
    """The first (structure, env) in enumeration order that satisfies the
    theory and falsifies the formula, or None."""
    sentences = [f for _, f in theory.sentences]
    rank = min_rank(formula)
    for size in range(1, max_size + 1):
        for structure in enumerate_structures(sig, size):
            model = named_tables(structure)
            if all(eval_formula(s, model, ()) for s in sentences):
                for env in itertools.product(model.domain, repeat=rank):
                    if not eval_formula(formula, model, env):
                        return structure, env
    return None


# ---------------------------------------------------------------------------
# Herbrand evaluation over constants

@dataclass(frozen=True)
class AtomicValuation:
    """The chosen true ground atoms; the falsum is never among them."""

    atoms: frozenset[Atom]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", frozenset(self.atoms))
        for atom in self.atoms:
            if not isinstance(atom, Atom):
                raise ValueError(f"not an atomic formula: {atom!r}")
            if atom == FALSE:
                raise ValueError("the falsum cannot be a true atom")
            if min_rank(atom) or has_params(atom):
                raise ValueError(f"atom is not closed: {print_formula(atom)}")


def herbrand_eval(valuation: AtomicValuation, formula: Formula, sig: Signature) -> bool:
    """Evaluate a closed formula with atoms true exactly when chosen and
    the quantifier ranging over the signature's constant terms.  Only
    equality-free signatures whose function symbols are all constants
    have a finite term universe, so anything else is rejected."""
    if sig.with_equality:
        raise EvalError("herbrand evaluation requires a signature without equality")
    bad = [name for name, arity in sig.functions.items() if arity > 0]
    if bad:
        raise EvalError(f"non-constant function symbols have an infinite term universe: {sorted(bad)}")
    if has_params(formula) or min_rank(formula) != 0:
        raise EvalError("herbrand evaluation needs a closed, parameter-free formula")
    check_formula(formula, sig)
    for atom in valuation.atoms:
        check_formula(atom, sig)
    constants = [App(name) for name in sorted(sig.functions)]

    def go(f: Formula) -> bool:
        ty = type(f)
        if ty is Atom:
            return f in valuation.atoms
        if ty is Implies:
            return (not go(f.lhs)) or go(f.rhs)
        if not constants:
            raise EvalError("empty universe: no constants to quantify over")
        return all(go(subst_formula(f.body, instantiate(c))) for c in constants)

    return go(formula)
