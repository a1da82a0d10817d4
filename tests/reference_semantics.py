"""Reference oracle for ``folkit.semantics``: the evaluator over
name-keyed tables that the library used before it switched to integer
encoding, and a naive countermodel search built on it.

Differential tests compare the library against these.  The oracle reads
a structure only through its public name-keyed views, decoded once per
structure by :func:`named_tables`.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from folkit import (
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
    enumerate_structures,
    min_rank,
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
