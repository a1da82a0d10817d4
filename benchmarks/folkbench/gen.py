"""Seeded input generators.

Every generator draws from a ``random.Random`` it is handed, so one seed
always gives the same inputs.  Inputs are built with folkit's public
constructors and its substitution calculus; no verdict is ever computed
with the code under test.  The expected verdicts come from how each input
is built (soundness of the axiom schemas, consequences of a theory) or
from the reference evaluator in :mod:`folkbench.reference`.

This module deliberately does not import ``tests/strategies.py``: that
module depends on hypothesis and may change shape, which would silently
change the workloads.
"""

from __future__ import annotations

import itertools
import random

from folkit import (
    EQ_NAME,
    FALSE,
    App,
    Atom,
    Forall,
    Formula,
    Implies,
    Signature,
    Structure,
    Term,
    Var,
    instantiate,
    shift_up,
    single_subst,
    subst_formula,
)

SCHEMAS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8")


class Vocab:
    """A signature's symbols in a fixed order, for drawing random syntax."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.functions = sorted(sig.functions.items())
        self.constants = [name for name, arity in self.functions if arity == 0]
        self.branching = [(name, arity) for name, arity in self.functions if arity > 0]
        self.predicates = sorted(sig.predicates.items())


def term(rng: random.Random, v: Vocab, depth: int, max_var: int) -> Term:
    """A random parameter-free term of depth at most ``depth``."""
    if depth <= 0 or not v.functions or rng.random() < 0.4:
        if v.constants and rng.random() < 0.3:
            return App(rng.choice(v.constants))
        return Var(rng.randint(1, max_var))
    name, arity = rng.choice(v.functions)
    return App(name, tuple([term(rng, v, depth - 1, max_var) for _ in range(arity)]))


def deep_term(rng: random.Random, v: Vocab, depth: int, max_var: int) -> Term:
    """A term whose leftmost branch has exactly ``depth`` applications."""
    t = Var(rng.randint(1, max_var))
    for _ in range(depth):
        name, arity = rng.choice(v.branching)
        t = App(name, (t,) + tuple([term(rng, v, 1, max_var) for _ in range(arity - 1)]))
    return t


def atom(rng: random.Random, v: Vocab, max_var: int, term_depth: int = 1) -> Formula:
    name, arity = rng.choice(v.predicates)
    return Atom(name, tuple([term(rng, v, term_depth, max_var) for _ in range(arity)]))


def formula(rng: random.Random, v: Vocab, depth: int, max_var: int) -> Formula:
    """A random parameter-free formula with connective depth at most ``depth``."""
    if depth <= 0 or rng.random() < 0.35:
        return atom(rng, v, max_var)
    if rng.random() < 0.6:
        return Implies(formula(rng, v, depth - 1, max_var), formula(rng, v, depth - 1, max_var))
    return Forall(formula(rng, v, depth - 1, max_var))


def big_formula(rng: random.Random, v: Vocab, size: int, max_var: int) -> Formula:
    """A formula with exactly ``size`` atoms, joined by implications and
    an occasional quantifier."""
    if size <= 1:
        return atom(rng, v, max_var, 2)
    left = rng.randint(1, size - 1)
    f = Implies(big_formula(rng, v, left, max_var), big_formula(rng, v, size - left, max_var))
    return Forall(f) if rng.random() < 0.15 else f


def fresh(d: Term | Formula) -> Term | Formula:
    """A copy of ``d`` that shares no node with it, as text parsed twice
    would be: equality checks on it must walk the whole tree."""
    kind = type(d)
    if kind is Implies:
        return Implies(fresh(d.lhs), fresh(d.rhs))
    if kind is Atom:
        return Atom(d.symbol, tuple(map(fresh, d.args)))
    if kind is App:
        return App(d.symbol, tuple(map(fresh, d.args)))
    if kind is Var:
        return Var(d.index)
    if kind is Forall:
        return Forall(fresh(d.body))
    return d


def closed(f: Formula, rank: int) -> Formula:
    """Universally close ``f``, given an upper bound on its free indices."""
    for _ in range(rank):
        f = Forall(f)
    return f


def axiom_instance(rng: random.Random, v: Vocab, schema: str,
                   max_var: int, meta_depth: int) -> Formula:
    """A random instance of one axiom schema; A7/A8 need equality."""

    def meta() -> Formula:
        return formula(rng, v, meta_depth, max_var)

    if schema == "A1":
        a, b = meta(), meta()
        return Implies(a, Implies(b, a))
    if schema == "A2":
        a, b, c = meta(), meta(), meta()
        return Implies(Implies(a, Implies(b, c)), Implies(Implies(a, b), Implies(a, c)))
    if schema == "A3":
        a = meta()
        return Implies(Implies(Implies(a, FALSE), FALSE), a)
    if schema == "A4":
        a, b = meta(), meta()
        return Implies(Forall(Implies(a, b)), Implies(Forall(a), Forall(b)))
    if schema == "A5":
        a = meta()
        return Implies(Forall(a), subst_formula(a, instantiate(term(rng, v, 2, max_var))))
    if schema == "A6":
        a = meta()
        return Implies(a, Forall(shift_up(a)))
    if schema == "A7":
        i = rng.randint(1, max_var)
        return Atom(EQ_NAME, (Var(i), Var(i)))
    if schema == "A8":
        a = meta()
        x, y = rng.randint(1, max_var), rng.randint(1, max_var)
        return Implies(Atom(EQ_NAME, (Var(x), Var(y))), Implies(a, single_subst(a, Var(y), x)))
    raise ValueError(f"unknown schema {schema!r}")


# ---------------------------------------------------------------------------
# Structures, addressed by their index in a fixed mixed-radix encoding

def _table_symbols(sig: Signature) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    fns = sorted(sig.functions.items())
    preds = sorted((p, n) for p, n in sig.predicates.items() if p not in ("false", EQ_NAME))
    return fns, preds


def structure_count(sig: Signature, size: int) -> int:
    """How many structures the signature has on a carrier of ``size``."""
    fns, preds = _table_symbols(sig)
    count = 1
    for _, arity in fns:
        count *= size ** (size**arity)
    for _, arity in preds:
        count *= 2 ** (size**arity)
    return count


def structure_at(sig: Signature, size: int, index: int) -> Structure:
    """The structure with the given index on carrier {"0", ..., size-1}."""
    domain = tuple(str(i) for i in range(size))
    fns, preds = _table_symbols(sig)
    fn_tables = {}
    for name, arity in fns:
        table = {}
        for args in itertools.product(domain, repeat=arity):
            index, value = divmod(index, size)
            table[args] = domain[value]
        fn_tables[name] = table
    pred_tables = {}
    for name, arity in preds:
        members = set()
        for args in itertools.product(domain, repeat=arity):
            index, bit = divmod(index, 2)
            if bit:
                members.add(args)
        pred_tables[name] = members
    return Structure.make(sig, domain, fn_tables, pred_tables)


def interleave(*groups: list) -> list:
    """Merge lists so that every stretch of the result holds each group in
    proportion to its size, which keeps any prefix of a time-bounded run
    close to the intended mix."""
    keyed = []
    for g, items in enumerate(groups):
        n = len(items)
        keyed.extend(((k + 0.5) / n, g, k, item) for k, item in enumerate(items))
    keyed.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in keyed]
