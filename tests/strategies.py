"""Shared generators: hypothesis strategies plus seeded random builders.

The acceptance suite pins exact instance counts, so it uses the plain
``random.Random`` builders; the module property tests use the hypothesis
strategies for shrinking.
"""

from __future__ import annotations

import random
import re
from itertools import product

from hypothesis import strategies as st

from folkit import (
    EQ_NAME,
    FALSE,
    App,
    Atom,
    Forall,
    Formula,
    Implies,
    Param,
    Signature,
    Substitution,
    Term,
    Var,
    free_vars,
    instantiate,
    shift_up,
    single_subst,
    subst_formula,
)
from folkit.subst import _sparse, _trim

# three functions / three predicates, for the substitution-law suites
SIG3 = Signature({"a": 0, "f": 1, "g": 2}, {"P": 1, "Q": 2, "R": 0})
SIG3EQ = Signature(SIG3.functions, SIG3.predicates, True)

# one constant / one unary function, for the exhaustive instantiation oracle
SIG4 = Signature({"c": 0, "f": 1}, {"P": 1})

# one unary function / one binary predicate, with equality, for soundness
SIG5 = Signature({"g": 1}, {"R": 2}, True)


def max_index(d: Term | Formula) -> int:
    """Largest variable index occurring anywhere in the tree (0 if none).
    Counts bound occurrences too, which only overapproximates freshness."""
    if isinstance(d, Var):
        return d.index
    if isinstance(d, Param):
        return 0
    if isinstance(d, (App, Atom)):
        return max((max_index(a) for a in d.args), default=0)
    if isinstance(d, Implies):
        return max(max_index(d.lhs), max_index(d.rhs))
    return max_index(d.body)


def term_depth(t: Term) -> int:
    if isinstance(t, App) and t.args:
        return 1 + max(term_depth(a) for a in t.args)
    return 0


def with_entry(sigma: Substitution, i: int, t: Term) -> Substitution:
    """Copy of sigma with entry i replaced by t, built from its exceptions
    (so a huge i costs nothing)."""
    d = sigma.tail_offset
    return _sparse(_trim({**sigma._entries, i: t}, d), d)


def fresh_index(a: Formula, sigma: Substitution | None = None, i: int = 0) -> int:
    """A variable index unused by the inputs: one past every index occurring
    in the formula, in the relevant substitution entries, or given."""
    indices = {max_index(a), i}
    if sigma is not None:
        for j in free_vars(a):
            indices.add(max_index(sigma.entry(j)))
        for t in sigma.prefix:
            indices.add(max_index(t))
    return 1 + max(indices)


# ---------------------------------------------------------------------------
# Seeded random builders

def random_term(rng: random.Random, sig: Signature, max_depth: int = 2,
                max_var: int = 3, params: tuple[str, ...] = ()) -> Term:
    leafish = max_depth <= 0 or rng.random() < 0.4
    if leafish:
        kinds = ["var"]
        if params:
            kinds.append("param")
        constants = [f for f, n in sig.functions.items() if n == 0]
        if constants:
            kinds.append("const")
        kind = rng.choice(kinds)
        if kind == "var":
            return Var(rng.randint(1, max_var))
        if kind == "param":
            return Param(rng.choice(params))
        return App(rng.choice(constants))
    name, arity = rng.choice(sorted(sig.functions.items()))
    return App(name, tuple(
        random_term(rng, sig, max_depth - 1, max_var, params) for _ in range(arity)
    ))


def random_atom(rng: random.Random, sig: Signature, max_var: int = 3,
                params: tuple[str, ...] = ()) -> Formula:
    name, arity = rng.choice(sorted(sig.predicates.items()))
    return Atom(name, tuple(
        random_term(rng, sig, 1, max_var, params) for _ in range(arity)
    ))


def random_formula(rng: random.Random, sig: Signature, max_depth: int = 3,
                   max_var: int = 3, params: tuple[str, ...] = ()) -> Formula:
    if max_depth <= 0 or rng.random() < 0.35:
        return random_atom(rng, sig, max_var, params)
    if rng.random() < 0.6:
        return Implies(
            random_formula(rng, sig, max_depth - 1, max_var, params),
            random_formula(rng, sig, max_depth - 1, max_var, params),
        )
    return Forall(random_formula(rng, sig, max_depth - 1, max_var, params))


def random_substitution(rng: random.Random, sig: Signature, max_prefix: int = 3,
                        max_var: int = 3, params: tuple[str, ...] = ()) -> Substitution:
    n = rng.randint(0, max_prefix)
    prefix = tuple(random_term(rng, sig, 2, max_var, params) for _ in range(n))
    return Substitution(prefix, rng.randint(-n, 2))


def random_datum(rng: random.Random, sig: Signature, **kw) -> Term | Formula:
    if rng.random() < 0.4:
        return random_term(rng, sig, 3, kw.get("max_var", 3), kw.get("params", ()))
    return random_formula(rng, sig, 3, kw.get("max_var", 3), kw.get("params", ()))


# ---------------------------------------------------------------------------
# Exhaustive enumeration (used as oracles)

def enumerate_terms(sig: Signature, depth: int, max_var: int) -> list[Term]:
    """Every parameter-free term of depth at most ``depth``."""
    current: list[Term] = [Var(i) for i in range(1, max_var + 1)]
    current += [App(f) for f, n in sorted(sig.functions.items()) if n == 0]
    seen = list(current)
    for _ in range(depth):
        layer: list[Term] = []
        for name, arity in sorted(sig.functions.items()):
            if arity == 0:
                continue
            for args in product(seen, repeat=arity):
                candidate = App(name, args)
                if candidate not in seen:
                    layer.append(candidate)
        seen = seen + layer
    return seen


def enumerate_formulas(atoms: list[Formula], connectives: int) -> list[Formula]:
    """Every formula with at most ``connectives`` occurrences of the two
    connectives, over the given atom pool."""
    layers: list[list[Formula]] = [list(atoms)]
    for size in range(1, connectives + 1):
        layer: list[Formula] = [Forall(f) for f in layers[size - 1]]
        for left_size in range(size):
            for lhs in layers[left_size]:
                for rhs in layers[size - 1 - left_size]:
                    layer.append(Implies(lhs, rhs))
        layers.append(layer)
    return [f for layer in layers for f in layer]


def random_structure(rng: random.Random, sig: Signature, size: int):
    """A uniformly random structure on the carrier {"0", ..., str(size-1)}."""
    from folkit import Structure

    domain = tuple(str(i) for i in range(size))
    fn_tables = {}
    for name, arity in sig.functions.items():
        fn_tables[name] = {
            args: rng.choice(domain) for args in product(domain, repeat=arity)
        }
    pred_tables = {}
    for name, arity in sig.predicates.items():
        if name in ("false", "eq"):
            continue
        pred_tables[name] = {
            args for args in product(domain, repeat=arity) if rng.random() < 0.5
        }
    return Structure.make(sig, domain, fn_tables, pred_tables)


def random_env(rng: random.Random, structure, length: int) -> tuple[str, ...]:
    return tuple(rng.choice(structure.domain) for _ in range(length))


def formula_term_depth(f: Formula) -> int:
    """Deepest term appearing in any atom of the formula."""
    if isinstance(f, Atom):
        return max((term_depth(a) for a in f.args), default=0)
    if isinstance(f, Implies):
        return max(formula_term_depth(f.lhs), formula_term_depth(f.rhs))
    return formula_term_depth(f.body)


def a5_witness_brute(a: Formula, b: Formula, sig: Signature) -> Term | None:
    """Enumeration oracle: a parameter-free t with a[t, x1, x2, ...] == b.

    Complete because a witness must appear, suitably shifted, as a subterm
    of b wherever the instantiated slot is free in a, so b bounds both its
    depth and its variables; when the slot is not free, any term works.
    """
    if 1 not in free_vars(a):
        return Var(1) if subst_formula(a, instantiate(Var(1))) == b else None
    depth = formula_term_depth(b)
    max_var = max(max_index(b), 1)
    for t in enumerate_terms(sig, depth, max_var):
        if subst_formula(a, instantiate(t)) == b:
            return t
    return None


def random_axiom_instance(rng: random.Random, sig: Signature, schema: str,
                          max_var: int = 3, meta_depth: int = 1,
                          closures: int = 0) -> Formula:
    """A random instance of one schema, optionally universally closed."""
    def meta() -> Formula:
        return random_formula(rng, sig, meta_depth, max_var)

    if schema == "A1":
        a, b = meta(), meta()
        f = Implies(a, Implies(b, a))
    elif schema == "A2":
        a, b, c = meta(), meta(), meta()
        f = Implies(Implies(a, Implies(b, c)),
                    Implies(Implies(a, b), Implies(a, c)))
    elif schema == "A3":
        a = meta()
        f = Implies(Implies(Implies(a, FALSE), FALSE), a)
    elif schema == "A4":
        a, b = meta(), meta()
        f = Implies(Forall(Implies(a, b)), Implies(Forall(a), Forall(b)))
    elif schema == "A5":
        a = meta()
        t = random_term(rng, sig, 2, max_var)
        f = Implies(Forall(a), subst_formula(a, instantiate(t)))
    elif schema == "A6":
        a = meta()
        f = Implies(a, Forall(shift_up(a)))
    elif schema == "A7":
        i = rng.randint(1, max_var)
        f = Atom(EQ_NAME, (Var(i), Var(i)))
    elif schema == "A8":
        a = meta()
        x, y = rng.randint(1, max_var), rng.randint(1, max_var)
        f = Implies(Atom(EQ_NAME, (Var(x), Var(y))),
                    Implies(a, single_subst(a, Var(y), x)))
    else:
        raise ValueError(schema)
    for _ in range(closures):
        f = Forall(f)
    return f


SCHEMAS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8")


# ---------------------------------------------------------------------------
# Hypothesis strategies

def terms(sig: Signature = SIG3, max_var: int = 4,
          params: tuple[str, ...] = ()) -> st.SearchStrategy[Term]:
    leaves = [st.integers(1, max_var).map(Var)]
    constants = [f for f, n in sig.functions.items() if n == 0]
    if constants:
        leaves.append(st.sampled_from(constants).map(App))
    if params:
        leaves.append(st.sampled_from(params).map(Param))
    branching = [(f, n) for f, n in sorted(sig.functions.items()) if n > 0]

    def extend(children: st.SearchStrategy[Term]) -> st.SearchStrategy[Term]:
        return st.sampled_from(branching).flatmap(
            lambda fn: st.tuples(*[children] * fn[1]).map(lambda args: App(fn[0], args))
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=6)


def atoms(sig: Signature = SIG3, max_var: int = 4,
          params: tuple[str, ...] = ()) -> st.SearchStrategy[Formula]:
    return st.sampled_from(sorted(sig.predicates.items())).flatmap(
        lambda pred: st.tuples(*[terms(sig, max_var, params)] * pred[1]).map(
            lambda args: Atom(pred[0], args)
        )
    )


def formulas(sig: Signature = SIG3, max_var: int = 4,
             params: tuple[str, ...] = ()) -> st.SearchStrategy[Formula]:
    def extend(children: st.SearchStrategy[Formula]) -> st.SearchStrategy[Formula]:
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Implies(*ab)),
            children.map(Forall),
        )

    return st.recursive(atoms(sig, max_var, params), extend, max_leaves=5)


def data(sig: Signature = SIG3, max_var: int = 4) -> st.SearchStrategy[Term | Formula]:
    return st.one_of(terms(sig, max_var), formulas(sig, max_var))


def substitutions(sig: Signature = SIG3, max_var: int = 4) -> st.SearchStrategy[Substitution]:
    return st.lists(terms(sig, max_var), max_size=3).flatmap(
        lambda prefix: st.integers(-len(prefix), 2).map(
            lambda d: Substitution(tuple(prefix), d)
        )
    )


# a name, a variable or a parameter, an arrow, a run of blanks, or any one
# other character
_TOKEN_RE = re.compile(r"\s+|->|\$?\w+|.", re.S)


def mutated(text: str, pieces: tuple[str, ...], max_edits: int = 3) -> st.SearchStrategy[str]:
    """``text`` after up to ``max_edits`` edits, each of which replaces
    none, one or two adjacent tokens with one of ``pieces`` or with
    nothing."""
    choices = ("",) + pieces

    @st.composite
    def edit(draw) -> str:
        tokens = _TOKEN_RE.findall(text)
        for _ in range(draw(st.integers(0, max_edits))):
            i = draw(st.integers(0, len(tokens)))
            j = i + draw(st.sampled_from((1, 0, 2)))
            tokens[i:j] = [draw(st.sampled_from(choices))]
        return "".join(tokens)

    return edit()
