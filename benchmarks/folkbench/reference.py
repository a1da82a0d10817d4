"""Reference oracles, written independently of the code under test.

A small evaluator, a canonical printer and a model-file reader.  They read
folkit's syntax trees and structures as plain data and share no code with
``folkit.semantics`` or ``folkit.syntax``.  They run only outside the timed
region of an op.
"""

from __future__ import annotations

from folkit import Atom, Forall, Formula, Implies, Param, Structure, Term, Var

# A model as plain data: carrier, function tables, predicate relations.
Model = tuple[tuple[str, ...], dict[str, dict[tuple[str, ...], str]], dict[str, set[tuple[str, ...]]]]


def model_of(structure: Structure) -> Model:
    return structure.domain, structure.fn_tables, {n: set(t) for n, t in structure.pred_tables.items()}


def _term_value(t: Term, model: Model, env: tuple[str, ...]) -> str:
    if isinstance(t, Var):
        return env[t.index - 1]
    if isinstance(t, Param):
        return t.name
    return model[1][t.symbol][tuple(_term_value(a, model, env) for a in t.args)]


def holds(f: Formula, model: Model, env: tuple[str, ...]) -> bool:
    """Tarski truth of ``f`` in ``model`` under ``env`` (slot i is env[i-1])."""
    if isinstance(f, Atom):
        args = tuple(_term_value(a, model, env) for a in f.args)
        if f.symbol == "false":
            return False
        if f.symbol == "eq":
            return args[0] == args[1]
        return args in model[2].get(f.symbol, ())
    if isinstance(f, Implies):
        return not holds(f.lhs, model, env) or holds(f.rhs, model, env)
    if isinstance(f, Forall):
        return all(holds(f.body, model, (m,) + env) for m in model[0])
    raise TypeError(f"not a formula: {f!r}")


def show_term(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Param):
        return f"${t.name}"
    return f"{t.symbol}({','.join(show_term(a) for a in t.args)})"


def show(f: Formula) -> str:
    """The canonical, fully parenthesized text of ``f`` (README grammar)."""
    if isinstance(f, Atom):
        if f.symbol == "false" and not f.args:
            return "false"
        return f"{f.symbol}({','.join(show_term(a) for a in f.args)})"
    if isinstance(f, Implies):
        return f"({show(f.lhs)} -> {show(f.rhs)})"
    return f"(forall {show(f.body)})"


def show_sugared(f: Formula) -> str:
    """Text of ``f`` using the parser's sugar: ``~A``, ``s = t`` and
    unparenthesized right-associated implication chains."""
    if isinstance(f, Atom):
        if f.symbol == "eq":
            return f"{show_term(f.args[0])} = {show_term(f.args[1])}"
        return show(f)
    if isinstance(f, Implies):
        if f.rhs == Atom("false"):
            return f"~{_unit(f.lhs)}"
        return f"{_unit(f.lhs)} -> {show_sugared(f.rhs)}"
    return f"(forall {_unit(f.body)})"


def _unit(f: Formula) -> str:
    text = show_sugared(f)
    if isinstance(f, Implies) and f.rhs != Atom("false"):
        return f"({text})"
    if isinstance(f, Atom) and f.symbol == "eq":
        return f"({text})"
    return text


def read_model(text: str) -> tuple[Model, tuple[str, ...]]:
    """Read the model-file form a countermodel is printed in."""
    domain: tuple[str, ...] = ()
    fns: dict[str, dict[tuple[str, ...], str]] = {}
    preds: dict[str, set[tuple[str, ...]]] = {}
    env: tuple[str, ...] = ()
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "domain":
            domain = tuple(parts[1:])
        elif parts[0] == "env":
            env = tuple(parts[1:])
        elif parts[0] == "fn":
            name, mapping = line[2:].split(":", 1)
            args, value = mapping.rsplit("->", 1)
            fns.setdefault(name.strip(), {})[tuple(args.split())] = value.strip()
        elif parts[0] == "pred":
            name, members = line[4:].split(":", 1)
            preds.setdefault(name.strip(), set()).add(tuple(members.split()))
        else:
            raise ValueError(f"unexpected model line {line!r}")
    return (domain, fns, preds), env
