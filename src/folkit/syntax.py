"""Concrete syntax: signatures, terms, formulas, parsing and printing.

Terms and formulas are immutable, hash-consed trees: equal trees are the
same object, so comparing them is O(1).  Variables are positive indices
(surface form ``xN``); parameters are interned names (surface form
``$name``) drawn from an open-ended set.  The only formula
constructors are atoms, implication and the index-shifting universal
quantifier; every piece of surface sugar (``~``, ``=``, ``forall xi``)
is expanded at parse time.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

__all__ = [
    "ParseError",
    "Signature",
    "Term",
    "Var",
    "Param",
    "App",
    "Formula",
    "Atom",
    "Implies",
    "Forall",
    "FALSE",
    "FALSE_NAME",
    "EQ_NAME",
    "MAX_DEPTH",
    "parse_signature",
    "parse_term",
    "parse_formula",
    "print_term",
    "print_formula",
    "check_term",
    "check_formula",
    "has_params",
]

FALSE_NAME = "false"
EQ_NAME = "eq"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VAR_RE = re.compile(r"x([0-9]+)")
_PARAM_RE = re.compile(r"\$([A-Za-z0-9_]+)")


class ParseError(ValueError):
    """Raised on malformed source text for any of the file formats."""


def _valid_symbol(name: str) -> bool:
    if name == "forall":
        return False
    return _NAME_RE.fullmatch(name) is not None and _VAR_RE.fullmatch(name) is None


@dataclass(frozen=True)
class Signature:
    """Function and predicate symbols with arities.

    The 0-ary predicate ``false`` is always present.  The 2-ary predicate
    ``eq`` is present exactly when ``with_equality`` is set; declaring it
    explicitly turns the flag on.  The symbol tables are read-only views
    of private copies, so a signature is immutable and hashable.
    """

    functions: Mapping[str, int] = field(default_factory=dict)
    predicates: Mapping[str, int] = field(default_factory=dict)
    with_equality: bool = False

    def __post_init__(self) -> None:
        preds = dict(self.predicates)
        if preds.setdefault(FALSE_NAME, 0) != 0:
            raise ValueError("reserved predicate 'false' must have arity 0")
        eq_arity = preds.get(EQ_NAME)
        if eq_arity is not None and eq_arity != 2:
            raise ValueError("reserved predicate 'eq' must have arity 2")
        with_eq = self.with_equality or eq_arity is not None
        if with_eq:
            preds[EQ_NAME] = 2
        fns = dict(self.functions)
        for name, arity in list(fns.items()) + list(preds.items()):
            if not _valid_symbol(name):
                raise ValueError(f"invalid symbol name {name!r}")
            if type(arity) is not int or arity < 0:
                raise ValueError(f"arity of {name!r} must be an int >= 0, got {arity!r}")
        overlap = set(fns) & set(preds)
        if overlap:
            raise ValueError(f"duplicate name across functions and predicates: {sorted(overlap)}")
        object.__setattr__(self, "functions", MappingProxyType(fns))
        object.__setattr__(self, "predicates", MappingProxyType(preds))
        object.__setattr__(self, "with_equality", with_eq)

    def __hash__(self) -> int:
        return hash((frozenset(self.functions.items()), frozenset(self.predicates.items()),
                     self.with_equality))

    def __reduce__(self):
        return Signature, (dict(self.functions), dict(self.predicates), self.with_equality)


# ---------------------------------------------------------------------------
# Hash-consed nodes
#
# Every term and formula node is interned (Filliatre & Conchon, "Type-safe
# modular hash-consing", 2006): a constructor returns the one live node with
# its class and fields, building it only on the first request.  Two equal
# trees are therefore the same object, so ``==`` and ``hash`` are the
# identity defaults and cost O(1).  Children are canonical before their
# parent is built, so a node's key hashes its children by identity.  The
# table holds its nodes weakly: an entry leaves when the last reference to
# its node goes.  Lookups take no lock; building a missing node takes one,
# so two threads can never publish two nodes for one key.
#
# No node is deeper than MAX_DEPTH (a leaf has depth 1): building a deeper
# one raises ValueError, so no walker, recursing along the depth, comes
# near the interpreter's recursion limit (deepcopy takes six frames a level).

MAX_DEPTH = 100


class _Ref(weakref.ref):
    """The table's reference to a node, with the node's key."""

    __slots__ = ("key",)


_nodes: dict[tuple, _Ref] = {}
_lock = threading.Lock()
_missing = type(None)  # stands in for a dead reference: calling it gives None


def _forget(ref: _Ref) -> None:
    # Runs when a node dies.  Removes the entry only if it still holds this
    # dead reference, atomically, as WeakValueDictionary does.
    _remove_dead_weakref(_nodes, ref.key)


def _intern(key: tuple, rank: int, params: bool, depth: int):
    # key is the node's class followed by its fields in declaration order
    cls = key[0]
    if depth > MAX_DEPTH:
        raise ValueError(f"term or formula nested too deeply: depth {depth} "
                         f"exceeds MAX_DEPTH = {MAX_DEPTH}")
    with _lock:
        node = _nodes.get(key, _missing)()
        if node is None:
            node = object.__new__(cls)
            for set_slot, value in zip(cls._setters, (*key[1:], rank, params, depth)):
                set_slot(node, value)
            ref = _nodes[key] = _Ref(node, _forget)
            ref.key = key
    return node


class _Node:
    """Interned, immutable node.  Besides its fields each node caches
    ``min_rank``, the least n such that it depends on no variable beyond
    slot n, ``has_params``, whether a parameter occurs in it, and
    ``depth``, the length of its longest path to a leaf (1 for a leaf);
    all are computed from the children in O(arity) when the node is built."""

    __slots__ = ("min_rank", "has_params", "depth", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    min_rank: int
    has_params: bool
    depth: int

    def __init_subclass__(cls) -> None:
        # slot writers, bypassing __setattr__: the fields, then the caches
        names = cls.__match_args__ + ("min_rank", "has_params", "depth")
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which returns
        # the canonical node
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Term(_Node):
    """Base class for term nodes (Var, Param, App)."""

    __slots__ = ()


class Var(Term):
    __slots__ = ("index",)
    __match_args__ = ("index",)
    index: int

    def __new__(cls, index: int) -> Var:
        key = (cls, index)
        node = _nodes.get(key, _missing)()
        if node is None:
            # an equal float or bool key would stand in for the int from then on
            if type(index) is not int or index < 1:
                raise ValueError(f"variable index must be an int >= 1, got {index!r}")
            node = _intern(key, index, False, 1)
        return node


class Param(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    name: str

    def __new__(cls, name: str) -> Param:
        key = (cls, name)
        node = _nodes.get(key, _missing)()
        if node is None:
            node = _intern(key, 0, True, 1)
        return node


class App(Term):
    __slots__ = ("symbol", "args")
    __match_args__ = ("symbol", "args")
    symbol: str
    args: tuple[Term, ...]

    def __new__(cls, symbol: str, args: tuple[Term, ...] = ()) -> App:
        args = tuple(args)
        key = (cls, symbol, args)
        node = _nodes.get(key, _missing)()
        if node is None:
            rank = max([a.min_rank for a in args], default=0)
            node = _intern(key, rank, any([a.has_params for a in args]),
                           max([a.depth for a in args], default=0) + 1)
        return node


class Formula(_Node):
    """Base class for formula nodes (Atom, Implies, Forall).

    ``_code`` holds the node's compiled evaluator once ``semantics`` has
    built it; it starts unset and is written through the slot descriptor.
    """

    __slots__ = ("_code",)


class Atom(Formula):
    __slots__ = ("symbol", "args")
    __match_args__ = ("symbol", "args")
    symbol: str
    args: tuple[Term, ...]

    # a symbol applied to terms, built as App builds it
    __new__ = App.__new__


class Implies(Formula):
    __slots__ = ("lhs", "rhs")
    __match_args__ = ("lhs", "rhs")
    lhs: Formula
    rhs: Formula

    def __new__(cls, lhs: Formula, rhs: Formula) -> Implies:
        key = (cls, lhs, rhs)
        node = _nodes.get(key, _missing)()
        if node is None:
            node = _intern(key, max(lhs.min_rank, rhs.min_rank),
                           lhs.has_params or rhs.has_params, max(lhs.depth, rhs.depth) + 1)
        return node


class Forall(Formula):
    __slots__ = ("body",)
    __match_args__ = ("body",)
    body: Formula

    def __new__(cls, body: Formula) -> Forall:
        key = (cls, body)
        node = _nodes.get(key, _missing)()
        if node is None:
            node = _intern(key, max(body.min_rank - 1, 0), body.has_params, body.depth + 1)
        return node


def has_params(d: Term | Formula) -> bool:
    """Whether a parameter occurs in d (a cached read)."""
    return d.has_params


FALSE = Atom(FALSE_NAME, ())


def check_term(t: Term, sig: Signature) -> None:
    """Raise ValueError unless every applied symbol is declared with matching arity."""
    if isinstance(t, App):
        arity = sig.functions.get(t.symbol)
        if arity is None:
            raise ValueError(f"unknown function symbol {t.symbol!r}")
        if arity != len(t.args):
            raise ValueError(f"arity mismatch: {t.symbol} expects {arity}, got {len(t.args)}")
        for a in t.args:
            check_term(a, sig)


def check_formula(f: Formula, sig: Signature) -> None:
    if isinstance(f, Atom):
        arity = sig.predicates.get(f.symbol)
        if arity is None:
            raise ValueError(f"unknown predicate symbol {f.symbol!r}")
        if arity != len(f.args):
            raise ValueError(f"arity mismatch: {f.symbol} expects {arity}, got {len(f.args)}")
        for a in f.args:
            check_term(a, sig)
    elif isinstance(f, Implies):
        check_formula(f.lhs, sig)
        check_formula(f.rhs, sig)
    elif isinstance(f, Forall):
        check_formula(f.body, sig)
    else:
        raise ValueError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Printing (canonical, fully parenthesized; round-trips through the parser)

def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Param):
        return f"${t.name}"
    return f"{t.symbol}({','.join(print_term(a) for a in t.args)})"


def print_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        if f.symbol == FALSE_NAME and not f.args:
            return FALSE_NAME
        return f"{f.symbol}({','.join(print_term(a) for a in f.args)})"
    if isinstance(f, Implies):
        return f"({print_formula(f.lhs)} -> {print_formula(f.rhs)})"
    return f"(forall {print_formula(f.body)})"


# ---------------------------------------------------------------------------
# Tokenizer shared by the term/formula grammars

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<punct>[(),=~])|(?P<param>\$[A-Za-z0-9_]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        if m.group("bad") is not None:
            raise ParseError(f"unexpected character {m.group('bad')!r} at position {m.start('bad')}")
        tok = m.group("arrow") or m.group("punct") or m.group("param") or m.group("name")
        if tok is not None:
            tokens.append(tok)
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent.  ``depth`` is the level a node being parsed will
    sit at, the root's being 1; it goes up at each ``~``, ``(``, ``->``,
    ``=`` and application, redundant parentheses included, and text past
    MAX_DEPTH is refused before any node that deep is asked for."""

    def __init__(self, text: str, sig: Signature):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def done(self) -> None:
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")

    # -- terms --------------------------------------------------------------

    def term(self, depth: int) -> Term:
        if depth > MAX_DEPTH:
            raise ParseError("input nested too deeply")
        tok = self.next()
        if tok.startswith("$"):
            return Param(tok[1:])
        m = _VAR_RE.fullmatch(tok)
        if m is not None:
            index = int(m.group(1))
            if index < 1:
                raise ParseError(f"malformed variable {tok!r}: index must be positive")
            return Var(index)
        if _NAME_RE.fullmatch(tok) is None:
            raise ParseError(f"expected a term, got {tok!r}")
        arity = self.sig.functions.get(tok)
        if arity is None:
            raise ParseError(f"unknown function symbol {tok!r}")
        args = self.app_args(depth + 1)
        if len(args) != arity:
            raise ParseError(f"arity mismatch: {tok} expects {arity}, got {len(args)}")
        return App(tok, args)

    def app_args(self, depth: int) -> tuple[Term, ...]:
        self.expect("(")
        if self.peek() == ")":
            self.next()
            return ()
        args = [self.term(depth)]
        while self.peek() == ",":
            self.next()
            args.append(self.term(depth))
        self.expect(")")
        return tuple(args)

    # -- formulas -----------------------------------------------------------

    def formula(self, depth: int) -> Formula:
        lhs = self.formula_unit(depth)
        if self.peek() != "->":
            return lhs
        self.next()
        if lhs.depth + depth > MAX_DEPTH:  # lhs is known only now to sit a level down
            raise ParseError("input nested too deeply")
        return Implies(lhs, self.formula(depth + 1))

    def formula_unit(self, depth: int) -> Formula:
        if depth > MAX_DEPTH:
            raise ParseError("input nested too deeply")
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "~":
            self.next()
            return Implies(self.formula_unit(depth + 1), FALSE)
        if tok == "(":
            self.next()
            if self.peek() == "forall":
                self.next()
                nxt = self.peek()
                m = _VAR_RE.fullmatch(nxt) if nxt is not None else None
                if m is not None:
                    self.next()
                    index = int(m.group(1))
                    if index < 1:
                        raise ParseError(f"malformed variable {nxt!r}: index must be positive")
                    body = self.formula(depth + 1)
                    self.expect(")")
                    from .subst import forall_var

                    return forall_var(body, index)
                body = self.formula(depth + 1)
                self.expect(")")
                return Forall(body)
            inner = self.formula(depth + 1)
            self.expect(")")
            return inner
        return self.atom_or_equation(depth)

    def atom_or_equation(self, depth: int) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok.startswith("$") or _VAR_RE.fullmatch(tok) is not None or tok in self.sig.functions:
            lhs = self.term(depth + 1)
            self.expect("=")
            if not self.sig.with_equality:
                raise ParseError("'=' used in a signature without equality")
            return Atom(EQ_NAME, (lhs, self.term(depth + 1)))
        if _NAME_RE.fullmatch(tok) is None:
            raise ParseError(f"expected a formula, got {tok!r}")
        self.next()
        arity = self.sig.predicates.get(tok)
        if arity is None:
            raise ParseError(f"unknown predicate symbol {tok!r}")
        if tok == FALSE_NAME and self.peek() != "(":
            return FALSE
        args = self.app_args(depth + 1)
        if len(args) != arity:
            raise ParseError(f"arity mismatch: {tok} expects {arity}, got {len(args)}")
        return Atom(tok, args)


def parse_term(text: str, sig: Signature) -> Term:
    p = _Parser(text, sig)
    t = p.term(1)
    p.done()
    return t


def parse_formula(text: str, sig: Signature) -> Formula:
    p = _Parser(text, sig)
    f = p.formula(1)
    p.done()
    return f


# ---------------------------------------------------------------------------
# Signature files

def source_lines(text: str):
    """Yield ``(lineno, line)`` for each line of a file in any of the line
    formats that is not blank once its ``#`` comment is stripped."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_signature(text: str) -> Signature:
    """Parse the signature file format.

    Lines: optional ``with-equality`` first, then ``fn NAME ARITY`` and
    ``pred NAME ARITY`` in any order; ``#`` starts a comment.
    """
    functions: dict[str, int] = {}
    predicates: dict[str, int] = {}
    with_equality = False
    seen_decl = False
    for lineno, line in source_lines(text):
        if line == "with-equality":
            if seen_decl or with_equality:
                raise ParseError(f"line {lineno}: with-equality must be the first directive")
            with_equality = True
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("fn", "pred"):
            raise ParseError(f"line {lineno}: expected 'fn NAME ARITY' or 'pred NAME ARITY'")
        kind, name, arity_text = parts
        try:
            arity = int(arity_text)
        except ValueError:
            raise ParseError(f"line {lineno}: arity must be an integer, got {arity_text!r}") from None
        if arity < 0:
            raise ParseError(f"line {lineno}: negative arity for {name!r}")
        if not _valid_symbol(name):
            raise ParseError(f"line {lineno}: invalid symbol name {name!r}")
        seen_decl = True
        if name == FALSE_NAME:
            if kind != "pred" or arity != 0:
                raise ParseError(f"line {lineno}: reserved name 'false' must be a 0-ary predicate")
            continue
        if name == EQ_NAME:
            if kind != "pred" or arity != 2:
                raise ParseError(f"line {lineno}: reserved name 'eq' must be a 2-ary predicate")
            with_equality = True
            continue
        table = functions if kind == "fn" else predicates
        if name in functions or name in predicates:
            raise ParseError(f"line {lineno}: duplicate name {name!r}")
        table[name] = arity
    return Signature(functions, predicates, with_equality)
