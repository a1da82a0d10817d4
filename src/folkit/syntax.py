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
            if name == "forall" or _NAME_RE.fullmatch(name) is None or _VAR_RE.fullmatch(name):
                raise ValueError(f"invalid symbol name {name!r}")
            if type(arity) is not int or arity < 0:
                raise ValueError(f"arity of {name!r} must be an int >= 0, got {arity!r}")
        reserved = fns.keys() & {FALSE_NAME, EQ_NAME}
        if reserved:
            raise ValueError(f"reserved name {min(reserved)!r} cannot be a function symbol")
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
            # keyed before it is published: if the insert fails, _forget
            # still finds the key when the node dies
            ref = _Ref(node, _forget)
            ref.key = key
            _nodes[key] = ref
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

    ``_code`` holds the function that ``semantics`` generates to evaluate
    the node, or None when the node is past the generator's limits.  It
    starts unset, is set at the node's first evaluation, and is written
    through the slot descriptor.
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
    """Raise ValueError unless t is a term whose every applied symbol is
    declared with matching arity."""
    _check(t, sig, set(), False)


def check_formula(f: Formula, sig: Signature) -> None:
    """Raise ValueError unless f is a formula whose every symbol is declared
    with matching arity."""
    _check(f, sig, set(), True)


def _check(d: Term | Formula, sig: Signature, seen: set, formula: bool) -> None:
    # d stands where a formula (or else a term) belongs; each distinct node
    # is checked once, so shared children cost their number, not their
    # number of occurrences
    if not isinstance(d, Formula if formula else Term):
        raise ValueError(f"not a {'formula' if formula else 'term'}: {d!r}")
    ty = type(d)
    if d in seen or ty is Var or ty is Param:
        return
    seen.add(d)
    if ty is Implies or ty is Forall:
        for child in (d.lhs, d.rhs) if ty is Implies else (d.body,):
            _check(child, sig, seen, True)
        return
    arities, kind = (sig.functions, "function") if ty is App else (sig.predicates, "predicate")
    arity = arities.get(d.symbol)
    if arity is None:
        raise ValueError(f"unknown {kind} symbol {d.symbol!r}")
    if arity != len(d.args):
        raise ValueError(f"arity mismatch: {d.symbol} expects {arity}, got {len(d.args)}")
    for a in d.args:
        _check(a, sig, seen, False)


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
    for m in _TOKEN_RE.finditer(text):  # only trailing blanks match no token
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group('bad')!r} at position {m.start('bad')}")
        tokens.append(m.group(m.lastgroup))
    return tokens


class _Parser:
    """Recursive descent.  It reads the text's shape and looks up symbols
    and arities in the signature; every rule on the nodes it builds is
    their constructors'.  Brackets are the one place it recurses before it
    builds a node, so it counts open brackets and refuses text with more
    than MAX_DEPTH of them open; ``~`` runs and ``->`` chains are read in
    loops.  How deep a built node is, ``_intern`` alone decides: ``_read``
    reports its refusal as the same ParseError."""

    def __init__(self, text: str, sig: Signature):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig
        self.open_brackets = 0

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
        if tok == "(":
            self.open_brackets += 1
            if self.open_brackets > MAX_DEPTH:
                raise ParseError("input nested too deeply")
        elif tok == ")":
            self.open_brackets -= 1

    def var_index(self, tok: str) -> int:
        """The index of a variable token xN."""
        index = read_int(tok[1:], "variable index has too many digits")
        if index < 1:
            raise ParseError(f"malformed variable {tok!r}: index must be positive")
        return index

    # -- terms --------------------------------------------------------------

    def term(self) -> Term:
        tok = self.next()
        if tok.startswith("$"):
            return Param(tok[1:])
        if _VAR_RE.fullmatch(tok) is not None:
            return Var(self.var_index(tok))
        if _NAME_RE.fullmatch(tok) is None:
            raise ParseError(f"expected a term, got {tok!r}")
        arity = self.sig.functions.get(tok)
        if arity is None:
            raise ParseError(f"unknown function symbol {tok!r}")
        return App(tok, self.app_args(tok, arity))

    def terms(self, end: str | None = None) -> tuple[Term, ...]:
        """Comma-separated terms, none if the next token is end."""
        if self.peek() == end:
            return ()
        args = [self.term()]
        while self.peek() == ",":
            self.next()
            args.append(self.term())
        return tuple(args)

    def app_args(self, symbol: str, arity: int) -> tuple[Term, ...]:
        self.expect("(")
        args = self.terms(")")
        self.expect(")")
        if len(args) != arity:
            raise ParseError(f"arity mismatch: {symbol} expects {arity}, got {len(args)}")
        return args

    # -- formulas -----------------------------------------------------------

    def formula(self) -> Formula:
        units = [self.formula_unit()]
        while self.peek() == "->":
            self.next()
            units.append(self.formula_unit())
        f = units.pop()
        for lhs in reversed(units):
            f = Implies(lhs, f)
        return f

    def formula_unit(self) -> Formula:
        negations = 0
        while self.peek() == "~":
            self.next()
            negations += 1
        f = self.bracketed() if self.peek() == "(" else self.atom_or_equation()
        for _ in range(negations):
            f = Implies(f, FALSE)
        return f

    def bracketed(self) -> Formula:
        self.expect("(")
        if self.peek() != "forall":
            f = self.formula()
            self.expect(")")
            return f
        self.next()
        nxt = self.peek()
        index = self.var_index(self.next()) if nxt and _VAR_RE.fullmatch(nxt) else None
        body = self.formula()
        self.expect(")")
        if index is None:
            return Forall(body)
        from .subst import forall_var

        return forall_var(body, index)

    def atom_or_equation(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok.startswith("$") or _VAR_RE.fullmatch(tok) is not None or tok in self.sig.functions:
            lhs = self.term()
            self.expect("=")
            if not self.sig.with_equality:
                raise ParseError("'=' used in a signature without equality")
            return Atom(EQ_NAME, (lhs, self.term()))
        if _NAME_RE.fullmatch(tok) is None:
            raise ParseError(f"expected a formula, got {tok!r}")
        self.next()
        arity = self.sig.predicates.get(tok)
        if arity is None:
            raise ParseError(f"unknown predicate symbol {tok!r}")
        if tok == FALSE_NAME and self.peek() != "(":
            return FALSE
        return Atom(tok, self.app_args(tok, arity))


def _read(text: str, sig: Signature, rule):
    """What rule reads from a parser over the whole of text."""
    p = _Parser(text, sig)
    try:
        node = rule(p)
    except ParseError:
        raise
    except ValueError:
        # the text read is well formed, so only _intern can have refused a node
        raise ParseError("input nested too deeply") from None
    if p.peek() is not None:
        raise ParseError(f"trailing input at {p.peek()!r}")
    return node


def parse_term(text: str, sig: Signature) -> Term:
    return _read(text, sig, _Parser.term)


def parse_formula(text: str, sig: Signature) -> Formula:
    return _read(text, sig, _Parser.formula)


# ---------------------------------------------------------------------------
# Line-based files: the helpers they share, and signature files

def source_lines(text: str):
    """Yield ``(lineno, line)`` for each line of a file in any of the line
    formats that is not blank once its ``#`` comment is stripped."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_int(text: str, message: str) -> int:
    """text as an int, or ParseError(message) if it is none or has more
    digits than int() converts."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(message) from None


def at_line(lineno: int, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError reported as a ParseError at
    line lineno."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def parse_signature(text: str) -> Signature:
    """Parse the signature file format.

    Lines: optional ``with-equality`` first, then ``fn NAME ARITY`` and
    ``pred NAME ARITY`` in any order; ``#`` starts a comment.  This reads
    the lines' shape and refuses a name declared twice; the rules on each
    declaration (a valid name, an arity >= 0, ``false`` and ``eq`` only as
    their reserved predicates) are ``Signature``'s, checked by building
    the declaration alone.
    """
    tables: dict[str, dict[str, int]] = {"functions": {}, "predicates": {}}
    with_equality = False
    for lineno, line in source_lines(text):
        if line == "with-equality":
            if with_equality or any(tables.values()):
                raise ParseError(f"line {lineno}: with-equality must be the first directive")
            with_equality = True
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("fn", "pred"):
            raise ParseError(f"line {lineno}: expected 'fn NAME ARITY' or 'pred NAME ARITY'")
        keyword, name, arity_text = parts
        arity = read_int(arity_text, f"line {lineno}: arity must be an integer, got {arity_text!r}")
        if any(name in table for table in tables.values()):
            raise ParseError(f"line {lineno}: duplicate name {name!r}")
        kind = "functions" if keyword == "fn" else "predicates"
        at_line(lineno, Signature, **{kind: {name: arity}})
        tables[kind][name] = arity
    return Signature(**tables, with_equality=with_equality)
