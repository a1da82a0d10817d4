"""Finite structures, evaluation, valuation audits, countermodel search.

A structure interprets every function symbol as a total table over a
finite carrier and every predicate as a relation; ``false`` is the empty
relation and ``eq``, when present, is forced to the identity.  Parameters
evaluate to themselves, so taking the parameter set to be the carrier
makes every element nameable and lets the quantifier range over carrier
elements in place of arbitrary terms.

Internally a structure is integer-encoded over ``range(k)``.  Each
formula is compiled once, on first evaluation, into code over those
integers; the code is kept on the formula node and dies with it.
Element names are mapped to indices on the way in and back on the way
out.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .proof import Theory
from .subst import (
    forall_n,
    instantiate,
    min_rank,
    single_subst,
    subst_formula,
)
from .syntax import (
    EQ_NAME,
    FALSE,
    FALSE_NAME,
    Atom,
    Forall,
    Formula,
    Implies,
    Param,
    ParseError,
    Signature,
    Term,
    Var,
    has_params,
    print_formula,
    source_lines,
)

__all__ = [
    "EvalError",
    "SearchLimit",
    "Structure",
    "eval_term",
    "eval_formula",
    "ConditionReport",
    "AuditReport",
    "induced_valuation_check",
    "count_structures",
    "enumerate_structures",
    "find_countermodel",
    "DEFAULT_CEILING",
    "parse_model",
    "print_model",
    "parse_env",
]

DEFAULT_CEILING = 1_000_000

_ELEMENT_RE = re.compile(r"[A-Za-z0-9_]+")

Env = tuple[str, ...]


class EvalError(ValueError):
    """Raised when evaluation preconditions fail (short environment,
    unknown symbol, parameter or environment element outside the carrier)."""


class SearchLimit(RuntimeError):
    """Countermodel enumeration would exceed the configured ceiling."""

    def __init__(self, count: int, ceiling: int):
        super().__init__(
            f"enumeration of at least {count} candidates exceeds the ceiling of {ceiling}"
        )
        self.count = count
        self.ceiling = ceiling


@dataclass(frozen=True, slots=True)
class Structure:
    """Finite carrier with function tables and predicate relations.

    Elements are stored as their indices into ``domain``.  A function of
    arity n is the tuple of its values over ``range(k) ** n`` in row-major
    order; a predicate is the frozenset of the row-major positions of its
    members.  Build one with :meth:`make`, which validates named tables
    against a signature, copies and encodes them, and fills in the fixed
    tables for ``false`` and ``eq``; :attr:`fn_tables` and
    :attr:`pred_tables` decode them back to element names.
    """

    domain: tuple[str, ...]
    _fns: dict[str, tuple[int, ...]]
    _preds: dict[str, frozenset[int]]
    _arity: dict[str, int]
    _index: dict[str, int] = field(compare=False)

    def __hash__(self) -> int:
        return hash((
            self.domain,
            frozenset(self._fns.items()),
            frozenset(self._preds.items()),
            frozenset(self._arity.items()),
        ))

    def __repr__(self) -> str:
        return (f"Structure(domain={self.domain!r}, fn_tables={self.fn_tables!r}, "
                f"pred_tables={self.pred_tables!r})")

    @property
    def fn_tables(self) -> dict[str, dict[tuple[str, ...], str]]:
        """Function tables by element names, freshly decoded."""
        d = self.domain
        return {
            name: dict(zip(itertools.product(d, repeat=self._arity[name]), map(d.__getitem__, table)))
            for name, table in self._fns.items()
        }

    @property
    def pred_tables(self) -> dict[str, frozenset[tuple[str, ...]]]:
        """Predicate relations by element names, freshly decoded."""
        return {
            name: frozenset(_row(p, self._arity[name], self.domain) for p in members)
            for name, members in self._preds.items()
        }

    @classmethod
    def make(
        cls,
        sig: Signature,
        domain: tuple[str, ...] | list[str],
        fn_tables: dict[str, dict[tuple[str, ...], str]] | None = None,
        pred_tables: dict[str, frozenset[tuple[str, ...]] | set[tuple[str, ...]]] | None = None,
    ) -> Structure:
        domain = tuple(domain)
        if not domain:
            raise ValueError("the carrier must be nonempty")
        if len(set(domain)) != len(domain):
            raise ValueError("carrier elements must be distinct")
        for m in domain:
            if _ELEMENT_RE.fullmatch(m) is None:
                raise ValueError(f"invalid carrier element {m!r}")
        index = {m: i for i, m in enumerate(domain)}
        k = len(domain)
        arity = _arities(sig)
        # row -> row-major position, for each function arity: a function
        # table lists every row anyway
        positions = {
            n: {row: p for p, row in enumerate(itertools.product(domain, repeat=n))}
            for n in set(sig.functions.values())
        }
        fn_tables = fn_tables or {}
        for name in fn_tables:
            if name not in sig.functions:
                raise ValueError(f"table for undeclared function {name!r}")
        fns = {}
        for name, n in sig.functions.items():
            table = fn_tables.get(name)
            if table is None:
                raise ValueError(f"missing table for function {name!r}")
            rows = positions[n]
            if table.keys() != rows.keys():
                raise ValueError(f"table for {name!r} is not total over the carrier")
            try:
                fns[name] = tuple(map(index.__getitem__, map(table.__getitem__, rows)))
            except KeyError:
                raise ValueError(f"table for {name!r} maps outside the carrier") from None

        preds = {name: frozenset() for name in sig.predicates}
        if sig.with_equality:
            preds[EQ_NAME] = frozenset(range(0, k * k, k + 1))  # the positions of (m, m)
        for name, members in (pred_tables or {}).items():
            n = sig.predicates.get(name)
            if n is None:
                raise ValueError(f"table for undeclared predicate {name!r}")
            # the positions of the members only, from their element indices
            members = frozenset(members)
            encoded = frozenset([_position(row, n, k, index) for row in members])
            if None in encoded:
                bad = [row for row in members if _position(row, n, k, index) is None]
                raise ValueError(f"bad entry {min(bad, key=repr)!r} in table for {name!r}")
            if name in (FALSE_NAME, EQ_NAME) and encoded != preds[name]:
                raise ValueError(f"the table for {name!r} is fixed and cannot be overridden")
            preds[name] = encoded
        return cls(domain, fns, preds, arity, index)


def _arities(sig: Signature) -> dict[str, int]:
    return {**sig.functions, **sig.predicates}


def _position(row: tuple[str, ...], n: int, k: int, index: dict[str, int]) -> int | None:
    """The row-major position of a row of n carrier elements, or None
    when ``row`` is not one."""
    if not isinstance(row, tuple) or len(row) != n:
        return None
    pos = 0
    for m in row:
        i = index.get(m)
        if i is None:
            return None
        pos = pos * k + i
    return pos


def _row(pos: int, n: int, domain: tuple[str, ...]) -> tuple[str, ...]:
    """The row of n carrier elements at a row-major position: its n
    base-k digits, most significant first."""
    row = []
    for _ in range(n):
        pos, i = divmod(pos, len(domain))
        row.append(domain[i])
    return tuple(reversed(row))


# ---------------------------------------------------------------------------
# The evaluator.  Each formula is compiled once into nested closures over
# ``(k, fns, preds, index, env)`` (Feeley & Lapalme, "Using closures for
# code generation", 1987), and the code is kept on the node, so equal
# formulas, being one object, share it.  ``env`` holds the index of the
# value of x(i+1) at position i, and a quantifier prepends each carrier
# index in turn.  Element names appear only in the public wrappers below.
#
# A node's shape is decided when it is compiled, but every error is raised
# when evaluation reaches the node, as a tree walk would raise it: a short
# environment or a missing table on a branch never taken is no error.
# Child code is bound as default arguments, which cost less memory than
# closure cells, and no code refers to a node, so a node still dies by
# reference count and takes its code with it.  Only finished code is
# stored; two threads may both compile a node, and either copy is right.

_store_code = Formula._code.__set__


def _short(env: tuple[int, ...], i: int) -> EvalError:
    return EvalError(f"environment of length {len(env)} is too short for x{i}")


def _no_table(kind: str, symbol: str) -> EvalError:
    return EvalError(f"no table for {kind} {symbol!r}")


def _term(t: Term):
    """Code ``(k, fns, index, env) -> element index`` for the term ``t``."""
    ty = type(t)
    if ty is Var:
        def code(k, fns, index, env, i=t.index - 1):
            try:
                return env[i]
            except IndexError:
                raise _short(env, i + 1) from None
        return code
    if ty is Param:
        def code(k, fns, index, env, name=t.name):
            try:
                return index[name]
            except KeyError:
                raise EvalError(f"parameter {name!r} is not a carrier element") from None
        return code
    symbol, args = t.symbol, tuple(map(_term, t.args))
    if len(args) == 1:
        def code(k, fns, index, env, symbol=symbol, a=args[0]):
            try:
                table = fns[symbol]
            except KeyError:
                raise _no_table("function", symbol) from None
            return table[a(k, fns, index, env)]
    elif len(args) == 2:
        def code(k, fns, index, env, symbol=symbol, a=args[0], b=args[1]):
            try:
                table = fns[symbol]
            except KeyError:
                raise _no_table("function", symbol) from None
            return table[a(k, fns, index, env) * k + b(k, fns, index, env)]
    else:
        def code(k, fns, index, env, symbol=symbol, args=args):
            try:
                table = fns[symbol]
            except KeyError:
                raise _no_table("function", symbol) from None
            pos = 0
            for a in args:
                pos = pos * k + a(k, fns, index, env)
            return table[pos]
    return code


def _atom(symbol: str, args: tuple[Term, ...]):
    """Code ``(k, fns, preds, index, env) -> bool`` for ``symbol(*args)``.
    Arities up to two compute the row position inline, and variables
    index the environment directly."""
    if not args:
        def code(k, fns, preds, index, env, symbol=symbol):
            try:
                return 0 in preds[symbol]
            except KeyError:
                raise _no_table("predicate", symbol) from None
        return code
    if len(args) <= 2 and all(type(a) is Var for a in args):
        if len(args) == 1:
            def code(k, fns, preds, index, env, symbol=symbol, i=args[0].index - 1):
                try:
                    table = preds[symbol]
                    return env[i] in table
                except KeyError:
                    raise _no_table("predicate", symbol) from None
                except IndexError:
                    raise _short(env, i + 1) from None
            return code
        def code(k, fns, preds, index, env, symbol=symbol,
                 i=args[0].index - 1, j=args[1].index - 1):
            try:
                table = preds[symbol]
                return env[i] * k + env[j] in table
            except KeyError:
                raise _no_table("predicate", symbol) from None
            except IndexError:
                raise _short(env, (i if i >= len(env) else j) + 1) from None
        return code
    args = tuple(map(_term, args))
    if len(args) == 1:
        def code(k, fns, preds, index, env, symbol=symbol, a=args[0]):
            try:
                table = preds[symbol]
            except KeyError:
                raise _no_table("predicate", symbol) from None
            return a(k, fns, index, env) in table
    elif len(args) == 2:
        def code(k, fns, preds, index, env, symbol=symbol, a=args[0], b=args[1]):
            try:
                table = preds[symbol]
            except KeyError:
                raise _no_table("predicate", symbol) from None
            return a(k, fns, index, env) * k + b(k, fns, index, env) in table
    else:
        def code(k, fns, preds, index, env, symbol=symbol, args=args):
            try:
                table = preds[symbol]
            except KeyError:
                raise _no_table("predicate", symbol) from None
            pos = 0
            for a in args:
                pos = pos * k + a(k, fns, index, env)
            return pos in table
    return code


def _compile(f: Formula):
    """The code ``(k, fns, preds, index, env) -> bool`` of ``f``: read
    from the node, or compiled and stored there on first use."""
    try:
        return f._code
    except AttributeError:
        pass
    ty = type(f)
    if ty is Atom:
        code = _atom(f.symbol, f.args)
    elif ty is Implies and type(f.rhs) is Implies:
        # (a -> (b -> c)) takes one function, not two: the implication
        # chains of axiom instances are most of the nodes compiled
        def code(k, fns, preds, index, env, a=_compile(f.lhs), b=_compile(f.rhs.lhs),
                 c=_compile(f.rhs.rhs)):
            return (not a(k, fns, preds, index, env) or not b(k, fns, preds, index, env)
                    or c(k, fns, preds, index, env))
    elif ty is Implies:
        def code(k, fns, preds, index, env, lhs=_compile(f.lhs), rhs=_compile(f.rhs)):
            return not lhs(k, fns, preds, index, env) or rhs(k, fns, preds, index, env)
    elif ty is Forall and f.body.min_rank == 0:
        # the body reads no variable, so one carrier element decides it
        # (a carrier is never empty)
        code = _compile(f.body)
    elif ty is Forall:
        def code(k, fns, preds, index, env, body=_compile(f.body)):
            for m in range(k):
                if not body(k, fns, preds, index, (m,) + env):
                    return False
            return True
    else:
        def code(k, fns, preds, index, env, message=f"not a formula: {f!r}"):
            raise EvalError(message)
        return code
    _store_code(f, code)
    return code


def _outside(env: Env, index: dict[str, int]) -> EvalError:
    bad = next(m for m in env if m not in index)
    return EvalError(f"environment element {bad!r} is not a carrier element")


def eval_term(t: Term, structure: Structure, env: Env) -> str:
    """The carrier element that ``t`` denotes when x(i+1) is ``env[i]``.

    Raises :class:`EvalError` for a short environment, an environment
    element or parameter outside the carrier, or an unknown symbol.
    """
    s = structure
    index = s._index
    try:
        ienv = tuple(map(index.__getitem__, env))
    except KeyError:
        raise _outside(env, index) from None
    return s.domain[_term(t)(len(s.domain), s._fns, index, ienv)]


def eval_formula(f: Formula, structure: Structure, env: Env) -> bool:
    """Whether ``f`` holds in ``structure`` when x(i+1) is ``env[i]``.

    Raises :class:`EvalError` as :func:`eval_term` does.  Symbols must be
    used at their declared arities, as the parser and ``check_formula``
    ensure.
    """
    s = structure
    index = s._index
    try:
        ienv = tuple(map(index.__getitem__, env))
    except KeyError:
        raise _outside(env, index) from None
    try:
        code = f._code
    except AttributeError:
        code = _compile(f)
    return code(len(s.domain), s._fns, s._preds, index, ienv)


# ---------------------------------------------------------------------------
# Perfect-valuation audit

@dataclass
class ConditionReport:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class AuditReport:
    conditions: tuple[ConditionReport, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def summary(self) -> str:
        lines = []
        for k, cond in enumerate(self.conditions, 1):
            status = "PASS" if cond.ok else "FAIL"
            lines.append(f"condition {k} ({cond.name}): {status} checked={cond.checked}")
            lines.extend(f"  counterexample: {text}" for text in cond.failures[:3])
        return "\n".join(lines)


def _equality_closures(samples: list[Formula], env_len: int):
    """The closed equality sentences an audit checks, in order, as
    (is_replacement, n, g) for ``forall_n(g, n)``: reflexivity, then
    replacement in each sample, for every n up to the largest sample
    rank, keeping those whose free variables the environment covers."""
    max_n = max((min_rank(s) for s in samples), default=0)
    for n in range(max_n + 1):
        # forall_n(x_j = x_j, n) has rank max(j - n, 0)
        for j in range(1, min(max_n + 1, n + env_len) + 1):
            yield False, n, Atom(EQ_NAME, (Var(j), Var(j)))
    replacements = [
        Implies(Atom(EQ_NAME, (Var(x), Var(y))), Implies(s, single_subst(s, Var(y), x)))
        for s in samples
        for x, y in ((1, 1), (1, 2), (2, 1))
    ]
    for n in range(max_n + 1):
        for g in replacements:
            if min_rank(g) - n <= env_len:
                yield True, n, g


def induced_valuation_check(
    structure: Structure,
    env: Env,
    samples: list[Formula],
    terms: list[Term],
    eval_fn=eval_formula,
) -> AuditReport:
    """Audit the truth set ``{A : eval_fn(A, structure, env)}`` against the
    conditions that make a set of formulas behave as the truths of a
    structure, on the given samples.

    The falsum must be excluded; implications must be decided materially;
    a quantified sample must hold exactly when every instance over the
    supplied terms and all carrier parameters holds; in carriers with
    equality, the closed reflexivity and replacement sentences must hold
    for quantifier depths up to the largest sample rank.  ``eval_fn``
    exists so tests can audit a deliberately broken evaluator.  Raises
    :class:`SearchLimit` before evaluating anything when those closed
    sentences would take more than ``DEFAULT_CEILING`` steps.
    """
    env = tuple(env)
    if EQ_NAME in structure._preds:
        # forall_n(g, n) costs n binders and, as a quantifier over a
        # rank-0 body is evaluated once, k**min(n, rank of g) environments;
        # count them all before evaluating anything
        k, work = len(structure.domain), 0
        for _, n, g in _equality_closures(samples, len(env)):
            work += n + k ** min(n, min_rank(g))
            if work > DEFAULT_CEILING:
                raise SearchLimit(work, DEFAULT_CEILING)
    falsum = ConditionReport("falsum excluded")
    falsum.checked = 1
    if eval_fn(FALSE, structure, env):
        falsum.failures.append("false evaluates true")

    material = ConditionReport("implication is material")
    for sample in samples:
        if not isinstance(sample, Implies):
            continue
        material.checked += 1
        whole = eval_fn(sample, structure, env)
        parts = (not eval_fn(sample.lhs, structure, env)) or eval_fn(
            sample.rhs, structure, env
        )
        if whole != parts:
            material.failures.append(print_formula(sample))

    instantiation = ConditionReport("universal instantiation")
    witnesses: list[Term] = list(terms) + [Param(m) for m in structure.domain]
    for sample in samples:
        if not isinstance(sample, Forall):
            continue
        instantiation.checked += 1
        whole = eval_fn(sample, structure, env)
        body = sample.body
        bad: str | None = None
        every = True
        for t in witnesses:
            inst = subst_formula(body, instantiate(t))
            if not eval_fn(inst, structure, env):
                every = False
                bad = print_formula(inst)
                break
        if whole and not every:
            instantiation.failures.append(
                f"{print_formula(sample)} holds but instance {bad} fails"
            )
        elif every and not whole:
            instantiation.failures.append(
                f"every instance of {print_formula(sample)} holds but the quantified formula fails"
            )

    reflexivity = ConditionReport("equality reflexivity")
    replacement = ConditionReport("equality replacement")
    if EQ_NAME in structure._preds:
        for replacing, n, g in _equality_closures(samples, len(env)):
            f = forall_n(g, n)
            report = replacement if replacing else reflexivity
            report.checked += 1
            if not eval_fn(f, structure, env):
                report.failures.append(print_formula(f))

    return AuditReport((falsum, material, instantiation, reflexivity, replacement))


# ---------------------------------------------------------------------------
# Exhaustive structure enumeration and countermodel search

def _table_symbols(sig: Signature) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    preds = [
        (name, arity)
        for name, arity in sorted(sig.predicates.items())
        if name not in (FALSE_NAME, EQ_NAME)
    ]
    fns = sorted(sig.functions.items())
    return preds, fns


def count_structures(sig: Signature, size: int) -> int:
    preds, fns = _table_symbols(sig)
    count = 1
    for _, arity in preds:
        count *= 2 ** (size**arity)
    for _, arity in fns:
        count *= size ** (size**arity)
    return count


def _more_than_power_of_two(sig: Signature, size: int, rank: int, bits: int) -> bool:
    """Whether the candidates on ``size >= 2`` elements, structures times
    environments of length ``rank``, certainly number more than
    ``2**bits``; decided from exponents, with no number much longer than
    ``bits`` built."""
    preds, fns = _table_symbols(sig)
    log = size.bit_length() - 1  # floor(log2(size)), at least 1
    # the count is at least 2 ** (the sum over predicates of size**arity
    # + log * (the sum over functions of size**arity + rank)); an arity
    # past cap alone makes that exponent more than bits
    cap = bits.bit_length() + 1
    exponent = sum(size ** min(arity, cap) for _, arity in preds) + log * (
        sum(size ** min(arity, cap) for _, arity in fns) + rank)
    return exponent > bits


def _carrier(size: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """The enumerated carrier {"0", ..., str(size-1)} and its name -> index map."""
    domain = tuple(str(i) for i in range(size))
    return domain, {m: i for i, m in enumerate(domain)}


def _encoded_tables(sig: Signature, size: int):
    """Yield the (function tables, predicate tables) of every structure on
    ``range(size)``, encoded as in :class:`Structure`, in the order that
    :func:`enumerate_structures` documents.  Yielded dicts may be shared
    between items and must not be mutated."""
    preds, fns = _table_symbols(sig)
    fixed: dict[str, frozenset[int]] = {FALSE_NAME: frozenset()}
    if sig.with_equality:
        fixed[EQ_NAME] = frozenset(range(0, size * size, size + 1))
    pred_choices = [
        [
            frozenset(itertools.compress(range(size**arity), bits))
            for bits in itertools.product((False, True), repeat=size**arity)
        ]
        for _, arity in preds
    ]
    fn_choices = [
        list(itertools.product(range(size), repeat=size**arity)) for _, arity in fns
    ]
    pred_names = [name for name, _ in preds]
    fn_names = [name for name, _ in fns]
    for pred_pick in itertools.product(*pred_choices):
        pred_tables = dict(fixed)
        pred_tables.update(zip(pred_names, pred_pick))
        for fn_pick in itertools.product(*fn_choices):
            yield dict(zip(fn_names, fn_pick)), pred_tables


def enumerate_structures(sig: Signature, size: int):
    """Yield every structure with carrier {"0", ..., str(size-1)}.

    Deterministic order: lexicographic over the table encoding, predicate
    membership bits (per sorted predicate, per tuple) before function
    entries; ``false`` stays empty and ``eq`` stays the identity.
    """
    domain, index = _carrier(size)
    arity = _arities(sig)
    for fns, preds in _encoded_tables(sig, size):
        yield Structure(domain, fns, preds, arity, index)


def find_countermodel(
    theory: Theory,
    formula: Formula,
    sig: Signature,
    max_size: int,
    ceiling: int = DEFAULT_CEILING,
) -> tuple[Structure, Env] | None:
    """Search carriers of size 1..max_size for a structure satisfying the
    theory together with an environment falsifying the formula.  Returns
    the enumeration-order-least hit, or None when the search space is
    exhausted.  Refuses searches whose candidate count exceeds the ceiling,
    counting size by size and stopping at the first size that passes it.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if has_params(formula):
        raise ValueError("countermodel search needs a parameter-free formula")
    rank = min_rank(formula)
    # counts up to about the ceiling squared are built exactly; past that
    # bit length, exponents alone show that a size passes the ceiling
    bits = 2 * ceiling.bit_length()
    total = 0
    for size in range(1, max_size + 1):
        if size > 1 and _more_than_power_of_two(sig, size, rank, bits):
            raise SearchLimit(total + 2**bits, ceiling)
        total += count_structures(sig, size) * size**rank
        if total > ceiling:
            raise SearchLimit(total, ceiling)
    sentences = [_compile(f) for _, f in theory.sentences]
    code = _compile(formula)
    for size in range(1, max_size + 1):
        domain, index = _carrier(size)
        for fns, preds in _encoded_tables(sig, size):
            if all(s(size, fns, preds, index, ()) for s in sentences):
                for env in itertools.product(range(size), repeat=rank):
                    if not code(size, fns, preds, index, env):
                        structure = Structure(domain, fns, preds, _arities(sig), index)
                        return structure, tuple(domain[v] for v in env)
    return None


# ---------------------------------------------------------------------------
# Model files: "domain e1 e2 ...", "fn NAME: a b -> c", "pred NAME: a b",
# optional "env e1 e2 ...".

def parse_model(text: str, sig: Signature) -> tuple[Structure, Env | None]:
    domain: tuple[str, ...] | None = None
    fn_tables: dict[str, dict[tuple[str, ...], str]] = {}
    pred_tables: dict[str, set[tuple[str, ...]]] = {}
    env: Env | None = None
    for lineno, line in source_lines(text):
        parts = line.split()
        if parts[0] == "domain":
            if domain is not None:
                raise ParseError(f"line {lineno}: duplicate domain line")
            if len(parts) < 2:
                raise ParseError(f"line {lineno}: the carrier must be nonempty")
            domain = tuple(parts[1:])
            continue
        if domain is None:
            raise ParseError(f"line {lineno}: the domain line must come first")
        if parts[0] == "env":
            if env is not None:
                raise ParseError(f"line {lineno}: duplicate env line")
            env = tuple(parts[1:])
            for m in env:
                if m not in domain:
                    raise ParseError(f"line {lineno}: env element {m!r} not in the domain")
            continue
        if parts[0] == "fn":
            rest = line[len("fn") :].strip()
            if ":" not in rest:
                raise ParseError(f"line {lineno}: expected 'fn NAME: tuple -> element'")
            name, mapping = rest.split(":", 1)
            name = name.strip()
            if "->" not in mapping:
                raise ParseError(f"line {lineno}: expected 'fn NAME: tuple -> element'")
            args_text, value_text = mapping.rsplit("->", 1)
            args = tuple(args_text.split())
            value_parts = value_text.split()
            if len(value_parts) != 1:
                raise ParseError(f"line {lineno}: expected a single result element")
            table = fn_tables.setdefault(name, {})
            if args in table:
                raise ParseError(f"line {lineno}: duplicate entry for {name}{args}")
            table[args] = value_parts[0]
            continue
        if parts[0] == "pred":
            rest = line[len("pred") :].strip()
            if ":" not in rest:
                raise ParseError(f"line {lineno}: expected 'pred NAME: tuple'")
            name, tuple_text = rest.split(":", 1)
            pred_tables.setdefault(name.strip(), set()).add(tuple(tuple_text.split()))
            continue
        raise ParseError(f"line {lineno}: unrecognized model line {line!r}")
    if domain is None:
        raise ParseError("missing domain line")
    try:
        structure = Structure.make(sig, domain, fn_tables, pred_tables)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return structure, env


def print_model(structure: Structure, env: Env | None = None) -> str:
    lines = ["domain " + " ".join(structure.domain)]
    # each read of fn_tables or pred_tables decodes every table
    for name, table in sorted(structure.fn_tables.items()):
        for args in sorted(table):
            args_text = (" " + " ".join(args)) if args else ""
            lines.append(f"fn {name}:{args_text} -> {table[args]}")
    for name, members in sorted(structure.pred_tables.items()):
        if name in (FALSE_NAME, EQ_NAME):
            continue
        for entry in sorted(members):
            lines.append(f"pred {name}: {' '.join(entry)}")
    if env is not None:
        lines.append(("env " + " ".join(env)).rstrip())
    return "\n".join(lines) + "\n"


def parse_env(text: str, structure: Structure) -> Env:
    env = tuple(text.split())
    for m in env:
        if m not in structure.domain:
            raise ParseError(f"env element {m!r} not in the domain")
    return env
