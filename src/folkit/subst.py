"""Simultaneous substitution on terms and formulas.

A substitution stands for an infinite sequence of terms, one per variable
slot.  Every sequence this calculus needs is a few *exception* slots over
an affine tail: entry ``i`` equals ``Var(i + d)`` except at finitely many
slots, as in explicit substitution calculi, where every substitution is
built from cons and shift (Abadi, Cardelli, Curien & Levy 1991).  That
representation is closed under composition and under the adjustment made
when a substitution passes under the quantifier, so the whole calculus
stays finitely computable, at a cost that follows the formula and the
exceptions, never the largest slot.  Substituting under ``Forall`` keeps
slot 1 and shifts every substituted term up by one.
"""

from __future__ import annotations

import re

from .syntax import (
    FALSE,
    App,
    Atom,
    Forall,
    Formula,
    Implies,
    Param,
    ParseError,
    Signature,
    Term,
    Var,
    _Parser,
    _read,
    print_term,
    read_int,
)

__all__ = [
    "Substitution",
    "IDENTITY",
    "SHIFT_UP",
    "SHIFT_DOWN",
    "single",
    "swap_front",
    "instantiate",
    "lift",
    "compose",
    "subst_term",
    "subst_formula",
    "shift_up",
    "shift_down",
    "single_subst",
    "free_vars",
    "is_independent",
    "min_rank",
    "has_rank",
    "forall_var",
    "forall_n",
    "neg",
    "parse_substitution",
    "print_substitution",
]


class Substitution:
    """Exception slots over an affine tail: entry i is ``_entries[i]``
    where there is one, and Var(i + tail_offset) beyond.  The constructor
    takes a dense prefix (entry i is prefix[i-1] for i <= n) and keeps only
    the entries that differ from the tail, so equal sequences compare
    equal; ``prefix`` rebuilds the dense form on request."""

    __slots__ = ("_entries", "tail_offset")
    _entries: dict[int, Term]
    tail_offset: int

    def __new__(cls, prefix: tuple[Term, ...] = (), tail_offset: int = 0) -> Substitution:
        if len(prefix) + 1 + tail_offset < 1:
            raise ValueError(f"tail offset {tail_offset} illegal for prefix of length {len(prefix)}")
        return _sparse(_trim(dict(enumerate(prefix, 1)), tail_offset), tail_offset)

    @property
    def prefix(self) -> tuple[Term, ...]:
        """The entries up to the last exception slot."""
        return tuple(map(self.entry, range(1, max(self._entries, default=0) + 1)))

    def entry(self, i: int) -> Term:
        """The term substituted for variable slot i (1-based)."""
        if i < 1:
            raise ValueError(f"slot index must be >= 1, got {i}")
        t = self._entries.get(i)
        return Var(i + self.tail_offset) if t is None else t

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Substitution:
            return NotImplemented
        return self.tail_offset == other.tail_offset and self._entries == other._entries

    def __hash__(self) -> int:
        return hash((frozenset(self._entries.items()), self.tail_offset))

    def __reduce__(self):
        return _sparse, (self._entries, self.tail_offset)

    def __repr__(self) -> str:
        return f"Substitution(exceptions={self._entries!r}, tail_offset={self.tail_offset})"


def _trim(entries: dict[int, Term], d: int) -> dict[int, Term]:
    """entries less those equal to the tail +d."""
    return {i: t for i, t in entries.items() if type(t) is not Var or t.index != i + d}


def _sparse(entries: dict[int, Term], d: int) -> Substitution:
    """The substitution with these exceptions over the tail +d.  No entry
    may equal the tail, and every slot j with j + d < 1 must have one."""
    sigma = object.__new__(Substitution)
    object.__setattr__(sigma, "_entries", entries)
    object.__setattr__(sigma, "tail_offset", d)
    return sigma


IDENTITY = Substitution((), 0)
SHIFT_UP = Substitution((), 1)
SHIFT_DOWN = Substitution((Var(1),), -1)


def single(t: Term, i: int) -> Substitution:
    """Substitute t for slot i, leaving every other slot alone."""
    if i < 1:
        raise ValueError(f"slot index must be >= 1, got {i}")
    return _sparse({} if type(t) is Var and t.index == i else {i: t}, 0)


def swap_front(i: int) -> Substitution:
    """The sequence that moves slot i to the front: slots 1..i-1 shift up,
    slot i becomes slot 1, and the tail shifts up by one."""
    if i < 1:
        raise ValueError(f"slot index must be >= 1, got {i}")
    return _sparse({i: Var(1)}, 1)


def instantiate(t: Term) -> Substitution:
    """The sequence [t, x1, x2, ...]: fill slot 1 with t, shift the rest down."""
    return _sparse({1: t}, -1)


def lift(sigma: Substitution) -> Substitution:
    """Adjust a substitution for use under one quantifier: slot 1 stays,
    and every other entry moves up a slot and shifts up by one."""
    d = sigma.tail_offset
    entries = {i + 1: subst_term(t, SHIFT_UP) for i, t in sigma._entries.items()}
    if d:
        entries[1] = Var(1)
    return _sparse(entries, d)


def subst_term(t: Term, sigma: Substitution) -> Term:
    if not t.min_rank:
        return t
    if isinstance(t, Var):
        return sigma.entry(t.index)
    return App(t.symbol, tuple(subst_term(a, sigma) for a in t.args))


def subst_formula(f: Formula, sigma: Substitution) -> Formula:
    if not f.min_rank:
        return f
    if isinstance(f, Atom):
        return Atom(f.symbol, tuple(subst_term(a, sigma) for a in f.args))
    if isinstance(f, Implies):
        return Implies(subst_formula(f.lhs, sigma), subst_formula(f.rhs, sigma))
    return Forall(subst_formula(f.body, lift(sigma)))


def compose(sigma: Substitution, tau: Substitution) -> Substitution:
    """The substitution applying sigma then tau: entry i is sigma_i[tau].
    A slot that is no exception of sigma maps to x(i + d), so its entry
    is tau's at slot i + d."""
    d = sigma.tail_offset
    entries = {j - d: t for j, t in tau._entries.items() if j - d >= 1}
    entries.update((i, subst_term(t, tau)) for i, t in sigma._entries.items())
    d += tau.tail_offset
    return _sparse(_trim(entries, d), d)


def _apply(d: Term | Formula, sigma: Substitution) -> Term | Formula:
    if isinstance(d, Term):
        return subst_term(d, sigma)
    return subst_formula(d, sigma)


def shift_up(d: Term | Formula) -> Term | Formula:
    """Renumber every free variable up by one."""
    return _apply(d, SHIFT_UP)


def shift_down(d: Term | Formula) -> Term | Formula:
    """Inverse of shift_up on its image (slot 1 is duplicated)."""
    return _apply(d, SHIFT_DOWN)


def single_subst(d: Term | Formula, t: Term, i: int) -> Term | Formula:
    """Replace free occurrences of variable i by t."""
    return _apply(d, single(t, i))


def free_vars(d: Term | Formula) -> set[int]:
    if isinstance(d, Var):
        return {d.index}
    if isinstance(d, (Param,)):
        return set()
    if isinstance(d, (App, Atom)):
        out: set[int] = set()
        for a in d.args:
            out |= free_vars(a)
        return out
    if isinstance(d, Implies):
        return free_vars(d.lhs) | free_vars(d.rhs)
    if isinstance(d, Forall):
        return {i - 1 for i in free_vars(d.body) if i >= 2}
    raise TypeError(f"not a term or formula: {d!r}")


def is_independent(d: Term | Formula, i: int) -> bool:
    """Whether replacing variable i by variable i+1 leaves d unchanged."""
    if i < 1:
        raise ValueError(f"variable index must be >= 1, got {i}")
    return single_subst(d, Var(i + 1), i) == d


def min_rank(d: Term | Formula) -> int:
    """Least n such that d depends on no variable beyond slot n (a cached read)."""
    return d.min_rank


def _collapse_term(t: Term, n: int) -> Term:
    if isinstance(t, Var):
        return Var(min(t.index, n))
    if isinstance(t, Param):
        return t
    return App(t.symbol, tuple(_collapse_term(a, n) for a in t.args))


def _collapse_formula(f: Formula, n: int) -> Formula:
    # Under a binder the saturation point moves up by one, exactly as a
    # lifted substitution would.
    if isinstance(f, Atom):
        return Atom(f.symbol, tuple(_collapse_term(a, n) for a in f.args))
    if isinstance(f, Implies):
        return Implies(_collapse_formula(f.lhs, n), _collapse_formula(f.rhs, n))
    return Forall(_collapse_formula(f.body, n + 1))


def has_rank(d: Term | Formula, n: int) -> bool:
    """Whether substituting x_n for every variable from slot n on leaves d
    unchanged.  There is no zeroth variable, so the n = 0 case is decided
    by shift invariance, which holds exactly for variable-free d."""
    if n < 0:
        raise ValueError(f"rank must be >= 0, got {n}")
    if n == 0:
        return shift_up(d) == d
    if isinstance(d, Term):
        return _collapse_term(d, n) == d
    return _collapse_formula(d, n) == d


def forall_var(a: Formula, i: int) -> Formula:
    """Quantify variable i: move slot i to the front, then bind it."""
    return Forall(subst_formula(a, swap_front(i)))


def forall_n(a: Formula, n: int) -> Formula:
    """n-fold application of the primitive quantifier."""
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    for _ in range(n):
        a = Forall(a)
    return a


def neg(a: Formula) -> Formula:
    return Implies(a, FALSE)


# ---------------------------------------------------------------------------
# Text form: [t1, t2, ..., tn; +d]

_OFFSET_RE = re.compile(r"[+-][0-9]+")


def print_substitution(sigma: Substitution) -> str:
    terms = ", ".join(print_term(t) for t in sigma.prefix)
    return f"[{terms}; {sigma.tail_offset:+d}]"


def parse_substitution(text: str, sig: Signature) -> Substitution:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("substitution must be bracketed: [t1, ..., tn; +d]")
    inner = text[1:-1]
    if ";" not in inner:
        raise ParseError("substitution is missing the '; +d' tail offset")
    prefix_text, offset_text = inner.rsplit(";", 1)
    offset_text = offset_text.strip()
    if _OFFSET_RE.fullmatch(offset_text) is None:
        raise ParseError(f"tail offset must be +N or -N, got {offset_text!r}")
    offset = read_int(offset_text, "tail offset has too many digits")
    return Substitution(_read(prefix_text, sig, _Parser.terms), offset)
