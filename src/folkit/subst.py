"""Simultaneous substitution on terms and formulas.

A substitution stands for an infinite sequence of terms, one per variable
slot.  Every sequence this calculus needs is *affine past a finite prefix*:
entry ``i`` equals ``Var(i + d)`` once ``i`` exceeds the prefix.  That
representation is closed under composition and under the adjustment made
when a substitution passes under the quantifier, so the whole calculus
stays finitely computable.  Substituting under ``Forall`` keeps slot 1
and shifts every substituted term up by one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class Substitution:
    """Finite prefix plus affine tail: entry i is prefix[i-1] for i <= n,
    and Var(i + tail_offset) beyond.  Trailing prefix entries that already
    agree with the tail are trimmed, so equal sequences compare equal."""

    prefix: tuple[Term, ...] = ()
    tail_offset: int = 0

    def __post_init__(self) -> None:
        n, d = len(self.prefix), self.tail_offset
        if n + 1 + d < 1:
            raise ValueError(f"tail offset {d} illegal for prefix of length {n}")
        prefix = self.prefix
        while prefix:
            i = len(prefix)
            if i + d >= 1 and prefix[-1] == Var(i + d):
                prefix = prefix[:-1]
            else:
                break
        if len(prefix) != n:
            object.__setattr__(self, "prefix", prefix)

    def entry(self, i: int) -> Term:
        """The term substituted for variable slot i (1-based)."""
        if i < 1:
            raise ValueError(f"slot index must be >= 1, got {i}")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return Var(i + self.tail_offset)


IDENTITY = Substitution((), 0)
SHIFT_UP = Substitution((), 1)
SHIFT_DOWN = Substitution((Var(1),), -1)


def single(t: Term, i: int) -> Substitution:
    """Substitute t for slot i, leaving every other slot alone."""
    if i < 1:
        raise ValueError(f"slot index must be >= 1, got {i}")
    return Substitution(tuple(Var(j) for j in range(1, i)) + (t,), 0)


def swap_front(i: int) -> Substitution:
    """The sequence that moves slot i to the front: slots 1..i-1 shift up,
    slot i becomes slot 1, and the tail shifts up by one."""
    if i < 1:
        raise ValueError(f"slot index must be >= 1, got {i}")
    return Substitution(tuple(Var(j) for j in range(2, i + 1)) + (Var(1),), 1)


def instantiate(t: Term) -> Substitution:
    """The sequence [t, x1, x2, ...]: fill slot 1 with t, shift the rest down."""
    return Substitution((t,), -1)


def lift(sigma: Substitution) -> Substitution:
    """Adjust a substitution for use under one quantifier."""
    return Substitution(
        (Var(1),) + tuple(subst_term(t, SHIFT_UP) for t in sigma.prefix),
        sigma.tail_offset,
    )


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
    """The substitution applying sigma then tau: entry i is sigma_i[tau]."""
    n = max(len(sigma.prefix), len(tau.prefix) - sigma.tail_offset, 0)
    return Substitution(
        tuple(subst_term(sigma.entry(i), tau) for i in range(1, n + 1)),
        sigma.tail_offset + tau.tail_offset,
    )


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
    """Quantify variable i: move slot i to the front, then bind it.  When a
    does not depend on slot i, moving it to the front is a plain shift."""
    if i < 1:
        raise ValueError(f"slot index must be >= 1, got {i}")
    return Forall(subst_formula(a, swap_front(i) if i <= a.min_rank else SHIFT_UP))


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
