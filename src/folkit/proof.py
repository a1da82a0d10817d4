"""Axiom-schema recognition, Hilbert proof checking, and the arithmetic theory.

A proof is a numbered list of formulas, each justified as an axiom
instance, a named theory sentence, an induction-schema instance, or modus
ponens from two earlier lines.  Axiom recognition strips any number of
outer quantifiers (a quantified axiom is again an axiom), then matches
the schemas A1..A8 in order, returning the first hit together with enough
witness data to rebuild the instance exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .subst import (
    forall_var,
    instantiate,
    min_rank,
    shift_down,
    shift_up,
    single_subst,
    subst_formula,
)
from .syntax import (
    EQ_NAME,
    FALSE,
    App,
    Atom,
    Forall,
    Formula,
    Implies,
    ParseError,
    Signature,
    Term,
    Var,
    has_params,
    parse_formula,
    print_formula,
    source_lines,
)

__all__ = [
    "AxiomTag",
    "axiom_from_tag",
    "is_axiom",
    "match_a5",
    "ByAxiom",
    "ByHyp",
    "ByMP",
    "ByInd",
    "ProofLine",
    "Proof",
    "Theory",
    "EMPTY_THEORY",
    "Verdict",
    "check_proof",
    "arith_signature",
    "arith_theory",
    "induction_sentence",
    "parse_theory",
    "print_theory",
    "parse_proof",
    "print_proof",
]


# ---------------------------------------------------------------------------
# Axiom schemas

@dataclass(frozen=True)
class AxiomTag:
    """Which schema matched, with the data needed to rebuild the instance:
    the schema's formula metavariables in order, the instantiation term
    (A5), the variable pair (A7/A8), and how many outer quantifiers were
    stripped before matching."""

    schema: str
    parts: tuple[Formula, ...] = ()
    witness: Term | None = None
    var_pair: tuple[int, int] | None = None
    stripped: int = 0


def axiom_from_tag(tag: AxiomTag) -> Formula:
    """Rebuild the exact formula a tag was produced from."""
    p = tag.parts
    if tag.schema == "A1":
        f = Implies(p[0], Implies(p[1], p[0]))
    elif tag.schema == "A2":
        f = Implies(
            Implies(p[0], Implies(p[1], p[2])),
            Implies(Implies(p[0], p[1]), Implies(p[0], p[2])),
        )
    elif tag.schema == "A3":
        f = Implies(Implies(Implies(p[0], FALSE), FALSE), p[0])
    elif tag.schema == "A4":
        f = Implies(Forall(Implies(p[0], p[1])), Implies(Forall(p[0]), Forall(p[1])))
    elif tag.schema == "A5":
        f = Implies(Forall(p[0]), subst_formula(p[0], instantiate(tag.witness)))
    elif tag.schema == "A6":
        f = Implies(p[0], Forall(shift_up(p[0])))
    elif tag.schema == "A7":
        x, _ = tag.var_pair
        f = Atom(EQ_NAME, (Var(x), Var(x)))
    elif tag.schema == "A8":
        x, y = tag.var_pair
        f = Implies(
            Atom(EQ_NAME, (Var(x), Var(y))),
            Implies(p[0], single_subst(p[0], Var(y), x)),
        )
    else:
        raise ValueError(f"unknown schema {tag.schema!r}")
    for _ in range(tag.stripped):
        f = Forall(f)
    return f


def match_a5(f: Formula) -> Term | None:
    """Find a term t with body[t, x1, x2, ...] equal to the consequent.

    Walks the quantified body against the consequent: the first free
    occurrence of the instantiated slot fixes the witness, and every other
    occurrence, slot and symbol must then agree.  When the body does not
    use the slot at all, any term works and Var(1) is the canonical
    witness.
    """
    if not (isinstance(f, Implies) and isinstance(f.lhs, Forall)):
        return None
    found: list[Term] = []
    if not _image(f.lhs.body, f.rhs, 1, None, -1, 0, found):
        return None
    return found[0] if found else Var(1)


def _image(s: Term | Formula, u: Term | Formula, slot: int, term: Term | None,
           tail: int, depth: int, found: list[Term] | None) -> bool:
    """Whether u is s[lift^depth(sigma)] for the sequence sigma that maps
    ``slot`` to ``term`` and every other slot j to x(j + tail), decided by
    walking s and u together and building no node.  Slot 0 maps no slot.

    A None term stands for one still unknown (A5's witness): its first
    occurrence, under d binders, fixes it as u shifted down d times,
    recorded in ``found``; every occurrence must then be it shifted up by
    its depth.
    """
    if s.min_rank <= depth:
        # the lifted sequence leaves slots 1..depth alone
        return u is s
    if isinstance(s, Var):
        if s.index - depth != slot:
            return isinstance(u, Var) and u.index == s.index + tail
        if term is None:
            if not found:
                w = u
                for _ in range(depth):
                    w = shift_down(w)
                found.append(w)
            term = found[0]
        # u must be term shifted up past the depth binders
        return _image(term, u, 0, None, depth, 0, None)
    if isinstance(s, Implies):
        return (
            isinstance(u, Implies)
            and _image(s.lhs, u.lhs, slot, term, tail, depth, found)
            and _image(s.rhs, u.rhs, slot, term, tail, depth, found)
        )
    if isinstance(s, Forall):
        return isinstance(u, Forall) and _image(s.body, u.body, slot, term, tail, depth + 1, found)
    # App or Atom: parameters have rank 0
    if type(u) is not type(s) or u.symbol != s.symbol or len(u.args) != len(s.args):
        return False
    for a, b in zip(s.args, u.args):
        if not _image(a, b, slot, term, tail, depth, found):
            return False
    return True


def _match_a1(f: Formula) -> AxiomTag | None:
    if isinstance(f, Implies) and isinstance(f.rhs, Implies) and f.rhs.rhs == f.lhs:
        return AxiomTag("A1", (f.lhs, f.rhs.lhs))
    return None


def _match_a2(f: Formula) -> AxiomTag | None:
    if not (isinstance(f, Implies) and isinstance(f.lhs, Implies) and isinstance(f.lhs.rhs, Implies)):
        return None
    a, b, c = f.lhs.lhs, f.lhs.rhs.lhs, f.lhs.rhs.rhs
    # f.rhs == ((a -> b) -> (a -> c)), compared in place: nodes are
    # interned, so equality is identity and nothing need be built
    r = f.rhs
    if (
        isinstance(r, Implies)
        and isinstance(r.lhs, Implies)
        and isinstance(r.rhs, Implies)
        and r.lhs.lhs is a
        and r.lhs.rhs is b
        and r.rhs.lhs is a
        and r.rhs.rhs is c
    ):
        return AxiomTag("A2", (a, b, c))
    return None


def _match_a3(f: Formula) -> AxiomTag | None:
    if (
        isinstance(f, Implies)
        and isinstance(f.lhs, Implies)
        and isinstance(f.lhs.lhs, Implies)
        and f.lhs.lhs.rhs == FALSE
        and f.lhs.rhs == FALSE
        and f.lhs.lhs.lhs == f.rhs
    ):
        return AxiomTag("A3", (f.rhs,))
    return None


def _match_a4(f: Formula) -> AxiomTag | None:
    if not (isinstance(f, Implies) and isinstance(f.lhs, Forall) and isinstance(f.lhs.body, Implies)):
        return None
    a, b = f.lhs.body.lhs, f.lhs.body.rhs
    # f.rhs == (forall a -> forall b), compared in place as in A2
    r = f.rhs
    if (
        isinstance(r, Implies)
        and isinstance(r.lhs, Forall)
        and isinstance(r.rhs, Forall)
        and r.lhs.body is a
        and r.rhs.body is b
    ):
        return AxiomTag("A4", (a, b))
    return None


def _match_a5(f: Formula) -> AxiomTag | None:
    witness = match_a5(f)
    if witness is None:
        return None
    return AxiomTag("A5", (f.lhs.body,), witness=witness)


def _match_a6(f: Formula) -> AxiomTag | None:
    if (
        isinstance(f, Implies)
        and isinstance(f.rhs, Forall)
        and _image(f.lhs, f.rhs.body, 0, None, 1, 0, None)
    ):
        return AxiomTag("A6", (f.lhs,))
    return None


def _match_a7(f: Formula) -> AxiomTag | None:
    if (
        isinstance(f, Atom)
        and f.symbol == EQ_NAME
        and len(f.args) == 2
        and isinstance(f.args[0], Var)
        and f.args[0] == f.args[1]
    ):
        i = f.args[0].index
        return AxiomTag("A7", var_pair=(i, i))
    return None


def _match_a8(f: Formula) -> AxiomTag | None:
    if not (
        isinstance(f, Implies)
        and isinstance(f.lhs, Atom)
        and f.lhs.symbol == EQ_NAME
        and len(f.lhs.args) == 2
        and isinstance(f.rhs, Implies)
        and isinstance(f.lhs.args[0], Var)
        and isinstance(f.lhs.args[1], Var)
    ):
        return None
    x, y = f.lhs.args[0].index, f.lhs.args[1].index
    a = f.rhs.lhs
    if _image(a, f.rhs.rhs, x, Var(y), 0, 0, None):
        return AxiomTag("A8", (a,), var_pair=(x, y))
    return None


_PROPOSITIONAL = (_match_a1, _match_a2, _match_a3, _match_a4, _match_a5, _match_a6)
_EQUALITY = (_match_a7, _match_a8)


def is_axiom(f: Formula, sig: Signature) -> AxiomTag | None:
    """Match f against the axiom schemas, stripping outer quantifiers first.

    Overlapping matches resolve to the lowest-numbered schema.  Equality
    schemas apply only in signatures with equality.  Returns None when no
    schema matches.
    """
    stripped = 0
    while isinstance(f, Forall):
        f = f.body
        stripped += 1
    matchers = _PROPOSITIONAL + _EQUALITY if sig.with_equality else _PROPOSITIONAL
    for matcher in matchers:
        tag = matcher(f)
        if tag is not None:
            return replace(tag, stripped=stripped) if stripped else tag
    return None


# ---------------------------------------------------------------------------
# Theories and proofs

@dataclass(frozen=True)
class Theory:
    """A named finite list of sentences; optionally admits the arithmetic
    induction schema as an extra intensional family of hypotheses."""

    name: str
    sentences: tuple[tuple[str, Formula], ...] = ()
    has_induction: bool = False

    def __post_init__(self) -> None:
        seen = set()
        for name, f in self.sentences:
            if name in seen:
                raise ValueError(f"duplicate sentence name {name!r}")
            seen.add(name)
            if has_params(f):
                raise ValueError(f"theory sentence {name!r} contains parameters")
            if min_rank(f) != 0:
                raise ValueError(f"theory sentence {name!r} is not a sentence (rank > 0)")

    def get(self, name: str) -> Formula | None:
        for n, f in self.sentences:
            if n == name:
                return f
        return None


EMPTY_THEORY = Theory("empty")


@dataclass(frozen=True)
class ByAxiom:
    pass


@dataclass(frozen=True)
class ByHyp:
    name: str


@dataclass(frozen=True)
class ByMP:
    i: int
    j: int


@dataclass(frozen=True)
class ByInd:
    formula: Formula
    var: int


Justification = ByAxiom | ByHyp | ByMP | ByInd


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    just: Justification


@dataclass(frozen=True)
class Proof:
    lines: tuple[ProofLine, ...]

    @property
    def conclusion(self) -> Formula:
        return self.lines[-1].formula


@dataclass(frozen=True)
class Verdict:
    ok: bool
    line: int | None = None
    reason: str | None = None


def check_proof(proof: Proof, theory: Theory, sig: Signature) -> Verdict:
    """Check every line's justification; accepting witnesses that the last
    line is derivable from the theory.  Rejection reports the first bad
    line.  Formulas are assumed well-formed over sig and parameter-free
    (the proof parser enforces both)."""
    by_name = dict(theory.sentences)
    lines = proof.lines
    for k, line in enumerate(lines, 1):
        just = line.just
        if isinstance(just, ByAxiom):
            if is_axiom(line.formula, sig) is None:
                return Verdict(False, k, "not an axiom instance")
        elif isinstance(just, ByHyp):
            expected = by_name.get(just.name)
            if expected is None:
                return Verdict(False, k, f"unknown hypothesis {just.name!r}")
            if expected != line.formula:
                return Verdict(False, k, f"formula does not match hypothesis {just.name!r}")
        elif isinstance(just, ByInd):
            if not theory.has_induction:
                return Verdict(False, k, "theory has no induction schema")
            try:
                n = _induction_rank(just.formula, just.var)
            except ValueError as exc:
                return Verdict(False, k, f"bad induction instance: {exc}")
            if not _is_induction_instance(line.formula, just.formula, just.var, n):
                return Verdict(False, k, "wrong induction instance")
        elif isinstance(just, ByMP):
            if not (1 <= just.i < k and 1 <= just.j < k):
                return Verdict(False, k, "line reference out of range")
            premise = lines[just.i - 1].formula
            implication = lines[just.j - 1].formula
            if implication != Implies(premise, line.formula):
                return Verdict(False, k, "modus ponens shape mismatch")
        else:
            return Verdict(False, k, f"unknown justification {just!r}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# Arithmetic

def arith_signature() -> Signature:
    return Signature({"zero": 0, "succ": 1, "plus": 2, "times": 2}, {}, True)


def _eq(s: Term, t: Term) -> Formula:
    return Atom(EQ_NAME, (s, t))


def arith_theory() -> Theory:
    zero = App("zero")
    x1, x2 = Var(1), Var(2)

    def succ(t: Term) -> Term:
        return App("succ", (t,))

    def plus(s: Term, t: Term) -> Term:
        return App("plus", (s, t))

    def times(s: Term, t: Term) -> Term:
        return App("times", (s, t))

    def close2(f: Formula) -> Formula:
        return forall_var(forall_var(f, 2), 1)

    sentences = (
        ("zero_ne_succ", forall_var(Implies(_eq(zero, succ(x1)), FALSE), 1)),
        ("succ_inj", close2(Implies(_eq(succ(x1), succ(x2)), _eq(x1, x2)))),
        ("add_zero", forall_var(_eq(plus(x1, zero), x1), 1)),
        ("add_succ", close2(_eq(plus(x1, succ(x2)), succ(plus(x1, x2))))),
        ("mul_zero", forall_var(_eq(times(x1, zero), zero), 1)),
        ("mul_succ", close2(_eq(times(x1, succ(x2)), plus(times(x1, x2), x1)))),
    )
    return Theory("arith", sentences, has_induction=True)


def _induction_rank(a: Formula, i: int) -> int:
    """The rank of a, once a and i are checked to make an induction instance."""
    if has_params(a):
        raise ValueError("induction formula must be parameter-free")
    n = min_rank(a)
    if n == 0:
        raise ValueError("induction formula must have rank > 0")
    if not 1 <= i <= n:
        raise ValueError(f"induction variable {i} out of range 1..{n}")
    return n


def induction_sentence(a: Formula, i: int) -> Formula:
    """The closed induction sentence for formula a in variable i: the base
    case at zero and the successor step together give the universal claim,
    closed under quantifiers for every free slot of a."""
    n = _induction_rank(a, i)
    base = single_subst(a, App("zero"), i)
    step = forall_var(Implies(a, single_subst(a, App("succ", (Var(i),)), i)), i)
    body = Implies(base, Implies(step, forall_var(a, i)))
    for j in range(1, n + 1):
        body = forall_var(body, j)
    return body


def _is_induction_instance(u: Formula, a: Formula, i: int, n: int) -> bool:
    """Whether u is induction_sentence(a, i), for a of rank n, decided
    without building it.  Closing slots 1..n in turn composes to
    [x1, ..., xn; +n], which fixes every free slot of the rank-n body, so
    u is n binders over (a[zero/xi] -> (forall (a[s] -> a[s'])) -> forall a[s])
    with s = swap_front(i) and s' = s with succ(x1) in slot i."""
    for _ in range(n):
        if not isinstance(u, Forall):
            return False
        u = u.body
    if not (isinstance(u, Implies) and isinstance(u.rhs, Implies)):
        return False
    step, claim = u.rhs.lhs, u.rhs.rhs
    if not (
        isinstance(step, Forall)
        and isinstance(step.body, Implies)
        and isinstance(claim, Forall)
        and claim.body is step.body.lhs
    ):
        return False
    return (
        _image(a, u.lhs, i, App("zero"), 0, 0, None)
        and _image(a, claim.body, i, Var(1), 1, 0, None)
        and _image(a, step.body.rhs, i, App("succ", (Var(1),)), 1, 0, None)
    )


# ---------------------------------------------------------------------------
# Theory files: "theory NAME" header, optional "with-induction", then
# "name: FORMULA" lines.

def parse_theory(text: str, sig: Signature) -> Theory:
    name: str | None = None
    has_induction = False
    sentences: list[tuple[str, Formula]] = []
    for lineno, line in source_lines(text):
        if name is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "theory":
                raise ParseError(f"line {lineno}: expected 'theory NAME' header")
            name = parts[1]
            continue
        if line == "with-induction":
            has_induction = True
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'NAME: FORMULA'")
        sent_name, formula_text = line.split(":", 1)
        sent_name = sent_name.strip()
        sentences.append((sent_name, parse_formula(formula_text, sig)))
    if name is None:
        raise ParseError("missing 'theory NAME' header")
    try:
        return Theory(name, tuple(sentences), has_induction)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def print_theory(theory: Theory) -> str:
    lines = [f"theory {theory.name}"]
    if theory.has_induction:
        lines.append("with-induction")
    lines.extend(f"{name}: {print_formula(f)}" for name, f in theory.sentences)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Proof scripts: "N. FORMULA ; axiom | hyp NAME | ind(FORMULA, I) | mp I J"

_LINE_RE = re.compile(r"([0-9]+)\.\s*(.*)")
_IND_RE = re.compile(r"ind\((.*)\)$")


def _parse_justification(text: str, sig: Signature, lineno: int) -> Justification:
    text = text.strip()
    if text == "axiom":
        return ByAxiom()
    parts = text.split()
    if parts and parts[0] == "hyp" and len(parts) == 2:
        return ByHyp(parts[1])
    if parts and parts[0] == "mp" and len(parts) == 3:
        try:
            return ByMP(int(parts[1]), int(parts[2]))
        except ValueError:
            raise ParseError(f"line {lineno}: mp needs two line numbers") from None
    m = _IND_RE.fullmatch(text)
    if m is not None:
        inner = m.group(1)
        if "," not in inner:
            raise ParseError(f"line {lineno}: ind needs a formula and a variable index")
        formula_text, var_text = inner.rsplit(",", 1)
        try:
            var = int(var_text.strip())
        except ValueError:
            raise ParseError(f"line {lineno}: ind variable must be an integer") from None
        f = parse_formula(formula_text, sig)
        if has_params(f):
            raise ParseError(f"line {lineno}: parameters are not allowed in proofs")
        return ByInd(f, var)
    raise ParseError(f"line {lineno}: bad justification {text!r}")


def parse_proof(text: str, sig: Signature) -> Proof:
    lines: list[ProofLine] = []
    for lineno, line in source_lines(text):
        m = _LINE_RE.fullmatch(line)
        if m is None:
            raise ParseError(f"line {lineno}: expected 'N. FORMULA ; JUSTIFICATION'")
        number = int(m.group(1))
        if number != len(lines) + 1:
            raise ParseError(f"line {lineno}: expected proof line {len(lines) + 1}, got {number}")
        rest = m.group(2)
        if ";" not in rest:
            raise ParseError(f"line {lineno}: missing ';' before the justification")
        formula_text, just_text = rest.split(";", 1)
        f = parse_formula(formula_text, sig)
        if has_params(f):
            raise ParseError(f"line {lineno}: parameters are not allowed in proofs")
        lines.append(ProofLine(f, _parse_justification(just_text, sig, lineno)))
    if not lines:
        raise ParseError("empty proof")
    return Proof(tuple(lines))


def _print_justification(just: Justification) -> str:
    if isinstance(just, ByAxiom):
        return "axiom"
    if isinstance(just, ByHyp):
        return f"hyp {just.name}"
    if isinstance(just, ByMP):
        return f"mp {just.i} {just.j}"
    return f"ind({print_formula(just.formula)}, {just.var})"


def print_proof(proof: Proof) -> str:
    return "".join(
        f"{k}. {print_formula(line.formula)} ; {_print_justification(line.just)}\n"
        for k, line in enumerate(proof.lines, 1)
    )
