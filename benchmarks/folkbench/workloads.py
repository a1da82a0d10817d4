"""The four workloads.

Each ``build_*`` function takes the seed, generates every input, and
returns a :class:`Workload`: a fixed cycle of ops.  An op's ``run`` is the
only code timed; its ``check`` then compares the result with an oracle
that does not depend on the code under test and returns whether it was
correct and how many work units it did.

Ops call folkit through its package namespace at call time, so that the
traced run's wrappers see them.

The mix inside each cycle is fixed per workload (only the contents vary
with the seed), and the groups are interleaved, so the median and the
90th percentile fall inside one group of ops rather than on the edge
between two, and any prefix of a time-bounded run keeps the same mix.
"""

from __future__ import annotations

import io
import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import folkit
import folkit.cli
from folkit import (
    EMPTY_THEORY,
    FALSE,
    App,
    Atom,
    ByAxiom,
    ByHyp,
    ByInd,
    ByMP,
    Forall,
    Formula,
    Implies,
    Proof,
    ProofLine,
    Signature,
    Theory,
    Var,
    arith_signature,
    arith_theory,
    forall_var,
    instantiate,
    min_rank,
    shift_up,
    single_subst,
    subst_formula,
)

from . import gen
from .reference import holds, model_of, read_model, show, show_sugared, show_term


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, int]]
    # What the op hands to folkit, for telling inputs apart.
    args: tuple = ()


@dataclass
class Workload:
    name: str
    unit: str
    ops: list[Op]
    # For a workload whose ops start processes: the same ops run inside
    # this process, for the traced run.
    in_process: list[Op] | None = None


# ---------------------------------------------------------------------------
# soundness_sweep: every axiom instance is true in every structure

SWEEP_SIG = Signature({"g": 1}, {"R": 2}, True)
SWEEP = gen.Vocab(SWEEP_SIG)
SWEEP_SIZE3 = 400  # size-3 structures per cycle, out of 13,824
SWEEP_SETS = 16  # instance sets per cycle, used in turn

# How many instances of each rank every group of the criterion-5 mix holds:
# the expected histogram of that recipe (measured over 200 seeds), fixed so
# that a seed changes which formulas are evaluated but not how many
# evaluations a structure takes.  "inst" is the group of 100 instantiation
# axioms with random bodies; each schema group holds 25.
SWEEP_RANKS = {
    "inst": (28, 41, 31),
    "A1": (3, 4, 18),
    "A2": (1, 2, 22),
    "A3": (8, 4, 13),
    "A4": (6, 19, 0),
    "A5": (8, 11, 6),
    "A6": (8, 4, 13),
    "A7": (0, 13, 12),
    "A8": (0, 3, 22),
}


def _with_ranks(draw: Callable[[], Formula], quota: tuple[int, ...]) -> list[Formula]:
    """Draw formulas until each rank has its quota, keeping draw order."""
    left = list(quota)
    out = []
    while any(left):
        f = draw()
        rank = min_rank(f)
        if rank < len(left) and left[rank]:
            left[rank] -= 1
            out.append(f)
    return out


def sweep_instances(rng: random.Random) -> list[Formula]:
    """The criterion-5 mix: 100 instantiation axioms with random bodies and
    witnesses, then 25 instances of each of the eight schemas, every
    metavariable atomic so that ranks stay within 2."""

    def instantiation() -> Formula:
        a = gen.formula(rng, SWEEP, 1, 2)
        t = gen.term(rng, SWEEP, 2, 2)
        return Implies(Forall(a), subst_formula(a, instantiate(t)))

    instances = _with_ranks(instantiation, SWEEP_RANKS["inst"])
    for schema in gen.SCHEMAS:
        instances += _with_ranks(
            lambda: gen.axiom_instance(rng, SWEEP, schema, 2, 0), SWEEP_RANKS[schema])
    return instances


def build_sweep(seed: int) -> Workload:
    """Each op decides one structure against one of SWEEP_SETS instance
    sets, taken in turn.  How much a structure costs depends on which
    formulas short-circuit in it, so with a single set the whole run would
    carry that set's luck."""
    rng = random.Random(seed)
    sets = []
    for _ in range(SWEEP_SETS):
        formulas = tuple(sweep_instances(rng))
        sets.append((formulas, [(f, min_rank(f)) for f in formulas]))

    def decide(structure, formulas, ranked):
        envs = [list(itertools.product(structure.domain, repeat=n)) for n in range(3)]

        def run():
            eval_formula = folkit.eval_formula
            false = evals = 0
            for f, rank in ranked:
                for env in envs[rank]:
                    evals += 1
                    if not eval_formula(f, structure, env):
                        false += 1
            return false, evals

        return Op(run, lambda result: (result[0] == 0, result[1]), (structure, formulas))

    small = [gen.structure_at(SWEEP_SIG, size, i)
             for size in (1, 2) for i in range(gen.structure_count(SWEEP_SIG, size))]
    picks = rng.sample(range(gen.structure_count(SWEEP_SIG, 3)), SWEEP_SIZE3)
    large = [gen.structure_at(SWEEP_SIG, 3, i) for i in picks]
    structures = gen.interleave(small, large)
    return Workload("soundness_sweep", "evals",
                    [decide(s, *sets[k % SWEEP_SETS]) for k, s in enumerate(structures)])


# ---------------------------------------------------------------------------
# countermodel_search: refutable queries, exhaustions, cheap-filter theories

REL = SWEEP
MONOID = gen.Vocab(Signature({"e": 0, "m": 2}, {"P": 1}, True))
REFLEXIVE = Theory("reflexive", (("refl", Forall(Atom("R", (Var(1), Var(1))))),))
CM_MIX = (240, 440, 120)  # refutable, valid at size <= 2, cheap filter at size 3


def _candidates(sig: Signature, max_size: int) -> int:
    return sum(gen.structure_count(sig, k) for k in range(1, max_size + 1))


def _query(theory: Theory, f: Formula, v: gen.Vocab, max_size: int, valid: bool) -> Op:
    sentences = [s for _, s in theory.sentences]
    exhaust = _candidates(v.sig, max_size)

    def check(found):
        if found is None:
            return valid, exhaust
        structure, env = found
        model = model_of(structure)
        ok = (not valid
              and all(holds(s, model, ()) for s in sentences)
              and not holds(f, model, tuple(env)))
        return ok, 0

    return Op(lambda: folkit.find_countermodel(theory, f, v.sig, max_size), check,
              (theory, f, v.sig, max_size))


def _refutable(rng: random.Random, v: gen.Vocab) -> Formula:
    """A formula with a countermodel of size at most 2, shown by the
    reference evaluator on a random structure and environment."""
    for _ in range(10_000):
        f = gen.formula(rng, v, 2, 2)
        size = rng.randint(1, 2)
        model = model_of(gen.structure_at(v.sig, size, rng.randrange(gen.structure_count(v.sig, size))))
        env = tuple(rng.choice(model[0]) for _ in range(min_rank(f)))
        if not holds(f, model, env):
            return f
    raise RuntimeError("generator found no refutable formula")


def _consequence(rng: random.Random, theory: Theory, v: gen.Vocab) -> Formula:
    """An instance of a theory sentence at random terms: true in every
    model of the theory."""
    _, sentence = rng.choice(theory.sentences)
    f = sentence
    while isinstance(f, Forall):
        f = subst_formula(f.body, instantiate(gen.term(rng, v, 1, 2)))
    return f


def _of_rank(draw: Callable[[], Formula], rank: int) -> Formula:
    for _ in range(10_000):
        f = draw()
        if min_rank(f) == rank:
            return f
    raise RuntimeError(f"generator never reached rank {rank}")


def build_countermodel(seed: int) -> Workload:
    """Refutable queries are cheap; exhaustions of the 130 monoid-signature
    candidates up to size 2 hold the median; exhaustions of the 13,890
    relation candidates up to size 3 under a reflexivity filter, where
    enumeration is a large share, hold the 90th percentile.  Every valid
    formula has a fixed rank, since the rank sets how many environments
    each candidate is tried under, and the exhaustions of size 2 cycle
    through the eight schemas with atomic metavariables."""
    rng = random.Random(seed)
    n_refutable, n_valid, n_filtered = CM_MIX
    refutable = []
    for k in range(n_refutable):
        v, max_size = (REL, 3) if k % 2 else (MONOID, 2)
        refutable.append(_query(EMPTY_THEORY, _refutable(rng, v), v, max_size, False))
    valid = [
        _query(EMPTY_THEORY,
               _of_rank(lambda: gen.axiom_instance(rng, MONOID, gen.SCHEMAS[k % 8], 3, 0), 2),
               MONOID, 2, True)
        for k in range(n_valid)
    ]
    filtered = []
    for k in range(n_filtered):
        if k % 2:
            f = _of_rank(lambda: _consequence(rng, REFLEXIVE, REL), 1)
        else:
            f = _of_rank(lambda: gen.axiom_instance(rng, REL, rng.choice(gen.SCHEMAS), 1, 0), 1)
        filtered.append(_query(REFLEXIVE, f, REL, 3, True))
    return Workload("countermodel_search", "candidates", gen.interleave(refutable, valid, filtered))


# ---------------------------------------------------------------------------
# proof_check: in-memory proofs, a quarter of them mutated

PROOF = gen.Vocab(Signature({"c": 0, "f": 1, "h": 2}, {"P": 1, "Q": 2, "S": 0}, True))
ARITH_VOCAB = gen.Vocab(arith_signature())
ARITH = arith_theory()
PROOFS_PER_CYCLE = 400
# Shares of the cycle: propositional, quantifier, equality, arithmetic
# proofs, then mutants of those four kinds.
PROOF_MIX = (0.25, 0.2, 0.15, 0.15, 0.25)


@dataclass
class ProofCase:
    proof: Proof
    theory: Theory
    sig: Signature
    # The line a correct checker rejects, or None when it must accept.
    bad_line: int | None = None


class _ProofBuilder:
    """Accumulates proof lines and the hypotheses they cite."""

    def __init__(self) -> None:
        self.lines: list[ProofLine] = []
        self.hyps: dict[str, Formula] = {}

    def add(self, f: Formula, just) -> int:
        self.lines.append(ProofLine(gen.fresh(f), just))
        return len(self.lines)

    def hyp(self, f: Formula) -> int:
        name = f"h{len(self.hyps)}"
        self.hyps[name] = f
        return self.add(f, ByHyp(name))

    def mp(self, premise: int, implication: int) -> int:
        return self.add(self.lines[implication - 1].formula.rhs, ByMP(premise, implication))

    def weaken(self, k: int, b: Formula) -> int:
        """From line k holding A, derive (b -> A) by A1 and modus ponens."""
        a = self.lines[k - 1].formula
        return self.mp(k, self.add(Implies(a, Implies(b, a)), ByAxiom()))

    def identity(self, a: Formula) -> int:
        """The five-line derivation of (a -> a) from A1 and A2."""
        aa = Implies(a, a)
        a2 = self.add(Implies(Implies(a, Implies(aa, a)), Implies(Implies(a, aa), aa)), ByAxiom())
        a1 = self.add(Implies(a, Implies(aa, a)), ByAxiom())
        step = self.mp(a1, a2)
        return self.mp(self.add(Implies(a, aa), ByAxiom()), step)

    def instantiate(self, k: int, t) -> int:
        """From line k holding (forall A), derive A[t] by A5 and modus ponens."""
        q = self.lines[k - 1].formula
        return self.mp(k, self.add(Implies(q, subst_formula(q.body, instantiate(t))), ByAxiom()))

    def case(self, sig: Signature, base: Theory | None = None) -> ProofCase:
        sentences = (base.sentences if base else ()) + tuple(self.hyps.items())
        theory = Theory("t", sentences, base.has_induction if base else False)
        return ProofCase(Proof(tuple(self.lines)), theory, sig)


def _sentence(rng: random.Random, v: gen.Vocab, atoms: int) -> Formula:
    f = gen.big_formula(rng, v, atoms, 2)
    return gen.closed(f, min_rank(f))


def _propositional(rng: random.Random) -> ProofCase:
    """A chain of modus ponens through large sentences, with A1 weakenings,
    an A1/A2 identity derivation and an A3 line."""
    b = _ProofBuilder()
    k = b.hyp(_sentence(rng, PROOF, 6))
    for step in range(6):
        nxt = _sentence(rng, PROOF, 6)
        k = b.mp(k, b.hyp(Implies(b.lines[k - 1].formula, nxt)))
        if step % 2:
            b.weaken(k, _sentence(rng, PROOF, 3))
    b.identity(gen.big_formula(rng, PROOF, 8, 2))
    b.add(Implies(Implies(Implies(nxt, FALSE), FALSE), nxt), ByAxiom())
    return b.case(PROOF.sig)


def _quantifier(rng: random.Random) -> ProofCase:
    """A4 and A6 instances, A5 instances at deep witnesses, some of them
    under outer quantifiers, and instantiation of quantified hypotheses."""
    b = _ProofBuilder()
    for _ in range(3):
        x, y = gen.big_formula(rng, PROOF, 3, 2), gen.big_formula(rng, PROOF, 3, 2)
        b.add(Implies(Forall(Implies(x, y)), Implies(Forall(x), Forall(y))), ByAxiom())
        b.add(gen.closed(Implies(x, Forall(shift_up(x))), rng.randint(0, 2)), ByAxiom())
        body = Implies(gen.atom(rng, PROOF, 2, 2), gen.big_formula(rng, PROOF, 3, 2))
        t = gen.deep_term(rng, PROOF, rng.randint(4, 6), 2)
        b.add(gen.closed(Implies(Forall(body), subst_formula(body, instantiate(t))), rng.randint(0, 2)),
              ByAxiom())
        # Only x1 occurs in the fact, so quantifying it once closes it.
        fact = gen.big_formula(rng, PROOF, 4, 1)
        b.instantiate(b.hyp(Forall(fact)), gen.deep_term(rng, PROOF, rng.randint(4, 6), 2))
    return b.case(PROOF.sig)


def _equality(rng: random.Random) -> ProofCase:
    """A7 reflexivity lines and A8 replacement lines over large formulas,
    discharged by modus ponens."""
    b = _ProofBuilder()
    for _ in range(4):
        x = rng.randint(1, 3)
        refl = b.add(Atom("eq", (Var(x), Var(x))), ByAxiom())
        a = gen.big_formula(rng, PROOF, 5, 3)
        rep = b.add(Implies(Atom("eq", (Var(x), Var(x))), Implies(a, single_subst(a, Var(x), x))),
                    ByAxiom())
        b.mp(refl, rep)
        y = rng.randint(1, 3)
        b.add(Implies(Atom("eq", (Var(x), Var(y))), Implies(a, single_subst(a, Var(y), x))), ByAxiom())
    return b.case(PROOF.sig)


def induction_instance(a: Formula, i: int) -> Formula:
    """The induction sentence for ``a`` in variable ``i``, built from the
    schema as documented (base at zero, successor step, universal claim,
    closed over every free slot), not by ``folkit.induction_sentence``."""
    base = single_subst(a, App("zero"), i)
    step = forall_var(Implies(a, single_subst(a, App("succ", (Var(i),)), i)), i)
    body = Implies(base, Implies(step, forall_var(a, i)))
    for j in range(1, min_rank(a) + 1):
        body = forall_var(body, j)
    return body


def _numeral(n: int):
    t = App("zero")
    for _ in range(n):
        t = App("succ", (t,))
    return t


def _arithmetic(rng: random.Random) -> ProofCase:
    """Instances of the arithmetic axioms at numerals and ``ind(...)``
    lines against ``arith_theory()``."""
    b = _ProofBuilder()
    names = [name for name, _ in ARITH.sentences]
    for _ in range(3):
        name = rng.choice(names)
        k = b.add(ARITH.get(name), ByHyp(name))
        while isinstance(b.lines[k - 1].formula, Forall):
            k = b.instantiate(k, _numeral(rng.randint(2, 6)))
    for _ in range(2):
        a = _of_rank(lambda: gen.formula(rng, ARITH_VOCAB, 2, 2), rng.randint(1, 2))
        i = rng.randint(1, min_rank(a))
        b.add(induction_instance(a, i), ByInd(a, i))
    return b.case(ARITH_VOCAB.sig, ARITH)


def _mutant(rng: random.Random, case: ProofCase, kind: int) -> ProofCase:
    """Break one line k >= 2 so that a correct checker rejects exactly there:
    the formula becomes (A -> A), which is never an axiom instance, a
    hypothesis, an induction sentence or a modus ponens conclusion; or the
    line cites itself; or it names a missing hypothesis."""
    lines = list(case.proof.lines)
    k = rng.randint(2, len(lines))
    f = lines[k - 1].formula
    if kind == 0:
        lines[k - 1] = ProofLine(Implies(f, f), lines[k - 1].just)
    elif kind == 1:
        lines[k - 1] = ProofLine(f, ByMP(k, 1))
    else:
        lines[k - 1] = ProofLine(f, ByHyp("missing"))
    return ProofCase(Proof(tuple(lines)), case.theory, case.sig, k)


def _proof_op(case: ProofCase) -> Op:
    n = len(case.proof.lines)

    def check(verdict):
        if case.bad_line is None:
            return verdict.ok, n
        return not verdict.ok and verdict.line == case.bad_line, case.bad_line

    return Op(lambda: folkit.check_proof(case.proof, case.theory, case.sig), check,
              (case.proof, case.theory, case.sig))


def build_proof(seed: int) -> Workload:
    rng = random.Random(seed)
    kinds = (_propositional, _quantifier, _equality, _arithmetic)
    counts = [round(share * PROOFS_PER_CYCLE) for share in PROOF_MIX]
    groups = [[make(rng) for _ in range(n)] for make, n in zip(kinds, counts)]
    mutants = [_mutant(rng, kinds[k % 4](rng), k % 3) for k in range(counts[4])]
    return Workload("proof_check", "lines",
                    gen.interleave(*([_proof_op(c) for c in g] for g in groups + [mutants])))


# ---------------------------------------------------------------------------
# cli_files: fresh folkit processes over files the benchmark writes

CLI_CHAIN = 80  # modus ponens steps in each proof file


def sig_text(sig: Signature) -> str:
    lines = ["with-equality"] if sig.with_equality else []
    lines += [f"fn {name} {arity}" for name, arity in sorted(sig.functions.items())]
    lines += [f"pred {name} {arity}" for name, arity in sorted(sig.predicates.items())
              if name not in ("false", "eq")]
    return "\n".join(lines) + "\n"


def _just_text(just) -> str:
    if isinstance(just, ByAxiom):
        return "axiom"
    if isinstance(just, ByHyp):
        return f"hyp {just.name}"
    if isinstance(just, ByMP):
        return f"mp {just.i} {just.j}"
    return f"ind({show(just.formula)}, {just.var})"


def proof_text(proof: Proof) -> str:
    return "".join(f"{k}. {show(line.formula)} ; {_just_text(line.just)}\n"
                   for k, line in enumerate(proof.lines, 1))


def theory_text(theory: Theory) -> str:
    head = ["theory t"] + (["with-induction"] if theory.has_induction else [])
    return "\n".join(head + [f"{name}: {show(f)}" for name, f in theory.sentences]) + "\n"


def model_text(structure, env: tuple[str, ...]) -> str:
    domain, fns, preds = model_of(structure)
    lines = ["domain " + " ".join(domain)]
    for name, table in sorted(fns.items()):
        lines += [f"fn {name}: {' '.join(args)} -> {value}" for args, value in sorted(table.items())]
    for name, members in sorted(preds.items()):
        if name not in ("false", "eq"):
            lines += [f"pred {name}: {' '.join(entry)}" for entry in sorted(members)]
    return "\n".join(lines + ["env " + " ".join(env)]) + "\n"


def _long_proof(rng: random.Random) -> ProofCase:
    """A few hundred lines: a modus ponens chain through sentences, with A1
    weakenings and A5 instantiations of quantified hypotheses."""
    b = _ProofBuilder()
    k = b.hyp(_sentence(rng, PROOF, 3))
    for step in range(CLI_CHAIN):
        k = b.mp(k, b.hyp(Implies(b.lines[k - 1].formula, _sentence(rng, PROOF, 3))))
        if step % 2:
            b.weaken(k, _sentence(rng, PROOF, 2))
        if step % 4 == 0:
            fact = gen.big_formula(rng, PROOF, 2, 1)
            b.instantiate(b.hyp(Forall(fact)), gen.deep_term(rng, PROOF, 3, 2))
    return b.case(PROOF.sig)


def _expect(code: int, stdout: str) -> Callable[[tuple[int, str]], tuple[bool, int]]:
    return lambda result: (result == (code, stdout), 1)


def _expect_reject(line: int) -> Callable[[tuple[int, str]], tuple[bool, int]]:
    return lambda result: (result[0] == 1 and result[1].startswith(f"REJECT line={line} "), 1)


def _expect_countermodel(f: Formula) -> Callable[[tuple[int, str]], tuple[bool, int]]:
    def check(result):
        if result[0] != 1:
            return False, 1
        model, env = read_model(result[1])
        return not holds(f, model, env), 1

    return check


def _expect_audit_pass(result: tuple[int, str]) -> tuple[bool, int]:
    code, out = result
    lines = out.splitlines()
    ok = (code == 0 and lines[-1:] == ["AUDIT PASS"]
          and len(lines) == 6 and all(": PASS checked=" in line for line in lines[:-1]))
    return ok, 1


def cli_commands(rng: random.Random, workdir: str) -> list[tuple[list[str], Callable]]:
    """Write the input files and return the command cycle: argv and the
    check of (exit code, stdout) against the documented contract."""

    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    sig = write("sig.fol", sig_text(PROOF.sig))
    monoid = write("monoid.fol", sig_text(MONOID.sig))
    commands = []

    for tag in ("a", "b"):
        case = _long_proof(rng)
        theory = write(f"theory_{tag}.fol", theory_text(case.theory))
        good = write(f"proof_{tag}.fol", proof_text(case.proof))
        commands.append((["check", "--sig", sig, "--theory", theory, good], _expect(0, "ACCEPT\n")))
        if tag == "a":
            n = len(case.proof.lines)
            bad = _mutant(rng, case, 0)
            while bad.bad_line < n // 2:
                bad = _mutant(rng, case, 0)
            path = write("proof_bad.fol", proof_text(bad.proof))
            commands.append((["check", "--sig", sig, "--theory", theory, path],
                             _expect_reject(bad.bad_line)))

    body = Implies(Atom("P", (Var(1),)), gen.atom(rng, PROOF, 2, 2))
    t = gen.deep_term(rng, PROOF, 4, 2)
    instance = Implies(Forall(body), subst_formula(body, instantiate(t)))
    commands.append((["axiom", "--sig", sig, show(instance)],
                     _expect(0, f"AXIOM A5 strip=0 t={show_term(t)}\n")))
    other = gen.big_formula(rng, PROOF, 6, 3)
    commands.append((["axiom", "--sig", sig, show(Implies(other, other))], _expect(1, "NOT-AXIOM\n")))

    for _ in range(2):
        f = gen.big_formula(rng, PROOF, 12, 3)
        commands.append((["parse", "--sig", sig, show_sugared(f)], _expect(0, show(f) + "\n")))

    count = gen.structure_count(PROOF.sig, 3)
    structure = gen.structure_at(PROOF.sig, 3, rng.randrange(count))
    env = tuple(rng.choice(structure.domain) for _ in range(3))
    model = write("model.fol", model_text(structure, env))
    for _ in range(2):
        f = gen.big_formula(rng, PROOF, 8, 3)
        truth = holds(f, model_of(structure), env)
        commands.append((["eval", "--sig", sig, "--model", model, show(f)],
                         _expect(0 if truth else 1, "TRUE\n" if truth else "FALSE\n")))
    samples = [gen.big_formula(rng, PROOF, 3, 2) for _ in range(4)]
    samples.append(Forall(gen.big_formula(rng, PROOF, 2, 3)))
    sample_lines = [show(f) for f in samples] + ["term x2", f"term {show_term(gen.term(rng, PROOF, 2, 2))}"]
    audit = write("samples.fol", "\n".join(sample_lines) + "\n")
    commands.append((["audit", "--sig", sig, "--model", model, audit], _expect_audit_pass))

    refutable = _refutable(rng, MONOID)
    commands.append((["countermodel", "--sig", monoid, "--max-size", "2", show(refutable)],
                     _expect_countermodel(refutable)))
    valid = _of_rank(lambda: gen.axiom_instance(rng, MONOID, rng.choice(gen.SCHEMAS), 2, 0), 2)
    commands.append((["countermodel", "--sig", monoid, "--max-size", "2", show(valid)],
                     _expect(0, "NONE size<=2\n")))
    return commands


def _in_subprocess(argv: list[str], env: dict[str, str]) -> Callable[[], tuple[int, str]]:
    command = [sys.executable, "-m", "folkit"] + argv

    def run():
        done = subprocess.run(command, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout

    return run


def _in_process(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        out = io.StringIO()
        code = folkit.cli.run(argv, stdout=out, stderr=io.StringIO())
        return code, out.getvalue()

    return run


def python_env(path: str) -> dict[str, str]:
    """The environment for a child interpreter that imports from ``path``
    (the checkout's sources) before anything installed."""
    return dict(os.environ, PYTHONPATH=path)


def build_cli(seed: int, workdir: str, src: str) -> Workload:
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    commands = cli_commands(rng, workdir)
    env = python_env(src)
    return Workload(
        "cli_files", "invocations",
        [Op(_in_subprocess(argv, env), check, (argv,)) for argv, check in commands],
        in_process=[Op(_in_process(argv), check, (argv,)) for argv, check in commands],
    )
