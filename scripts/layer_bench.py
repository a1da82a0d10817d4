#!/usr/bin/env python3
"""In-process throughput of each folkit layer, in operations per second.

Builds seeded inputs once, then runs interleaved rounds: each round times
one batch of every layer, in an order rotated from round to round, so a
slow stretch of the host touches every layer alike.  Prints, per layer,
the median ops/s over the rounds and the quartiles.

    PYTHONPATH=src python3 scripts/layer_bench.py [--seed N]

The layers are ``parse_formula``, ``print_formula``, ``subst_formula``,
``min_rank``, ``is_axiom`` on axiom instances and on near-miss
non-instances, ``check_proof``, ``eval_formula`` and
``enumerate_structures``.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

from folkit import (
    FALSE,
    App,
    ByAxiom,
    ByHyp,
    ByInd,
    ByMP,
    Forall,
    Implies,
    Proof,
    ProofLine,
    arith_signature,
    arith_theory,
    check_proof,
    enumerate_structures,
    eval_formula,
    induction_sentence,
    instantiate,
    is_axiom,
    min_rank,
    parse_formula,
    print_formula,
    shift_up,
    subst_formula,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from strategies import (  # noqa: E402  (the seeded builders the tests use)
    SCHEMAS,
    SIG3EQ as SIG,
    SIG5 as EVAL_SIG,
    random_axiom_instance,
    random_formula,
    random_substitution,
)

ARITH_SIG = arith_signature()
ROUNDS = 15
BATCH_S = 0.1  # seconds spent on each layer in each round


def near_miss(rng, f):
    """One-node mutation of an axiom instance: a shifted or quantified
    consequent, or swapped sides."""
    if not isinstance(f, Implies):
        return Implies(f, FALSE)
    return rng.choice((
        Implies(f.lhs, shift_up(f.rhs)),
        Implies(f.lhs, Forall(f.rhs)),
        Implies(f.rhs, f.lhs),
    ))


def arith_proof(rng):
    """Instantiate each arithmetic axiom at a numeral by A5 and modus
    ponens, then add two induction lines."""
    theory = arith_theory()
    lines = []
    for name, sentence in theory.sentences:
        lines.append(ProofLine(sentence, ByHyp(name)))
        f = sentence
        while isinstance(f, Forall):
            numeral = App("zero")
            for _ in range(rng.randint(1, 4)):
                numeral = App("succ", (numeral,))
            inst = subst_formula(f.body, instantiate(numeral))
            lines.append(ProofLine(Implies(f, inst), ByAxiom()))
            lines.append(ProofLine(inst, ByMP(len(lines) - 1, len(lines))))
            f = inst
    for _ in range(2):
        a = random_formula(rng, ARITH_SIG, 2, 2)
        while min_rank(a) == 0:
            a = random_formula(rng, ARITH_SIG, 2, 2)
        i = rng.randint(1, min_rank(a))
        lines.append(ProofLine(induction_sentence(a, i), ByInd(a, i)))
    return Proof(tuple(lines)), theory


def eval_structure():
    for k, s in enumerate(enumerate_structures(EVAL_SIG, 3)):
        if k == 4321:
            return s
    raise AssertionError("unreachable")


def build(seed: int) -> dict:
    rng = random.Random(seed)
    formulas = [random_formula(rng, SIG, 5, 3) for _ in range(300)]
    texts = [print_formula(f) for f in formulas]
    sigmas = [random_substitution(rng, SIG) for _ in formulas]
    instances = [random_axiom_instance(rng, SIG, SCHEMAS[k % 8], meta_depth=3)
                 for k in range(400)]
    misses = [near_miss(rng, f) for f in instances]
    misses = [f for f in misses if is_axiom(f, SIG) is None]
    proofs = [arith_proof(rng) for _ in range(20)]
    for proof, theory in proofs:
        assert check_proof(proof, theory, ARITH_SIG).ok
    structure = eval_structure()
    evals = [random_formula(rng, EVAL_SIG, 4, 2) for _ in range(300)]
    env = ("0", "1", "2")

    def each(fn, items):
        def run():
            for x in items:
                fn(x)
            return len(items)
        return run

    def check_all():
        for proof, theory in proofs:
            check_proof(proof, theory, ARITH_SIG)
        return len(proofs)

    def subst_all():
        for f, sigma in zip(formulas, sigmas):
            subst_formula(f, sigma)
        return len(formulas)

    return {
        "parse_formula": each(lambda t: parse_formula(t, SIG), texts),
        "print_formula": each(print_formula, formulas),
        "subst_formula": subst_all,
        "min_rank": each(min_rank, formulas),
        "is_axiom(instances)": each(lambda f: is_axiom(f, SIG), instances),
        "is_axiom(non-instances)": each(lambda f: is_axiom(f, SIG), misses),
        "check_proof": check_all,
        "eval_formula": each(lambda f: eval_formula(f, structure, env), evals),
        "enumerate_structures": lambda: sum(1 for _ in enumerate_structures(EVAL_SIG, 2)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    layers = build(args.seed)
    names = list(layers)
    for fn in layers.values():  # compile and warm every path once
        fn()
    rates: dict[str, list[float]] = {name: [] for name in names}
    for r in range(ROUNDS):
        for name in names[r % len(names):] + names[:r % len(names)]:
            fn, ops, start = layers[name], 0, time.perf_counter()
            while True:
                ops += fn()
                elapsed = time.perf_counter() - start
                if elapsed >= BATCH_S:
                    break
            rates[name].append(ops / elapsed)
    print(f"seed={args.seed} rounds={ROUNDS} batch={BATCH_S}s")
    for name in names:
        q1, med, q3 = statistics.quantiles(rates[name], n=4, method="inclusive")
        print(f"{name:26s} {med:12,.0f} ops/s   (quartiles {q1:,.0f} .. {q3:,.0f})")


if __name__ == "__main__":
    main()
