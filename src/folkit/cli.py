"""Command-line interface.

Exit codes are a stable contract: 0 for success or a positive verdict,
1 for a negative verdict (proof rejected, not an axiom, formula false,
countermodel found, audit failed), 2 for usage or input errors,
including input nested past ``syntax.MAX_DEPTH``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import TextIO

from .proof import EMPTY_THEORY, Theory, check_proof, is_axiom, parse_proof, parse_theory
from .semantics import (
    DEFAULT_CEILING,
    SearchLimit,
    Structure,
    eval_formula,
    find_countermodel,
    induced_valuation_check,
    parse_env,
    parse_model,
    print_model,
)
from .subst import min_rank, free_vars, parse_substitution, subst_formula, subst_term
from .syntax import (
    Formula,
    ParseError,
    Signature,
    Term,
    parse_formula,
    parse_signature,
    parse_term,
    print_formula,
    print_term,
    source_lines,
)

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="folkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, *, theory: bool = False, model: bool = False, search: bool = False):
        p = sub.add_parser(name)
        p.add_argument("--sig", required=True, help="signature file")
        if theory:
            p.add_argument("--theory", help="theory file")
        if model:
            p.add_argument("--model", help="model file")
            p.add_argument("--env", help="environment, e.g. '0 1 0'")
        if search:
            p.add_argument("--max-size", type=int, default=2, help="largest carrier size")
            p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING,
                           help="refuse searches over this many candidates")
        p.add_argument("arg", help="formula/term text or input file; '-' reads stdin")
        return p

    cmd("parse")
    p = cmd("subst")
    p.add_argument("substitution", help="substitution in [t1, ..., tn; +d] form")
    cmd("rank")
    cmd("freevars")
    cmd("axiom")
    cmd("check", theory=True)
    cmd("eval", model=True)
    cmd("countermodel", theory=True, search=True)
    cmd("audit", model=True)
    return parser


def _read_text(args: argparse.Namespace, stdin: str | None) -> str:
    """The text of ``arg``: stdin for '-', a file's for check and audit."""
    if args.arg == "-":
        if stdin is None:
            raise _UsageError("'-' given but no stdin text available")
        return stdin
    if args.command in ("check", "audit"):
        with open(args.arg, encoding="utf-8") as handle:
            return handle.read()
    return args.arg


def _parse_formula_or_term(text: str, sig: Signature) -> Formula | Term:
    try:
        return parse_formula(text, sig)
    except ParseError as formula_err:
        try:
            return parse_term(text, sig)
        except ParseError:
            raise formula_err from None


def _load_theory(path: str | None, sig: Signature) -> Theory:
    if path is None:
        return EMPTY_THEORY
    with open(path, encoding="utf-8") as handle:
        return parse_theory(handle.read(), sig)


def _load_model(args: argparse.Namespace, sig: Signature) -> tuple[Structure, tuple[str, ...]]:
    """The model file's structure and env; ``--env`` overrides the latter."""
    if args.model is None:
        raise _UsageError(f"{args.command} requires --model")
    with open(args.model, encoding="utf-8") as handle:
        structure, env = parse_model(handle.read(), sig)
    if args.env is not None:
        env = parse_env(args.env, structure)
    return structure, env or ()


def run(argv: list[str], stdin: str | None = None,
        stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    """Execute one invocation; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = _build_parser().parse_args(argv)
            except SystemExit as exc:  # --help exits with 0
                return int(exc.code or 0)
        with open(args.sig, encoding="utf-8") as handle:
            sig = parse_signature(handle.read())
        return _dispatch(args, sig, stdin, out)
    except (_UsageError, ValueError, SearchLimit, OSError) as exc:
        # ParseError and EvalError are ValueErrors, as is a node built
        # deeper than MAX_DEPTH
        print(f"error: {exc}", file=err)
        return 2


def _dispatch(args: argparse.Namespace, sig: Signature, stdin: str | None, out: TextIO) -> int:
    command = args.command
    text = _read_text(args, stdin)

    if command == "parse":
        node = _parse_formula_or_term(text, sig)
        print(print_formula(node) if isinstance(node, Formula) else print_term(node), file=out)
        return 0

    if command == "subst":
        node = _parse_formula_or_term(text, sig)
        sigma = parse_substitution(args.substitution, sig)
        if isinstance(node, Formula):
            print(print_formula(subst_formula(node, sigma)), file=out)
        else:
            print(print_term(subst_term(node, sigma)), file=out)
        return 0

    if command == "rank":
        print(min_rank(_parse_formula_or_term(text, sig)), file=out)
        return 0

    if command == "freevars":
        indices = sorted(free_vars(_parse_formula_or_term(text, sig)))
        print(" ".join(str(i) for i in indices), file=out)
        return 0

    if command == "axiom":
        tag = is_axiom(parse_formula(text, sig), sig)
        if tag is None:
            print("NOT-AXIOM", file=out)
            return 1
        extra = ""
        if tag.schema == "A5":
            extra = f" t={print_term(tag.witness)}"
        elif tag.schema in ("A7", "A8"):
            extra = f" x={tag.var_pair[0]} y={tag.var_pair[1]}"
        print(f"AXIOM {tag.schema} strip={tag.stripped}{extra}", file=out)
        return 0

    if command == "check":
        theory = _load_theory(args.theory, sig)
        proof = parse_proof(text, sig)
        verdict = check_proof(proof, theory, sig)
        if verdict.ok:
            print("ACCEPT", file=out)
            return 0
        print(f"REJECT line={verdict.line} reason={verdict.reason}", file=out)
        return 1

    if command == "eval":
        structure, env = _load_model(args, sig)
        value = eval_formula(parse_formula(text, sig), structure, env)
        print("TRUE" if value else "FALSE", file=out)
        return 0 if value else 1

    if command == "countermodel":
        theory = _load_theory(args.theory, sig)
        formula = parse_formula(text, sig)
        found = find_countermodel(theory, formula, sig, args.max_size, args.ceiling)
        if found is None:
            print(f"NONE size<={args.max_size}", file=out)
            return 0
        structure, env = found
        print(print_model(structure, env), end="", file=out)
        return 1

    if command == "audit":
        structure, env = _load_model(args, sig)
        samples: list[Formula] = []
        terms: list[Term] = []
        for _, line in source_lines(text):
            if line.startswith("term "):
                terms.append(parse_term(line[len("term "):], sig))
            else:
                samples.append(parse_formula(line, sig))
        report = induced_valuation_check(structure, env, samples, terms)
        print(report.summary(), file=out)
        print("AUDIT PASS" if report.ok else "AUDIT FAIL", file=out)
        return 0 if report.ok else 1

    raise _UsageError(f"unknown command {command!r}")


def main() -> None:
    argv = sys.argv[1:]
    stdin = sys.stdin.read() if "-" in argv else None
    sys.exit(run(argv, stdin=stdin))


if __name__ == "__main__":
    main()
