"""Golden invocation triples: (argv, stdin) -> (exit code, stdout)."""

import functools
import io
import os
import subprocess
import sys
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from folkit import MAX_DEPTH, Implies, eval_formula, induced_valuation_check
from folkit import cli
from folkit.cli import run
from strategies import mutated

DATA = Path(__file__).parent / "data"
BASIC = str(DATA / "basic.fol")
PAIR_SIG = str(DATA / "pair_sig.fol")
PAIR_MODEL = str(DATA / "pair_model.fol")
P_SIG = str(DATA / "p_sig.fol")
ARITH_SIG = str(DATA / "arith_sig.fol")


def invoke(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdin=stdin, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestParse:
    def test_formula_expands_sugar(self):
        code, out, _ = invoke("parse", "--sig", BASIC, "~P(x1)")
        assert (code, out) == (0, "(P(x1) -> false)\n")

    def test_term(self):
        code, out, _ = invoke("parse", "--sig", BASIC, "f(f(c()))")
        assert (code, out) == (0, "f(f(c()))\n")

    def test_stdin(self):
        code, out, _ = invoke("parse", "--sig", BASIC, "-", stdin="(forall P(x1))")
        assert (code, out) == (0, "(forall P(x1))\n")

    def test_large_unused_quantified_index(self):
        start = time.perf_counter()
        code, out, _ = invoke("parse", "--sig", BASIC, "(forall x3000000 P(x1))")
        assert (code, out) == (0, "(forall P(x2))\n")
        assert time.perf_counter() - start < 1.0

    def test_huge_quantified_index_costs_the_formula(self):
        # a substitution stores its exceptions only, so quantifying slot N
        # costs nothing that grows with N
        for index in (10**7, 10**100):
            start = time.perf_counter()
            code, out, _ = invoke("parse", "--sig", P_SIG, f"(forall x{index} P(x{index}))")
            assert (code, out) == (0, "(forall P(x1))\n")
            assert time.perf_counter() - start < 1.0

    def test_parse_error_exits_2(self):
        code, out, err = invoke("parse", "--sig", BASIC, "P(x1")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_parsing_compiles_no_evaluator(self):
        # the generator of evaluation code is imported at the first
        # evaluation, so a command that evaluates nothing never compiles it
        def loads_generator(*argv):
            probe = (f"import sys\nfrom folkit import cli\ncli.run({list(argv)!r})\n"
                     "print('folkit._codegen' in sys.modules)")
            env = {**os.environ, "PYTHONPATH": str(DATA.parent.parent / "src")}
            run = subprocess.run([sys.executable, "-c", probe], env=env,
                                 capture_output=True, text=True, timeout=60)
            assert run.returncode == 0, run.stderr
            return run.stdout.splitlines()[-1]

        assert loads_generator("parse", "--sig", BASIC, "(forall ~P(x1))") == "False"
        assert loads_generator("eval", "--sig", PAIR_SIG, "--model", PAIR_MODEL,
                               "R(x1,x2)") == "True"


class TestSubst:
    def test_applies_prefix_and_offset(self):
        code, out, _ = invoke(
            "subst", "--sig", BASIC, "P(x2)", "[f(x1); +1]"
        )
        assert (code, out) == (0, "P(x3)\n")

    def test_term_target(self):
        code, out, _ = invoke("subst", "--sig", BASIC, "f(x1)", "[c(); +0]")
        assert (code, out) == (0, "f(c())\n")


class TestRankAndFreevars:
    def test_rank(self):
        code, out, _ = invoke("rank", "--sig", PAIR_SIG, "R(x1,x3)")
        assert (code, out) == (0, "3\n")

    def test_freevars(self):
        code, out, _ = invoke("freevars", "--sig", PAIR_SIG, "(forall R(x1,x3))")
        assert (code, out) == (0, "2\n")

    def test_freevars_empty(self):
        code, out, _ = invoke("freevars", "--sig", BASIC, "(forall P(x1))")
        assert (code, out) == (0, "\n")


class TestAxiom:
    def test_a1(self):
        code, out, _ = invoke("axiom", "--sig", BASIC, "(P(x1) -> (Q() -> P(x1)))")
        assert (code, out) == (0, "AXIOM A1 strip=0\n")

    def test_a5_witness(self):
        code, out, _ = invoke("axiom", "--sig", BASIC, "((forall P(x1)) -> P(f(x1)))")
        assert (code, out) == (0, "AXIOM A5 strip=0 t=f(x1)\n")

    def test_a8_pair(self):
        code, out, _ = invoke(
            "axiom", "--sig", ARITH_SIG, "(x1 = x2 -> (x1 = x1 -> x2 = x2))"
        )
        assert (code, out) == (0, "AXIOM A8 strip=0 x=1 y=2\n")

    def test_a8_with_a_huge_index_is_fast(self, tmp_path):
        sig = tmp_path / "sig.fol"
        sig.write_text("with-equality\npred P 1\n")
        for x in (10**6, 10**9):
            start = time.perf_counter()
            code, out, _ = invoke("axiom", "--sig", str(sig), f"(eq(x{x},x1) -> (P(x{x}) -> P(x1)))")
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (0, f"AXIOM A8 strip=0 x={x} y=1\n")

    def test_negative_verdict(self):
        code, out, _ = invoke("axiom", "--sig", BASIC, "(false -> false)")
        assert (code, out) == (1, "NOT-AXIOM\n")


class TestCheck:
    def test_mp_golden(self):
        code, out, _ = invoke(
            "check", "--sig", BASIC, "--theory", str(DATA / "mp_theory.fol"),
            str(DATA / "mp_proof.fol"),
        )
        assert (code, out) == (0, "ACCEPT\n")

    def test_a5_golden(self):
        code, out, _ = invoke(
            "check", "--sig", BASIC, "--theory", str(DATA / "mp_theory.fol"),
            str(DATA / "a5_proof.fol"),
        )
        assert (code, out) == (0, "ACCEPT\n")

    def test_arith_golden(self):
        code, out, _ = invoke(
            "check", "--sig", ARITH_SIG, "--theory", str(DATA / "arith.fol"),
            str(DATA / "arith_proof.fol"),
        )
        assert (code, out) == (0, "ACCEPT\n")

    def test_reject_reports_the_line(self, tmp_path):
        bad = tmp_path / "bad.fol"
        bad.write_text(
            "1. (forall P(x1)) ; hyp all_p\n"
            "2. ((forall P(x1)) -> Q()) ; hyp p_implies_q\n"
            "3. Q() ; mp 3 2\n"
        )
        code, out, _ = invoke(
            "check", "--sig", BASIC, "--theory", str(DATA / "mp_theory.fol"), str(bad)
        )
        assert code == 1
        assert out == "REJECT line=3 reason=line reference out of range\n"

    def test_formula_errors_name_their_line(self, tmp_path):
        proof, theory = tmp_path / "proof.fol", tmp_path / "theory.fol"
        for sig, text, error in (
            (P_SIG, "1. P(x1) ; axiom\n2. Q(x1) ; axiom\n", "line 2: unknown predicate symbol 'Q'"),
            (BASIC, "\n1. P(x1) ; ind(P(f(x1,x1)), 1)\n",
             "line 2: arity mismatch: f expects 1, got 2"),
        ):
            proof.write_text(text)
            assert invoke("check", "--sig", sig, str(proof)) == (2, "", f"error: {error}\n")
        theory.write_text("theory t\nok: (forall P(x1))\nbad: (forall P(x1)\n")
        code, out, err = invoke("check", "--sig", BASIC, "--theory", str(theory),
                                str(DATA / "mp_proof.fol"))
        assert (code, out, err) == (2, "", "error: line 3: unexpected end of input\n")

    def test_proof_from_stdin(self):
        text = (DATA / "mp_proof.fol").read_text()
        code, out, _ = invoke(
            "check", "--sig", BASIC, "--theory", str(DATA / "mp_theory.fol"), "-",
            stdin=text,
        )
        assert (code, out) == (0, "ACCEPT\n")


class TestEval:
    def test_true(self):
        code, out, _ = invoke("eval", "--sig", PAIR_SIG, "--model", PAIR_MODEL, "R(x1,x2)")
        assert (code, out) == (0, "TRUE\n")

    def test_false_exits_1(self):
        code, out, _ = invoke(
            "eval", "--sig", PAIR_SIG, "--model", PAIR_MODEL,
            "--env", "1 1", "R(x1,x2)",
        )
        assert (code, out) == (1, "FALSE\n")

    def test_missing_table_of_a_huge_arity_is_reported_at_once(self, tmp_path):
        # a table is checked before any row is encoded: 2**30 rows are
        # never built for a table that is absent or too small
        sig, model = tmp_path / "sig.fol", tmp_path / "model.fol"
        sig.write_text("pred P 1\nfn g 30\n")
        for table, error in (
            ("", "missing table for function 'g'"),
            ("fn g: " + " 0" * 30 + " -> 1\n", "table for 'g' is not total over the carrier"),
        ):
            model.write_text("domain 0 1\n" + table)
            start = time.perf_counter()
            code, out, err = invoke("eval", "--sig", str(sig), "--model", str(model),
                                    "--env", "0", "P(x1)")
            assert time.perf_counter() - start < 1.0
            assert (code, out, err) == (2, "", f"error: {error}\n")


class TestCountermodel:
    def test_found_prints_the_model(self):
        code, out, _ = invoke(
            "countermodel", "--sig", P_SIG, "--max-size", "1", "(forall P(x1))"
        )
        assert code == 1
        assert out == "domain 0\nenv\n"

    def test_none_on_exhaustion(self):
        code, out, _ = invoke(
            "countermodel", "--sig", P_SIG, "--max-size", "2",
            "(P(x1) -> (false -> P(x1)))",
        )
        assert (code, out) == (0, "NONE size<=2\n")

    def test_ceiling_refusal_exits_2(self):
        code, out, err = invoke(
            "countermodel", "--sig", P_SIG, "--max-size", "2", "--ceiling", "1",
            "(forall P(x1))",
        )
        assert code == 2 and "ceiling" in err

    def test_huge_max_size_is_refused_at_once(self, tmp_path):
        sig = tmp_path / "monoid.fol"
        sig.write_text("fn e 0\nfn m 2\npred P 1\n")
        start = time.perf_counter()
        code, out, err = invoke(
            "countermodel", "--sig", str(sig), "--max-size", "400", "(forall P(x1))"
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: enumeration of") and "exceeds the ceiling" in err

    def test_huge_predicate_arity_is_refused_at_once(self, tmp_path):
        for arity in (24, 40):
            sig = tmp_path / f"wide{arity}.fol"
            sig.write_text(f"pred P {arity}\n")
            formula = "P(" + ",".join(["x1"] * arity) + ")"
            start = time.perf_counter()
            code, out, err = invoke(
                "countermodel", "--sig", str(sig), "--max-size", "2", formula
            )
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (2, "")
            assert err.startswith("error: enumeration of at least ")
            assert err.endswith(" candidates exceeds the ceiling of 1000000\n")

    def test_environment_or_row_past_the_ceiling_is_refused_at_once(self, tmp_path):
        # one candidate on one element, but its environment, or a row of
        # its function table, would hold more entries than the ceiling
        sig = tmp_path / "sig.fol"
        for sig_text, formula, length in (
            ("pred P 1\n", "P(x1000000000)", 10**9),
            ("pred P 1\n", "P(x10000000)", 10**7),
            (f"pred P 1\nfn g {10**9}\n", "P(x1)", 10**9),
        ):
            sig.write_text(sig_text)
            start = time.perf_counter()
            code, out, err = invoke("countermodel", "--sig", str(sig), "--max-size", "1", formula)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (2, "")
            assert err == (f"error: enumeration of at least {length} entries in one environment "
                           "or table row exceeds the ceiling of 1000000\n")


class TestAudit:
    def test_pass(self):
        code, out, _ = invoke(
            "audit", "--sig", PAIR_SIG, "--model", PAIR_MODEL,
            str(DATA / "pair_samples.fol"),
        )
        assert code == 0
        assert out.endswith("AUDIT PASS\n")
        assert "condition 3 (universal instantiation): PASS" in out
        assert out == (
            "condition 1 (falsum excluded): PASS checked=1\n"
            "condition 2 (implication is material): PASS checked=1\n"
            "condition 3 (universal instantiation): PASS checked=3\n"
            "condition 4 (equality reflexivity): PASS checked=8\n"
            "condition 5 (equality replacement): PASS checked=36\n"
            "AUDIT PASS\n"
        )

    def test_exponential_closures_hit_the_ceiling(self, tmp_path):
        # reflexivity and replacement closures up to rank 25 over a
        # two-element carrier would take about 2**26 environments
        samples = tmp_path / "samples.fol"
        samples.write_text("R(x1,x25)\n")
        start = time.perf_counter()
        code, out, err = invoke("audit", "--sig", PAIR_SIG, "--model", PAIR_MODEL, str(samples))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: enumeration of at least ")
        assert err.endswith(" candidates exceeds the ceiling of 1000000\n")

    def test_closures_over_rank_zero_bodies_count_once(self, tmp_path):
        # counted at 2**n per closure this would be about 1.2M environments;
        # at 2**min(n, rank) it is about 0.4M, under the ceiling
        samples = tmp_path / "samples.fol"
        samples.write_text("R(x1,x15)\n")
        code, out, err = invoke("audit", "--sig", PAIR_SIG, "--model", PAIR_MODEL, str(samples))
        assert (code, err) == (0, "")
        assert out == (
            "condition 1 (falsum excluded): PASS checked=1\n"
            "condition 2 (implication is material): PASS checked=0\n"
            "condition 3 (universal instantiation): PASS checked=0\n"
            "condition 4 (equality reflexivity): PASS checked=151\n"
            "condition 5 (equality replacement): PASS checked=9\n"
            "AUDIT PASS\n"
        )

    def test_closures_deeper_than_the_limit_are_decided_unbuilt(self, tmp_path):
        # closing R(x1,x99) over 99 variables would build a node of depth 101
        sig, model, samples = (tmp_path / name for name in ("sig", "model", "samples"))
        sig.write_text("with-equality\npred R 2\n")
        model.write_text("domain 0\n")
        samples.write_text("R(x1,x99)\n")
        start = time.perf_counter()
        code, out, err = invoke("audit", "--sig", str(sig), "--model", str(model), str(samples))
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        assert out == (
            "condition 1 (falsum excluded): PASS checked=1\n"
            "condition 2 (implication is material): PASS checked=0\n"
            "condition 3 (universal instantiation): PASS checked=0\n"
            "condition 4 (equality reflexivity): PASS checked=4950\n"
            "condition 5 (equality replacement): PASS checked=3\n"
            "AUDIT PASS\n"
        )


class TestContract:
    def test_usage_error_exits_2(self):
        code, _, err = invoke("rank", "P(x1)")
        assert code == 2 and err.startswith("error:")

    def test_unknown_command_exits_2(self):
        code, _, err = invoke("frobnicate", "--sig", BASIC, "x")
        assert code == 2

    def test_missing_file_exits_2(self):
        code, _, err = invoke("rank", "--sig", "no_such_file.fol", "P(x1)")
        assert code == 2 and err.startswith("error:")

    def test_deep_nesting_exits_2(self, tmp_path):
        proof, theory, samples = (tmp_path / name for name in ("proof", "theory", "samples"))
        for n in (MAX_DEPTH + 1, 3000):
            deep = "~" * n + "R(x1,x1)"
            deep_term = "g(" * n + "x1" + ")" * n
            proof.write_text(f"1. R(x1,x1) ; axiom\n2. {deep} ; axiom\n")
            theory.write_text(f"theory t\ns: {deep}\n")
            samples.write_text(f"R(x1,x1)\nterm {deep_term}\n")
            model = ("--model", PAIR_MODEL)
            # a proof, theory or samples file's error names its line
            for where, argv in (
                ("", ("parse", deep)),
                ("", ("subst", deep, "[x1; +0]")),
                ("", ("subst", "R(x1,x1)", f"[{deep_term}; +0]")),
                ("", ("rank", deep)),
                ("", ("freevars", deep_term)),
                ("", ("axiom", deep)),
                ("line 2: ", ("check", str(proof))),
                ("line 2: ", ("check", "--theory", str(theory), str(DATA / "mp_proof.fol"))),
                ("", ("eval", *model, deep)),
                ("", ("countermodel", deep)),
                ("line 2: ", ("countermodel", "--theory", str(theory), "R(x1,x1)")),
                ("line 2: ", ("audit", *model, str(samples))),
            ):
                code, out, err = invoke(argv[0], "--sig", PAIR_SIG, *argv[1:])
                assert (code, out, err) == (2, "", f"error: {where}input nested too deeply\n"), argv

    def test_substitution_past_the_limit_exits_2(self):
        term = "g(" * (MAX_DEPTH - 3) + "x1" + ")" * (MAX_DEPTH - 3)
        code, out, err = invoke("subst", "--sig", PAIR_SIG, f"R({term},x1)", "[g(g(x1)); +0]")
        assert (code, out) == (2, "")
        assert err == (f"error: term or formula nested too deeply: depth {MAX_DEPTH + 1} "
                       f"exceeds MAX_DEPTH = {MAX_DEPTH}\n")

    def test_repeated_runs_are_byte_identical(self):
        argv = ("countermodel", "--sig", P_SIG, "--max-size", "1", "(forall P(x1))")
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second


class TestModelLoading:
    def test_eval_and_audit_require_a_model(self):
        for argv in (
            ("eval", "--sig", PAIR_SIG, "R(x1,x2)"),
            ("audit", "--sig", PAIR_SIG, str(DATA / "pair_samples.fol")),
        ):
            code, out, err = invoke(*argv)
            assert (code, out, err) == (2, "", f"error: {argv[0]} requires --model\n")

    def test_env_overrides_the_model_env_line(self, tmp_path):
        # --env E reads as the model file with "env E" in place of its own
        # env line ("env 0 1"); both commands show the difference
        model = tmp_path / "model.fol"
        model.write_text(Path(PAIR_MODEL).read_text().replace("env 0 1", "env 1 0 1"))
        for argv in (
            ("eval", "--sig", PAIR_SIG, "R(x1,x2)"),
            ("audit", "--sig", PAIR_SIG, str(DATA / "pair_samples.fol")),
        ):
            from_file = invoke(*argv, "--model", PAIR_MODEL)
            overridden = invoke(*argv, "--model", PAIR_MODEL, "--env", "1 0 1")
            assert overridden == invoke(*argv, "--model", str(model))
            assert overridden[1] != from_file[1]

    def test_env_element_outside_the_carrier_exits_2(self):
        for argv in (
            ("eval", "--sig", PAIR_SIG, "R(x1,x2)"),
            ("audit", "--sig", PAIR_SIG, str(DATA / "pair_samples.fol")),
        ):
            code, out, err = invoke(*argv, "--model", PAIR_MODEL, "--env", "0 7")
            assert (code, out, err) == (2, "", "error: env element '7' not in the domain\n")

    def test_failing_audit_exits_1(self, monkeypatch):
        # the library's evaluator passes every audit, so the audit is given
        # one that takes every implication to be true
        def broken(f, structure, env):
            return isinstance(f, Implies) or eval_formula(f, structure, env)

        monkeypatch.setattr(
            cli, "induced_valuation_check",
            functools.partial(induced_valuation_check, eval_fn=broken),
        )
        code, out, _ = invoke(
            "audit", "--sig", PAIR_SIG, "--model", PAIR_MODEL, str(DATA / "pair_samples.fol")
        )
        assert code == 1
        assert "condition 2 (implication is material): FAIL" in out
        assert out.endswith("AUDIT FAIL\n")


# ---------------------------------------------------------------------------
# The exit-code contract over valid and mutated input

COMMANDS = ("parse", "subst", "rank", "freevars", "axiom", "check", "eval", "countermodel", "audit")
VERDICT_COMMANDS = {"axiom", "check", "eval", "countermodel", "audit"}

FORMULAS = (
    "R(x1,x2)",
    "~R(x1,x1)",
    "(forall R(x1,x2))",
    "g(x1) = x2",
    "(forall x2 (R(x1,x2) -> R(x2,x1)))",
    "((forall R(x1,x1)) -> R(g(x1),g(x1)))",
    "g(g(x1))",
    "P(f(c()))",
)
SUBSTITUTIONS = ("[g(x1); +1]", "[x2, x1; +0]", "[; -1]", "[$0; +2]")
THEORY = "theory t\nwith-induction\nrefl: (forall R(x1,x1))\n"
PROOF = (
    "1. (forall R(x1,x1)) ; hyp refl\n"
    "2. ((forall R(x1,x1)) -> R(g(x1),g(x1))) ; axiom\n"
    "3. R(g(x1),g(x1)) ; mp 1 2\n"
)
MODEL = Path(PAIR_MODEL).read_text()
SAMPLES = (DATA / "pair_samples.fol").read_text()

# Mutations splice these in.  Two splices of the long digit run make an
# index or an arity past 10**9.
FORMULA_PIECES = ("g", "R", "P", "f", "c", "eq", "~", "(", ")", "->", ",", "=", "x1", "x2",
                  "x3", "$0", "$m", "false", "forall", "(forall x2 ", "-", "~" * (MAX_DEPTH + 1),
                  "0", "7", "99999")
SAMPLE_PIECES = FORMULA_PIECES + ("\n", "#", "term ")
FILE_PIECES = SAMPLE_PIECES + (":", ";", "1", "domain", "fn", "pred", "env", "theory",
                               "with-induction", "with-equality", "hyp", "axiom", "mp", "ind(",
                               "[", "]", "+1")


@st.composite
def invocations(draw, tmp: Path):
    """An argv for one of the nine commands with its stdin text, writing
    the signature, model, theory, proof and sample files it names under
    ``tmp``."""

    def text(source: str, pieces: tuple[str, ...]) -> str:
        return draw(st.just(source) | mutated(source, pieces, max_edits=2))

    def file(name: str, source: str, pieces: tuple[str, ...]) -> str:
        path = tmp / name
        path.write_text(text(source, pieces))
        return str(path)

    command = draw(st.sampled_from(COMMANDS))
    sig = draw(st.sampled_from((PAIR_SIG, PAIR_SIG, PAIR_SIG, BASIC, ARITH_SIG)))
    argv = [command, "--sig", file("sig.fol", Path(sig).read_text(), FILE_PIECES)]
    if command in ("check", "countermodel") and draw(st.booleans()):
        argv += ["--theory", file("theory.fol", THEORY, FILE_PIECES)]
    if command in ("eval", "audit"):
        if draw(st.integers(0, 4)):
            argv += ["--model", file("model.fol", MODEL, FILE_PIECES)]
        env = draw(st.sampled_from((None, None, "0 1", "1 0 1", "0", "", "7")))
        if env is not None:
            argv += ["--env", env]
    if command == "countermodel":
        size = draw(st.sampled_from((None, "1", "2", "0", "-1", "x")))
        if size is not None:
            argv += ["--max-size", size]
    if command == "check":
        arg = text(PROOF, FILE_PIECES)
    elif command == "audit":
        arg = text(SAMPLES, SAMPLE_PIECES)
    else:
        arg = text(draw(st.sampled_from(FORMULAS)), FORMULA_PIECES)
    stdin = None
    how = draw(st.sampled_from(("arg", "arg", "arg", "stdin", "no stdin")))
    if how == "arg":
        if command in ("check", "audit"):
            (tmp / "input.fol").write_text(arg)
            arg = str(tmp / "input.fol")
        argv.append(arg)
    else:
        argv.append("-")
        stdin = arg if how == "stdin" else None
    if command == "subst":
        argv.append(text(draw(st.sampled_from(SUBSTITUTIONS)), FILE_PIECES))
    return argv, stdin


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_exit_code_contract(tmp_path, data):
    argv, stdin = data.draw(invocations(tmp_path))
    code, out, err = invoke(*argv, stdin=stdin)
    assert code in (0, 1, 2)
    if code == 1:
        assert argv[0] in VERDICT_COMMANDS
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
