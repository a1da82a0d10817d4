"""Golden invocation triples: (argv, stdin) -> (exit code, stdout)."""

import io
import time
from pathlib import Path

from folkit.cli import run

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

    def test_parse_error_exits_2(self):
        code, out, err = invoke("parse", "--sig", BASIC, "P(x1")
        assert code == 2 and out == "" and err.startswith("error:")


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


class TestAudit:
    def test_pass(self):
        code, out, _ = invoke(
            "audit", "--sig", PAIR_SIG, "--model", PAIR_MODEL,
            str(DATA / "pair_samples.fol"),
        )
        assert code == 0
        assert out.endswith("AUDIT PASS\n")
        assert "condition 3 (universal instantiation): PASS" in out


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

    def test_deep_nesting_exits_2(self):
        deep = "~" * 3000 + "R(x1,x1)"
        for argv in (
            ("parse", "--sig", PAIR_SIG, deep),
            ("eval", "--sig", PAIR_SIG, "--model", PAIR_MODEL, deep),
        ):
            code, out, err = invoke(*argv)
            assert (code, out, err) == (2, "", "error: input nested too deeply\n")

    def test_repeated_runs_are_byte_identical(self):
        argv = ("countermodel", "--sig", P_SIG, "--max-size", "1", "(forall P(x1))")
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second
