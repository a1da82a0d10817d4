"""Unit tests for the benchmark's own code.

Run with ``python -m pytest benchmarks/tests`` from the repository root.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

import folkit
from folkbench import bench, gen, reference, stats, workloads
from folkbench.tracer import Tracer
from folkit import Atom, Forall, Var, parse_formula

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# The percentile rule: the highest percentile with ten samples beyond it

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.highest_percentile(n) == expected


@pytest.mark.parametrize("p, n", [(50.0, 20), (90.0, 100), (99.0, 1000), (99.9, 10000)])
def test_min_samples_is_where_the_rule_starts_to_hold(p, n):
    assert stats.min_samples(p) == n
    assert stats.samples_beyond(n, p) >= stats.TAIL > stats.samples_beyond(n - 1, p)


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert stats.percentile([7.0], 90.0) == 7.0
    assert stats.percentile([float(i) for i in range(101)], 90.0) == 90.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_the_tail_percentile_is_reportable_at_the_minimum_run():
    assert stats.highest_percentile(bench.MIN_OPS) == bench.TAIL_PERCENTILE


# ---------------------------------------------------------------------------
# Tracer: self time, re-entrancy, generators, installation

def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_nested_children():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    tracer = Tracer(clock=fake_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    a = tracer.open(tracer.intern("a"))
    b = tracer.open(tracer.intern("b"))
    tracer.close(b)
    c = tracer.open(tracer.intern("c"))
    d = tracer.open(tracer.intern("d"))
    tracer.close(d)
    tracer.close(c)
    tracer.close(a)
    assert tracer.self_times() == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0}
    assert list(tracer.parent) == [-1, a, a, c]


def test_self_time_sums_over_spans_of_one_name():
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 6]))
    root = tracer.open(tracer.intern("root"))
    for _ in range(2):
        sid = tracer.open(tracer.intern("leaf"))
        tracer.close(sid)
    tracer.close(root)
    assert tracer.self_times() == {"root": 4.0, "leaf": 2.0}


def test_recursive_calls_are_counted_once():
    tracer = Tracer(clock=fake_clock([0, 5]))

    def depth(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap("m.depth", depth)
    assert traced(3) == 3
    assert tracer.calls == [1]
    assert tracer.self_times() == {"m.depth": 5.0}


def test_generator_time_is_counted_inside_next_only():
    tracer = Tracer(clock=fake_clock(range(10)))
    traced = tracer.wrap_generator("m.gen", lambda: iter("xyz"))
    root = tracer.open(tracer.intern("root"))
    assert list(traced()) == ["x", "y", "z"]
    tracer.close(root)
    # Four next() calls, the last one raising StopIteration, one tick each.
    assert tracer.self_times() == {"root": 5.0, "m.gen": 4.0}
    assert tracer.hits[tracer.intern("m.gen")] == 3


def test_install_wraps_every_binding_and_uninstall_restores_them():
    original = folkit.semantics.eval_formula
    tracer = Tracer()
    tracer.install(folkit)
    try:
        assert folkit.eval_formula is folkit.semantics.eval_formula is not original
        sig = workloads.REL.sig
        formula = Forall(Atom("R", (Var(1), Var(1))))
        found = folkit.find_countermodel(folkit.EMPTY_THEORY, formula, sig, 1)
    finally:
        tracer.uninstall()
    assert folkit.eval_formula is folkit.semantics.eval_formula is original
    assert found is not None
    calls = dict(zip(tracer.names, tracer.calls))
    hits = dict(zip(tracer.names, tracer.hits))
    assert calls["semantics.find_countermodel"] == 1
    assert hits["semantics.enumerate_structures"] == 1
    assert calls["semantics.eval_formula"] == 1


# ---------------------------------------------------------------------------
# Generators: deterministic per seed, different across seeds

def op_inputs(workload):
    return [op.args for op in workload.ops]


@pytest.mark.parametrize("build", [workloads.build_sweep, workloads.build_countermodel,
                                   workloads.build_proof])
def test_in_memory_workloads_depend_only_on_the_seed(build):
    first, again, other = build(7), build(7), build(8)
    assert op_inputs(first) == op_inputs(again)
    assert op_inputs(first) != op_inputs(other)


def test_cli_workload_depends_only_on_the_seed(tmp_path):
    def files(seed):
        workdir = tmp_path / str(seed)
        built = workloads.build_cli(seed, str(workdir), "src")
        return op_inputs(built), {p.name: p.read_text() for p in workdir.iterdir()}

    first = files(7)
    assert files(7) == first
    assert files(8)[1] != first[1]


def test_sweep_ranks_follow_the_fixed_histogram():
    instances = workloads.sweep_instances(random.Random(3))
    ranks = [folkit.min_rank(f) for f in instances]
    expected = [0, 0, 0]
    for quota in workloads.SWEEP_RANKS.values():
        for rank, count in enumerate(quota):
            expected[rank] += count
    assert [ranks.count(r) for r in range(3)] == expected
    assert all(folkit.is_axiom(f, workloads.SWEEP_SIG) for f in instances)


def test_interleave_keeps_each_prefix_in_proportion():
    merged = gen.interleave(["a"] * 30, ["b"] * 10)
    for end in range(4, 41, 4):
        assert merged[:end].count("b") == end // 4


# ---------------------------------------------------------------------------
# Oracles

def test_sugared_text_parses_back_to_the_same_formula():
    rng = random.Random(5)
    v = workloads.PROOF
    for _ in range(200):
        f = gen.big_formula(rng, v, rng.randint(1, 8), 3)
        assert parse_formula(reference.show_sugared(f), v.sig) == f
        assert reference.show(f) == folkit.print_formula(f)


def test_reference_evaluator_agrees_on_every_small_structure():
    rng = random.Random(6)
    v = workloads.REL
    formulas = [gen.formula(rng, v, 3, 2) for _ in range(20)]
    for index in range(gen.structure_count(v.sig, 2)):
        structure = gen.structure_at(v.sig, 2, index)
        model = reference.model_of(structure)
        for f, env in itertools.product(formulas, itertools.product("01", repeat=2)):
            assert reference.holds(f, model, env) == folkit.eval_formula(f, structure, env)


def test_model_text_reads_back():
    rng = random.Random(9)
    v = workloads.PROOF
    structure = gen.structure_at(v.sig, 2, rng.randrange(gen.structure_count(v.sig, 2)))
    model, env = reference.read_model(workloads.model_text(structure, ("1", "0")))
    assert env == ("1", "0")
    assert model[:2] == reference.model_of(structure)[:2]
    assert {n: s for n, s in model[2].items()} == {
        n: s for n, s in reference.model_of(structure)[2].items() if n not in ("false", "eq") and s}


@pytest.mark.parametrize("build", [workloads.build_sweep, workloads.build_countermodel,
                                   workloads.build_proof])
def test_first_ops_of_each_workload_pass_their_oracle(build):
    built = build(1)
    out = bench.drive(built.ops, 0.0, max_ops=12)
    assert out.failed == 0 and out.work > 0


def test_cli_commands_pass_their_oracle_in_process(tmp_path):
    built = workloads.build_cli(1, str(tmp_path), "src")
    out = bench.drive(built.in_process, 0.0, max_ops=len(built.in_process))
    assert out.failed == 0 and out.work == len(built.in_process)


def test_oracles_reject_a_wrong_verdict():
    built = workloads.build_proof(2)
    op = built.ops[0]
    verdict = op.run()
    assert op.check(verdict)[0]
    assert not op.check(folkit.Verdict(not verdict.ok, 1))[0]


# ---------------------------------------------------------------------------
# BENCHMARK.json names exactly the metrics the runs print

def test_declared_metrics_match_the_printed_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == bench.END_TO_END
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == bench.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
