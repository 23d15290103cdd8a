"""Smoke tests of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

cli = run.import_cli()


def _matrix_ops(tmp_path, sizes, seed):
    """invariants and blanchfield on small seeded matrix files."""
    rng = random.Random(seed)
    ops = []
    for size in sizes:
        V = run.inputs.random_seifert(rng, size)
        path = run.inputs.write_matrix(tmp_path / f"m{seed}-{size}.txt", V)
        ops.append(workloads.Op(["invariants", "--matrix", path], "invariants",
                                lambda t, V=V: workloads.check_invariants(t, V)))
        ops.append(workloads.Op(["blanchfield", "--matrix", path], "blanchfield",
                                lambda t, V=V: workloads.check_gram(t, V)))
    return ops


def _run(ops):
    first = {}
    records, _ = run.run_rounds(cli, [ops], first, count=1)
    return records, run.evaluate(records, first)


def test_oracle_on_the_trefoil():
    V = [[-1, 1], [0, -1]]
    assert oracle.alexander(V) == {1: 1, 0: -1, -1: 1}
    assert oracle.signature([[-2, 1], [1, -2]]) == -2
    assert oracle.parse(oracle.to_text({2: -3, 0: 12, -1: 1})) == {2: -3, 0: 12, -1: 1}
    assert oracle.divides({1: 1, 0: -1, -1: 1}, {2: 1, 1: -1, 0: 1})
    assert not oracle.divides({1: 2, 0: -1}, {1: 1})


def test_inputs_depend_only_on_the_seed(tmp_path):
    def argv_and_files(seed, where):
        where.mkdir()
        rounds = workloads.build("battery", seed, str(where))
        return [[Path(a).read_text() if a.startswith(str(where)) else a for a in op.argv] for op in rounds[0]]

    assert argv_and_files(5, tmp_path / "a") == argv_and_files(5, tmp_path / "b")
    assert argv_and_files(5, tmp_path / "a2") != argv_and_files(6, tmp_path / "c")


def test_matrix_commands_pass_their_checks(tmp_path):
    records, (tally, problems) = _run(_matrix_ops(tmp_path, (2, 4), 1))
    assert problems == [] and tally["failed"] == 0 and tally["attempted"] == 4


def test_checks_catch_a_wrong_answer():
    V = [[-1, 1], [0, -1]]
    assert workloads.check_invariants("delta: t-1+t^-1\nsigma: -2\ndeterminant: 3", V).problems == []
    assert workloads.check_invariants("delta: t-1+t^-1\nsigma: 0\ndeterminant: 3", V).problems
    assert workloads.check_invariants("delta: 2t-3+2t^-1\nsigma: -2\ndeterminant: 7", V).problems
    report = "input1: t-1+t^-1\ninput2: t-1+t^-1\nrho_lower: 1\nrho_upper: 2\ndga_lower: 1\ndga_upper: unknown\ndg_lower: 1"
    assert workloads.check_report(report, {1: 1, 0: -1, -1: 1}, {1: 1, 0: -1, -1: 1}).problems


def _first_output(op):
    return run.execute(cli, op)[4][0]


def test_checks_catch_a_smaller_search_window(tmp_path):
    ops = workloads.battery_round(random.Random(4), str(tmp_path), 0)
    exhausted = next(op for op in ops if op.kind == "cc-exhausted")
    indefinite = next(op for op in ops if op.kind == "quad-indefinite")
    for op, window, smaller in (
        (exhausted, "breadth <= 4", "breadth <= 3"),
        (exhausted, "coefficients <= 1", "coefficients <= 0"),
        (indefinite, "|x| <= 10000", "|x| <= 9999"),
    ):
        text = _first_output(op)
        assert window in text and op.check(text).problems == []
        assert op.check(text.replace(window, smaller)).problems


def test_quadratic_form_witness_is_substituted(tmp_path):
    ops = workloads.battery_round(random.Random(5), str(tmp_path), 0)
    op = next(op for op in ops if op.kind == "quad-witness")
    text = _first_output(op)
    x = workloads._QUAD_WITNESS.search(text).group(1)
    assert op.check(text).problems == []
    assert op.check(text.replace(f"witness x = {x},", f"witness x = {int(x) + 1},")).problems


def test_a_failing_suite_fails_all_its_cases():
    outcome = workloads.check_suite("suite: eq5\niterations: 400\nfailures: 1\ncounterexample: V = ...")
    assert outcome.problems and outcome.cases == 400


def test_battery_pairs_pass_their_checks(tmp_path):
    ops = workloads.battery_round(random.Random(3), str(tmp_path), 0)
    fast = [op for op in ops if op.kind != "cc-exhausted"]
    records, (tally, problems) = _run(fast)
    assert problems == [] and tally["failed"] == 0
    assert {op.kind for op in ops} == {
        "cc-exhausted", "parity", "cc-witness", "quad-definite", "quad-witness",
        "quad-indefinite", "large-det", "matrix", "generic",
    }
    assert sum(op.kind == "cc-exhausted" for op in ops) / len(ops) > 0.1


def test_verify_suites_pass_at_a_few_iterations():
    ops = [workloads.Op(op.argv + ["--iters", "3"], op.kind, op.check) for op in workloads.verify_round(7)]
    records, (tally, problems) = _run(ops)
    assert problems == [] and tally["attempted"] > len(ops)


def test_paced_times_leave_out_the_kernel(tmp_path):
    import signal

    ops = _matrix_ops(tmp_path, (2,), 5)
    sampler = pace.Sampler()
    sampler.start()
    try:
        records, wall = run.run_rounds(cli, [ops], {}, count=20, sampler=sampler)
    finally:
        sampler.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.durations) >= 3 and sampler.spent > 0
    assert sum(rec.seconds for rec in records) + sampler.spent <= wall + 0.1
    run.scale(records, sampler)
    assert all(rec.seconds > 0 for rec in records)
    assert pace.trimmed_mean([100, 1, 2, 3, 4, 5, 6, 7, 8, 9, -100]) == 5


def test_tracer_counts_and_restores(tmp_path):
    import gordian.seifert

    original = gordian.seifert.alexander
    ops = _matrix_ops(tmp_path, (2, 4), 2)[::2]  # invariants only
    tracer = Tracer()
    tracer.install()
    try:
        _run(ops)
    finally:
        tracer.uninstall()
    assert gordian.seifert.alexander is original
    assert tracer.calls("cli.main") == 2
    assert tracer.calls("seifert.alexander") == 4  # from_matrix and knot_determinant
    main_total = tracer.stats["cli.main"][1]
    assert 0 < tracer.self_s("cli.main") < main_total
    assert len(tracer.spans) == sum(s[0] for s in tracer.stats.values())


def test_roadmap_sanity_comparison():
    """Prints the probe beside the ROADMAP re-anchor numbers; no gate."""
    from gordian import seifert

    rng = random.Random(0)
    for size, roadmap_ms in ((2, 0.5), (8, 16)):
        V = seifert.SeifertMatrix(run.inputs.random_seifert(rng, size))
        start = run.perf_counter()
        seifert.alexander(V)
        print(f"alexander size {size}: {(run.perf_counter() - start) * 1e3:.2f} ms (ROADMAP: {roadmap_ms} ms)")


def test_refuses_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_metric_names_match_the_contract():
    import json

    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in contract["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()
    }
    assert {m["name"]: m["better"] for m in contract["end_to_end"]} == {
        k: better for k, (_, better) in run.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == run.per_layer_units()
