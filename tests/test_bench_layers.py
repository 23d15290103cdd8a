import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_writes_layers_context_and_runs(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SIZES", (3, 5))
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    run = tmp_path / "battery.out"
    run.write_text('metric x = 1 ms\n{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n')
    assert bench.main(["--pr", "0", "--run", f"battery.seed1={run}"]) == 0
    record = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert record["pr"] == 0
    assert {"python", "cpu_count", "platform"} <= record["machine"].keys()
    assert record["perfbench_runs"] == {"battery.seed1": {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}}
    # three divisions and one report per size, the constructor and the
    # signature read and by the fallback per matrix size, then one run of
    # each suite
    assert len(record["layers"]) == 8 + 3 * len(bench.MATRIX_SIZES) + len(bench.SUITES)
    for timing in record["layers"].values():
        assert len(timing["runs_s"]) == bench.RUNS
        assert timing["min_s"] <= timing["median_s"] <= timing["max_s"]


def test_refuses_a_run_without_a_name(bench):
    with pytest.raises(SystemExit):
        bench.main(["--pr", "1", "--run", "no-equals-sign"])


def test_runs_interleave_the_cases(bench):
    calls = []
    timings = bench.timed([(name, lambda name=name: calls.append(name)) for name in ("a", "b")])
    assert calls == ["a", "b"] * bench.RUNS
    assert [len(timing["runs_s"]) for timing in timings.values()] == [bench.RUNS] * 2
