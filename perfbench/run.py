"""gordian benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 50 --trace 0

Operations are gordian command lines, run in this process through
``gordian.cli.main`` with standard output captured, so argument parsing,
computation and formatting are all timed.  One client, one thread, closed
loop: each operation starts when the previous one returns.  The loop runs
whole rounds (see ``workloads.py``) until the next round would end after
``--seconds``, and never stops before MIN_OPS operations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds once untraced and once traced, then a per-size probe, and
prints the per-layer metrics; its call counts repeat exactly for a seed.
Operations are timed in CPU time of this thread; end-to-end times are
also scaled to the machine's speed as sampled while they run (``pace.py``).
Every output is checked with the benchmark's own arithmetic (``oracle.py``).
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, thread_time

import inputs
import pace
import workloads
from tracing import CC_SEARCH, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# so that ten operations lie beyond the 90th percentile; a verify command
# counts once per suite case, and one round holds thousands
MIN_OPS = {"battery": 100, "verify": 1}
LOOP_LIMIT_S = 120  # a run must end within 180 s whatever the code's speed
SETUP_REPEATS = 21
WARM_UP_S = 2
TRACE_ROUNDS = {"battery": 8, "verify": 1}
ALEXANDER_PROBE = {2: 21, 8: 9, 16: 5, 24: 3}  # size -> calls, median reported
GRAM_PROBE = {4: 9, 6: 7, 8: 3, 10: 3}

# name -> (unit, better); trace 0 prints these
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_ops_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_ratio": ("ratio", "higher"),
    "decided_share": ("ratio", "higher"),
}

# the kernel runs right after the import, so that it samples the same moment
_SETUP_CHILD = (
    "import statistics, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.thread_time()\n"
    "import gordian.cli, gordian.tables\n"
    "gordian.tables.load_entries()\n"
    "seconds = time.thread_time() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import pace\n"
    "kernel = pace.trimmed_mean([pace.timed_kernel()[1] for _ in range(20)])\n"
    "print(seconds * pace.REF_S / kernel)\n"
)


def per_layer_units():
    """name -> unit for every per-layer metric, in print order."""
    units = {}
    for fn in ("mul", "evaluate", "divmod_rational", "is_multiple", "parse"):
        units[f"laurent.{fn}.calls"] = "count"
        units[f"laurent.{fn}.self_s"] = "s"
    units["laurent.is_multiple.true_ratio"] = "ratio"
    for fn in ("det_int", "det_laurent", "signature", "validate"):
        units[f"seifert.{fn}.calls"] = "count"
        units[f"seifert.{fn}.self_s"] = "s"
    for size in ALEXANDER_PROBE:
        units[f"seifert.alexander.p50_ms.size{size}"] = "ms"
    units["seifert.alexander.calls_per_matrix"] = "ratio"
    for fn in ("adjugate_laurent", "pairing", "fractions_equal"):
        units[f"blanchfield.{fn}.calls"] = "count"
        units[f"blanchfield.{fn}.self_s"] = "s"
    for size in GRAM_PROBE:
        units[f"blanchfield.gram_matrix.p50_ms.size{size}"] = "ms"
    cc = "obstruct.cc_bar_witness_search"
    units.update({f"{cc}.calls": "count", f"{cc}.self_s": "s", f"{cc}.candidates": "count",
                  f"{cc}.witness_ratio": "ratio"})
    qf = "obstruct.quadform_represents"
    units.update({f"{qf}.calls": "count", f"{qf}.self_s": "s", f"{qf}.inconclusive": "count"})
    for fn in ("murakami_obstruction", "parity_criterion", "constant_residue", "build_report", "format"):
        units[f"obstruct.{fn}.self_s"] = "s"
    units["cli.main.self_s"] = "s"
    units["tables.load_entries.self_s"] = "s"
    for suite in workloads.VERIFY_SUITES:
        units[f"verify.{suite}.cases_per_s"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- machine context -----------------------------------------------------------------------


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def machine_context():
    cpuinfo = _read("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")]
    return {
        "python": platform.python_version(),
        "nproc": sum(line.startswith("processor") for line in cpuinfo.splitlines()),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else "unknown",
        "loadavg_start": _read("/proc/loadavg").split()[:3],
    }


# -- running operations -----------------------------------------------------------------------


class Record:
    """One executed operation.  Only the first execution of an operation keeps
    its output, so memory does not grow with the number of repeats."""

    __slots__ = ("key", "op", "start", "end", "seconds", "rc", "output", "same", "cases")

    def __init__(self, key, op, start, end, seconds, rc, output):
        self.key, self.op, self.start, self.end, self.seconds, self.rc = key, op, start, end, seconds, rc
        # start and end by the wall clock, seconds of CPU time
        self.output = output  # (stdout, stderr) on a first execution, else None
        self.same = True  # a repeat printed what the first execution printed
        self.cases = 1  # suite cases for a verify command, set by evaluate


def execute(cli, op):
    """Run one command line; returns (wall-clock start, end, CPU seconds, exit
    code, (stdout, stderr))."""
    out, err = io.StringIO(), io.StringIO()
    start, cpu = perf_counter(), thread_time()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            rc = f"{type(exc).__name__}: {exc}"
    cpu = thread_time() - cpu
    return start, perf_counter(), cpu, rc, (out.getvalue(), err.getvalue())


def run_rounds(cli, rounds, first, seconds=None, min_ops=1, count=None, tracer=None, sampler=None):
    """Run whole rounds: ``count`` of them, or as many as fit in ``seconds``.

    ``first`` maps (round, index) to the first execution of each operation.
    With a started ``sampler``, each record's seconds leave out the kernel
    runs that interrupted it; ``scale`` then puts them on the kernel's scale.
    """
    records = []
    done = ops = 0
    start = perf_counter()
    while True:
        r = done % len(rounds)
        for i, op in enumerate(rounds[r]):
            if tracer is not None:
                tracer.op = (r, i)
            spent = sampler.spent if sampler else 0.0
            op_start, op_end, seconds_taken, rc, output = execute(cli, op)
            if sampler:
                seconds_taken -= sampler.spent - spent
            origin = first.get((r, i))
            rec = Record((r, i), op, op_start, op_end, seconds_taken, rc, output if origin is None else None)
            if origin is None:
                first[rec.key] = rec
            else:
                rec.same = (origin.rc, origin.output) == (rc, output)
            records.append(rec)
        done += 1
        ops += len(rounds[r])
        elapsed = perf_counter() - start
        if elapsed > LOOP_LIMIT_S:
            break
        if count is not None:
            if done >= count:
                break
        elif ops >= min_ops and elapsed + 0.5 * elapsed / done > seconds:
            break
    return records, perf_counter() - start


def scale(records, sampler):
    """Times on the kernel's scale; call after ``sampler.stop``."""
    for rec in records:
        rec.seconds *= sampler.scale(rec.start, rec.end)


def warm_up(cli, ops):
    """Untimed operations for WARM_UP_S: one-time costs are not timed, and on
    the machine this was written on the first second of a run was up to 40%
    slower than the rest."""
    start = perf_counter()
    while True:
        for op in ops:
            execute(cli, op)
            if perf_counter() - start >= WARM_UP_S:
                return


def evaluate(records, first):
    """Check the first execution of every operation; repeats must print the same."""
    outcomes, problems = {}, []
    for key, rec in first.items():
        stdout, stderr = rec.output
        outcome = rec.op.check(stdout)
        if rec.rc != 0:
            outcome.problems.append(f"exit {rec.rc}: {stderr.strip()[:200]}")
        outcomes[key] = outcome
        problems += [f"{' '.join(rec.op.argv)}: {p}" for p in outcome.problems]
    tally = {"attempted": 0, "failed": 0, "applicable": 0, "inconclusive": 0}
    for rec in records:
        outcome = outcomes[rec.key]
        failed = outcome.cases if outcome.problems else 0
        if not rec.same:
            failed = outcome.cases
            problems.append(f"{' '.join(rec.op.argv)}: output differs between runs")
        tally["attempted"] += outcome.cases
        tally["failed"] += failed
        tally["applicable"] += outcome.applicable
        tally["inconclusive"] += outcome.inconclusive
        rec.cases = max(1, outcome.cases)
    return tally, problems


def measure_setup():
    """Median time to import gordian and self-check the bundled table, each
    in a fresh interpreter and scaled by the kernel's time there."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(records, tally, setup_s, peak_rss_mb):
    """The metrics, and the operation kind found at the median and the 90th
    percentile.  Throughput is over the operations' own (scaled) time, not
    the loop's wall time."""
    # one sample per case: a verify command gives each case its mean case time
    samples = sorted((rec.seconds / rec.cases, rec.op.kind) for rec in records for _ in range(rec.cases))
    latencies = [seconds for seconds, _ in samples]
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_s": len(samples) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "success_ratio": 1 - tally["failed"] / tally["attempted"],
        "decided_share": 1 - tally["inconclusive"] / tally["applicable"] if tally["applicable"] else 1.0,
    }
    kinds = {q: samples[round(q * (len(samples) - 1))][1] for q in (0.5, 0.9)}
    return metrics, kinds


def kind_summary(records):
    """Median latency per operation kind, for the human-readable report."""
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec.op.kind, []).append(rec.seconds * 1e3)
    return {k: (len(v), statistics.median(v)) for k, v in sorted(by_kind.items())}


# -- traced run ---------------------------------------------------------------------------------


def probe(seed):
    """Median latency of alexander and gram_matrix by matrix size."""
    from gordian import blanchfield, seifert

    rng = random.Random(f"probe:{seed}")
    out = {}
    for name, fn, sizes in (
        ("seifert.alexander", seifert.alexander, ALEXANDER_PROBE),
        ("blanchfield.gram_matrix", blanchfield.gram_matrix, GRAM_PROBE),
    ):
        for size, reps in sizes.items():
            times = []
            for _ in range(reps):
                V = seifert.SeifertMatrix(inputs.random_seifert(rng, size))
                t0 = perf_counter()
                fn(V)
                times.append(perf_counter() - t0)
            out[f"{name}.p50_ms.size{size}"] = statistics.median(times) * 1e3
    return out


def per_layer(tracer, setup_tracer, plain_records, wall_plain, wall_traced, probes):
    m = {}
    for name in per_layer_units():
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = tracer.calls(layer)
        elif stat == "self_s":
            source = setup_tracer if layer == "tables.load_entries" else tracer
            m[name] = source.self_s(layer)
    c = tracer.counters
    m["laurent.is_multiple.true_ratio"] = c["cc.true"] / c["cc.candidates"] if c["cc.candidates"] else 0.0
    searches = tracer.calls(CC_SEARCH)
    m[f"{CC_SEARCH}.candidates"] = c["cc.candidates"]
    m[f"{CC_SEARCH}.witness_ratio"] = c["cc.witness"] / searches if searches else 0.0
    m["obstruct.quadform_represents.inconclusive"] = c["quad.inconclusive"]
    sides = c["report.matrix_sides"]
    m["seifert.alexander.calls_per_matrix"] = c["report.alexander"] / sides if sides else 0.0
    for suite in workloads.VERIFY_SUITES:
        recs = [r for r in plain_records if r.op.kind == suite]
        busy = sum(r.seconds for r in recs)
        m[f"verify.{suite}.cases_per_s"] = sum(r.cases for r in recs) / busy if busy else 0.0
    m["trace.overhead_ratio"] = wall_traced / wall_plain
    m.update(probes)
    return {name: m[name] for name in per_layer_units()}


# -- main ----------------------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cli():
    """Import gordian from this checkout's source tree, and nowhere else."""
    if not (SRC / "gordian" / "__init__.py").is_file():
        raise SystemExit(f"error: no gordian source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import gordian.cli

    if Path(gordian.cli.__file__).resolve().parent != SRC / "gordian":
        raise SystemExit(f"error: imported gordian from {gordian.cli.__file__}, not {SRC}")
    return gordian.cli


def timed_run(cli, args, rounds, first):
    """End-to-end metrics from the untraced closed loop."""
    setup_s = measure_setup()
    sampler = pace.Sampler()
    sampler.start()
    try:
        records, wall = run_rounds(cli, rounds, first, seconds=args.seconds, min_ops=MIN_OPS[args.workload],
                                   sampler=sampler)
    finally:
        sampler.stop()
    raw = sum(rec.seconds for rec in records)
    scale(records, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally, problems = evaluate(records, first)
    metrics, kinds = end_to_end(records, tally, setup_s, peak_rss_mb)
    print(f"operations: {len(records)} in {wall:.3f} s, {len(records) // len(rounds[0])} rounds")
    print(f"kernel: {len(sampler.durations)} samples, median {statistics.median(sampler.durations) * 1e3:.4f} ms; "
          f"operation time {raw:.3f} s, {sum(rec.seconds for rec in records):.3f} s scaled")
    for kind, (n, med) in kind_summary(records).items():
        print(f"kind {kind}: {n} operations, median {med:.3f} ms")
    print(f"kind at the median: {kinds[0.5]}; at the 90th percentile: {kinds[0.9]}")
    return tally, problems, metrics, {k: unit for k, (unit, _) in END_TO_END.items()}


def traced_run(cli, args, rounds, first, tmpdir, context):
    """Per-layer metrics: fixed rounds untraced, the same rounds traced, the probe."""
    import gordian.tables

    setup_tracer = Tracer()
    setup_tracer.install()
    gordian.tables.load_entries()
    setup_tracer.uninstall()
    fixed = rounds[: TRACE_ROUNDS[args.workload]] + [workloads.probe_round(tmpdir)]
    plain, wall_plain = run_rounds(cli, fixed, first, count=len(fixed))
    tracer = Tracer()
    tracer.install()
    try:
        traced, wall_traced = run_rounds(cli, fixed, first, count=len(fixed), tracer=tracer)
    finally:
        tracer.uninstall()
    tally, problems = evaluate(plain + traced, first)
    metrics = per_layer(tracer, setup_tracer, plain, wall_plain, wall_traced, probe(args.seed))
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl",
                 {"workload": args.workload, "seed": args.seed, "context": context})
    return tally, problems, metrics, per_layer_units()


def main(argv=None):
    args = parse_args(argv)
    cli = import_cli()
    context = machine_context()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        rounds = workloads.build(args.workload, args.seed, tmpdir)
        warm_up(cli, rounds[0])
        if args.trace:
            tally, problems, metrics, units = traced_run(cli, args, rounds, {}, tmpdir, context)
        else:
            tally, problems, metrics, units = timed_run(cli, args, rounds, {})
    context["loadavg_end"] = _read("/proc/loadavg").split()[:3]
    print("context: " + json.dumps(context))
    for p in problems[:20]:
        print(f"problem: {p}")
    print(f"failed_ratio: {tally['failed'] / tally['attempted']:.6f} "
          f"({tally['failed']} of {tally['attempted']})")
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
