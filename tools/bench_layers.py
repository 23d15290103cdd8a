"""Time gordian's worst-case layers and write one BENCH_<pr>.json.

Usage (from the repository root; standard library only):

    python3 tools/bench_layers.py --pr 26 \
        --run battery.seed23=out/battery.23.out --run verify.seed1=out/verify.1.out

writes BENCH_26.json at the repository root.  Each case runs RUNS times in
this process, run r of every case before run r + 1 of any, so that every
case's median samples the same stretch of machine time.  The file records
every run's wall time with its minimum, median, maximum and spread (max -
min over the median).  The cases are the division layer's worst cases, at
each N of SIZES: one ``divmod_rational`` of the dense
``1-2N + sum_k (t^k + t^-k)`` by ``t-1+t^-1`` and by ``4t-7+4t^-1``,
BATCH calls of the sparse ``t^2N-1+t^-2N`` by ``t^N-1+t^-N`` (one call
takes microseconds, too short to time alone), and
``build_report(t-1+t^-1, t^N-1+t^-N)``; then the Seifert matrix kernels at
each size of MATRIX_SIZES, on BATCH seeded random matrices: the
constructor ``SeifertMatrix(rows)``, which validates the matrix and finds
its Alexander polynomial, and ``signature(V)``; then each verify suite at
its default count from seed 0, through ``run_suite``.  Each --run NAME=FILE
adds the last line of a ``perfbench/run.py`` output file, its JSON summary,
under NAME, so the file keeps the end-to-end runs a change was judged on
next to the layer times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gordian.laurent import LaurentPoly, divmod_rational  # noqa: E402
from gordian.obstruct import build_report  # noqa: E402
from gordian.seifert import SeifertMatrix, signature  # noqa: E402
from gordian.verify import SUITES, random_seifert_rows, run_suite  # noqa: E402

DIVISORS = ("t-1+t^-1", "4t-7+4t^-1")
SIZES = (101, 301, 1001)
MATRIX_SIZES = (2, 4, 6, 8)
# one run shows no spread
RUNS = 3
# calls in one run of a case whose single call takes microseconds
BATCH = 1000


def dense(n: int) -> LaurentPoly:
    """1 - 2n + sum of t^k + t^-k for k = 1..n: every exponent in [-n, n]."""
    terms = {0: 1 - 2 * n}
    for k in range(1, n + 1):
        terms[k] = terms[-k] = 1
    return LaurentPoly(terms)


def cases(sizes):
    """(name, zero-argument callable) for every timed case."""
    for n in sizes:
        a = dense(n)
        for text in DIVISORS:
            b = LaurentPoly.parse(text)
            yield f"divmod_rational.dense{n}.by[{text}]", lambda a=a, b=b: divmod_rational(a, b)
        # three terms across breadth 4n: a division that visits every
        # exponent, not only the nonzero ones, walks 2n empty ones
        a, b = LaurentPoly({2 * n: 1, 0: -1, -2 * n: 1}), LaurentPoly({n: 1, 0: -1, -n: 1})
        yield (
            f"divmod_rational.[t^{2 * n}-1+t^-{2 * n}].by[t^{n}-1+t^-{n}].x{BATCH}",
            lambda a=a, b=b: [divmod_rational(a, b) for _ in range(BATCH)],
        )
    knot = LaurentPoly.parse(DIVISORS[0])
    for n in sizes:
        wide = LaurentPoly({n: 1, 0: -1, -n: 1})
        yield f"build_report.[{DIVISORS[0]}].[t^{n}-1+t^-{n}]", lambda wide=wide: build_report(knot, wide)
    rng = random.Random(0)
    for n in MATRIX_SIZES:
        rows = [random_seifert_rows(rng, n) for _ in range(BATCH)]
        matrices = [SeifertMatrix(r) for r in rows]
        yield f"SeifertMatrix.size{n}.x{BATCH}", lambda rows=rows: [SeifertMatrix(r) for r in rows]
        yield f"signature.size{n}.x{BATCH}", lambda matrices=matrices: [signature(V) for V in matrices]
    for name, (count, *_) in SUITES.items():
        yield f"run_suite.{name}.x{count}", lambda name=name: run_suite(name, 0)


def timed(named) -> dict:
    """name -> timing of each (name, callable) in named, the cases' runs
    interleaved."""
    seconds = {name: [] for name, _ in named}
    for _ in range(RUNS):
        for name, fn in named:
            start = time.perf_counter()
            fn()
            seconds[name].append(time.perf_counter() - start)
    return {name: _summary(runs) for name, runs in seconds.items()}


def _summary(seconds) -> dict:
    median = statistics.median(seconds)
    return {
        "runs_s": seconds,
        "min_s": min(seconds),
        "median_s": median,
        "max_s": max(seconds),
        "spread": (max(seconds) - min(seconds)) / median if median else 0.0,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def machine_context() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "commit": _git("rev-parse", "HEAD"),
        # tracked files that differ from the commit: the timings are not of it
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def last_json_line(path: Path) -> dict:
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    return json.loads(lines[-1])


def _named_file(text: str):
    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=FILE, got {text!r}")
    return name, Path(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--run", type=_named_file, action="append", default=[], metavar="NAME=FILE",
                        help="a perfbench/run.py output file whose JSON summary to record")
    args = parser.parse_args(argv)
    runs = {name: last_json_line(path) for name, path in args.run}
    layers = timed(list(cases(SIZES)))
    for name, timing in layers.items():
        print(f"{name}: median {timing['median_s']:.4f} s, spread {timing['spread']:.2f}", file=sys.stderr)
    out = ROOT / f"BENCH_{args.pr}.json"
    record = {"pr": args.pr, "machine": machine_context(), "layers": layers, "perfbench_runs": runs}
    out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
