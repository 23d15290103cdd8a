"""The workloads: seeded operation rounds and their output checks.

A workload is a list of rounds; a round is a list of operations, each one
gordian command line.  Every round of a workload has the same mix of
operation kinds, and the loop in ``run.py`` only ever runs whole rounds, so
each run sees exactly that mix whatever the seed and however many rounds
fit in the time.  The mixes are chosen so that the median and the 90th
percentile fall inside one block of like operations rather than on the
boundary between two (README.md gives the ranks).

Each operation carries a check that reads the command's output and tests it
with ``oracle`` only.
"""

from __future__ import annotations

import functools
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import inputs
import oracle

WORKLOADS = ("battery", "verify")

# reduced --bound for pairs whose cc-bar window is exhausted (81 candidates,
# about 85 ms); at the default bound one such pair runs for minutes
WORST_BOUND = 1
# k where k^n Delta(k) = det(kV - V^T) and adj(M) M = det(M) I are checked
CHECK_POINTS = (2, -2, 3)
# quickest first, so that the warm-up (run.py) ends before the 8 s sequiv suite
VERIFY_SUITES = ("quadform-oracle", "ring-axioms", "eq5", "sesquilinear", "main-theorem", "sequiv")


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    cases: int = 1  # all of them fail when there is a problem
    applicable: int = 0  # quadratic-form and cc-bar-witness criteria that applied
    inconclusive: int = 0  # ... and of those, the ones left Inconclusive


@dataclass
class Op:
    argv: list
    kind: str
    check: Callable[[str], Outcome]


def _fields(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key, value)
    return out


# -- battery ------------------------------------------------------------------------------

# the program's default search windows (gordian.obstruct.SearchBounds); --bound
# replaces the coefficient window and the indefinite box, not the breadth
CC_BREADTH = 4
CC_COEFF = 8
QUAD_BOX = 10_000

_QUAD_ROUTE = re.compile(r"mod (\S+): h = (-?\d+), d = (-?\d+): ([^\[]*) \[")
_QUAD_WITNESS = re.compile(r"witness x = (-?\d+), y = (-?\d+) gives (-?\d+)")
_QUAD_BOX = re.compile(r"inconclusive up to \|x\| <= (\d+)")
_CC_WITNESS = re.compile(r"mod (\S+): c = (\S+), sign = ([+-]\d+)")
_CC_WINDOW = re.compile(r"no witness with breadth <= (\d+), coefficients <= (\d+)")


def _check_quad_route(bad, first, second, box, route):
    label, h, d, detail = route
    h, d = int(h), int(d)
    modulus = oracle.parse(label)
    if modulus not in (first, second) or modulus != oracle.h_form(h):
        bad(f"quadratic-form route modulo {label} is not the h-form with h = {h}")
        return
    other = second if modulus == first else first
    if not oracle.divides(modulus, oracle.add(other, {0: d}, -1)):
        bad(f"quadratic-form residue d = {d} is not the remainder modulo {label}")
    witness = _QUAD_WITNESS.fullmatch(detail)
    searched = _QUAD_BOX.fullmatch(detail)
    if witness:
        x, y, v = map(int, witness.groups())
        if h * h * x * x + (2 * h - 1) * x * y + y * y != v or abs(v) != abs(d):
            bad(f"quadratic-form witness ({x}, {y}) does not substitute back")
    elif searched:
        # a smaller box would be a faster search that decides less
        if h >= 1 or int(searched.group(1)) < box:
            bad(f"indefinite search box |x| <= {searched.group(1)}, expected {box}")
    elif detail != "no integer solution (exhaustive box)" or h < 1:
        bad(f"unexpected quadratic-form route: {detail}")


def check_report(text, first, second, expect_cc=None, bound=None) -> Outcome:
    """Check an ``obstruct`` report for the inputs first, second (in order),
    run with ``--bound bound`` (None: the default windows).

    expect_cc is "exists" when a cc-bar witness is known to exist, "none"
    when the t = -1 residue test proves that none exists, else None.
    """
    out = Outcome()
    bad = out.problems.append
    f = _fields(text)
    try:
        if oracle.parse(f["input1"]) != first or oracle.parse(f["input2"]) != second:
            bad("report labels do not match the inputs")
        rho, rho_up = int(f["rho_lower"]), int(f["rho_upper"])
        dga, dg = int(f["dga_lower"]), int(f["dg_lower"])
        dga_up = None if f["dga_upper"] == "unknown" else int(f["dga_upper"])
    except (KeyError, ValueError) as exc:
        bad(f"unreadable report: {exc}")
        return out
    if not dg >= dga >= rho:
        bad(f"bound chain broken: dg {dg}, dga {dga}, rho {rho}")
    if not 0 <= rho <= rho_up <= 2 or (dga_up is not None and dga_up < dga):
        bad("upper bounds below lower bounds")
    if (rho == 0) != (first == second):
        bad("rho_lower disagrees with whether the polynomials differ")

    blocks = text.split("criterion: ")[1:]
    for block in blocks:
        name = block.splitlines()[0]
        bf = _fields(block)
        verdict, cert = bf.get("verdict"), bf.get("certificate", "")
        if name == "alexander-distance" and (verdict == "Obstructs") != (first != second):
            bad("alexander-distance verdict wrong")
        if name not in ("quadratic-form", "cc-bar-witness") or bf.get("applicable") != "true":
            continue
        out.applicable += 1
        out.inconclusive += verdict == "Inconclusive"
        if name == "quadratic-form":
            for route in _QUAD_ROUTE.findall(cert):
                _check_quad_route(bad, first, second, bound or QUAD_BOX, route)
            continue
        for label, c_text, sign in _CC_WITNESS.findall(cert):
            modulus = oracle.parse(label)
            other = second if modulus == first else first
            c = oracle.parse(c_text)
            lhs = oracle.add({e: int(sign) * k for e, k in other.items()}, oracle.mul(c, oracle.bar(c)), -1)
            if modulus not in (first, second) or not oracle.divides(modulus, lhs):
                bad(f"cc-bar witness c = {c_text} does not substitute back")
        if verdict == "Inconclusive":
            # a smaller window would be a faster search that decides less
            window = _CC_WINDOW.fullmatch(cert)
            if not window or int(window.group(1)) < CC_BREADTH or int(window.group(2)) < (bound or CC_COEFF):
                bad(f"cc-bar searched a smaller window than expected: {cert}")
        if expect_cc == "exists" and verdict == "Obstructs":
            bad("cc-bar claims no witness where one exists")
        if expect_cc == "none" and verdict == "NoObstruction":
            bad("cc-bar reports a witness where none exists")
    if [b.splitlines()[0] for b in blocks][:1] != ["alexander-distance"]:
        bad("criteria missing from report")
    return out


class _Side:
    def __init__(self, delta, arg_kind="delta", arg=None, ua=False, matrix=None):
        self.delta, self.arg_kind, self.ua, self.matrix = delta, arg_kind, ua, matrix
        self.arg = arg if arg is not None else oracle.to_text(delta)


def _pair(kind, a: _Side, b: _Side, bound=None, expect_cc=None):
    """The pair in both argument orders."""
    ops = []
    for s1, s2 in ((a, b), (b, a)):
        argv = ["obstruct"]
        for i, s in ((1, s1), (2, s2)):
            argv += [f"--{s.arg_kind}{i}", s.arg]
            if s.ua:
                argv += [f"--ua{i}", "1"]
        if bound is not None:
            argv += ["--bound", str(bound)]
        ops.append(
            Op(argv, kind, lambda t, f=s1.delta, s=s2.delta: check_report(t, f, s, expect_cc, bound))
        )
    return ops


def _no_witness_delta(rng, modulus):
    """A breadth-4 Delta' with no c: c bar(c) = +-Delta' mod modulus.

    Substituting t = -1 is a ring map, so a witness would make
    +-Delta'(-1) a square modulo D = |modulus(-1)|.
    """
    D = abs(int(oracle.evaluate(modulus, -1)))
    for _ in range(1000):
        cand = inputs.symmetric_delta(rng, 2, bound=4)
        e = int(oracle.evaluate(cand, -1))
        if not (oracle.is_square_mod(e % D, D) or oracle.is_square_mod(-e % D, D)):
            return cand
    raise RuntimeError(f"no residue-free Delta' found modulo {D}")


def _murakami_obstructs(det1, det2):
    """No d with 4 d^2 = +-(det1 - det2) mod 2 det1."""
    mod, diff = 2 * det1, det1 - det2
    targets = (diff % mod, -diff % mod)
    return all(4 * d * d % mod not in targets for d in range(det1))


def _large_det_pair(rng):
    for _ in range(1000):
        h = rng.choice((1, -1)) * rng.randint(24_750, 25_000)
        small = inputs.symmetric_delta(rng, 2)
        d_small = abs(int(oracle.evaluate(small, -1)))
        if not inputs.has_certificate(small) and _murakami_obstructs(abs(1 - 4 * h), d_small):
            return _Side(oracle.h_form(h)), _Side(small)
    raise RuntimeError("no obstructed large-determinant pair found")


def _no_cert_matrix(rng, size, tmpdir, name):
    """A matrix side whose class has no automatic u_a = 1 certificate."""
    for _ in range(1000):
        V = inputs.random_seifert(rng, size)
        delta = oracle.alexander(V)
        if size == 2 and abs(oracle.det(V)) in inputs.SMALL_H + (0,):
            continue
        if len(delta) > 1 and not inputs.has_certificate(delta):
            return _Side(delta, "matrix", inputs.write_matrix(os.path.join(tmpdir, name), V), matrix=V)
    raise RuntimeError(f"no size-{size} matrix without a certificate found")


# |h| is not prime, so no quadratic-form route; D = |1 - 4h| is 15, 17, 25 or
# 33, each with residues r where neither r nor -r is a square.  Every round
# uses each h once, so seeds differ only in Delta'.
EXHAUSTED_H = (4, -4, -6, -8)


def _exhausted(rng, tmpdir, name, k):
    mod = oracle.h_form(EXHAUSTED_H[k % len(EXHAUSTED_H)])
    return _pair("cc-exhausted", _Side(mod, ua=True), _Side(_no_witness_delta(rng, mod)),
                 bound=WORST_BOUND, expect_cc="none")


def _parity(rng, tmpdir, name, k):
    # remainder 2 mod 4 modulo t-1+t^-1; x^2+xy+y^2 = +-2(2m+1) has no
    # solution, so the quadratic form refutes and no cc-bar search runs
    d = rng.choice((1, -1)) * rng.choice((2, 6, 10))
    return _pair("parity", _Side(oracle.h_form(1)), _Side(inputs.with_residue(rng, oracle.h_form(1), d)))


def _cc_witness(rng, tmpdir, name, k):
    # Delta' = s c bar(c) + Delta q, so the search finds a witness by c = 3 - 2t
    mod = inputs.symmetric_delta(rng, 2)
    c = {0: 3, 1: -2}
    s = rng.choice((1, -1))
    m = rng.choice((-2, -1, 1, 2))
    q = {1: m, -1: m, 0: 1 - s - 2 * m}  # Delta'(1) = s c(1)^2 + q(1) = 1
    other = oracle.add({e: s * k for e, k in oracle.mul(c, oracle.bar(c)).items()}, oracle.mul(mod, q))
    return _pair("cc-witness", _Side(mod, ua=True), _Side(other), expect_cc="exists")


def _quad_definite(rng, tmpdir, name, k):
    h = rng.choice((2, 3, 5))
    d = rng.choice(_unrepresented(h))
    return _pair("quad-definite", _Side(oracle.h_form(h)), _Side(inputs.with_residue(rng, oracle.h_form(h), d)))


def _quad_witness(rng, tmpdir, name, k):
    # the definite form takes the value +-d, so the quadratic form prints a
    # witness (x, y), and cc-bar finds c = 2 or 1 - 2t among its first candidates
    h, d = rng.choice(((2, 2), (2, -2), (2, 4), (3, 4), (3, -4), (5, 4), (5, -4)))
    return _pair("quad-witness", _Side(oracle.h_form(h)), _Side(inputs.with_residue(rng, oracle.h_form(h), d)),
                 expect_cc="exists")


def _quad_indefinite(rng, tmpdir, name, k):
    # h <= -1 at the default bound: the whole |x| <= 10000 box is searched.
    # The definite route on the other side refutes, so no cc-bar search runs.
    p = rng.choice((1, 3, 5, 7))
    return _pair("quad-indefinite", _Side(oracle.h_form(-p), ua=True), _Side(oracle.h_form(p), ua=True))


def _large_det(rng, tmpdir, name, k):
    # murakami is O(det1) when it obstructs; the reverse order is fast
    return _pair("large-det", *_large_det_pair(rng))


def _matrix(rng, tmpdir, name, k):
    return _pair("matrix", _no_cert_matrix(rng, 2, tmpdir, f"{name}-2.txt"),
                 _no_cert_matrix(rng, 4, tmpdir, f"{name}-4.txt"))


def _generic(rng, tmpdir, name, k):
    # decided by alexander-distance and murakami alone
    return _pair("generic", *(_Side(inputs.symmetric_delta(rng, k)) for k in (3, 4)))


# pairs per round, each run in both orders: 40 operations.  The 8 worst-case
# operations are the slowest 20% of a round, so the 90th percentile falls in
# the middle of their block.  By latency the round starts with the fast
# large-det order and 12 generic operations (about 1.8 ms), then 12 parity,
# quad-definite and quad-witness ones (about 2 to 3 ms) at ranks 14 to 25, so
# the median falls in the middle of those.
BATTERY_MIX = (
    (_exhausted, 4), (_parity, 4), (_cc_witness, 1), (_quad_definite, 1), (_quad_witness, 1),
    (_quad_indefinite, 1), (_large_det, 1), (_matrix, 1), (_generic, 6),
)


def battery_round(rng, tmpdir, r):
    ops = []
    for make, count in BATTERY_MIX:
        for k in range(count):
            ops += make(rng, tmpdir, f"b{r}-{k}", r * count + k)
    worst = [op for op in ops if op.kind == "cc-exhausted"]
    rest = [op for op in ops if op.kind != "cc-exhausted"]
    step = len(rest) // len(worst)
    # spread the worst-case operations through the round, so that they sample
    # the machine's speed across the whole round rather than in one burst
    return [op for i, w in enumerate(worst) for op in [w] + rest[i * step:(i + 1) * step]]


@functools.cache
def _unrepresented(h):
    """The d with 0 < |d| <= 30 where h^2 x^2 + (2h-1) xy + y^2 = +-d has no
    solution, by brute force (for h >= 1 the form is definite and every
    solution lies in the box)."""
    values = {
        abs(h * h * x * x + (2 * h - 1) * x * y + y * y)
        for x in range(-31, 32)
        for y in range(-31, 32)
    }
    return [d for d in range(-30, 31) if d and abs(d) not in values]


# -- matrix commands, run by the probe round ---------------------------------------------------


def check_invariants(text, V) -> Outcome:
    out = Outcome()
    f = _fields(text)
    try:
        delta = oracle.parse(f["delta"])
        sigma, det = int(f["sigma"]), int(f["determinant"])
    except (KeyError, ValueError) as exc:
        out.problems.append(f"unreadable output: {exc}")
        return out
    n = len(V) // 2
    if not oracle.is_symmetric(delta) or oracle.evaluate(delta, 1) != 1:
        out.problems.append("Delta is not symmetric with Delta(1) = 1")
    if det != abs(oracle.evaluate(delta, -1)):
        out.problems.append("determinant is not |Delta(-1)|")
    for k in CHECK_POINTS:
        if k**n * oracle.evaluate(delta, k) != oracle.det(oracle.pencil(V, k)):
            out.problems.append(f"k^n Delta(k) != det(kV - V^T) at k = {k}")
    S = [[V[i][j] + V[j][i] for j in range(len(V))] for i in range(len(V))]
    if sigma != oracle.signature(S):
        out.problems.append("signature disagrees with the characteristic polynomial")
    return out


_BETA = re.compile(r"beta\[(\d+)\]\[(\d+)\]: (\S+) / (\S+)")


def check_gram(text, V) -> Outcome:
    """beta[i][j] = (t-1) adj(M)[i][j] / det(M) with M = V - tV^T."""
    out = Outcome()
    n = len(V)
    entries = {(int(i) - 1, int(j) - 1): (oracle.parse(a), oracle.parse(b))
               for i, j, a, b in _BETA.findall(text)}
    if len(entries) != n * n:
        out.problems.append(f"expected {n * n} pairing entries, got {len(entries)}")
        return out
    for k in CHECK_POINTS:
        M = [[V[i][j] - k * V[j][i] for j in range(n)] for i in range(n)]
        d = oracle.det(M)
        if any(oracle.evaluate(den, k) != d for _, den in entries.values()):
            out.problems.append(f"denominator is not det(V - tV^T) at t = {k}")
            break
        adj = [[oracle.evaluate(entries[i, j][0], k) / (k - 1) for j in range(n)] for i in range(n)]
        for i in range(n):
            for l in range(n):
                if sum(adj[i][j] * M[j][l] for j in range(n)) != (d if i == l else 0):
                    out.problems.append(f"adj(M) M != det(M) I at t = {k}")
                    return out
    return out


# -- verify ---------------------------------------------------------------------------------


def check_suite(text) -> Outcome:
    f = _fields(text)
    try:
        cases, failures = int(f["iterations"]), int(f["failures"])
    except (KeyError, ValueError) as exc:
        return Outcome([f"unreadable suite output: {exc}"])
    out = Outcome(cases=cases)
    if failures:
        out.problems.append(f"suite {f.get('suite')} failed: {f.get('counterexample')}")
    return out


def verify_round(seed):
    return [
        Op(["verify", "--suite", name, "--seed", str(seed)], name, check_suite)
        for name in VERIFY_SUITES
    ]


# -- probe round ------------------------------------------------------------------------------


def probe_round(tmpdir):
    """Fixed small commands that between them reach every traced layer.

    The traced run appends this round on every workload, so no layer reads
    0 and its counts add the same constant everywhere.
    """
    rng = random.Random("probe")
    mod = {2: -2, 1: -3, 0: 11, -1: -3, -2: -2}
    c, q = {0: 3, 1: -2}, {1: 1, 0: -2, -1: 1}
    other = oracle.add(oracle.mul(c, oracle.bar(c)), oracle.mul(mod, q))
    ops = _pair("cc-witness", _Side(mod, ua=True), _Side(other), expect_cc="exists")[:1]
    ops += _pair("parity", _Side(oracle.h_form(1)), _Side(oracle.parse("-3t^2+12t-17+12t^-1-3t^-2")))[:1]
    ops += _pair("quad-indefinite", _Side(oracle.h_form(-1), ua=True), _Side(oracle.h_form(1), ua=True))[:1]
    small, large = (_no_cert_matrix(rng, n, tmpdir, f"probe-{n}.txt") for n in (2, 4))
    ops += _pair("matrix", small, large)[:1]
    V = large.matrix
    ops.append(Op(["invariants", "--matrix", large.arg], "size4", lambda t: check_invariants(t, V)))
    ops.append(Op(["blanchfield", "--matrix", large.arg], "size4", lambda t: check_gram(t, V)))
    ops += [Op(op.argv + ["--iters", "2"], op.kind, op.check) for op in verify_round(0)]
    return ops


# -- entry point ------------------------------------------------------------------------------

DISTINCT_ROUNDS = {"battery": 8, "verify": 2}


def build(workload, seed, tmpdir):
    """The distinct rounds of a workload; the run cycles through them."""
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    for r in range(DISTINCT_ROUNDS[workload]):
        if workload == "battery":
            rounds.append(battery_round(rng, tmpdir, r))
        else:
            rounds.append(verify_round(rng.randrange(2**32)))
    return rounds
