"""Acceptance criteria, one test per criterion.

Every check is exact integer or polynomial arithmetic with zero tolerance.
Each test prints a PASS line when it completes; run with ``pytest -s`` to
see the lines, or rely on the per-test PASSED/FAILED report.
"""

import time

from gordian.cli import main
from gordian.laurent import LaurentPoly, divmod_rational
from gordian.obstruct import (
    build_report,
    murakami_obstruction,
    parity_criterion,
    quadform_represents,
    signature_bound,
)
from gordian.seifert import KnotInvariants, SeifertMatrix
from gordian.tables import load_entries
from gordian.verify import (
    quadform_oracle_values,
    run_suite,
)

P = LaurentPoly.parse

DELTA_3_1 = P("t-1+t^-1")
DELTA_9_25 = P("-3t^2+12t-17+12t^-1-3t^-2")


def _report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_end_to_end_obstruct(capsys):
    start = time.perf_counter()
    report = build_report(DELTA_3_1, DELTA_9_25, ua1=1, ua2=1)
    code = main(
        [
            "obstruct",
            "--delta1",
            "t-1+t^-1",
            "--delta2",
            "-3t^2+12t-17+12t^-1-3t^-2",
            "--ua1",
            "1",
            "--ua2",
            "1",
        ]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert report.rho_lower == 2 and report.rho_upper == 2
    assert report.dga_lower == 2 and report.dga_upper == 2
    assert report.dg_lower >= 2
    parity = next(c for c in report.criteria if c.name == "parity")
    assert parity.verdict == "Obstructs"
    assert "remainder = -2 = 2 + 4*(-1)" in parity.certificate
    res = parity_criterion(divmod_rational(DELTA_9_25, DELTA_3_1)[1])
    assert res.obstructs and res.m == -1 and res.remainder == LaurentPoly.const(-2)
    for line in (
        "rho_lower: 2",
        "rho_upper: 2",
        "dga_lower: 2",
        "dga_upper: 2",
        "dg_lower: 2",
    ):
        assert line in out
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "end-to-end obstruct on the bundled pair")


def test_criterion_2_invariant_values():
    trefoil = SeifertMatrix([[-1, 1], [0, -1]])
    inv = KnotInvariants.from_matrix(trefoil)
    assert inv.alexander == DELTA_3_1
    assert inv.signature == -2
    assert inv.determinant == 3
    assert abs(DELTA_9_25.evaluate(-1)) == 47
    entry = load_entries()["9_25"]
    assert entry.invariants.signature == -2
    assert entry.invariants.determinant == 47
    assert entry.matrix is None
    _report(2, "bundled invariant values")


def test_criterion_3_negative_controls():
    res = murakami_obstruction(3, 47)
    assert not res.obstructs
    assert res.witness is not None and res.witness % 3 != 0
    assert signature_bound(-2, -2) == 0
    _report(3, "classical criteria fail on the bundled pair")


def test_criterion_4_border_determinant_suite():
    start = time.perf_counter()
    result = run_suite("eq5", seed=42, iters=200)
    elapsed = time.perf_counter() - start
    assert result.iterations == 200
    assert result.failures == 0, result.counterexample
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    _report(4, "bordered determinant identity, 200 seeded cases")


def test_criterion_5_border_pairing_suite():
    result = run_suite("main-theorem", seed=1, iters=200)
    assert result.iterations == 200
    assert result.failures == 0, result.counterexample
    _report(5, "border self-pairing identity, 200 seeded cases")


def test_criterion_6_quadform_oracle_equivalence():
    result = run_suite("quadform-oracle", seed=7)
    assert result.failures == 0, result.counterexample
    # h = 1: the first represented values match the oracle enumeration
    table = sorted(v for v in quadform_oracle_values(1) if v > 0)
    assert table[:7] == [1, 3, 4, 7, 9, 12, 13]
    for d in range(1, 51):
        expected = "witness" if d in table else "refuted"
        assert quadform_represents(1, d).outcome == expected
        assert quadform_represents(1, -d).outcome == expected
    for d in range(-50, 51):
        if d != 0 and d % 4 == 2:
            assert quadform_represents(1, d).outcome == "refuted"
    _report(6, "quadratic form decision agrees with brute force")


def test_criterion_7_s_equivalence_suite():
    result = run_suite("sequiv", seed=42, iters=500)
    assert result.iterations == 500
    assert result.failures == 0, result.counterexample
    _report(7, "invariance under moves, 500 seeded cases")


def test_criterion_8_sesquilinearity_suite():
    result = run_suite("sesquilinear", seed=42, iters=200)
    assert result.iterations == 200
    assert result.failures == 0, result.counterexample
    _report(8, "sesquilinearity, 200 seeded cases")
