"""The result records: immutable named tuples that keep the field order,
defaults, repr text and checks they had as frozen dataclasses, and that
importing gordian loads none of the heavy modules dataclasses pulls in."""

import subprocess
import sys
from pathlib import Path

import pytest

from gordian.blanchfield import TorsionFraction
from gordian.laurent import LaurentPoly
from gordian.obstruct import (
    CcBarWitness,
    CriterionResult,
    MurakamiVerdict,
    ObstructionReport,
    ParityVerdict,
    QuadFormVerdict,
    SearchBounds,
    _Side,
)
from gordian.seifert import KnotInvariants, SeifertMatrix
from gordian.tables import BundledEntry
from gordian.verify import SuiteResult

SRC = Path(__file__).resolve().parent.parent / "src"
TREFOIL = LaurentPoly.parse("t-1+t^-1")
TREFOIL_MATRIX = SeifertMatrix([[-1, 1], [0, -1]])

# (sample, fields, defaults, repr); the reprs are those the dataclasses printed
RECORDS = [
    (
        QuadFormVerdict("witness", 1, -2, 1),
        ("outcome", "x", "y", "sign", "searched_bound"),
        {"x": None, "y": None, "sign": None, "searched_bound": None},
        "QuadFormVerdict(outcome='witness', x=1, y=-2, sign=1, searched_bound=None)",
    ),
    (
        ParityVerdict(True, 0, LaurentPoly({0: 2})),
        ("obstructs", "m", "remainder"),
        {},
        "ParityVerdict(obstructs=True, m=0, remainder=LaurentPoly('2'))",
    ),
    (
        CcBarWitness(LaurentPoly({0: 1, 1: -1}), -1),
        ("c", "sign"),
        {},
        "CcBarWitness(c=LaurentPoly('-t+1'), sign=-1)",
    ),
    (
        MurakamiVerdict(False, 3),
        ("obstructs", "witness", "undecided"),
        {"undecided": None},
        "MurakamiVerdict(obstructs=False, witness=3, undecided=None)",
    ),
    (
        SearchBounds(),
        ("cc_max_breadth", "cc_max_coeff", "quadform_bound"),
        {"cc_max_breadth": 4, "cc_max_coeff": 8, "quadform_bound": 10_000},
        "SearchBounds(cc_max_breadth=4, cc_max_coeff=8, quadform_bound=10000)",
    ),
    (
        CriterionResult("murakami", True, "Obstructs", "none", dg_lower=2),
        ("name", "applicable", "verdict", "certificate", "rho_lower", "dga_lower", "dg_lower"),
        {"rho_lower": 0, "dga_lower": 0, "dg_lower": 0},
        "CriterionResult(name='murakami', applicable=True, verdict='Obstructs', "
        "certificate='none', rho_lower=0, dga_lower=0, dg_lower=2)",
    ),
    (
        ObstructionReport("a", "b", (), 1, 2, 1, None, 1),
        (
            "label1",
            "label2",
            "criteria",
            "rho_lower",
            "rho_upper",
            "dga_lower",
            "dga_upper",
            "dg_lower",
        ),
        {},
        "ObstructionReport(label1='a', label2='b', criteria=(), rho_lower=1, rho_upper=2, "
        "dga_lower=1, dga_upper=None, dg_lower=1)",
    ),
    (
        _Side("3_1", TREFOIL, TREFOIL_MATRIX, -2, 3, 1, "cert", None),
        ("label", "delta", "matrix", "sigma", "det", "h", "ua_one_certificate", "residue"),
        {},
        "_Side(label='3_1', delta=LaurentPoly('t-1+t^-1'), "
        "matrix=SeifertMatrix([[-1, 1], [0, -1]]), sigma=-2, det=3, h=1, "
        "ua_one_certificate='cert', residue=None)",
    ),
    (
        KnotInvariants(TREFOIL, -2, 3),
        ("alexander", "signature", "determinant"),
        {},
        "KnotInvariants(alexander=LaurentPoly('t-1+t^-1'), signature=-2, determinant=3)",
    ),
    (
        TorsionFraction(LaurentPoly({0: 1}), TREFOIL),
        ("num", "den"),
        {},
        "TorsionFraction(num=LaurentPoly('1'), den=LaurentPoly('t-1+t^-1'))",
    ),
    (
        BundledEntry("3_1", TREFOIL_MATRIX, KnotInvariants(TREFOIL, -2, 3)),
        ("label", "matrix", "invariants", "note"),
        {"note": ""},
        "BundledEntry(label='3_1', matrix=SeifertMatrix([[-1, 1], [0, -1]]), "
        "invariants=KnotInvariants(alexander=LaurentPoly('t-1+t^-1'), signature=-2, "
        "determinant=3), note='')",
    ),
    (
        SuiteResult("eq5", 0, 10, 0),
        ("name", "seed", "iterations", "failures", "counterexample"),
        {"counterexample": None},
        "SuiteResult(name='eq5', seed=0, iterations=10, failures=0, counterexample=None)",
    ),
]


@pytest.mark.parametrize(
    "sample, fields, defaults, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
class TestRecordContract:
    def test_fields_and_defaults(self, sample, fields, defaults, text):
        assert type(sample)._fields == fields
        assert type(sample)._field_defaults == defaults

    def test_repr(self, sample, fields, defaults, text):
        assert repr(sample) == text

    def test_immutable(self, sample, fields, defaults, text):
        with pytest.raises(AttributeError):
            setattr(sample, fields[0], getattr(sample, fields[0]))
        with pytest.raises(AttributeError):
            sample.extra = 1


# the checks of TorsionFraction and KnotInvariants are tested in test_blanchfield.py
# (TestTorsionFraction) and test_seifert.py (TestKnotInvariants)
class TestRecordChecks:
    def test_quadform_outcome(self):
        with pytest.raises(AssertionError):
            QuadFormVerdict("maybe")

    @pytest.mark.parametrize(
        "bounds",
        [
            (2, 1, 2, None, 2),  # rho_lower above rho_upper
            (1, 2, 0, None, 1),  # dga_lower below rho_lower
            (1, 2, 2, None, 1),  # dg_lower below dga_lower
            (1, 2, 2, 1, 2),  # dga_upper below dga_lower
        ],
    )
    def test_report_bound_chain(self, bounds):
        rho_lower, rho_upper, dga_lower, dga_upper, dg_lower = bounds
        with pytest.raises(AssertionError):
            ObstructionReport("a", "b", (), rho_lower, rho_upper, dga_lower, dga_upper, dg_lower)

    def test_replace_runs_the_checks(self):
        # _replace builds through _make, which must call the constructor
        report = ObstructionReport("a", "b", (), 1, 2, 1, None, 1)
        with pytest.raises(AssertionError):
            report._replace(rho_lower=5)
        with pytest.raises(AssertionError):
            report._replace(dga_upper=0)
        with pytest.raises(AssertionError):
            QuadFormVerdict("refuted")._replace(outcome="maybe")
        with pytest.raises(ZeroDivisionError):
            TorsionFraction(LaurentPoly.one(), TREFOIL)._replace(den=LaurentPoly.zero())
        with pytest.raises(ValueError, match="determinant"):
            KnotInvariants(TREFOIL, -2, 3)._replace(determinant=5)
        with pytest.raises(ValueError, match="symmetric"):
            KnotInvariants(TREFOIL, -2, 3)._replace(alexander=LaurentPoly.parse("t^2-t+1"))

    def test_valid_replace(self):
        report = ObstructionReport("a", "b", (), 1, 2, 1, None, 1)
        changed = report._replace(rho_upper=1, dga_upper=2)
        assert changed == ("a", "b", (), 1, 1, 1, 2, 1)
        assert type(changed) is ObstructionReport
        verdict = QuadFormVerdict("witness", 1, -2, 1)._replace(outcome="refuted", x=None)
        assert verdict == QuadFormVerdict("refuted", None, -2, 1)
        assert KnotInvariants(TREFOIL, -2, 3)._replace(signature=0) == (TREFOIL, 0, 3)
        half = TorsionFraction(LaurentPoly.one(), TREFOIL)._replace(num=TREFOIL)
        assert half == TorsionFraction(TREFOIL, TREFOIL)


def test_import_loads_no_heavy_modules():
    # -S keeps site-packages .pth files from loading typing before the import
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import gordian.cli\n"
        "loaded = set(sys.modules) - before\n"
        "print(sorted(loaded & {'dataclasses', 'inspect', 'typing', 'ast'}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
