"""Pairs one crossing change apart, as an oracle for every certified bound.

For a Seifert matrix V and W = V + eps E_ii (eps = +-1), W - W^T = V - V^T,
so W is a Seifert matrix too.  In disk-band form, one crossing change adds
or removes a full twist of band i, which moves V_ii by +-1 and leaves the
rest of V alone.  So the two knots have Gordian distance at most 1, hence
dga <= 1 and rho <= 1: no criterion may certify a bound above 1 on such a
pair, whichever side comes first and whether the sides are given as
matrices or as their Alexander polynomials.  In the same way, k diagonal
changes V + sum_j eps_j E_(i_j i_j) give a pair at Gordian distance at most
k, the oracle for criteria that can certify more than 1.
"""

import itertools
import random

import pytest

from gordian.obstruct import SearchBounds, build_report
from gordian.seifert import SeifertMatrix, alexander
from gordian.verify import random_seifert_rows

SEEDS = (1, 2, 3)
SIZES = (2, 4, 6)
PAIRS_PER_SIZE = 25  # two signs each: 150 pairs per seed
BOUNDS = SearchBounds(2, 2, 60)
SOUND = ("alexander-distance", "parity", "quadratic-form", "cc-bar-witness", "murakami", "signature")


def crossing_change_pairs(seed, steps=1, per_size=PAIRS_PER_SIZE):
    """Pairs V, V + sum_j eps_j E_(i_j i_j) over steps random diagonal spots
    i_j, one pair for each choice of the signs eps_j."""
    rng = random.Random(seed)
    for size in SIZES:
        for _ in range(per_size):
            rows = random_seifert_rows(rng, size)
            spots = [rng.randrange(size) for _ in range(steps)]
            for signs in itertools.product((1, -1), repeat=steps):
                changed = [list(row) for row in rows]
                for i, eps in zip(spots, signs):
                    changed[i][i] += eps
                yield SeifertMatrix(rows), SeifertMatrix(changed)


def ordered_reports(steps=1, per_size=PAIRS_PER_SIZE):
    """A report for each pair of every seed, in both orders, as matrices and
    as Alexander polynomials."""
    out = []
    for seed in SEEDS:
        for V, W in crossing_change_pairs(seed, steps, per_size):
            for a, b in ((V, W), (W, V)):
                out.append(build_report(a, b, bounds=BOUNDS))
                out.append(build_report(alexander(a), alexander(b), bounds=BOUNDS))
    assert len(out) == 4 * 2**steps * per_size * len(SIZES) * len(SEEDS)
    return out


@pytest.fixture(scope="module")
def reports():
    return ordered_reports()


def _bound(result):
    return max(result.rho_lower, result.dga_lower, result.dg_lower)


def _above(reports, k):
    """Each sound criterion, and each report, that certifies a bound above k."""
    return [
        (r.label1, r.label2, c.name, c.certificate)
        for r in reports
        for c in r.criteria
        if c.name in SOUND and _bound(c) > k
    ] + [(r.label1, r.label2) for r in reports if _bound(r) > k]


def test_sound_criteria_stay_at_most_one(reports):
    assert _above(reports, 1) == []
    # not vacuous: every criterion applies to some pair, and most pairs
    # have distinct polynomials, so a bound of 1 is certified
    assert {c.name for r in reports for c in r.criteria if c.applicable} >= set(SOUND)
    assert sum(r.rho_lower == 1 for r in reports) > len(reports) // 2


def test_two_changes_stay_at_most_two():
    reports = ordered_reports(steps=2, per_size=10)
    assert _above(reports, 2) == []
    # not vacuous: some pair two changes apart is certified at distance 2
    assert any(_bound(r) == 2 for r in reports)
