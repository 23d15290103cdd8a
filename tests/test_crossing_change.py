"""Pairs one crossing change apart, as an oracle for every certified bound.

For a Seifert matrix V and W = V + eps E_ii (eps = +-1), W - W^T = V - V^T,
so W is a Seifert matrix too.  In disk-band form, one crossing change adds
or removes a full twist of band i, which moves V_ii by +-1 and leaves the
rest of V alone.  So the two knots have Gordian distance at most 1, hence
dga <= 1 and rho <= 1: no criterion may certify a bound above 1 on such a
pair, whichever side comes first and whether the sides are given as
matrices or as their Alexander polynomials.
"""

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


def crossing_change_pairs(seed):
    rng = random.Random(seed)
    for size in SIZES:
        for _ in range(PAIRS_PER_SIZE):
            rows = random_seifert_rows(rng, size)
            i = rng.randrange(size)
            for eps in (1, -1):
                changed = [list(row) for row in rows]
                changed[i][i] += eps
                yield SeifertMatrix(rows), SeifertMatrix(changed)


@pytest.fixture(scope="module")
def reports():
    out = []
    for seed in SEEDS:
        for V, W in crossing_change_pairs(seed):
            for a, b in ((V, W), (W, V)):
                out.append(build_report(a, b, bounds=BOUNDS))
                out.append(build_report(alexander(a), alexander(b), bounds=BOUNDS))
    assert len(out) == 4 * 2 * PAIRS_PER_SIZE * len(SIZES) * len(SEEDS)
    return out


def _above_one(criterion):
    return max(criterion.rho_lower, criterion.dga_lower, criterion.dg_lower) > 1


def test_sound_criteria_stay_at_most_one(reports):
    over = [
        (r.label1, r.label2, c.name, c.certificate)
        for r in reports
        for c in r.criteria
        if c.name in SOUND and _above_one(c)
    ]
    assert over == []
    assert [(r.label1, r.label2) for r in reports if r.dg_lower > 1] == []
    # not vacuous: every criterion applies to some pair, and most pairs
    # have distinct polynomials, so a bound of 1 is certified
    assert {c.name for r in reports for c in r.criteria if c.applicable} >= set(SOUND)
    assert sum(r.rho_lower == 1 for r in reports) > len(reports) // 2
