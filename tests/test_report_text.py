"""The text that build_report prints, pinned byte for byte.

A seeded corpus of pairs is run in both argument orders and each report
(or the ValueError it raises) is compared with ``report_text_expected.txt``.
The corpus covers h-forms with |h| prime, composite and h <= -1, symmetric
polynomials of breadth 2, 4 and 6, polynomials with a constant residue
modulo an h-form, 2x2 and 4x4 Seifert matrices, equal pairs, u_a values
1, 2 and None (and 0 where the polynomial is 1), and a small search window.

After a change that is meant to alter the output, rewrite the file with

    PYTHONPATH=src python3 tests/test_report_text.py --write
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from gordian.laurent import LaurentPoly
from gordian.obstruct import SearchBounds, build_report
from gordian.seifert import SeifertMatrix, alexander, h_form

EXPECTED = Path(__file__).with_name("report_text_expected.txt")
SMALL = SearchBounds(cc_max_breadth=2, cc_max_coeff=2, quadform_bound=60)
H_VALUES = (1, 2, 3, 5, 7, 11, 4, 6, 9, -1, -2, -3, -5, -4, -6)
UA_VALUES = (None, 0, 1, 2)


def symmetric(rng: random.Random, breadth: int) -> LaurentPoly:
    """A bar-symmetric polynomial of the given even breadth with value 1 at t = 1."""
    half = breadth // 2
    terms = {}
    for e in range(1, half + 1):
        c = rng.randint(-3, 3)
        if e == half and c == 0:
            c = rng.choice((-2, -1, 1, 2))
        terms[e] = terms[-e] = c
    terms[0] = 1 - 2 * sum(terms[e] for e in range(1, half + 1))
    return LaurentPoly(terms)


def with_residue(rng: random.Random, delta: LaurentPoly) -> LaurentPoly:
    """delta * q + d with q symmetric, so the remainder mod delta is the integer d."""
    q = symmetric(rng, rng.choice((2, 4))) * LaurentPoly.const(rng.randint(-2, 2) or 1)
    if q.evaluate(1) == 1:
        q = q + LaurentPoly.const(1)
    return delta * q + LaurentPoly.const(1 - q.evaluate(1))


def matrix(rng: random.Random, size: int) -> SeifertMatrix:
    """S + E for a random symmetric S and E with a one at (2i, 2i+1), so V - V^T
    is the standard symplectic matrix."""
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = rng.randint(-2, 2)
    for i in range(0, size, 2):
        rows[i][i + 1] += 1
    return SeifertMatrix(rows)


def _side(rng: random.Random, kind: str):
    if kind == "h":
        return h_form(rng.choice(H_VALUES))
    if kind.startswith("sym"):
        return symmetric(rng, int(kind[3:]))
    return matrix(rng, int(kind[3:]))


def corpus(seed: int = 2019, count: int = 60):
    """``count`` pairs (input1, input2, ua1, ua2, label1, label2)."""
    rng = random.Random(seed)
    kinds = ("h", "sym2", "sym4", "sym6", "mat2", "mat4")
    pairs = []
    for k in range(count):
        shape = k % 6
        if shape == 0:
            a = h_form(H_VALUES[(k // 6) % len(H_VALUES)])
            b = with_residue(rng, a)
        elif shape == 1:
            a = _side(rng, rng.choice(kinds))
            b = a
        elif shape == 2:
            a = h_form(1)
            b = _side(rng, rng.choice(("sym2", "sym4", "sym6", "mat2")))
        elif shape == 3:
            # the mirror image: the same polynomial, the opposite signature
            a = matrix(rng, rng.choice((2, 4)))
            b = SeifertMatrix([[-x for x in col] for col in zip(*a.rows)])
        elif shape == 4:
            a, b = matrix(rng, rng.choice((2, 4))), matrix(rng, rng.choice((2, 4)))
        else:
            a, b = _side(rng, rng.choice(kinds)), _side(rng, rng.choice(kinds))
        labels = ("first", "second") if k % 11 == 5 else (None, None)
        ua1, ua2 = rng.choice(UA_VALUES), rng.choice(UA_VALUES)
        pairs.append((a, b, _possible(a, ua1), _possible(b, ua2), *labels))
    return pairs


def _possible(side, ua):
    """ua, or None in place of a value that build_report refuses: u_a = 0
    needs Alexander polynomial 1, and Alexander polynomial 1 needs u_a = 0."""
    delta = alexander(side) if isinstance(side, SeifertMatrix) else side
    return None if (ua == 0) != (delta == 1) else ua


def both_orders(pairs):
    """(index, order, pair) for each pair as given and with its sides swapped."""
    for k, (a, b, ua1, ua2, label1, label2) in enumerate(pairs):
        yield k, "1-2", (a, b, ua1, ua2, label1, label2)
        yield k, "2-1", (b, a, ua2, ua1, label2, label1)


def report_blocks(pairs) -> list:
    """One block of text per pair and argument order: a header line, then the
    formatted report or the ValueError it raised."""
    blocks = []
    for k, order, (x, y, u1, u2, l1, l2) in both_orders(pairs):
        try:
            text = build_report(x, y, ua1=u1, ua2=u2, bounds=SMALL, label1=l1, label2=l2).format()
        except ValueError as exc:
            text = f"ValueError: {exc}"
        blocks.append(f"# pair {k} order {order} ua1={u1} ua2={u2}\n{text}\n")
    return blocks


def test_report_text_is_pinned():
    actual = "\n".join(report_blocks(corpus()))
    expected = EXPECTED.read_text(encoding="utf-8")
    if actual != expected:
        got, want = actual.split("\n# "), expected.split("\n# ")
        assert len(got) == len(want)
        first = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        assert got[first] == want[first]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_report_text.py --write")
    EXPECTED.write_text("\n".join(report_blocks(corpus())), encoding="utf-8")
    print(f"wrote {EXPECTED}")
