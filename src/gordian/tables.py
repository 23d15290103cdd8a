"""Bundled example knots with their matrices and invariants.

Entries that ship with a Seifert matrix are re-derived at load time and a
mismatch aborts; polynomial-only entries are validated against the
realisability conditions and their determinant is re-derived from the
polynomial.  The signature of a polynomial-only entry is a table datum and
cannot be re-derived.
"""

from __future__ import annotations

from collections import namedtuple

from .laurent import LaurentPoly
from .seifert import KnotInvariants, SeifertMatrix, _content_lines


class BundledEntry(
    namedtuple(
        "BundledEntry",
        (
            "label",
            "matrix",  # None when no matrix is bundled
            "invariants",
            "note",
        ),
        defaults=("",),
    )
):
    __slots__ = ()


_RAW = (
    ("3_1", [[-1, 1], [0, -1]], "t-1+t^-1", -2, 3, ""),
    ("4_1", [[1, 1], [0, -1]], "-t+3-t^-1", 0, 5, ""),
    (
        "9_25",
        None,
        "-3t^2+12t-17+12t^-1-3t^-2",
        -2,
        47,
        "no Seifert matrix bundled",
    ),
)


def load_entries() -> dict:
    """Build and self-check the bundled table; raises on any mismatch."""
    entries = {}
    for label, matrix_rows, delta_text, sigma, det, note in _RAW:
        stated = KnotInvariants(LaurentPoly.parse(delta_text), sigma, det)
        if matrix_rows is not None:
            matrix = SeifertMatrix(matrix_rows)
            derived = KnotInvariants.from_matrix(matrix)
            if derived != stated:
                raise RuntimeError(f"bundled data self-check failed for {label}")
        else:
            matrix = None
        entries[label] = BundledEntry(label, matrix, stated, note)
    return entries


def parse_table_csv(text: str) -> list:
    """Rows ``label,polynomial,signature,determinant``; blank lines and
    ``#`` comments are skipped.  Each row is validated like a bundled entry."""
    entries = []
    for lineno, line in _content_lines(text):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected label,polynomial,signature,determinant")
        label, poly_text, sigma_text, det_text = parts
        try:
            invariants = KnotInvariants(
                LaurentPoly.parse(poly_text), int(sigma_text), int(det_text)
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        entries.append(BundledEntry(label, None, invariants, "imported"))
    return entries
