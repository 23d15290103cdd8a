"""The obstruction battery and the aggregated distance report.

Every verdict carries a machine-checkable certificate: a witness tuple is
re-substituted before it is reported, and a refutation states the search
box that was provably exhaustive.  The aggregate enforces the chain

    gordian lower bound >= algebraic lower bound >= polynomial lower bound

on every report it emits.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import isqrt

from .laurent import LaurentPoly, is_multiple
from .numtheory import Undecided, factorize, is_prime, jacobi, pell_unit, square_root
from .seifert import (
    SMALL_H,
    SeifertMatrix,
    _Checked,
    alexander,
    check_alexander,
    double_cover_cyclic,
    h_form,
    knot_determinant,
    signature,
)


class SearchBounds(
    _Checked,
    namedtuple(
        "SearchBounds",
        ("cc_max_breadth", "cc_max_coeff", "quadform_bound"),
        defaults=(4, 8, 10_000),
    )
):
    """The windows of the two bounded searches: breadth and coefficients of
    the cc-bar candidates, and |x| for an indefinite quadratic form.  These
    defaults are the only ones: the search functions and the CLI read them.
    An empty window is refused, since its search would certify nothing."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _at_least(0, self.cc_max_breadth, "the cc-bar breadth")
        _at_least(1, self.cc_max_coeff, "the cc-bar coefficient bound")
        _at_least(1, self.quadform_bound, "the quadratic-form bound")
        return self


def _at_least(least: int, value: int, name: str) -> None:
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


_DEFAULT_BOUNDS = SearchBounds()


# -- binary quadratic form -----------------------------------------------------


class QuadFormVerdict(
    _Checked,
    namedtuple(
        "QuadFormVerdict",
        (
            "outcome",  # "witness" | "refuted" | "inconclusive"
            "x",
            "y",
            "sign",
            "searched_bound",
        ),
        defaults=(None, None, None, None),
    )
):
    """Outcome of deciding h^2 x^2 + (2h-1) xy + y^2 = +-d over the integers.

    ``witness`` and ``refuted`` are definitive; ``inconclusive`` reports how
    far the indefinite search went.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        assert self.outcome in ("witness", "refuted", "inconclusive")
        return self


def form_value(h: int, x: int, y: int) -> int:
    return h * h * x * x + (2 * h - 1) * x * y + y * y


def _y_solution(h: int, d: int, x: int):
    """The first (y, s) with h^2 x^2 + (2h-1) xy + y^2 = s d, s = 1 before
    s = -1, or None.  y is the root (-(2h-1) x + sqrt(disc)) / 2 of the
    quadratic in y, disc = (1-4h) x^2 + 4sd; disc = x^2 mod 4, so
    sqrt(disc) = x = (2h-1) x mod 2 and the root is an integer whenever
    disc is a square."""
    for s in (1, -1):
        disc = (1 - 4 * h) * x * x + 4 * s * d
        if disc >= 0:
            root = isqrt(disc)
            if root * root == disc:
                return (root - (2 * h - 1) * x) // 2, s
    return None


def _nagell_bound(h: int, d: int, bound: int) -> int:
    """An X <= bound such that, for h <= -1, the form takes the value +-d
    with some |x| <= bound only if it does with some |x| <= X.

    With u = 2y + (2h-1)x and D = 1 - 4h, 4 q(x, y) = u^2 - D x^2, so the
    solutions are those of u^2 - D x^2 = +-4d with u = x mod 2.  Multiplying
    by an integer unit of x^2 - D y^2 = 1 keeps that parity (D is odd), and
    by Nagell's theorem (Introduction to Number Theory, section 58) every
    class of solutions of u^2 - D x^2 = N has a member with
    |x| <= y1 sqrt(|N|) / sqrt(2 (x1 - 1)), (x1, y1) the unit.  When D = k^2
    the form factors, (u - kx)(u + kx) = N, and |x| <= (|N| + 1) / (2k).
    """
    D, n = 1 - 4 * h, 4 * abs(d)
    k = isqrt(D)
    if k * k == D:
        return min(bound, 2 * abs(d) + 1)
    # past y1 > bound^2 (isqrt(D) + 1), Nagell's bound is at least ``bound``
    unit = pell_unit(D, q_limit=bound * bound * (k + 1))
    if unit is None:
        return bound
    x1, y1 = unit
    square = -(-y1 * y1 * n // (2 * (x1 - 1)))  # ceil(y1^2 |N| / (2 (x1 - 1)))
    root = isqrt(square)
    return min(bound, root + (root * root < square))


def quadform_represents(
    h: int, d: int, bound: int = _DEFAULT_BOUNDS.quadform_bound
) -> QuadFormVerdict:
    """Decide whether h^2 x^2 + (2h-1) xy + y^2 takes the value d or -d.

    The form is even, q(-x, -y) = q(x, y), so x runs from 0 up and y is
    solved exactly per x (``_y_solution``).  For h >= 1 the form is positive
    definite (discriminant 1 - 4h < 0) and completing the square gives

        4 q = (2y + (2h-1)x)^2 + (4h-1) x^2
        4 h^2 q = (2 h^2 x + (2h-1)y)^2 + (4h-1) y^2

    so every solution of |q| = |d| has (4h-1) x^2 <= 4|d| and
    (4h-1) y^2 <= 4 h^2 |d|: the search over x is exhaustive.  Its witness
    is the one a scan of the box in the order 0, 1, -1, 2, -2, ... of x and
    then y reaches first: a solution at -x is one at x, and at x >= 0 the
    +sqrt root is the y that order meets first.  For h <= -1 the form is
    indefinite; x runs up to the smaller of ``bound`` and Nagell's bound
    (``_nagell_bound``), and the outcome is inconclusive up to ``bound``
    when no solution is found, although below Nagell's bound that also
    rules out every solution.
    """
    if h == 0:
        raise ValueError("h must be nonzero")
    if d == 0:
        raise ValueError("d must be nonzero")
    _at_least(1, bound, "the quadratic-form bound")
    top = isqrt(4 * abs(d) // (4 * h - 1)) if h >= 1 else _nagell_bound(h, d, bound)
    for x in range(top + 1):
        found = _y_solution(h, d, x)
        if found:
            return QuadFormVerdict("witness", x, *found)
    if h >= 1:
        return QuadFormVerdict("refuted")
    return QuadFormVerdict("inconclusive", searched_bound=bound)


# -- residue criteria ------------------------------------------------------------


class ParityVerdict(namedtuple("ParityVerdict", ("obstructs", "m", "remainder"))):
    """Whether the integer residue modulo t + t^-1 - 1 is 2 + 4m; ``m`` is
    None when it is not."""

    __slots__ = ()


def parity_criterion(r: int) -> ParityVerdict:
    """Residue test on the integer r that a polynomial is congruent to modulo
    t + t^-1 - 1.  Fires exactly when r is 2 mod 4; any polynomial congruent
    to such a constant cannot be one unknotting step from the modulus class,
    so the polynomial distance is 2."""
    if r % 4 == 2:
        return ParityVerdict(True, (r - 2) // 4, r)
    return ParityVerdict(False, None, r)


def constant_residue(p: LaurentPoly, h: int) -> int | None:
    """The integer that the bar-symmetric p is congruent to modulo
    h_form(h), or None when there is none.

    p is a polynomial in x = t + t^-1, and h_form(h) = h (x - x0) with
    x0 = (2h-1)/h, so the remainder over the rationals is p(x0).  At x0,
    t^k + t^-k = S_k / h^k with S_0 = 2, S_1 = 2h-1 and
    S_(k+1) = (2h-1) S_k - h^2 S_(k-1).  For p = c_0 + sum_k c_k (t^k + t^-k)
    of top exponent K the remainder is N / h^K, N = c_0 h^K +
    sum_k c_k S_k h^(K-k), summed here by Horner's rule in h.  h_form(h) is
    primitive, so by Gauss's lemma that is an integer residue exactly when
    h^K divides N.
    """
    assert p.is_bar_symmetric(), f"{p} is not bar symmetric"
    terms, step, h2 = p.terms, 2 * h - 1, h * h
    top = max(terms, default=0)
    num, s_prev, s_k = terms.get(0, 0), 2, step
    for k in range(1, top + 1):
        num = num * h + terms.get(k, 0) * s_k
        s_prev, s_k = s_k, step * s_k - h2 * s_prev
    d, rest = divmod(num, h**top)
    return None if rest else d


# -- bounded witness search for the product c * bar(c) ----------------------------


class CcBarWitness(namedtuple("CcBarWitness", ("c", "sign"))):
    __slots__ = ()


def _signed_rank(y: int) -> int:
    """Position of y in the order 0, 1, -1, 2, -2, ... of the coefficients
    of ``_cc_candidates``."""
    return 2 * abs(y) - (y > 0)


def _cc_candidates(max_breadth: int, max_coeff: int):
    """Candidate polynomials c of the window, one for each class of c bar(c).

    c bar(c) is unchanged by three symmetries of c: a unit t^k, the global
    sign, and the reversal t^b bar(c) for c of breadth b.  The first two are
    quotiented out by taking support from exponent 0 to b and a positive
    lowest coefficient; the reversal then maps the window to itself, and of
    each pair c, reversal(c) (made positive) only the one met first in the
    enumeration order below is emitted.  Coefficients run through 1, 2, ...
    at exponent 0 and through 0, 1, -1, 2, -2, ... above it, nonzero at the
    top exponent, breadth by breadth.
    """
    lead = range(1, max_coeff + 1)
    signed = sorted(range(-max_coeff, max_coeff + 1), key=_signed_rank)
    nonzero = [v for v in signed if v]
    for breadth in range(max_breadth + 1):
        if breadth == 0:
            slots = [lead]
        else:
            slots = [lead] + [signed] * (breadth - 1) + [nonzero]
        for coeffs in itertools.product(*slots):
            # every slot lists its values in increasing _signed_rank, so
            # comparing ranks compares positions in the enumeration
            twin = coeffs[::-1] if coeffs[-1] > 0 else tuple(-v for v in reversed(coeffs))
            if list(map(_signed_rank, twin)) < list(map(_signed_rank, coeffs)):
                continue
            yield LaurentPoly(dict(enumerate(coeffs)))


def cc_bar_witness_search(
    delta: LaurentPoly,
    delta_prime: LaurentPoly,
    max_breadth: int = _DEFAULT_BOUNDS.cc_max_breadth,
    max_coeff: int = _DEFAULT_BOUNDS.cc_max_coeff,
):
    """Search for c with +-delta_prime - c bar(c) a multiple of delta.

    Returns a CcBarWitness or None.  None is not a refutation; the search
    space is only a finite window.  The first witness is the one of the full
    window, since a skipped candidate has the c bar(c) of one tried before.
    """
    if delta.is_zero:
        raise ZeroDivisionError("modulus polynomial must be nonzero")
    _at_least(0, max_breadth, "the cc-bar breadth")
    _at_least(1, max_coeff, "the cc-bar coefficient bound")
    targets = ((1, delta_prime), (-1, -delta_prime))
    for c in _cc_candidates(max_breadth, max_coeff):
        cc = c * c.bar()
        for sign, target in targets:
            if is_multiple(target - cc, delta):
                return CcBarWitness(c, sign)
    return None


# -- classical criteria -----------------------------------------------------------


class MurakamiVerdict(
    namedtuple("MurakamiVerdict", ("obstructs", "witness", "undecided"), defaults=(None,))
):
    """``witness`` is a root d in [0, D), None when none exists or when
    ``undecided`` names the factoring limit that stopped the decision."""

    __slots__ = ()


def murakami_obstruction(det1: int, det2: int) -> MurakamiVerdict:
    """Double branched cover linking condition on the knot determinants.

    The fractional statement 2 d^2 / D = +-(D - D') / (2D) (mod 1) is
    cleared of denominators by multiplying through by 2D, leaving
    4 d^2 = +-(D - D') (mod 2D).  No witness d means a simultaneous
    unknotting number one and distance one is impossible, D = det1 being the
    determinant of the side with u_a = 1 (see ``_murakami``).

    D and D' are odd, so both sides are even and the condition holds
    exactly when d mod D is a square root of +-(D - D') / 4 mod D, whatever
    the parity of d; the witness is a root d in [0, D), the smaller over the
    two signs.  A Jacobi symbol of -1 for both signs refutes without
    factoring D; otherwise one root per sign is built from the prime
    factorisation of D, and a factoring limit that is reached leaves the
    verdict undecided.
    """
    if det1 <= 0 or det2 <= 0:
        raise ValueError("knot determinants must be positive")
    if det1 % 2 == 0 or det2 % 2 == 0:
        raise ValueError("knot determinants must be odd")
    mod = 2 * det1
    diff = det1 - det2
    quarter = diff * pow(4, -1, det1) % det1
    targets = [a for a in (quarter, -quarter % det1) if jacobi(a, det1) != -1]
    if not targets:
        return MurakamiVerdict(True, None)
    try:
        factors = factorize(det1)
    except Undecided as stop:
        return MurakamiVerdict(False, None, str(stop))
    roots = [r for r in (square_root(a, det1, factors) for a in targets) if r is not None]
    if not roots:
        return MurakamiVerdict(True, None)
    d = min(roots)
    assert (4 * d * d - diff) % mod == 0 or (4 * d * d + diff) % mod == 0
    return MurakamiVerdict(False, d)


def signature_bound(sig1: int, sig2: int) -> int:
    """Lower bound |sig1 - sig2| / 2 on the crossing change distance."""
    if sig1 % 2 or sig2 % 2:
        raise ValueError("signatures must be even")
    return abs(sig1 - sig2) // 2


# -- aggregated report -------------------------------------------------------------


class CriterionResult(
    namedtuple(
        "CriterionResult",
        (
            "name",
            "applicable",
            "verdict",  # "Obstructs" | "NoObstruction" | "Inconclusive"
            "certificate",
            "rho_lower",
            "dga_lower",
            "dg_lower",
        ),
        defaults=(0, 0, 0),
    )
):
    """One criterion's verdict, its certificate, and the lower bounds on the
    three distances that the verdict certifies (0 when it certifies none)."""

    __slots__ = ()


class ObstructionReport(
    _Checked,
    namedtuple(
        "ObstructionReport",
        (
            "label1",
            "label2",
            "criteria",  # tuple of CriterionResult
            "rho_lower",
            "rho_upper",
            "dga_lower",
            "dga_upper",  # None when unknown
            "dg_lower",
        ),
    )
):
    """Per-criterion verdicts plus certified bounds on the three distances."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        assert 0 <= self.rho_lower <= self.rho_upper <= 2
        assert self.dga_lower >= self.rho_lower
        assert self.dg_lower >= self.dga_lower
        if self.dga_upper is not None:
            assert self.dga_upper >= self.dga_lower
        return self

    def format(self) -> str:
        lines = [f"input1: {self.label1}", f"input2: {self.label2}"]
        for c in self.criteria:
            lines.append(f"criterion: {c.name}")
            lines.append(f"applicable: {'true' if c.applicable else 'false'}")
            lines.append(f"verdict: {c.verdict}")
            lines.append(f"certificate: {c.certificate}")
        lines.append(f"rho_lower: {self.rho_lower}")
        lines.append(f"rho_upper: {self.rho_upper}")
        lines.append(f"dga_lower: {self.dga_lower}")
        upper = "unknown" if self.dga_upper is None else str(self.dga_upper)
        lines.append(f"dga_upper: {upper}")
        lines.append(f"dg_lower: {self.dg_lower}")
        return "\n".join(lines)


class _Side(
    namedtuple(
        "_Side",
        (
            "label",
            "delta",
            "matrix",  # None for a polynomial input
            "sigma",  # None for a polynomial input
            "det",  # |Delta(-1)|, odd since Delta(-1) = Delta(1) = 1 mod 2
            "h",  # the h with delta = h_form(h), None when there is none
            "ua_one_certificate",  # None when u_a = 1 is not certified
        ),
    )
):
    """One input of the pair, normalised."""

    __slots__ = ()


def _ua_one_certificate(name, delta, h: int | None, matrix: SeifertMatrix | None, ua: int | None):
    """The reason this side has u_a = 1, or None when none is known.  The
    only judge of a side's u_a value; ``build_report`` just adds the two
    into dga_upper.  It refuses a negative value; a 0 unless Delta = 1, as
    u_a = 0 means S-equivalent to the 0x0 matrix and Delta is an
    S-equivalence invariant; a nonzero value when Delta = 1, as then the
    Alexander module, presented by tV - V^T, is zero, and the Blanchfield
    pairing determines the S-equivalence class (H. F. Trotter, "On
    S-equivalence of Seifert matrices", 1973); and a 1 on a matrix whose
    double cover has non-cyclic H1, since that forces u_a >= 2 (Nakanishi,
    "A note on unknotting number", 1981).

    A user value of 1 is otherwise taken on trust.  Every class whose
    Alexander polynomial is h_form(h) with h in SMALL_H has u_a = 1; a
    matrix side words this as its polynomial's h.  A 2x2 Seifert matrix
    V = [[a, b], [c, d]] has Delta = h_form(det V), since
    (b - c)^2 = det(V - V^T) = 1, so its rule |det V| in SMALL_H reads
    h = det V off the same polynomial.  It certifies only when H1 of the
    double branched cover is cyclic, tested last, as it fails for
    det V = -2 with V + V^T = 0 mod 3.
    """
    if ua is not None and ua < 0:
        raise ValueError("u_a values must be nonnegative")
    if ua == 0 and delta != 1:
        raise ValueError(f"u_a = 0 is impossible for {name}: its Alexander polynomial is not 1")
    if ua and delta == 1:
        raise ValueError(f"u_a = {ua} is impossible for {name}: its Alexander polynomial is 1")
    if ua == 1:
        if matrix is not None and not double_cover_cyclic(matrix):
            cover = "H1 of its double branched cover is not cyclic"
            raise ValueError(f"u_a = 1 is impossible for {name}: {cover}")
        return "user supplied u_a = 1"
    if h in SMALL_H:
        if matrix is None:
            return f"every class with this Alexander polynomial has u_a = 1 (h = {h})"
        return f"Alexander polynomial h(t+t^-1)+1-2h with h = {h}"
    if matrix is not None and matrix.size == 2 and h is not None and -h in SMALL_H:
        if double_cover_cyclic(matrix):
            return f"2x2 matrix with |det V| = {-h}"
    return None


def _is_prime_or_one(n: int) -> bool:
    """True for 1 and for primes that Miller-Rabin certifies; a number above
    its exact limit is not certified, and the route it guards is skipped."""
    return n == 1 or is_prime(n) is True


def _make_side(value, ua, label) -> _Side:
    if isinstance(value, SeifertMatrix):
        matrix, delta = value, alexander(value)
        sigma, det = signature(value), knot_determinant(value)
    elif isinstance(value, LaurentPoly):
        matrix, delta, sigma = None, check_alexander(value), None
        det = abs(value.evaluate(-1))
    else:
        raise TypeError("input must be a SeifertMatrix or a LaurentPoly")
    h = delta.coeff(1)
    if not h or delta != h_form(h):
        h = None
    name = label or str(delta)
    return _Side(name, delta, matrix, sigma, det, h, _ua_one_certificate(name, delta, h, matrix, ua))


def _moduli(s1: _Side, s2: _Side) -> list:
    """The moduli of the residue criteria, as (side, other side, residue).

    A modulus is a side with a certified u_a = 1, taken in argument order;
    there is none when the polynomials are equal.  The residue is the
    integer that the other side's polynomial is congruent to modulo the
    side's: None unless the side is h_form(h), and None when there is no
    such integer.  Each criterion checks its own hypotheses on h.  This is
    the only place that pairs a modulus with the other side.
    """
    if s1.delta == s2.delta:
        return []
    return [
        (mod, other, None if mod.h is None else constant_residue(other.delta, mod.h))
        for mod, other in ((s1, s2), (s2, s1))
        if mod.ua_one_certificate is not None
    ]


_NEEDS_MODULUS = "requires distinct polynomials and a certified u_a = 1 side"


def _combined(name: str, results: list, unmet: str, **bounds) -> CriterionResult:
    """A residue criterion's result from its (verdict, certificate part)
    pairs, one per modulus it read: any Obstructs gives Obstructs with the
    ``bounds`` it certifies, any Inconclusive gives Inconclusive, and all
    NoObstruction gives NoObstruction.  With no pair the criterion does not
    apply, and ``unmet`` names the hypothesis that failed."""
    if not results:
        return CriterionResult(name, False, "Inconclusive", unmet)
    verdicts = {verdict for verdict, _ in results}
    certificate = "; ".join(part for _, part in results)
    if "Obstructs" in verdicts:
        return CriterionResult(name, True, "Obstructs", certificate, **bounds)
    if "Inconclusive" in verdicts:
        return CriterionResult(name, True, "Inconclusive", certificate)
    return CriterionResult(name, True, "NoObstruction", certificate)


# -- the criteria: each takes the two sides in argument order, or the moduli -----


def _alexander_distance(s1: _Side, s2: _Side) -> CriterionResult:
    """Distinct Alexander polynomials force every distance to be at least 1."""
    name = "alexander-distance"
    if s1.delta == s2.delta:
        return CriterionResult(name, True, "NoObstruction", "Alexander polynomials are equal")
    return CriterionResult(name, True, "Obstructs", "Alexander polynomials differ", rho_lower=1)


def _parity(moduli: list) -> CriterionResult:
    """Hypotheses: a modulus equal to t + t^-1 - 1, whose residue is always
    an integer since h = 1.  A residue that is 2 mod 4 gives rho >= 2."""
    results = []
    for mod, _, residue in moduli:
        if mod.h != 1:
            continue
        res = parity_criterion(residue)
        detail = f"= 2 + 4*({res.m}), m = {res.m}" if res.obstructs else "is not 2 mod 4"
        verdict = "Obstructs" if res.obstructs else "NoObstruction"
        results.append((verdict, f"mod {mod.label}: remainder = {res.remainder} {detail}"))
    unmet = "requires distinct polynomials, one equal to t+t^-1-1"
    return _combined("parity", results, unmet, rho_lower=2)


def _quadratic_form(moduli: list, bounds: SearchBounds) -> tuple[CriterionResult, list]:
    """The paper's criterion, tried modulo each modulus.

    Hypotheses: a modulus h(t + t^-1) + 1 - 2h with |h| prime or 1, modulo
    which the other side is congruent to a nonzero integer d.  No integer
    solution of h^2 x^2 + (2h-1) xy + y^2 = +-d gives dga >= 2, and rho >= 2
    when h is in SMALL_H, since then every class with the modulus
    polynomial has u_a = 1.

    Returns the CriterionResult and the (modulus, other side, witness
    verdict) of each modulus with a witness, which ``_cc_bar_witness``
    reuses.
    """
    results, rho, witnesses = [], 0, []
    for mod, other, d in moduli:
        h = mod.h
        if not d or not _is_prime_or_one(abs(h)):
            continue
        v = quadform_represents(h, d, bounds.quadform_bound)
        if v.outcome == "refuted":
            verdict, detail = "Obstructs", "no integer solution (exhaustive box)"
            rho = 2 if h in SMALL_H else rho
        elif v.outcome == "witness":
            assert form_value(h, v.x, v.y) == v.sign * d
            verdict, detail = "NoObstruction", f"witness x = {v.x}, y = {v.y} gives {v.sign * d}"
            witnesses.append((mod, other, v))
        else:
            verdict, detail = "Inconclusive", f"inconclusive up to |x| <= {v.searched_bound}"
        cert = mod.ua_one_certificate
        results.append((verdict, f"mod {mod.label}: h = {h}, d = {d}: {detail} [u_a certificate: {cert}]"))
    quad = _combined("quadratic-form", results, "hypotheses not met", rho_lower=rho, dga_lower=2)
    return quad, witnesses


def _cc_bar_witness(moduli: list, bounds: SearchBounds, quad: CriterionResult, witnesses: list) -> CriterionResult:
    """Hypotheses: a modulus, that is distinct polynomials and a side with a
    certified u_a = 1.  Looks for c with +-Delta' - c bar(c) a multiple of
    the Delta of each modulus, Delta' being the other side's; the first
    witness shows the criterion cannot obstruct, so the verdict does not
    depend on the order of the pair.  It certifies no bound of its own: it
    obstructs only when the quadratic-form criterion (``quad``) already did.

    A quadratic-form witness q(x, y) = s d modulo h_form(h) (``witnesses``)
    gives c = h x t + y with sign s, since c bar(c) - q(x, y) =
    x y h_form(h) and Delta' = d modulo it.  Those are taken first, in
    argument order; only then is a finite window searched modulo each
    modulus in argument order."""
    name = "cc-bar-witness"
    if not moduli:
        return CriterionResult(name, False, "Inconclusive", _NEEDS_MODULUS)
    if quad.verdict == "Obstructs":
        implied = "no witness exists: implied by the quadratic-form refutation"
        return CriterionResult(name, True, "Obstructs", implied)
    max_breadth, max_coeff = bounds.cc_max_breadth, bounds.cc_max_coeff
    constructed = (
        (mod, other, CcBarWitness(LaurentPoly({1: mod.h * v.x, 0: v.y}), v.sign))
        for mod, other, v in witnesses
    )
    searched = (
        (mod, other, cc_bar_witness_search(mod.delta, other.delta, max_breadth, max_coeff))
        for mod, other, _ in moduli
    )
    for mod, other, witness in itertools.chain(constructed, searched):
        if witness is not None:
            c, sign = witness
            assert is_multiple(sign * other.delta - c * c.bar(), mod.delta)
            found = f"mod {mod.label}: c = {c}, sign = {sign:+d}"
            return CriterionResult(name, True, "NoObstruction", found)
    window = f"breadth <= {max_breadth}, coefficients <= {max_coeff}"
    return CriterionResult(name, True, "Inconclusive", f"no witness with {window}")


def _murakami(moduli: list) -> CriterionResult:
    """The double branched cover condition, tried modulo each modulus.

    Hypothesis: a modulus, whose certified u_a = 1 makes the linking form
    of its double branched cover cyclic and isomorphic to +-2/D, D its knot
    determinant (Lickorish, "The unknotting number of a classical knot",
    1985; H. Murakami, "Some metrics on classical knots", 1985).  With D'
    the other side's determinant, no d with 4d^2 = +-(D - D') mod 2D gives
    dg >= 2; a factoring budget that runs out gives Inconclusive.
    """
    results = []
    for mod, other, _ in moduli:
        mur = murakami_obstruction(mod.det, other.det)
        relation = f"4d^2 = +-({mod.det} - {other.det}) mod {2 * mod.det}"
        if mur.undecided:
            verdict, detail = "Inconclusive", f"{relation} undecided: {mur.undecided}"
        elif mur.obstructs:
            verdict, detail = "Obstructs", f"no d with {relation}"
        else:
            verdict, detail = "NoObstruction", f"d = {mur.witness} satisfies {relation}"
        cert = mod.ua_one_certificate
        results.append((verdict, f"mod {mod.label}: {detail} [u_a certificate: {cert}]"))
    return _combined("murakami", results, _NEEDS_MODULUS, dg_lower=2)


def _signature(s1: _Side, s2: _Side) -> CriterionResult:
    """Hypothesis: both sides are matrices.  Gives dg >= |sigma1 - sigma2| / 2,
    and dga >= 1 when the polynomials are equal but the signatures differ."""
    if s1.sigma is None or s2.sigma is None:
        return CriterionResult("signature", False, "Inconclusive", "signatures unknown")
    value = signature_bound(s1.sigma, s2.sigma)
    return CriterionResult(
        "signature",
        True,
        "Obstructs" if value else "NoObstruction",
        f"|{s1.sigma} - {s2.sigma}| / 2 = {value}",
        dga_lower=1 if value and s1.delta == s2.delta else 0,
        dg_lower=value,
    )


def build_report(
    input1,
    input2,
    ua1: int | None = None,
    ua2: int | None = None,
    bounds: SearchBounds | None = None,
    label1: str | None = None,
    label2: str | None = None,
) -> ObstructionReport:
    """Run every criterion on the pair and aggregate the bounds they certify."""
    bounds = bounds or _DEFAULT_BOUNDS
    s1, s2 = _make_side(input1, ua1, label1), _make_side(input2, ua2, label2)
    moduli = _moduli(s1, s2)
    alex, parity = _alexander_distance(s1, s2), _parity(moduli)
    quad, witnesses = _quadratic_form(moduli, bounds)
    cc_bar = _cc_bar_witness(moduli, bounds, quad, witnesses)
    criteria = (alex, parity, quad, cc_bar, _murakami(moduli), _signature(s1, s2))
    rho_lower = max(c.rho_lower for c in criteria)
    dga_lower = max(rho_lower, *(c.dga_lower for c in criteria))
    dg_lower = max(dga_lower, *(c.dg_lower for c in criteria))

    if s1.matrix is not None and s1.matrix == s2.matrix:
        dga_upper = 0
    elif ua1 is not None and ua2 is not None:
        dga_upper = ua1 + ua2
    else:
        dga_upper = None
    if dga_upper is not None and dga_upper < dga_lower:
        raise ValueError(
            f"supplied u_a values give the upper bound {dga_upper}, "
            f"contradicting the certified lower bound {dga_lower}"
        )
    rho_upper = 0 if s1.delta == s2.delta else 2
    return ObstructionReport(
        s1.label, s2.label, criteria, rho_lower, rho_upper, dga_lower, dga_upper, dg_lower
    )
