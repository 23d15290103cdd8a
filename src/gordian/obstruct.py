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

from .laurent import LaurentPoly, divmod_rational, is_multiple
from .numtheory import Undecided, factorize, is_prime, jacobi, pell_unit, smallest_square_root
from .seifert import (
    SMALL_H,
    SeifertMatrix,
    alexander,
    check_alexander,
    double_cover_cyclic,
    h_form,
    knot_determinant,
    signature,
)


class SearchBounds(
    namedtuple(
        "SearchBounds",
        ("cc_max_breadth", "cc_max_coeff", "quadform_bound"),
        defaults=(4, 8, 10_000),
    )
):
    """The windows of the two bounded searches: breadth and coefficients of
    the cc-bar candidates, and |x| for an indefinite quadratic form.  These
    defaults are the only ones: the search functions and the CLI read them."""

    __slots__ = ()


_DEFAULT_BOUNDS = SearchBounds()


# -- binary quadratic form -----------------------------------------------------


class QuadFormVerdict(
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

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: run the checks of __new__ there too
        return cls(*iterable)


def _signed_range(bound):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def form_value(h: int, x: int, y: int) -> int:
    return h * h * x * x + (2 * h - 1) * x * y + y * y


def _y_solutions(h: int, d: int, x: int):
    """The (y, s) with h^2 x^2 + (2h-1) xy + y^2 = s d for s = +-1, solved
    exactly from the discriminant (1-4h) x^2 + 4sd of the quadratic in y:
    s = 1 before s = -1, and the root with +sqrt first."""
    out = []
    for s in (1, -1):
        disc = (1 - 4 * h) * x * x + 4 * s * d
        if disc < 0:
            continue
        root = isqrt(disc)
        if root * root != disc:
            continue
        for pm in (root, -root) if root else (0,):
            num = -(2 * h - 1) * x + pm
            if num % 2 == 0:
                out.append((num // 2, s))
    return out


def _signed_rank(y: int) -> int:
    """Position of y in the order 0, 1, -1, 2, -2, ... of ``_signed_range``."""
    return 2 * abs(y) - (y > 0)


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

    Both branches solve for y exactly per x (``_y_solutions``).  For h >= 1
    the form is positive definite (discriminant 1 - 4h < 0) and completing
    the square gives

        4 q = (2y + (2h-1)x)^2 + (4h-1) x^2
        4 h^2 q = (2 h^2 x + (2h-1)y)^2 + (4h-1) y^2

    so every solution of |q| = |d| has (4h-1) x^2 <= 4|d| and
    (4h-1) y^2 <= 4 h^2 |d|: the search over x is exhaustive, and the
    witness is the one a scan of that box in ``_signed_range`` order reaches
    first.  For h <= -1 the form is indefinite; x runs up to the smaller of
    ``bound`` and Nagell's bound (``_nagell_bound``), and the outcome is
    inconclusive up to ``bound`` when no solution is found, although below
    Nagell's bound that also rules out every solution.
    """
    if h == 0:
        raise ValueError("h must be nonzero")
    if d == 0:
        raise ValueError("d must be nonzero")
    if h >= 1:
        for x in _signed_range(isqrt(4 * abs(d) // (4 * h - 1))):
            found = _y_solutions(h, d, x)
            if found:
                y, s = min(found, key=lambda ys: _signed_rank(ys[0]))
                return QuadFormVerdict("witness", x, y, s)
        return QuadFormVerdict("refuted")
    for x in _signed_range(_nagell_bound(h, d, bound)):
        found = _y_solutions(h, d, x)
        if found:
            y, s = found[0]
            return QuadFormVerdict("witness", x, y, s)
    return QuadFormVerdict("inconclusive", searched_bound=bound)


# -- residue criteria ------------------------------------------------------------


class ParityVerdict(namedtuple("ParityVerdict", ("obstructs", "m", "remainder"))):
    """Whether a polynomial is congruent to 2 + 4m modulo t + t^-1 - 1;
    ``m`` is None when it is not."""

    __slots__ = ()


def parity_criterion(r: LaurentPoly) -> ParityVerdict:
    """Residue test on the remainder r of a polynomial modulo t + t^-1 - 1.

    Fires exactly when r is an integer congruent to 2 mod 4; any polynomial
    congruent to such a constant cannot be one unknotting step from the
    modulus class, so the polynomial distance is 2.
    """
    if r.is_constant and r.is_integral:
        c = r.constant_value
        if c % 4 == 2:
            return ParityVerdict(True, (c - 2) // 4, r)
    return ParityVerdict(False, None, r)


def constant_residue(r: LaurentPoly):
    """The remainder r as a nonzero integer, or None when it is not one."""
    if r.is_constant and r.is_integral and not r.is_zero:
        return r.constant_value
    return None


# -- bounded witness search for the product c * bar(c) ----------------------------


class CcBarWitness(namedtuple("CcBarWitness", ("c", "sign"))):
    __slots__ = ()


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
    signed = list(_signed_range(max_coeff))
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
    """``witness`` is the smallest d, None when none exists or when
    ``undecided`` names the budget that stopped the decision."""

    __slots__ = ()


def murakami_obstruction(det1: int, det2: int) -> MurakamiVerdict:
    """Double branched cover linking condition on the knot determinants.

    The fractional statement 2 d^2 / D = +-(D - D') / (2D) (mod 1) is
    cleared of denominators by multiplying through by 2D, leaving
    4 d^2 = +-(D - D') (mod 2D).  No witness d means a simultaneous
    unknotting number one and distance one is impossible.

    D and D' are odd, so both sides are even and the condition holds
    exactly when d mod D is a square root of +-(D - D') / 4 mod D, whatever
    the parity of d: the smallest d in [0, 2D) is the smallest such root.
    A Jacobi symbol of -1 for both signs refutes without factoring D;
    otherwise the roots are built from the prime factorisation of D, and a
    factoring or root budget that runs out leaves the verdict undecided.
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
        roots = [smallest_square_root(a, det1, factors) for a in targets]
    except Undecided as stop:
        return MurakamiVerdict(False, None, str(stop))
    roots = [r for r in roots if r is not None]
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

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: run the checks of __new__ there too
        return cls(*iterable)

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
            "residue",  # the other side's delta mod this delta, see _sides
        ),
    )
):
    """One input of the pair, normalised."""

    __slots__ = ()


def _ua_one_certificate(h: int | None, matrix: SeifertMatrix | None, ua: int | None):
    """The reason this side has u_a = 1, or None when none is known.

    A user value of 1 is taken on trust (``_make_side`` has rejected it
    for a matrix whose double cover has non-cyclic H1).  Every class whose
    Alexander polynomial is h_form(h) with h in SMALL_H has u_a = 1; a
    matrix side words this as its polynomial's h.  A 2x2 Seifert matrix
    V = [[a, b], [c, d]] has Delta = h_form(det V), since
    (b - c)^2 = det(V - V^T) = 1, so its rule |det V| in SMALL_H reads
    h = det V off the same polynomial.  It certifies only when H1 of the
    double branched cover is cyclic, tested last: a non-cyclic H1 forces
    u_a >= 2 (Nakanishi, "A note on unknotting number", 1981), as for
    det V = -2 with V + V^T = 0 mod 3.
    """
    if ua == 1:
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
    if ua == 1 and matrix is not None and not double_cover_cyclic(matrix):
        raise ValueError(
            f"u_a = 1 is impossible for {label or delta}: "
            "H1 of its double branched cover is not cyclic"
        )
    h = delta.coeff(1)
    if not h or delta != h_form(h):
        h = None
    certificate = _ua_one_certificate(h, matrix, ua)
    return _Side(label or str(delta), delta, matrix, sigma, det, h, certificate, None)


def _sides(input1, input2, ua1, ua2, label1, label2):
    """Both sides.  When the polynomials differ, a side whose |h| is prime or
    1 holds the other side's polynomial modulo its own: the criteria's residue."""
    sides = _make_side(input1, ua1, label1), _make_side(input2, ua2, label2)
    if sides[0].delta == sides[1].delta:
        return sides
    return tuple(
        mod._replace(residue=divmod_rational(other.delta, mod.delta)[1])
        if mod.h is not None and _is_prime_or_one(abs(mod.h)) else mod
        for mod, other in (sides, sides[::-1])
    )


# -- the criteria: each takes the two sides in argument order ------------------------


def _alexander_distance(s1: _Side, s2: _Side) -> CriterionResult:
    """Distinct Alexander polynomials force every distance to be at least 1."""
    name = "alexander-distance"
    if s1.delta == s2.delta:
        return CriterionResult(name, True, "NoObstruction", "Alexander polynomials are equal")
    return CriterionResult(name, True, "Obstructs", "Alexander polynomials differ", rho_lower=1)


def _parity(s1: _Side, s2: _Side) -> CriterionResult:
    """Hypotheses: distinct polynomials, one of them t + t^-1 - 1.  A remainder
    of the other modulo it that is an integer 2 mod 4 gives rho >= 2."""
    parts, fired = [], False
    for mod in (s1, s2):
        if mod.h != 1 or mod.residue is None:
            continue
        res = parity_criterion(mod.residue)
        fired = fired or res.obstructs
        if res.obstructs:
            detail = f"= 2 + 4*({res.m}), m = {res.m}"
        else:
            detail = "is not 2 mod 4"
        parts.append(f"mod {mod.label}: remainder = {res.remainder} {detail}")
    if not parts:
        return CriterionResult(
            "parity", False, "Inconclusive", "requires distinct polynomials, one equal to t+t^-1-1"
        )
    if fired:
        return CriterionResult("parity", True, "Obstructs", "; ".join(parts), rho_lower=2)
    return CriterionResult("parity", True, "NoObstruction", "; ".join(parts))


def _quadratic_form(s1: _Side, s2: _Side, bounds: SearchBounds) -> CriterionResult:
    """The paper's criterion, tried with each side as the modulus.

    Hypotheses: distinct polynomials; the modulus is h(t + t^-1) + 1 - 2h with
    |h| prime or 1 and a certified u_a = 1; the other side is congruent to a
    nonzero integer d modulo it.  No integer solution of
    h^2 x^2 + (2h-1) xy + y^2 = +-d gives dga >= 2, and rho >= 2 when h is in
    SMALL_H, since then every class with the modulus polynomial has u_a = 1.
    """
    parts, outcomes, rho = [], set(), 0
    for mod in (s1, s2):
        if mod.residue is None:
            continue
        h, d, cert = mod.h, constant_residue(mod.residue), mod.ua_one_certificate
        if d is None or cert is None:
            continue
        v = quadform_represents(h, d, bounds.quadform_bound)
        outcomes.add(v.outcome)
        if v.outcome == "refuted":
            detail = "no integer solution (exhaustive box)"
            rho = 2 if h in SMALL_H else rho
        elif v.outcome == "witness":
            assert form_value(h, v.x, v.y) == v.sign * d
            detail = f"witness x = {v.x}, y = {v.y} gives {v.sign * d}"
        else:
            detail = f"inconclusive up to |x| <= {v.searched_bound}"
        parts.append(f"mod {mod.label}: h = {h}, d = {d}: {detail} [u_a certificate: {cert}]")
    name, certificate = "quadratic-form", "; ".join(parts) if parts else "hypotheses not met"
    if "refuted" in outcomes:
        return CriterionResult(name, True, "Obstructs", certificate, rho_lower=rho, dga_lower=2)
    if parts and "inconclusive" not in outcomes:
        return CriterionResult(name, True, "NoObstruction", certificate)
    return CriterionResult(name, bool(parts), "Inconclusive", certificate)


def _cc_bar_witness(
    s1: _Side, s2: _Side, bounds: SearchBounds, quad: CriterionResult
) -> CriterionResult:
    """Hypotheses: distinct polynomials and a side with a certified u_a = 1.
    Searches a finite window for c with +-Delta' - c bar(c) a multiple of the
    Delta of each such side in argument order, Delta' being the other side's;
    the first witness shows the criterion cannot obstruct, so the verdict
    does not depend on the order of the pair.  It certifies no bound of its
    own: it obstructs only when the quadratic-form criterion (``quad``)
    already did."""
    name = "cc-bar-witness"
    sides = [s for s in (s1, s2) if s.ua_one_certificate is not None]
    if not sides or s1.delta == s2.delta:
        needs = "requires distinct polynomials and a certified u_a = 1 side"
        return CriterionResult(name, False, "Inconclusive", needs)
    if quad.verdict == "Obstructs":
        implied = "no witness exists: implied by the quadratic-form refutation"
        return CriterionResult(name, True, "Obstructs", implied)
    max_breadth, max_coeff = bounds.cc_max_breadth, bounds.cc_max_coeff
    for side in sides:
        other = s2 if side is s1 else s1
        witness = cc_bar_witness_search(side.delta, other.delta, max_breadth, max_coeff)
        if witness is not None:
            c, sign = witness.c, witness.sign
            assert is_multiple(sign * other.delta - c * c.bar(), side.delta)
            found = f"mod {side.label}: c = {c}, sign = {sign:+d}"
            return CriterionResult(name, True, "NoObstruction", found)
    window = f"breadth <= {max_breadth}, coefficients <= {max_coeff}"
    return CriterionResult(name, True, "Inconclusive", f"no witness with {window}")


def _murakami(s1: _Side, s2: _Side) -> CriterionResult:
    """Hypothesis: odd positive knot determinants on both sides, which every
    Alexander polynomial has.  No d with 4d^2 = +-(D1 - D2) mod 2 D1 gives
    dg >= 2; a factoring or root budget that runs out gives Inconclusive."""
    mur = murakami_obstruction(s1.det, s2.det)
    relation = f"4d^2 = +-({s1.det} - {s2.det}) mod {2 * s1.det}"
    if mur.undecided:
        return CriterionResult("murakami", True, "Inconclusive", f"{relation} undecided: {mur.undecided}")
    if mur.obstructs:
        none = f"no d with {relation}; unknotting number one with distance one is impossible"
        return CriterionResult("murakami", True, "Obstructs", none, dg_lower=2)
    found = f"d = {mur.witness} satisfies {relation}"
    return CriterionResult("murakami", True, "NoObstruction", found)


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
    for ua in (ua1, ua2):
        if ua is not None and ua < 0:
            raise ValueError("u_a values must be nonnegative")
    s1, s2 = _sides(input1, input2, ua1, ua2, label1, label2)
    alex, parity = _alexander_distance(s1, s2), _parity(s1, s2)
    quad = _quadratic_form(s1, s2, bounds)
    cc_bar = _cc_bar_witness(s1, s2, bounds, quad)
    criteria = (alex, parity, quad, cc_bar, _murakami(s1, s2), _signature(s1, s2))
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
