"""Exact knot invariants from Seifert matrices and an obstruction battery
for lower bounds on Gordian-type distances."""

from .laurent import LaurentPoly, PolyParseError, divmod_rational, is_multiple
from .seifert import (
    InvalidMatrixError,
    KnotInvariants,
    SeifertMatrix,
    alexander,
    congruent_transform,
    det_int,
    det_laurent,
    enlarge,
    h_form,
    knot_determinant,
    parse_matrix_text,
    signature,
    try_reduce,
    unknotting_border,
)
from .blanchfield import (
    TorsionFraction,
    adjugate_laurent,
    border_self_pairing_check,
    fractions_equal,
    gram_matrix,
    pairing,
)
from .obstruct import (
    CcBarWitness,
    MurakamiVerdict,
    ObstructionReport,
    ParityVerdict,
    QuadFormVerdict,
    SearchBounds,
    build_report,
    cc_bar_witness_search,
    murakami_obstruction,
    parity_criterion,
    quadform_represents,
    signature_bound,
)

__version__ = "0.1.0"
