"""Exact-arithmetic lab for Pascal and Catalan-Hankel matrix identities,
formal-Laurent continued fractions, and digital (t,s)-sequences."""

from .exact import (
    ExactMatrix,
    LDUFactors,
    SingularMinorError,
    determinant,
    ldu_decompose,
    leading_principal_minors,
    mat_mul,
    mat_pow,
    rank_mod_p,
    window,
)
from .families import H1, H2, M1, M2, P1, P2, Family, entry
from .laurent import CFExpansion, LaurentSeries, Poly, build_L, cf_expand, convergent
from .net import GeneratingSet, PointSet, digital_points, star_discrepancy, t_value
from .sequences import catalan, catalan_interspersed, s2, thue_morse
from .verify import VerificationReport, run_all, run_check

__version__ = "0.1.0"
