"""Exact arithmetic for Stern-Brocot sequences, reduced continued
fractions, and the singular distribution functions they generate."""

from .cf import ReducedRCF, RegularCF, expand_rcf, expand_rrcf, rcf_to_rrcf
from .dist import (
    ConvergenceReport,
    ConvergenceRow,
    empirical_cdf,
    verify_theorem1,
)
from .exact import (
    SQRT5,
    TAU,
    TAU2,
    QuadSurd,
    mediant,
    parse_quadsurd,
    parse_rational,
    to_decimal,
)
from .singular import g_inductive, g_series, g_stream, g_tau2, question_mark
from .stern import (
    SternBrocotLevel,
    first_level,
    graded_walk,
    new_mediants,
    next_level,
    stern_level,
    walk_blocks,
)
from .xi import (
    XiSequence,
    XiTreeNode,
    fibonacci,
    theta,
    xi,
)

__all__ = [
    "SQRT5",
    "TAU",
    "TAU2",
    "ConvergenceReport",
    "ConvergenceRow",
    "QuadSurd",
    "ReducedRCF",
    "RegularCF",
    "SternBrocotLevel",
    "XiSequence",
    "XiTreeNode",
    "empirical_cdf",
    "expand_rcf",
    "expand_rrcf",
    "fibonacci",
    "first_level",
    "g_inductive",
    "g_series",
    "g_stream",
    "g_tau2",
    "graded_walk",
    "mediant",
    "new_mediants",
    "next_level",
    "parse_quadsurd",
    "parse_rational",
    "question_mark",
    "rcf_to_rrcf",
    "stern_level",
    "theta",
    "to_decimal",
    "verify_theorem1",
    "walk_blocks",
    "xi",
]
