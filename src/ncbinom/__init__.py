"""Exact verification engine for binomial-type identities of non-commuting operators."""

from .scalars import CycloScalar, parse_scalar, format_scalar
from .freealg import Alphabet, NcPoly, commutator
from .rewrite import (
    RelationPreset,
    check_confluence,
    kernel_eval,
    make_preset,
    normalize,
    restrict_to_kernel,
)
from .binomial import build_binomial, build_binomial_alt, double_factorial

__all__ = [
    "Alphabet",
    "CycloScalar",
    "NcPoly",
    "RelationPreset",
    "build_binomial",
    "build_binomial_alt",
    "check_confluence",
    "commutator",
    "double_factorial",
    "format_scalar",
    "kernel_eval",
    "make_preset",
    "normalize",
    "parse_scalar",
    "restrict_to_kernel",
]
