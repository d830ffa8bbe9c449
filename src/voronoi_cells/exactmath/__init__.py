"""Exact arithmetic: fields, monomial orders, polynomials, parsing, real roots."""
from .fields import QQ, FieldError, PrimeField, RationalField, field_from_name
from .orders import GREVLEX, LEX, BlockElim, GrevLex, Lex, MonomialOrder
from .parse import ParseError, parse_polynomial
from .poly import Polynomial, PolyRing, RingMismatchError
from .sturm import (
    count_real_roots,
    dense_from_poly,
    isolate_real_roots,
    squarefree_part,
    sturm_chain,
)

__all__ = [
    "QQ",
    "FieldError",
    "PrimeField",
    "RationalField",
    "field_from_name",
    "GREVLEX",
    "LEX",
    "BlockElim",
    "GrevLex",
    "Lex",
    "MonomialOrder",
    "ParseError",
    "parse_polynomial",
    "Polynomial",
    "PolyRing",
    "RingMismatchError",
    "count_real_roots",
    "dense_from_poly",
    "isolate_real_roots",
    "squarefree_part",
    "sturm_chain",
]
