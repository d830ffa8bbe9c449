"""Monomial orders.

An order turns an exponent tuple into one integer comparison key, the same
for ``Polynomial`` and for the Groebner engine:

* ``key_asc(e)``  — a bigger key is a bigger monomial; used when the
  *smallest* item should pop first (pair selection).
* ``key_desc(e)`` — its negation, so a smaller key is a bigger monomial;
  used by max-heaps built on heapq (term iteration, reduction).

Keys are built from 24-bit fields, so every exponent must stay below 2^23
(the engine's packed monomials keep the top bit of each field as a guard);
a larger one raises OverflowError.  Grevlex puts the degree above the
complemented exponents in reverse order, lex the exponents in order, and
BlockElim(k) the head's grevlex key above the tail's.  Each key is thus an
affine function of the exponent vector, key(a + b) = key(a) + key(b) -
key(0), which the Groebner engine uses to shift keys without a lookup.

Variables listed first in a ring are the biggest in every order.  BlockElim(k)
is the two-block elimination order: graded reverse lex on the first k
variables dominates graded reverse lex on the rest, so the reduced basis
elements free of the first block generate the elimination ideal.
"""
from __future__ import annotations

_W = 24  # bits per exponent field, here and in the engine's packed monomials
_FIELD_MASK = (1 << _W) - 1
_EXP_LIMIT = 1 << (_W - 1)


def _check_fields(exps) -> None:
    """Raise OverflowError unless every exponent fits a key field."""
    if exps and max(exps) >= _EXP_LIMIT:
        raise OverflowError(
            f"exponent {max(exps)} too large for packed monomials "
            f"(at most {_EXP_LIMIT - 1})")


def _grevlex_key(exps) -> int:
    _check_fields(exps)
    key = sum(exps)
    for v in reversed(exps):
        key = (key << _W) | (_FIELD_MASK - v)
    return key


class MonomialOrder:
    name = "?"

    def key_asc(self, exps) -> int:
        raise NotImplementedError

    def key_desc(self, exps) -> int:
        return -self.key_asc(exps)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self).__name__)


class Lex(MonomialOrder):
    name = "lex"

    def key_asc(self, exps) -> int:
        _check_fields(exps)
        key = 0
        for v in exps:
            key = (key << _W) | v
        return key


class GrevLex(MonomialOrder):
    name = "grevlex"
    key_asc = staticmethod(_grevlex_key)


class BlockElim(MonomialOrder):
    """Eliminate the first ``k`` ring variables (grevlex block over grevlex block)."""

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("block size must be nonnegative")
        self.k = k
        self.name = f"block_elim({k})"

    def key_asc(self, exps) -> int:
        k = self.k
        # room for the tail key including its degree field
        tail_shift = _W * (len(exps) - k) + 64
        return (_grevlex_key(exps[:k]) << tail_shift) + _grevlex_key(exps[k:])

    def __eq__(self, other):
        return isinstance(other, BlockElim) and other.k == self.k

    def __hash__(self):
        return hash(("block_elim", self.k))


LEX = Lex()
GREVLEX = GrevLex()
