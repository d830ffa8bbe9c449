"""Factoring univariate rational polynomials without integer factorization.

Yun's algorithm splits the input into squarefree factors; its first step,
f and f' over gcd(f, f'), is the head of the Sturm chain that
``exactmath.sturm`` builds from the same Euclid run.  By the rational root
theorem a rational root of a factor is k/a for an integer k, where a is
the leading coefficient of its primitive integer form, so each real root
is isolated in a bracket narrower than 1/a and the one such point in it
is verified exactly.  The same isolation counts the real roots that each
factor keeps.  What remains after deflation is certified
irreducible either by degree arguments or by Rabin's irreducibility test
modulo a prime, which runs on the same division and gcd as the rest, over
F_p; otherwise it is returned unsplit and unlabelled.  Everything after
the input's integer form works on primitive integer lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .exactmath.sturm import (
    _sign_at,
    dense_derivative,
    dense_divmod,
    dense_gcd,
    dense_trim,
    isolate_real_roots,
    primitive_integer_form,
    sturm_chain,
)

_WITNESS_PRIMES = (10007, 10009, 31337, 65537, 94693)


@dataclass(frozen=True)
class Factor:
    """One factor of a squarefree polynomial, low-degree-first coefficients.

    ``certified_irreducible`` is True when irreducibility was proved, and
    None when the cofactor was simply left unsplit.  ``real_roots`` is its
    number of distinct real roots.
    """

    coefficients: tuple[Fraction, ...]
    multiplicity: int
    certified_irreducible: bool | None
    real_roots: int

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def mod_p_irreducible(int_coeffs: Sequence[int], p: int) -> bool | None:
    """Rabin's test modulo p; None when p divides the leading coefficient."""
    f = [c % p for c in int_coeffs]
    n = len(f) - 1
    if f[-1] == 0 or n <= 0:
        return None

    # two reduced lists of length at most n have a product with
    # coefficients below n * p^2, so it is one big-integer product with
    # that many bits per coefficient (Kronecker substitution)
    bits = (n * p * p).bit_length()
    mask = (1 << bits) - 1

    def pack(a):
        return sum(c << (bits * i) for i, c in enumerate(a))

    def mulmod(a, b):
        prod = pack(a) * pack(b)
        out = []
        while prod:
            out.append(prod & mask)
            prod >>= bits
        return dense_divmod(out, f, p)[1]

    def x_pow_minus_x(k: int):
        # x^(p^k) - x mod f, by binary powering on the exponent
        e = p**k
        base = dense_divmod([0, 1], f, p)[1]
        result = [1]
        while e:
            if e & 1:
                result = mulmod(result, base)
            e >>= 1
            if e:
                base = mulmod(base, base)
        result = result + [0] * (2 - len(result))
        result[1] -= 1
        return dense_divmod(result, f, p)[1]

    # Rabin: f irreducible iff x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x, f) = 1
    # for every prime q dividing n
    if x_pow_minus_x(n):
        return False
    return all(len(dense_gcd(f, x_pow_minus_x(n // q), p)) == 1
               for q in _prime_divisors(n))


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def exact_rational_roots(coeffs: Sequence[Fraction]
                         ) -> tuple[list[Fraction], int]:
    """All rational roots of a squarefree polynomial, ascending, and its
    number of distinct real roots."""
    ints = primitive_integer_form(coeffs)
    if len(ints) <= 1:
        return [], 0
    lead = ints[-1]
    # a rational root in lowest terms has a denominator dividing the leading
    # coefficient, so it is k/lead for an integer k; a bracket (lo, hi]
    # narrower than 1/lead holds at most one such point, floor(hi*lead)/lead
    roots = []
    brackets = isolate_real_roots(ints, Fraction(1, 2 * lead))
    for lo, hi in brackets:
        if lo == hi:
            roots.append(lo)
            continue
        # the bracket's root lies in (lo, hi]; lo itself may be the root of
        # the bracket below
        cand = Fraction(hi.numerator * lead // hi.denominator, lead)
        if cand > lo and _sign_at(ints, cand) == 0:
            roots.append(cand)
    return roots, len(brackets)


def squarefree_decomposition(coeffs: Sequence[Fraction]):
    """Yield (squarefree factor, multiplicity) with multiplicities ascending;
    each factor is primitive with a positive leading coefficient."""
    f = dense_trim(coeffs)
    if len(f) <= 1:
        return []
    out = []
    # Yun's algorithm on the integer form of f; its first step, f and f'
    # over gcd(f, f'), is the head of the Sturm chain.  Dividing b and d by
    # the same gcd keeps d = c - b' exact whatever the gcd's scale
    b, c = sturm_chain(f, 2)
    i = 1
    while len(b) > 1:
        d = [ci - cj
             for ci, cj in zip_longest(c, dense_derivative(b), fillvalue=0)]
        g = dense_gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b, _ = dense_divmod(b, g)
        c, _ = dense_divmod(d, g)
        i += 1
    return out


def factor_rational(coeffs: Sequence[Fraction]) -> list[Factor]:
    """Split off every rational root; certify cofactors where feasible.

    Returns integer-primitive factors with positive leading coefficients
    and their multiplicities.  The product of factors^multiplicities equals
    the input up to a nonzero rational scalar.  Each rational root is one
    real root, and the cofactor keeps the real roots left over.
    """
    out: list[Factor] = []
    for sqfree, mult in squarefree_decomposition(coeffs):
        # a primitive factor over a primitive linear one stays primitive
        # with a positive leading coefficient (Gauss's lemma)
        remaining = sqfree
        roots, real_roots = exact_rational_roots(sqfree)
        for root in roots:
            num, den = root.numerator, root.denominator
            remaining, rem = dense_divmod(remaining, [-num, den])
            assert not rem
            out.append(Factor((Fraction(-num), Fraction(den)), mult, True, 1))
        if len(remaining) > 1:
            cert: bool | None = None
            if len(remaining) <= 4:
                # no rational roots were left, so degree <= 3 is irreducible
                cert = True
            elif any(mod_p_irreducible(remaining, p) for p in _WITNESS_PRIMES):
                cert = True
            out.append(Factor(tuple(Fraction(c) for c in remaining), mult,
                              cert, real_roots - len(roots)))
    return out
