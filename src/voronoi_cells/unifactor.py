"""Factoring univariate rational polynomials without integer factorization.

Yun's algorithm splits the input into squarefree factors; its first step,
f and f' over gcd(f, f'), is the head of the Sturm chain that
``exactmath.sturm`` builds from the same Euclid run.  By the rational root
theorem a rational root of a factor is k/a for an integer k, where a is
the leading coefficient of its primitive integer form, so each real root
is isolated in a bracket narrower than 1/a and the one such point in it
is verified exactly.  What remains after deflation is certified
irreducible either by degree arguments or by irreducibility modulo a
prime; otherwise it is returned unsplit and unlabelled.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactmath.sturm import (
    _integer_form,
    dense_derivative,
    dense_divmod,
    dense_eval,
    dense_gcd,
    dense_trim,
    isolate_real_roots,
    sturm_chain,
)

_WITNESS_PRIMES = (10007, 10009, 31337, 65537, 94693)


@dataclass(frozen=True)
class Factor:
    """One factor of a squarefree polynomial, low-degree-first coefficients.

    ``certified_irreducible`` is True when irreducibility was proved, and
    None when the cofactor was simply left unsplit.
    """

    coefficients: tuple[Fraction, ...]
    multiplicity: int
    certified_irreducible: bool | None

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def primitive_integer_form(coeffs: Sequence[Fraction]) -> list[int]:
    """Integer coefficients with content 1 and positive leading coefficient."""
    ints = _integer_form(dense_trim(coeffs))
    return [-v for v in ints] if ints and ints[-1] < 0 else ints


def mod_p_irreducible(int_coeffs: Sequence[int], p: int) -> bool | None:
    """Rabin's test modulo p; None when p divides the leading coefficient."""
    coeffs = [c % p for c in int_coeffs]
    if coeffs[-1] == 0:
        return None
    n = len(coeffs) - 1
    if n <= 0:
        return None
    inv_lead = pow(coeffs[-1], p - 2, p)
    f = [c * inv_lead % p for c in coeffs]

    def mulmod(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % p
        return _polymod(out)

    def _polymod(a):
        a = list(a)
        while len(a) > n:
            c = a.pop()
            if c:
                shift = len(a) - n
                for i in range(n):
                    a[shift + i] = (a[shift + i] - c * f[i]) % p
        return dense_trim(a) or [0]

    def xpow_pk(k: int):
        # x^(p^k) mod f by binary powering on the exponent
        e = p**k
        base = _polymod([0, 1])
        result = [1]
        while e:
            if e & 1:
                result = mulmod(result, base)
            e >>= 1
            if e:
                base = mulmod(base, base)
        return result

    def gcd_p(a, b):
        a = dense_trim([c % p for c in a])
        b = dense_trim([c % p for c in b])
        while b:
            inv = pow(b[-1], p - 2, p)
            r = a[:]
            while len(r) >= len(b):
                c = r[-1] * inv % p
                if c:
                    shift = len(r) - len(b)
                    for i in range(len(b) - 1):
                        r[shift + i] = (r[shift + i] - c * b[i]) % p
                r.pop()
            a, b = b, dense_trim(r)
        return a

    # Rabin: f irreducible iff x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x, f) = 1
    # for every prime q dividing n
    xres = _polymod([0, 1])

    def sub_x(h):
        size = max(len(h), len(xres))
        out = [0] * size
        for i, c in enumerate(h):
            out[i] = c % p
        for i, c in enumerate(xres):
            out[i] = (out[i] - c) % p
        return out

    if any(sub_x(xpow_pk(n))):
        return False
    for q in _prime_divisors(n):
        g = gcd_p(sub_x(xpow_pk(n // q)), f)
        if len(g) - 1 != 0:
            return False
    return True


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


def exact_rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of a squarefree polynomial, ascending."""
    ints = primitive_integer_form(coeffs)
    if len(ints) <= 1:
        return []
    lead = ints[-1]
    # a rational root in lowest terms has a denominator dividing the leading
    # coefficient, so it is k/lead for an integer k; a bracket (lo, hi]
    # narrower than 1/lead holds at most one such point, floor(hi*lead)/lead
    fracs = [Fraction(c) for c in ints]
    roots = []
    for lo, hi in isolate_real_roots(fracs, Fraction(1, 2 * lead)):
        if lo == hi:
            roots.append(lo)
            continue
        # the bracket's root lies in (lo, hi]; lo itself may be the root of
        # the bracket below
        cand = Fraction(hi.numerator * lead // hi.denominator, lead)
        if cand > lo and dense_eval(fracs, cand) == 0:
            roots.append(cand)
    return roots


def squarefree_decomposition(coeffs: Sequence[Fraction]):
    """Yield (squarefree factor, multiplicity) with multiplicities ascending."""
    f = dense_trim(coeffs)
    if len(f) <= 1:
        return []
    out = []
    # Yun's algorithm; its first step, f and f' over gcd(f, f'), is the head
    # of the Sturm chain
    b, c = sturm_chain(f, 2)
    d = [ci - cj for ci, cj in _pad(c, dense_derivative(b))]
    i = 1
    while len(b) > 1:
        g = dense_gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b, _ = dense_divmod(b, g)
        c, _ = dense_divmod(d, g)
        d = [ci - cj for ci, cj in _pad(c, dense_derivative(b))]
        i += 1
    return out


def _pad(a, b):
    la, lb = list(a), list(b)
    size = max(len(la), len(lb))
    la += [Fraction(0)] * (size - len(la))
    lb += [Fraction(0)] * (size - len(lb))
    return zip(la, lb)


def factor_rational(coeffs: Sequence[Fraction]) -> list[Factor]:
    """Split off every rational root; certify cofactors where feasible.

    Returns monic-scaled integer-primitive factors with multiplicities.
    The product of factors^multiplicities equals the input up to a nonzero
    rational scalar.
    """
    out: list[Factor] = []
    for sqfree, mult in squarefree_decomposition(coeffs):
        remaining = list(sqfree)
        for root in exact_rational_roots(sqfree):
            linear = [-root, Fraction(1)]
            remaining, rem = dense_divmod(remaining, linear)
            assert not rem
            num, den = root.numerator, root.denominator
            out.append(Factor((Fraction(-num), Fraction(den)), mult, True))
        remaining = dense_trim(remaining)
        if len(remaining) > 1:
            ints = primitive_integer_form(remaining)
            cert: bool | None = None
            degree = len(ints) - 1
            if degree <= 3:
                # no rational roots were left, so degree <= 3 is irreducible
                cert = True
            else:
                for p in _WITNESS_PRIMES:
                    res = mod_p_irreducible(ints, p)
                    if res is True:
                        cert = True
                        break
            out.append(Factor(tuple(Fraction(c) for c in ints), mult, cert))
    return out
