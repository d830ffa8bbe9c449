"""Dense univariate arithmetic over Z and F_p, and real roots over Q.

Polynomials here are dense coefficient lists ``[c0, c1, ..., cd]`` (low
degree first).  A rational input is scaled once, by ``_integer_form``, to
the positive multiple with integer coefficients and content 1; from there
on every list holds integers.  ``dense_divmod`` and ``dense_gcd`` are the
one division and the one gcd: over Z (``p = 0``) the division scales by the
smallest positive pre-multiplier, so its remainder is a positive multiple
of the rational one, and the gcd runs a primitive remainder sequence; over
F_p (``p`` a prime) coefficients are reduced mod p and the gcd is monic.

One Euclid run of f against f' is the single source of the squarefree
work: divided by gcd(f, f') made primitive, its members are a Sturm
sequence of the squarefree part, the first member is that squarefree part,
and the first two start Yun's squarefree decomposition in ``unifactor``.
Counting uses the chain on half-open intervals ``(a, b]``; isolation
bisects inside a Cauchy bound and refines each bracket below a requested
width.  A root hit exactly by an endpoint is reported as a degenerate
bracket ``(r, r)``.

Every member is a positive multiple of its counterpart over Q, so signs
are unchanged; the sign at x = a/b is the sign of b^d * P(a/b), computed
in integers.  Inside a single-root bracket refinement bisects on the sign
of the squarefree polynomial alone, which changes sign at each of its
simple roots; only a bracket whose lower end is itself a root falls back to
the chain count.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .poly import Polynomial


def dense_from_poly(f: Polynomial) -> list[Fraction]:
    """Dense coefficients of a polynomial using at most one variable."""
    used = f.variables_used()
    if len(used) > 1:
        raise ValueError("polynomial is not univariate")
    var = used[0] if used else 0
    out = [Fraction(0)] * (f.degree_in(var) + 1 if not f.is_zero() else 1)
    for mon, c in f.terms.items():
        out[mon[var]] = Fraction(c)
    return out


def dense_trim(coeffs: Sequence) -> list:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def dense_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def dense_derivative(coeffs: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:] or [0]


def _integer_form(coeffs: Sequence) -> list[int]:
    """The positive multiple with integer coefficients and content 1."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    content = gcd(*ints)
    return [v // content for v in ints] if content > 1 else ints


def primitive_integer_form(coeffs: Sequence) -> list[int]:
    """Integer coefficients with content 1 and positive leading coefficient."""
    ints = _integer_form(dense_trim(coeffs))
    return [-v for v in ints] if ints and ints[-1] < 0 else ints


def dense_divmod(a: Sequence[int], b: Sequence[int], p: int = 0):
    """Quotient and remainder of integer lists, over Z or, for p > 0, F_p.

    Over Z each step first scales the running remainder by the smallest
    m > 0 that makes its leading coefficient a multiple of b's, so the
    result is M*a = q*b + r for one M > 0: r is a positive multiple of the
    rational remainder, and M = 1 when b is primitive and divides a.  Over
    F_p a step reduces only the leading coefficient it reads, and the
    remainder is reduced once at the end.
    """
    if p:
        a, b = [c % p for c in a], [c % p for c in b]
    b = dense_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dense_trim(a)
    db = len(b) - 1
    lb = b[-1]
    inv = pow(lb, -1, p) if p else 0
    quot = [0] * max(len(rem) - db, 0)
    while len(rem) > db:
        c = rem.pop() % p if p else rem.pop()
        if not c:
            continue
        shift = len(rem) - db
        if p:
            factor = c * inv % p
        else:
            m = abs(lb) // gcd(c, lb)
            if m > 1:
                rem = [m * r for r in rem]
                quot = [m * q for q in quot]
            factor = c * m // lb
        rem[shift:] = [r - factor * bi for r, bi in zip(rem[shift:], b)]
        quot[shift] = factor
    if p:
        rem = [r % p for r in rem]
    return quot, dense_trim(rem)


def dense_gcd(a: Sequence[int], b: Sequence[int], p: int = 0) -> list[int]:
    """gcd of integer lists: primitive with a positive leading coefficient
    over Z, from a primitive remainder sequence; monic over F_p."""
    if p:
        a, b = [c % p for c in a], [c % p for c in b]
    a, b = dense_trim(a), dense_trim(b)
    while b:
        _, r = dense_divmod(a, b, p)
        a, b = b, (r if p else _integer_form(r))
    if not p:
        return primitive_integer_form(a)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def squarefree_part(coeffs: Sequence) -> list[int]:
    """f / gcd(f, f') in integer form; the head of the Sturm chain."""
    chain = sturm_chain(coeffs, 1)
    return chain[0] if chain else []


def sturm_chain(coeffs: Sequence, members: int | None = None) -> list[list[int]]:
    """Sturm sequence of the squarefree part; first entry has the original roots.

    One Euclid run of f against f' gives f, f' and the negated remainders,
    each made primitive, the last of them gcd(f, f') up to a scalar.  When
    the gcd is constant that is the chain.  Otherwise every member is
    divided by the gcd made primitive: consecutive quotients are coprime and
    the last is constant, so they form a Sturm sequence of the squarefree
    part f / gcd (Yun 1976) and count its distinct roots on every half-open
    interval.  ``members`` keeps only the head of the chain: one member is
    the squarefree part, two are the first step of Yun's squarefree
    decomposition.  Members are integer lists, each a positive multiple of
    its counterpart over Q.
    """
    f = _integer_form(dense_trim(coeffs))
    if len(f) <= 1:
        return [f] if f else []
    # f' stays the exact derivative of f: Yun's step needs the pair as is
    chain = [f, dense_derivative(f)]
    while len(chain[-1]) > 1:
        _, r = dense_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_integer_form([-c for c in r]))
    g = chain[-1]
    chain = chain[:members]
    if len(g) == 1:
        return chain
    g = primitive_integer_form(g)
    return [dense_divmod(p, g)[0] for p in chain]


def _sign_at(form: Sequence[int], x: Fraction) -> int:
    """Sign of an integer polynomial at x = a/b, read from b^d * P(a/b)."""
    a, b = x.numerator, x.denominator
    v = 0
    bpow = 1
    for c in reversed(form):
        v = v * a + c * bpow
        bpow *= b
    return (v > 0) - (v < 0)


def _variations(forms, x: Fraction) -> int:
    count = 0
    last = 0
    for form in forms:
        s = _sign_at(form, x)
        if s:
            if last and s != last:
                count += 1
            last = s
    return count


def count_roots(chain, a: Fraction, b: Fraction) -> int:
    """Distinct real roots in the half-open interval (a, b]."""
    if a >= b:
        return 0
    return _variations(chain, a) - _variations(chain, b)


def cauchy_bound(coeffs: Sequence) -> Fraction:
    coeffs = dense_trim(coeffs)
    if len(coeffs) <= 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in coeffs[:-1]), abs(coeffs[-1]))


def isolate_real_roots(coeffs: Sequence, precision: Fraction = Fraction(1, 2**20)):
    """Disjoint brackets for every distinct real root, ascending.

    Each bracket (lo, hi) satisfies lo <= root <= hi and hi - lo <= precision;
    a root known exactly is returned as (r, r).  Bisection starts from the
    symmetric bracket (-B, B] with B >= 2, so its first split is at 0: for
    a precision below 4 no bracket has 0 strictly inside (lo < 0 < hi never
    holds).  A precision that is not positive raises ValueError.
    """
    if precision <= 0:
        raise ValueError("precision must be positive")
    chain = sturm_chain(coeffs)
    if len(chain) < 2:  # zero or a constant
        return []
    bound = cauchy_bound(chain[0]) + 1
    total = count_roots(chain, -bound, bound)
    if total == 0:
        return []
    found = []
    # stack entries are half-open (lo, hi] with a known positive root count
    stack = [(-bound, bound, total)]
    while stack:
        lo, hi, k = stack.pop()
        if k == 1:
            found.append(_refine(chain, lo, hi, precision))
            continue
        mid = (lo + hi) / 2
        left = count_roots(chain, lo, mid)
        right = k - left
        if left:
            stack.append((lo, mid, left))
        if right:
            stack.append((mid, hi, right))
    found.sort()
    return found


def _refine(chain, lo: Fraction, hi: Fraction, precision: Fraction):
    """Shrink a single-root half-open bracket (lo, hi] below the target width.

    chain[0] is squarefree, so while f(lo) != 0 the root lies in (lo, mid)
    exactly when f(mid) has the other sign; a root at lo needs the chain.
    """
    f = chain[0]
    s_lo = _sign_at(f, lo)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        s_mid = _sign_at(f, mid)
        if s_mid == 0:
            return (mid, mid)
        if s_lo:
            in_left = s_mid != s_lo
        else:
            in_left = count_roots(chain, lo, mid) == 1
        if in_left:
            hi = mid
        else:
            lo, s_lo = mid, s_mid
    if _sign_at(f, hi) == 0:
        return (hi, hi)
    return (lo, hi)


def count_real_roots(coeffs: Sequence) -> int:
    """Number of distinct real roots."""
    chain = sturm_chain(coeffs)
    if len(chain) < 2:  # zero or a constant
        return 0
    bound = cauchy_bound(chain[0]) + 1
    return count_roots(chain, -bound, bound)
