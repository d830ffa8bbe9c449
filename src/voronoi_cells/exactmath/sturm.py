"""Real-root counting and isolation for univariate rational polynomials.

Polynomials here are dense coefficient lists ``[c0, c1, ..., cd]`` over
``Fraction`` (low degree first).  One Euclid run of f against f' is the
single source of the squarefree work: divided by the monic gcd(f, f'), its
members are a Sturm sequence of the squarefree part, the first member is
that squarefree part, and the first two start Yun's squarefree
decomposition in ``unifactor``.  Counting uses the chain on half-open
intervals ``(a, b]``; isolation bisects inside a Cauchy bound and refines
each bracket below a requested width.  A root hit exactly by an endpoint is
reported as a degenerate bracket ``(r, r)``.

Signs come from integer evaluation: each chain member is scaled once to
integer coefficients with content 1 (a positive multiple, so its signs are
unchanged), and its sign at x = a/b is the sign of b^d * P(a/b), computed
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


def dense_from_poly(f: Polynomial, var: int | None = None) -> list[Fraction]:
    """Dense coefficients of a polynomial using at most one variable."""
    used = f.variables_used()
    if len(used) > 1:
        raise ValueError("polynomial is not univariate")
    if var is None:
        var = used[0] if used else 0
    elif used and used[0] != var:
        raise ValueError("polynomial uses a different variable")
    out = [Fraction(0)] * (f.degree_in(var) + 1 if not f.is_zero() else 1)
    for mon, c in f.terms.items():
        out[mon[var]] = Fraction(c)
    return out


def dense_trim(coeffs: Sequence[Fraction]) -> list[Fraction]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def dense_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def dense_derivative(coeffs: Sequence[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(coeffs)][1:] or [Fraction(0)]


def dense_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    b = dense_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dense_trim(a)
    db = len(b) - 1
    lb = b[-1]
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        shift = len(rem) - 1 - db
        factor = rem[-1] / lb
        quot[shift] = factor
        for i in range(db + 1):
            rem[shift + i] -= factor * b[i]
        rem = dense_trim(rem)
    return quot, rem


def dense_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd via the Euclidean algorithm."""
    a, b = dense_trim(a), dense_trim(b)
    while b:
        _, r = dense_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree_part(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """f / gcd(f, f') with the gcd made monic; the head of the Sturm chain."""
    f = dense_trim(coeffs)
    return sturm_chain(f, 1)[0] if len(f) > 1 else f


def sturm_chain(coeffs: Sequence[Fraction],
                members: int | None = None) -> list[list[Fraction]]:
    """Sturm sequence of the squarefree part; first entry has the original roots.

    One Euclid run of f against f' gives f, f' and the negated remainders,
    the last of them gcd(f, f') up to a scalar.  When the gcd is constant
    that is the chain.  Otherwise every member is divided by the monic gcd:
    consecutive quotients are coprime and the last is constant, so they
    form a Sturm sequence of the squarefree part f / gcd (Yun 1976) and
    count its distinct roots on every half-open interval.  ``members``
    keeps only the head of the chain: one member is the squarefree part,
    two are the first step of Yun's squarefree decomposition.
    """
    f = dense_trim(coeffs)
    if len(f) <= 1:
        return [f] if f else []
    chain = [f, dense_trim(dense_derivative(f))]
    while len(chain[-1]) > 1:
        _, r = dense_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    g = chain[-1]
    chain = chain[:members]
    if len(g) == 1:
        return chain
    lead = g[-1]
    g = [c / lead for c in g]
    return [dense_trim(dense_divmod(p, g)[0]) for p in chain]


def _integer_form(coeffs: Sequence[Fraction]) -> list[int]:
    """The positive multiple with integer coefficients and content 1."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    content = gcd(*ints)
    return [v // content for v in ints] if content > 1 else ints


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


def _count(forms, a: Fraction, b: Fraction) -> int:
    if a >= b:
        return 0
    return _variations(forms, a) - _variations(forms, b)


def count_roots(chain, a: Fraction, b: Fraction) -> int:
    """Distinct real roots in the half-open interval (a, b]."""
    return _count([_integer_form(p) for p in chain], a, b)


def cauchy_bound(coeffs: Sequence[Fraction]) -> Fraction:
    coeffs = dense_trim(coeffs)
    if len(coeffs) <= 1:
        return Fraction(1)
    lead = coeffs[-1]
    biggest = max(abs(c / lead) for c in coeffs[:-1])
    return 1 + biggest


def isolate_real_roots(coeffs: Sequence[Fraction], precision: Fraction = Fraction(1, 2**20)):
    """Disjoint brackets for every distinct real root, ascending.

    Each bracket (lo, hi) satisfies lo <= root <= hi and hi - lo <= precision;
    a root known exactly is returned as (r, r).  Bisection starts from the
    symmetric bracket (-B, B] with B >= 2, so its first split is at 0: for
    a precision below 4 no bracket has 0 strictly inside (lo < 0 < hi never
    holds).
    """
    chain = sturm_chain(coeffs)
    if len(chain) < 2:  # zero or a constant
        return []
    f = chain[0]
    chain = [_integer_form(p) for p in chain]
    bound = cauchy_bound(f) + 1
    total = _count(chain, -bound, bound)
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
        left = _count(chain, lo, mid)
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
            in_left = _count(chain, lo, mid) == 1
        if in_left:
            hi = mid
        else:
            lo, s_lo = mid, s_mid
    if _sign_at(f, hi) == 0:
        return (hi, hi)
    return (lo, hi)


def count_real_roots(coeffs: Sequence[Fraction]) -> int:
    """Number of distinct real roots."""
    chain = sturm_chain(coeffs)
    if len(chain) < 2:  # zero or a constant
        return 0
    bound = cauchy_bound(chain[0]) + 1
    return count_roots(chain, -bound, bound)
