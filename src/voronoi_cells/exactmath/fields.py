"""Coefficient fields for exact polynomial arithmetic.

Two fields are supported: the rationals (elements are `fractions.Fraction`,
which keeps every value reduced with a positive denominator) and prime fields
F_p (elements are plain ints canonicalized into ``range(p)``).  Field objects
carry the arithmetic; elements stay as raw Python values so hot loops can
work on them directly.
"""
from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def _is_prime(p: int) -> bool:
    # deterministic Miller-Rabin, exact for anything below 3.3 * 10^24
    if p < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % small == 0:
            return p == small
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q.  Elements are `Fraction` values."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def pow(self, a, e: int):
        return a ** e

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero in Q")
        return 1 / a

    def coerce(self, value) -> Fraction:
        """Turn an int / Fraction / decimal-free string into a field element."""
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise FieldError(f"cannot coerce {value!r} into Q")

    def literal(self, num: int, den: int = 1) -> Fraction:
        if den == 0:
            raise FieldError("rational literal with zero denominator")
        return Fraction(num, den)

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p.  Elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def pow(self, a, e: int):
        return pow(a, e, self.p)

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise FieldError(f"division by zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.literal(value.numerator, value.denominator)
        if isinstance(value, str):
            return self.coerce(Fraction(value))
        raise FieldError(f"cannot coerce {value!r} into F_{self.p}")

    def literal(self, num: int, den: int = 1) -> int:
        if den % self.p == 0:
            raise FieldError(f"literal denominator {den} vanishes in F_{self.p}")
        return num * self.inv(den) % self.p

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_name(name: str):
    """Inverse of ``field.name``: "Q" -> QQ, "Fp:32003" -> PrimeField(32003)."""
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        return PrimeField(int(name[3:]))
    raise FieldError(f"unknown field name {name!r}")
