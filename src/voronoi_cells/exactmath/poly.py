"""Sparse multivariate polynomials over an exact field.

A ring fixes the variable names, the coefficient field and the monomial
order.  A polynomial is a term map ``{exponent tuple: coefficient}``; zero
coefficients are never stored and iteration is available in descending
monomial order.  Polynomials are immutable by convention: every operation
returns a fresh object.
"""
from __future__ import annotations

from typing import Sequence

from .fields import QQ, FieldError, RationalField
from .orders import GREVLEX, MonomialOrder


class RingMismatchError(ValueError):
    pass


class PolyRing:
    """Polynomial ring descriptor: variables, field, monomial order."""

    def __init__(self, variables: Sequence[str], field=QQ, order: MonomialOrder = GREVLEX):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.variables = variables
        self.field = field
        self.order = order
        self.nvars = len(variables)
        self._index = {name: i for i, name in enumerate(variables)}
        self._zero_mon = (0,) * self.nvars

    # -- constructors -----------------------------------------------------
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {self._zero_mon: self.field.one})

    def constant(self, value) -> "Polynomial":
        c = self.field.coerce(value)
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, {self._zero_mon: c})

    def variable(self, name_or_index) -> "Polynomial":
        if isinstance(name_or_index, str):
            if name_or_index not in self._index:
                raise ValueError(f"unknown variable {name_or_index!r}")
            i = self._index[name_or_index]
        else:
            i = int(name_or_index)
            if not 0 <= i < self.nvars:
                raise ValueError(f"variable index {i} out of range")
        mon = [0] * self.nvars
        mon[i] = 1
        return Polynomial(self, {tuple(mon): self.field.one})

    def linear(self, coeffs: Sequence, constant=0) -> "Polynomial":
        """The affine form sum coeffs[i] * x_i + constant, with one
        coefficient per variable, each coerced into the field."""
        if len(coeffs) != self.nvars:
            raise ValueError("need one coefficient per variable")
        coerce = self.field.coerce
        terms = {tuple(int(i == j) for j in range(self.nvars)): coerce(c)
                 for i, c in enumerate(coeffs)}
        terms[self._zero_mon] = coerce(constant)
        return self.from_terms(terms)

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(i) for i in range(self.nvars))

    def from_terms(self, terms: dict) -> "Polynomial":
        clean = {}
        zero = self.field.zero
        for mon, coeff in terms.items():
            if coeff != zero:
                clean[tuple(mon)] = coeff
        return Polynomial(self, clean)

    def index_of(self, name: str) -> int:
        return self._index[name]

    def key_desc(self, mon):
        return self.order.key_desc(mon)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.field == other.field
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.variables, self.field, self.order))

    def __repr__(self):
        return f"PolyRing({', '.join(self.variables)}; {self.field.name}; {self.order.name})"


class Polynomial:
    __slots__ = ("ring", "terms", "_sorted", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._sorted = None
        self._hash = None

    # -- inspection --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Terms as ((exponents, coeff), ...) in descending monomial order."""
        if self._sorted is None:
            key = self.ring.key_desc
            self._sorted = tuple(sorted(self.terms.items(), key=lambda t: key(t[0])))
        return self._sorted

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.sorted_terms()[0][0]

    def leading_coefficient(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.sorted_terms()[0][1]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(mon) for mon in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(mon[var] for mon in self.terms)

    def variables_used(self) -> tuple[int, ...]:
        used = set()
        for mon in self.terms:
            for i, e in enumerate(mon):
                if e:
                    used.add(i)
        return tuple(sorted(used))

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check(other)
        field = self.ring.field
        zero = field.zero
        out = dict(self.terms)
        for mon, c in other.terms.items():
            prev = out.get(mon)
            if prev is None:
                out[mon] = c
            else:
                v = field.add(prev, c)
                if v == zero:
                    del out[mon]
                else:
                    out[mon] = v
        return Polynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {mon: neg(c) for mon, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.ring.constant(other).__sub__(self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        field = self.ring.field
        zero = field.zero
        mul = field.mul
        add = field.add
        out: dict = {}
        for mon_a, ca in self.terms.items():
            for mon_b, cb in other.terms.items():
                mon = tuple(x + y for x, y in zip(mon_a, mon_b))
                prev = out.get(mon)
                if prev is None:
                    out[mon] = mul(ca, cb)
                else:
                    out[mon] = add(prev, mul(ca, cb))
        for mon in [m for m, c in out.items() if c == zero]:
            del out[mon]
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value) -> "Polynomial":
        field = self.ring.field
        c = field.coerce(value)
        if c == field.zero:
            return self.ring.zero()
        mul = field.mul
        return Polynomial(self.ring, {mon: mul(c, v) for mon, v in self.terms.items()})

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient()
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    # -- calculus / evaluation ----------------------------------------------
    def derivative(self, var) -> "Polynomial":
        """Partial derivative with respect to a variable (index or name)."""
        if isinstance(var, str):
            var = self.ring.index_of(var)
        field = self.ring.field
        zero = field.zero
        out: dict = {}
        for mon, c in self.terms.items():
            e = mon[var]
            if e == 0:
                continue
            coeff = field.mul(c, field.coerce(e))
            if coeff == zero:
                continue  # characteristic p can kill a term
            new = list(mon)
            new[var] = e - 1
            new = tuple(new)
            prev = out.get(new)
            out[new] = coeff if prev is None else field.add(prev, coeff)
        return Polynomial(self.ring, {m: c for m, c in out.items() if c != zero})

    def evaluate(self, point: Sequence):
        """Value at a full point; coordinates are coerced into the field."""
        field = self.ring.field
        if len(point) != self.ring.nvars:
            raise ValueError("point arity does not match the ring")
        vals = [field.coerce(v) for v in point]
        total = field.zero
        for mon, c in self.terms.items():
            term = c
            for i, e in enumerate(mon):
                if e:
                    term = field.mul(term, field.pow(vals[i], e))
            total = field.add(total, term)
        return total

    def compose(self, target: PolyRing, images: Sequence["Polynomial"]) -> "Polynomial":
        """Ring map: variable i goes to images[i] (a polynomial over ``target``)."""
        if len(images) != self.ring.nvars:
            raise ValueError("need one image per variable")
        for g in images:
            if g.ring != target:
                raise RingMismatchError("image polynomial in the wrong ring")
        if self.ring.field != target.field:
            raise RingMismatchError("composition cannot change the coefficient field")
        out = target.zero()
        cache: dict = {}
        for mon, c in self.terms.items():
            term = target.constant(c)
            for i, e in enumerate(mon):
                if not e:
                    continue
                key = (i, e)
                power = cache.get(key)
                if power is None:
                    power = images[i] ** e
                    cache[key] = power
                term = term * power
            out = out + term
        return out

    def map_ring(self, target: PolyRing, var_map: Sequence[int]) -> "Polynomial":
        """Reindex variables: source variable i becomes target variable var_map[i].

        Requires same field; every source variable actually used must be mapped
        (entries may be -1 for variables guaranteed absent).
        """
        if self.ring.field != target.field:
            raise RingMismatchError("cannot reindex into a different field")
        out: dict = {}
        for mon, c in self.terms.items():
            new = [0] * target.nvars
            for i, e in enumerate(mon):
                if e:
                    j = var_map[i]
                    if j < 0:
                        raise ValueError("polynomial uses a variable with no image")
                    new[j] = e
            out[tuple(new)] = c
        return Polynomial(target, out)

    # -- comparison / printing ----------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return self.is_zero()
            try:
                other = self.ring.constant(other)
            except (FieldError, ValueError, TypeError):
                return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        # computed once: polynomials are immutable
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        names = self.ring.variables
        rational = isinstance(field, RationalField)
        pieces = []
        for mon, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(mon):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            negative = rational and c < 0
            mag = -c if negative else c
            if factors:
                body = "*".join(factors)
                if mag != field.one:
                    body = f"{field.to_str(mag)}*{body}"
            else:
                body = field.to_str(mag)
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"<{self} over {self.ring.field.name}>"

