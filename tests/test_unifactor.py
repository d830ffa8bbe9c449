"""Rational root extraction and irreducibility certificates."""
import random
from fractions import Fraction
from math import isqrt

from voronoi_cells.exactmath import PolyRing, parse_polynomial
from voronoi_cells.exactmath.sturm import (
    count_real_roots,
    dense_from_poly,
    isolate_real_roots,
)
from voronoi_cells.unifactor import (
    Factor,
    exact_rational_roots,
    factor_rational,
    mod_p_irreducible,
    primitive_integer_form,
    squarefree_decomposition,
)


def dense(text):
    ring = PolyRing(("u",))
    return dense_from_poly(parse_polynomial(text, ring))


def _proper_divisors(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({d for s in small for d in (s, n // s)} - {n})


class TestPlantedRationalRoots:
    """A rational root in lowest terms is k/a for the leading coefficient a
    of the primitive integer form, so each bracket narrower than 1/a is
    checked at its one such point; the brackets also count the real roots."""

    def test_denominators_that_properly_divide_the_leading_coefficient(self):
        rng = random.Random(20)
        ring = PolyRing(("u",))
        u = ring.variable("u")
        for _ in range(60):
            lead = rng.randint(2, 10**6)
            rest, roots, f = lead, set(), ring.one()
            for _ in range(rng.randint(1, 3)):
                q = rng.choice(_proper_divisors(rest) or [1])
                k = rng.randint(-3 * q, 3 * q)
                root = Fraction(k, q)
                if root.denominator != q or root in roots:
                    continue
                roots.add(root)
                f = f * (q * u - k)
                rest //= q
            # an irreducible quadratic, content 1, carries the rest of lead
            c = rng.choice((1, -1))
            b = rng.randint(-50, 50)
            while (disc := b * b - 4 * rest * c) >= 0 and isqrt(disc) ** 2 == disc:
                b += 1
            f = f * (rest * u**2 + b * u + c)
            coeffs = dense_from_poly(f)
            assert primitive_integer_form(coeffs)[-1] == lead
            real = len(roots) + (2 if disc > 0 else 0)
            assert exact_rational_roots(coeffs) == (sorted(roots), real)

    def test_root_on_a_bisection_point_and_at_the_next_open_end(self):
        # (3u - 2)(2u^2 - 1) has leading coefficient 6: the root 2/3, whose
        # denominator properly divides 6, is hit exactly by a bisection
        # point, and it is also the excluded lower end of the bracket of
        # 1/sqrt(2), whose one candidate k/6 in (2/3, 3/4] does not exist
        f = dense("(3*u - 2) * (2*u^2 - 1)")
        brackets = isolate_real_roots(f, Fraction(1, 12))
        assert (Fraction(2, 3), Fraction(2, 3)) in brackets
        assert (Fraction(2, 3), Fraction(3, 4)) in brackets
        assert exact_rational_roots(f) == ([Fraction(2, 3)], 3)
        # u(u - 2)(u^2 + 1) has Cauchy bracket (-4, 4]: both roots are
        # bisection points
        f = dense("u * (u - 2) * (u^2 + 1)")
        brackets = isolate_real_roots(f, Fraction(1, 2))
        assert {(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))} <= \
            set(brackets)
        assert exact_rational_roots(f) == ([0, 2], 2)


class TestRationalRoots:
    def test_integer_and_fractional_roots(self):
        # roots 1/2, -3, 0 with leading coefficient 2
        f = dense("2*u^3 + 5*u^2 - 3*u")
        assert exact_rational_roots(f) == (
            [Fraction(-3), Fraction(0), Fraction(1, 2)], 3)

    def test_no_rational_roots(self):
        assert exact_rational_roots(dense("u^2 - 2")) == ([], 2)
        assert exact_rational_roots(dense("u^2 + 1")) == ([], 0)

    def test_close_rational_roots_are_separated(self):
        # roots at 100/101 and 101/102 differ by about 1e-4
        f = dense("(101*u - 100) * (102*u - 101)")
        assert exact_rational_roots(f) == (
            [Fraction(100, 101), Fraction(101, 102)], 2)

    def test_root_at_the_open_end_of_the_next_bracket(self):
        # (u + 1)(u^2 - 3u - 3): the bracket (-1, -1/2] of the root near
        # -0.79 has the rational root -1 at its excluded lower end
        f = dense("u^3 - 2*u^2 - 6*u - 3")
        assert exact_rational_roots(f) == ([-1], 3)
        factors = factor_rational(dense("(u + 1)^2 * (u^2 - 3*u - 3)^2"))
        assert sorted((f.degree, f.multiplicity) for f in factors) == [
            (1, 2), (2, 2)]

    def test_randomized_reconstruction(self):
        rng = random.Random(55)
        ring = PolyRing(("u",))
        u = ring.variable("u")
        for _ in range(30):
            roots = set()
            while len(roots) < rng.randint(1, 3):
                roots.add(Fraction(rng.randint(-8, 8), rng.randint(1, 6)))
            f = ring.one()
            for r in roots:
                f = f * (r.denominator * u - r.numerator)
            if rng.random() < 0.5:
                f = f * parse_polynomial("u^2 + u + 1", ring)  # no real roots
            coeffs = dense_from_poly(f)
            assert exact_rational_roots(coeffs) == (sorted(roots), len(roots))
            factors = factor_rational(coeffs)
            assert sum(fac.real_roots for fac in factors) == len(roots)


class TestPrimitiveForm:
    def test_scales_and_orients(self):
        f = [Fraction(3, 2), Fraction(-9, 4), Fraction(-3)]
        assert primitive_integer_form(f) == [-2, 3, 4]

    def test_zero(self):
        assert primitive_integer_form([Fraction(0)]) == []


class TestModPIrreducible:
    def test_known_irreducible(self):
        # x^4 + x + 1 is irreducible mod 2... use odd witness primes instead
        assert mod_p_irreducible([1, 1, 0, 0, 1], 10007) in (True, False)
        # x^4 - 10*x^2 + 1 (minimal poly of sqrt2+sqrt3) is reducible mod
        # every prime, so the certificate must never claim irreducibility
        for p in (10007, 10009, 31337, 65537, 94693):
            assert mod_p_irreducible([1, 0, -10, 0, 1], p) is False

    def test_linear_and_lead_vanishing(self):
        assert mod_p_irreducible([3, 1], 10007) is True
        assert mod_p_irreducible([1, 10007], 10007) is None

    def test_products_are_reducible(self):
        rng = random.Random(77)
        p = 31337
        for _ in range(20):
            a = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
            b = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
            prod = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                for j, cb in enumerate(b):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
            assert mod_p_irreducible(prod, p) is False


class TestFactorRational:
    def reassemble(self, factors, degree):
        total = 0
        for f in factors:
            total += f.degree * f.multiplicity
        return total == degree

    def test_cuspidal_boundary_quadratic(self):
        # the quadratic component with no real roots stays whole and certified
        factors = factor_rational(dense("27*u^2 - 486*u + 2197"))
        assert len(factors) == 1
        f = factors[0]
        assert f.degree == 2 and f.multiplicity == 1
        assert f.certified_irreducible is True
        assert list(f.coefficients) == [2197, -486, 27]
        assert f.real_roots == 0

    def test_splits_linear_times_quadratic(self):
        # (u + 8)(u - 10)(27u^2 - 54u + 37) after shifting the cusp example
        factors = factor_rational(dense("(u + 8) * (u - 10) * (27*u^2 - 54*u + 37)"))
        degs = sorted(f.degree for f in factors)
        assert degs == [1, 1, 2]
        assert all(f.certified_irreducible for f in factors)
        assert self.reassemble(factors, 4)
        assert sorted((f.degree, f.real_roots) for f in factors) == [
            (1, 1), (1, 1), (2, 0)]

    def test_cofactor_keeps_the_real_roots_left_over(self):
        # one squarefree factor, three real roots: the rational root takes
        # one, and the unsplit quartic (u^2 - 2)(u^2 + 1) keeps the other two
        f = dense("(u - 1) * (u^2 - 2) * (u^2 + 1)")
        factors = factor_rational(f)
        assert [(fac.degree, fac.real_roots) for fac in factors] == [
            (1, 1), (4, 2)]
        assert sum(fac.real_roots for fac in factors) == count_real_roots(f)

    def test_multiplicities(self):
        factors = factor_rational(dense("(u - 1)^2 * (2*u + 3)"))
        by_mult = {f.multiplicity: f for f in factors}
        assert list(by_mult[2].coefficients) == [-1, 1]
        assert list(by_mult[1].coefficients) == [3, 2]

    def test_unsplit_quartic_keeps_none_flag(self):
        # swinnerton-dyer style: reducible mod every prime, no rational roots,
        # degree 4, so the certificate must stay undecided or prove otherwise
        factors = factor_rational(dense("u^4 - 10*u^2 + 1"))
        assert len(factors) == 1
        assert factors[0].degree == 4
        assert factors[0].certified_irreducible is None
        assert factors[0].real_roots == 4

    def test_high_degree_irreducible_certified(self):
        factors = factor_rational(dense("u^4 + u + 1"))
        assert len(factors) == 1
        assert factors[0].certified_irreducible is True

    def test_squarefree_decomposition(self):
        parts = squarefree_decomposition(dense("(u - 2)^3 * (u^2 + 1)"))
        mults = sorted(m for _, m in parts)
        assert mults == [1, 3]
