"""Fields, orders, polynomial arithmetic, parsing, and Sturm isolation."""
import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest

from voronoi_cells.exactmath import (
    GREVLEX,
    LEX,
    QQ,
    BlockElim,
    ParseError,
    PolyRing,
    PrimeField,
    count_real_roots,
    dense_from_poly,
    field_from_name,
    isolate_real_roots,
    parse_polynomial,
    squarefree_part,
)
from voronoi_cells.exactmath.parse import _MAX_NESTING
from voronoi_cells.exactmath.sturm import (
    cauchy_bound,
    count_roots,
    dense_divmod,
    dense_eval,
    dense_gcd,
    sturm_chain,
)


def ring(*names, field=QQ, order=GREVLEX):
    return PolyRing(names, field=field, order=order)


# the textbook comparisons, -1 / 0 / 1 as a is smaller / equal / bigger
def lex_cmp(a, b):
    for x, y in zip(a, b):
        if x != y:
            return 1 if x > y else -1
    return 0


def grevlex_cmp(a, b):
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def block_cmp(k):
    def cmp(a, b):
        return grevlex_cmp(a[:k], b[:k]) or grevlex_cmp(a[k:], b[k:])
    return cmp


EXP_LIMIT = 1 << 23


class TestFields:
    def test_rational_ops(self):
        assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
        assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)
        assert QQ.coerce("3/4") == Fraction(3, 4)

    def test_prime_field_ops(self):
        F = PrimeField(32003)
        a = F.coerce(-1)
        assert a == 32002
        assert F.mul(F.inv(5), 5) == 1
        # Fractions reduce via modular inverse of the denominator
        assert F.mul(F.coerce(Fraction(1, 3)), 3) == 1

    def test_prime_field_rejects_composites(self):
        with pytest.raises(Exception):
            PrimeField(32001)

    def test_field_from_name(self):
        assert field_from_name("Q") is QQ
        assert field_from_name("Fp:65537").p == 65537


class TestOrders:
    def test_lex_vs_grevlex(self):
        # x > y^5 in lex, x < y^5 in grevlex (degree first)
        x, y5 = (1, 0), (0, 5)
        assert LEX.key_asc(x) > LEX.key_asc(y5)
        assert GREVLEX.key_asc(x) < GREVLEX.key_asc(y5)

    def test_grevlex_ties_break_on_last_variable(self):
        # same degree: x*z < y^2 in grevlex on (x, y, z)
        assert GREVLEX.key_asc((1, 0, 1)) < GREVLEX.key_asc((0, 2, 0))

    def test_block_order_eliminates_head_block(self):
        order = BlockElim(1)
        # any power of the head variable beats the tail block
        assert order.key_asc((1, 0, 0)) > order.key_asc((0, 9, 9))
        assert BlockElim(1) == BlockElim(1)
        assert BlockElim(1) != BlockElim(2)

    def test_key_desc_is_reverse(self):
        mons = [(3, 0), (0, 3), (1, 1), (2, 0), (0, 0)]
        for order in (LEX, GREVLEX, BlockElim(1)):
            asc = sorted(mons, key=order.key_asc)
            desc = sorted(mons, key=order.key_desc)
            assert asc == desc[::-1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_keys_sort_like_the_textbook_orders(self, n):
        rng = random.Random(n)
        # small exponents force ties in the degree and in single fields;
        # large ones reach the top of the 24-bit fields
        pools = (range(3), range(EXP_LIMIT - 3, EXP_LIMIT),
                 range(EXP_LIMIT))
        mons = [tuple(rng.choice(rng.choice(pools)) for _ in range(n))
                for _ in range(300)]
        cases = [(LEX, lex_cmp), (GREVLEX, grevlex_cmp)]
        cases += [(BlockElim(k), block_cmp(k)) for k in range(n + 1)]
        for order, cmp in cases:
            asc = sorted(mons, key=order.key_asc)
            assert asc == sorted(mons, key=cmp_to_key(cmp)), order
            assert sorted(mons, key=order.key_desc) == asc[::-1], order

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_keys_are_affine_in_the_exponents(self, n):
        # the Groebner engine's signature keys rest on
        # key(a + b) = key(a) + key(b) - key(0)
        rng = random.Random(10 + n)
        half = EXP_LIMIT // 2
        orders = [LEX, GREVLEX] + [BlockElim(k) for k in range(n + 1)]
        zero = (0,) * n
        for _ in range(200):
            a = tuple(rng.choice((0, 1, rng.randrange(half))) for _ in range(n))
            b = tuple(rng.choice((0, 1, rng.randrange(half))) for _ in range(n))
            total = tuple(map(sum, zip(a, b)))
            for order in orders:
                assert order.key_asc(total) == (order.key_asc(a)
                                                + order.key_asc(b)
                                                - order.key_asc(zero)), order

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exponent_limit(self, n):
        orders = [LEX, GREVLEX] + [BlockElim(k) for k in range(n + 1)]
        for order in orders:
            order.key_asc((EXP_LIMIT - 1,) * n)
            for i in range(n):
                mon = tuple(EXP_LIMIT if j == i else 0 for j in range(n))
                with pytest.raises(OverflowError):
                    order.key_asc(mon)
                with pytest.raises(OverflowError):
                    order.key_desc(mon)

    def test_polynomial_overflows_when_its_terms_are_ordered(self):
        R = ring("x", "y")
        f = R.from_terms({(EXP_LIMIT, 0): QQ.one, (0, 1): QQ.one})
        with pytest.raises(OverflowError):
            f.leading_monomial()


class TestPolynomialArithmetic:
    def test_basic_identity(self):
        R = ring("x", "y")
        x, y = R.gens()
        assert (x + y) * (x - y) == x**2 - y**2

    def test_pow_and_scale(self):
        R = ring("x")
        (x,) = R.gens()
        f = (2 * x + 1) ** 3
        assert f == 8 * x**3 + 12 * x**2 + 6 * x + 1

    def test_leading_data_in_grevlex(self):
        R = ring("x", "y", "z")
        x, y, z = R.gens()
        f = x * z + y**2 + z
        assert f.leading_monomial() == (0, 2, 0)
        assert f.total_degree() == 2

    def test_derivative_product_rule(self):
        R = ring("x", "y")
        x, y = R.gens()
        f = x**2 * y + 3 * y
        g = x * y - 1
        lhs = (f * g).derivative(0)
        rhs = f.derivative(0) * g + f * g.derivative(0)
        assert lhs == rhs

    def test_derivative_characteristic_p(self):
        R = ring("x", field=PrimeField(5))
        (x,) = R.gens()
        assert (x**5).derivative(0).is_zero()

    def test_evaluate(self):
        R = ring("x", "y")
        f = parse_polynomial("x^2*y - 3*x + 1/2", R)
        assert f.evaluate([Fraction(2), Fraction(3)]) == 12 - 6 + Fraction(1, 2)

    def test_linear_forms_coerce_into_the_field(self):
        # mod 7, 1/2 is 4, -1 is 6 and 10 is 3
        for field, text in ((QQ, "1/2*x - z + 10"),
                            (PrimeField(7), "4*x + 6*z + 3")):
            R = ring("x", "y", "z", field=field)
            f = R.linear([Fraction(1, 2), 0, -1], 10)
            assert f == parse_polynomial(text, R)
        with pytest.raises(ValueError):
            R.linear([1, 2])

    def test_compose_substitution(self):
        R = ring("x", "y")
        S = ring("t")
        (t,) = S.gens()
        f = parse_polynomial("x^2 + y^2 - 1", R)
        g = f.compose(S, [t, t + 1])
        assert g == 2 * t**2 + 2 * t

    def test_randomized_ring_axioms(self):
        rng = random.Random(20260816)
        R = ring("x", "y", "z")
        gens = R.gens()

        def rand_poly():
            out = R.zero()
            for _ in range(rng.randint(1, 5)):
                term = R.constant(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                for g in gens:
                    term = term * g ** rng.randint(0, 3)
                out = out + term
            return out

        for _ in range(60):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a - a == R.zero()


class TestParser:
    def test_round_trip_str(self):
        R = ring("u1", "u2", "u3")
        f = parse_polynomial("368*u3^3 + 71*u3^2 - 6*u3 - 1", R)
        assert parse_polynomial(str(f), R) == f

    def test_rational_literal(self):
        R = ring("x")
        f = parse_polynomial("1/2*x - 3/4", R)
        assert f.terms[(1,)] == Fraction(1, 2)
        assert f.terms[(0,)] == Fraction(-3, 4)

    def test_unary_minus_and_parens(self):
        R = ring("x", "y")
        f = parse_polynomial("-(x - y)^2", R)
        assert f == -(R.variable("x") - R.variable("y")) ** 2

    def test_nesting_stops_at_a_fixed_depth(self):
        # _MAX_NESTING levels of parentheses or unary minus parse; one more
        # raises ParseError at the factor that opens it, far below the
        # interpreter's recursion limit
        R = ring("x")
        x = R.variable("x")
        depth = _MAX_NESTING
        assert parse_polynomial("(" * depth + "x" + ")" * depth, R) == x
        assert parse_polynomial("-" * depth + "x", R) == x
        assert parse_polynomial("-(" * (depth // 2) + "x" + ")" * (depth // 2),
                                R) == x
        for text, position in (
                ("(" * (depth + 1) + "x" + ")" * (depth + 1), depth + 1),
                ("-" * (depth + 1) + "x", depth + 1),
                ("x + " + "(" * 3000 + "x" + ")" * 3000, depth + 5)):
            with pytest.raises(ParseError) as err:
                parse_polynomial(text, R)
            assert err.value.position == position

    def test_no_implicit_multiplication(self):
        R = ring("x", "y")
        with pytest.raises(ParseError):
            parse_polynomial("2x", R)

    def test_unknown_variable_position(self):
        R = ring("x")
        with pytest.raises(ParseError) as err:
            parse_polynomial("x + q", R)
        assert err.value.position == 4

    def test_randomized_round_trip(self):
        rng = random.Random(99)
        R = ring("a", "b")
        gens = R.gens()
        for _ in range(80):
            f = R.zero()
            for _ in range(rng.randint(0, 6)):
                t = R.constant(Fraction(rng.randint(-20, 20), rng.randint(1, 7)))
                for g in gens:
                    t = t * g ** rng.randint(0, 4)
                f = f + t
            assert parse_polynomial(str(f), R) == f

    def test_prime_field_literals_reduce(self):
        R = ring("x", field=PrimeField(7))
        f = parse_polynomial("10*x + 1/3", R)
        assert f.terms[(1,)] == 3
        assert f.terms[(0,)] == PrimeField(7).inv(3)


class TestSturm:
    def u_poly(self, text):
        R = ring("u")
        return dense_from_poly(parse_polynomial(text, R))

    def test_certified_no_real_roots(self):
        f = self.u_poly("27*u^2 - 486*u + 2197")
        assert count_real_roots(f) == 0

    def test_cubic_root_count_and_isolation(self):
        f = self.u_poly("368*u^3 + 71*u^2 - 6*u - 1")
        assert count_real_roots(f) == 3
        brackets = isolate_real_roots(f, Fraction(1, 10**8))
        assert len(brackets) == 3
        approx = [float((lo + hi) / 2) for lo, hi in brackets]
        assert approx[0] == pytest.approx(-0.2086, abs=5e-4)
        assert approx[1] == pytest.approx(-0.106526, abs=1e-5)
        assert approx[2] == pytest.approx(0.122250, abs=1e-5)

    def test_brackets_contain_known_roots(self):
        # (u - 1/2)(u + 3)u
        f = self.u_poly("u^3 + 5/2*u^2 - 3/2*u")
        brackets = isolate_real_roots(f, Fraction(1, 2**30))
        roots = [Fraction(-3), Fraction(0), Fraction(1, 2)]
        assert len(brackets) == 3
        for (lo, hi), r in zip(brackets, roots):
            assert lo <= r <= hi
        # degenerate brackets, when reported, really are roots
        for lo, hi in brackets:
            if lo == hi:
                assert dense_eval(f, lo) == 0

    def test_multiple_roots_counted_once(self):
        f = self.u_poly("(u - 1)^2 * (u + 2)")
        assert count_real_roots(f) == 2
        assert squarefree_part(f) != f

    def test_half_open_convention(self):
        f = self.u_poly("u^2 - 1")
        chain = sturm_chain(f)
        assert count_roots(chain, Fraction(0), Fraction(1)) == 1
        assert count_roots(chain, Fraction(1), Fraction(2)) == 0
        # left endpoint excluded, right included: only the root at 1 counts
        assert count_roots(chain, Fraction(-1), Fraction(1)) == 1
        assert count_roots(chain, Fraction(-2), Fraction(1)) == 2

    def test_half_open_counts_at_multiple_roots(self):
        # endpoints at roots of multiplicity 2 and 3, where every member of
        # the undivided remainder sequence vanishes
        f = self.u_poly("(u - 1)^2 * (u + 2)^3 * u * (u^2 - 2)")
        chain = sturm_chain(f)
        assert len(chain[-1]) == 1
        one, two = Fraction(1), Fraction(-2)
        assert count_roots(chain, two, one) == 3       # -sqrt2, 0, 1
        assert count_roots(chain, two - 1, two) == 1   # -2 itself
        assert count_roots(chain, one, Fraction(2)) == 1   # sqrt2 only
        assert count_roots(chain, Fraction(0), one) == 1
        assert count_roots(chain, two, two) == 0
        assert count_roots(chain, one, two) == 0
        assert count_roots(chain, two - 1, Fraction(2)) == 5
        assert squarefree_part(f) == chain[0]
        mids = [float((lo + hi) / 2) for lo, hi in isolate_real_roots(f)]
        assert mids == pytest.approx([-2, -2**0.5, 0, 1, 2**0.5], abs=1e-6)

    def test_exact_root_sorts_before_the_bracket_it_opens(self):
        # (u + 1)(u^2 - 3u - 3) at width 1/2: -1 is hit exactly, and the
        # next root's bracket starts there
        f = self.u_poly("u^3 - 2*u^2 - 6*u - 3")
        assert isolate_real_roots(f, Fraction(1, 2)) == [
            (Fraction(-1), Fraction(-1)), (Fraction(-1), Fraction(-1, 2)),
            (Fraction(7, 2), Fraction(4))]

    def test_squarefree_chain_runs_one_euclid(self, monkeypatch):
        from voronoi_cells.exactmath import sturm

        calls = []

        def counted(a, b, divmod_=sturm.dense_divmod):
            calls.append(1)
            return divmod_(a, b)

        monkeypatch.setattr(sturm, "dense_divmod", counted)
        f = self.u_poly("368*u^3 + 71*u^2 - 6*u - 1")
        chain = sturm_chain(f)
        # one division per remainder; the constant last member ends the run
        assert len(chain) == 4 and len(chain[-1]) == 1
        assert len(calls) == 2

    @pytest.mark.parametrize("precision", [Fraction(0), Fraction(-1, 2)])
    def test_precision_must_be_positive(self, precision):
        # bisection could never get a bracket below a width <= 0
        with pytest.raises(ValueError, match="positive"):
            isolate_real_roots(self.u_poly("u^2 - 2"), precision)

    def test_cauchy_bound_contains_roots(self):
        f = self.u_poly("u^2 - 100")
        assert cauchy_bound(f) >= 10

    def test_randomized_against_constructed_roots(self):
        rng = random.Random(4242)
        R = ring("u")
        (u,) = R.gens()
        for _ in range(40):
            roots = sorted(rng.sample(range(-12, 13), rng.randint(1, 4)))
            f = R.one()
            for r in roots:
                f = f * (u - r)
            dense = dense_from_poly(f)
            assert count_real_roots(dense) == len(roots)
            brackets = isolate_real_roots(dense, Fraction(1, 1000))
            assert len(brackets) == len(roots)
            for (lo, hi), r in zip(brackets, roots):
                assert lo <= r <= hi and hi - lo <= Fraction(1, 1000)

    def test_no_bracket_has_zero_strictly_inside(self):
        # every third polynomial has a root within 10^-14 of 0, where a
        # bracket (lo, hi) with lo < 0 < hi would show first; 3 is the
        # widest precision the postcondition covers
        rng = random.Random(1811)
        R = ring("u")
        (u,) = R.gens()
        tiny = Fraction(1, 10**15)
        for i in range(150):
            f = R.one()
            for _ in range(rng.randint(1, 4)):
                f = f * (u - Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
            if i % 3 == 0:
                f = f * (u - rng.choice((-1, 1)) * rng.randint(1, 9) * tiny)
            if i % 2:
                f = f * (u * u + rng.randint(-5, 5))
            dense = dense_from_poly(f)
            precision = rng.choice((Fraction(3), Fraction(1, 2**20),
                                    Fraction(1, 10**12)))
            brackets = isolate_real_roots(dense, precision)
            assert len(brackets) == count_real_roots(dense)
            assert not any(lo < 0 < hi for lo, hi in brackets)

    def test_bracket_starting_at_a_root(self):
        # u^3 - u: the first midpoint, 0, is a root, so the bracket of the
        # root 1 starts at a root and refinement must use the chain count
        f = self.u_poly("u^3 - u")
        assert isolate_real_roots(f) == [
            (Fraction(-2097153, 2097152), Fraction(-4194303, 4194304)),
            (Fraction(0), Fraction(0)),
            (Fraction(4194303, 4194304), Fraction(2097153, 2097152)),
        ]

    def test_close_roots_with_fractional_coefficients(self):
        # (u - 1/3)(u - 1/3 - 10^-9)(u + 5/2), brackets as isolated when
        # Euclid ran over Fraction; the integer chain has the same signs
        r = Fraction(1, 3)
        f = [r * (r + Fraction(1, 10**9)) * Fraction(5, 2),
             Fraction(-28000000039, 18000000000),
             Fraction(5499999997, 3000000000), Fraction(1)]
        assert isolate_real_roots(f) == [
            (Fraction(-3932160498974219, 1572864000000000),
             Fraction(-2097151499452917, 838860800000000)),
            (Fraction(536870910359946719, 1610612736000000000),
             Fraction(715827884313262291, 2147483648000000000)),
            (Fraction(715827884313262291, 2147483648000000000),
             Fraction(214748366443978687, 644245094400000000)),
        ]
        assert isolate_real_roots(f, Fraction(1, 10**12)) == [
            (Fraction(-10995116277763208796357, 4398046511104000000000),
             Fraction(-16492674416639063194537, 6597069766656000000000)),
            (Fraction(274877906943792719909, 824633720832000000000),
             Fraction(1466015503704061172847, 4398046511104000000000)),
            (Fraction(1466015508097061171701, 4398046511104000000000),
             Fraction(43980465243026835151, 131941395333120000000)),
        ]
        chain = sturm_chain(f)
        assert all(type(c) is int for p in chain for c in p)
        assert all(gcd(*p) == 1 for p in chain)
        assert count_roots(chain, Fraction(0), Fraction(1)) == 2
        assert count_roots(chain, Fraction(-3), Fraction(0)) == 1
        assert count_roots(chain, r, r + Fraction(1, 10**9)) == 1
        assert count_roots(chain, Fraction(-10), Fraction(10)) == 3

    def test_divmod_and_gcd(self):
        a = [-1, 0, 0, 0, 1]                  # u^4 - 1
        q, r = dense_divmod(a, [-1, 0, 1])    # u^2 - 1
        assert (q, r) == ([1, 0, 1], [])
        assert dense_gcd(a, [1, -2, 1]) == [-1, 1]
        assert dense_gcd([2, 0, -2], [4, 4]) == [1, 1]
        # over Z the remainder of 2u^2 + 1 by 3u + 1 is a positive multiple
        # of the rational one, 11/9
        q, r = dense_divmod([1, 0, 2], [1, 3])
        assert (q, r) == ([-2, 6], [11])
        # over F_7: u^2 + 1 = (u + 3)(u - 3) + 10, and the gcd is monic
        assert dense_divmod([1, 0, 1], [3, 1], 7) == ([4, 1], [3])
        assert dense_gcd([-9, 0, 1], [6, 2], 7) == [3, 1]
