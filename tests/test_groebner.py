"""Groebner engine: canonical bases, elimination, saturation, degrees."""
import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from voronoi_cells.exactmath import (
    GREVLEX,
    LEX,
    QQ,
    BlockElim,
    PolyRing,
    PrimeField,
    parse_polynomial,
)
from voronoi_cells.groebner import (
    BudgetExhaustedError,
    GroebnerBasis,
    IdealSpec,
    NotZeroDimensionalError,
    _basis,
    _buchberger,
    _Engine,
    _finalize,
    eliminate,
    groebner_basis,
    interreduce,
    intersect,
    is_zero_dimensional,
    normal_form,
    quotient_degree,
    saturate,
)


def make(vars_, *gens, field=QQ, order=GREVLEX):
    ring = PolyRing(vars_, field=field, order=order)
    return ring, [parse_polynomial(g, ring) for g in gens]


class TestBuchberger:
    def test_twisted_cubic_reduced_basis(self):
        ring, gens = make(("x", "y", "z"), "y - x^2", "z - x*y")
        gb = groebner_basis(gens)
        lms = set(gb.leading_monomials())
        assert lms == {(2, 0, 0), (1, 1, 0), (0, 2, 0)}
        # every basis element vanishes along the parameterization (t, t^2, t^3)
        for t in (Fraction(2), Fraction(-3), Fraction(5, 7)):
            for p in gb:
                assert p.evaluate([t, t * t, t**3]) == 0

    def test_membership_via_normal_form(self):
        ring, gens = make(("x", "y", "z"), "y - x^2", "z - x*y")
        gb = groebner_basis(gens)
        member = parse_polynomial("y^3 - z^2", ring)
        assert gb.contains(member)
        assert not gb.contains(parse_polynomial("x + y", ring))

    def test_basis_is_canonical(self):
        ring, gens = make(("x", "y", "z"),
                          "x^2 + y^2 + z^2 - 1", "x - y + z", "x*y - z")
        gb1 = groebner_basis(gens)
        shuffled = [gens[2], gens[0], gens[1],
                    gens[0] + gens[1] * gens[2]]  # redundant combination
        gb2 = groebner_basis(shuffled)
        assert gb1.polys == gb2.polys

    def test_mod_p_matches_rational_leading_terms(self):
        _, gens_q = make(("x", "y", "z"), "y - x^2", "z - x*y")
        _, gens_p = make(("x", "y", "z"), "y - x^2", "z - x*y",
                         field=PrimeField(32003))
        assert (groebner_basis(gens_q).leading_monomials()
                == groebner_basis(gens_p).leading_monomials())

    def test_zero_ideal_and_unit_ideal(self):
        ring, gens = make(("x", "y"), "x", "x + 1")
        gb = groebner_basis(gens)
        assert gb.is_unit_ideal()
        empty = groebner_basis([], ring)
        assert empty.is_zero_ideal()
        assert normal_form(gens[0], empty) == gens[0]

    def test_lex_order_solves_triangular_system(self):
        ring, gens = make(("x", "y"), "x^2 + y^2 - 5", "x - y - 1", order=LEX)
        gb = groebner_basis(gens)
        # lex basis has a pure-y polynomial last
        tail = gb.polys[-1]
        assert tail.variables_used() == (1,)

    def test_budget_exhaustion_raises(self):
        _, gens = make(("x", "y", "z", "w"),
                       "x + y + z + w",
                       "x*y + y*z + z*w + w*x",
                       "x*y*z + y*z*w + z*w*x + w*x*y",
                       "x*y*z*w - 1")
        with pytest.raises(BudgetExhaustedError) as err:
            groebner_basis(gens, budget=10)
        assert err.value.budget == 10
        assert "10" in str(err.value)

    def test_budget_exhausted_in_interreduction_names_the_budget(self):
        # 22 steps run out while the final basis is tail-reduced; 23 suffice
        _, gens = make(("x", "y", "z"),
                       "x^2 + y^2 + z^2 - 1", "x*y - z^2 + 3*x",
                       "x^3 - y*z + 2")
        with pytest.raises(BudgetExhaustedError) as err:
            groebner_basis(gens, budget=22)
        assert err.value.budget == 22
        assert "budget of 22 reduction steps" in str(err.value)
        groebner_basis(gens, budget=23)

    def test_fractional_coefficients_spend_the_rational_step_count(self):
        # fraction-free reduction takes the reducer rational arithmetic
        # would at every step, so 22 steps run out and 23 suffice
        _, gens = make(("x", "y", "z"),
                       "x^2 + (1/3)*y^2 + z^2 - 1", "x*y - (2/7)*z^2 + 3*x",
                       "x^3 - (5/2)*y*z + 2")
        with pytest.raises(BudgetExhaustedError) as err:
            groebner_basis(gens, budget=22)
        assert err.value.stage == "groebner"
        assert len(groebner_basis(gens, budget=23)) == 6

    def test_normal_form_is_invariant_on_cosets(self):
        ring, gens = make(("x", "y"), "x^2 - y", "y^2 - 2")
        gb = groebner_basis(gens)
        f = parse_polynomial("x^3*y + x - 1", ring)
        g = f + gens[0] * parse_polynomial("y^5 - x", ring)
        assert normal_form(f, gb) == normal_form(g, gb)


def dense_form(ring, degree, rng):
    """A homogeneous form with every monomial of the degree, each with a
    random nonzero coefficient."""
    terms = {}
    for mon in itertools.product(range(degree + 1), repeat=ring.nvars):
        if sum(mon) == degree:
            coeff = rng.choice([c for c in range(-9, 10) if c])
            terms[mon] = ring.field.coerce(coeff)
    return ring.from_terms(terms)


class TestSignatureCriteria:
    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)],
                             ids=["Q", "F32003"])
    @pytest.mark.parametrize("nvars, degrees", [
        (3, (2, 2, 2)), (4, (2, 2, 2)), (4, (2, 2, 2, 2)), (3, (3, 3, 3))])
    def test_regular_sequences_make_no_zero_reduction(self, field, nvars,
                                                       degrees):
        # every syzygy of a regular sequence comes from the principal ones,
        # whose signatures the F5 criterion discards before any reduction
        rng = random.Random(nvars * 10 + len(degrees) + degrees[0])
        ring = PolyRing([f"x{i}" for i in range(nvars)], field=field)
        gens = [dense_form(ring, d, rng) for d in degrees]
        eng = _Engine(ring, None, "test")
        gb = _basis(_finalize(_buchberger(eng, gens)))
        assert eng.zero_reductions == 0
        assert gb == groebner_basis(reversed(gens), ring)

    def test_a_dropped_reduction_hides_no_member(self):
        # a reduction whose leading term only a multiple of its own
        # signature divides is dropped; the multiples of that signature
        # must then come from the member with the smallest multiple, not
        # from the newest, or the last member here is never found
        _, gens = make(("x", "y", "z"), "5*x*z + 6*y*z + y + 4",
                       "4*x^3 + y*z", "x + 6*y + 2*z + 4",
                       field=PrimeField(7), order=LEX)
        assert [str(p) for p in groebner_basis(gens)] == [
            "x + z^5 + 6*z^4 + 2*z^3 + 3*z^2 + 2*z + 4",
            "y + z^5 + 6*z^4 + 2*z^3 + 3*z^2",
            "z^6 + z^5 + 5*z^2 + 5*z + 6"]


class TestKernelShortcuts:
    def test_find_reducer_matches_a_first_divisor_scan(self):
        # members are only appended; after every append the remembered
        # lookup must agree with a scan from the first member, with and
        # without a limit on the members' signature keys
        rng = random.Random(3)
        ring = PolyRing(("x", "y", "z"), field=PrimeField(32003))

        def monomial():
            return tuple(rng.randrange(4) for _ in range(3))

        for _ in range(30):
            eng = _Engine(ring, None, "test")
            leads = []
            probes = [monomial() for _ in range(25)] + [(0, 0, 0)]
            for _ in range(40):
                lead = monomial()
                leads.append(lead)
                eng.add_basis_poly({eng.encode(lead): 1})
                eng.bkey.append(rng.randrange(10))
                for probe in rng.sample(probes, 8):
                    lim = rng.choice((None, rng.randrange(12)))
                    want = next((i for i, lead in enumerate(leads)
                                 if (lim is None or eng.bkey[i] < lim)
                                 and all(a <= b for a, b in zip(lead, probe))),
                                -1)
                    assert eng.find_reducer(eng.encode(probe), lim) == want

    def test_packed_lcm_is_the_per_variable_maximum(self):
        top = (1 << 23) - 1  # the largest exponent a packed field holds
        ring = PolyRing(("x", "y", "z"))
        eng = _Engine(ring, None, "test")
        corners = [(a, b, c) for a in (0, 1, top - 1, top)
                   for b in (0, 1, top - 1, top) for c in (0, 1, top - 1, top)]
        rng = random.Random(5)
        pairs = [(u, v) for u in corners for v in corners]
        pairs += [(tuple(rng.choice((0, top, rng.randrange(top + 1)))
                         for _ in range(3)),
                   tuple(rng.choice((0, top, rng.randrange(top + 1)))
                         for _ in range(3))) for _ in range(2000)]
        for u, v in pairs:
            got = eng.decode(eng.lcm(eng.encode(u), eng.encode(v)))
            assert got == tuple(map(max, u, v))


class TestIdealOperations:
    def test_eliminate_classic_inverse_pair(self):
        ring, gens = make(("t", "x", "y"), "t*x - 1", "t*y - 1")
        gb = eliminate(gens, ["t"])
        assert gb.ring.variables == ("x", "y")
        assert [str(p) for p in gb.polys] == ["x - y"]

    def test_eliminate_projection_can_be_everything(self):
        ring, gens = make(("u", "x"), "x - u^2")
        gb = eliminate(gens, ["u"])
        assert gb.is_zero_ideal()

    def test_eliminate_rejects_unknown_variable(self):
        ring, gens = make(("x", "y"), "x*y - 1")
        with pytest.raises(ValueError):
            eliminate(gens, ["nope"])

    def test_saturate_strips_component(self):
        ring, gens = make(("x", "y"), "x^2*y")
        sat = saturate(gens, [parse_polynomial("x", ring)])
        assert [str(p) for p in sat.polys] == ["y"]

    def test_saturate_is_idempotent(self):
        ring, gens = make(("x", "y"), "x^3*y^2 - x^2*y")
        j = [parse_polynomial("x*y", ring)]
        once = saturate(gens, j)
        twice = saturate(once.polys, j)
        assert once.polys == twice.polys

    def test_saturation_by_several_generators(self):
        # (I : (x, y)^inf) with I = <x*z, y*z> removes the z = 0 plane copy
        ring, gens = make(("x", "y", "z"), "x*z", "y*z")
        sat = saturate(gens, [parse_polynomial("x", ring), parse_polynomial("y", ring)])
        assert [str(p) for p in sat.polys] == ["z"]

    def test_saturation_by_the_zero_ideal_is_the_unit_ideal(self):
        # f * 0^N = 0 lies in I for every f, so I : 0^inf is the whole
        # ring; a zero generator beside a nonzero one changes nothing
        ring, gens = make(("x", "y"), "x^2")
        assert saturate(gens, []).polys == (ring.one(),)
        assert saturate(gens, [ring.zero()]).polys == (ring.one(),)
        ring, gens = make(("x", "y"), "x*y")
        sat = saturate(gens, [ring.zero(), ring.variable("x")])
        assert [str(p) for p in sat.polys] == ["y"]

    @pytest.mark.parametrize("order", [LEX, BlockElim(1)],
                             ids=["lex", "block"])
    def test_answers_are_rebased_in_the_ring_order(self, order):
        # both operations work in grevlex; in another order the answer is
        # the reduced basis of the grevlex one for that order
        names = ("x", "y", "z")
        texts = ("x^2 + y^2 + z^2 - 1", "x*y*z - 1/5")
        grevlex, gens = make(names, *texts)
        ring, moved = make(names, *texts, order=order)

        def rebased(gb):
            return groebner_basis([p.map_ring(ring, [0, 1, 2]) for p in gb],
                                  ring).polys

        sat = [parse_polynomial("x - y", r) for r in (grevlex, ring)]
        got = saturate(moved, sat[1:])
        assert got.ring == ring
        assert got.polys == rebased(saturate(gens, sat[:1]))
        a, b = (("x - 1", "y - 2", "z"), ("x - 3", "y + 1", "z - 1"))
        got = intersect(make(names, *a, order=order)[1],
                        make(names, *b, order=order)[1])
        assert got.ring == ring
        assert got.polys == rebased(intersect(make(names, *a)[1],
                                              make(names, *b)[1]))

    def test_a_variable_named_like_the_fresh_one_is_kept_apart(self):
        # saturation and intersection adjoin a fresh variable named _t,
        # renamed when the ring already has one
        answers = []
        for names in (("_t", "y"), ("a", "y")):
            ring, (f, t, y) = make(names, f"{names[0]}^2*y", names[0], "y")
            answers.append([[p.terms for p in gb] for gb in (
                saturate([f], [t]), intersect([t], [y]))])
        assert answers[0] == answers[1] == [[{(0, 1): 1}], [{(1, 1): 1}]]

    def test_each_operation_reports_its_own_stage(self):
        # sphere and x*y*z = 1/5 saturated by x - y and z - 2x: each
        # saturation takes at most 14 steps and the intersection of the two
        # 17, so budgets 14 to 16 run out inside saturate's intersection
        ring, gens = make(("x", "y", "z"),
                          "x^2 + y^2 + z^2 - 1", "x*y*z - 1/5")
        sat = [parse_polynomial(g, ring) for g in ("x - y", "z - 2*x")]
        for budget, stage in ((13, "saturation"), (16, "intersection")):
            with pytest.raises(BudgetExhaustedError) as err:
                saturate(gens, sat, budget=budget)
            assert err.value.stage == stage
        saturate(gens, sat, budget=17)
        _, pair = make(("t", "x", "y"), "t*x - 1", "t*y - 1")
        with pytest.raises(BudgetExhaustedError) as err:
            eliminate(pair, ["t"], budget=0)
        assert err.value.stage == "elimination"
        plane, a = make(("x", "y"), "x - 1", "y - 2")
        b = [parse_polynomial(g, plane) for g in ("x - 3", "y + 1")]
        with pytest.raises(BudgetExhaustedError) as err:
            intersect(a, b, budget=15)
        assert err.value.stage == "intersection"
        intersect(a, b, budget=16)

    def test_intersection_adds_point_counts(self):
        ring, a = make(("x", "y"), "x - 1", "y - 2")
        b = [parse_polynomial("x - 3", ring), parse_polynomial("y + 1", ring)]
        both = intersect(a, b, ring)
        assert is_zero_dimensional(both)
        assert quotient_degree(both) == 2
        for pt in ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1))):
            for p in both:
                assert p.evaluate(pt) == 0

    def test_zero_dimension_detection(self):
        ring, gens = make(("x", "y"), "x^2 - y", "y^3")
        gb = groebner_basis(gens)
        assert is_zero_dimensional(gb)
        assert quotient_degree(gb) == 6
        curve = groebner_basis(make(("x", "y"), "y - x^2")[1])
        assert not is_zero_dimensional(curve)
        with pytest.raises(NotZeroDimensionalError):
            quotient_degree(curve)

    def test_unit_ideal_has_degree_zero(self):
        ring, gens = make(("x",), "x", "x - 1")
        gb = groebner_basis(gens)
        assert is_zero_dimensional(gb)
        assert quotient_degree(gb) == 0

    def test_quotient_degree_counts_standard_monomials(self):
        # random monomial ideals against a brute-force count of the
        # monomials no generator divides in a box past every exponent; the
        # quotient is finite exactly when doubling the box adds none
        rng = random.Random(7)
        for order, n in itertools.product(
                (GREVLEX, LEX, BlockElim(1)), (2, 3)):
            ring = PolyRing(("x", "y", "z")[:n], order=order)
            ideals = [[(0,) * n], []]  # the unit and the zero ideal
            for _ in range(12):
                mons = [tuple(rng.randint(0, 3) for _ in range(n))
                        for _ in range(rng.randint(1, 3))]
                mons += [tuple(rng.randint(1, 4) if i == v else 0
                               for i in range(n))
                         for v in range(n) if rng.random() < 0.8]
                ideals.append(mons)
            finite = 0
            for mons in ideals:
                def count(box):
                    return sum(not any(all(a >= b for a, b in zip(e, m))
                                       for m in mons)
                               for e in itertools.product(range(box),
                                                          repeat=n))
                gb = groebner_basis([ring.from_terms({m: 1}) for m in mons],
                                    ring)
                if count(5) == count(10):
                    finite += 1
                    assert is_zero_dimensional(gb)
                    assert quotient_degree(gb) == count(5)
                else:
                    assert not is_zero_dimensional(gb)
                    with pytest.raises(NotZeroDimensionalError):
                        quotient_degree(gb)
            assert 1 < finite < len(ideals) - 1

    @pytest.mark.parametrize("field", [QQ, PrimeField(32003),
                                       PrimeField(2**31 - 1)],
                             ids=["Q", "F32003", "F2^31-1"])
    def test_principal_ideals_in_one_variable_meet_in_the_lcm(
            self, monkeypatch, field):
        # the oracle is the one-parameter route, t eliminated from
        # <t * f, (1 - t) * g>; the lcm route builds no engine and spends
        # no step, and the zero ideal still takes the engine route
        ring = PolyRing(("s",), field=field)
        work = PolyRing(("t", "s"), field=field)
        t = work.variable("t")
        rng = random.Random(5)

        def factor(degree):
            coeffs = [rng.randint(-9, 9) for _ in range(degree)]
            return ring.from_terms({(i,): field.coerce(c)
                                    for i, c in enumerate(coeffs + [1])})

        def power_product(factors, exps):
            return prod((f ** e for f, e in zip(factors, exps)),
                        start=ring.one())

        def oracle(f, g):
            lifted = [h.map_ring(work, [1]) for h in (f, g)]
            return eliminate([t * lifted[0], (1 - t) * lifted[1]], ["t"],
                             work).polys

        built = []
        engine_init = _Engine.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            engine_init(self, *args, **kwargs)

        monkeypatch.setattr(_Engine, "__init__", counted)
        a, b, c, d = (factor(k) for k in (1, 2, 1, 2))
        pairs = [(a ** 2 * b * c, a * b ** 3 * d),   # shared, multiplicities
                 (a * b, c * d),                     # coprime
                 (a ** 2 * b, a ** 2 * b),           # equal
                 (a * b, (a * b).scale(field.coerce(3))),
                 (ring.constant(7), b * c),          # a unit ideal
                 (ring.constant(7), ring.constant(2))]
        for _ in range(6):
            pool = [factor(rng.randint(1, 2)) for _ in range(4)]
            pairs.append(tuple(
                power_product(pool, [rng.randint(0, 2) for _ in pool])
                .scale(field.coerce(rng.randint(1, 9)))
                for _ in range(2)))
        for f, g in pairs:
            before = len(built)
            got = intersect([f], [g], ring, budget=0)
            assert len(built) == before
            assert got.ring == ring
            assert [p.terms for p in got] == [p.terms for p in oracle(f, g)]
        zero = intersect([ring.zero()], [a * b], ring)
        assert zero.is_zero_ideal() and not oracle(ring.zero(), a * b)

    def test_interreduce_produces_reduced_set(self):
        ring, gens = make(("x", "y"), "x + y", "y^2 - 1", "x + y + y^2 - 1")
        out = interreduce(gens)
        assert [str(p) for p in out] == ["y^2 - 1", "x + y"]


class TestIdealSpec:
    def test_json_round_trip(self):
        spec = IdealSpec.from_strings(("x1", "x2"), ["x1^2 - x2", "x1*x2 - 1"], codim=2)
        again = IdealSpec.from_json(spec.to_json())
        assert again == spec
        assert again.codim == 2

    def test_rejects_foreign_generators(self):
        ring_a = PolyRing(("x",))
        ring_b = PolyRing(("y",))
        with pytest.raises(ValueError):
            IdealSpec(ring_a, (ring_b.variable("y"),))

    def test_prime_field_spec(self):
        spec = IdealSpec.from_strings(("x",), ["x^2 + 1"], field=PrimeField(65537))
        assert "Fp:65537" in spec.to_json()
        assert IdealSpec.from_json(spec.to_json()) == spec
