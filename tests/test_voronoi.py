"""Voronoi boundary pipeline against hand-verified fixtures.

The worked examples here have closed-form answers, checked by hand or by
the slow route: ``critical_ideal`` keeps u symbolic in the full 2n-variable
(x, u) ring, where saturation and elimination run independently of the
pipeline's normal-space parameters.  Every assertion is an exact symbolic
comparison unless a float tolerance is stated.
"""
import functools
import json
import random
from fractions import Fraction
from itertools import groupby, product
from math import prod
from pathlib import Path

import pytest

from voronoi_cells import groebner
from voronoi_cells.degrees import hypersurface_degree_experiment
from voronoi_cells.exactmath import (
    PolyRing,
    count_real_roots,
    dense_from_poly,
    parse_polynomial,
)
from voronoi_cells.exactmath.sturm import dense_gcd, primitive_integer_form
from voronoi_cells.groebner import (
    BudgetExhaustedError,
    GroebnerBasis,
    IdealSpec,
    eliminate,
    groebner_basis,
    intersect,
    is_zero_dimensional,
    quotient_degree,
    saturate,
)
from voronoi_cells.voronoi import (
    CodimensionError,
    PointNotOnVarietyError,
    SingularPointError,
    boundary_on_normal_line,
    critical_ideal,
    normal_space_at,
    parametric_critical_system,
    voronoi_ideal,
)

QUADRIC = "x1^2 + x2^2 + x3^2 - 3*x1*x2 - 5*x1*x3 - 7*x2*x3 + x1 + x2 + x3"
CUSPIDAL = "x1^3 - x2^2"
CARDIOID = "(x1^2 + x2^2 + x1)^2 - x1^2 - x2^2"


def _polyset(ring, texts):
    return {parse_polynomial(t, ring).monic() for t in texts}


def _slow_boundary(spec, point):
    """Saturate the critical ideal in the (x, u) ring by each displacement
    coordinate x_i - y_i, then eliminate x."""
    ci = critical_ideal(spec, point)
    disp = [ci.ring.variable(i) - ci.ring.constant(v)
            for i, v in enumerate(point)]
    sat = saturate(ci.generators, disp, ci.ring)
    return eliminate(sat.polys, spec.ring.variables, sat.ring)


@pytest.fixture(scope="module")
def quadric_report():
    spec = IdealSpec.from_strings(("x1", "x2", "x3"), [QUADRIC])
    return voronoi_ideal(spec, (0, 0, 0))


@pytest.fixture(scope="module")
def cuspidal_report():
    spec = IdealSpec.from_strings(("x1", "x2"), [CUSPIDAL])
    return voronoi_ideal(spec, (4, 8))


class TestNormalSpace:
    def test_quadric_linear_forms(self, quadric_report):
        ns = quadric_report.normal_space
        assert _polyset(ns.u_ring, ["u1 - u3", "u2 - u3"]) == set(ns.forms)
        assert ns.dimension == 1
        assert ns.free_columns == (2,)
        assert ns.jacobian_rank == 1

    def test_cuspidal_linear_form(self, cuspidal_report):
        ns = cuspidal_report.normal_space
        assert _polyset(ns.u_ring, ["u1 + 3*u2 - 28"]) == set(ns.forms)
        assert ns.dimension == 1

    def test_axis_aligned_gradient(self):
        # f = x3 - x1^2 - x2^2 at origin: gradient is e3, normal space the
        # x3-axis, so the linear part is <u1, u2>
        spec = IdealSpec.from_strings(("x1", "x2", "x3"), ["x3 - x1^2 - x2^2"])
        ns = normal_space_at(spec, (0, 0, 0))
        assert _polyset(ns.u_ring, ["u1", "u2"]) == set(ns.forms)

    def test_point_off_variety_rejected(self):
        spec = IdealSpec.from_strings(("x1", "x2", "x3"), [QUADRIC])
        with pytest.raises(PointNotOnVarietyError):
            normal_space_at(spec, (1, 1, 1))

    def test_rank_above_codimension_rejected(self):
        spec = IdealSpec.from_strings(("x1", "x2"), ["x1", "x2"], codim=1)
        with pytest.raises(CodimensionError):
            normal_space_at(spec, (0, 0))

    def test_singular_point_needs_flag(self):
        spec = IdealSpec.from_strings(("x1", "x2"), [CUSPIDAL])
        with pytest.raises(SingularPointError):
            normal_space_at(spec, (0, 0))
        ns = normal_space_at(spec, (0, 0), allow_singular=True)
        assert ns.forms == ()
        assert ns.free_columns == (0, 1)


class TestCriticalIdeal:
    def test_twisted_cubic_minor_count(self):
        spec = IdealSpec.from_strings(
            ("x1", "x2", "x3"), ["x2 - x1^2", "x3 - x1*x2"], codim=2)
        ci = critical_ideal(spec, (0, 0, 0))
        # two variety generators, the single 3x3 determinant, the
        # normal-space form u1 and the bisector
        assert len(ci.generators) == 5
        assert str(ci.generators[3]) == "u1"

    def test_critical_ideal_bisector(self):
        spec = IdealSpec.from_strings(("x1", "x2"), [CUSPIDAL])
        ci = critical_ideal(spec, (4, 8))
        ring = ci.ring
        bis = parse_polynomial(
            "x1^2 + x2^2 - 2*u1*x1 - 2*u2*x2 + 8*u1 + 16*u2 - 80", ring)
        assert bis in set(ci.generators)
        # generator count: variety + minor + linear form + bisector
        assert len(ci.generators) == 4


class TestQuadricGolden:
    def test_boundary_ideal_exact(self, quadric_report):
        ring = quadric_report.boundary.ring
        expected = _polyset(ring, [
            "368*u3^3 + 71*u3^2 - 6*u3 - 1",
            "u1 - u3",
            "u2 - u3",
        ])
        assert set(quadric_report.boundary.polys) == expected
        assert quadric_report.degree == 3

    def test_slow_route_agrees(self, quadric_report):
        spec = IdealSpec.from_strings(("x1", "x2", "x3"), [QUADRIC])
        slow = _slow_boundary(spec, (0, 0, 0))
        fast = {str(p) for p in quadric_report.boundary.polys}
        assert {str(p) for p in slow.polys} == fast

    def test_cell_endpoints(self, quadric_report):
        section = boundary_on_normal_line(quadric_report)
        assert len(section.roots) == 3
        lo, hi = section.cell_bounds()
        assert abs(lo - (-0.106526)) < 1e-5
        assert abs(hi - 0.12225) < 1e-5
        # gradient has unit entries so the reach picks up a factor sqrt(3)
        assert abs(section.reach - 0.106526 * 3 ** 0.5) < 1e-4

    def test_output_purity(self, quadric_report):
        uvars = set(range(3))
        for p in quadric_report.boundary.polys:
            assert p.ring is quadric_report.boundary.ring
            assert set(p.variables_used()) <= uvars


class TestCuspidalGolden:
    def test_minimal_components(self, cuspidal_report):
        ring = cuspidal_report.boundary.ring
        got = {
            (frozenset(comp.generators), comp.multiplicity,
             comp.certified_irreducible)
            for comp in cuspidal_report.components
        }
        expected = {
            (frozenset(_polyset(ring, ["u1 - 28", "u2"])), 1, True),
            (frozenset(_polyset(ring, ["u1 + 26", "u2 - 18"])), 3, True),
            (frozenset(_polyset(ring,
                ["u1 + 3*u2 - 28", "27*u2^2 - 486*u2 + 2197"])), 1, True),
        }
        assert got == expected

    def test_boundary_equals_component_intersection(self, cuspidal_report):
        ring = cuspidal_report.boundary.ring
        comps = [list(c.generators) for c in cuspidal_report.components]
        acc = comps[0]
        for nxt in comps[1:]:
            acc = list(intersect(acc, nxt, ring).polys)
        inter = groebner_basis(acc, ring)
        assert set(inter.polys) == set(cuspidal_report.boundary.polys)
        assert quotient_degree(inter) == 4
        assert cuspidal_report.degree == 4

    def test_quadratic_component_has_no_real_points(self, cuspidal_report):
        ring = cuspidal_report.boundary.ring
        quad = parse_polynomial("27*u2^2 - 486*u2 + 2197", ring)
        assert count_real_roots(dense_from_poly(quad)) == 0

    def test_real_boundary_points(self, cuspidal_report):
        # rational components pin the two real boundary points exactly
        ring = cuspidal_report.boundary.ring
        pts = {(Fraction(28), Fraction(0)), (Fraction(-26), Fraction(18))}
        rational_pts = set()
        for comp in cuspidal_report.components:
            gens = set(comp.generators)
            if all(g.total_degree() == 1 for g in gens):
                sol = _solve_two_linear(ring, gens)
                rational_pts.add(sol)
        assert rational_pts == pts

    def test_boundary_points_equidistant_to_second_critical_point(self):
        # right endpoint pairs with (4,-8), left endpoint with the cusp
        def d2(a, b):
            return sum((Fraction(p) - Fraction(q)) ** 2 for p, q in zip(a, b))

        y = (4, 8)
        assert d2((28, 0), y) == d2((28, 0), (4, -8)) == 640
        assert d2((-26, 18), y) == d2((-26, 18), (0, 0)) == 1000
        # both partner points lie on the curve
        assert 4 ** 3 - (-8) ** 2 == 0

    def test_nearest_point_oracle_on_parameterized_curve(self):
        # the curve is t -> (t^2, t^3); inside the cell the nearest curve
        # point to u = y + lambda * grad stays y itself, past the boundary
        # root at lambda = 1/2 it jumps to the mirror branch
        def nearest_t(u):
            best = None
            for k in range(-4000, 4001):
                t = k / 1000.0
                d = (t * t - u[0]) ** 2 + (t ** 3 - u[1]) ** 2
                if best is None or d < best[0]:
                    best = (d, t)
            return best[1]

        grad = (48, -16)
        for lam, expect_home in ((-0.5, True), (0.0, True), (0.45, True),
                                 (0.6, False), (-0.7, False)):
            u = (4 + lam * grad[0], 8 + lam * grad[1])
            t_star = nearest_t(u)
            if expect_home:
                assert abs(t_star - 2.0) < 2e-3
            else:
                assert abs(t_star - 2.0) > 0.05

    def test_cell_bounds_on_normal_line(self, cuspidal_report):
        section = boundary_on_normal_line(cuspidal_report)
        lo, hi = section.cell_bounds()
        assert abs(lo - (-0.625)) < 1e-9
        assert abs(hi - 0.5) < 1e-9


class TestSingularAndHigherCodim:
    def test_cusp_boundary_up_to_scalar(self):
        spec = IdealSpec.from_strings(("x1", "x2"), [CUSPIDAL])
        with pytest.raises(SingularPointError):
            voronoi_ideal(spec, (0, 0))
        report = voronoi_ideal(spec, (0, 0), allow_singular=True)
        ring = report.boundary.ring
        expected = parse_polynomial(
            "27*u2^4 + 128*u1^3 + 72*u1*u2^2 + 32*u1^2 + u2^2 + 2*u1",
            ring).monic()
        assert [p.monic() for p in report.boundary.polys] == [expected]
        assert report.degree == 4

    def test_twisted_cubic_plane_quartic(self):
        spec = IdealSpec.from_strings(
            ("x1", "x2", "x3"), ["x2 - x1^2", "x3 - x1*x2"], codim=2)
        report = voronoi_ideal(spec, (0, 0, 0))
        ring = report.boundary.ring
        assert set(report.normal_space.forms) == _polyset(ring, ["u1"])
        expected = _polyset(ring, [
            "27*u3^4 + 128*u2^3 + 72*u2*u3^2 - 160*u2^2 - 35*u3^2"
            " + 66*u2 - 9",
            "u1",
        ])
        assert set(report.boundary.polys) == expected
        assert report.degree == 4

    def test_twisted_cubic_sliced_to_points(self):
        # one generic affine slice cuts the quartic boundary curve of the
        # normal plane down to four points, counted with multiplicity
        spec = IdealSpec.from_strings(
            ("x1", "x2", "x3"), ["x2 - x1^2", "x3 - x1*x2"], codim=2)
        ns = normal_space_at(spec, (0, 0, 0))
        cut = parse_polynomial("u2 + 2*u3 - 1", ns.u_ring)
        sring, gens = parametric_critical_system(spec, ns, slices=(cut,))
        xs = [sring.variable(i) for i in range(3)]
        sat = saturate(gens, xs, sring)
        points = eliminate(sat.polys, spec.ring.variables, sat.ring)
        assert quotient_degree(points) == 4

    def test_twisted_cubic_slow_route_agrees(self):
        # codim 2: the critical ideal carries one 3x3 minor
        spec = IdealSpec.from_strings(
            ("x1", "x2", "x3"), ["x2 - x1^2", "x3 - x1*x2"], codim=2)
        slow = _slow_boundary(spec, (0, 0, 0))
        report = voronoi_ideal(spec, (0, 0, 0))
        assert slow.ring == report.boundary.ring
        assert slow.polys == report.boundary.polys

    def test_sphere_boundary_is_center(self):
        spec = IdealSpec.from_strings(
            ("x1", "x2", "x3"), ["x1^2 + x2^2 + x3^2 - 1"])
        report = voronoi_ideal(spec, (1, 0, 0))
        ring = report.boundary.ring
        assert set(report.boundary.polys) == _polyset(ring, ["u1", "u2", "u3"])
        assert report.degree == 1
        section = boundary_on_normal_line(report)
        assert section.lambda_upper is None
        bracket = section.lambda_lower
        assert bracket.lower <= Fraction(-1, 2) <= bracket.upper
        assert abs(section.reach - 1.0) < 1e-9


class TestCardioid:
    def test_boundary_and_components(self):
        spec = IdealSpec.from_strings(("x1", "x2"), [CARDIOID])
        report = voronoi_ideal(spec, (0, 1))
        ring = report.boundary.ring
        expected = _polyset(ring, ["2*u2^2 - u2", "u1 - u2 + 1"])
        assert set(report.boundary.polys) == expected
        got = {(frozenset(c.generators), c.multiplicity)
               for c in report.components}
        assert got == {
            (frozenset(_polyset(ring, ["u1 + 1", "u2"])), 1),
            (frozenset(_polyset(ring, ["2*u1 + 1", "2*u2 - 1"])), 3),
        }

    def test_ray_reach(self):
        spec = IdealSpec.from_strings(("x1", "x2"), [CARDIOID])
        report = voronoi_ideal(spec, (0, 1))
        section = boundary_on_normal_line(report)
        assert section.gradient == (Fraction(2), Fraction(2))
        lo, hi = section.cell_bounds()
        assert abs(lo - (-0.25)) < 1e-9
        assert hi == float("inf")
        # boundary point y + lambda*grad at lambda = -1/4 is (-1/2, 1/2)
        assert abs(section.reach - 2 ** 0.5 / 2) < 1e-9


class TestSlowRouteScheme:
    @pytest.mark.parametrize("text, point, multiplicities, degree", [
        (CUSPIDAL, (4, 8), [1, 1, 3], 6),
        (CARDIOID, (0, 1), [1, 3], 4),
    ], ids=["cusp", "cardioid"])
    def test_univariate_generator_is_the_scheme(self, text, point,
                                                multiplicities, degree):
        # the slow route keeps the scheme, while the pipeline reports its
        # radical: the slow route's generator in u2 is the product of the
        # component factors, each raised to its multiplicity
        spec = IdealSpec.from_strings(("x1", "x2"), [text])
        report = voronoi_ideal(spec, point)
        slow = _slow_boundary(spec, point)
        assert slow.ring == report.boundary.ring
        [scheme] = [p for p in slow.polys if set(p.variables_used()) == {1}]
        factors = []
        for comp in report.components:
            [factor] = [g for g in comp.generators
                        if set(g.variables_used()) == {1}]
            factors.append(factor ** comp.multiplicity)
        assert [c.multiplicity for c in report.components] == multiplicities
        assert scheme == prod(factors).monic()
        assert scheme.total_degree() == degree


class TestEquivariance:
    def test_rotated_cuspidal_cubic(self, cuspidal_report):
        # rotate by R = [[3,-4],[4,3]]/5; the rotated variety's boundary
        # ideal at Ry is the original boundary ideal pulled back by R^T
        spec = IdealSpec.from_strings(("x1", "x2"), [CUSPIDAL])
        ring = spec.ring
        x1, x2 = ring.gens()
        fifth = Fraction(1, 5)
        a = x1.scale(3 * fifth) + x2.scale(4 * fifth)
        b = x1.scale(-4 * fifth) + x2.scale(3 * fifth)
        rotated = IdealSpec(ring, (a ** 3 - b ** 2,))
        y_rot = (Fraction(3 * 4 - 4 * 8, 5), Fraction(4 * 4 + 3 * 8, 5))
        assert y_rot == (Fraction(-4), Fraction(8))
        report_rot = voronoi_ideal(rotated, y_rot)

        uring = cuspidal_report.boundary.ring
        u1, u2 = uring.gens()
        ra = u1.scale(3 * fifth) + u2.scale(4 * fifth)
        rb = u1.scale(-4 * fifth) + u2.scale(3 * fifth)
        pulled = [p.compose(uring, [ra, rb])
                  for p in cuspidal_report.boundary.polys]
        pulled_gb = groebner_basis(pulled, uring)
        assert set(pulled_gb.polys) == set(report_rot.boundary.polys)


class TestBudget:
    def test_budget_exhaustion_reports_stage(self):
        spec = IdealSpec.from_strings(("x1", "x2", "x3"), [QUADRIC])
        with pytest.raises(BudgetExhaustedError) as err:
            voronoi_ideal(spec, (0, 0, 0), budget=25)
        assert err.value.stage in {"saturation", "intersection", "groebner"}

    def test_engines_carry_the_label_of_their_step(self, monkeypatch):
        # a voronoi report saturates, intersects and interreduces, and each
        # Groebner engine it builds is labelled so; its degree reads the
        # leading terms alone, with no engine.  On a normal line the parts
        # are principal in one variable and intersect by their lcm, with no
        # engine; the twisted cubic's normal plane has bivariate parts,
        # which take the engine route
        labels = []
        engine_init = groebner._Engine.__init__

        def record(self, ring, budget, stage, steps=0):
            labels.append(stage)
            engine_init(self, ring, budget, stage, steps)

        monkeypatch.setattr(groebner._Engine, "__init__", record)
        line = ["saturation", "interreduction"]
        for gens, y, codim, steps in (
                (["x1^3 - x2^2"], (4, 8), None, line),
                ([QUADRIC], (0, 0, 0), None, line),
                (["x2 - x1^2", "x3 - x1*x2"], (0, 0, 0), 2,
                 ["saturation", "intersection", "interreduction"])):
            labels.clear()
            names = tuple(f"x{i + 1}" for i in range(len(y)))
            voronoi_ideal(IdealSpec.from_strings(names, gens, codim=codim), y)
            assert [k for k, _ in groupby(labels)] == steps

    def test_staircases_read_the_leading_terms_alone(self, monkeypatch):
        # each line-route elimination walks its normal set once, a report
        # on a normal line reads its degree off the principal generator,
        # and the degree lab asks one degree question per replica; no
        # staircase builds an engine of its own
        labels = []
        walks = []
        engine_init = groebner._Engine.__init__
        normal_set = groebner._normal_set

        def record(self, ring, budget, stage, steps=0):
            labels.append(stage)
            engine_init(self, ring, budget, stage, steps)

        def walk(lts, n):
            walks.append(n)
            return normal_set(lts, n)

        monkeypatch.setattr(groebner._Engine, "__init__", record)
        monkeypatch.setattr(groebner, "_normal_set", walk)
        voronoi_ideal(IdealSpec.from_strings(("x1", "x2"), [CUSPIDAL]), (4, 8))
        assert "dimension" not in labels
        assert len(labels) == 10
        assert len(walks) == 2
        labels.clear()
        walks.clear()
        hypersurface_degree_experiment(2, 4, seed=0)
        assert len(labels) == 3
        assert len(walks) == 6
        basis = groebner_basis(parse_polynomial(g, PolyRing(("x", "y")))
                               for g in ("x^2 - y", "y^3 - 1"))
        labels.clear()
        walks.clear()
        assert is_zero_dimensional(basis)
        assert quotient_degree(basis) == 6
        assert labels == []
        assert len(walks) == 2

    def test_fractional_point_spends_the_rational_step_count(self):
        # the cuspidal cubic at t = 2/5: 145 steps run out in the
        # saturation and 146 suffice
        spec = IdealSpec.from_strings(("x1", "x2"), [CUSPIDAL])
        t = Fraction(2, 5)
        with pytest.raises(BudgetExhaustedError) as err:
            voronoi_ideal(spec, (t**2, t**3), budget=145)
        assert err.value.stage == "saturation"
        report = voronoi_ideal(spec, (t**2, t**3), budget=146)
        assert report.degree == 4


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "voronoi_golden.json").read_text())


def _golden_hypersurfaces():
    """(name, spec, point, allow_singular) of every golden call on a
    variety with one defining equation that runs to completion."""
    for case in GOLDEN:
        argv = case["argv"]
        spec = IdealSpec.from_json(argv[1])
        if len(spec.generators) != 1 or "--budget" in argv:
            continue
        point = tuple(Fraction(v)
                      for v in json.loads(argv[argv.index("--point") + 1]))
        yield case["name"], spec, point, "--allow-singular" in argv


def _random_hypersurfaces(count=24, seed=21):
    """Plane curves of degree 2 or 3 and quadric surfaces, alternately,
    with coefficients in -3..3, through an integer point where their
    gradient does not vanish."""
    rng = random.Random(seed)
    for i in range(count):
        n, d = (2, rng.choice((2, 3))) if i % 2 == 0 else (3, 2)
        ring = PolyRing(tuple(f"x{j + 1}" for j in range(n)))
        xs = ring.gens()
        while True:
            y = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            f = ring.zero()
            for exps in product(range(d + 1), repeat=n):
                if 0 < sum(exps) <= d:
                    mono = prod((x ** e for x, e in zip(xs, exps)),
                                start=ring.one())
                    f = f + rng.randint(-3, 3) * mono
            f = f - ring.constant(f.evaluate(y))
            grad = [f.derivative(j).evaluate(y) for j in range(n)]
            if f.total_degree() == d and any(grad):
                break
        yield f"random-{i}", IdealSpec(ring, (f,)), y, False


HYPERSURFACES = list(_golden_hypersurfaces()) + list(_random_hypersurfaces())


@functools.cache
def _hypersurface_report(name):
    _, spec, point, allow_singular = next(
        case for case in HYPERSURFACES if case[0] == name)
    return voronoi_ideal(spec, point, allow_singular=allow_singular)


def _restricted_by_gcd(report):
    """The boundary on y + lambda * grad by a route of its own: restrict
    every ambient boundary member to the line and take their monic gcd."""
    n = report.spec.ring.nvars
    g = report.spec.generators[0]
    grad = [g.derivative(i).evaluate(report.point) for i in range(n)]
    lring = PolyRing(("lam",))
    lam = lring.variable(0)
    images = [lring.constant(report.point[i]) + lring.constant(grad[i]) * lam
              for i in range(n)]
    out = []
    for p in report.boundary.polys:
        moved = p.compose(lring, images)
        if not moved.is_zero():
            dense = primitive_integer_form(dense_from_poly(moved))
            out = dense_gcd(out, dense) if out else dense
    return tuple(Fraction(c) / out[-1] for c in out)


class TestLineReportOracles:
    """A line report reads its normal line and the reality of each
    component off its own factorization; both are checked here against
    the routes that derive them again from the ambient basis."""

    IDS = [case[0] for case in HYPERSURFACES]

    def test_enough_cases(self):
        assert len(self.IDS) >= 26
        lines = [name for name in self.IDS
                 if _hypersurface_report(name).normal_space.dimension == 1]
        assert len(lines) >= len(self.IDS) - 1

    @pytest.mark.parametrize("name", IDS)
    def test_normal_line_is_the_restricted_boundary(self, name):
        report = _hypersurface_report(name)
        if report.normal_space.dimension != 1:
            with pytest.raises(ValueError):
                boundary_on_normal_line(report)
            return
        section = boundary_on_normal_line(report)
        assert section.coefficients == _restricted_by_gcd(report)

    @pytest.mark.parametrize("name", IDS)
    def test_component_reality_is_a_sturm_count(self, name):
        report = _hypersurface_report(name)
        if report.components is None:
            assert report.normal_space.dimension != 1
            return
        for comp in report.components:
            univariate = [g for g in comp.generators
                          if len(g.variables_used()) == 1]
            assert univariate
            counts = [count_real_roots(dense_from_poly(g)) for g in univariate]
            assert comp.real is all(c > 0 for c in counts)


def _solve_two_linear(ring, gens):
    """Exact solution of two independent affine-linear forms in u1, u2."""
    rows = []
    for g in sorted(gens, key=str):
        row = [Fraction(0), Fraction(0), Fraction(0)]
        for mon, coeff in g.terms.items():
            if sum(mon) == 0:
                row[2] = coeff
            else:
                row[mon.index(1)] = coeff
        rows.append(row)
    (a, b, e), (c, d, f) = rows
    det = a * d - b * c
    assert det != 0
    return ((-e * d + b * f) / det, (-a * f + c * e) / det)
