"""Acceptance suite.

One test per acceptance criterion; each records a single pass/fail line,
printed by the conftest terminal-summary hook after the run, and enforces
the criterion's stated tolerances and runtime budget.
"""
import functools
import random
import time
from fractions import Fraction

import numpy as np

from conftest import ACCEPTANCE_LINES

from voronoi_cells.degrees import (
    TABLE_HOMOGENEOUS,
    TABLE_INHOMOGENEOUS,
    conjecture_hypersurface,
    formula_cone,
    formula_curve,
    formula_surface,
    hypersurface_degree_experiment,
    lowrank_voronoi_degree,
    plane_curve_genus,
)
from voronoi_cells.exactmath import (
    PolyRing,
    count_real_roots,
    dense_from_poly,
    parse_polynomial,
)
from voronoi_cells.groebner import (
    IdealSpec,
    eliminate,
    groebner_basis,
    intersect,
    normal_form,
    saturate,
)
from voronoi_cells.lowrank import cell_membership, eckart_young_truncate
from voronoi_cells.sdp import leveld_membership
from voronoi_cells.voronoi import boundary_on_normal_line, voronoi_ideal


def criterion(number: int, title: str, limit: float | None = None):
    """Record one verdict line per criterion for the summary report."""
    def mark(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                ACCEPTANCE_LINES.append(
                    f"criterion {number:2d} FAIL {title} [{elapsed:.1f}s]")
                raise
            elapsed = time.perf_counter() - start
            budget = "" if limit is None else f" < {limit:.0f}s"
            ACCEPTANCE_LINES.append(
                f"criterion {number:2d} PASS {title} "
                f"[{elapsed:.1f}s{budget}]")
            if limit is not None:
                assert elapsed < limit, (
                    f"criterion {number} exceeded its {limit}s budget")
        return wrapper
    return mark


QUADRIC = ("x1^2 + x2^2 + x3^2 - 3*x1*x2 - 5*x1*x3 - 7*x2*x3"
           " + x1 + x2 + x3")
CUSPIDAL_CUBIC = "x1^3 - x2^2"
CARDIOID = "(x1^2 + x2^2 + x1)^2 - x1^2 - x2^2"
TWISTED_CUBIC = ("x2 - x1^2", "x3 - x1*x2")


def _monic_set(ring, texts):
    return {parse_polynomial(t, ring).monic() for t in texts}


@criterion(1, "quadric surface at 0: exact boundary ideal, cell endpoints"
              " within 1e-5", limit=60.0)
def test_criterion_1_quadric_surface():
    spec = IdealSpec.from_strings(("x1", "x2", "x3"), [QUADRIC])
    report = voronoi_ideal(spec, (0, 0, 0))
    ring = report.boundary.ring
    expected = _monic_set(ring, [
        "u1 - u3",
        "u2 - u3",
        "368*u3^3 + 71*u3^2 - 6*u3 - 1",
    ])
    assert set(report.boundary.polys) == expected

    section = boundary_on_normal_line(report)
    lo, hi = section.cell_bounds()
    assert abs(lo - (-0.106526)) < 1e-5
    assert abs(hi - 0.12225) < 1e-5


@criterion(2, "cuspidal cubic at (4,8): three components, real boundary"
              " points, Sturm certificate", limit=30.0)
def test_criterion_2_cuspidal_cubic():
    spec = IdealSpec.from_strings(("x1", "x2"), [CUSPIDAL_CUBIC])
    report = voronoi_ideal(spec, (4, 8))
    ring = report.boundary.ring

    printed = [
        ["u1 - 28", "u2"],
        ["u1 + 26", "u2 - 18"],
        ["u1 + 3*u2 - 28", "27*u2^2 - 486*u2 + 2197"],
    ]
    acc = [parse_polynomial(t, ring) for t in printed[0]]
    for texts in printed[1:]:
        nxt = [parse_polynomial(t, ring) for t in texts]
        acc = list(intersect(acc, nxt, ring).polys)
    merged = groebner_basis(acc, ring)
    assert set(merged.polys) == set(report.boundary.polys)

    # the two rational point components are the real boundary
    points = set()
    for comp in report.components:
        gens = list(comp.generators)
        if all(g.total_degree() == 1 for g in gens):
            rows = []
            for g in sorted(gens, key=str):
                row = [Fraction(0)] * 3
                for mon, coeff in g.terms.items():
                    row[2 if sum(mon) == 0 else mon.index(1)] = coeff
                rows.append(row)
            (a, b, e), (c, d, f) = rows
            det = a * d - b * c
            points.add(((-e * d + b * f) / det, (-a * f + c * e) / det))
    assert points == {(Fraction(28), Fraction(0)),
                      (Fraction(-26), Fraction(18))}

    quadratic = parse_polynomial("27*u2^2 - 486*u2 + 2197", ring)
    assert count_real_roots(dense_from_poly(quadratic)) == 0


@criterion(3, "cusp at the origin: boundary quartic up to a rational"
              " scalar", limit=60.0)
def test_criterion_3_cusp_cell():
    spec = IdealSpec.from_strings(("x1", "x2"), [CUSPIDAL_CUBIC])
    report = voronoi_ideal(spec, (0, 0), allow_singular=True)
    assert len(report.boundary.polys) == 1
    [boundary] = report.boundary.polys
    target = parse_polynomial(
        "27*u2^4 + 128*u1^3 + 72*u1*u2^2 + 32*u1^2 + u2^2 + 2*u1",
        report.boundary.ring)
    assert boundary.monic() == target.monic()


TABLE1_DESK = {(1, 2): 1, (1, 5): 4, (2, 2): 2, (2, 3): 8, (2, 4): 16,
               (3, 2): 3, (3, 3): 23}
TABLE2_DESK = {(2, 2): 2, (2, 3): 4, (3, 2): 3, (3, 3): 13}


@criterion(4, "Table 1 desk cells measured mod p, stable over 3 replicas",
           limit=900.0)
def test_criterion_4_table1_experiments():
    for (n, d), expected in sorted(TABLE1_DESK.items()):
        experiment = hypersurface_degree_experiment(n, d, seed=0)
        assert experiment.degree == expected, (n, d, experiment)
        assert experiment.stable, (n, d, experiment)
        assert len(experiment.replicas) == 3
        assert {r[2] for r in experiment.replicas} == {expected}


@criterion(5, "Table 2 desk cells measured mod p", limit=600.0)
def test_criterion_5_table2_experiments():
    for (n, d), expected in sorted(TABLE2_DESK.items()):
        experiment = hypersurface_degree_experiment(n, d, homogeneous=True,
                                                    seed=0)
        assert experiment.degree == expected, (n, d, experiment)
        assert experiment.stable, (n, d, experiment)


@criterion(6, "closed-form evaluators reproduce every printed value",
           limit=1.0)
def test_criterion_6_formulas():
    # curves: plane-curve genus collapses to d^2 + d - 4; rational and
    # elliptic rows; two worked values
    for d in range(2, 9):
        assert formula_curve(d, plane_curve_genus(d)) == d * d + d - 4
        assert formula_curve(d, 0) == 4 * d - 6
        assert formula_curve(d, 1) == 4 * d - 4
    assert formula_curve(4, 1) == 12
    assert formula_curve(3, 0) == 6

    # surfaces in projective 3-space give d^3 + d - 7; Veronese surfaces
    # give 11 e^2 - 12 e - 4, which is 16 at e = 2
    for d in range(2, 7):
        chi = d * (d * d - 4 * d + 6)
        assert formula_surface(d, chi, (d - 1) ** 2) == d ** 3 + d - 7
    for e in range(2, 6):
        g2 = (2 * e - 1) * (2 * e - 2) // 2
        assert formula_surface(e * e, 3, g2) == 11 * e * e - 12 * e - 4
    assert formula_surface(4, 3, 3) == 16

    # cones over plane curves give 2 d^2 - 5
    for d in range(2, 9):
        assert formula_cone(d, plane_curve_genus(d)) == 2 * d * d - 5

    # the conjectured closed form matches every published table cell
    cells = 0
    for (n, d), value in TABLE_INHOMOGENEOUS.items():
        assert conjecture_hypersurface(n, d) == value, (n, d)
        cells += 1
    for (n, d), value in TABLE_HOMOGENEOUS.items():
        assert conjecture_hypersurface(n, d, homogeneous=True) == value, \
            (n, d)
        cells += 1
    assert cells == 58


def _random_orthogonal(dim: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


@criterion(7, "low-rank oracle: 1000 truncations never outside, orthogonal"
              " invariance, 2(m-r) goldens", limit=10.0)
def test_criterion_7_lowrank_suite():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        u = rng.standard_normal((m, n)) * float(rng.uniform(0.5, 4.0))
        r = int(rng.integers(1, min(m, n) + 1))
        v = eckart_young_truncate(u, r)
        if np.linalg.matrix_rank(v, tol=1e-7) != r:
            continue
        assert cell_membership(u, v, r, tol=1e-7) != "outside"

    for _ in range(50):
        m, n, r = 4, 5, 2
        v = (rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))
        bump = rng.standard_normal((m, n)) * float(rng.uniform(0.0, 3.0))
        u = v + bump
        q1 = _random_orthogonal(m, rng)
        q2 = _random_orthogonal(n, rng)
        base = cell_membership(u, v, r, tol=1e-8)
        moved = cell_membership(q1 @ u @ q2.T, q1 @ v @ q2.T, r, tol=1e-8)
        assert base == moved

    assert lowrank_voronoi_degree(2, 2, 1) == 2
    assert lowrank_voronoi_degree(3, 3, 1) == 4
    assert lowrank_voronoi_degree(4, 7, 2) == 4
    for m in range(1, 7):
        for n in range(m, 9):
            for r in range(1, m):
                assert lowrank_voronoi_degree(m, n, r) == 2 * (m - r)


@criterion(8, "twisted cubic tangency: certified u2 supremum at 0.5 within"
              " 1e-3")
def test_criterion_8_tangency_grid():
    ring = PolyRing(("x1", "x2", "x3"))
    polys = [parse_polynomial(t, ring) for t in TWISTED_CUBIC]
    y = (0.0, 0.0, 0.0)

    assert leveld_membership(polys, y, (0.0, 0.4, 0.0), 1).status == "member"
    assert (leveld_membership(polys, y, (0.0, 0.6, 0.0), 1).status
            == "non-member")

    supremum = None
    for k in range(0, 1001):
        u2 = k / 1000.0
        if leveld_membership(polys, y, (0.0, u2, 0.0), 1).status == "member":
            supremum = u2
    assert supremum is not None
    assert abs(supremum - 0.5) <= 1e-3


@criterion(9, "cardioid level-2 ray verdicts and the membership hierarchy"
              " on 100-point grids")
def test_criterion_9_leveld_and_hierarchy():
    ring2 = PolyRing(("x1", "x2"))
    cardioid = [parse_polynomial(CARDIOID, ring2)]
    y2 = (0.0, 1.0)
    for t in (0.1, 0.5, 2.0):
        res = leveld_membership(cardioid, y2, (t, 1.0 + t), 2)
        assert res.status == "member", (t, res)
    for t in (-0.1, -0.25):
        res = leveld_membership(cardioid, y2, (t, 1.0 + t), 2)
        assert res.status == "non-member", (t, res)

    # hierarchy on the cardioid: level 2 members stay members at level 3
    for t in np.linspace(-0.5, 2.0, 100):
        u = (float(t), float(1.0 + t))
        low = leveld_membership(cardioid, y2, u, 2).status
        if low == "member":
            high = leveld_membership(cardioid, y2, u, 3).status
            assert high != "non-member", t

    # hierarchy on the twisted cubic: level 1 members stay members at
    # level 2, on a 10 x 10 grid in the normal plane
    ring3 = PolyRing(("x1", "x2", "x3"))
    cubic = [parse_polynomial(t, ring3) for t in TWISTED_CUBIC]
    y3 = (0.0, 0.0, 0.0)
    for a in np.linspace(-0.6, 0.6, 10):
        for b in np.linspace(-0.6, 0.6, 10):
            u = (0.0, float(a), float(b))
            low = leveld_membership(cubic, y3, u, 1).status
            if low == "member":
                high = leveld_membership(cubic, y3, u, 2).status
                assert high != "non-member", u


def _random_poly(ring, rng, max_degree=2, max_terms=4):
    n = ring.nvars
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mon = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            mon[rng.randrange(n)] += 1
        coeff = Fraction(rng.randint(-3, 3))
        if coeff:
            terms[tuple(mon)] = terms.get(tuple(mon), Fraction(0)) + coeff
    poly = ring.from_terms({m: c for m, c in terms.items() if c})
    return poly


@criterion(10, "property floor: 500 randomized GB/saturation/elimination/"
               "parse instances, 0 failures")
def test_criterion_10_property_floor():
    rng = random.Random(20260816)
    ring2 = PolyRing(("x", "y"))
    ring3 = PolyRing(("x", "y", "z"))
    failures = 0
    instances = 0

    # parse round-trips
    for _ in range(200):
        poly = _random_poly(ring3, rng, max_degree=3, max_terms=6)
        if poly.is_zero():
            poly = ring3.one()
        instances += 1
        if parse_polynomial(str(poly), ring3) != poly:
            failures += 1

    # GB uniqueness under generator shuffles, and idempotence
    for _ in range(120):
        gens = [_random_poly(ring2, rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()] or [ring2.one()]
        instances += 1
        gb = groebner_basis(gens, ring2)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        if set(groebner_basis(shuffled, ring2).polys) != set(gb.polys):
            failures += 1
            continue
        if set(groebner_basis(list(gb.polys), ring2).polys) != set(gb.polys):
            failures += 1

    # saturation idempotence: (I : g^inf) : g^inf = (I : g^inf)
    for _ in range(90):
        gens = [_random_poly(ring2, rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()] or [ring2.variable(0)]
        g = ring2.variable(rng.randrange(2))
        instances += 1
        once = saturate(gens, [g], ring2)
        twice = saturate(list(once.polys), [g], ring2)
        if set(once.polys) != set(twice.polys):
            failures += 1

    # elimination soundness: outputs drop the variable yet stay inside
    # the ideal
    for _ in range(90):
        gens = [_random_poly(ring3, rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()] or [ring3.variable(0)]
        instances += 1
        gb = groebner_basis(gens, ring3)
        projected = eliminate(gens, ["x"], ring3)
        ok = True
        for p in projected.polys:
            moved = parse_polynomial(str(p), ring3)
            if ring3.index_of("x") in moved.variables_used():
                ok = False
            if not normal_form(moved, gb).is_zero():
                ok = False
        if not ok:
            failures += 1

    assert instances >= 500
    assert failures == 0
