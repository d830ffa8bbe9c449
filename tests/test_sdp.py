"""Spectrahedral membership certificates and the LMI feasibility engine."""
import math
from fractions import Fraction

import numpy as np
import pytest

from voronoi_cells import sdp
from voronoi_cells.exactmath import PolyRing, parse_polynomial
from voronoi_cells.sdp import (
    DEFAULT_SDP_TOL,
    LMIFeasibilityProblem,
    leveld_membership,
    lmi_feasible,
    veronese_lift,
)
from voronoi_cells.voronoi import PointNotOnVarietyError

RING3 = PolyRing(("x1", "x2", "x3"))
TWISTED_CUBIC = (parse_polynomial("x2 - x1^2", RING3),
                 parse_polynomial("x3 - x1*x2", RING3))
ORIGIN = (0.0, 0.0, 0.0)

BAD_SETTINGS = pytest.mark.parametrize("setting", [
    {"tol": -1.0}, {"tol": math.inf}, {"tol": math.nan},
    {"max_iterations": 0}],
    ids=["negative-tol", "infinite-tol", "nan-tol", "no-iterations"])

RING2 = PolyRing(("x1", "x2"))
CARDIOID = parse_polynomial("(x1^2 + x2^2 + x1)^2 - x1^2 - x2^2", RING2)
CARDIOID_POINT = (0.0, 1.0)


def min_distance_to_curve(point_fn, u, lo, hi, samples=4001):
    """Distance from u to a parameterized curve, by dense sampling plus
    golden-section refinement around the best bracket."""
    u = np.asarray(u, dtype=float)

    def dist(t):
        return float(np.linalg.norm(np.asarray(point_fn(t)) - u))

    ts = np.linspace(lo, hi, samples)
    i = int(np.argmin([dist(t) for t in ts]))
    a = ts[max(i - 1, 0)]
    b = ts[min(i + 1, samples - 1)]
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c = b - shrink * (b - a)
        d = a + shrink * (b - a)
        if dist(c) < dist(d):
            b = d
        else:
            a = c
    return dist((a + b) / 2.0)


# every cache in sdp: the lift, base-point and factorization caches
SDP_CACHES = tuple(f for f in vars(sdp).values() if hasattr(f, "cache_info"))


def clear_sdp_caches():
    for cache in SDP_CACHES:
        cache.cache_clear()


@pytest.fixture
def cold_caches():
    clear_sdp_caches()
    yield
    clear_sdp_caches()


def same_answer(a, b) -> bool:
    """Bit-identical LMIResults or MembershipResults."""
    if (a.status, a.margin, a.iterations) != (b.status, b.margin,
                                               b.iterations):
        return False
    if a.witness is None or b.witness is None:
        return a.witness is b.witness
    return np.array_equal(a.witness, b.witness)


def hessian(f):
    """Hessian of f as the level-1 lift builds it."""
    return veronese_lift([f], f.ring.nvars, 1).hessians[0]


class TestHessian:
    def test_single_square(self):
        f = parse_polynomial("x1^2", RING3)
        assert np.array_equal(hessian(f), np.diag([2.0, 0.0, 0.0]))

    def test_parabola_constraint(self):
        h = hessian(TWISTED_CUBIC[0])
        expected = np.zeros((3, 3))
        expected[0, 0] = -2.0
        assert np.array_equal(h, expected)

    def test_bilinear_constraint(self):
        h = hessian(TWISTED_CUBIC[1])
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = -1.0
        assert np.array_equal(h, expected)

    def test_linear_and_constant_terms_vanish(self):
        f = parse_polynomial("x1*x2 + 3*x1 - 7", RING3)
        h = hessian(f)
        assert h[0, 1] == 1.0 and h[1, 0] == 1.0
        assert np.abs(h).sum() == 2.0

    def test_rejects_cubics(self):
        with pytest.raises(ValueError, match="exceeds 2d"):
            hessian(parse_polynomial("x1^3", RING3))


class TestQuadricSystem:
    """The quadric data of the level-1 lift."""

    def test_jacobian_columns_are_gradients(self):
        lift = veronese_lift(TWISTED_CUBIC, 3, 1)
        jac = lift.jacobian_at(ORIGIN)
        assert np.array_equal(jac[:, 0], [0.0, 1.0, 0.0])
        assert np.array_equal(jac[:, 1], [0.0, 0.0, 1.0])
        jac = lift.jacobian_at((1.0, 1.0, 1.0))
        assert np.array_equal(jac[:, 0], [-2.0, 1.0, 0.0])
        assert np.array_equal(jac[:, 1], [-1.0, -1.0, 1.0])

    def test_rejects_empty_and_mixed_rings(self):
        with pytest.raises(ValueError):
            veronese_lift((), 3, 1)
        with pytest.raises(ValueError):
            veronese_lift([TWISTED_CUBIC[0], parse_polynomial("x1", RING2)],
                          3, 1)


def golden_min(f, lo, hi, steps=60):
    """Minimum of a convex function on [lo, hi] by golden-section search."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = f(d)
    return min(fc, fd, f(lo), f(hi))


def min_top_eigenvalue(lhs, rhs, box=100.0):
    """min over |mu_j| <= box of the top eigenvalue of sum mu_j B_j - C,
    by nested golden-section search (one or two multipliers)."""
    def top(mu):
        m = sum(x * b for x, b in zip(mu, lhs)) - rhs
        return float(np.linalg.eigvalsh(m)[-1])

    if len(lhs) == 1:
        return golden_min(lambda x: top((x,)), -box, box)
    return golden_min(
        lambda x: golden_min(lambda y: top((x, y)), -box, box), -box, box)


def zero_optimum_lmi(rng):
    """4 x 4 LMI data with nine multipliers whose least top eigenvalue is
    exactly 0: every B_i is orthogonal to a rank-3 positive semidefinite
    Z*, which proves the bound, and some lam attains it three times."""
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    w = rng.standard_normal((3, 3))
    zstar = q[:, :3] @ (w @ w.T + 0.1 * np.eye(3)) @ q[:, :3].T
    lhs = []
    for _ in range(9):
        b = rng.standard_normal((4, 4))
        b = b + b.T
        b -= (b * zstar).sum() / (zstar * zstar).sum() * zstar
        lhs.append(250.0 * b)
    tops = [0.0, 0.0, 0.0, -250.0 * rng.uniform(0.05, 3.0)]
    lam = rng.standard_normal(9)
    rhs = sum(x * b for x, b in zip(lam, lhs)) - (q * tops) @ q.T
    return tuple(lhs), rhs


class TestLMIEngine:
    def test_identity_is_feasible(self):
        problem = LMIFeasibilityProblem(
            lhs=(np.eye(2),), rhs=np.eye(2),
            eq_matrix=np.zeros((0, 1)), eq_rhs=np.zeros(0))
        res = lmi_feasible(problem)
        assert res.status == "feasible"

    def test_forced_multiplier_is_infeasible_with_unit_margin(self):
        # lam pinned to 2 makes 2I - I have top eigenvalue exactly 1
        problem = LMIFeasibilityProblem(
            lhs=(np.eye(2),), rhs=np.eye(2),
            eq_matrix=np.array([[1.0]]), eq_rhs=np.array([2.0]))
        res = lmi_feasible(problem)
        assert res.status == "infeasible"
        assert res.margin == pytest.approx(1.0)

    def test_zero_multiplier_feasible_for_psd_rhs(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((3, 3))
        problem = LMIFeasibilityProblem(
            lhs=(b + b.T,), rhs=np.eye(3),
            eq_matrix=np.array([[1.0]]), eq_rhs=np.array([0.0]))
        res = lmi_feasible(problem)
        assert res.status == "feasible"
        assert np.abs(res.witness).max() <= 1e-12

    def test_inconsistent_equalities(self):
        problem = LMIFeasibilityProblem(
            lhs=(np.eye(2),), rhs=np.eye(2),
            eq_matrix=np.array([[1.0], [1.0]]), eq_rhs=np.array([1.0, 2.0]))
        res = lmi_feasible(problem)
        assert res.status == "infeasible"
        assert res.reason == "inconsistent-equalities"
        assert res.margin == math.inf

    def test_subgradient_walks_to_a_witness(self):
        # minimum-norm start (2, -2) violates the bound; the feasible
        # segment lam1 <= 1.5 with lam1 - lam2 = 4 must be found
        problem = LMIFeasibilityProblem(
            lhs=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
            rhs=1.5 * np.eye(2),
            eq_matrix=np.array([[1.0, -1.0]]), eq_rhs=np.array([4.0]))
        res = lmi_feasible(problem)
        assert res.status == "feasible"
        lam = res.witness
        assert lam[0] - lam[1] == pytest.approx(4.0)
        top = max(np.linalg.eigvalsh(
            lam[0] * np.diag([1.0, 0.0]) + lam[1] * np.diag([0.0, 1.0])
            - 1.5 * np.eye(2)))
        assert top <= problem.tol * 1.01

    def test_unbounded_direction_stalls_to_infeasible(self):
        # max(lam + 1, 1 - lam) is at least 1 for every lam
        problem = LMIFeasibilityProblem(
            lhs=(np.diag([1.0, -1.0]),), rhs=-np.eye(2),
            eq_matrix=np.zeros((0, 1)), eq_rhs=np.zeros(0))
        res = lmi_feasible(problem)
        assert res.status == "infeasible"
        assert res.margin == pytest.approx(1.0, abs=1e-6)

    def test_recession_direction_that_is_not_the_identity(self):
        # B1 + B2 is negative definite, neither B_j is, and no combination
        # is a multiple of I: the barrier falls without bound, so Newton
        # steps must walk down to a witness
        b1 = np.array([[1.0, 1.0], [1.0, -2.0]])
        b2 = np.diag([-3.0, 1.0])
        problem = LMIFeasibilityProblem(
            lhs=(b1, b2), rhs=-3.0 * np.eye(2),
            eq_matrix=np.zeros((0, 2)), eq_rhs=np.zeros(0))
        res = lmi_feasible(problem)
        assert res.status == "feasible"
        lam = res.witness
        top = max(np.linalg.eigvalsh(lam[0] * b1 + lam[1] * b2
                                     + 3.0 * np.eye(2)))
        assert top <= problem.tol

    def test_random_lmis_against_a_search_oracle(self):
        # no equalities, so M0 = -C and D_j = B_j; every infeasible
        # verdict must come with a dual matrix that proves it
        rng = np.random.default_rng(23)
        tol = DEFAULT_SDP_TOL
        seen = set()
        steps = 0
        for _ in range(40):
            size = int(rng.integers(2, 6))
            lhs = []
            for _ in range(int(rng.integers(1, 3))):
                b = rng.standard_normal((size, size))
                lhs.append(b + b.T)
            c = rng.standard_normal((size, size))
            rhs = c + c.T + rng.uniform(-2.0, 2.0) * np.eye(size)
            res = lmi_feasible(LMIFeasibilityProblem(
                lhs=tuple(lhs), rhs=rhs, eq_matrix=np.zeros((0, len(lhs))),
                eq_rhs=np.zeros(0), tol=tol))
            best = min_top_eigenvalue(lhs, rhs)
            assert (res.status == "feasible") == (best <= tol), (best, res)
            assert (res.status == "infeasible") == (best >= 10 * tol), \
                (best, res)
            if res.status == "feasible":
                lam = res.witness
                m = sum(x * b for x, b in zip(lam, lhs)) - rhs
                assert np.linalg.eigvalsh(m)[-1] <= tol
            else:
                z = res.witness
                assert np.linalg.eigvalsh(z)[0] >= 0.0
                assert np.trace(z) == pytest.approx(1.0, abs=1e-12)
                for b in lhs:
                    assert abs(float((b * z).sum())) <= 1e-9
                bound = float((-rhs * z).sum())
                assert 10 * tol <= bound <= best + 1e-9
            seen.add(res.status)
            steps += res.iterations
        assert seen == {"feasible", "infeasible"}
        # projecting in the barrier's local metric proves most infeasible
        # draws at the start point; the plain projection alone needs 56
        assert steps <= 40

    def test_no_proof_against_a_known_zero_optimum(self):
        # nine multipliers leave one dual direction in 4 x 4, so a dual
        # matrix whose constraints hold only to rounding can seem to prove
        # a positive bound on a problem whose optimum is 0
        rng = np.random.default_rng(5)
        for _ in range(12):
            lhs, rhs = zero_optimum_lmi(rng)
            res = lmi_feasible(LMIFeasibilityProblem(
                lhs=lhs, rhs=rhs, eq_matrix=np.zeros((0, 9)),
                eq_rhs=np.zeros(0)))
            assert res.status != "infeasible", res

    @BAD_SETTINGS
    def test_rejects_bad_settings(self, setting):
        problem = LMIFeasibilityProblem(
            lhs=(np.eye(2),), rhs=np.eye(2),
            eq_matrix=np.zeros((0, 1)), eq_rhs=np.zeros(0), **setting)
        with pytest.raises(ValueError):
            lmi_feasible(problem)

    def test_facial_reduction_zero_diagonal(self):
        # B has an identically zero diagonal entry, so feasibility forces
        # the off-diagonal row to match C exactly, pinning lam to 0
        problem = LMIFeasibilityProblem(
            lhs=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
            rhs=np.diag([0.0, 2.0]),
            eq_matrix=np.zeros((0, 1)), eq_rhs=np.zeros(0))
        res = lmi_feasible(problem)
        assert res.status == "feasible"
        assert np.abs(res.witness).max() <= 1e-9

    def test_facial_reduction_detects_unreachable_row(self):
        # the zero diagonal needs lam = 1 on the row while the equality
        # system demands lam = 0
        problem = LMIFeasibilityProblem(
            lhs=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
            rhs=np.array([[0.0, 1.0], [1.0, 2.0]]),
            eq_matrix=np.array([[1.0]]), eq_rhs=np.array([0.0]))
        res = lmi_feasible(problem)
        assert res.status == "infeasible"
        assert res.reason == "zero-diagonal-row"

    def test_vacuous_problem_after_reduction(self):
        problem = LMIFeasibilityProblem(
            lhs=(np.zeros((1, 1)),), rhs=np.zeros((1, 1)),
            eq_matrix=np.zeros((0, 1)), eq_rhs=np.zeros(0))
        res = lmi_feasible(problem)
        assert res.status == "feasible"

    def test_validates_shapes_and_symmetry(self):
        with pytest.raises(ValueError):
            lmi_feasible(LMIFeasibilityProblem(
                lhs=(np.array([[0.0, 1.0], [0.0, 0.0]]),), rhs=np.eye(2),
                eq_matrix=np.zeros((0, 1)), eq_rhs=np.zeros(0)))
        with pytest.raises(ValueError):
            lmi_feasible(LMIFeasibilityProblem(
                lhs=(np.eye(3),), rhs=np.eye(2),
                eq_matrix=np.zeros((0, 1)), eq_rhs=np.zeros(0)))
        with pytest.raises(ValueError):
            lmi_feasible(LMIFeasibilityProblem(
                lhs=(np.eye(2),), rhs=np.eye(2),
                eq_matrix=np.ones((1, 3)), eq_rhs=np.ones(1)))


def random_lifts():
    """Seeded random polynomials f in 1-3 variables, with their lifts of
    degree 1-3: yields (ring, f, lift)."""
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        ring = PolyRing(tuple(f"x{i+1}" for i in range(n)))
        for d in (1, 2, 3):
            mons = [tuple(int(e) for e in mon)
                    for mon in rng.integers(0, 2 * d + 1, size=(8, n))
                    if 0 < sum(mon) <= 2 * d]
            if not mons:
                continue
            terms = {mon: Fraction(int(rng.integers(-5, 6)) or 1)
                     for mon in mons}
            f = ring.from_terms(terms)
            yield ring, f, veronese_lift([f], n, d)


class TestVeroneseLift:
    def test_smallest_lift(self):
        ring = PolyRing(("x1",))
        lift = veronese_lift([parse_polynomial("x1^4 - 1", ring)], 1, 2)
        assert lift.indices == ((1,), (2,))
        assert lift.dimension == 2
        assert lift.relation_count == 1
        relation = lift.quadrics[1]
        assert relation.terms == {(0, 0): Fraction(1), (1,): Fraction(-1)}

    def test_cardioid_lift_layout(self):
        lift = veronese_lift([CARDIOID], 2, 2)
        assert lift.dimension == 5
        assert lift.indices == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        assert lift.lifted_count == 1
        assert lift.relation_count == 6

    def test_cardioid_lifted_quadric_terms(self):
        lift = veronese_lift([CARDIOID], 2, 2)
        q = lift.quadrics[0]
        assert q.terms == {
            (2, 2): Fraction(1),
            (2, 4): Fraction(2),
            (4, 4): Fraction(1),
            (0, 2): Fraction(2),
            (1, 3): Fraction(2),
            (4,): Fraction(-1),
        }

    def test_cardioid_relation_set(self):
        lift = veronese_lift([CARDIOID], 2, 2)
        got = {frozenset(q.terms) for q in lift.quadrics[1:]}
        expected = {
            frozenset({(0, 0), (2,)}),   # z1^2 = z3
            frozenset({(0, 1), (3,)}),   # z1 z2 = z4
            frozenset({(1, 1), (4,)}),   # z2^2 = z5
            frozenset({(0, 3), (1, 2)}),  # z1 z4 = z2 z3
            frozenset({(0, 4), (1, 3)}),  # z1 z5 = z2 z4
            frozenset({(3, 3), (2, 4)}),  # z4^2 = z3 z5
        }
        assert got == expected

    def test_linear_coordinates_come_first(self):
        for n, d in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            lift_indices = veronese_lift(
                [PolyRing(tuple(f"x{i+1}" for i in range(n))).variable(0)],
                n, d).indices
            units = tuple(tuple(1 if j == i else 0 for j in range(n))
                          for i in range(n))
            assert lift_indices[:n] == units

    def test_rejects_degree_overflow(self):
        with pytest.raises(ValueError):
            veronese_lift([CARDIOID], 2, 1)

    def test_rejects_oversized_lift(self):
        ring = PolyRing(("x1", "x2", "x3", "x4"))
        with pytest.raises(ValueError):
            veronese_lift([ring.variable(0)], 4, 4)  # needs 69 coordinates

    def test_randomized_lift_reproduces_inputs(self):
        for ring, f, lift in random_lifts():
            assert lift.quadrics[0].pullback(ring, lift.indices) == f

    def test_stacked_quadrics_match_the_exact_pullbacks(self):
        # c_i + linear[i] . z + (1/2) z^T hessians[i] z at z = point(y)
        # is quadric i at y, and column i of the Jacobian is its gradient
        rng = np.random.default_rng(19)
        checked = 0
        for ring, _, lift in random_lifts():
            q, size = len(lift.quadrics), lift.dimension
            assert lift.constant.shape == (q,)
            assert lift.hessians.shape == (q, size, size)
            assert lift.linear.shape == (q, size)
            for y in rng.uniform(-1.5, 1.5, size=(3, ring.nvars)):
                z = lift.point(y)
                jac = lift.jacobian_at(y)
                for i, quadric in enumerate(lift.quadrics):
                    pulled = quadric.pullback(ring, lift.indices)
                    want = float(pulled.evaluate([Fraction(v) for v in y]))
                    if i >= lift.lifted_count:
                        assert want == 0.0
                    scale = sum(abs(float(c)) * np.prod(np.abs(y) ** mon)
                                for mon, c in pulled.terms.items())
                    assert lift.constant[i] == float(
                        quadric.terms.get((), 0))
                    got = (lift.constant[i] + lift.linear[i] @ z
                           + 0.5 * z @ lift.hessians[i] @ z)
                    assert abs(got - want) <= 1e-9 * max(1.0, scale)
                    np.testing.assert_array_equal(
                        jac[:, i], lift.hessians[i] @ z + lift.linear[i])
                    checked += 1
        assert checked > 100


class TestLevelOne:
    def test_inside_the_tangent_parabola(self):
        res = leveld_membership(TWISTED_CUBIC, ORIGIN, (0.0, 0.4, 0.0), 1)
        assert res.status == "member"

    def test_outside_the_tangent_parabola(self):
        res = leveld_membership(TWISTED_CUBIC, ORIGIN, (0.0, 0.6, 0.0), 1)
        assert res.status == "non-member"

    def test_base_point_is_a_member_with_zero_witness(self):
        res = leveld_membership(TWISTED_CUBIC, ORIGIN, ORIGIN, 1)
        assert res.status == "member"
        assert np.abs(res.witness).max() <= 1e-12

    def test_off_normal_direction_is_rejected(self):
        res = leveld_membership(TWISTED_CUBIC, ORIGIN, (0.3, 0.1, 0.0), 1)
        assert res.status == "non-member"

    def test_rejects_point_off_the_variety(self):
        with pytest.raises(PointNotOnVarietyError):
            leveld_membership(TWISTED_CUBIC, (1.0, 0.0, 0.0), ORIGIN, 1)

    def test_member_witness_satisfies_the_certificate(self):
        lift = veronese_lift(TWISTED_CUBIC, 3, 1)
        u = np.array([0.0, 0.3, 0.2])
        res = leveld_membership(TWISTED_CUBIC, ORIGIN, u, 1)
        assert res.status == "member"
        lam = res.witness
        total = sum(l * h for l, h in zip(lam, lift.hessians))
        assert max(np.linalg.eigvalsh(total - 2.0 * np.eye(3))) <= 2e-7
        recovered = -0.5 * lift.jacobian_at(ORIGIN) @ lam
        assert np.abs(recovered - u).max() <= 1e-9

    def test_tangency_supremum_at_one_half(self):
        lo, hi = 0.3, 0.7
        while hi - lo > 1e-5:
            mid = 0.5 * (lo + hi)
            res = leveld_membership(TWISTED_CUBIC, ORIGIN, (0.0, mid, 0.0), 1)
            if res.status == "member":
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(0.5, abs=1e-4)

    def test_parabola_section_moves_with_u3(self):
        # certified region is 2 u2 <= 1 - u3^2, so at u3 = 0.4 the edge
        # sits at u2 = 0.42
        assert leveld_membership(
            TWISTED_CUBIC, ORIGIN, (0.0, 0.41, 0.4), 1).status == "member"
        assert leveld_membership(
            TWISTED_CUBIC, ORIGIN, (0.0, 0.43, 0.4), 1).status == "non-member"


class TestLevelD:
    def test_cardioid_ray_certificates(self):
        for t in (0.1, 0.5, 2.0):
            res = leveld_membership([CARDIOID], CARDIOID_POINT,
                                    (t, 1.0 + t), 2)
            assert res.status == "member", (t, res)

    def test_cardioid_ray_rejections(self):
        for t in (-0.1, -0.25):
            res = leveld_membership([CARDIOID], CARDIOID_POINT,
                                    (t, 1.0 + t), 2)
            assert res.status == "non-member", (t, res)

    def test_cardioid_rejections_take_few_newton_steps(self):
        for t in (-0.1, -0.25):
            res = leveld_membership([CARDIOID], CARDIOID_POINT,
                                    (t, 1.0 + t), 2)
            assert res.status == "non-member"
            assert res.iterations <= 25, (t, res.iterations)

    def test_newton_steps_stop_at_max_iterations(self):
        # the rejection at t = -0.1 takes two Newton steps; after one the
        # solve stops undecided
        u = (-0.1, 0.9)
        res = leveld_membership([CARDIOID], CARDIOID_POINT, u, 2,
                                max_iterations=1)
        assert (res.status, res.witness, res.iterations) == (
            "inconclusive", None, 1)
        res = leveld_membership([CARDIOID], CARDIOID_POINT, u, 2,
                                max_iterations=2)
        assert (res.status, res.iterations) == ("non-member", 2)

    @BAD_SETTINGS
    def test_rejects_bad_settings(self, setting):
        with pytest.raises(ValueError):
            leveld_membership([CARDIOID], CARDIOID_POINT, (0.5, 1.5), 2,
                              **setting)

    def test_base_point_is_a_member(self):
        res = leveld_membership([CARDIOID], CARDIOID_POINT, CARDIOID_POINT, 2)
        assert res.status == "member"

    def test_deep_facial_reduction_on_the_circle(self, cold_caches):
        # the unit circle's cell at (1, 0) is the open ray x1 > 0 on the
        # x1-axis; lifts of degree > 1 add coordinates that every
        # certificate must pin to zero by facial reduction
        circle = parse_polynomial("x1^2 + x2^2 - 1", RING2)
        for level in range(1, 7):
            for u1, want in ((0.5, "member"), (2.0, "member"),
                             (3.5, "member"), (-0.5, "non-member"),
                             (-1.5, "non-member")):
                res = leveld_membership([circle], (1.0, 0.0), (u1, 0.0),
                                        level)
                assert res.status == want, (level, u1, res)
        clear_sdp_caches()
        res = leveld_membership([circle], (1.0, 0.0), (2.0, 0.0), 6)
        assert res.status == "member"
        # one factorization per facial-reduction scan, not one per folded
        # row; the first is the unfolded system's
        factorizations = sdp._factored.cache_info().misses
        assert 1 < factorizations <= 8

    def test_one_lmi_call_per_query(self, monkeypatch, cold_caches):
        # the benchmark's tracer times sdp.lmi_feasible; a query that
        # reached the engine some other way would go unseen
        circle = parse_polynomial("x1^2 + x2^2 - 1", RING2)
        calls = []

        def counted(problem):
            calls.append(problem)
            return solve(problem)

        solve = sdp.lmi_feasible
        monkeypatch.setattr(sdp, "lmi_feasible", counted)
        queries = [([CARDIOID], CARDIOID_POINT, (0.5, 1.5), 2),
                   ([CARDIOID], CARDIOID_POINT, (-0.25, 0.75), 2),
                   (TWISTED_CUBIC, ORIGIN, (0.0, 0.3, 0.0), 1),
                   ([circle], (1.0, 0.0), (-0.5, 0.0), 3)]
        for query in queries + queries:  # cold, then warm
            before = len(calls)
            leveld_membership(*query)
            assert len(calls) == before + 1, query

    def test_level_one_agreement(self):
        # the level-1 certificate written out by hand: Hessians of
        # x2 - x1^2 and x3 - x1*x2, and their gradients at the origin
        hessians = (np.diag([-2.0, 0.0, 0.0]),
                    np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0]]))
        jacobian = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        verdict = {"feasible": "member", "infeasible": "non-member",
                   "inconclusive": "inconclusive"}
        for u in [(0.0, 0.4, 0.0), (0.0, 0.6, 0.0), (0.0, 0.2, 0.3),
                  (0.1, 0.0, 0.0)]:
            direct = lmi_feasible(LMIFeasibilityProblem(
                lhs=hessians, rhs=2.0 * np.eye(3),
                eq_matrix=0.5 * jacobian,
                eq_rhs=np.asarray(ORIGIN) - np.asarray(u)))
            lifted = leveld_membership(TWISTED_CUBIC, ORIGIN, u, 1).status
            assert verdict[direct.status] == lifted

    def test_hierarchy_on_the_twisted_cubic(self):
        rng = np.random.default_rng(7)
        members = 0
        for _ in range(30):
            u = (0.0, float(rng.uniform(-0.6, 0.6)),
                 float(rng.uniform(-0.6, 0.6)))
            low = leveld_membership(TWISTED_CUBIC, ORIGIN, u, 1).status
            if low != "member":
                continue
            members += 1
            high = leveld_membership(TWISTED_CUBIC, ORIGIN, u, 2).status
            assert high != "non-member", u
        assert members >= 10

    def test_hierarchy_on_the_cardioid(self):
        members = 0
        for t in np.linspace(-0.6, 2.0, 20):
            u = (float(t), float(1.0 + t))
            low = leveld_membership([CARDIOID], CARDIOID_POINT, u, 2).status
            if low != "member":
                continue
            members += 1
            high = leveld_membership([CARDIOID], CARDIOID_POINT, u, 3).status
            assert high != "non-member", t
        assert members >= 10

    def test_members_are_sound_against_a_curve_oracle(self):
        # every certified u must have y among its nearest curve points
        rng = np.random.default_rng(19)
        checked = 0
        for _ in range(40):
            u = np.array([0.0, rng.uniform(-0.5, 0.5),
                          rng.uniform(-0.5, 0.5)])
            res = leveld_membership(TWISTED_CUBIC, ORIGIN, u, 1)
            if res.status != "member":
                continue
            best = min_distance_to_curve(
                lambda t: (t, t * t, t ** 3), u, -2.0, 2.0)
            assert abs(best - float(np.linalg.norm(u))) <= 1e-6
            checked += 1
        assert checked >= 8

    def test_cardioid_member_is_sound(self):
        u = np.array([0.5, 1.5])
        res = leveld_membership([CARDIOID], CARDIOID_POINT, u, 2)
        assert res.status == "member"

        def cardioid_point(theta):
            r = 1.0 - math.cos(theta)
            return (r * math.cos(theta), r * math.sin(theta))

        best = min_distance_to_curve(cardioid_point, u, 0.0, 2.0 * math.pi)
        direct = float(np.linalg.norm(u - np.array(CARDIOID_POINT)))
        assert abs(best - direct) <= 1e-6


class TestSharedLift:
    """leveld_membership builds one lift per (polynomials, level)."""

    @pytest.fixture
    def builds(self, monkeypatch, cold_caches):
        calls = []

        def counted(polys, n, d):
            calls.append(d)
            return build(polys, n, d)

        build = sdp.veronese_lift
        monkeypatch.setattr(sdp, "veronese_lift", counted)
        return calls

    def test_repeated_queries_build_once(self, builds):
        for t in (0.1, 0.5, 2.0, -0.1):
            leveld_membership([CARDIOID], CARDIOID_POINT, (t, 1.0 + t), 2)
        assert builds == [2]

    def test_equal_polynomials_share_the_lift(self, builds):
        again = parse_polynomial("(x1^2 + x2^2 + x1)^2 - x1^2 - x2^2", RING2)
        assert again is not CARDIOID
        leveld_membership([CARDIOID], CARDIOID_POINT, (0.5, 1.5), 2)
        leveld_membership([again], CARDIOID_POINT, (0.5, 1.5), 2)
        assert builds == [2]

    def test_new_level_ring_or_polynomials_build_anew(self, builds):
        renamed = parse_polynomial("(a^2 + b^2 + a)^2 - a^2 - b^2",
                                   PolyRing(("a", "b")))
        circle = parse_polynomial("x1^2 + x2^2 - 1", RING2)
        leveld_membership([CARDIOID], CARDIOID_POINT, (0.5, 1.5), 2)
        leveld_membership([CARDIOID], CARDIOID_POINT, (0.5, 1.5), 3)
        leveld_membership([renamed], CARDIOID_POINT, (0.5, 1.5), 2)
        leveld_membership([circle], (1.0, 0.0), (2.0, 0.0), 2)
        assert builds == [2, 3, 2, 2]
        leveld_membership([CARDIOID], CARDIOID_POINT, (0.1, 1.1), 2)
        assert len(builds) == 4

    def test_failed_builds_are_not_cached(self, builds):
        for _ in range(2):
            with pytest.raises(ValueError, match="exceeds 2d"):
                leveld_membership([CARDIOID], CARDIOID_POINT, (0.5, 1.5), 1)
        assert builds == [1, 1]
        assert sdp._shared_lift.cache_info().currsize == 0

    def test_point_off_the_variety_raises_on_a_cached_lift(self, builds):
        leveld_membership(TWISTED_CUBIC, ORIGIN, (0.0, 0.4, 0.0), 1)
        for _ in range(2):
            with pytest.raises(PointNotOnVarietyError):
                leveld_membership(TWISTED_CUBIC, (1.0, 0.0, 0.0), ORIGIN, 1)
        assert builds == [1]

    def test_shared_arrays_are_read_only(self, builds):
        leveld_membership([CARDIOID], CARDIOID_POINT, (0.5, 1.5), 2)
        shared = sdp._shared_lift((CARDIOID,), 2)
        fresh = veronese_lift([CARDIOID], 2, 2)
        assert fresh is not veronese_lift([CARDIOID], 2, 2)
        for name in ("constant", "hessians", "linear", "distance_hessian"):
            assert not getattr(shared, name).flags.writeable, name
            assert getattr(fresh, name).flags.writeable, name
            with pytest.raises(ValueError):
                getattr(shared, name)[0] = 1.0
        assert builds == [2]  # the query's lift was the one checked

    def test_point_off_the_variety_caches_nothing(self, builds):
        for _ in range(2):
            with pytest.raises(PointNotOnVarietyError):
                leveld_membership(TWISTED_CUBIC, (1.0, 0.0, 0.0), ORIGIN, 1)
        assert sdp._base_point.cache_info().currsize == 0
        assert sdp._factored.cache_info().currsize == 0
        assert builds == [1]  # the lift itself is sound and stays shared

    def test_cached_equalities_and_factorizations_are_read_only(self,
                                                                builds):
        # a dual proof comes from the Newton solve, so the factorization's
        # Newton frame exists too
        res = leveld_membership([CARDIOID], CARDIOID_POINT, (-0.25, 0.75), 2)
        assert res.status == "non-member" and res.witness is not None
        y = np.asarray(CARDIOID_POINT, dtype=float).tobytes()
        lift, eq_matrix = sdp._base_point((CARDIOID,), 2, y, DEFAULT_SDP_TOL)
        system = sdp._factor(lift.hessians, lift.distance_hessian, eq_matrix)
        assert "newton" in vars(system)
        arrays = [a for a in (eq_matrix, *system.svd, *system.newton,
                              *vars(system).values())
                  if isinstance(a, np.ndarray)]
        assert len(arrays) >= 16
        for array in arrays:
            assert not array.flags.writeable
        assert builds == [2]

    def test_cache_stays_bounded(self, builds):
        circle = parse_polynomial("x1^2 + x2^2 - 1", RING2)
        for level in range(1, 7):
            leveld_membership([circle], (1.0, 0.0), (0.5, 0.0), level)
            for cache in SDP_CACHES:
                info = cache.cache_info()
                assert info.currsize <= info.maxsize, cache.__name__
        assert len(builds) == 6
        assert len(SDP_CACHES) == 3
        for cache in SDP_CACHES:
            info = cache.cache_info()
            # the loop made more entries than the cache keeps
            assert info.misses > info.maxsize, (cache.__name__, info)
        assert sdp._shared_lift.cache_info().maxsize <= 4
        assert sdp._base_point.cache_info().maxsize <= 4


def fresh_lift(polys, d):
    return veronese_lift(polys, polys[0].ring.nvars, d)


class TestSharedLiftAnswers:
    """Shared and freshly built lifts give bit-identical answers."""

    @staticmethod
    def queries():
        rng = np.random.default_rng(23)
        circle = parse_polynomial("x1^2 + x2^2 - 1", RING2)
        out = [([CARDIOID], CARDIOID_POINT, (t, 1.0 + t), 2)
               for t in rng.uniform(-0.5, 2.5, size=8)]
        out += [(TWISTED_CUBIC, ORIGIN, (0.0, u2, u3), 1)
                for u2, u3 in rng.uniform(-0.6, 1.5, size=(8, 2))]
        # facial reduction pins the level-3 coordinates of the circle
        out.append(([circle], (1.0, 0.0), (2.0, 0.0), 3))
        return out

    def test_answers_match_a_fresh_lift(self, monkeypatch, cold_caches):
        queries = self.queries()
        shared = [leveld_membership(*q) for q in queries]
        with monkeypatch.context() as patch:
            patch.setattr(sdp, "_shared_lift", fresh_lift)
            clear_sdp_caches()
            fresh = [leveld_membership(*q) for q in queries]
        assert {res.status for res in shared} == {"member", "non-member"}
        for query, a, b in zip(queries, shared, fresh):
            assert same_answer(a, b), query


class TestFactorizationCache:
    """Cached and freshly built factorizations give bit-identical answers,
    and a cache hit never stands in for a different system."""

    @staticmethod
    def queries():
        rng = np.random.default_rng(29)
        circle = parse_polynomial("x1^2 + x2^2 - 1", RING2)
        out = [([CARDIOID], CARDIOID_POINT, (t, 1.0 + t), 2)
               for t in (*rng.uniform(0.2, 2.5, size=3),
                         *rng.uniform(-0.5, -0.1, size=3))]
        out += [(TWISTED_CUBIC, ORIGIN, (0.0, u2, 0.0), 1)
                for u2 in (*rng.uniform(0.05, 0.4, size=3),
                           *rng.uniform(0.6, 1.5, size=3))]
        # level 6 folds the circle's system eight times
        out += [([circle], (1.0, 0.0), (u1, 0.0), 6)
                for u1 in (0.5, 2.0, -0.5)]
        return out

    def test_warm_answers_match_cold_ones(self, cold_caches):
        queries = self.queries()
        cold = []
        for query in queries:
            clear_sdp_caches()
            cold.append(leveld_membership(*query))
        clear_sdp_caches()
        forward = [leveld_membership(*query) for query in queries]
        clear_sdp_caches()
        backward = [leveld_membership(*query) for query in queries[::-1]]
        assert {res.status for res in cold} == {"member", "non-member"}
        assert any(res.iterations for res in cold)
        for query, a, b, c in zip(queries, cold, forward, backward[::-1]):
            assert same_answer(a, b), query
            assert same_answer(a, c), query

    def test_changed_equality_matrix_in_place(self, cold_caches):
        # lam pinned to 2 gives 2I - I, top eigenvalue 1; after E becomes
        # [[4]] lam is 1/2 and 0.5 I - I has top eigenvalue -1/2
        eq_matrix = np.array([[1.0]])
        problem = LMIFeasibilityProblem(
            lhs=(np.eye(2),), rhs=np.eye(2),
            eq_matrix=eq_matrix, eq_rhs=np.array([2.0]))
        first = lmi_feasible(problem)
        assert first.status == "infeasible"
        assert first.margin == pytest.approx(1.0)
        eq_matrix[0, 0] = 4.0
        second = lmi_feasible(problem)
        assert second.status == "feasible"
        assert second.margin == pytest.approx(-0.5)
        assert second.witness == pytest.approx([0.5])

    def test_asymmetric_lhs_after_a_cached_symmetric_one(self, cold_caches):
        def problem(b):
            return LMIFeasibilityProblem(
                lhs=(b,), rhs=np.eye(2),
                eq_matrix=np.zeros((0, 1)), eq_rhs=np.zeros(0))

        symmetric = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert lmi_feasible(problem(symmetric)).status == "feasible"
        for _ in range(2):
            with pytest.raises(ValueError, match="symmetric"):
                lmi_feasible(problem(np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert sdp._factored.cache_info().currsize == 1
