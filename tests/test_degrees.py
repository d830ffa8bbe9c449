"""Degree formulas, golden tables, and finite-field measurements."""
import pytest

from voronoi_cells import degrees
from voronoi_cells.degrees import (
    DegreeExperiment,
    TABLE_HOMOGENEOUS,
    TABLE_INHOMOGENEOUS,
    _stabilize,
    conjecture_hypersurface,
    formula_cone,
    formula_curve,
    formula_surface,
    hypersurface_degree_experiment,
    lowrank_voronoi_degree,
    plane_curve_genus,
    random_hypersurface,
    voronoi_degree_modp,
)
from voronoi_cells.groebner import IdealSpec
from voronoi_cells.voronoi import (
    SingularPointError,
    normal_space_at,
    voronoi_ideal,
)


class TestFormulas:
    def test_curve_golden_values(self):
        assert formula_curve(4, 1) == 12
        assert formula_curve(3, 0) == 6

    def test_smooth_plane_curve_specialization(self):
        # genus (d-1)(d-2)/2 collapses the curve formula to d^2 + d - 4,
        # which is the n = 2 table row
        for d in range(2, 9):
            value = formula_curve(d, plane_curve_genus(d))
            assert value == d * d + d - 4
            assert value == TABLE_INHOMOGENEOUS[(2, d)]

    def test_surface_in_projective_3_space(self):
        # chi = d(d^2-4d+6) and sectional genus (d-1)^2 give d^3 + d - 7
        for d in range(2, 7):
            chi = d * (d * d - 4 * d + 6)
            g2 = (d - 1) ** 2
            assert formula_surface(d, chi, g2) == d ** 3 + d - 7
        assert formula_surface(2, 4, 1) == 3
        assert TABLE_INHOMOGENEOUS[(3, 2)] == 3

    def test_veronese_surfaces(self):
        # d = e^2, chi = 3, sectional genus C(2e-1, 2) give 11e^2 - 12e - 4
        for e in range(2, 6):
            g2 = (2 * e - 1) * (2 * e - 2) // 2
            assert formula_surface(e * e, 3, g2) == 11 * e * e - 12 * e - 4
        assert formula_surface(4, 3, 3) == 16

    def test_cone_specialization(self):
        # cones over smooth plane curves give 2d^2 - 5, the n = 3 cone row
        for d in range(2, 9):
            value = formula_cone(d, plane_curve_genus(d))
            assert value == 2 * d * d - 5
            assert value == TABLE_HOMOGENEOUS[(3, d)]
        assert formula_cone(2, 0) == 3
        assert formula_cone(4, 3) == 27

    def test_lowrank_formula(self):
        assert lowrank_voronoi_degree(3, 3, 1) == 4
        assert lowrank_voronoi_degree(2, 2, 1) == 2
        assert lowrank_voronoi_degree(4, 7, 2) == 4
        with pytest.raises(ValueError):
            lowrank_voronoi_degree(3, 3, 3)
        with pytest.raises(ValueError):
            lowrank_voronoi_degree(5, 4, 1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            formula_curve(0, 0)
        with pytest.raises(ValueError):
            formula_curve(3, -1)
        with pytest.raises(ValueError):
            conjecture_hypersurface(2, 1)
        with pytest.raises(ValueError):
            conjecture_hypersurface(0, 3)
        with pytest.raises(ValueError):
            conjecture_hypersurface(1, 3, homogeneous=True)


class TestGoldenTables:
    def test_table_sizes(self):
        assert len(TABLE_INHOMOGENEOUS) == 33
        assert len(TABLE_HOMOGENEOUS) == 25

    def test_conjecture_matches_every_inhomogeneous_cell(self):
        for (n, d), value in TABLE_INHOMOGENEOUS.items():
            assert conjecture_hypersurface(n, d) == value, (n, d)

    def test_conjecture_matches_every_homogeneous_cell(self):
        for (n, d), value in TABLE_HOMOGENEOUS.items():
            assert conjecture_hypersurface(n, d, homogeneous=True) == value, \
                (n, d)

    def test_quadrics_give_ambient_dimension(self):
        for n in range(1, 10):
            assert conjecture_hypersurface(n, 2) == n
        for n in range(2, 10):
            assert conjecture_hypersurface(n, 2, homogeneous=True) == n


class TestRandomHypersurface:
    def test_passes_through_point(self):
        spec, y = random_hypersurface(3, 4, 32003, 123)
        f = spec.generators[0]
        assert f.evaluate(y) == 0
        assert f.total_degree() == 4
        assert spec.ring.nvars == 3

    def test_homogeneous_variant(self):
        spec, y = random_hypersurface(3, 3, 65537, 99, homogeneous=True)
        f = spec.generators[0]
        assert f.evaluate(y) == 0
        assert y[0] != 0
        assert all(sum(mon) == 3 for mon in f.terms)

    def test_generation_is_deterministic(self):
        a = random_hypersurface(2, 5, 32003, 42)
        b = random_hypersurface(2, 5, 32003, 42)
        assert a[0].generators == b[0].generators
        assert a[1] == b[1]

    def test_seeds_differ(self):
        a = random_hypersurface(2, 5, 32003, 42)
        b = random_hypersurface(2, 5, 32003, 43)
        assert a[0].generators != b[0].generators


class TestExperiments:
    def test_desk_scale_cells(self):
        for n, d, want in ((1, 2, 1), (2, 2, 2), (2, 3, 8), (3, 2, 3)):
            exp = hypersurface_degree_experiment(n, d, seed=7)
            assert exp.degree == want, (n, d)
            assert exp.stable
            assert len(exp.replicas) == 3

    def test_table1_cells_beyond_desk_scale(self):
        for n, d in ((2, 6), (3, 4), (4, 3)):
            exp = hypersurface_degree_experiment(n, d, seed=0)
            assert exp.degree == TABLE_INHOMOGENEOUS[(n, d)], (n, d)
            assert exp.stable
            assert {deg for _, _, deg in exp.replicas} == {exp.degree}
            assert len(exp.replicas) == 3

    def test_homogeneous_cell(self):
        exp = hypersurface_degree_experiment(2, 3, homogeneous=True, seed=7)
        assert exp.degree == 4
        assert exp.stable

    def test_replicas_span_two_primes(self):
        exp = hypersurface_degree_experiment(2, 2, seed=1)
        assert {p for _, p, _ in exp.replicas} == {32003, 65537}

    def test_experiment_determinism(self):
        spec, y = random_hypersurface(2, 3, 32003, 11)
        assert voronoi_degree_modp(spec, y, seed=5) == \
            voronoi_degree_modp(spec, y, seed=5)

    def test_modp_agrees_with_exact_pipeline(self):
        # parabola at the origin: same degree over Q and over F_p
        exact_spec = IdealSpec.from_strings(("x1", "x2"), ["x2 - x1^2"])
        exact = voronoi_ideal(exact_spec, (0, 0))
        modp_spec = IdealSpec.from_strings(("x1", "x2"), ["x2 - x1^2"],
                                           field="Fp:32003")
        exp = voronoi_degree_modp(modp_spec, (0, 0), seed=3)
        assert exp.stable
        assert exp.degree == exact.degree

    def test_modp_sliced_codim_two(self):
        # twisted cubic with one random slice: four boundary points
        spec = IdealSpec.from_strings(
            ("x1", "x2", "x3"), ["x2 - x1^2", "x3 - x1*x2"],
            field="Fp:32003", codim=2)
        exp = voronoi_degree_modp(spec, (0, 0, 0), seed=3)
        assert exp.degree == 4
        assert exp.stable

    def test_reseeded_replica_reports_its_accepted_hypersurface(
            self, monkeypatch):
        # replica 0 fails once, so its hypersurface comes from the reseed
        # 1000003; the report must carry that one, not the discarded draw
        real = degrees._sliced_degree_once
        calls = []

        def flaky(spec, point, codim, seed, budget):
            calls.append(seed)
            if len(calls) == 1:
                raise SingularPointError("forced reseed")
            return real(spec, point, codim, seed, budget)

        monkeypatch.setattr(degrees, "_sliced_degree_once", flaky)
        exp = hypersurface_degree_experiment(2, 2, seed=0)
        assert calls[:2] == [0, 1000003]
        assert exp.replicas[0][0] == 1000003
        spec, y = random_hypersurface(2, 2, 32003, 1000003)
        assert exp.point == y == (16904, 21689)
        assert exp.spec == spec
        assert exp.degree == 2 and exp.stable

    def test_rejects_rational_field(self):
        spec = IdealSpec.from_strings(("x1", "x2"), ["x2 - x1^2"])
        with pytest.raises(ValueError):
            voronoi_degree_modp(spec, (0, 0), seed=0)

    def test_stabilize_flags_disagreement(self):
        spec, y = random_hypersurface(2, 2, 32003, 0)
        exp = _stabilize(spec, y, 1, 0, 32003,
                         [(0, 32003, 4), (1, 32003, 6), (2, 32003, 4)])
        assert isinstance(exp, DegreeExperiment)
        assert exp.degree == 4
        assert not exp.stable
