"""Degree formulas, golden tables, and finite-field measurements."""
import pytest

from voronoi_cells import degrees, groebner
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
from voronoi_cells.groebner import BudgetExhaustedError, IdealSpec
from voronoi_cells.voronoi import (
    CodimensionError,
    SingularPointError,
    normal_space_at,
    voronoi_ideal,
)


@pytest.fixture
def replays(monkeypatch):
    """The outcome of every replay of a signature-run trace, in order."""
    outcomes = []
    real = groebner._replay

    def counted(eng, trace, start):
        outcomes.append(real(eng, trace, start))
        return outcomes[-1]

    monkeypatch.setattr(groebner, "_replay", counted)
    return outcomes


def _store(state, warm_up):
    """Empty the store of signature-run traces; when state is "warm",
    fill it by running warm_up()."""
    groebner._TRACES.clear()
    if state == "warm":
        warm_up()
        assert groebner._TRACES


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
        # chi = d(d^2-4d+6) and quadric-section genus (d-1)^2 give
        # d^3 + d - 7
        for d in range(2, 7):
            chi = d * (d * d - 4 * d + 6)
            g2 = (d - 1) ** 2
            assert formula_surface(d, chi, g2) == d ** 3 + d - 7
        assert formula_surface(2, 4, 1) == 3
        assert TABLE_INHOMOGENEOUS[(3, 2)] == 3

    def test_veronese_surfaces(self):
        # d = e^2, chi = 3, quadric-section genus C(2e-1, 2) give
        # 11e^2 - 12e - 4
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
        # a line or a plane has no Voronoi boundary
        with pytest.raises(ValueError, match="at least 2"):
            formula_curve(1, 0)
        with pytest.raises(ValueError, match="at least 2"):
            formula_cone(1, 0)
        with pytest.raises(ValueError, match="at least 2"):
            formula_surface(1, 3, 0)
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
        # the partner of 65537 is 32003
        exp = hypersurface_degree_experiment(2, 2, seed=1, prime=65537)
        assert exp.prime == 65537
        assert [p for _, p, _ in exp.replicas] == [65537, 32003, 65537]

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

    def test_codim_zero_rejected_by_both_routes(self):
        # the ideal's declared codimension is the only one: the degree lab
        # must not fall back to the number of generators where the exact
        # pipeline refuses
        spec = IdealSpec.from_strings(("x1", "x2"), ["x2 - x1^2"],
                                      field="Fp:32003", codim=0)
        for route in (voronoi_ideal, voronoi_degree_modp):
            with pytest.raises(CodimensionError,
                               match="codimension 0 out of range"):
                route(spec, (1, 1))

    def test_modp_singular_point_is_not_reseeded(self):
        # the point is fixed, so one draw settles it
        spec = IdealSpec.from_strings(("x1", "x2"), ["x1^3 - x2^2"],
                                      field="Fp:32003")
        with pytest.raises(SingularPointError) as err:
            voronoi_degree_modp(spec, (0, 0), seed=4)
        assert str(err.value) == (
            "singular point after 1 draw(s) of replica seed 4 over F_32003;"
            " degree runs measure at smooth points only")

    def test_reseeded_replica_reports_its_accepted_hypersurface(
            self, monkeypatch):
        # replica 0 fails once, so its hypersurface comes from the reseed
        # 1000003; the report must carry that one, not the discarded draw
        real = degrees._sliced_degree_once
        calls = []

        def flaky(spec, point, seed, budget):
            calls.append(seed)
            if len(calls) == 1:
                raise SingularPointError("forced reseed")
            return real(spec, point, seed, budget)

        monkeypatch.setattr(degrees, "_sliced_degree_once", flaky)
        exp = hypersurface_degree_experiment(2, 2, seed=0)
        assert calls[:2] == [0, 1000003]
        assert exp.replicas[0][0] == 1000003
        spec, y = random_hypersurface(2, 2, 32003, 1000003)
        assert exp.point == y == (16904, 21689)
        assert exp.spec == spec
        assert exp.degree == 2 and exp.stable

    @pytest.mark.parametrize("n, d, enough", [
        (2, 3, 167), (2, 4, 355), (3, 2, 290), (3, 3, 1830)])
    def test_modp_step_ledger(self, n, d, enough, replays):
        # the first replica's saturation over F_32003 spends exactly
        # enough - 1 reduction steps before it needs one more; a kernel
        # that picks another reducer or S-pair moves this boundary, and so
        # does an input order other than increasing degree for the square
        # plane systems (n = 2) or the caller's order for the
        # overdetermined space ones (n = 3).  A replayed trace must keep
        # the boundary and its stage
        def warm_up():
            hypersurface_degree_experiment(n, d, seed=0)

        for state in ("cold", "warm"):
            _store(state, warm_up)
            with pytest.raises(BudgetExhaustedError) as err:
                hypersurface_degree_experiment(n, d, seed=0,
                                               budget=enough - 1)
            assert err.value.stage == "saturation"
            assert err.value.budget == enough - 1
            _store(state, warm_up)
            replays.clear()
            exp = hypersurface_degree_experiment(n, d, seed=0, budget=enough)
            assert exp.degree == conjecture_hypersurface(n, d)
            # cold, only replica 2 finds the trace replica 0 left; warm,
            # replica 0 itself replays at the boundary
            assert len(replays) == (3 if state == "warm" else 1)
            assert replays[0] or state == "cold"

    @pytest.mark.parametrize("d", [3, 4])
    def test_square_saturations_make_no_zero_reduction(self, monkeypatch, d):
        # a plane critical system has as many generators as variables, so
        # it enters the signature loop with 1 - t*g by increasing degree;
        # in the caller's order each replica reduces one S-pair to zero
        zeros = []
        real = groebner._buchberger

        def counted(eng, gens):
            out = real(eng, gens)
            zeros.append(eng.zero_reductions)
            return out

        monkeypatch.setattr(groebner, "_buchberger", counted)
        for state in ("cold", "warm"):
            _store(state, lambda: hypersurface_degree_experiment(2, d,
                                                                 seed=0))
            zeros.clear()
            hypersurface_degree_experiment(2, d, seed=0)
            assert zeros == [0, 0, 0]

    def test_rejects_rational_field(self):
        spec = IdealSpec.from_strings(("x1", "x2"), ["x2 - x1^2"])
        with pytest.raises(ValueError):
            voronoi_degree_modp(spec, (0, 0), seed=0)

    def test_degenerate_quartic_is_reported_unstable(self):
        # a real instance where replicas disagree: replica 0's quartic over
        # F_32003 measures 15 at its point, the other two the 16 of Table 1
        exp = hypersurface_degree_experiment(2, 4, seed=162566)
        assert [degree for _, _, degree in exp.replicas] == [15, 16, 16]
        assert exp.degree == 16 and not exp.stable
        # the exact pipeline over F_32003, whose two saturation parts meet
        # in their lcm, measures 15 on that quartic too
        assert voronoi_ideal(exp.spec, exp.point).degree == 15

    def test_stabilize_flags_disagreement(self):
        spec, y = random_hypersurface(2, 2, 32003, 0)
        exp = _stabilize(spec, y, 0, 32003,
                         [(0, 32003, 4), (1, 32003, 6), (2, 32003, 4)])
        assert isinstance(exp, DegreeExperiment)
        assert exp.degree == 4
        assert not exp.stable


class TestSignatureTraces:
    """A signature run over F_p replays the trace of an earlier run with the
    same key, and must fill its engine exactly as the loop would."""

    def test_warm_engines_equal_cold_ones(self, monkeypatch, replays):
        engines = []
        real = groebner._buchberger

        def snapshot(eng, gens):
            real(eng, gens)
            engines.append((list(eng.blt), list(eng.blc),
                            [list(tail) for tail in eng.btail],
                            list(eng.bsig), list(eng.bkey), eng.steps,
                            eng.zero_reductions))
            return eng

        monkeypatch.setattr(groebner, "_buchberger", snapshot)
        warm_replays = {}
        for n, d in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)):
            for seed in range(6):
                groebner._TRACES.clear()
                runs = []
                for _ in ("cold", "warm"):
                    engines.clear()
                    replays.clear()
                    exp = hypersurface_degree_experiment(n, d, seed=seed)
                    runs.append((exp, list(engines)))
                assert runs[0] == runs[1], (n, d, seed)
                warm_replays.setdefault((n, d), []).extend(replays)
        # every warm replica replays, but for six of (3, 3) whose zero tests
        # differ from those of the trace they found, and which fall back
        for cell, outcomes in warm_replays.items():
            assert outcomes.count(True) == 18 - 6 * (cell == (3, 3)), cell

    def test_degenerate_quartic_falls_back(self, replays):
        # replica 0 over F_32003 has the support of every other quartic but
        # not their zero tests: a replay of its trace, or against it, fails
        # and the loop runs, which measures 15 as before
        for state in ("cold", "warm"):
            _store(state, lambda: hypersurface_degree_experiment(2, 4,
                                                                 seed=0))
            replays.clear()
            exp = hypersurface_degree_experiment(2, 4, seed=162566)
            assert [degree for _, _, degree in exp.replicas] == [15, 16, 16]
            assert False in replays

    def test_a_fallback_drops_the_trace_and_learns_nothing(self, replays):
        # replica 0 of seed 162566 fails its replay of seed 0's trace over
        # F_32003, which drops the trace; the fallback logs nothing, so
        # replica 2 learns the trace of an ordinary quartic, which every
        # replica of seed 0 replays again
        _store("warm", lambda: hypersurface_degree_experiment(2, 4, seed=0))
        replays.clear()
        exp = hypersurface_degree_experiment(2, 4, seed=162566)
        assert [degree for _, _, degree in exp.replicas] == [15, 16, 16]
        assert replays == [False, True]
        replays.clear()
        hypersurface_degree_experiment(2, 4, seed=0)
        assert replays == [True, True, True]

    def test_runs_of_many_pops_store_no_trace(self):
        # replica 0 of Table 1 (3, 4) pops more than p / 4 terms over
        # F_32003, and more than 16,384 over F_(2^31 - 1)
        for p in (32003, 2 ** 31 - 1):
            groebner._TRACES.clear()
            spec, y = random_hypersurface(3, 4, p, 0)
            assert degrees._sliced_degree_once(spec, y, 0, None) == 61
            assert not groebner._TRACES

    def test_small_primes_replay_nothing(self, replays):
        # over F_3 even one popped term breaks 4 * pops < p
        gens = ["x^3 + y + 1", "y^2 - x*y + 2"]
        for field, stored in (("Fp:3", 0), ("Fp:32003", 1)):
            groebner._TRACES.clear()
            spec = IdealSpec.from_strings(("x", "y"), gens, field=field)
            bases = [groebner.groebner_basis(spec.generators)
                     for _ in range(2)]
            assert bases[0] == bases[1]
            assert len(groebner._TRACES) == stored
        assert replays == [True]

    def test_store_keeps_the_sixteen_newest_traces(self, replays):
        groebner._TRACES.clear()
        specs = [IdealSpec.from_strings(("x", "y"), [f"x^{k} + y + 1",
                                                     "y^2 - x"],
                                        field="Fp:32003")
                 for k in range(1, 21)]
        for spec in specs:
            groebner.groebner_basis(spec.generators)
        assert len(groebner._TRACES) == groebner._TRACE_LIMIT == 16
        assert not replays
        groebner.groebner_basis(specs[-1].generators)
        groebner.groebner_basis(specs[0].generators)
        assert replays == [True]
