"""saturate_eliminate against block elimination from the raw generators.

Every test wraps the primitive where the pipelines call it and recomputes
each call as (<gens> + <1 - t*g>) in a block order that puts t and the
dropped variables first, keeping the basis members free of that block.
The two bases must be equal, generator for generator.
"""
import pytest

from voronoi_cells import degrees, groebner, voronoi
from voronoi_cells.exactmath import BlockElim, PolyRing
from voronoi_cells.groebner import (
    BudgetExhaustedError,
    IdealSpec,
    groebner_basis,
    quotient_degree,
    saturate_eliminate,
)


def block_oracle(gens, g, drop, ring):
    head = [v for v in ring.variables if v in drop]
    tail = [v for v in ring.variables if v not in drop]
    k = 1 + len(head)
    work = PolyRing(["_t"] + head + tail, field=ring.field,
                    order=BlockElim(k))
    var_map = [work.index_of(v) for v in ring.variables]
    moved = [f.map_ring(work, var_map) for f in gens]
    moved.append(work.one() - work.variable("_t") * g.map_ring(work, var_map))
    sub = PolyRing(tail, field=ring.field)
    sub_map = [-1] * k + list(range(len(tail)))
    kept = [p.map_ring(sub, sub_map) for p in groebner_basis(moved, work)
            if not any(p.leading_monomial()[:k])]
    kept.sort(key=lambda p: sub.key_desc(p.leading_monomial()))
    return sub, tuple(kept)


def install_oracle(monkeypatch):
    """Check every saturate_eliminate call of the pipelines against the
    oracle; returns the list of (result, route) per call."""
    calls = []
    routes = []

    def minimal_polynomial(eng, name):
        # the line route reads the grevlex basis the signature loop left
        out = real_minpoly(eng, name)
        basis = groebner._basis(groebner._finalize(eng))
        routes.append(("line", quotient_degree(basis),
                       out.polys[0].total_degree()))
        return out

    def block_eliminate(eng, gens):
        routes.append(("block",))
        return real_block(eng, gens)

    def wrapped(gens, g, drop, ring=None, **kwargs):
        before = len(routes)
        out = saturate_eliminate(gens, g, drop, ring, **kwargs)
        sub, want = block_oracle(gens, g, drop, ring)
        assert out.ring == sub
        assert out.polys == want
        assert len(routes) == before + 1
        calls.append((out, routes[-1]))
        return out

    real_minpoly = groebner._minimal_polynomial
    real_block = groebner._block_eliminate
    monkeypatch.setattr(groebner, "_minimal_polynomial", minimal_polynomial)
    monkeypatch.setattr(groebner, "_block_eliminate", block_eliminate)
    monkeypatch.setattr(voronoi, "saturate_eliminate", wrapped)
    monkeypatch.setattr(degrees, "saturate_eliminate", wrapped)
    return calls


@pytest.fixture
def checked(monkeypatch):
    return install_oracle(monkeypatch)


@pytest.mark.parametrize("n, d, homogeneous", [
    (1, 3, False), (2, 2, False), (2, 3, False), (2, 4, False),
    (3, 2, False), (2, 3, True), (3, 2, True),
])
def test_modp_hypersurfaces(checked, n, d, homogeneous):
    exp = degrees.hypersurface_degree_experiment(n, d, homogeneous=homogeneous,
                                                 seed=0)
    assert {prime for _, prime, _ in exp.replicas} == {32003, 65537}
    assert len(checked) == len(exp.replicas) == 3
    for (out, route), (_, _, degree) in zip(checked, exp.replicas):
        assert route[0] == "line"
        assert quotient_degree(out) == degree
    assert exp.degree == degrees.conjecture_hypersurface(n, d, homogeneous)


@pytest.mark.parametrize("gen, point, degrees_seen", [
    ("x2 - x1^2", (1, 1), None),
    ("x1^3 - x2^2", (4, 8), [(5, 5), (6, 6)]),
    # symmetric critical points share their s coordinate, so the grevlex
    # quotients (dimensions 15 and 12) are larger than the eliminants
    ("x1^4 + x2^4 - 1", (1, 0), [(15, 8), (12, 6)]),
])
def test_rational_curves_take_the_line_route(checked, gen, point,
                                             degrees_seen):
    spec = IdealSpec.from_strings(("x1", "x2"), [gen])
    voronoi.voronoi_ideal(spec, point)
    routes = [route for _, route in checked]
    assert len(routes) == 2
    assert all(route[0] == "line" for route in routes)
    if degrees_seen is not None:
        assert [route[1:] for route in routes] == degrees_seen


def test_sliced_twisted_cubic_keeps_a_plane(checked):
    # codimension two: the slice leaves two kept parameters, so the block
    # route runs
    spec = IdealSpec.from_strings(
        ("x1", "x2", "x3"), ["x2 - x1^2", "x3 - x1*x2"],
        field="Fp:32003", codim=2)
    exp = degrees.voronoi_degree_modp(spec, (0, 0, 0), seed=3)
    assert exp.degree == 4 and exp.stable
    assert [route for _, route in checked] == [("block",)] * 3


def test_circle_falls_back_to_block_elimination(checked):
    # every point of the circle is as far from the centre, which lies on
    # the normal line at (1, 0): the grevlex system is not zero-dimensional
    spec = IdealSpec.from_strings(("x1", "x2"), ["x1^2 + x2^2 - 1"])
    voronoi.voronoi_ideal(spec, (1, 0))
    assert [route for _, route in checked] == [("block",), ("block",)]


TWISTED_CUBIC = ["x2 - x1^2", "x3 - x1*x2"]


@pytest.mark.parametrize("a", [1, -2, 3])
@pytest.mark.parametrize("b", [1, -2, 3])
def test_plane_family_at_the_origin(checked, a, b):
    # the benchmark's exact-plane family: a normal plane keeps two
    # parameters, so every saturation takes the block route
    spec = IdealSpec.from_strings(
        ("x1", "x2", "x3"), [f"x2 - ({a})*x1^2", f"x3 - ({b})*x1*x2"])
    report = voronoi.voronoi_ideal(spec, (0, 0, 0))
    assert [route for _, route in checked] == [("block",)] * 3
    assert report.degree == 4


def test_cusp_at_the_origin(checked):
    # a singular point: every direction counts as normal
    spec = IdealSpec.from_strings(("x1", "x2"), ["x1^3 - x2^2"])
    report = voronoi.voronoi_ideal(spec, (0, 0), allow_singular=True)
    assert [route for _, route in checked] == [("block",)] * 2
    assert report.degree == 4


@pytest.mark.parametrize("point", [(1, 1, 1), ("1/2", "1/4", "1/8")])
def test_twisted_cubic_off_the_origin(checked, point):
    spec = IdealSpec.from_strings(("x1", "x2", "x3"), TWISTED_CUBIC)
    report = voronoi.voronoi_ideal(spec, point)
    assert [route for _, route in checked] == [("block",)] * 3
    assert report.degree == 4


def test_twisted_cubic_degree_matches_mod_p():
    spec = IdealSpec.from_strings(("x1", "x2", "x3"), TWISTED_CUBIC)
    exact = voronoi.voronoi_ideal(spec, (1, 1, 1))
    modp = degrees.voronoi_degree_modp(
        IdealSpec.from_strings(("x1", "x2", "x3"), TWISTED_CUBIC,
                               field="Fp:32003", codim=2),
        (1, 1, 1), seed=0)
    assert modp.stable
    assert exact.degree == modp.degree == 4
    assert len(exact.parametric.polys) == 1
    assert [p.total_degree() for p in exact.boundary.polys] == [4, 1]


def test_cusp_budget_exhausts_during_saturation():
    spec = IdealSpec.from_strings(("x1", "x2"), ["x1^3 - x2^2"])
    with pytest.raises(BudgetExhaustedError) as err:
        voronoi.voronoi_ideal(spec, (4, 8), budget=5)
    assert err.value.stage == "saturation"
    assert err.value.budget == 5
