"""End-to-end checks of the command-line surface."""
import json
from fractions import Fraction

import pytest

from voronoi_cells.cli import main

CUSP_IDEAL = {"vars": ["x1", "x2"], "field": "Q",
              "gens": ["x1^3 - x2^2"], "codim": 1}
QUADRIC_IDEAL = {"vars": ["x1", "x2", "x3"], "field": "Q",
                 "gens": ["x1^2 + x2^2 + x3^2 - 3*x1*x2 - 5*x1*x3"
                          " - 7*x2*x3 + x1 + x2 + x3"]}
CARDIOID_IDEAL = {"vars": ["x1", "x2"], "field": "Q",
                  "gens": ["(x1^2 + x2^2 + x1)^2 - x1^2 - x2^2"]}
TWISTED_CUBIC_IDEAL = {"vars": ["x1", "x2", "x3"], "field": "Q",
                       "gens": ["x2 - x1^2", "x3 - x1*x2"], "codim": 2}


@pytest.fixture
def cusp_file(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(CUSP_IDEAL))
    return str(path)


@pytest.fixture
def cardioid_file(tmp_path):
    path = tmp_path / "cardioid.json"
    path.write_text(json.dumps(CARDIOID_IDEAL))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestVoronoiCommand:
    def test_cuspidal_cubic_report(self, capsys, cusp_file):
        code, body, _ = run_json(capsys, "voronoi", cusp_file,
                                 "--point", '["4", "8"]')
        assert code == 0
        assert body["schema"] == 1
        assert body["normal_space"] == ["u1 + 3*u2 - 28"]
        assert body["degree"] == 4
        reals = {(tuple(c["generators"]), c["real"])
                 for c in body["components"]}
        assert (("u1 - 28", "u2"), True) in reals
        assert (("u1 + 26", "u2 - 18"), True) in reals
        quad = next(c for c in body["components"] if c["real"] is False)
        assert any("u2^2" in g for g in quad["generators"])

    def test_cusp_needs_allow_singular(self, capsys, cusp_file):
        code, out, err = run(capsys, "voronoi", cusp_file,
                             "--point", '["0", "0"]')
        assert code == 1
        assert out == ""
        assert "singular" in err

    def test_cusp_cell_quartic(self, capsys, cusp_file):
        code, body, _ = run_json(capsys, "voronoi", cusp_file,
                                 "--point", '["0", "0"]', "--allow-singular")
        assert code == 0
        [gen] = body["generators"]
        # the printed generator is the monic form of
        # 27 u2^4 + 128 u1^3 + 72 u1 u2^2 + 32 u1^2 + u2^2 + 2 u1
        assert gen == ("u2^4 + 128/27*u1^3 + 8/3*u1*u2^2 + 32/27*u1^2"
                       " + 1/27*u2^2 + 2/27*u1")

    def test_point_off_variety(self, capsys, cusp_file):
        code, out, err = run(capsys, "voronoi", cusp_file,
                             "--point", '["1", "3"]')
        assert code == 1
        assert "point not on variety" in err

    def test_quadric_surface_normal_line(self, capsys, tmp_path):
        path = tmp_path / "quadric.json"
        path.write_text(json.dumps(QUADRIC_IDEAL))
        code, body, _ = run_json(capsys, "voronoi", str(path),
                                 "--point", '["0", "0", "0"]')
        assert code == 0
        assert set(body["normal_space"]) == {"u1 - u3", "u2 - u3"}
        roots = [tuple(Fraction(b) for b in pair)
                 for pair in body["normal_line"]["roots"]]
        assert len(roots) == 3
        # the only nonlinear generator is a univariate cubic, which has a
        # real root, and the linear ones leave its variable free
        [comp] = body["components"]
        assert comp["generators"][1:] == ["u1 - u3", "u2 - u3"]
        assert comp["generators"][0].startswith("u3^3 ")
        assert comp["real"] is True

    def test_parse_error_has_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vars": ["x"], "field": "Q", "gens": ["x +"]}')
        code, out, err = run(capsys, "voronoi", str(path),
                             "--point", '["0"]')
        assert code == 1
        assert "position" in err

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vars": ')
        code, _, err = run(capsys, "voronoi", str(path), "--point", '["0"]')
        assert code == 1
        assert "position" in err

    def test_budget_exhaustion_exit_code(self, capsys, cusp_file):
        code, out, err = run(capsys, "voronoi", cusp_file,
                             "--point", '["4", "8"]', "--budget", "5")
        assert code == 2
        assert "budget" in err

    def test_exponent_overflow_is_input_error(self, capsys):
        ideal = json.dumps({"vars": ["x1", "x2"],
                            "gens": ["x1^8388608 - x2"]})
        code, out, err = run(capsys, "voronoi", ideal,
                             "--point", '["0", "0"]')
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "exponent" in err

    @pytest.mark.parametrize("document, key", [
        ('{"vars": ["x1", "x2"], "gens": ["x1^2 + x2^2 - 1"], "codim": "a"}',
         "'codim'"),
        ('{"vars": ["x1", "x2"], "gens": ["x1^2 + x2^2 - 1"], "field": 7}',
         "'field'"),
        ("[1, 2]", "JSON object"),
        ('"x"', "JSON object"),
        ('{"vars": ["x1", "x2"], "gens": ["x1^2 + x2^2 - 1"], "codim": 1.5}',
         "'codim'"),
        ('{"vars": ["x1", "x2"], "gens": ["x1^2 + x2^2 - 1"], "codim": true}',
         "'codim'"),
    ], ids=["codim-string", "field-number", "list", "string", "codim-float",
            "codim-bool"])
    def test_malformed_document_is_input_error(self, capsys, tmp_path,
                                               document, key):
        path = tmp_path / "ideal.json"
        path.write_text(document)
        code, out, err = run(capsys, "voronoi", str(path),
                             "--point", '["1", "0"]')
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid ideal file: ")
        assert key in err
        assert err.count("\n") == 1

    def test_env_budget(self, capsys, cusp_file, monkeypatch):
        monkeypatch.setenv("VORONOI_BUDGET", "5")
        code, _, err = run(capsys, "voronoi", cusp_file,
                           "--point", '["4", "8"]')
        assert code == 2

    def test_flag_budget_beats_env(self, capsys, cusp_file, monkeypatch):
        monkeypatch.setenv("VORONOI_BUDGET", "5")
        code, body, _ = run_json(capsys, "voronoi", cusp_file,
                                 "--point", '["4", "8"]',
                                 "--budget", "1000000")
        assert code == 0
        assert body["degree"] == 4

    def test_byte_identical_reruns(self, capsys, cusp_file):
        _, first, _ = run(capsys, "voronoi", cusp_file,
                          "--point", '["4", "8"]')
        _, second, _ = run(capsys, "voronoi", cusp_file,
                           "--point", '["4", "8"]')
        assert first == second

    def test_cusp_report_runs_each_euclid_once(self, capsys, cusp_file,
                                               monkeypatch):
        # one remainder sequence of f against f' serves the squarefree
        # part, Yun's first step and the Sturm chain; repeating those Euclid
        # runs made 41 divisions here, and counting the real roots of the
        # quadratic component a second time one more.  Two are the lcm of
        # the two saturation parts: one gcd step and one exact quotient
        from voronoi_cells import groebner, unifactor
        from voronoi_cells.exactmath import sturm

        calls = []
        for module in (sturm, unifactor, groebner):
            def counted(a, b, p=0, divmod_=module.dense_divmod):
                calls.append(1)
                return divmod_(a, b, p)
            monkeypatch.setattr(module, "dense_divmod", counted)
        code, _, _ = run(capsys, "voronoi", cusp_file,
                         "--point", '["4", "8"]')
        assert code == 0
        assert len(calls) == 23

    def test_cusp_line_route_interreduces_nothing(self, capsys, cusp_file,
                                                  monkeypatch):
        # both saturations keep one variable over a zero-dimensional basis,
        # so their minimal polynomials are read off the signature loop's
        # own members with no interreduction; the two parts are principal
        # in one variable, so their intersection is their lcm, with no
        # engine, and each of the four interreduce calls after it finalizes
        # once
        from voronoi_cells import groebner, voronoi

        inside = []
        calls = []
        real_finalize = groebner._finalize

        def finalize(eng):
            calls.append(inside[-1] if inside else None)
            return real_finalize(eng)

        def entered(name, op):
            def wrapped(*args, **kwargs):
                inside.append(name)
                try:
                    return op(*args, **kwargs)
                finally:
                    inside.pop()
            return wrapped

        monkeypatch.setattr(groebner, "_finalize", finalize)
        for name in ("saturate_eliminate", "intersect"):
            monkeypatch.setattr(voronoi, name,
                                entered(name, getattr(voronoi, name)))
        code, _, _ = run(capsys, "voronoi", cusp_file,
                         "--point", '["4", "8"]')
        assert code == 0
        assert calls == [None] * 4

    def test_cusp_report_builds_four_sturm_chains(self, capsys, cusp_file,
                                                  monkeypatch):
        # Yun's first step, one isolation per squarefree factor (the
        # boundary has two) and one on the normal line; a second count of
        # each component's real roots and a second derivation of the
        # normal line made 9
        from voronoi_cells import unifactor
        from voronoi_cells.exactmath import sturm

        calls = []
        for module in (sturm, unifactor):
            def counted(*args, chain_=module.sturm_chain):
                calls.append(1)
                return chain_(*args)
            monkeypatch.setattr(module, "sturm_chain", counted)
        code, _, _ = run(capsys, "voronoi", cusp_file,
                         "--point", '["4", "8"]')
        assert code == 0
        assert len(calls) == 4

    def test_normal_line_only_when_the_normal_space_is_a_line(
            self, capsys, tmp_path):
        # declared codim 2, the cusp is singular at (4, 8): the normal
        # space is the whole plane and the boundary the zero ideal
        path = tmp_path / "cusp2.json"
        path.write_text(json.dumps(dict(CUSP_IDEAL, codim=2)))
        code, body, _ = run_json(capsys, "voronoi", str(path),
                                 "--point", '["4", "8"]', "--allow-singular")
        assert code == 0
        assert body["generators"] == [] and body["normal_space"] == []
        assert body["components"] is None
        assert "normal_line" not in body

    def test_timings_only_on_request(self, capsys, cusp_file):
        _, body, _ = run_json(capsys, "voronoi", cusp_file,
                              "--point", '["4", "8"]')
        assert "timings" not in body
        _, body, _ = run_json(capsys, "voronoi", cusp_file,
                              "--point", '["4", "8"]', "--timings")
        assert "total" in body["timings"]

    def test_output_file(self, capsys, cusp_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "voronoi", cusp_file,
                           "--point", '["4", "8"]',
                           "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["degree"] == 4


class TestDegreeCommand:
    def test_small_cell(self, capsys):
        code, body, _ = run_json(capsys, "degree", "--n", "1", "--d", "2",
                                 "--formula")
        assert code == 0
        assert body["degree"] == 1
        assert body["stable"] is True
        assert body["conjecture"] == 1
        assert len(body["replicas"]) == 3

    def test_determinism_across_runs(self, capsys):
        _, first, _ = run(capsys, "degree", "--n", "1", "--d", "3")
        _, second, _ = run(capsys, "degree", "--n", "1", "--d", "3")
        assert first == second

    def test_partner_prime_report(self, capsys):
        # --prime 65537 alternates with 32003 across the three replicas
        code, out, err = run(capsys, "degree", "--n", "2", "--d", "3",
                             "--seed", "4", "--prime", "65537")
        assert (code, err) == (0, "")
        assert out == (
            '{\n  "command": "degree",\n  "d": 3,\n  "degree": 8,\n'
            '  "homogeneous": false,\n  "n": 2,\n  "prime": 65537,\n'
            '  "replicas": [\n    [\n      4,\n      65537,\n      8\n'
            '    ],\n    [\n      5,\n      32003,\n      8\n    ],\n'
            '    [\n      6,\n      65537,\n      8\n    ]\n  ],\n'
            '  "schema": 1,\n  "seed": 4,\n  "stable": true\n}\n')

    def test_whitelist_blocks_large_cells(self, capsys):
        code, out, err = run(capsys, "degree", "--n", "4", "--d", "4")
        assert code == 1
        assert out == ""
        assert "--force" in err

    def test_bad_sizes(self, capsys):
        code, _, err = run(capsys, "degree", "--n", "0", "--d", "2")
        assert code == 1
        code, _, err = run(capsys, "degree", "--n", "1", "--d", "2",
                           "--homogeneous")
        assert code == 1

    def test_singular_points_name_the_replica(self, capsys):
        # over F_2 the third replica (seed 7) meets a singular point on all
        # six draws; the error names it and gives no advice the command
        # cannot take
        code, out, err = run(capsys, "degree", "--n", "2", "--d", "2",
                             "--prime", "2", "--seed", "5", "--homogeneous")
        assert code == 1
        assert out == ""
        assert err == ("error: singular point after 6 draw(s) of replica "
                       "seed 7 over F_2; degree runs measure at smooth "
                       "points only\n")


class TestFormulaCommand:
    CASES = [
        (["curve", "--d", "3", "--g", "1"], 8),
        (["surface", "--d", "2", "--chi", "4", "--g2", "0"], -1 + 0),
        (["cone", "--d", "3", "--g", "1"], 13),
        (["conjecture", "--n", "3", "--d", "3"], 23),
        (["conjecture", "--n", "3", "--d", "3", "--homogeneous"], 13),
        (["lowrank", "--rows", "3", "--cols", "4", "--rank", "1"], 4),
        (["plane-genus", "--d", "4"], 3),
    ]

    def test_values(self, capsys):
        for argv, expected in self.CASES:
            code, body, _ = run_json(capsys, "formula", *argv)
            assert code == 0, argv
            if argv[0] == "surface":
                # 3d + chi + 4 g2 - 11 at (2, 4, 0)
                expected = 3 * 2 + 4 + 0 - 11
            assert body["value"] == expected, argv

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "formula", "curve", "--d", "3")
        assert code == 1
        assert "--g" in err

    def test_invalid_genus(self, capsys):
        code, _, err = run(capsys, "formula", "curve", "--d", "3",
                           "--g", "-1")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["curve", "--d", "1", "--g", "0"],
        ["cone", "--d", "1", "--g", "0"],
        ["surface", "--d", "1", "--chi", "3", "--g2", "0"],
    ])
    def test_degree_one_has_no_voronoi_degree(self, capsys, argv):
        code, out, err = run(capsys, "formula", *argv)
        assert code == 1
        assert out == ""
        assert err == "error: degree must be at least 2\n"

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_plane_genus_needs_a_curve(self, capsys, d):
        code, out, err = run(capsys, "formula", "plane-genus", "--d", d)
        assert code == 1
        assert out == ""
        assert err == "error: degree must be at least 1\n"


class TestLowrankCommand:
    V = '[[3,0,0],[0,0,0],[0,0,0]]'

    def test_inside(self, capsys):
        code, body, _ = run_json(capsys, "lowrank", "--v", self.V,
                                 "--u", '[[3,0,0],[0,0,0],[0,0,2]]',
                                 "--rank", "1")
        assert code == 0
        assert body["status"] == "inside"
        assert body["radius"] == 3.0

    def test_outside(self, capsys):
        code, body, _ = run_json(capsys, "lowrank", "--v", self.V,
                                 "--u", '[[3,0,0],[0,0,0],[0,0,3.5]]',
                                 "--rank", "1")
        assert code == 3
        assert body["status"] == "outside"

    def test_boundary(self, capsys):
        code, body, _ = run_json(capsys, "lowrank", "--v", self.V,
                                 "--u", '[[3,0,0],[0,0,0],[0,0,3]]',
                                 "--rank", "1")
        assert code == 4
        assert body["status"] == "boundary"

    @pytest.mark.parametrize("metric", [(), ("--frobenius",)],
                             ids=["spectral", "frobenius"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"],
                             ids=["nan-tol", "infinite-tol", "negative-tol"])
    def test_bad_tolerance(self, capsys, tol, metric):
        # a NaN tolerance used to accept this rank-2 V as rank 1
        code, out, err = run(capsys, "lowrank", "--v", "[[3,0],[0,2]]",
                             "--u", "[[3,0],[0,1]]", "--rank", "1",
                             f"--tol={tol}", *metric)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "tol must be finite and nonnegative" in err

    def test_zero_tolerance(self, capsys):
        for metric in ((), ("--frobenius",)):
            code, body, _ = run_json(capsys, "lowrank", "--v", self.V,
                                     "--u", '[[3,0,0],[0,0,0],[0,0,2]]',
                                     "--rank", "1", "--tol", "0", *metric)
            assert code == 0
            assert body["status"] == "inside"

    def test_csv_matrix_file(self, capsys, tmp_path):
        upath = tmp_path / "u.csv"
        upath.write_text("3,0,0\n0,0,0\n0,0,2\n")
        vpath = tmp_path / "v.csv"
        vpath.write_text("3,0,0\n0,0,0\n0,0,0\n")
        code, body, _ = run_json(capsys, "lowrank", "--v", str(vpath),
                                 "--u", str(upath), "--rank", "1")
        assert code == 0
        assert body["status"] == "inside"

    def test_frobenius_metric(self, capsys):
        code, body, _ = run_json(capsys, "lowrank", "--v",
                                 '[[1,0],[0,0]]',
                                 "--u", '[[1,0],[0,0.4]]',
                                 "--rank", "1", "--frobenius")
        assert code == 0
        assert body["metric"] == "frobenius-symmetric"

    def test_rank_mismatch_is_input_error(self, capsys):
        code, _, err = run(capsys, "lowrank", "--v", self.V,
                           "--u", self.V, "--rank", "2")
        assert code == 1

    def test_ragged_matrix(self, capsys):
        code, _, err = run(capsys, "lowrank", "--v", '[[1,0],[0]]',
                           "--u", self.V, "--rank", "1")
        assert code == 1


class TestSdpMemberCommand:
    def test_cardioid_member(self, capsys, cardioid_file):
        code, body, _ = run_json(capsys, "sdp-member", cardioid_file,
                                 "--point", '["0", "1"]',
                                 "--u", '["1/2", "3/2"]', "--level", "2")
        assert code == 0
        assert body["status"] == "member"
        assert isinstance(body["lambda"], list)
        assert body["margin"] <= 1e-7

    def test_cardioid_non_member(self, capsys, cardioid_file):
        code, body, _ = run_json(capsys, "sdp-member", cardioid_file,
                                 "--point", '["0", "1"]',
                                 "--u", '["-1/4", "3/4"]', "--level", "2")
        assert code == 3
        assert body["status"] == "non-member"
        assert body["lambda"] is None

    def test_twisted_cubic_level_one(self, capsys, tmp_path):
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps(TWISTED_CUBIC_IDEAL))
        code, body, _ = run_json(capsys, "sdp-member", str(path),
                                 "--point", '["0", "0", "0"]',
                                 "--u", '["0", "2/5", "0"]', "--level", "1")
        assert code == 0
        code, body, _ = run_json(capsys, "sdp-member", str(path),
                                 "--point", '["0", "0", "0"]',
                                 "--u", '["0", "3/5", "0"]', "--level", "1")
        assert code == 3

    def test_point_off_variety(self, capsys, cardioid_file):
        code, _, err = run(capsys, "sdp-member", cardioid_file,
                           "--point", '["1", "1"]', "--u", '["1", "1"]',
                           "--level", "2")
        assert code == 1
        assert "point not on variety" in err

    @pytest.mark.parametrize("setting", [
        ("--tol", "-1"), ("--tol", "inf"), ("--tol", "nan"),
        ("--max-iterations", "0")],
        ids=["negative-tol", "infinite-tol", "nan-tol", "no-iterations"])
    def test_bad_solver_settings(self, capsys, cardioid_file, setting):
        code, out, err = run(capsys, "sdp-member", cardioid_file,
                             "--point", '["0", "1"]',
                             "--u", '["1/2", "3/2"]', "--level", "2",
                             *setting)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_byte_identical_reruns(self, capsys, cardioid_file):
        args = ("sdp-member", cardioid_file, "--point", '["0", "1"]',
                "--u", '["2", "3"]', "--level", "2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestContourCommand:
    def test_constant_grid(self, capsys):
        code, out, _ = run(capsys, "contour", "1",
                           "--window=-1,1,-1,1", "--resolution", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u_a,u_b,sign"
        assert len(lines) == 10
        assert all(line.endswith(",1") for line in lines[1:])

    def test_circle_sign_flip(self, capsys):
        # u1^2 + u2^2 + u1 is negative inside the circle through the
        # origin centered at (-1/2, 0)
        code, out, _ = run(capsys, "contour", "u1^2 + u2^2 + u1",
                           "--window=-1,1,-1,1", "--resolution", "5")
        grid = {}
        for line in out.strip().splitlines()[1:]:
            a, b, s = line.split(",")
            grid[(Fraction(a), Fraction(b))] = int(s)
        assert grid[(Fraction(-1, 2), Fraction(0))] == -1
        assert grid[(Fraction(1), Fraction(0))] == 1
        assert grid[(Fraction(0), Fraction(0))] == 0
        assert grid[(Fraction(-1), Fraction(0))] == 0

    def test_row_major_order_and_exact_coordinates(self, capsys):
        code, out, _ = run(capsys, "contour", "u1 - u2",
                           "--window=0,1,0,1/3", "--resolution", "2x3")
        rows = out.strip().splitlines()[1:]
        assert [r.rsplit(",", 1)[0] for r in rows] == [
            "0,0", "0,1/6", "0,1/3", "1,0", "1,1/6", "1,1/3"]

    def test_ideal_file_input(self, capsys, tmp_path):
        path = tmp_path / "quartic.json"
        path.write_text(json.dumps({
            "vars": ["u1", "u2"], "field": "Q",
            "gens": ["27*u2^4 + 128*u1^3 + 72*u1*u2^2 + 32*u1^2"
                     " + u2^2 + 2*u1"]}))
        code, out, _ = run(capsys, "contour", str(path),
                           "--window=-1,1,-1,1", "--resolution", "9")
        assert code == 0
        signs = {int(line.rsplit(",", 1)[1])
                 for line in out.strip().splitlines()[1:]}
        # the quartic vanishes at the origin, a grid point of the 9x9 mesh
        assert {-1, 1} <= signs

    def test_non_bivariate_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(TWISTED_CUBIC_IDEAL))
        code, _, err = run(capsys, "contour", str(path),
                           "--window=0,1,0,1")
        assert code == 1
        assert "bivariate" in err

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "contour", "1", "--window=0,1,0,1",
                           "--resolution", "2", "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("u_a,u_b,sign")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "voronoi", "nosuchfile.json")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "voronoi", "nosuchfile.json",
                           "--point", '["0"]')
        assert code == 1

    def test_bad_window(self, capsys):
        code, _, err = run(capsys, "contour", "1", "--window=1,0,0,1")
        assert code == 1

    def test_bad_resolution(self, capsys):
        code, _, err = run(capsys, "contour", "1", "--window=0,1,0,1",
                           "--resolution", "1")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["voronoi", "[" * 200000 + "]" * 200000, "--point", '["4", "8"]'],
        ["voronoi", json.dumps(CUSP_IDEAL), "--point",
         "[" * 200000 + "]" * 200000],
        ["lowrank", "--u", "[" * 200000 + "]" * 200000, "--v", "[[1]]",
         "--rank", "1"],
        ["sdp-member", json.dumps(CUSP_IDEAL), "--point", '["1", "1"]',
         "--u", "[" * 200000 + "]" * 200000],
        ["voronoi", json.dumps({"vars": ["x"],
                                "gens": ["(" * 3000 + "x" + ")" * 3000]}),
         "--point", '["0"]'],
        ["voronoi", json.dumps({"vars": ["x"], "gens": ["-" * 5000 + "x"]}),
         "--point", '["0"]'],
    ], ids=["ideal", "point", "lowrank-u", "sdp-member-u", "parentheses",
            "unary-minus"])
    def test_deeply_nested_input_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "nest" in err
        assert err.count("\n") == 1

    def test_bad_point_payload(self, capsys, cusp_file):
        code, _, err = run(capsys, "voronoi", cusp_file, "--point", '[0.25]')
        assert code == 1
        assert "exact" in err
