"""Each correctness check accepts the program's real output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py -q
"""
import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from voronoi_cells import veronese_lift  # noqa: E402


def _report(argv):
    rc, text = workloads.run_cli(argv)
    assert rc == 0
    return json.loads(text)


@pytest.fixture(scope="module")
def line_report():
    t = Fraction(2)
    return t, _report(["voronoi", workloads.CUSPIDAL_IDEAL, "--point",
                       json.dumps([str(t * t), str(t ** 3)])])


def test_exact_line_accepts_program_output(line_report):
    t, report = line_report
    assert checks.check_exact_line(t, 0, report) == []


@pytest.mark.parametrize("shift", [Fraction(11, 10), Fraction(9, 10)])
def test_exact_line_rejects_moved_bounds(line_report, shift):
    t, report = line_report
    bad = copy.deepcopy(report)
    bad["normal_line"]["roots"] = [[str(Fraction(lo) * shift),
                                    str(Fraction(hi) * shift)]
                                   for lo, hi in bad["normal_line"]["roots"]]
    assert checks.check_exact_line(t, 0, bad)


def test_exact_line_rejects_wrong_degree_and_components(line_report):
    t, report = line_report
    bad = copy.deepcopy(report)
    bad["degree"] = 5
    bad["components"] = bad["components"][:2]
    assert len(checks.check_exact_line(t, 0, bad)) == 2
    assert checks.check_exact_line(t, 1, report)


@pytest.fixture(scope="module")
def plane_report():
    (op,) = workloads._plane_round(random.Random(0), None)
    return op, _report(op["argv"])


def test_exact_plane_accepts_program_output(plane_report):
    op, report = plane_report
    assert checks.check_exact_plane(op["a"], op["b"], 0, report) == []


def test_exact_plane_rejects_changed_quartic(plane_report):
    op, report = plane_report
    bad = copy.deepcopy(report)
    bad["generators"] = [g if g == "u1" else g + " + u2"
                         for g in bad["generators"]]
    assert checks.check_exact_plane(op["a"], op["b"], 0, bad)
    # the right quartic for other coefficients is wrong here
    assert checks.check_exact_plane(op["a"] * 2, op["b"], 0, report)


@pytest.fixture(scope="module")
def degree_report():
    return _report(["degree", "--n", "2", "--d", "4", "--formula",
                    "--seed", "5"])


def test_degree_accepts_program_output(degree_report):
    assert checks.check_degree(0, degree_report) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r.update(degree=15),
    lambda r: r.update(stable=False),
    lambda r: r["replicas"][1].__setitem__(2, 17),
    lambda r: r.update(conjecture=15),
])
def test_degree_rejects_corruption(degree_report, corrupt):
    bad = copy.deepcopy(degree_report)
    corrupt(bad)
    assert checks.check_degree(0, bad)


@pytest.fixture(scope="module")
def batch():
    (b,) = workloads._membership_round(random.Random(0),
                                       np.random.default_rng(0))
    return b, workloads._membership_run(b)


def test_membership_accepts_program_output(batch):
    b, out = batch
    assert checks.check_membership(b, out) == []


def _corrupt_truncation(out):
    out["truncations"][2] = out["truncations"][2] + 1e-6


def _scale_witness(out, family):
    for res in out[family]:
        if res["status"] == "member":
            res["witness"] = np.asarray(res["witness"]) * 1.1
            return


@pytest.mark.parametrize("corrupt", [
    _corrupt_truncation,
    lambda out: out["lowrank"][0].update(self="outside"),
    lambda out: out["lowrank"][1].update(inside="boundary"),
    lambda out: out["lowrank"][4].update(outside_free="inside"),
    lambda out: out["lowrank"][4].update(outside_mixed="inside"),
    lambda out: out["cardioid"][0].update(status="non-member"),
    lambda out: out["cardioid"][-1].update(status="member", witness=None),
    lambda out: out["cubic"][-1].update(status="member", witness=None),
    lambda out: _scale_witness(out, "cardioid"),
    lambda out: _scale_witness(out, "cubic"),
])
def test_membership_rejects_corruption(batch, corrupt):
    b, out = batch
    bad = copy.deepcopy(out)
    corrupt(bad)
    assert checks.check_membership(b, bad)


def test_hand_written_hessians_match_the_lift():
    """The certificates' Hessians are the program's quadric order."""
    for polys, level, hessians in (
            (workloads.CARDIOID, 2, checks.CARDIOID_HESSIANS),
            (workloads.TWISTED_CUBIC, 1, checks.CUBIC_HESSIANS)):
        n = polys[0].ring.nvars
        lift = veronese_lift(polys, n, level)
        assert len(lift.hessians) == len(hessians)
        for got, want in zip(lift.hessians, hessians):
            np.testing.assert_array_equal(got, want)
