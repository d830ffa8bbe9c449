"""Independent correctness checks, one per workload.

Each check takes an operation's input and the output the program produced
and returns a list of problems; an empty list means the output is right.
The checks never call the package under test: they recompute the answer
another way (numpy root finding, a sympy resultant, numpy's SVD, Hessians
written out by hand) or test a property the method must have.
"""
from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

# Paper, Table 1: the Voronoi degree of a general plane quartic (n=2, d=4).
PAPER_DEGREE_N2_D4 = 16

# relative step off a reported cell bound on the normal line
EDGE_STEP = 1e-3


# ---------------------------------------------------------------------------
# exact-line: cuspidal cubic x1^3 = x2^2, parametrized by (s^2, s^3)

def _cusp_nearest_is(t: float, u) -> bool:
    """Whether the curve point at parameter t is strictly nearest to u.

    The critical points of the squared distance D(s) = (s^2 - u1)^2 +
    (s^3 - u2)^2 are the real roots of D'(s) / 2 = 3 s^5 + 2 s^3 -
    3 u2 s^2 - 2 u1 s, found with numpy.roots; the cusp s = 0 is added as
    the singular point of the curve.
    """
    u1, u2 = u
    crit = np.roots([3.0, 0.0, 2.0, -3.0 * u2, -2.0 * u1, 0.0])
    params = [float(s.real) for s in crit if abs(s.imag) < 1e-7] + [0.0]

    def dist2(s):
        return (s * s - u1) ** 2 + (s ** 3 - u2) ** 2

    own = dist2(t)
    others = [dist2(s) for s in params if abs(s - t) > 1e-4]
    return min(others) > own


def check_exact_line(t: Fraction, rc: int, report: dict | None) -> list[str]:
    if rc != 0 or report is None:
        return [f"exit code {rc}"]
    problems = []
    if report.get("degree") != 4:
        problems.append(f"degree {report.get('degree')} != 4")
    if len(report.get("components") or []) != 3:
        problems.append("expected three components")
    section = report.get("normal_line")
    if section is None:
        return problems + ["no normal-line section"]
    grad = [float(Fraction(v)) for v in section["gradient"]]
    mids = [float((Fraction(lo) + Fraction(hi)) / 2)
            for lo, hi in section["roots"]]
    below = [m for m in mids if m < 0]
    above = [m for m in mids if m > 0]
    if not below or not above:
        return problems + ["cell is not bounded on both sides of y"]
    y = (float(t * t), float(t ** 3))
    for lam in (max(below), min(above)):
        for factor, inside in ((1 - EDGE_STEP, True), (1 + EDGE_STEP, False)):
            step = lam * factor
            u = (y[0] + step * grad[0], y[1] + step * grad[1])
            if _cusp_nearest_is(float(t), u) != inside:
                where = "inside" if inside else "outside"
                problems.append(f"nearest point wrong just {where} "
                                f"the bound {lam:.6g}")
    return problems


# ---------------------------------------------------------------------------
# exact-plane: twisted cubic family (s, a s^2, a b s^3) at the origin

def plane_quartic(a: Fraction, b: Fraction):
    """The cell boundary in the normal plane u1 = 0, eliminated by sympy.

    A point u = (0, u2, u3) is on the boundary when some curve point
    x(s), s != 0, is as far from u as the origin and u - x(s) is normal
    to the curve there.  Dividing out the root s = 0 and taking the
    resultant in s leaves the boundary quartic as the one factor of total
    degree four.  Returns it as a sympy Poly in (u2, u3), monic in u3^4.
    """
    import sympy as sp

    s, u2, u3 = sp.symbols("s u2 u3")
    a, b = sp.Rational(a.numerator, a.denominator), sp.Rational(
        b.numerator, b.denominator)
    x = (s, a * s ** 2, a * b * s ** 3)
    u = (0, u2, u3)
    equidistant = sp.expand(sum((ui - xi) ** 2 for ui, xi in zip(u, x))
                            - (u2 ** 2 + u3 ** 2))
    normal = sp.expand(sum((ui - xi) * sp.diff(xi, s)
                           for ui, xi in zip(u, x)))
    res = sp.resultant(sp.quo(equidistant, s ** 2), sp.quo(normal, s), s)
    quartics = [f for f, _ in sp.factor_list(res)[1]
                if sp.Poly(f, u2, u3).total_degree() == 4]
    if len(quartics) != 1:
        raise ValueError("the resultant has no single quartic factor")
    poly = sp.Poly(quartics[0], u2, u3)
    return poly.monic() if poly.LC() else poly


def check_exact_plane(a: Fraction, b: Fraction, rc: int,
                      report: dict | None) -> list[str]:
    import sympy as sp

    if rc != 0 or report is None:
        return [f"exit code {rc}"]
    problems = []
    if report.get("degree") != 4:
        problems.append(f"degree {report.get('degree')} != 4")
    gens = report.get("generators") or []
    if "u1" not in gens or len(gens) != 2:
        return problems + [f"expected u1 and one quartic, got {gens}"]
    u2, u3 = sp.symbols("u2 u3")
    text = next(g for g in gens if g != "u1").replace("^", "**")
    got = sp.Poly(sp.sympify(text, locals={"u2": u2, "u3": u3}), u2, u3)
    want = plane_quartic(a, b)
    if got.total_degree() != 4 or got.monic() != want.monic():
        problems.append("boundary quartic differs from the sympy resultant")
    return problems


# ---------------------------------------------------------------------------
# degree-modp

def check_degree(rc: int, report: dict | None) -> list[str]:
    if rc != 0 or report is None:
        return [f"exit code {rc}"]
    problems = []
    if report.get("degree") != PAPER_DEGREE_N2_D4:
        problems.append(f"degree {report.get('degree')} != "
                        f"{PAPER_DEGREE_N2_D4}")
    if report.get("stable") is not True:
        problems.append("result is not stable")
    replicas = report.get("replicas") or []
    if len(replicas) != 3 or any(r[2] != PAPER_DEGREE_N2_D4
                                 for r in replicas):
        problems.append(f"replicas {replicas} do not all report "
                        f"{PAPER_DEGREE_N2_D4}")
    if report.get("conjecture") != PAPER_DEGREE_N2_D4:
        problems.append("closed form disagrees with the paper")
    return problems


# ---------------------------------------------------------------------------
# membership

def numpy_truncation(a: np.ndarray, r: int) -> np.ndarray:
    u, s, wt = np.linalg.svd(a)
    return (u[:, :r] * s[:r]) @ wt[:r, :]


# Level-1 certificate for the twisted cubic x2 - x1^2, x3 - x1*x2: the
# lift is the identity, so the quadrics are the equations themselves.
CUBIC_HESSIANS = (
    np.array([[-2.0, 0, 0], [0, 0, 0], [0, 0, 0]]),
    np.array([[0.0, -1, 0], [-1, 0, 0], [0, 0, 0]]),
)
CUBIC_LINEAR = (np.array([0.0, 1, 0]), np.array([0.0, 0, 1]))
CUBIC_DISTANCE = 2.0 * np.eye(3)

# Level-2 certificate for the cardioid (x1^2 + x2^2 + x1)^2 - x1^2 - x2^2.
# Lift coordinates z = (x1, x2, x1^2, x1*x2, x2^2).  The quadrics are the
# lifted equation z2^2 + 2 z2 z4 + z4^2 + 2 z0 z2 + 2 z1 z3 - z4, then the
# coordinate relations z0^2 - z2, z0 z1 - z3, z1^2 - z4, z1 z2 - z0 z3,
# z1 z3 - z0 z4 and z3^2 - z2 z4, in that order.


def _sym(entries, size=5):
    h = np.zeros((size, size))
    for (i, j), v in entries.items():
        h[i, j] += v
        if i != j:
            h[j, i] += v
    return h


CARDIOID_HESSIANS = (
    _sym({(2, 2): 2, (4, 4): 2, (2, 4): 2, (0, 2): 2, (1, 3): 2}),
    _sym({(0, 0): 2}),
    _sym({(0, 1): 1}),
    _sym({(1, 1): 2}),
    _sym({(1, 2): 1, (0, 3): -1}),
    _sym({(1, 3): 1, (0, 4): -1}),
    _sym({(3, 3): 2, (2, 4): -1}),
)
CARDIOID_LINEAR = tuple(np.eye(5)[i] * c for i, c in
                        ((4, -1), (2, -1), (3, -1), (4, -1),
                         (0, 0), (0, 0), (0, 0)))
CARDIOID_DISTANCE = np.diag([2.0, 2.0, 0.0, 0.0, 0.0])
CARDIOID_BASE = (0.0, 1.0)
CUBIC_BASE = (0.0, 0.0, 0.0)

CERT_TOL = 1e-6


def _cardioid_lift(y):
    x1, x2 = y
    return np.array([x1, x2, x1 * x1, x1 * x2, x2 * x2])


def certificate_problems(witness, hessians, linear, distance, z, y, u,
                         n: int) -> list[str]:
    """Re-verify a member certificate: convex and stationary at z(y).

    Convexity: distance - sum lam_i H_i is positive semidefinite, checked
    with numpy.linalg.eigvalsh.  Stationarity: sum lam_i grad q_i(z) equals
    2 (y - u) on the first n coordinates and 0 on the rest.
    """
    lam = np.asarray(witness, dtype=float)
    if lam.shape != (len(hessians),):
        return [f"witness has {lam.shape} entries, expected {len(hessians)}"]
    gap = distance - sum(li * h for li, h in zip(lam, hessians))
    problems = []
    low = float(np.linalg.eigvalsh(gap).min())
    if low < -CERT_TOL:
        problems.append(f"certificate is not convex (eigenvalue {low:.3g})")
    grad = sum(li * (h @ z + b) for li, h, b in zip(lam, hessians, linear))
    want = np.zeros(len(z))
    want[:n] = 2.0 * (np.asarray(y) - np.asarray(u))
    miss = float(np.abs(grad - want).max())
    if miss > CERT_TOL * max(1.0, float(np.abs(want).max())):
        problems.append(f"certificate is not stationary (residual {miss:.3g})")
    return problems


def check_membership(batch: dict, out: dict | None) -> list[str]:
    if out is None:
        return ["no output"]
    problems = []
    for case, trunc, verdicts in zip(batch["lowrank"], out["truncations"],
                                     out["lowrank"]):
        a, r = case["a"], case["rank"]
        want = numpy_truncation(a, r)
        if not np.allclose(trunc, want, rtol=0, atol=1e-9 * max(1.0, np.abs(a).max())):
            problems.append(f"truncation of a {a.shape} matrix differs from "
                            "numpy's SVD")
        if verdicts.get("self") == "outside":
            problems.append("a matrix is outside the cell of its truncation")
        for key in case["probes"]:
            expected = key.split("_")[0]
            if verdicts.get(key) != expected:
                problems.append(f"{key} probe reported {verdicts.get(key)}")

    for probe, res in zip(batch["cardioid"], out["cardioid"]):
        expected = "member" if probe["t"] > 0 else "non-member"
        if res["status"] != expected:
            problems.append(f"cardioid ray t={probe['t']:.4f}: "
                            f"{res['status']}, expected {expected}")
        elif expected == "member":
            problems += certificate_problems(
                res["witness"], CARDIOID_HESSIANS, CARDIOID_LINEAR,
                CARDIOID_DISTANCE, _cardioid_lift(CARDIOID_BASE),
                CARDIOID_BASE, probe["u"], 2)

    for probe, res in zip(batch["cubic"], out["cubic"]):
        expected = "member" if probe["u"][1] < 0.5 else "non-member"
        if res["status"] != expected:
            problems.append(f"twisted cubic u2={probe['u'][1]:.4f}: "
                            f"{res['status']}, expected {expected}")
        elif expected == "member":
            problems += certificate_problems(
                res["witness"], CUBIC_HESSIANS, CUBIC_LINEAR, CUBIC_DISTANCE,
                np.asarray(CUBIC_BASE), CUBIC_BASE, probe["u"], 3)
    return problems


def parse_report(text: str) -> dict | None:
    try:
        return json.loads(text)
    except ValueError:
        return None
