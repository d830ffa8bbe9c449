"""The four workloads: seeded inputs, one operation, and its check.

Importing this module imports the package under test, so the set-up clock
of a workload process starts before this import.  Every workload builds a
fixed list of operations from the seed and the run length alone; a run
always executes the whole list, so the number of operations never depends
on how fast the machine is.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from voronoi_cells import cli, lowrank, sdp
from voronoi_cells.exactmath import PolyRing, parse_polynomial

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    # a run holds the run length divided by this many rounds, so the list
    # of operations is fixed by the arguments, never by a clock.  It is
    # about what one round takes on the reference machine when it is fast,
    # except for membership: its batch medians move most with the machine's
    # speed, so it runs a longer list (about 45 s at 0.09 s a batch)
    round_seconds: float
    make_round: Callable[[random.Random, np.random.Generator], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    root_span: str = "cli.main"    # the span around one whole operation

    def inputs(self, seed: int, seconds: float) -> list:
        rounds = max(1, round(seconds / self.round_seconds))
        rng = random.Random(f"{self.name}:{seed}")
        nprng = np.random.default_rng(rng.getrandbits(64))
        ops = []
        for _ in range(rounds):
            ops += self.make_round(rng, nprng)
        return ops


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns the exit code and the report text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# exact-line: voronoi on the cuspidal cubic at (t^2, t^3)

CUSPIDAL_IDEAL = json.dumps({"vars": ["x1", "x2"], "gens": ["x1^3 - x2^2"]})
# |t| values whose operations cost within about 8 % of each other; smaller
# heights run faster and larger ones slower, which would let the seed move
# the median
LINE_PARAMS = tuple(Fraction(v) for v in (
    "2/5", "3/5", "4/5", "6/5", "7/5", "1/4", "3/4", "5/4",
    "2/3", "4/3", "3/2", "2", "3", "4", "6"))
LINE_ROUND = 4


def _line_round(rng: random.Random, _np) -> list:
    out = []
    for t in rng.sample(LINE_PARAMS, LINE_ROUND):
        t *= rng.choice((1, -1))
        point = json.dumps([str(t * t), str(t ** 3)])
        out.append({"t": t, "argv": ["voronoi", CUSPIDAL_IDEAL,
                                     "--point", point]})
    return out


def _line_check(op, result) -> list[str]:
    rc, text = result
    return checks.check_exact_line(op["t"], rc, checks.parse_report(text))


# ---------------------------------------------------------------------------
# exact-plane: voronoi on the twisted cubic family at the origin

# integer coefficients keep every operation within about 10 % of the same
# work; fractional ones spread it over a factor of two
PLANE_COEFFS = (1, 2, 3, -1, -2, -3)


def _plane_round(rng: random.Random, _np) -> list:
    a, b = (Fraction(rng.choice(PLANE_COEFFS)) for _ in range(2))
    ideal = json.dumps({"vars": ["x1", "x2", "x3"],
                        "gens": [f"x2 - ({a})*x1^2", f"x3 - ({b})*x1*x2"]})
    return [{"a": a, "b": b,
             "argv": ["voronoi", ideal, "--point", '["0", "0", "0"]']}]


def _plane_check(op, result) -> list[str]:
    rc, text = result
    return checks.check_exact_plane(op["a"], op["b"], rc,
                                    checks.parse_report(text))


# ---------------------------------------------------------------------------
# degree-modp: degree --n 2 --d 4 --formula over seeded --seed values

def _degree_round(rng: random.Random, _np) -> list:
    return [{"argv": ["degree", "--n", "2", "--d", "4", "--formula",
                      "--seed", str(rng.randrange(10 ** 6))]}]


def _degree_check(_op, result) -> list[str]:
    rc, text = result
    return checks.check_degree(rc, checks.parse_report(text))


# ---------------------------------------------------------------------------
# membership: batches of low-rank and spectrahedral queries

# (rows, cols, rank).  Queries whose answer is "inside" run on rank-1 cells
# only: on rank >= 2 cells cell_membership answers "outside" for about one
# matrix in a thousand, because its SVD of the rank-deficient V loses
# orthogonality beyond the 1e-9 tolerance (see CHANGES.md).
LOWRANK_SHAPES = ((3, 4, 1), (5, 6, 1), (4, 4, 2), (5, 6, 2), (6, 8, 3))
INSIDE_RANK = 1
CARDIOID = [parse_polynomial("(x1^2 + x2^2 + x1)^2 - x1^2 - x2^2",
                             PolyRing(("x1", "x2")))]
TWISTED_CUBIC = [parse_polynomial(g, PolyRing(("x1", "x2", "x3")))
                 for g in ("x2 - x1^2", "x3 - x1*x2")]


def _free_block_probe(u, s, wt, r: int, scale: float, rng):
    """V plus a free-block matrix of spectral norm scale * sigma_r(V), and V."""
    m, n = u.shape[0], wt.shape[0]
    block = rng.standard_normal((m - r, n - r))
    block *= scale * s[r - 1] / np.linalg.norm(block, 2)
    v = (u[:, :r] * s[:r]) @ wt[:r, :]
    return v + u[:, r:] @ block @ wt[r:, :], v


def _lowrank_case(shape, rng) -> dict:
    """A, and probes around its NumPy truncation V with known verdicts."""
    m, n, r = shape
    a = rng.standard_normal((m, n))
    u, s, wt = np.linalg.svd(a)
    inside, v = _free_block_probe(u, s, wt, r, 0.5, rng)
    outside, _ = _free_block_probe(u, s, wt, r, 1.5, rng)
    mixed = v + 0.5 * s[r - 1] * np.outer(u[:, 0], wt[r, :])
    probes = {"outside_free": outside, "outside_mixed": mixed}
    if r == INSIDE_RANK:
        probes["inside"] = inside
    return {"a": a, "rank": r, "v": v, "probes": probes}


def _membership_round(rng: random.Random, nprng: np.random.Generator) -> list:
    cardioid = ([rng.uniform(0.2, 2.5) for _ in range(4)]
                + [rng.uniform(-0.5, -0.1) for _ in range(2)])
    cubic = ([rng.uniform(0.05, 0.4) for _ in range(4)]
             + [rng.uniform(0.6, 1.5) for _ in range(2)])
    return [{
        "lowrank": [_lowrank_case(shape, nprng) for shape in LOWRANK_SHAPES],
        "cardioid": [{"t": t, "u": (t, 1.0 + t)} for t in cardioid],
        "cubic": [{"u": (0.0, u2, 0.0)} for u2 in cubic],
    }]


def _membership_run(batch: dict) -> dict:
    truncations, verdicts = [], []
    for case in batch["lowrank"]:
        r, v = case["rank"], case["v"]
        truncation = lowrank.eckart_young_truncate(case["a"], r)
        truncations.append(truncation)
        found = {key: lowrank.cell_membership(probe, v, r)
                 for key, probe in case["probes"].items()}
        if r == INSIDE_RANK:
            found["self"] = lowrank.cell_membership(case["a"], truncation, r)
        verdicts.append(found)

    def certify(polys, y, probes, level):
        out = []
        for probe in probes:
            res = sdp.leveld_membership(polys, y, probe["u"], level)
            out.append({"status": res.status, "witness": res.witness})
        return out

    return {
        "truncations": truncations,
        "lowrank": verdicts,
        "cardioid": certify(CARDIOID, checks.CARDIOID_BASE,
                            batch["cardioid"], 2),
        "cubic": certify(TWISTED_CUBIC, checks.CUBIC_BASE, batch["cubic"], 1),
    }


def _run_argv(op) -> tuple[int, str]:
    return run_cli(op["argv"])


WORKLOADS = {w.name: w for w in (
    Workload("exact-line", 2.0, _line_round, _run_argv, _line_check),
    Workload("exact-plane", 1.8, _plane_round, _run_argv, _plane_check),
    Workload("degree-modp", 0.8, _degree_round, _run_argv, _degree_check),
    Workload("membership", 0.04, _membership_round, _membership_run,
             checks.check_membership, root_span="batch"),
)}
