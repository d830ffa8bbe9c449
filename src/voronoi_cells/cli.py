"""Command-line surface for the package.

Subcommands: ``voronoi`` (exact boundary pipeline), ``degree`` (finite-field
degree experiments), ``formula`` (closed-form degree evaluators), ``lowrank``
(matrix cell membership), ``sdp-member`` (spectrahedral certificates), and
``contour`` (CSV sign grid of a bivariate polynomial).

Every subcommand prints one report to stdout (JSON, or CSV for contour) and
nothing else; diagnostics go to stderr.  Reports are byte-identical across
runs for fixed inputs, flags, and seed.  Exit codes: 0 success or a positive
membership verdict, 1 bad input, 2 resource budget exhausted, 3 a negative
membership verdict, 4 inconclusive or boundary.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .degrees import (
    conjecture_hypersurface,
    formula_cone,
    formula_curve,
    formula_surface,
    hypersurface_degree_experiment,
    lowrank_voronoi_degree,
    plane_curve_genus,
)
from .exactmath import (
    GREVLEX,
    QQ,
    ParseError,
    PolyRing,
    RationalField,
    count_real_roots,
    dense_from_poly,
    parse_polynomial,
)
from .exactmath.sturm import dense_eval
from .groebner import BudgetExhaustedError, IdealSpec
from .lowrank import (
    DEFAULT_TOL,
    _spectral_membership,
    symmetric_frobenius_membership,
)
from .sdp import DEFAULT_SDP_TOL, leveld_membership
from .voronoi import (
    PointNotOnVarietyError,
    boundary_on_normal_line,
    voronoi_ideal,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_NEGATIVE = 3
EXIT_INCONCLUSIVE = 4

# experiment sizes known to finish at a desk in minutes; larger cells need
# an explicit --force
DESK_SCALE_INHOMOGENEOUS = {1: 8, 2: 4, 3: 3}
DESK_SCALE_HOMOGENEOUS = {2: 5, 3: 3}


class InputError(Exception):
    """Bad user input: missing files, malformed data, broken preconditions."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# input helpers

def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc


def _maybe_file(text: str) -> str:
    """Inline payload, or the contents of the file it names."""
    stripped = text.strip()
    if stripped.startswith(("[", "{")) or "\n" in text:
        return text
    if os.path.exists(text):
        return _read_text(text)
    return text


def load_ideal(path: str) -> IdealSpec:
    raw = _maybe_file(path)
    try:
        return IdealSpec.from_json(raw)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid ideal JSON at position {exc.pos}: {exc.msg}") from exc
    except ParseError as exc:
        raise InputError(f"invalid generator: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"invalid ideal file: {exc}") from exc


def parse_point(text: str) -> tuple[Fraction, ...]:
    """A point is a JSON array of rationals written as strings."""
    raw = _maybe_file(text)
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid point JSON at position {exc.pos}: {exc.msg}") from exc
    if not isinstance(data, list) or not data:
        raise InputError("a point must be a nonempty JSON array")
    coords = []
    for entry in data:
        if isinstance(entry, float) and not entry.is_integer():
            raise InputError(
                f"coordinate {entry!r} is not exact; write it as a string "
                "like \"1/2\"")
        try:
            coords.append(Fraction(str(entry)))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad coordinate {entry!r}: {exc}") from exc
    return tuple(coords)


def parse_matrix(text: str) -> np.ndarray:
    """A matrix is JSON nested arrays or CSV rows of numbers."""
    raw = _maybe_file(text).strip()
    if raw.startswith("["):
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"invalid matrix JSON at position {exc.pos}: {exc.msg}"
            ) from exc
    else:
        data = [line.split(",") for line in raw.splitlines() if line.strip()]
    try:
        matrix = np.array(
            [[float(Fraction(str(v))) for v in row] for row in data],
            dtype=float)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad matrix entry: {exc}") from exc
    if matrix.ndim != 2 or matrix.size == 0:
        raise InputError("a matrix needs at least one row and one column")
    return matrix


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad {what} {text!r}: {exc}") from exc


def resolve_budget(value: int | None) -> int | None:
    """Explicit flag wins; the VORONOI_BUDGET env var is the fallback."""
    if value is not None:
        if value <= 0:
            raise InputError("budget must be positive")
        return value
    env = os.environ.get("VORONOI_BUDGET")
    if env:
        try:
            parsed = int(env)
        except ValueError as exc:
            raise InputError(f"VORONOI_BUDGET is not an integer: {env!r}") \
                from exc
        if parsed <= 0:
            raise InputError("VORONOI_BUDGET must be positive")
        return parsed
    return None


# ---------------------------------------------------------------------------
# output helpers

def _json_float(value: float):
    return value if math.isfinite(value) else ("inf" if value > 0 else "-inf")


def emit(report: dict | str, output: str | None) -> None:
    """Write a report to the named file or stdout: a dict as JSON, text as is."""
    blob = (report if isinstance(report, str)
            else json.dumps(report, sort_keys=True, indent=2) + "\n")
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(blob)
    else:
        sys.stdout.write(blob)


# ---------------------------------------------------------------------------
# voronoi

def _component_is_real(component) -> bool | None:
    """Sturm certificate where one is cheap, None where it is not.

    Components come only from line reports over Q, as reduced bases.  A
    single-variable generator with no real roots kills the whole component.
    An all-linear component is a nonempty rational subspace, and so is one
    whose only nonlinear generator is univariate with a real root: no
    linear generator of a reduced basis leads with that variable, so each
    real root extends to a real point.
    """
    gens = component.generators
    for g in gens:
        if len(g.variables_used()) == 1 and g.total_degree() >= 1:
            var = g.variables_used()[0]
            if count_real_roots(dense_from_poly(g, var=var)) == 0:
                return False
    nonlinear = [g for g in gens if g.total_degree() > 1]
    if len(nonlinear) <= 1 and all(len(g.variables_used()) == 1
                                   for g in nonlinear):
        return True
    return None


def cmd_voronoi(args) -> int:
    spec = load_ideal(args.ideal)
    point = parse_point(args.point)
    if len(point) != spec.ring.nvars:
        raise InputError(
            f"point has {len(point)} coordinates, the ideal lives in "
            f"{spec.ring.nvars} variables")
    budget = resolve_budget(args.budget)
    try:
        report = voronoi_ideal(spec, point,
                               allow_singular=args.allow_singular,
                               budget=budget)
    except PointNotOnVarietyError as exc:
        raise InputError(f"point not on variety: {exc}") from exc

    body = {
        "schema": SCHEMA_VERSION,
        "command": "voronoi",
        "field": spec.ring.field.name,
        "variables": list(report.boundary.ring.variables),
        "point": [str(v) for v in point],
        "codim": report.normal_space.expected_codim,
        "normal_space": [str(f) for f in report.normal_space.forms],
        "generators": [str(p) for p in report.boundary.polys],
        "degree": report.degree,
    }
    if report.components is None:
        body["components"] = None
    else:
        body["components"] = [
            {
                "generators": [str(p) for p in comp.generators],
                "multiplicity": comp.multiplicity,
                "irreducible": comp.certified_irreducible,
                "real": _component_is_real(comp),
            }
            for comp in report.components
        ]
    if (len(spec.generators) == 1
            and isinstance(spec.ring.field, RationalField)):
        try:
            section = boundary_on_normal_line(report)
        except ValueError:
            section = None
        if section is not None:
            body["normal_line"] = {
                "gradient": [str(v) for v in section.gradient],
                "coefficients": [str(c) for c in section.coefficients],
                "roots": [[str(b.lower), str(b.upper)]
                          for b in section.roots],
                "reach": _json_float(section.reach),
            }
    if args.timings:
        body["timings"] = {k: round(v, 6)
                           for k, v in report.timings.items()}
    emit(body, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# degree

def cmd_degree(args) -> int:
    if args.n < 1 or args.d < 2:
        raise InputError("need n >= 1 and d >= 2")
    if args.homogeneous and args.n < 2:
        raise InputError("homogeneous experiments need n >= 2")
    table = (DESK_SCALE_HOMOGENEOUS if args.homogeneous
             else DESK_SCALE_INHOMOGENEOUS)
    limit = table.get(args.n)
    if limit is None or args.d > limit:
        if not args.force:
            print(f"(n={args.n}, d={args.d}) is outside the desk-scale "
                  "whitelist and may not terminate; rerun with --force",
                  file=sys.stderr)
            return EXIT_INPUT
        print(f"warning: (n={args.n}, d={args.d}) is outside the "
              "desk-scale whitelist", file=sys.stderr)
    budget = resolve_budget(args.budget)
    experiment = hypersurface_degree_experiment(
        args.n, args.d, homogeneous=args.homogeneous, seed=args.seed,
        prime=args.prime, budget=budget)
    body = {
        "schema": SCHEMA_VERSION,
        "command": "degree",
        "n": args.n,
        "d": args.d,
        "homogeneous": args.homogeneous,
        "seed": args.seed,
        "prime": args.prime,
        "degree": experiment.degree,
        "stable": experiment.stable,
        "replicas": [list(r) for r in experiment.replicas],
    }
    if args.formula:
        body["conjecture"] = conjecture_hypersurface(
            args.n, args.d, args.homogeneous)
    emit(body, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# formula

# each formula's evaluator and the options it takes, in argument order
FORMULAS = {
    "curve": (formula_curve, ("d", "g")),
    "surface": (formula_surface, ("d", "chi", "g2")),
    "cone": (formula_cone, ("d", "g")),
    "conjecture": (conjecture_hypersurface, ("n", "d", "homogeneous")),
    "lowrank": (lowrank_voronoi_degree, ("rows", "cols", "rank")),
    "plane-genus": (plane_curve_genus, ("d",)),
}


def cmd_formula(args) -> int:
    name = args.name
    evaluate, options = FORMULAS[name]
    params = {option: getattr(args, option) for option in options}
    for option in options:
        if params[option] is None:
            raise InputError(f"formula {name!r} needs --{option}")
    value = evaluate(*params.values())
    body = {
        "schema": SCHEMA_VERSION,
        "command": "formula",
        "formula": name,
        "params": params,
        "value": value,
    }
    emit(body, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# lowrank

def cmd_lowrank(args) -> int:
    u_matrix = parse_matrix(args.u)
    v_matrix = parse_matrix(args.v)
    if args.frobenius:
        status = symmetric_frobenius_membership(
            v_matrix, u_matrix, args.rank, tol=args.tol)
        body_extra = {"metric": "frobenius-symmetric"}
    else:
        status, cell = _spectral_membership(u_matrix, v_matrix, args.rank,
                                            args.tol)
        body_extra = {"metric": "spectral", "radius": cell.radius}
    body = {
        "schema": SCHEMA_VERSION,
        "command": "lowrank",
        "rank": args.rank,
        "tol": args.tol,
        "status": status,
    }
    body.update(body_extra)
    emit(body, args.output)
    if status == "inside":
        return EXIT_OK
    if status == "outside":
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# sdp-member

def cmd_sdp_member(args) -> int:
    spec = load_ideal(args.ideal)
    if not isinstance(spec.ring.field, RationalField):
        raise InputError("spectrahedral certificates need rational input")
    y = [float(v) for v in parse_point(args.point)]
    u = [float(v) for v in parse_point(args.u)]
    n = spec.ring.nvars
    if len(y) != n or len(u) != n:
        raise InputError(f"points must have {n} coordinates")
    if args.level < 1:
        raise InputError("level must be at least 1")
    try:
        result = leveld_membership(list(spec.generators), y, u, args.level,
                                   tol=args.tol,
                                   max_iterations=args.max_iterations)
    except PointNotOnVarietyError as exc:
        raise InputError(f"point not on variety: {exc}") from exc
    body = {
        "schema": SCHEMA_VERSION,
        "command": "sdp-member",
        "level": args.level,
        "status": result.status,
        "lambda": ([float(v) for v in result.witness]
                   if result.status == "member" else None),
        "margin": _json_float(float(result.margin)),
        "iterations": result.iterations,
    }
    emit(body, args.output)
    if result.status == "member":
        return EXIT_OK
    if result.status == "non-member":
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# contour

def _load_bivariate(args):
    raw = _maybe_file(args.poly)
    stripped = raw.strip()
    if stripped.startswith("{"):
        spec = load_ideal(raw)
        if spec.ring.nvars != 2:
            raise InputError("contour needs a bivariate polynomial")
        if len(spec.generators) != 1:
            raise InputError("contour needs exactly one polynomial")
        if not isinstance(spec.ring.field, RationalField):
            raise InputError("contour needs rational coefficients")
        return spec.generators[0]
    names = tuple(v.strip() for v in args.vars.split(","))
    if len(names) != 2 or not all(names):
        raise InputError("--vars needs exactly two comma-separated names")
    ring = PolyRing(names, field=QQ, order=GREVLEX)
    try:
        return parse_polynomial(stripped, ring)
    except ParseError as exc:
        raise InputError(f"invalid polynomial: {exc}") from exc


def _parse_window(text: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError("--window needs amin,amax,bmin,bmax")
    amin, amax, bmin, bmax = (_parse_rational(p, "window bound")
                              for p in parts)
    if amin >= amax or bmin >= bmax:
        raise InputError("window bounds must satisfy amin < amax and "
                         "bmin < bmax")
    return amin, amax, bmin, bmax


def _parse_resolution(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        dims = [int(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"bad resolution {text!r}") from exc
    if len(dims) == 1:
        dims = [dims[0], dims[0]]
    if len(dims) != 2 or min(dims) < 2:
        raise InputError("resolution needs one or two integers >= 2")
    return dims[0], dims[1]


def _sign_grid_rows(poly, window, rows: int, cols: int):
    """Exact signs of poly on the grid, one generator call per row.

    Freezing the first coordinate turns each row into a dense univariate
    polynomial, evaluated by ``dense_eval``; a value within 1e-12 of the
    row's largest magnitude counts as zero.
    """
    amin, amax, bmin, bmax = window
    astep = (amax - amin) / (rows - 1)
    bstep = (bmax - bmin) / (cols - 1)
    bs = [bmin + j * bstep for j in range(cols)]
    d_b = max(mon[1] for mon in poly.terms) if poly.terms else 0
    zero_band = Fraction(1, 10 ** 12)
    for i in range(rows):
        a = amin + i * astep
        dense = [Fraction(0)] * (d_b + 1)
        for mon, coeff in poly.terms.items():
            dense[mon[1]] += Fraction(coeff) * a ** mon[0]
        values = [dense_eval(dense, b) for b in bs]
        scale = max(abs(v) for v in values)
        cutoff = scale * zero_band
        for b, value in zip(bs, values):
            if abs(value) <= cutoff:
                sign = 0
            else:
                sign = 1 if value > 0 else -1
            yield a, b, sign


def cmd_contour(args) -> int:
    poly = _load_bivariate(args)
    window = _parse_window(args.window)
    rows, cols = _parse_resolution(args.resolution)
    lines = ["u_a,u_b,sign"]
    lines.extend(f"{a},{b},{sign}"
                 for a, b, sign in _sign_grid_rows(poly, window, rows, cols))
    emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the process."""
    parser = _Parser(prog="voronoi-cells",
                     description="Voronoi cells of algebraic varieties: "
                                 "exact boundaries, degrees, membership.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--output", metavar="PATH",
                        help="write the report here instead of stdout")
    budget_help = ("reduction-step cap of each Groebner computation (each "
                   "saturation, intersection and interreduction), not of "
                   "the whole run")

    p = sub.add_parser("voronoi", parents=[common],
                       help="Voronoi ideal and boundary at a point")
    p.add_argument("ideal", help="ideal file (JSON: vars, field, gens)")
    p.add_argument("--point", required=True,
                   help="base point, JSON array of rationals as strings")
    p.add_argument("--allow-singular", action="store_true",
                   help="accept a singular base point")
    p.add_argument("--budget", type=int, default=None, help=budget_help)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in the report")
    p.set_defaults(func=cmd_voronoi)

    p = sub.add_parser("degree", parents=[common],
                       help="measured Voronoi degree of a random "
                            "hypersurface")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--d", type=int, required=True, help="hypersurface degree")
    p.add_argument("--homogeneous", action="store_true",
                   help="sample a cone and measure at a smooth cone point")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime", type=int, default=32003)
    p.add_argument("--formula", action="store_true",
                   help="also report the conjectured closed-form value")
    p.add_argument("--force", action="store_true",
                   help="run sizes outside the desk-scale whitelist")
    p.add_argument("--budget", type=int, default=None, help=budget_help)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("formula", parents=[common],
                       help="closed-form Voronoi degree formulas")
    p.add_argument("name", choices=list(FORMULAS))
    p.add_argument("--d", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--chi", type=int)
    p.add_argument("--g2", type=int,
                   help="surface: genus of a general quadric section "
                        "(not the sectional genus)")
    p.add_argument("--n", type=int)
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--rank", type=int)
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("lowrank", parents=[common],
                       help="membership in the Voronoi cell of a low-rank "
                            "matrix")
    p.add_argument("--u", required=True,
                   help="query matrix (CSV or JSON, inline or a file)")
    p.add_argument("--v", required=True,
                   help="rank-r matrix whose cell is tested")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--frobenius", action="store_true",
                   help="symmetric matrices under the Frobenius metric")
    p.set_defaults(func=cmd_lowrank)

    p = sub.add_parser("sdp-member", parents=[common],
                       help="spectrahedral inner-approximation membership")
    p.add_argument("ideal", help="ideal file (JSON: vars, field, gens)")
    p.add_argument("--point", required=True, help="base point y on the "
                                                  "variety")
    p.add_argument("--u", required=True, help="query point")
    p.add_argument("--level", type=int, default=1,
                   help="relaxation level d (lift degree)")
    p.add_argument("--tol", type=float, default=DEFAULT_SDP_TOL)
    p.add_argument("--max-iterations", type=int, default=10_000)
    p.set_defaults(func=cmd_sdp_member)

    p = sub.add_parser("contour", parents=[common],
                       help="CSV sign grid of a bivariate polynomial")
    p.add_argument("poly", help="polynomial: ideal file, text file, or "
                                "inline expression")
    p.add_argument("--vars", default="u1,u2",
                   help="variable names for inline expressions")
    p.add_argument("--window", required=True,
                   help="amin,amax,bmin,bmax (rationals; use "
                        "--window=-1,1,-1,1 for negative bounds)")
    p.add_argument("--resolution", default="200",
                   help="N or ROWSxCOLS grid size")
    p.set_defaults(func=cmd_contour)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExhaustedError as exc:
        print(f"error: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (_UsageError, InputError, OSError, ValueError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
