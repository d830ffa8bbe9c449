"""Voronoi boundary ideals of a real algebraic variety at a point.

Given generators of a variety X and a point y on X, the nearest-point
regions of X partition ambient space; the region of y sits inside the
affine normal space of X at y, and its topological boundary lies on an
algebraic hypersurface of that normal space.  This module computes the
defining ideal of that hypersurface exactly:

1. read the linear equations of the normal space at y off the kernel of
   the Jacobian there, and solve them into the parametric form
   u = y + P*s, one parameter per free coordinate;
2. write the critical equations of the distance from u to X: the
   generators, the minors of size codim + 1 of the Jacobian with the row
   u - x on top, and the bisector |u - x|^2 = |u - y|^2;
3. remove the trivial solution x = y by saturation and eliminate x.

One private builder writes the equations of step 2 for both routes.  The
pipeline, ``voronoi_ideal``, substitutes u = y + P*s, so its eliminations
run in n + k variables, and maps the result back to ambient coordinates.
``critical_ideal``, the slow route the tests check it against, keeps u
symbolic in the 2n-variable (x, u) ring and adds the normal-space equations.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Sequence

from .exactmath.fields import RationalField
from .exactmath.orders import GREVLEX
from .exactmath.poly import Polynomial, PolyRing
# count_roots, dense_gcd, sturm_chain, squarefree_part, eliminate and
# groebner_basis go unused here, but stay importable from this module:
# perfbench/tracing.py wraps them by these names
from .exactmath.sturm import (
    count_roots,
    dense_from_poly,
    dense_gcd,
    isolate_real_roots,
    sturm_chain,
    squarefree_part,
)
from .groebner import (
    GroebnerBasis,
    IdealSpec,
    eliminate,
    groebner_basis,
    interreduce,
    intersect,
    is_zero_dimensional,
    quotient_degree,
    saturate_eliminate,
)
from .unifactor import factor_rational


# bracket width for the roots on the normal line; isolate_real_roots keeps
# 0 out of every bracket's interior only for widths below 4
NORMAL_LINE_PRECISION = Fraction(1, 10**12)


class PointNotOnVarietyError(ValueError):
    pass


class SingularPointError(ValueError):
    pass


class CodimensionError(ValueError):
    pass


def _fresh_names(count: int, prefix_options: Sequence[str], taken) -> tuple[str, ...]:
    for prefix in prefix_options:
        names = tuple(f"{prefix}{i + 1}" for i in range(count))
        if not (set(names) & set(taken)):
            return names
    raise ValueError("could not find unused variable names")


def _det(matrix, ring: PolyRing) -> Polynomial:
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    if size == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    total = ring.zero()
    for j in range(size):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        sub = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = entry * _det(sub, ring)
        total = total + term if j % 2 == 0 else total - term
    return total


def _minors(rows, size: int, ring: PolyRing) -> list[Polynomial]:
    """All size x size minors, zero ones dropped, in deterministic order."""
    from itertools import combinations

    nrows = len(rows)
    ncols = len(rows[0])
    out = []
    for ri in combinations(range(nrows), size):
        for ci in combinations(range(ncols), size):
            matrix = [[rows[r][c] for c in ci] for r in ri]
            d = _det(matrix, ring)
            if not d.is_zero():
                out.append(d)
    return out


def _expected_codim(spec: IdealSpec) -> int:
    c = spec.codim
    if c is None:
        c = len(spec.generators)
    if not 1 <= c <= spec.ring.nvars:
        raise CodimensionError(f"codimension {c} out of range")
    return c


@dataclass(frozen=True)
class NormalSpace:
    """The affine normal space of X at y, solved into parametric form.

    ``forms`` are the reduced linear equations in the ambient u-ring;
    ``parameter_matrix`` holds, for every u coordinate, its coefficients
    over the free parameters, so u = y + parameter_matrix * s.
    """

    u_ring: PolyRing
    point: tuple
    forms: tuple[Polynomial, ...]
    free_columns: tuple[int, ...]
    parameter_matrix: tuple[tuple, ...]
    jacobian_rank: int
    expected_codim: int

    @property
    def dimension(self) -> int:
        return len(self.free_columns)


def _rref(rows: list[list], field) -> tuple[list[list], list[int]]:
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != field.zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != field.zero:
                factor = rows[i][col]
                rows[i] = [field.sub(a, field.mul(factor, b))
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def normal_space_at(spec: IdealSpec, point: Sequence, *,
                    allow_singular: bool = False) -> NormalSpace:
    """Solve the equations of the normal space of X at a point of X.

    The expected codimension c is ``spec.codim``, or the number of
    generators when that is unset.  Raises CodimensionError when c lies
    outside 1..n or below the Jacobian rank, PointNotOnVarietyError when
    the generators do not vanish at the point, and SingularPointError at a
    Jacobian rank drop unless ``allow_singular`` is set (then every
    direction counts as normal).
    """
    ring = spec.ring
    f = ring.field
    n = ring.nvars
    c = _expected_codim(spec)
    y = tuple(f.coerce(v) for v in point)
    if len(y) != n:
        raise ValueError("point arity does not match the ring")
    for g in spec.generators:
        if g.evaluate(y) != f.zero:
            raise PointNotOnVarietyError(f"generator {g} does not vanish at the point")

    jac = [[g.derivative(i).evaluate(y) for i in range(n)] for g in spec.generators]
    jac_rref, jac_pivots = _rref(jac, f)
    rank = len(jac_pivots)
    if rank > c:
        raise CodimensionError(
            f"jacobian rank {rank} at the point exceeds declared codimension {c}")
    if rank < c and not allow_singular:
        raise SingularPointError(
            f"jacobian rank {rank} below codimension {c}; "
            "pass allow_singular to treat every direction as normal")

    u_names = _fresh_names(n, ("u", "uu", "w"), ring.variables)
    u_ring = PolyRing(u_names, field=f, order=GREVLEX)

    # the normal space is y + rowspace(J), so its equations are the kernel
    # of J, read off the echelon form; at a rank drop, or at c = n, every
    # ambient direction is normal and there are none
    kernel = []
    if rank == c:
        for j in range(n):
            if j in jac_pivots:
                continue
            w = [f.one if i == j else f.zero for i in range(n)]
            for r, col in enumerate(jac_pivots):
                w[col] = f.neg(jac_rref[r][j])
            kernel.append(w)
    rref_rows, pivots = _rref(kernel, f)
    frees = tuple(i for i in range(n) if i not in pivots)

    disp = [u_ring.variable(i) - u_ring.constant(y[i]) for i in range(n)]
    forms = []
    for row in rref_rows:
        poly = u_ring.zero()
        for i, coeff in enumerate(row):
            if coeff != f.zero:
                poly = poly + u_ring.constant(coeff) * disp[i]
        forms.append(poly)

    param = []
    for i in range(n):
        if i in pivots:
            r = pivots.index(i)
            row = tuple(f.neg(rref_rows[r][j]) for j in frees)
        else:
            j = frees.index(i)
            row = tuple(f.one if jj == j else f.zero for jj in range(len(frees)))
        param.append(row)
    return NormalSpace(u_ring, y, tuple(forms), frees, tuple(param), rank, c)


def _critical_equations(spec: IdealSpec, ns: NormalSpace, ring: PolyRing,
                        u_images: Sequence[Polynomial]) -> list[Polynomial]:
    """The variety equations, the minors of size codim + 1 of the Jacobian
    with the row u - x on top, and last the bisector |u - x|^2 = |u - y|^2,
    in ``ring`` (x variables first) with u_i := ``u_images[i]``."""
    f = ring.field
    n = spec.ring.nvars
    y = ns.point
    xs = [ring.variable(i) for i in range(n)]
    gens = [g.map_ring(ring, list(range(n))) for g in spec.generators]
    grad_rows = [[g.derivative(i) for i in range(n)] for g in gens]
    disp_row = [u_images[i] - xs[i] for i in range(n)]
    gens.extend(_minors([disp_row] + grad_rows, ns.expected_codim + 1, ring))

    bis = ring.zero()
    for i in range(n):
        bis = bis + xs[i] * xs[i]
        bis = bis - ring.constant(f.mul(y[i], y[i]))
        bis = bis - 2 * u_images[i] * (xs[i] - ring.constant(y[i]))
    gens.append(bis)
    return gens


def critical_ideal(spec: IdealSpec, point: Sequence, *,
                   allow_singular: bool = False) -> IdealSpec:
    """The ideal of critical displacement points, in the combined (x, u) ring.

    Generators: the variety equations, the normality minors at symbolic x,
    the normal-space equations at y, and the bisector between x and y.
    """
    ns = normal_space_at(spec, point, allow_singular=allow_singular)
    n = spec.ring.nvars
    work = PolyRing(spec.ring.variables + ns.u_ring.variables,
                    field=spec.ring.field, order=GREVLEX)
    u_map = [n + i for i in range(n)]
    *gens, bis = _critical_equations(spec, ns, work,
                                     [work.variable(j) for j in u_map])
    gens.extend(form.map_ring(work, u_map) for form in ns.forms)
    gens.append(bis)
    return IdealSpec(work, tuple(gens), spec.codim)


def parametric_critical_system(spec: IdealSpec, ns: NormalSpace, *,
                               slices: Sequence[Polynomial] = ()):
    """Rewrite the critical equations in normal-space parameters.

    The affine normal space at y is the image of u = y + P*s, with one
    parameter per free coordinate.  Substituting that image for u keeps all
    later eliminations in n + k variables instead of 2n.  Returns the
    parameter ring (x variables first, then s) and the critical equations,
    followed by any u-ring slice polynomials composed onto the parameters.
    """
    ring = spec.ring
    f = ring.field
    n = ring.nvars
    y = ns.point
    k = ns.dimension
    s_names = _fresh_names(k, ("s", "ss", "q"), ring.variables)
    sring = PolyRing(ring.variables + s_names, field=f, order=GREVLEX)
    ss = [sring.variable(n + j) for j in range(k)]

    u_images = []
    for i in range(n):
        expr = sring.constant(y[i])
        for j in range(k):
            coeff = ns.parameter_matrix[i][j]
            if coeff != f.zero:
                expr = expr + sring.constant(coeff) * ss[j]
        u_images.append(expr)

    gens = _critical_equations(spec, ns, sring, u_images)
    for extra in slices:
        if extra.ring != ns.u_ring:
            raise ValueError("slice polynomials must live in the u-ring")
        gens.append(extra.compose(sring, u_images))
    return sring, [g for g in gens if not g.is_zero()]


@dataclass(frozen=True)
class VoronoiComponent:
    """One factor of the boundary, as a reduced basis in the u-ring;
    ``real`` tells whether the factor has a real root on the normal line."""

    generators: tuple[Polynomial, ...]
    multiplicity: int
    certified_irreducible: bool | None
    real: bool


@dataclass
class VoronoiReport:
    spec: IdealSpec
    point: tuple
    normal_space: NormalSpace
    boundary: GroebnerBasis          # reduced basis in the ambient u-ring
    parametric: GroebnerBasis        # the same ideal in normal-space parameters
    degree: int | None
    components: tuple[VoronoiComponent, ...] | None
    timings: dict = field(default_factory=dict)


def voronoi_ideal(spec: IdealSpec, point: Sequence, *,
                  allow_singular: bool = False,
                  budget: int | None = None) -> VoronoiReport:
    """Compute the algebraic boundary of the nearest-point region at y.

    The returned report carries the reduced basis in ambient coordinates,
    the same ideal in normal-space parameters, the degree when the
    parametric ideal is zero-dimensional or principal, and the factored
    components when the normal space is a line.
    """
    t_start = time.perf_counter()
    timings: dict = {}
    ring = spec.ring
    f = ring.field
    n = ring.nvars

    t0 = time.perf_counter()
    ns = normal_space_at(spec, point, allow_singular=allow_singular)
    y = ns.point
    k = ns.dimension
    # parameter s_j is the displacement along the j-th free coordinate
    s_to_u = [ns.u_ring.variable(col) - ns.u_ring.constant(y[col])
              for col in ns.free_columns]
    timings["normal_space"] = time.perf_counter() - t0

    # working ring: ambient x variables plus one parameter per free direction
    t0 = time.perf_counter()
    sring, gens = parametric_critical_system(spec, ns)
    xs = [sring.variable(i) for i in range(n)]
    timings["critical"] = time.perf_counter() - t0

    # saturate away x = y, one displacement generator at a time, eliminating
    # the x block in the same run
    t0 = time.perf_counter()
    parts = [saturate_eliminate(gens, xs[i] - sring.constant(y[i]),
                                ring.variables, sring, budget=budget)
             for i in range(n)]
    timings["saturation"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    combined = parts[0]
    for nxt in parts[1:]:
        combined = intersect(combined.polys, nxt.polys, combined.ring,
                             budget=budget)
    parametric = combined
    timings["intersection"] = time.perf_counter() - t0

    # the boundary is a variety, so on a line the eliminated generator is
    # reduced to its squarefree part, the monic product of its factors; the
    # scheme multiplicities survive in the component report
    t0 = time.perf_counter()
    components = None
    if (k == 1 and len(parametric.polys) == 1
            and isinstance(f, RationalField) and not parametric.is_unit_ideal()):
        scheme_generator = parametric.polys[0]
        pring = parametric.ring
        factors = factor_rational(dense_from_poly(scheme_generator))
        polys = [pring.from_terms({(i,): c for i, c in enumerate(fac.coefficients)})
                 for fac in factors]
        reduced = prod(polys, start=pring.one())
        if reduced.total_degree() < scheme_generator.total_degree():
            parametric = GroebnerBasis(pring, (reduced.monic(),))
        components = _line_components(factors, polys, ns, s_to_u, budget)
    timings["components"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # a principal ideal's quotient degree, when finite, is its generator's
    degree: int | None = None
    if len(parametric.polys) == 1:
        degree = parametric.polys[0].total_degree()
    elif is_zero_dimensional(parametric):
        degree = quotient_degree(parametric)

    # map the parametric basis back to ambient coordinates and merge with
    # the linear equations of the normal space
    mapped = [p.compose(ns.u_ring, s_to_u) for p in parametric.polys]
    boundary = GroebnerBasis(ns.u_ring,
                             interreduce(list(ns.forms) + mapped, ns.u_ring,
                                         budget=budget))
    timings["mapback"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start
    return VoronoiReport(spec, y, ns, boundary, parametric, degree,
                         components, timings)


def _line_components(factors, polys: Sequence[Polynomial], ns: NormalSpace,
                     s_to_u: Sequence[Polynomial],
                     budget) -> tuple[VoronoiComponent, ...]:
    """The factors of a univariate parametric boundary as u-ring components;
    ``s_to_u`` maps the parameter to its u-ring image."""
    return tuple(
        VoronoiComponent(interreduce(list(ns.forms) + [p.compose(ns.u_ring, s_to_u)],
                                     ns.u_ring, budget=budget),
                         fac.multiplicity, fac.certified_irreducible,
                         fac.real_roots > 0)
        for fac, p in zip(factors, polys))


@dataclass(frozen=True)
class RootBracket:
    lower: Fraction
    upper: Fraction

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def midpoint(self) -> float:
        return float((self.lower + self.upper) / 2)


@dataclass
class NormalLineSection:
    """The boundary restricted to the gradient line u = y + lambda * grad."""

    gradient: tuple
    coefficients: tuple[Fraction, ...]   # boundary polynomial in lambda
    roots: tuple[RootBracket, ...]
    lambda_lower: RootBracket | None     # nearest root below zero
    lambda_upper: RootBracket | None     # nearest root above zero
    reach: float                         # distance from y to the boundary

    def cell_bounds(self) -> tuple[float, float]:
        lo = self.lambda_lower.midpoint() if self.lambda_lower else float("-inf")
        hi = self.lambda_upper.midpoint() if self.lambda_upper else float("inf")
        return lo, hi


def boundary_on_normal_line(report: VoronoiReport) -> NormalLineSection:
    """Restrict the boundary to the line y + lambda * gradient (codim 1 only).

    The line is the normal space, where the parameter s of the free
    coordinate is grad[free] * lambda, so the restriction is the report's
    parametric generator at that s, made monic.  Raises ValueError unless
    the variety has one defining equation over Q and its normal space at y
    is a line.  Roots of the restricted polynomial are isolated below
    NORMAL_LINE_PRECISION; no bracket has 0 strictly inside, so each lies
    on one side of lambda = 0, and the nearest roots on each side bound the
    cell.
    """
    spec = report.spec
    if len(spec.generators) != 1:
        raise ValueError("the normal line is defined for one defining equation")
    if not isinstance(spec.ring.field, RationalField):
        raise ValueError("normal-line sections need rational coefficients")
    ns = report.normal_space
    if ns.dimension != 1:
        raise ValueError("the normal space is not a line")
    n = spec.ring.nvars
    g = spec.generators[0]
    grad = tuple(g.derivative(i).evaluate(report.point) for i in range(n))
    if all(v == 0 for v in grad):
        raise SingularPointError("gradient vanishes; no normal line")

    # a reduced basis in one parameter has at most one member
    polys = report.parametric.polys
    dense = dense_from_poly(polys[0]) if polys else []
    scale = grad[ns.free_columns[0]]
    restricted = [c * scale**i for i, c in enumerate(dense)]
    if len(restricted) <= 1:
        # the unit ideal misses the line, and the zero ideal holds all of it
        return NormalLineSection(grad, tuple(restricted),
                                 (), None, None, float("inf"))
    lead = restricted[-1]
    restricted = [c / lead for c in restricted]

    brackets = tuple(RootBracket(lo, hi) for lo, hi in
                     isolate_real_roots(restricted, NORMAL_LINE_PRECISION))
    at_zero = restricted[0] == 0

    lam_lo = None
    lam_hi = None
    for br in brackets:
        if br.upper <= 0 and not (br.exact and br.upper == 0):
            if lam_lo is None or br.upper > lam_lo.upper:
                lam_lo = br
        if br.lower >= 0 and not (br.exact and br.lower == 0):
            if lam_hi is None or br.lower < lam_hi.lower:
                lam_hi = br
    if at_zero:
        zero = RootBracket(Fraction(0), Fraction(0))
        lam_lo = lam_hi = zero

    norm = float(sum(Fraction(v) * Fraction(v) for v in grad)) ** 0.5
    if at_zero:
        reach = 0.0
    elif brackets:
        reach = min(abs(br.midpoint()) for br in brackets) * norm
    else:
        reach = float("inf")
    return NormalLineSection(grad, tuple(restricted), brackets,
                             lam_lo, lam_hi, reach)
