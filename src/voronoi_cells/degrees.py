"""Degree laboratory: measured and closed-form Voronoi degrees.

Two independent sources of the same number.  The measured side draws a
dense random hypersurface through a random point over a prime field, runs
the boundary pipeline there, and counts the quotient degree; replication
across seeds and primes guards against unlucky randomness.  The closed-form
side evaluates the published degree formulas for curves, surfaces, cones,
low-rank matrix varieties, and the general hypersurface conjecture, with
the machine-checked table of known values compiled in.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

from .exactmath.fields import PrimeField
from .exactmath.orders import GREVLEX
from .exactmath.poly import PolyRing
# eliminate goes unused here, but stays importable from this module:
# perfbench/tracing.py wraps it by this name
from .groebner import (
    IdealSpec,
    eliminate,
    is_zero_dimensional,
    quotient_degree,
    saturate_eliminate,
)
from .voronoi import (
    SingularPointError,
    _expected_codim,
    normal_space_at,
    parametric_critical_system,
)


class UnluckySliceError(RuntimeError):
    """The sliced system failed to become zero-dimensional."""


# fresh draws a replica may take after a singular point or an unlucky slice
MAX_RESEEDS = 5
# runs per measurement, each from its own seed
REPLICAS = 3


# ---------------------------------------------------------------------------
# closed-form degree formulas

def formula_curve(d: int, g: int) -> int:
    """Voronoi degree of a smooth curve of degree d and genus g in general
    position: 4d + 2g - 6."""
    _check_degree_genus(d, g)
    return 4 * d + 2 * g - 6


def formula_surface(d: int, chi: int, g2: int) -> int:
    """Voronoi degree of a smooth surface in general position from its
    degree, Euler number, and g2, the genus of its intersection with a
    general quadric: 3d + chi + 4*g2 - 11.

    g2 is not the sectional genus g (the genus of a hyperplane section);
    by adjunction g2 = d + 2g - 1.  It is (d-1)^2 for a degree-d surface
    in P^3 and C(2e-1, 2) for the Veronese surface v_e(P^2) of degree e^2.
    """
    _check_degree(d)
    return 3 * d + chi + 4 * g2 - 11


def formula_cone(d: int, g: int) -> int:
    """Voronoi degree at the apex of a cone over a smooth curve of degree d
    and genus g: 6d + 4g - 9."""
    _check_degree_genus(d, g)
    return 6 * d + 4 * g - 9


def plane_curve_genus(d: int) -> int:
    """Genus of a smooth plane curve of degree d: (d - 1)(d - 2)/2."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    return (d - 1) * (d - 2) // 2


def conjecture_hypersurface(n: int, d: int, homogeneous: bool = False) -> int:
    """Conjectured Voronoi degree of a generic hypersurface of degree d in
    n-space, at a general point (homogeneous: a cone through the origin,
    measured at a general point of the cone).

    The closed form uses the geometric series 4 * sum_{j<n-1} (d-1)^j, which
    also covers d = 2 exactly (both variants give n).
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    if d < 2:
        raise ValueError("hypersurface degree must be at least 2")
    e = d - 1
    series = sum(e ** j for j in range(n - 1))
    if homogeneous:
        if n < 2:
            raise ValueError("a cone needs ambient dimension at least 2")
        return 2 * e ** (n - 1) + 4 * series - 3 * n + 2
    return e ** n + 3 * e ** (n - 1) + 4 * series - 3 * n


def lowrank_voronoi_degree(m: int, n: int, r: int) -> int:
    """Voronoi degree of the rank-r determinantal variety in m x n matrices
    (m <= n): 2(m - r)."""
    if not 0 < r < m <= n:
        raise ValueError("need 0 < r < m <= n")
    return 2 * (m - r)


def _check_degree(d: int) -> None:
    # a line or a plane has no Voronoi boundary; the closed forms hold from
    # degree 2 on
    if d < 2:
        raise ValueError("degree must be at least 2")


def _check_degree_genus(d: int, g: int) -> None:
    _check_degree(d)
    if g < 0:
        raise ValueError("genus must be nonnegative")


# known Voronoi degrees of generic degree-d hypersurfaces in n-space,
# keyed (n, d); every published value, used to cross-check the conjecture
TABLE_INHOMOGENEOUS = {
    (1, 2): 1, (1, 3): 2, (1, 4): 3, (1, 5): 4, (1, 6): 5, (1, 7): 6,
    (1, 8): 7,
    (2, 2): 2, (2, 3): 8, (2, 4): 16, (2, 5): 26, (2, 6): 38, (2, 7): 52,
    (2, 8): 68,
    (3, 2): 3, (3, 3): 23, (3, 4): 61, (3, 5): 123, (3, 6): 215,
    (3, 7): 343,
    (4, 2): 4, (4, 3): 56, (4, 4): 202, (4, 5): 520, (4, 6): 1112,
    (5, 2): 5, (5, 3): 125, (5, 4): 631,
    (6, 2): 6, (6, 3): 266, (6, 4): 1924,
    (7, 2): 7, (7, 3): 551,
}

# the homogeneous (cone, degree at the apex) companion table
TABLE_HOMOGENEOUS = {
    (2, 2): 2, (2, 3): 4, (2, 4): 6, (2, 5): 8, (2, 6): 10, (2, 7): 12,
    (2, 8): 14,
    (3, 2): 3, (3, 3): 13, (3, 4): 27, (3, 5): 45, (3, 6): 67, (3, 7): 93,
    (3, 8): 123,
    (4, 2): 4, (4, 3): 34, (4, 4): 96, (4, 5): 202,
    (5, 2): 5, (5, 3): 79, (5, 4): 309,
    (6, 2): 6, (6, 3): 172,
    (7, 2): 7, (7, 3): 361,
}


# ---------------------------------------------------------------------------
# finite-field measurement

@dataclass(frozen=True)
class DegreeExperiment:
    """One stabilized degree measurement.

    ``replicas`` records every (seed, prime, degree) run; ``degree`` is the
    majority value and ``stable`` says whether all replicas agreed.
    """

    spec: IdealSpec
    point: tuple
    codim: int
    seed: int
    prime: int
    degree: int
    stable: bool
    replicas: tuple[tuple[int, int, int], ...]


def _monomials_up_to(n: int, d: int):
    for exps in itertools.product(range(d + 1), repeat=n):
        if sum(exps) <= d:
            yield exps


def random_hypersurface(n: int, d: int, prime: int, seed: int,
                        homogeneous: bool = False):
    """A dense random degree-d hypersurface over F_p through a random point.

    The point is drawn first from the seed stream, then the coefficients;
    one coefficient is then solved so the hypersurface passes through the
    point (the constant term, or the x1^d term with y1 forced nonzero in
    the homogeneous case).  Returns (IdealSpec, point).
    """
    field = PrimeField(prime)
    rng = random.Random(seed)
    ring = PolyRing(tuple(f"x{i + 1}" for i in range(n)), field=field,
                    order=GREVLEX)
    y = [rng.randrange(prime) for _ in range(n)]
    if homogeneous:
        while y[0] == 0:
            y[0] = rng.randrange(prime)
        mons = [m for m in _monomials_up_to(n, d) if sum(m) == d]
    else:
        mons = [m for m in _monomials_up_to(n, d) if sum(m) > 0]
    terms = {}
    for mon in sorted(mons, reverse=True):
        coeff = rng.randrange(prime)
        if coeff:
            terms[mon] = coeff
    pivot = (d,) + (0,) * (n - 1) if homogeneous else (0,) * n
    terms.pop(pivot, None)
    partial = ring.from_terms(terms)
    value = partial.evaluate(tuple(y))
    if homogeneous:
        terms[pivot] = field.mul(field.neg(value),
                                 field.inv(pow(y[0], d, prime)))
    else:
        terms[pivot] = field.neg(value)
    if terms[pivot] == 0:
        del terms[pivot]
    return IdealSpec(ring, (ring.from_terms(terms),), 1), tuple(y)


def _nonzero_coeffs(rng: random.Random, p: int, n: int) -> list[int]:
    """n coefficients mod p, redrawn together until one is nonzero."""
    coeffs = [rng.randrange(p) for _ in range(n)]
    while not any(coeffs):
        coeffs = [rng.randrange(p) for _ in range(n)]
    return coeffs


def _sliced_degree_once(spec: IdealSpec, point, seed: int, budget) -> int:
    """One pipeline run: slice, saturate by a random linear form, count.

    The normal space has the codimension c of the variety as its dimension,
    and c - 1 random affine slices cut the boundary down to points.
    Saturation by a single random linear combination of the displacement
    coordinates replaces the generator-by-generator saturation of the exact
    pipeline; over a large prime field the difference is a measure-zero
    event, and replication catches it.
    """
    ring = spec.ring
    field = ring.field
    p = field.p
    n = ring.nvars
    rng = random.Random(seed)
    ns = normal_space_at(spec, point)
    k = ns.dimension

    slice_polys = []
    for _ in range(ns.expected_codim - 1):
        form = ns.u_ring.zero()
        for i, c in enumerate(_nonzero_coeffs(rng, p, n)):
            if c:
                form = form + ns.u_ring.variable(i).scale(c)
        slice_polys.append(form + ns.u_ring.constant(rng.randrange(p)))

    sring, gens = parametric_critical_system(spec, ns, slices=slice_polys)
    lin = sring.zero()
    for i, c in enumerate(_nonzero_coeffs(rng, p, n)):
        if c:
            lin = lin + (sring.variable(i) - sring.constant(point[i])).scale(c)

    parametric = saturate_eliminate(gens, lin, ring.variables, sring,
                                    budget=budget)
    if not is_zero_dimensional(parametric):
        raise UnluckySliceError(
            f"sliced system is not zero-dimensional (k={k})")
    return quotient_degree(parametric)


def voronoi_degree_modp(spec: IdealSpec, point, *,
                        seed: int = 0,
                        budget: int | None = None) -> DegreeExperiment:
    """Measure the Voronoi degree of V(I) at y over its prime field.

    Each replica draws fresh slice and saturation randomness from seed + i;
    a replica whose slice fails to cut the boundary to points is reseeded
    up to MAX_RESEEDS times.  The point is fixed, so a singular one raises
    SingularPointError at once.  The majority degree is reported, with all
    runs listed and a stability flag.
    """
    field = spec.ring.field
    if not isinstance(field, PrimeField):
        raise ValueError("degree experiments run over a prime field")
    runs = [_run_with_reseeds(lambda _: (spec, point), seed + i, field.p,
                              budget, UnluckySliceError)[0]
            for i in range(REPLICAS)]
    return _stabilize(spec, point, seed, field.p, runs)


def hypersurface_degree_experiment(n: int, d: int, *,
                                   homogeneous: bool = False, seed: int = 0,
                                   prime: int = 32003,
                                   budget: int | None = None
                                   ) -> DegreeExperiment:
    """Measured Voronoi degree of a random degree-d hypersurface in n-space.

    Replica i generates its own hypersurface from seed + i, over prime for
    even i and over a partner prime (65537, or 32003 when prime is 65537)
    for odd i, so stability spans both the randomness and the choice of
    prime.  The homogeneous variant samples y on the cone away from the
    hyperplane y1 = 0 and measures the degree there.  The report carries the
    hypersurface and point of replica 0's successful attempt.
    """
    partner = 65537 if prime != 65537 else 32003
    primes = [partner if i % 2 else prime for i in range(REPLICAS)]
    results = [_run_with_reseeds(
        lambda s: random_hypersurface(n, d, p, s, homogeneous=homogeneous),
        seed + i, p, budget, (SingularPointError, UnluckySliceError))
        for i, p in enumerate(primes)]
    _, spec, y = results[0]
    return _stabilize(spec, y, seed, prime, [run for run, _, _ in results])


def _run_with_reseeds(draw, seed: int, prime: int, budget, retry):
    """One replica: a degree run over F_prime with its reseeds.

    Attempt j uses the seed seed + 1000003 * j, both for draw(that seed),
    which gives the spec and point to measure, and for the slice.  An
    error of a type in ``retry`` takes the next attempt, up to MAX_RESEEDS
    more.  Returns the run (seed, prime, degree) with its spec and point.
    A singular point that ends the replica raises SingularPointError
    naming the replica seed, the prime and the number of draws.
    """
    for attempt in range(MAX_RESEEDS + 1):
        run_seed = seed + 1000003 * attempt
        spec, point = draw(run_seed)
        try:
            degree = _sliced_degree_once(spec, point, run_seed, budget)
            return (run_seed, prime, degree), spec, point
        except (SingularPointError, UnluckySliceError) as exc:
            if isinstance(exc, retry) and attempt < MAX_RESEEDS:
                continue
            if isinstance(exc, SingularPointError):
                raise SingularPointError(
                    f"singular point after {attempt + 1} draw(s) of replica "
                    f"seed {seed} over F_{prime}; degree runs measure at "
                    "smooth points only") from exc
            raise


def _stabilize(spec, point, seed, prime, runs) -> DegreeExperiment:
    counts = Counter(deg for _, _, deg in runs)
    degree, _ = counts.most_common(1)[0]
    stable = len(counts) == 1
    return DegreeExperiment(spec, tuple(point), _expected_codim(spec), seed,
                            prime, degree, stable, tuple(runs))
