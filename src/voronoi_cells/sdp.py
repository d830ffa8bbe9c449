"""Spectrahedral certificates for Voronoi cell membership.

If the variety is cut out by quadrics f_i with Hessians A_i, then u has a
nearest variety point at y whenever the Lagrangian
|u - x|^2 - sum lam_i f_i(x) is convex and stationary at y.  Convexity is
the linear matrix inequality sum lam_i A_i <= 2I and stationarity pins
lam to an affine subspace, so the certificate is an LMI feasibility
question.  Varieties of higher degree are first lifted to a Veronese
embedding where every defining equation becomes a quadric; rising lift
levels certify growing inner approximations of the cell.  The LMI engine
minimizes the largest eigenvalue over the multipliers with damped Newton
steps on a log-det barrier, sized for the dense desk-scale matrices
produced here.  A member carries multipliers whose matrix inequality
holds to within tol; a non-member found by the Newton solve carries a
dual matrix that bounds the largest eigenvalue away from zero for every
choice of multipliers, so it is a proof.

Values and gradients come from the lift's stacked ``constant`` (q,),
``linear`` (q, N) and ``hessians`` (q, N, N) arrays, and the LMI engine's
facial reduction folds every vanishing diagonal of a scan at once, with
one factorization per scan.  The lift depends only on the polynomials and
the level, so ``leveld_membership`` builds it once per (variety, level);
the on-variety check and the equality matrix E depend on the base point
y too, and are made once per (variety, level, y).  Of an LMI only the
equality right-hand side changes with the query point u, so
``lmi_feasible`` factors the rest (checks, E's SVD and nullspace, the
Newton frame) once per value of (B, C, E) and solves each right-hand side
against it; facial-reduction folds look up their folded systems the same
way.  The lift and base-point caches keep their 4 most recently used
entries, the factorization cache its 16 (a query with its folds is one
chain of factorizations), and every array they hold is read-only.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .exactmath import Polynomial, RationalField
from .voronoi import PointNotOnVarietyError

DEFAULT_SDP_TOL = 1e-7
MAX_LIFT_DIMENSION = 60
_RANK_EPS = 1e-12


def _veronese_indices(n: int, d: int):
    exponents = [alpha for alpha in product(range(d + 1), repeat=n)
                 if 0 < sum(alpha) <= d]
    exponents.sort(key=lambda a: (sum(a), tuple(-e for e in a)))
    return tuple(exponents)


def _split_monomial(mon, d: int, position: dict):
    """Write x^mon as a product of at most two lift coordinates.

    Monomials of degree <= d map to a single coordinate; higher ones are
    split greedily from the first variable into halves of degree <= d.
    """
    total = sum(mon)
    if total == 0:
        return ()
    if total <= d:
        return (position[mon],)
    head = total - total // 2
    first = [0] * len(mon)
    remaining = head
    for i, e in enumerate(mon):
        take = min(e, remaining)
        first[i] = take
        remaining -= take
        if remaining == 0:
            break
    second = tuple(e - t for e, t in zip(mon, first))
    a = position[tuple(first)]
    b = position[second]
    return (a, b) if a <= b else (b, a)


@dataclass(eq=False)
class LiftedQuadric:
    """A quadric in lift coordinates with exact rational coefficients.

    Keys of ``terms``: () constant, (i,) linear in z_i, (i, j) with
    i <= j quadratic.
    """

    terms: dict

    def pullback(self, ring, indices) -> Polynomial:
        """Substitute z_alpha = x^alpha, landing back in the source ring."""
        field = ring.field
        acc: dict = {}
        zero_mon = (0,) * ring.nvars
        for key, coeff in self.terms.items():
            mon = zero_mon
            for idx in key:
                mon = tuple(a + b for a, b in zip(mon, indices[idx]))
            prev = acc.get(mon, field.zero)
            acc[mon] = field.add(prev, coeff)
        return ring.from_terms(acc)


@dataclass(eq=False)
class VeroneseLift:
    """All quadratic data of a variety pushed through a Veronese embedding.

    ``quadrics`` holds the lifted defining equations first, then the
    coordinate relations.  Quadric i is constant[i] + linear[i] . z
    + (1/2) z^T hessians[i] z, so ``constant`` stacks their constant terms
    in a (q,) array, ``linear`` their linear parts in a (q, N) array and
    ``hessians`` their Hessians in a (q, N, N) array.
    The distance Hessian is 2I on the linear coordinates and zero
    elsewhere.
    """

    indices: tuple
    dimension: int
    nvars: int
    degree: int
    quadrics: tuple
    lifted_count: int
    relation_count: int
    constant: np.ndarray
    hessians: np.ndarray
    linear: np.ndarray
    distance_hessian: np.ndarray

    def point(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.prod(y ** np.array(self.indices), axis=1)

    def jacobian_at(self, y) -> np.ndarray:
        """Column i is the gradient of quadric i at the lift of y."""
        return (self.hessians @ self.point(y) + self.linear).T


def veronese_lift(polys, n: int, d: int) -> VeroneseLift:
    polys = tuple(polys)
    if not polys:
        raise ValueError("need at least one defining polynomial")
    ring = polys[0].ring
    if ring.nvars != n:
        raise ValueError("ring does not have the announced variable count")
    if not isinstance(ring.field, RationalField):
        raise ValueError("lifts are rational")
    if d < 1:
        raise ValueError("lift degree must be at least 1")
    for f in polys:
        if f.ring != ring:
            raise ValueError("polynomials must share one ring")
        if f.total_degree() > 2 * d:
            raise ValueError(
                f"degree {f.total_degree()} exceeds 2d = {2 * d}")
    dimension = math.comb(n + d, d) - 1
    if dimension > MAX_LIFT_DIMENSION:
        raise ValueError(
            f"lift needs {dimension} coordinates, cap is {MAX_LIFT_DIMENSION}")

    indices = _veronese_indices(n, d)
    position = {alpha: i for i, alpha in enumerate(indices)}

    lifted = []
    for f in polys:
        terms: dict = {}
        for mon, coeff in f.terms.items():
            key = _split_monomial(mon, d, position)
            prev = terms.get(key, Fraction(0))
            terms[key] = prev + coeff
        lifted.append(LiftedQuadric(
            {k: c for k, c in terms.items() if c != 0}))

    # group every product of at most two coordinates by its multidegree;
    # k colliding products give k - 1 relation quadrics
    by_sum: dict = {}
    for i, alpha in enumerate(indices):
        by_sum.setdefault(alpha, []).append((i,))
    for i in range(dimension):
        for j in range(i, dimension):
            s = tuple(a + b for a, b in zip(indices[i], indices[j]))
            by_sum.setdefault(s, []).append((i, j))
    relations = []
    for s in sorted(by_sum, key=lambda a: (sum(a), tuple(-e for e in a))):
        group = sorted(by_sum[s], key=lambda key: (len(key), key))
        rep = group[0]
        for other in group[1:]:
            relations.append(LiftedQuadric({other: Fraction(1),
                                            rep: Fraction(-1)}))

    for f, q in zip(polys, lifted):
        if q.pullback(ring, indices) != f:
            raise RuntimeError("lift failed to reproduce a defining equation")
    for q in relations:
        if not q.pullback(ring, indices).is_zero():
            raise RuntimeError("coordinate relation does not hold")

    quadrics = tuple(lifted) + tuple(relations)
    constant = np.zeros(len(quadrics))
    hessians = np.zeros((len(quadrics), dimension, dimension))
    linear = np.zeros((len(quadrics), dimension))
    for q, quadric in enumerate(quadrics):
        for key, coeff in quadric.terms.items():
            if not key:
                constant[q] = float(coeff)
            elif len(key) == 1:
                linear[q, key[0]] = float(coeff)
            elif len(key) == 2:
                i, j = key
                hessians[q, i, j] = hessians[q, j, i] = (
                    float(coeff) * (2.0 if i == j else 1.0))
    distance = np.diag([2.0] * n + [0.0] * (dimension - n))
    return VeroneseLift(
        indices=indices,
        dimension=dimension,
        nvars=n,
        degree=d,
        quadrics=quadrics,
        lifted_count=len(lifted),
        relation_count=len(relations),
        constant=constant,
        hessians=hessians,
        linear=linear,
        distance_hessian=distance,
    )


@dataclass(eq=False)
class LMIFeasibilityProblem:
    """Find lam with sum lam_i B_i <= C subject to E lam = e.

    ``lhs`` holds the B_i: a (k, n, n) array or a sequence of n x n
    matrices.
    """

    lhs: np.ndarray | tuple
    rhs: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    tol: float = DEFAULT_SDP_TOL
    max_iterations: int = 10_000


@dataclass(frozen=True)
class LMIResult:
    status: str
    witness: object
    margin: float
    iterations: int
    reason: str = ""


@dataclass(frozen=True, eq=False)
class _Factorization:
    """Everything about sum lam_i B_i <= C, E lam = e that e does not change.

    ``stack``, ``c`` and ``eq_matrix`` are read-only views of the key the
    factorization is cached under.  E's full SVD gives its rank and the
    nullspace ``basis``; ``diag`` and ``c_diag`` hold the diagonals of the
    B_i and of C, and ``flat_slope`` marks the diagonal entries that do not
    move along the basis, the only ones facial reduction can fold.
    """

    stack: np.ndarray
    c: np.ndarray
    eq_matrix: np.ndarray
    svd: tuple
    rank: int
    basis: np.ndarray
    diag: np.ndarray
    c_diag: np.ndarray
    flat_slope: np.ndarray

    def particular(self, eq_rhs: np.ndarray):
        """A solution lam0 of E lam = e, or None when there is none."""
        k = self.stack.shape[0]
        if self.eq_matrix.shape[0] == 0:
            return np.zeros(k)
        u_svd, s_svd, vt = self.svd
        rank = self.rank
        if rank:
            lam0 = vt[:rank].T @ ((u_svd[:, :rank].T @ eq_rhs) / s_svd[:rank])
        else:
            lam0 = np.zeros(k)
        residual = np.abs(self.eq_matrix @ lam0 - eq_rhs).max(initial=0.0)
        if residual > 1e-8 * max(1.0, np.abs(eq_rhs).max(initial=0.0)):
            return None
        return lam0

    def fold(self, flat: np.ndarray, eq_rhs: np.ndarray):
        """The system with the rows of the flat diagonal entries pinned.

        Feasibility forces the whole row of a flat entry to zero, so its
        entries join the equalities, each symmetric pair once, and its
        coordinate leaves the matrices.  Returns the folded system's
        factorization and right-hand side.
        """
        active = np.arange(flat.size)
        j, i = np.meshgrid(active[flat], active, indexing="ij")
        pair = ~flat | (i > j)
        rows = self.stack[:, i[pair], j[pair]].T
        keep = active[~flat]
        folded = _factor(self.stack[:, keep[:, None], keep],
                         self.c[np.ix_(keep, keep)],
                         np.vstack([self.eq_matrix, rows]))
        return folded, np.concatenate([eq_rhs, self.c[i[pair], j[pair]]])

    @functools.cached_property
    def newton(self) -> tuple:
        """The Newton frame, built on the first solve that takes steps.

        Returns (ds, flat_d, gram_inv, a, identity_in_span, moves, norms,
        c_norm): D_j = sum_i basis_ij B_i, their flattened rows and the
        pseudo-inverse of its Gram matrix, the coefficients a of the
        projection of I onto the span of the D_j and whether it is exact,
        the derivatives A_0 = I, A_j = -D_j of the barrier's matrix, and
        the norms of the B_i and of C.
        """
        size = self.c.shape[0]
        ds = np.tensordot(self.basis.T, self.stack, axes=1)
        flat_d = ds.reshape(len(ds), -1)
        gram_inv = np.linalg.pinv(flat_d @ flat_d.T)
        a = gram_inv @ np.trace(ds, axis1=1, axis2=2)
        in_span = bool(np.abs(np.tensordot(a, ds, axes=1)
                              - np.eye(size)).max() <= 1e-9)
        moves = np.concatenate([np.eye(size)[None], -ds])
        norms = np.linalg.norm(self.stack, axis=(1, 2))
        for array in (ds, flat_d, gram_inv, a, moves, norms):
            array.setflags(write=False)
        return (ds, flat_d, gram_inv, a, in_span, moves, norms,
                float(np.linalg.norm(self.c)))


def _factor(lhs, rhs, eq_matrix) -> _Factorization:
    """Check the shapes of (B, C, E) and look up their factorization."""
    c = np.asarray(rhs, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("right-hand side must be a square matrix")
    size = c.shape[0]
    k = len(lhs)
    try:
        stack = np.asarray(lhs, dtype=float)
    except ValueError:  # the matrices differ in shape
        stack = np.zeros(0)
    if not k:
        stack = np.zeros((0, size, size))
    if stack.shape != (k, size, size):
        raise ValueError("constraint matrices must match the rhs size")
    eq_matrix = np.asarray(eq_matrix, dtype=float)
    if eq_matrix.size == 0:
        eq_matrix = eq_matrix.reshape(0, k)
    if eq_matrix.ndim != 2 or eq_matrix.shape[1] != k:
        raise ValueError("equality matrix needs one column per multiplier")
    return _factored(*((a.shape, a.tobytes()) for a in (stack, c, eq_matrix)))


@functools.lru_cache(maxsize=16)
def _factored(stack_key, c_key, eq_key) -> _Factorization:
    """The factorization of the system whose (shape, bytes) keys are given.

    Keyed by value, so a caller that changes an array in place gets the
    factorization of the new one; a failed check raises and caches nothing.
    A query and its facial-reduction folds are one chain of entries, 8 of
    them for the unit circle at level 6, so the cache keeps 16: two such
    chains stay warm side by side.
    """
    stack, c, eq_matrix = (np.frombuffer(data).reshape(shape)
                           for shape, data in (stack_key, c_key, eq_key))
    if np.abs(stack - stack.transpose(0, 2, 1)).max(initial=0.0) > 1e-9:
        raise ValueError("constraint matrices must be symmetric")
    if np.abs(c - c.T).max(initial=0.0) > 1e-9:
        raise ValueError("right-hand side must be symmetric")
    k = stack.shape[0]
    if eq_matrix.shape[0] == 0:
        svd, rank, basis = (), 0, np.eye(k)
    else:
        svd = np.linalg.svd(eq_matrix)
        s_svd = svd[1]
        top = s_svd[0] if s_svd.size else 0.0
        rank = int((s_svd > top * _RANK_EPS).sum()) if top > 0 else 0
        basis = svd[2][rank:].T
    entries = np.arange(c.shape[0])
    diag = stack[:, entries, entries]
    slope = np.abs(basis.T @ diag).max(axis=0, initial=0.0)
    c_diag = c[entries, entries]
    flat_slope = slope <= 1e-12
    for array in (*svd, basis, diag, c_diag, flat_slope):
        array.setflags(write=False)
    return _Factorization(stack, c, eq_matrix, svd, rank, basis, diag,
                          c_diag, flat_slope)


def _check_settings(tol: float, max_iterations: int):
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iterations < 1:
        raise ValueError(
            f"max_iterations must be at least 1, got {max_iterations}")


def lmi_feasible(problem: LMIFeasibilityProblem) -> LMIResult:
    """Classify the LMI by minimizing the top eigenvalue over E lam = e.

    Equality constraints are eliminated through an affine parameterization
    lam = lam0 + basis mu (particular solution plus nullspace basis), so
    every iterate satisfies them exactly.  With M0 = sum lam0_i B_i - C and
    D_j = sum_i basis_ij B_i, damped Newton steps on the log-det barrier
    beta t - log det(tI - M0 - sum mu_j D_j) follow the central path of
    min t, with beta raised after each centring.

    An iterate with top eigenvalue <= tol is ``feasible`` with lam as the
    witness.  ``infeasible`` from the Newton solve is a proof: the witness
    is a dual matrix Z >= 0 with tr Z = 1 and <D_j, Z> = 0, so every lam
    has top eigenvalue at least <M0, Z> >= 10 tol.  When the equalities
    settle the answer alone (inconsistent, a forced zero row, or lam fully
    determined, where ``margin`` is exact) there is no witness.
    ``inconclusive`` means the duality gap fell below tol, or
    ``max_iterations`` Newton steps ran out, first.  ``margin`` is the
    smallest top eigenvalue found and ``iterations`` counts Newton steps.
    A tol that is not finite and positive, or a max_iterations below 1,
    raises ValueError.

    Only e depends on the query.  The rest, (B, C, E) with its checks,
    E's SVD, the nullspace basis and the Newton frame, is factored once
    and cached by value: the key is the shape and bytes of the three
    arrays, so a changed array is a new system.  Each facial-reduction
    fold looks up the factorization of its folded system the same way.
    A bounded cache keeps the 16 most recently used factorizations.
    """
    _check_settings(problem.tol, problem.max_iterations)
    system = _factor(problem.lhs, problem.rhs, problem.eq_matrix)
    eq_rhs = np.asarray(problem.eq_rhs, dtype=float).reshape(-1)
    if eq_rhs.shape[0] != system.eq_matrix.shape[0]:
        raise ValueError("equality sides disagree on the number of rows")
    tol = problem.tol

    # facial reduction: whenever a diagonal entry of sum lam_i B_i - C
    # vanishes identically on the constraint subspace, feasibility forces
    # that whole row to zero; each scan folds the rows of every such entry
    # into the equalities at once, so strict feasibility regains an interior
    reason = "inconsistent-equalities"
    while True:
        lam0 = system.particular(eq_rhs)
        if lam0 is None:
            return LMIResult("infeasible", None, math.inf, 0, reason)
        value = lam0 @ system.diag - system.c_diag
        flat = (np.abs(value) <= 1e-12) & system.flat_slope
        if not flat.any():
            break
        system, eq_rhs = system.fold(flat, eq_rhs)
        reason = "zero-diagonal-row"
    stack, c, basis = system.stack, system.c, system.basis
    size = c.shape[0]
    if not size:
        # the matrix inequality reduced away entirely
        return LMIResult("feasible", lam0, 0.0, 0)

    m0 = np.tensordot(lam0, stack, axes=1) - c
    w, vecs = np.linalg.eigh(m0)
    best = float(w[-1])
    if best <= tol:
        return LMIResult("feasible", lam0, best, 0)
    if basis.shape[1] == 0:
        # multipliers fully determined; the value is exact
        status = "infeasible" if best >= 10.0 * tol else "inconclusive"
        return LMIResult(status, None, best, 0)

    # min t subject to S = tI - M0 - sum mu_j D_j >= 0, by damped Newton
    # steps on beta t - log det S with beta raised after each centring;
    # A_0 = I and A_j = -D_j are the derivatives of S in (t, mu)
    ds, flat_d, gram_inv, a, in_span, moves, norms, c_norm = system.newton

    # I in the span of the D_j makes the Newton system singular in t: the
    # barrier falls without bound along mu -> mu - s a, which lowers every
    # eigenvalue of M by s
    if in_span:
        lam = lam0 - (best + 1.0) * (basis @ a)
        top = np.linalg.eigvalsh(np.tensordot(lam, stack, axes=1) - c)[-1]
        return LMIResult("feasible", lam, float(top), 1)

    mu = np.zeros(len(ds))
    t = best + 1.0
    beta = float((1.0 / (t - w)).sum())
    steps = 0
    while True:
        # everything below lives in the frame S^-1/2 (.) S^-1/2
        root = (vecs / np.sqrt(t - w)) @ vecs.T
        scaled = root @ moves @ root
        flat = scaled.reshape(len(moves), -1)
        hess = flat @ flat.T
        pull = np.trace(scaled, axis1=1, axis2=2)  # tr(S^-1 A_a)

        # S^-1 projected onto <D_j, Z> = 0 in the barrier's local metric
        # (a Gram solve with the mu block of the Hessian), which keeps it
        # inside the cone, then once more in the plain metric, which clears
        # the rounding of the first solve; scaled to trace 1 and positive
        # semidefinite, weak duality gives min lam_max >= <M0, Z>
        coeffs = np.linalg.lstsq(hess[1:, 1:], pull[1:], rcond=None)[0]
        z = root @ (np.eye(size)
                    - np.tensordot(coeffs, scaled[1:], axes=1)) @ root
        z -= np.tensordot(gram_inv @ (flat_d @ z.reshape(-1)), ds, axes=1)
        z /= np.trace(z)
        if (float((m0 * z).sum()) >= 10.0 * tol
                and np.linalg.eigvalsh(z)[0] >= 0.0):
            return LMIResult("infeasible", z, best, steps)

        if steps == problem.max_iterations:
            break
        hess_inv = np.linalg.pinv(hess)
        grad = -pull
        grad[0] += beta
        step = -hess_inv @ grad
        decrement = math.sqrt(max(0.0, float(-grad @ step)))
        if decrement <= 0.5:
            # centred: the duality gap is size / beta
            if size / beta < tol:
                break
            beta *= 8.0
            grad[0] = beta - pull[0]
            step = -hess_inv @ grad
            decrement = math.sqrt(max(0.0, float(-grad @ step)))
        steps += 1
        step /= 1.0 + decrement
        t += step[0]
        mu += step[1:]
        lam = lam0 + basis @ mu
        w, vecs = np.linalg.eigh(np.tensordot(lam, stack, axes=1) - c)
        if w[-1] < best:
            best = float(w[-1])
            # far-out iterates sum large cancelling terms; a top eigenvalue
            # inside their rounding error proves nothing
            if best + 1e-14 * (np.abs(lam) @ norms + c_norm) <= tol:
                return LMIResult("feasible", lam, best, steps)
        if w[-1] >= t:
            break  # rounding pushed the iterate out of the barrier's domain
    return LMIResult("inconclusive", None, best, steps)


@dataclass(frozen=True)
class MembershipResult:
    status: str
    witness: object
    margin: float
    iterations: int


_STATUS = {"feasible": "member", "infeasible": "non-member",
           "inconclusive": "inconclusive"}


@functools.lru_cache(maxsize=4)
def _shared_lift(polys: tuple, d: int) -> VeroneseLift:
    """The lift every query on polys at level d shares, built on first use.

    Its arrays are read-only, so no query can change what the next one
    sees.  A failed build raises and leaves nothing cached.
    """
    lift = veronese_lift(polys, polys[0].ring.nvars, d)
    for array in (lift.constant, lift.hessians, lift.linear,
                  lift.distance_hessian):
        array.setflags(write=False)
    return lift


@functools.lru_cache(maxsize=4)
def _base_point(polys: tuple, d: int, y: bytes, tol: float) -> tuple:
    """The shared lift and the read-only equality matrix E at y.

    E = [(1/2) Jac(y) rows of the linear coordinates; Jac rows of the
    others] depends on the variety, the level and y, never on u.  A base
    point off the variety raises and leaves nothing cached.
    """
    lift = _shared_lift(polys, d)
    n = lift.nvars
    z = lift.point(np.frombuffer(y))
    # the lifted equations reproduce the defining ones at z, the lift of y
    q = lift.lifted_count
    values = (lift.constant[:q] + lift.linear[:q] @ z
              + 0.5 * (lift.hessians[:q] @ z) @ z)
    worst = float(np.abs(values).max())
    if worst > max(tol, 1e-9):
        raise PointNotOnVarietyError(
            f"base point misses the variety by {worst:.3g}")
    jac = (lift.hessians @ z + lift.linear).T
    eq_matrix = np.vstack([0.5 * jac[:n, :], jac[n:, :]])
    eq_matrix.setflags(write=False)
    return lift, eq_matrix


def leveld_membership(polys, y, u, d: int, tol: float = DEFAULT_SDP_TOL,
                      max_iterations: int = 10_000) -> MembershipResult:
    """Membership certificate at lift level d.

    The variety is lifted through the degree-d Veronese embedding; the
    multipliers range over the lifted equations and coordinate relations,
    constrained to be stationary in the auxiliary coordinates.  Levels
    are nested: a member at level d stays a member at level d + 1.

    Level 1 takes quadrics as they are (the lift has no relations): it
    decides whether some lam with sum lam_i A_i <= 2I satisfies
    (1/2) Jac(y) lam = y - u.  A member carries its multipliers lam.  A
    non-member carries the dual matrix from ``lmi_feasible`` that proves
    no lam works, or None when the stationarity equations settle the
    answer alone; it only says this level's certificate does not exist.
    ``iterations`` counts Newton steps of the LMI solve.  The lift is
    shared by every query on the same polynomials and level, and the
    on-variety check and the equality matrix by every query on the same
    (polynomials, level, y, tol); only the right-hand side y - u is built
    per query, and ``lmi_feasible`` reuses the factorization of the rest.
    """
    _check_settings(tol, max_iterations)
    polys = tuple(polys)
    if not polys:
        raise ValueError("need at least one defining polynomial")
    n = polys[0].ring.nvars
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if y.shape != (n,) or u.shape != (n,):
        raise ValueError("points must match the ring's variable count")
    lift, eq_matrix = _base_point(polys, d, y.tobytes(), tol)
    eq_rhs = np.concatenate([y - u, np.zeros(lift.dimension - n)])
    problem = LMIFeasibilityProblem(
        lhs=lift.hessians,
        rhs=lift.distance_hessian,
        eq_matrix=eq_matrix,
        eq_rhs=eq_rhs,
        tol=tol,
        max_iterations=max_iterations,
    )
    res = lmi_feasible(problem)
    return MembershipResult(_STATUS[res.status], res.witness, res.margin,
                            res.iterations)
