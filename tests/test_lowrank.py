"""SVD, Eckart-Young truncation, and low-rank cell membership."""
import numpy as np
import pytest

from voronoi_cells.lowrank import (
    DEFAULT_TOL,
    cell_membership,
    describe_cell,
    eckart_young_truncate,
    spectral_norm,
    svd,
    symmetric_frobenius_membership,
)


def random_orthogonal(dim, rng):
    q, rfac = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(rfac))


class TestSVD:
    def test_identity(self):
        factors = svd(np.eye(3))
        assert np.allclose(factors.values, [1.0, 1.0, 1.0])
        assert np.allclose(factors.sigma1, np.eye(3))
        assert np.allclose(factors.sigma2, np.eye(3))

    def test_positive_diagonal_is_fixed(self):
        factors = svd(np.diag([3.0, 1.0]))
        assert np.allclose(factors.values, [3.0, 1.0])
        assert np.allclose(factors.sigma1, np.eye(2))
        assert np.allclose(factors.sigma2, np.eye(2))

    def test_negative_entry_moves_sign_to_right_factor(self):
        # left vectors keep a positive first nonzero entry, so the sign
        # lands in sigma2
        factors = svd(np.diag([-2.0, 1.0]))
        assert np.allclose(factors.values, [2.0, 1.0])
        assert np.allclose(factors.sigma1, np.eye(2))
        assert np.allclose(factors.sigma2, np.diag([-1.0, 1.0]))
        assert np.allclose(factors.reconstruct(), np.diag([-2.0, 1.0]))

    def test_unsorted_diagonal_gets_reordered(self):
        factors = svd(np.diag([1.0, 5.0, 3.0]))
        assert np.allclose(factors.values, [5.0, 3.0, 1.0])
        assert np.allclose(factors.reconstruct(), np.diag([1.0, 5.0, 3.0]))

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4), (5, 5), (1, 7),
                                       (7, 1), (2, 3), (3, 2)])
    def test_random_matrix_factorization(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        a = rng.standard_normal(shape)
        factors = svd(a)
        m, n = shape
        assert factors.sigma1.shape == (m, m)
        assert factors.sigma2.shape == (n, n)
        assert len(factors.values) == min(m, n)
        scale = max(np.abs(a).max(), 1.0)
        assert np.abs(factors.reconstruct() - a).max() <= 1e-10 * scale
        assert np.abs(factors.sigma1.T @ factors.sigma1
                      - np.eye(m)).max() <= 1e-10
        assert np.abs(factors.sigma2 @ factors.sigma2.T
                      - np.eye(n)).max() <= 1e-10

    def test_values_match_reference_solver(self):
        rng = np.random.default_rng(7)
        for shape in [(4, 6), (6, 4), (3, 3), (2, 8)]:
            a = rng.standard_normal(shape)
            mine = svd(a).values
            reference = np.linalg.svd(a, compute_uv=False)
            assert np.allclose(mine, reference, atol=1e-9)

    def test_values_nonincreasing(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 4))
        vals = svd(a).values
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))

    def test_left_vector_sign_convention(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((5, 3))
        factors = svd(a)
        for j in range(5):
            column = factors.sigma1[:, j]
            nonzero = column[np.abs(column) > 1e-12]
            assert nonzero[0] > 0

    def test_rank_deficient_input(self):
        factors = svd(np.diag([3.0, 0.0, 0.0]))
        assert np.allclose(factors.values, [3.0, 0.0, 0.0])
        assert np.allclose(factors.reconstruct(), np.diag([3.0, 0.0, 0.0]))
        assert np.abs(factors.sigma1.T @ factors.sigma1
                      - np.eye(3)).max() <= 1e-12

    def test_numerically_truncated_input_keeps_orthogonal_factors(self):
        rng = np.random.default_rng(17)
        v = eckart_young_truncate(rng.standard_normal((5, 6)), 2)
        factors = svd(v)
        assert factors.values[2] <= 1e-12
        assert np.abs(factors.sigma1.T @ factors.sigma1
                      - np.eye(5)).max() <= 1e-10
        assert np.abs(factors.sigma2 @ factors.sigma2.T
                      - np.eye(6)).max() <= 1e-10
        assert np.abs(factors.reconstruct() - v).max() <= 1e-10

    def test_zero_matrix(self):
        factors = svd(np.zeros((3, 2)))
        assert np.allclose(factors.values, [0.0, 0.0])
        assert np.allclose(factors.sigma1, np.eye(3))
        assert np.allclose(factors.reconstruct(), np.zeros((3, 2)))

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((4, 5))
        first = svd(a)
        second = svd(a)
        assert (first.sigma1 == second.sigma1).all()
        assert (first.values == second.values).all()
        assert (first.sigma2 == second.sigma2).all()

    def test_signs_match_the_column_loop_bit_for_bit(self):
        # the sign convention as a loop over columns, the way it was first
        # written; the vectorized rule must give the same bits on full-rank,
        # rank-deficient, zero-column, small-integer and empty matrices
        def first_nonzero_sign(v):
            for entry in v:
                if abs(entry) > 1e-12:
                    return 1.0 if entry > 0 else -1.0
            return 1.0

        def reference(a):
            m, n = a.shape
            sigma1, values, sigma2 = np.linalg.svd(a, full_matrices=True)
            k = min(m, n)
            for j in range(m):
                if first_nonzero_sign(sigma1[:, j]) < 0:
                    sigma1[:, j] = -sigma1[:, j]
                    if j < k:
                        sigma2[j, :] = -sigma2[j, :]
            for i in range(k, n):
                if first_nonzero_sign(sigma2[i, :]) < 0:
                    sigma2[i, :] = -sigma2[i, :]
            return sigma1, values, sigma2

        rng = np.random.default_rng(35)
        cases = [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((0, 0))]
        for trial in range(3000):
            m, n = rng.integers(1, 8, size=2)
            kind = trial % 4
            if kind == 0:
                a = rng.standard_normal((m, n))
            elif kind == 1:
                r = rng.integers(1, min(m, n) + 1)
                a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            elif kind == 2:
                a = rng.standard_normal((m, n))
                a[:, rng.random(n) < 0.4] = 0.0
            else:
                a = rng.integers(-1, 2, size=(m, n)).astype(float)
            cases.append(a)
        for a in cases:
            got = svd(a)
            want = reference(a.copy())
            for x, y in zip((got.sigma1, got.values, got.sigma2), want):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            svd([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            svd([[1.0, float("nan")], [0.0, 1.0]])


class TestSpectralNorm:
    def test_golden_values(self):
        assert spectral_norm(np.zeros((2, 3))) == 0.0
        assert abs(spectral_norm(np.diag([2.0, -3.0])) - 3.0) < 1e-12
        # shear by 1: largest singular value is the golden ratio
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        assert abs(spectral_norm([[1.0, 1.0], [0.0, 1.0]]) - phi) < 1e-12

    def test_matches_reference(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 7))
        assert abs(spectral_norm(a) - np.linalg.svd(a, compute_uv=False)[0]) < 1e-10


class TestTruncation:
    def test_diagonal(self):
        out = eckart_young_truncate(np.diag([5.0, 3.0, 1.0]), 2)
        assert np.allclose(out, np.diag([5.0, 3.0, 0.0]))

    def test_full_rank_is_identity_map(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((3, 3))
        assert np.abs(eckart_young_truncate(a, 3) - a).max() <= 1e-10

    def test_result_has_requested_rank(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((4, 6))
        out = eckart_young_truncate(a, 2)
        vals = np.linalg.svd(out, compute_uv=False)
        assert vals[1] > 1e-9
        assert vals[2] <= 1e-12

    def test_beats_random_rank_one_candidates(self):
        # Frobenius optimality of the truncation among rank-1 matrices
        rng = np.random.default_rng(37)
        a = rng.standard_normal((3, 3))
        best = np.linalg.norm(a - eckart_young_truncate(a, 1))
        for _ in range(500):
            x = rng.standard_normal((3, 1))
            yv = rng.standard_normal((1, 3))
            candidate = x @ yv
            t = np.tensordot(a, candidate) / np.tensordot(candidate, candidate)
            assert np.linalg.norm(a - t * candidate) >= best - 1e-12

    def test_rejects_rank_out_of_range(self):
        a = np.eye(3)
        with pytest.raises(ValueError):
            eckart_young_truncate(a, 0)
        with pytest.raises(ValueError):
            eckart_young_truncate(a, 4)


class TestCellMembership:
    def test_golden_diagonal_cell(self):
        v = np.diag([3.0, 0.0, 0.0])
        inside = v.copy()
        inside[2, 2] = 2.0
        on_sphere = v.copy()
        on_sphere[2, 2] = 3.0
        assert cell_membership(inside, v, 1) == "inside"
        assert cell_membership(on_sphere, v, 1) == "boundary"

    def test_free_block_too_large_is_outside(self):
        v = np.diag([3.0, 0.0, 0.0])
        u = v.copy()
        u[1, 1] = 3.5
        assert cell_membership(u, v, 1) == "outside"

    def test_mixed_block_violation_is_outside(self):
        v = np.diag([3.0, 0.0, 0.0])
        u = v.copy()
        u[1, 0] = 1e-3
        assert cell_membership(u, v, 1) == "outside"

    def test_top_block_violation_is_outside(self):
        v = np.diag([3.0, 0.0, 0.0])
        u = v.copy()
        u[0, 0] = 3.1
        assert cell_membership(u, v, 1) == "outside"

    def test_cell_description(self):
        factors, cell = describe_cell(np.diag([3.0, 2.0, 0.0, 0.0]), 2)
        assert np.allclose(cell.aligned_diagonal, [3.0, 2.0])
        assert cell.free_shape == (2, 2)
        assert cell.radius == pytest.approx(2.0)
        assert np.allclose(factors.reconstruct(),
                           np.diag([3.0, 2.0, 0.0, 0.0]))

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            describe_cell(np.diag([3.0, 1.0, 0.0]), 1)
        with pytest.raises(ValueError):
            cell_membership(np.eye(3), np.diag([3.0, 1.0, 0.0]), 1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            cell_membership(np.eye(3), np.eye(2), 1)

    def test_truncation_never_lands_outside(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 9))
            u = rng.standard_normal((m, n))
            r = int(rng.integers(1, min(m, n) + 1))
            v = eckart_young_truncate(u, r)
            assert cell_membership(u, v, r, tol=1e-7) != "outside"

    @pytest.mark.parametrize("seed", [1988, 3829])
    def test_own_truncation_is_inside_at_default_tolerance(self, seed):
        # rank-3 truncations of 6 x 8 Gaussians whose singular frames
        # must be orthogonal to well below DEFAULT_TOL for the mixed
        # blocks to vanish
        a = np.random.default_rng(seed).standard_normal((6, 8))
        assert cell_membership(a, eckart_young_truncate(a, 3), 3) == "inside"

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(41)
        u = rng.standard_normal((4, 5))
        v = eckart_young_truncate(u, 2)
        outsider = v + 10.0 * rng.standard_normal((4, 5))
        q = random_orthogonal(4, rng)
        p = random_orthogonal(5, rng)
        for probe in (u, outsider):
            direct = cell_membership(probe, v, 2, tol=1e-8)
            rotated = cell_membership(q @ probe @ p, q @ v @ p, 2, tol=1e-8)
            assert rotated == direct

    def test_scaling_invariance(self):
        v = np.diag([3.0, 0.0, 0.0])
        u = v.copy()
        u[2, 2] = 2.0
        for c in (0.5, 2.5, 10.0):
            assert cell_membership(c * u, c * v, 1) == "inside"

    def test_full_rank_cell_is_a_point(self):
        # a full-rank target is its own nearest matrix only for itself
        rng = np.random.default_rng(43)
        v = rng.standard_normal((3, 2))
        assert cell_membership(v, v, 2) == "inside"
        assert cell_membership(v + 0.1, v, 2) == "outside"


class TestTolerance:
    V = np.diag([3.0, 2.0])
    U = np.diag([3.0, 1.0])

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_bad_tolerance(self, tol):
        # NaN compares false with everything, so it used to pass the rank
        # check and accept this rank-2 V as rank 1
        for call in (lambda: describe_cell(self.V, 1, tol),
                     lambda: cell_membership(self.U, self.V, 1, tol),
                     lambda: symmetric_frobenius_membership(
                         self.V, self.U, 1, tol)):
            with pytest.raises(ValueError,
                               match="tol must be finite and nonnegative"):
                call()

    def test_asymmetric_input_with_bad_tolerance_names_the_tolerance(self):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="tol must be finite"):
            symmetric_frobenius_membership(skew, self.U, 1, -1.0)

    def test_zero_tolerance_is_valid(self):
        v = np.diag([3.0, 0.0])
        u = np.diag([3.0, 2.0])
        assert describe_cell(v, 1, 0.0)[1].radius == 3.0
        assert cell_membership(u, v, 1, 0.0) == "inside"
        assert symmetric_frobenius_membership(v, u, 1, 0.0) == "inside"


class TestSymmetricFrobenius:
    def test_golden_cases(self):
        v = np.diag([1.0, 0.0, 0.0])
        assert symmetric_frobenius_membership(
            v, np.diag([1.0, 0.5, -0.5]), 1) == "inside"
        assert symmetric_frobenius_membership(
            v, np.diag([1.0, -1.0, 0.0]), 1) == "boundary"
        assert symmetric_frobenius_membership(
            v, np.diag([1.0, 1.5, 0.0]), 1) == "outside"

    def test_negative_eigenvalues_count_by_magnitude(self):
        rng = np.random.default_rng(53)
        q = random_orthogonal(3, rng)
        v = q @ np.diag([2.0, -1.0, 0.0]) @ q.T
        u = v + 0.5 * np.outer(q[:, 2], q[:, 2])
        assert symmetric_frobenius_membership(v, u, 2) == "inside"
        u = v - 1.4 * np.outer(q[:, 2], q[:, 2])
        assert symmetric_frobenius_membership(v, u, 2) == "outside"

    def test_rejects_asymmetric_input(self):
        v = np.diag([1.0, 0.0])
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            symmetric_frobenius_membership(skew, v, 1)
        with pytest.raises(ValueError):
            symmetric_frobenius_membership(v, skew, 1)

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            symmetric_frobenius_membership(np.diag([2.0, 1.0, 0.0]),
                                           np.eye(3), 1)

    def test_agrees_with_general_membership_on_symmetric_instances(self):
        rng = np.random.default_rng(59)
        seen = set()
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            r = int(rng.integers(1, dim))
            q = random_orthogonal(dim, rng)
            eigs = np.zeros(dim)
            eigs[:r] = np.sort(rng.uniform(1.0, 3.0, size=r))[::-1]
            eigs[:r] *= rng.choice([-1.0, 1.0], size=r)
            v = q @ np.diag(eigs) @ q.T
            v = (v + v.T) / 2.0
            bump = rng.uniform(-3.5, 3.5, size=dim - r)
            u = v + q[:, r:] @ np.diag(bump) @ q[:, r:].T
            u = (u + u.T) / 2.0
            sym = symmetric_frobenius_membership(v, u, r, tol=1e-7)
            general = cell_membership(u, v, r, tol=1e-7)
            assert sym == general
            seen.add(sym)
        assert {"inside", "outside"} <= seen

    def test_default_tolerance_is_tight(self):
        assert DEFAULT_TOL == 1e-9
