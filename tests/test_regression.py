"""Ridgeless regression: fits, bias/variance estimators, bounds, identities."""

from __future__ import annotations

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from convkernel import regression
from convkernel.kernels import (
    Architecture,
    ConvGeometry,
    FeatureTransform,
    GeometryKind,
    Padding,
    _check_symmetric_psd,
    feature_transforms,
)
from convkernel.regression import (
    PINV_RTOL,
    SUBSTITUTION_MAX,
    RegressionProblem,
    _apply_pinv,
    _lower_triangular_inverse,
    bias_conditional,
    bias_mc,
    estimate,
    excess_risk_mc,
    fit_ridgeless,
    misalignment,
    psd_sqrt,
    variance_mc,
)
from convkernel.rng import trial_rng, trials_per_chunk
from _oracles import dense, eigh_pinv_solve, variance_lower_bound
from _util import random_psd, random_unit_vector


def identity_problem(p=20, n=10, noise_var=0.01, seed=0):
    rng = np.random.default_rng(seed)
    return RegressionProblem(np.eye(p), random_unit_vector(rng, p), noise_var, n)


class TestProblemValidation:
    def test_rejects_non_psd_covariance(self):
        with pytest.raises(ValueError, match="PSD"):
            RegressionProblem(np.diag([1.0, -1.0]), np.ones(2), 0.0, 1)

    def test_rejects_underparameterized(self):
        with pytest.raises(ValueError, match="n_train"):
            RegressionProblem(np.eye(3), np.ones(3), 0.0, 3)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise_var"):
            RegressionProblem(np.eye(3), np.ones(3), -0.1, 2)

    @pytest.mark.parametrize("noise_var", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_noise(self, noise_var):
        # A NaN noise_var made variance_mc return nan with a RuntimeWarning.
        with pytest.raises(ValueError, match="noise_var must be finite"):
            RegressionProblem(np.eye(3), np.ones(3), noise_var, 2)

    @pytest.mark.parametrize("n_train", [2.5, 2.0, True, "2"])
    def test_rejects_non_integer_n_train(self, n_train):
        # 2.5 passed the range check and failed as a TypeError in the draws.
        with pytest.raises(ValueError, match="n_train must be an integer"):
            RegressionProblem(np.eye(3), np.ones(3), 0.0, n_train)

    def test_accepts_numpy_integer_n_train(self):
        assert RegressionProblem(np.eye(3), np.ones(3), 0.0, np.int64(2)).n_train == 2

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="covariance shape"):
            RegressionProblem(np.eye(4), np.ones(3), 0.0, 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_covariance(self, value):
        with pytest.raises(ValueError, match="covariance has non-finite entries"):
            RegressionProblem(np.diag([value, 1.0, 1.0]), np.ones(3), 0.0, 2)

    def test_rejects_covariance_whose_norm_overflows_without_warning(self):
        # Asymmetric and indefinite, but every entry is finite; only the
        # Frobenius norm, and with it both relative tolerances, overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="covariance is too large"):
                RegressionProblem(np.array([[1e200, 0.0], [5e199, -1e200]]), np.ones(2), 0.1, 1)

    def test_rejects_tiny_indefinite_covariance(self):
        # Every square underflows, so numpy's Frobenius norm alone is zero.
        with pytest.raises(ValueError, match="covariance is not PSD"):
            RegressionProblem(np.diag([1e-170, -1e-170, 1e-170]), np.ones(3), 0.1, 1)

    def test_leaves_the_callers_arrays_writeable(self):
        covariance, coef = np.eye(2), np.ones(2)
        problem = RegressionProblem(covariance, coef, 0.1, 1)
        assert covariance.flags.writeable and coef.flags.writeable
        assert not problem.covariance.flags.writeable and not problem.coef.flags.writeable
        covariance[0, 0] = coef[0] = 5.0
        assert_array_equal(problem.covariance, np.eye(2))
        assert_array_equal(problem.coef, np.ones(2))


class TestFitRidgeless:
    # fit_ridgeless returns the coefficients b; the interpolant predicts x @ b.
    def test_orthonormal_rows_identity_transform(self):
        p, n = 6, 3
        x = np.eye(p)[:n]
        y = np.array([2.0, -1.0, 0.5])
        fitted = fit_ridgeless(FeatureTransform(np.eye(p)), x, y)
        assert fitted.shape == (p,)
        assert_allclose(x @ fitted, y, atol=1e-12, rtol=0)
        # Prediction only sees the first n coordinates.
        probe = np.arange(p, dtype=float)
        assert_allclose(probe @ fitted, probe[:n] @ y, atol=1e-12, rtol=0)

    def test_coef_outer_product_recovers_coef_exactly(self):
        rng = np.random.default_rng(1)
        p, n = 7, 3
        coef = rng.standard_normal(p)
        x = rng.standard_normal((n, p))
        fitted = fit_ridgeless(FeatureTransform(np.outer(coef, coef)), x, x @ coef)
        probes = rng.standard_normal((5, p))
        assert_allclose(probes @ fitted, probes @ coef, atol=1e-10, rtol=0)

    def test_matches_dense_eigendecomposition_solve(self):
        rng = np.random.default_rng(2)
        p, n = 8, 4
        for _ in range(20):
            transform = random_psd(rng, p)
            x = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            fitted = fit_ridgeless(FeatureTransform(transform), x, y)
            kernel = x @ transform @ x.T
            w, q = np.linalg.eigh(kernel)
            keep = w > n * w.max() * 1e-12
            inverse = (q[:, keep] / w[keep]) @ q[:, keep].T
            assert_allclose(fitted, transform @ x.T @ inverse @ y, atol=1e-10, rtol=0)
            probes = rng.standard_normal((6, p))
            expected = probes @ transform @ x.T @ inverse @ y
            assert_allclose(probes @ fitted, expected, atol=1e-10, rtol=0)

    def test_interpolates_at_full_rank(self):
        rng = np.random.default_rng(3)
        p, n = 12, 5
        for _ in range(20):
            transform = random_psd(rng, p)
            x = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            fitted = fit_ridgeless(FeatureTransform(transform), x, y)
            assert_allclose(x @ fitted, y, atol=1e-8, rtol=0)

    def test_zero_kernel_gives_zero_weights(self):
        # Rows in the transform's null space: X T X^T is zero.
        transform = FeatureTransform(np.diag([0.0, 0.0, 0.0, 1.0, 1.0]))
        x = np.zeros((3, 5))
        x[:, :3] = 1.0
        weights = fit_ridgeless(transform, x, np.ones(3))
        assert_array_equal(weights, np.zeros(5))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 7.3e4])
    def test_scale_invariance_of_predictions(self, scale):
        rng = np.random.default_rng(4)
        p, n = 9, 4
        transform = random_psd(rng, p)
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        base = fit_ridgeless(FeatureTransform(transform), x, y)
        scaled = fit_ridgeless(FeatureTransform(scale * transform), x, y)
        probes = rng.standard_normal((8, p))
        assert_allclose(probes @ scaled, probes @ base, atol=1e-10, rtol=0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            fit_ridgeless(FeatureTransform(np.eye(3)), np.ones((2, 4)), np.ones(2))
        with pytest.raises(ValueError, match="y_train"):
            fit_ridgeless(FeatureTransform(np.eye(4)), np.ones((2, 4)), np.ones(3))

    @pytest.mark.parametrize("arch", [Architecture.FLATTENING, Architecture.POOLING])
    def test_factored_transform_fits_as_its_dense_matrix(self, arch):
        # A per-axis power fits as its Kronecker product would.
        rng = np.random.default_rng(33)
        (ft,) = feature_transforms([6], ConvGeometry(GeometryKind.TWO_D, 49), Padding.ZERO, arch)
        assert ft.power == 2
        x, y = rng.standard_normal((3, 5, 49)), rng.standard_normal((3, 5))
        expected = fit_ridgeless(FeatureTransform(dense(ft)), x, y)
        assert_allclose(fit_ridgeless(ft, x, y), expected, rtol=0,
                        atol=1e-10 * np.max(np.abs(expected)))


KERNEL_KINDS = ("certified", "ill-conditioned", "rank-deficient", "zero")


def random_kernel(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    """An n x n PSD kernel at a random scale: well conditioned, with
    eigenvalues spread down to where the certificate and the eigh cutoff
    fall, a Gram of fewer than n columns, or zero."""
    scale = 10.0 ** rng.uniform(-3, 3)
    if kind == "certified":
        return scale * random_psd(rng, n)
    if kind == "ill-conditioned":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spread = rng.uniform(8, 16)
        eigenvalues = 10.0 ** -np.append(spread, rng.uniform(0, spread, n - 1))
        return scale * (q * eigenvalues) @ q.T
    if kind == "rank-deficient":
        x = rng.standard_normal((n, int(rng.integers(0, n))))
        return scale * x @ x.T
    return np.zeros((n, n))


def spied_pinv(kernel: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """_apply_pinv's (solution, kept), and the stack of kernels it sent to
    the eigendecomposition: an empty stack when it did not call eigh."""
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        solution, kept = _apply_pinv(kernel, rhs)
    if not eigh.called:
        return solution, kept, np.empty((0,) + kernel.shape[-2:])
    (sent,), _ = eigh.call_args
    return solution, kept, sent


class TestApplyPinv:
    def test_matrix_rhs_matches_column_by_column(self):
        # gemm and gemv may round the last bit differently, so columns agree
        # to a few units in the last place of the largest entry, not bit for bit.
        rng = np.random.default_rng(30)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            x = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            rhs = rng.standard_normal((n, int(rng.integers(1, 8))))
            solution, rank = _apply_pinv(x @ x.T, rhs)
            columns = [_apply_pinv(x @ x.T, column) for column in rhs.T]
            expected = np.stack([c for c, _ in columns], axis=1)
            assert {r for _, r in columns} == {rank}
            scale = np.max(np.abs(expected))
            assert_allclose(solution, expected, rtol=0, atol=4 * np.finfo(float).eps * scale)


    def test_stack_matches_each_kernel_alone(self):
        # Mixed ranks, a zero kernel, vector and matrix right-hand sides.
        rng = np.random.default_rng(31)
        n, p, stack = 6, 9, 12
        for columns in ((), (4,)):
            x = rng.standard_normal((stack, n, p))
            ranks = rng.integers(0, p + 1, stack)
            transforms = [random_psd(rng, p) * (np.arange(p) < r) for r in ranks]
            kernels = np.stack([xi @ t @ xi.T for xi, t in zip(x, transforms)])
            kernels[3] = 0.0
            rhs = rng.standard_normal((stack, n) + columns)
            solution, full = _apply_pinv(kernels, rhs)
            alone = [_apply_pinv(k, r) for k, r in zip(kernels, rhs)]
            assert solution.shape == rhs.shape
            assert_array_equal(solution, np.stack([a for a, _ in alone]))
            assert full == sum(rank == n for _, rank in alone) < stack
            # Dropped terms divide by inf, and x / inf is -0.0 for x < 0.
            assert_array_equal(solution[3], 0.0)
            assert not np.signbit(solution[3]).any()

    def test_kept_is_below_leading_dimension_exactly_on_a_rank_drop(self):
        x = np.eye(4)[:3]
        assert _apply_pinv(x @ x.T, np.ones(3))[1] == 3
        assert _apply_pinv(np.diag([1.0, 1.0, 0.0]), np.ones(3))[1] == 2
        stack = np.stack([np.eye(3), np.eye(3)])
        assert _apply_pinv(stack, np.ones((2, 3)))[1] == 2
        stack[1, 2, 2] = 0.0
        assert _apply_pinv(stack, np.ones((2, 3)))[1] == 1

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(1, 8),
           kinds=st.lists(st.sampled_from(KERNEL_KINDS), min_size=1, max_size=6),
           columns=st.sampled_from(((), (1,), (3,))),
           seed=st.integers(0, 2**32 - 1))
    def test_each_kernel_matches_the_eigh_oracle_and_itself_alone(self, n, kinds, columns,
                                                                   seed):
        rng = np.random.default_rng(seed)
        kernels = np.stack([random_kernel(rng, kind, n) for kind in kinds])
        rhs = rng.standard_normal((len(kinds), n) + columns)
        solution, full = _apply_pinv(kernels, rhs)
        alone = [spied_pinv(k, r) for k, r in zip(kernels, rhs)]
        assert_array_equal(solution, np.stack([a for a, _, _ in alone]))
        assert full == sum(rank == n for _, rank, _ in alone)
        oracle_ranks = []
        for kernel, column, (single, rank, sent) in zip(kernels, rhs, alone):
            expected, oracle_rank = eigh_pinv_solve(kernel, column)
            oracle_ranks.append(oracle_rank)
            assert rank == oracle_rank
            if len(sent):
                assert_array_equal(single, expected)
            else:
                # Both solves are backward stable, so they differ by about
                # the condition number times the unit roundoff.
                eigenvalues = np.linalg.eigvalsh(kernel)
                scale = 16 * n * np.finfo(float).eps * eigenvalues[-1] / eigenvalues[0]
                assert np.linalg.norm(single - expected) <= scale * np.linalg.norm(expected)
        # perfbench counts a rank drop where kept < kernel.shape[0].
        assert (full < len(kinds)) == (min(oracle_ranks) < n)

    @pytest.mark.parametrize("factor, certified", [(1.1, True), (0.9, False)])
    def test_kernels_either_side_of_the_certificate(self, factor, certified):
        # For diag(1, eps) the certificate 2 n PINV_RTOL tr(K) ||L^-1||_F^2 < 1
        # reads 4 PINV_RTOL (2 + eps + 1/eps) < 1, which holds for eps above
        # about 4 PINV_RTOL.  Both sides keep full rank: eigh's cutoff is
        # 2 PINV_RTOL.
        eps = factor * 4 * PINV_RTOL
        rhs = np.array([1.0, 2.0])
        solution, rank, sent = spied_pinv(np.diag([1.0, eps]), rhs)
        assert len(sent) == (not certified)
        assert rank == 2
        assert_allclose(solution, [1.0, 2.0 / eps], rtol=1e-13)

    def test_only_the_uncertified_kernels_of_a_stack_take_eigh(self):
        # A zero kernel fails the batched factorization; its stackmates are
        # still factored one by one and stay off the eigendecomposition.
        kernels = np.stack([np.diag([1.0, 4.4 * PINV_RTOL]), np.zeros((2, 2)),
                            np.diag([1.0, 3.6 * PINV_RTOL]), np.eye(2)])
        solution, full, sent = spied_pinv(kernels, np.ones((4, 2)))
        assert_array_equal(sent, kernels[[1, 2]])
        assert full == 3
        assert_array_equal(solution[1], 0.0)

    def test_an_all_certified_stack_never_calls_eigh(self):
        rng = np.random.default_rng(34)
        kernels = np.stack([random_kernel(rng, "certified", 10) for _ in range(40)])
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            solution, full = _apply_pinv(kernels, rng.standard_normal((40, 10, 3)))
        assert eigh.call_count == 0
        assert full == 40
        assert np.isfinite(solution).all()

    @pytest.mark.parametrize("case", ["nan factor", "zero diagonal", "overflowing inverse"])
    def test_a_non_finite_factor_inverse_is_not_certified(self, case):
        # Cholesky never returns these factors for the kernel given, so the
        # factor is put in its place: the certificate must refuse it and
        # send the kernel to the eigendecomposition.
        factor = {"nan factor": np.full((2, 2), np.nan),
                  "zero diagonal": np.array([[1.0, 0.0], [1.0, 0.0]]),
                  "overflowing inverse": np.array([[1e-200, 0.0], [1.0, 1e-200]])}[case]
        assert not np.isfinite(_lower_triangular_inverse(factor[None])).all()
        kernels = np.stack([np.eye(2), 2 * np.eye(2)])
        factors = np.stack([factor, np.sqrt(2) * np.eye(2)])
        with mock.patch.object(regression, "cholesky_or_nan", return_value=factors):
            solution, full, sent = spied_pinv(kernels, np.ones((2, 2)))
        assert_array_equal(sent, kernels[:1])
        assert full == 2
        assert_allclose(solution, [[1.0, 1.0], [0.5, 0.5]], rtol=1e-15)


def random_factors(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """k lower Cholesky factors of random well-conditioned n x n kernels."""
    return np.linalg.cholesky(np.stack([random_kernel(rng, "certified", n) for _ in range(k)]))


class TestLowerTriangularInverse:
    @pytest.mark.parametrize("n", [0, 1, 2, 10, SUBSTITUTION_MAX, SUBSTITUTION_MAX + 1, 33, 100])
    def test_matches_the_general_inverse(self, n):
        # Substitution and the general inverse both have error of order
        # n eps cond(L) relative to the inverse (Higham, ch. 14).
        rng = np.random.default_rng(35)
        factors = random_factors(rng, 5, n)
        inverses = _lower_triangular_inverse(factors)
        assert inverses.shape == factors.shape
        assert_array_equal(np.triu(inverses, 1), 0.0)
        for factor, inverse in zip(factors, inverses):
            expected = np.linalg.inv(factor)
            condition = np.linalg.cond(factor) if n else 1.0
            bound = 4 * n * np.finfo(float).eps * condition * np.linalg.norm(expected)
            assert np.linalg.norm(inverse - expected) <= bound

    @pytest.mark.parametrize("n", [10, 33])
    def test_each_inverse_is_its_own_alone_or_in_a_stack(self, n):
        rng = np.random.default_rng(36)
        factors = random_factors(rng, 40, n)
        factors[7] = np.nan
        stacked = _lower_triangular_inverse(factors)
        for factor, inverse in zip(factors, stacked):
            assert_array_equal(inverse, _lower_triangular_inverse(factor[None])[0])
        assert_array_equal(_lower_triangular_inverse(factors[::3]), stacked[::3])

    def test_reads_only_the_lower_triangle(self):
        factors = random_factors(np.random.default_rng(37), 3, 20)
        scribbled = factors + np.triu(np.full((20, 20), np.nan), 1)
        assert_array_equal(_lower_triangular_inverse(scribbled),
                           _lower_triangular_inverse(factors))


class TestStackedFits:
    # A leading trial axis fits each trial as the 2-D call would.
    def test_fit_ridgeless_and_bias_conditional_per_trial(self):
        rng = np.random.default_rng(32)
        p, n, trials = 10, 4, 7
        kept = np.arange(p) < 3
        transform = FeatureTransform(random_psd(rng, p) * np.outer(kept, kept))
        coef, covariance = rng.standard_normal(p), random_psd(rng, p)
        problem = RegressionProblem(covariance, coef, 0.0, n)
        x = rng.standard_normal((trials, n, p))
        y = rng.standard_normal((trials, n))
        weights = fit_ridgeless(transform, x, y)
        assert_array_equal(weights, np.stack([fit_ridgeless(transform, *t) for t in zip(x, y)]))
        values = bias_conditional(transform, problem, x)
        assert values.shape == (trials,)
        assert_array_equal(values, [bias_conditional(transform, problem, xi) for xi in x])

    def test_fit_ridgeless_rejects_mismatched_trial_axes(self):
        with pytest.raises(ValueError, match="y_train"):
            fit_ridgeless(FeatureTransform(np.eye(4)), np.ones((3, 2, 4)), np.ones((2, 2)))


class TestBiasConditional:
    def test_zero_at_coef_outer_product(self):
        rng = np.random.default_rng(5)
        p, n = 10, 4
        coef = rng.standard_normal(p)
        covariance = random_psd(rng, p)
        x = rng.standard_normal((n, p))
        problem = RegressionProblem(covariance, coef, 0.0, n)
        value = bias_conditional(FeatureTransform(np.outer(coef, coef)), problem, x)
        bound = 1e-10 * (coef @ coef) * np.linalg.norm(covariance, 2)
        assert 0.0 <= value <= bound

    def test_orthonormal_rows_identity(self):
        rng = np.random.default_rng(6)
        p, n = 8, 3
        q, _ = np.linalg.qr(rng.standard_normal((p, n)))
        x = q.T
        coef = rng.standard_normal(p)
        problem = RegressionProblem(np.eye(p), coef, 0.0, n)
        value = bias_conditional(FeatureTransform(np.eye(p)), problem, x)
        expected = float(np.sum((coef - x.T @ (x @ coef)) ** 2))
        assert_allclose(value, expected, atol=1e-12, rtol=0)

    def test_rank_one_update_identity(self):
        rng = np.random.default_rng(7)
        p, n = 12, 6
        for _ in range(20):
            transform = random_psd(rng, p)
            coef = rng.standard_normal(p)
            covariance = random_psd(rng, p)
            x = rng.standard_normal((n, p))
            u = x @ coef
            kernel = x @ transform @ x.T
            shrink = u @ np.linalg.solve(kernel, u)
            problem = RegressionProblem(covariance, coef, 0.0, n)
            base = bias_conditional(FeatureTransform(transform), problem, x)
            updated = bias_conditional(FeatureTransform(transform + np.outer(coef, coef)),
                                       problem, x)
            assert_allclose(updated, base / (1.0 + shrink) ** 2, rtol=1e-8, atol=0)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        p, n = 9, 4
        for _ in range(30):
            transform = FeatureTransform(random_psd(rng, p))
            coef = rng.standard_normal(p)
            problem = RegressionProblem(random_psd(rng, p), coef, 0.0, n)
            value = bias_conditional(transform, problem, rng.standard_normal((n, p)))
            assert value >= 0.0

    def test_rejects_shape_mismatch(self):
        problem = RegressionProblem(np.eye(4), np.ones(4), 0.0, 2)
        with pytest.raises(ValueError, match="shapes"):
            bias_conditional(FeatureTransform(np.eye(3)), problem, np.ones((2, 4)))
        # A design as wide as the transform but not as the problem.
        with pytest.raises(ValueError):
            bias_conditional(FeatureTransform(np.eye(3)), problem, np.ones((2, 3)))

    @pytest.mark.parametrize("covariance", [
        -np.eye(4),
        np.random.default_rng(35).standard_normal((4, 4)),
        np.full((4, 4), np.nan),
    ])
    def test_covariance_is_checked_before_the_bias(self, covariance):
        # The bias reads its covariance only from a checked problem; given
        # these directly it returned 0.0, 0.0 and nan.
        with pytest.raises(ValueError, match="covariance"):
            RegressionProblem(covariance, np.ones(4), 0.0, 2)


class TestBiasMC:
    def test_zero_at_coef_outer_product(self):
        problem = identity_problem()
        estimate = bias_mc([FeatureTransform(np.outer(problem.coef, problem.coef))],
                           problem, trials=50, seed=9)
        assert estimate.mean[0] <= 1e-12

    def test_identity_transform_projects_onto_random_subspace(self):
        # With identity transform and covariance, the mean predictor projects
        # onto the row space, leaving (p - n)/p of the coef energy on average.
        problem = identity_problem(p=20, n=10, noise_var=0.0)
        estimate = bias_mc([FeatureTransform(np.eye(20))], problem, trials=500, seed=10)
        assert abs(estimate.mean[0] - 0.5) <= 3.0 * estimate.std_error[0]

    @pytest.mark.parametrize("blend", [0.25, 0.5, 1.0])
    def test_blending_toward_coef_never_hurts(self, blend):
        rng = np.random.default_rng(11)
        p = 12
        problem = RegressionProblem(random_psd(rng, p), random_unit_vector(rng, p), 0.0, 5)
        transform = random_psd(rng, p)
        blended = (1.0 - blend) * transform + blend * np.outer(problem.coef, problem.coef)
        base = bias_mc([FeatureTransform(transform)], problem, trials=80, seed=12)
        better = bias_mc([FeatureTransform(blended)], problem, trials=80, seed=12)
        assert better.mean[0] <= base.mean[0] + 1e-12

    def test_deterministic_per_seed(self):
        problem = identity_problem()
        identity = FeatureTransform(np.eye(20))
        a = bias_mc([identity], problem, trials=40, seed=13)
        b = bias_mc([identity], problem, trials=40, seed=13)
        c = bias_mc([identity], problem, trials=40, seed=14)
        assert a == b
        assert a.mean != c.mean

    def test_single_trial_has_zero_std_error(self):
        problem = identity_problem()
        estimate = bias_mc([FeatureTransform(np.eye(20))], problem, trials=1, seed=15)
        assert estimate.std_error == (0.0,)


class TestVarianceMC:
    def test_attains_bound_at_inverse_covariance(self):
        rng = np.random.default_rng(16)
        p, n = 20, 10
        covariance = random_psd(rng, p)
        problem = RegressionProblem(covariance, random_unit_vector(rng, p), 0.01, n)
        estimate = variance_mc([FeatureTransform(np.linalg.inv(covariance))], problem,
                               trials=600, seed=17)
        bound = variance_lower_bound(0.01, n, p)
        assert abs(estimate.mean[0] - bound) <= 3.0 * estimate.std_error[0]

    def test_zero_noise_gives_zero(self):
        problem = identity_problem(noise_var=0.0)
        estimate = variance_mc([FeatureTransform(np.eye(20))], problem, trials=20, seed=18)
        assert estimate.mean == (0.0,)
        assert estimate.std_error == (0.0,)

    def test_spiked_transform_exceeds_bound(self):
        problem = identity_problem(noise_var=0.01)
        spiked = np.diag(np.r_[np.ones(19), 100.0])
        estimate = variance_mc([FeatureTransform(spiked)], problem, trials=600, seed=19)
        bound = variance_lower_bound(0.01, 10, 20)
        assert estimate.mean[0] > bound + 3.0 * estimate.std_error[0]

    def test_scale_invariance_on_matched_seeds(self):
        problem = identity_problem()
        rng = np.random.default_rng(20)
        transform = random_psd(rng, 20)
        a = variance_mc([FeatureTransform(transform)], problem, trials=50, seed=21)
        b = variance_mc([FeatureTransform(1e3 * transform)], problem, trials=50, seed=21)
        assert_allclose(b.mean, a.mean, rtol=1e-10, atol=0)

    def test_deterministic_per_seed(self):
        problem = identity_problem()
        identity = FeatureTransform(np.eye(20))
        a = variance_mc([identity], problem, trials=30, seed=22)
        b = variance_mc([identity], problem, trials=30, seed=22)
        assert a == b


def trace_formula_variance(transform, problem, trials, seed):
    """Per-trial noise_var * tr(G^+^2 Z S^2 Z^T), G = Z S Z^T, in the eigenbasis
    of G, plus the largest ratio of kept Gram eigenvalues over the trials."""
    sqrt_cov = psd_sqrt(problem.covariance)
    conjugated = sqrt_cov @ transform @ sqrt_cov
    conjugated = (conjugated + conjugated.T) / 2.0
    conjugated_sq = conjugated @ conjugated
    values, condition = np.zeros(trials), 1.0
    for trial in range(trials):
        z = trial_rng(seed, trial).standard_normal((problem.n_train, problem.p))
        gram = z @ conjugated @ z.T
        eigenvalues, eigenvectors = np.linalg.eigh((gram + gram.T) / 2.0)
        cutoff = problem.n_train * np.max(eigenvalues) * PINV_RTOL
        keep = eigenvalues > max(cutoff, 0.0)
        if keep.any():
            basis, kept = eigenvectors[:, keep], eigenvalues[keep]
            rotated = basis.T @ (z @ conjugated_sq @ z.T) @ basis
            values[trial] = problem.noise_var * np.sum(np.diagonal(rotated) / kept**2)
            condition = max(condition, kept.max() / kept.min())
    return values, condition


class TestVarianceTraceOracle:
    # Both forms lose about eps * cond(G) relative accuracy: against 60-digit
    # arithmetic, each was off by about 1e-8 at cond(G) = 2e8, which a square
    # Gaussian Z S Z^T (rank(S) = n) reaches now and then.  So the 1e-9
    # agreement is asserted for Grams with cond(G) <= 1e6.
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(p=st.integers(2, 12), data=st.data())
    def test_matches_trace_formula(self, p, data):
        n = data.draw(st.integers(1, p - 1), label="n")
        # Rank 0 is the zero transform, which FeatureTransform rejects.
        rank = data.draw(st.integers(1, p), label="rank")
        trials = data.draw(st.integers(1, 12), label="trials")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
        transform = (basis[:, :rank] * rng.uniform(0.5, 2.0, rank)) @ basis[:, :rank].T
        transform = (transform + transform.T) / 2.0
        problem = RegressionProblem(random_psd(rng, p), random_unit_vector(rng, p),
                                    float(rng.uniform(0.01, 2.0)), n)
        values, condition = trace_formula_variance(transform, problem, trials, seed)
        assume(condition <= 1e6)
        result = variance_mc([FeatureTransform(transform)], problem, trials=trials,
                             seed=seed)
        expected = estimate(values[None])
        assert_allclose(result.mean, expected.mean, rtol=1e-9, atol=0)
        assert_allclose(result.std_error, expected.std_error, rtol=1e-9, atol=0)


def oracle_pinv(kernel, rhs):
    """The single-kernel pseudo-inverse solve, as the per-trial loop ran it."""
    kernel = (kernel + kernel.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(kernel)
    cutoff = kernel.shape[0] * float(np.max(eigenvalues, initial=0.0)) * PINV_RTOL
    keep = eigenvalues > max(cutoff, 0.0)
    if not np.any(keep):
        return np.zeros_like(rhs, dtype=float), 1.0
    basis = eigenvectors[:, keep]
    kept = eigenvalues[keep].reshape((-1,) + (1,) * (np.ndim(rhs) - 1))
    return basis @ ((basis.T @ rhs) / kept), float(kept.max() / kept.min())


def oracle_fit(transform, x_train, y_train):
    dual_weights, condition = oracle_pinv(x_train @ transform @ x_train.T, y_train)
    return x_train.T @ dual_weights, condition


def oracle_bias_trial(transform, problem, rng):
    x_train = rng.standard_normal((problem.n_train, problem.p)) @ problem.covariance_sqrt
    weights, condition = oracle_fit(transform, x_train, x_train @ problem.coef)
    residual = problem.coef - transform @ weights
    return max(float(residual @ problem.covariance @ residual), 0.0), condition


def oracle_variance_trial(transform, problem, rng):
    sqrt_cov = problem.covariance_sqrt
    conjugated = sqrt_cov @ transform @ sqrt_cov
    conjugated = (conjugated + conjugated.T) / 2.0
    z = rng.standard_normal((problem.n_train, problem.p))
    zs = z @ conjugated
    solution, condition = oracle_pinv(zs @ z.T, zs)
    return problem.noise_var * float(np.sum(solution**2)), condition


def oracle_risk_trial(transform, problem, rng, test_points):
    sqrt_cov = problem.covariance_sqrt
    x_train = rng.standard_normal((problem.n_train, problem.p)) @ sqrt_cov
    noise = np.sqrt(problem.noise_var) * rng.standard_normal(problem.n_train)
    weights, condition = oracle_fit(transform, x_train, x_train @ problem.coef + noise)
    x_test = rng.standard_normal((test_points, problem.p)) @ sqrt_cov
    errors = x_test @ problem.coef - x_test @ (transform @ weights)
    return float(np.mean(errors**2)), condition


def oracle_estimate(name, transform, problem, trials, seed, test_points):
    """Per-trial loop over trial_rng streams; also the largest Gram condition."""
    values, condition = np.empty(trials), 1.0
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        if name == "bias":
            values[trial], cond = oracle_bias_trial(transform, problem, rng)
        elif name == "variance":
            values[trial], cond = oracle_variance_trial(transform, problem, rng)
        else:
            values[trial], cond = oracle_risk_trial(transform, problem, rng, test_points)
        condition = max(condition, cond)
    return estimate(values[None]), condition


class TestPerTrialOracle:
    # The estimators run trials in chunks of stacked draws, each chunk drawn
    # once for all transforms; the per-trial loop over one transform is the
    # reference.  Chunk counts are taken from the draw shapes.
    P, N, TEST_POINTS = 12, 5, 256

    def problem(self, noise_var=0.3):
        rng = np.random.default_rng(40)
        return RegressionProblem(random_psd(rng, self.P), random_unit_vector(rng, self.P),
                                 noise_var, self.N)

    def transform(self, rank):
        rng = np.random.default_rng(41)
        basis, _ = np.linalg.qr(rng.standard_normal((self.P, self.P)))
        transform = (basis[:, :rank] * rng.uniform(0.5, 2.0, rank)) @ basis[:, :rank].T
        return (transform + transform.T) / 2.0

    def run(self, name, ranks, problem, trials, test_points=TEST_POINTS):
        estimator = {"bias": bias_mc, "variance": variance_mc, "risk": excess_risk_mc}[name]
        extra = {"test_points": test_points} if name == "risk" else {}

        def call(transforms):
            return estimator(transforms, problem, trials=trials, seed=7, **extra)

        transforms = [FeatureTransform(self.transform(rank)) for rank in ranks]
        estimate = call(transforms)
        assert estimate.trials == trials
        for k, transform in enumerate(transforms):
            expected, condition = oracle_estimate(name, dense(transform), problem, trials, 7,
                                                  test_points)
            assert condition <= 1e6
            assert_allclose(estimate.mean[k], expected.mean[0], rtol=1e-12, atol=0)
            assert_allclose(estimate.std_error[k], expected.std_error[0], rtol=1e-12, atol=0)
        if len(transforms) > 1:
            # Each transform's estimate is bit for bit its estimate alone,
            # whatever other transforms share the call, in whatever order.
            for k, transform in enumerate(transforms):
                single = call([transform])
                assert single.mean == estimate.mean[k:k + 1]
                assert single.std_error == estimate.std_error[k:k + 1]
            backwards = call(transforms[::-1])
            assert backwards.mean == estimate.mean[::-1]
            assert backwards.std_error == estimate.std_error[::-1]
        return estimate

    def chunk(self, name, test_points=TEST_POINTS):
        shapes = ((self.N, self.P),)
        if name == "risk":
            shapes += ((self.N,), (test_points, self.P))
        return trials_per_chunk(shapes)

    @pytest.mark.parametrize("name", ["bias", "variance", "risk"])
    # 3 < n: every Gram drops rank; 12 = p is full rank.  The last entry
    # evaluates all three ranks on the same draws in one call.
    @pytest.mark.parametrize("ranks", [pytest.param((3,), id="3"), pytest.param((8,), id="8"),
                                       pytest.param((12,), id="12"),
                                       pytest.param((3, 12, 8), id="3+12+8")])
    @pytest.mark.parametrize("chunks", ["one trial", "one chunk", "three chunks plus one"])
    def test_matches_per_trial_loop(self, name, ranks, chunks):
        chunk = self.chunk(name)
        assert chunk > 1
        trials = {"one trial": 1, "one chunk": chunk, "three chunks plus one": 3 * chunk + 1}
        self.run(name, ranks, self.problem(), trials[chunks])

    @pytest.mark.parametrize("name", ["variance", "risk"])
    def test_zero_noise(self, name):
        estimate = self.run(name, (8,), self.problem(noise_var=0.0),
                            3 * self.chunk(name) + 1)
        if name == "variance":
            assert estimate.mean == (0.0,)
            assert estimate.std_error == (0.0,)

    def test_estimates_compare_and_hash_by_value(self):
        problem = self.problem()
        transforms = [FeatureTransform(self.transform(rank)) for rank in (3, 12)]
        a = bias_mc(transforms, problem, trials=5, seed=7)
        b = bias_mc(transforms, problem, trials=5, seed=7)
        assert a == b
        assert hash(a) == hash(b)
        assert a != bias_mc(transforms, problem, trials=5, seed=8)
        assert all(type(value) is float for value in a.mean + a.std_error)
        with pytest.raises(TypeError):
            a.mean[0] = 0.0

    def test_one_trial_per_chunk_with_many_test_points(self):
        test_points = 700
        assert self.chunk("risk", test_points) == 1
        self.run("risk", (12,), self.problem(), 4, test_points)


class TestMonteCarloMemory:
    # The chunked draws keep the estimators' working set small; a draw
    # budget of 32 MB peaks at 61 MB and 69 MB here.
    @staticmethod
    def peak_mb(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_variance_sweep_size(self):
        problem = identity_problem(p=20, n=10)
        identity = FeatureTransform(np.eye(20))
        assert self.peak_mb(lambda: variance_mc([identity], problem, trials=6000,
                                                     seed=0)) < 2.0

    def test_entry_check_holds_two_temporaries(self):
        # Beyond the matrix itself, the certified check holds the scaled,
        # shifted copy and its Cholesky factor (LAPACK's working copy is not
        # traced), the price of skipping eigvalsh; a third p-by-p copy fails.
        transform = np.eye(784)
        peak = self.peak_mb(lambda: _check_symmetric_psd(transform, "transform"))
        assert peak <= 2.2 * transform.nbytes / 2**20

    def test_risk_on_image_size(self):
        # The 784 x 784 transform (4.7 MB) is built and checked once, before
        # the estimator runs, which holds no p x p temporary; one trial's
        # draws take 1.7 MB.
        problem = RegressionProblem(np.eye(784), np.ones(784), 0.01, 10)
        transform = FeatureTransform(np.eye(784))
        peak = self.peak_mb(lambda: excess_risk_mc([transform], problem, trials=20,
                                                          seed=0, test_points=256))
        assert peak < 6.0


@pytest.mark.parametrize("estimator", [bias_mc, variance_mc, excess_risk_mc])
@pytest.mark.parametrize("trials", [0, -3])
def test_estimators_reject_bad_trials(estimator, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        extra = {"test_points": 256} if estimator is excess_risk_mc else {}
        estimator([FeatureTransform(np.eye(20))], identity_problem(), trials=trials, seed=0,
                  **extra)


class TestVarianceLowerBound:
    def test_reference_value(self):
        assert_allclose(variance_lower_bound(0.01, 10, 20), 0.01 * 10 / 9, rtol=1e-15)

    def test_zero_noise(self):
        assert variance_lower_bound(0.0, 10, 20) == 0.0

    def test_small_case(self):
        assert variance_lower_bound(1.0, 1, 3) == 1.0

    def test_diverging_regime_rejected(self):
        with pytest.raises(ValueError, match="p > n"):
            variance_lower_bound(0.01, 10, 11)


class TestExcessRiskMC:
    def test_noiseless_aligned_transform_has_zero_risk(self):
        problem = identity_problem(noise_var=0.0)
        transform = FeatureTransform(np.outer(problem.coef, problem.coef))
        estimate = excess_risk_mc([transform], problem, trials=20, seed=23, test_points=50)
        assert estimate.mean[0] <= 1e-20

    def test_identity_reference_value(self):
        problem = identity_problem(noise_var=0.01)
        estimate = excess_risk_mc([FeatureTransform(np.eye(20))], problem, trials=400,
                                  seed=24, test_points=256)
        expected = 0.5 + variance_lower_bound(0.01, 10, 20)
        assert abs(estimate.mean[0] - expected) <= 4.0 * estimate.std_error[0]

    def test_decomposes_into_bias_plus_variance(self):
        rng = np.random.default_rng(25)
        p, n = 14, 6
        for trial in range(3):
            problem = RegressionProblem(
                random_psd(rng, p), random_unit_vector(rng, p), 0.05, n
            )
            transform = FeatureTransform(random_psd(rng, p))
            seed = 100 + trial
            bias = bias_mc([transform], problem, trials=400, seed=seed)
            variance = variance_mc([transform], problem, trials=400, seed=seed + 1)
            risk = excess_risk_mc([transform], problem, trials=400, seed=seed + 2,
                                  test_points=256)
            gap = abs(risk.mean[0] - bias.mean[0] - variance.mean[0])
            assert gap <= 3.0 * (bias.std_error[0] + variance.std_error[0] + risk.std_error[0])


class TestMisalignment:
    def test_zero_at_coef_outer_product(self):
        rng = np.random.default_rng(26)
        coef = rng.standard_normal(6)
        assert misalignment(FeatureTransform(np.outer(coef, coef)), coef) <= 1e-12

    def test_one_when_coef_in_null_space(self):
        transform = FeatureTransform(np.diag([0.0, 1.0, 1.0]))
        coef = np.array([1.0, 0.0, 0.0])
        assert misalignment(transform, coef) == 1.0

    def test_identity_value(self):
        assert_allclose(misalignment(FeatureTransform(np.eye(4)), np.array([0.0, 2.0, 0.0, 0.0])),
                        0.75, atol=1e-15)

    def test_scale_invariant_and_in_range(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            transform = random_psd(rng, 7)
            coef = rng.standard_normal(7)
            value = misalignment(FeatureTransform(transform), coef)
            assert 0.0 <= value <= 1.0
            assert_allclose(misalignment(FeatureTransform(37.0 * transform), coef), value,
                            atol=1e-12)

    @pytest.mark.parametrize("arch", [Architecture.FLATTENING, Architecture.POOLING])
    def test_factored_matches_dense_formula(self, arch):
        # The unit Frobenius norm of T is what lets misalignment skip dividing by it.
        coef = np.random.default_rng(34).standard_normal(36)
        unit = coef / np.linalg.norm(coef)
        for depth in (0, 1, 3, 20):
            (ft,) = feature_transforms([depth], ConvGeometry(GeometryKind.TWO_D, 36),
                                       Padding.ZERO, arch)
            matrix = dense(ft)
            expected = 1.0 - (unit @ matrix @ unit / np.linalg.norm(matrix)) ** 2
            assert_allclose(misalignment(ft, coef), expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("scale", [1e-161, 1e-170])
    def test_tiny_coef_matches_its_unit_direction(self, scale):
        # The squares of these entries lose bits (1e-161) or underflow to
        # zero (1e-170) in an unscaled norm.
        (ft,) = feature_transforms([3], ConvGeometry(GeometryKind.ONE_D, 6), Padding.ZERO,
                                   Architecture.POOLING)
        coef = np.linspace(1.0, 2.0, 6)
        assert_allclose(misalignment(ft, scale * coef), misalignment(ft, coef),
                        rtol=1e-14, atol=0)

    def test_rejects_zero_inputs(self):
        with pytest.raises(ValueError, match="coef"):
            misalignment(FeatureTransform(np.eye(3)), np.zeros(3))
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                misalignment(FeatureTransform(np.eye(3)), np.array([1.0, value, 0.0]))
        # A zero transform fails where it is built.
        with pytest.raises(ValueError, match="zero"):
            FeatureTransform(np.zeros((3, 3)))


class TestPsdSqrt:
    def test_squares_back(self):
        rng = np.random.default_rng(28)
        matrix = random_psd(rng, 8)
        root = psd_sqrt(matrix)
        assert_allclose(root @ root, matrix, atol=1e-12, rtol=0)
        assert_allclose(root, root.T, atol=0, rtol=0)

    def test_clamps_tiny_negative_eigenvalues(self):
        matrix = np.diag([1.0, -1e-14])
        root = psd_sqrt(matrix)
        assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-12, rtol=0)
