"""LOBPCG: correctness against scipy, convergence behaviour."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.ooc import ci_hamiltonian, lobpcg


def diag_precond(h):
    d = np.maximum(np.abs(h.diagonal()), 1.0)
    return lambda r: r / d[:, None]


@pytest.fixture(scope="module")
def problem():
    h = ci_hamiltonian(1500, seed=11)
    ref = np.sort(spla.eigsh(h, k=6, which="SA", return_eigenvectors=False))
    return h, ref


class TestCorrectness:
    def test_matches_eigsh(self, problem):
        h, ref = problem
        rng = np.random.default_rng(0)
        res = lobpcg(
            lambda x: h @ x,
            rng.standard_normal((1500, 6)),
            preconditioner=diag_precond(h),
            tol=1e-8,
            maxiter=300,
        )
        assert res.converged
        assert np.allclose(np.sort(res.eigenvalues), ref, atol=1e-6)

    def test_eigenvectors_satisfy_pencil(self, problem):
        h, _ = problem
        rng = np.random.default_rng(1)
        res = lobpcg(
            lambda x: h @ x,
            rng.standard_normal((1500, 4)),
            preconditioner=diag_precond(h),
            tol=1e-8,
            maxiter=300,
        )
        x, lam = res.eigenvectors, res.eigenvalues
        assert np.linalg.norm(h @ x - x * lam) < 1e-5 * np.linalg.norm(x * lam)

    def test_eigenvectors_orthonormal(self, problem):
        h, _ = problem
        rng = np.random.default_rng(2)
        res = lobpcg(
            lambda x: h @ x,
            rng.standard_normal((1500, 4)),
            preconditioner=diag_precond(h),
            tol=1e-7,
            maxiter=300,
        )
        gram = res.eigenvectors.T @ res.eigenvectors
        assert np.allclose(gram, np.eye(4), atol=1e-8)

    def test_matches_scipy_lobpcg(self, problem):
        h, _ = problem
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((1500, 4))
        ours = lobpcg(
            lambda x: h @ x, x0, preconditioner=diag_precond(h), tol=1e-8,
            maxiter=300,
        )
        # the reference gets the same diagonal preconditioner, so it
        # converges; its non-convergence warning fails the test
        d = np.maximum(np.abs(h.diagonal()), 1.0)
        m = spla.LinearOperator(h.shape, matvec=lambda r: r.ravel() / d,
                                matmat=lambda r: r / d[:, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theirs = spla.lobpcg(h, x0, M=m, largest=False, tol=1e-8, maxiter=300)
        assert np.allclose(
            np.sort(ours.eigenvalues), np.sort(theirs[0]), atol=1e-8
        )

    def test_dense_small_matrix_exact(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((60, 60))
        a = a + a.T
        ref = np.sort(np.linalg.eigvalsh(a))[:3]
        res = lobpcg(lambda x: a @ x, rng.standard_normal((60, 3)),
                     tol=1e-10, maxiter=500)
        assert np.allclose(np.sort(res.eigenvalues), ref, atol=1e-7)


class TestBehaviour:
    def test_preconditioner_accelerates(self, problem):
        h, _ = problem
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((1500, 4))
        with_p = lobpcg(lambda x: h @ x, x0, preconditioner=diag_precond(h),
                        tol=1e-6, maxiter=250)
        without = lobpcg(lambda x: h @ x, x0, tol=1e-6, maxiter=250)
        assert with_p.converged
        assert with_p.iterations < without.iterations or not without.converged

    def test_history_recorded_and_decreasing(self, problem):
        h, _ = problem
        rng = np.random.default_rng(6)
        res = lobpcg(lambda x: h @ x, rng.standard_normal((1500, 4)),
                     preconditioner=diag_precond(h), tol=1e-8, maxiter=300,
                     record_history=True)
        assert len(res.history) == res.iterations + 1
        first = np.max(res.history[0])
        last = np.max(res.history[-1])
        assert last < first

    def test_operator_applied_once_per_iteration(self, problem):
        h, _ = problem
        rng = np.random.default_rng(7)
        count = 0

        def op(x):
            nonlocal count
            count += 1
            return h @ x

        res = lobpcg(op, rng.standard_normal((1500, 4)),
                     preconditioner=diag_precond(h), tol=1e-7, maxiter=300)
        assert res.converged
        assert count == res.n_applies == res.iterations + 1

    def test_maxiter_respected(self, problem):
        h, _ = problem
        rng = np.random.default_rng(8)
        res = lobpcg(lambda x: h @ x, rng.standard_normal((1500, 4)), maxiter=3)
        assert res.iterations == 3
        assert not res.converged


class TestValidation:
    def test_bad_shape(self):
        with pytest.raises(ValueError):
            lobpcg(lambda x: x, np.ones(5))

    def test_block_too_large(self):
        with pytest.raises(ValueError):
            lobpcg(lambda x: x, np.ones((6, 4)))

    def test_rank_deficient_x0(self):
        x0 = np.ones((50, 3))
        with pytest.raises(ValueError):
            lobpcg(lambda x: x, x0)
