import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wlstrack.estimator import (
    EstimatorConfig,
    EstimatorState,
    MeasurementBatch,
    decompose_lambda,
    information_matrix,
    initial_state,
    lambda_matrix,
    run_stream,
    update,
    update_gradient_form,
)

from helpers import count_calls, dense_update_oracle, random_spd, rel_err, unit_frobenius


# ---------------------------------------------------------------- lambda_matrix

def test_lambda_zero_matrix_gives_identity():
    A = np.zeros((3, 4))
    assert np.allclose(lambda_matrix(A, np.eye(3), 1.0), np.eye(4), atol=1e-14)


def test_lambda_scalar():
    lam = lambda_matrix(np.array([[1.0]]), np.array([[1.0]]), 1.0)
    assert lam.shape == (1, 1)
    assert lam[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_lambda_unit_frobenius_spectrum():
    # 3x15 with unit Frobenius norm: generically rank 3, so 12 unit eigenvalues
    # and 3 interior ones; cross-checked against an eigensolver on J.
    rng = np.random.default_rng(3)
    A = unit_frobenius(rng, 3, 15)
    gamma = 0.25
    lam = lambda_matrix(A, np.eye(3), gamma)
    eigs = np.sort(np.linalg.eigvalsh(lam))
    assert np.sum(np.isclose(eigs, 1.0, atol=1e-10)) == 12
    interior = eigs[eigs < 1.0 - 1e-10]
    assert interior.size == 3
    assert np.all(interior > 0)
    j_eigs = np.sort(np.linalg.eigvalsh(information_matrix(A, np.eye(3))))[-3:]
    assert np.allclose(np.sort(gamma / (gamma + j_eigs)), interior, atol=1e-12)


def test_lambda_norm_at_most_one_and_spd():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = rng.standard_normal((2, 5))
        Q = random_spd(rng, 2)
        lam = lambda_matrix(A, Q, 0.3)
        assert np.allclose(lam, lam.T, atol=1e-12)
        assert np.linalg.norm(lam, 2) <= 1.0 + 1e-12
        assert np.linalg.eigvalsh(lam).min() > 0


def test_lambda_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lambda_matrix(np.zeros((2, 3)), np.eye(3), 1.0)  # Q wrong size
    with pytest.raises(ValueError):
        lambda_matrix(np.zeros((2, 3)), np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0)  # asymmetric
    with pytest.raises(np.linalg.LinAlgError):
        lambda_matrix(np.zeros((2, 3)), -np.eye(2), 1.0)  # not PD
    with pytest.raises(ValueError):
        lambda_matrix(np.zeros((2, 3)), np.eye(2), 0.0)  # gamma not positive


# ------------------------------------------------------------ decompose_lambda

def test_decompose_identity():
    dec = decompose_lambda(np.eye(2), np.eye(2), 1.0)
    assert dec.kernel_dim == 0
    assert np.allclose(dec.nonzero_eigs, [1.0, 1.0], atol=1e-12)


def test_decompose_single_row():
    dec = decompose_lambda(np.array([[1.0, 0.0]]), np.array([[1.0]]), 2.0)
    assert np.allclose(dec.nonzero_eigs, [1.0], atol=1e-12)
    assert dec.kernel_dim == 1
    assert np.allclose(np.abs(dec.kernel_basis[:, 0]), [0.0, 1.0], atol=1e-12)
    eigs = np.sort(np.linalg.eigvalsh(dec.lambda_matrix))
    assert np.allclose(eigs, [2.0 / 3.0, 1.0], atol=1e-12)


def test_decompose_random_kernel_dimension():
    rng = np.random.default_rng(5)
    A = unit_frobenius(rng, 3, 15)
    dec = decompose_lambda(A, np.eye(3), 0.25)
    # rank oracle via SVD of A
    rank = np.linalg.matrix_rank(A)
    assert rank == 3
    assert dec.kernel_dim == 12
    assert dec.image_dim == 3
    assert dec.kernel_dim + dec.image_dim == 15


def test_decompose_reconstruction():
    rng = np.random.default_rng(6)
    for _ in range(5):
        A = rng.standard_normal((2, 6))
        Q = random_spd(rng, 2)
        gamma = float(rng.uniform(0.1, 3.0))
        dec = decompose_lambda(A, Q, gamma)
        recon = (
            dec.image_basis @ np.diag(gamma / (gamma + dec.nonzero_eigs)) @ dec.image_basis.T
            + dec.kernel_basis @ dec.kernel_basis.T
        )
        assert rel_err(recon, dec.lambda_matrix) < 1e-12
        # orthonormality of both bases
        full = np.hstack([dec.image_basis, dec.kernel_basis])
        assert np.allclose(full.T @ full, np.eye(6), atol=1e-12)


# ------------------------------------------------------------------- update

def test_update_scalar_closed_form():
    st = initial_state(1)
    batch = MeasurementBatch(1, [1.0], [[1.0]], [[1.0]])
    new = update(st, batch, EstimatorConfig(1.0, 1))
    assert new.x_hat[0] == pytest.approx(0.5, abs=1e-15)
    assert new.t == 1


def test_update_zero_matrix_keeps_estimate():
    st = EstimatorState(np.array([1.0, -2.0, 3.0]), 4)
    batch = MeasurementBatch(5, [9.0, 9.0], np.zeros((2, 3)), np.eye(2))
    new = update(st, batch, EstimatorConfig(0.7, 3))
    assert np.allclose(new.x_hat, st.x_hat, rtol=1e-14, atol=0)
    assert new.t == 5


def test_update_empty_batch_keeps_estimate():
    st = EstimatorState(np.array([1.0, -2.0]), 0)
    batch = MeasurementBatch(1, np.zeros(0), np.zeros((0, 2)), np.zeros((0, 0)))
    new = update(st, batch, EstimatorConfig(1.0, 2))
    assert np.array_equal(new.x_hat, st.x_hat)
    assert new.t == 1


def test_update_matches_dense_solve():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = 5, 2
        A = rng.standard_normal((m, n))
        Q = random_spd(rng, m)
        gamma = float(rng.uniform(0.05, 5.0))
        x_prev = rng.standard_normal(n)
        y = rng.standard_normal(m)
        got = update(EstimatorState(x_prev, 0), MeasurementBatch(1, y, A, Q), EstimatorConfig(gamma, n))
        assert rel_err(got.x_hat, dense_update_oracle(x_prev, y, A, Q, gamma)) < 1e-12


def test_update_affine_offset():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((2, 4))
    Q = random_spd(rng, 2)
    x_prev = rng.standard_normal(4)
    y = rng.standard_normal(2)
    b = rng.standard_normal(2)
    cfg = EstimatorConfig(0.9, 4)
    with_offset = update(EstimatorState(x_prev, 0), MeasurementBatch(1, y, A, Q, b=b), cfg)
    shifted = update(EstimatorState(x_prev, 0), MeasurementBatch(1, y - b, A, Q), cfg)
    assert np.allclose(with_offset.x_hat, shifted.x_hat, atol=1e-14)


def test_update_rejects_non_sequential_step():
    st = initial_state(2)
    batch = MeasurementBatch(2, [0.0], [[1.0, 0.0]], [[1.0]])
    with pytest.raises(ValueError, match="non-sequential"):
        update(st, batch, EstimatorConfig(1.0, 2))


def test_update_rejects_dimension_mismatch():
    st = initial_state(3)
    batch = MeasurementBatch(1, [0.0], [[1.0, 0.0]], [[1.0]])
    with pytest.raises(ValueError):
        update(st, batch, EstimatorConfig(1.0, 3))


# -------------------------------------------------------- update_gradient_form

def test_gradient_form_scalar():
    st = initial_state(1)
    batch = MeasurementBatch(1, [1.0], [[1.0]], [[1.0]])
    new = update_gradient_form(st, batch, EstimatorConfig(1.0, 1))
    assert new.x_hat[0] == pytest.approx(0.5, abs=1e-15)


def test_gradient_form_zero_matrix():
    st = EstimatorState(np.array([2.0, -1.0]), 0)
    batch = MeasurementBatch(1, [5.0], np.zeros((1, 2)), np.eye(1))
    new = update_gradient_form(st, batch, EstimatorConfig(3.0, 2))
    assert np.allclose(new.x_hat, st.x_hat, atol=1e-15)


def test_gradient_form_matches_update():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n, m = 8, 3
        A = rng.standard_normal((m, n))
        Q = random_spd(rng, m)
        x_prev = rng.standard_normal(n)
        y = rng.standard_normal(m)
        cfg = EstimatorConfig(0.5, n)
        a = update(EstimatorState(x_prev, 0), MeasurementBatch(1, y, A, Q), cfg)
        b = update_gradient_form(EstimatorState(x_prev, 0), MeasurementBatch(1, y, A, Q), cfg)
        assert rel_err(b.x_hat, a.x_hat) < 1e-10


# ---------------------------------------------------------------- run_stream

def test_run_stream_empty():
    st = initial_state(2)
    assert run_stream(st, [], EstimatorConfig(1.0, 2)) == [st]


def test_run_stream_single_batch():
    st = initial_state(1)
    cfg = EstimatorConfig(1.0, 1)
    batch = MeasurementBatch(1, [1.0], [[1.0]], [[1.0]])
    states = run_stream(st, [batch], cfg)
    assert len(states) == 2
    assert states[0] is st
    assert np.allclose(states[1].x_hat, update(st, batch, cfg).x_hat)


def test_run_stream_matches_manual_fold():
    rng = np.random.default_rng(10)
    n, m = 4, 2
    cfg = EstimatorConfig(0.8, n)
    batches = [
        MeasurementBatch(t, rng.standard_normal(m), rng.standard_normal((m, n)), random_spd(rng, m))
        for t in range(1, 11)
    ]
    states = run_stream(initial_state(n), batches, cfg)
    manual = initial_state(n)
    for batch in batches:
        manual = update(manual, batch, cfg)
    assert np.array_equal(states[-1].x_hat, manual.x_hat)
    assert len(states) == 11


def test_run_stream_reports_offending_step():
    st = initial_state(2)
    cfg = EstimatorConfig(1.0, 2)
    good = MeasurementBatch(1, [0.0], [[1.0, 0.0]], [[1.0]])
    bad = MeasurementBatch(5, [0.0], [[1.0, 0.0]], [[1.0]])
    with pytest.raises(ValueError, match="step 5"):
        run_stream(st, [good, bad], cfg)


# --------------------------------------------------------------- invariants

def test_identity_between_step_matrix_and_information_matrix():
    # (I - L) x == (1/gamma) L J x for any x, to 1e-10 relative.
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, m = 6, 2
        A = rng.standard_normal((m, n))
        Q = random_spd(rng, m)
        gamma = float(rng.uniform(0.05, 5.0))
        lam = lambda_matrix(A, Q, gamma)
        J = information_matrix(A, Q)
        x = rng.standard_normal(n)
        assert rel_err((np.eye(n) - lam) @ x, lam @ J @ x / gamma) < 1e-10


def test_update_satisfies_stationarity():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n, m = 5, 3
        A = rng.standard_normal((m, n))
        Q = random_spd(rng, m)
        gamma = float(rng.uniform(0.05, 5.0))
        x_prev = rng.standard_normal(n)
        y = rng.standard_normal(m)
        new = update(EstimatorState(x_prev, 0), MeasurementBatch(1, y, A, Q), EstimatorConfig(gamma, n))
        Qi = np.linalg.inv(Q)
        grad = A.T @ Qi @ (A @ new.x_hat - y) + gamma * (new.x_hat - x_prev)
        assert np.linalg.norm(grad) < 1e-10 * max(np.linalg.norm(y), 1.0)


def test_step_matrix_is_non_expansive():
    rng = np.random.default_rng(13)
    for _ in range(10):
        A = rng.standard_normal((2, 7))
        Q = random_spd(rng, 2)
        lam = lambda_matrix(A, Q, float(rng.uniform(0.05, 5.0)))
        for _ in range(5):
            x = rng.standard_normal(7)
            assert np.linalg.norm(lam @ x) <= np.linalg.norm(x) * (1 + 1e-12)


def test_spectrum_matches_predicted_set():
    rng = np.random.default_rng(14)
    for _ in range(5):
        A = rng.standard_normal((3, 8))
        Q = random_spd(rng, 3)
        gamma = float(rng.uniform(0.1, 2.0))
        dec = decompose_lambda(A, Q, gamma)
        predicted = np.sort(
            np.concatenate([np.ones(dec.kernel_dim), gamma / (gamma + dec.nonzero_eigs)])
        )
        actual = np.sort(np.linalg.eigvalsh(dec.lambda_matrix))
        assert np.allclose(actual, predicted, atol=1e-10)


def test_kernel_equivalence():
    # v in ker A  <=>  ||J v|| below tolerance, on kernel basis columns and
    # on random vectors from the observed subspace.
    rng = np.random.default_rng(15)
    A = rng.standard_normal((2, 6))
    Q = random_spd(rng, 2)
    dec = decompose_lambda(A, Q, 1.0)
    J = information_matrix(A, Q)
    for k in range(dec.kernel_dim):
        v = dec.kernel_basis[:, k]
        assert np.linalg.norm(A @ v) < 1e-10
        assert np.linalg.norm(J @ v) < 1e-10
    for _ in range(5):
        u = dec.image_basis @ rng.standard_normal(dec.image_dim)
        assert np.linalg.norm(J @ u) > 1e-8 * np.linalg.norm(u)


# ------------------------------------------- step kernel across scales (gain form)

def normal_equation_residual(x_prev, y, A, Q, gamma, x_new):
    """Residual of (J + gamma I) x_new = gamma x_prev + A^T Q^{-1} y, relative
    to the size of its terms, computed with an explicit inverse of Q."""
    Qi = np.linalg.inv(Q)
    J = A.T @ Qi @ A
    rhs_data = A.T @ Qi @ y
    residual = J @ x_new + gamma * x_new - gamma * x_prev - rhs_data
    scale = (np.linalg.norm(J, 2) + gamma) * np.linalg.norm(x_new)
    scale += np.linalg.norm(gamma * x_prev) + np.linalg.norm(rhs_data)
    return float(np.linalg.norm(residual) / scale)


def kernel_leak(A, x_prev, x_new):
    """Component of the step in ker A, relative to the two estimates."""
    kernel = np.linalg.svd(A)[2][A.shape[0]:].T
    step = kernel.T @ (x_new - x_prev)
    return float(np.linalg.norm(step) / (np.linalg.norm(x_prev) + np.linalg.norm(x_new)))


def spectrum_slack(A, Q):
    """Rounding allowance for the eigenvalues of I - K A: a small multiple of
    eps times a bound on the condition number of the factored matrix."""
    kappa = np.linalg.cond(A) ** 2 * np.linalg.cond(Q)
    return 8 * A.shape[1] * np.finfo(float).eps * kappa


def one_step(x_prev, y, A, Q, gamma):
    n = A.shape[1]
    return update(EstimatorState(x_prev, 0), MeasurementBatch(1, y, A, Q), EstimatorConfig(gamma, n)).x_hat


@pytest.mark.parametrize("gamma", [1e-8, 1e-10])
def test_update_and_lambda_with_gamma_far_below_norm_squared(gamma):
    # J + gamma I is numerically singular here (3 measurements, 15 states,
    # ||A||^2 ~ 1e9); the step factors Q + A A^T / gamma instead.
    rng = np.random.default_rng(41)
    A = rng.standard_normal((3, 15)) * 1e4
    Q = random_spd(rng, 3)
    x_prev = rng.standard_normal(15)
    y = A @ rng.standard_normal(15)
    x_new = one_step(x_prev, y, A, Q, gamma)
    assert normal_equation_residual(x_prev, y, A, Q, gamma, x_new) <= 1e-12
    assert kernel_leak(A, x_prev, x_new) <= 1e-8
    assert np.linalg.norm(A @ x_new - y) <= 1e-6 * np.linalg.norm(y)
    lam = lambda_matrix(A, Q, gamma)
    eigs = np.linalg.eigvalsh(lam)
    assert np.sum(eigs > 1 - 1e-10) == 12
    assert eigs.min() >= -spectrum_slack(A, Q) and eigs.max() <= 1 + spectrum_slack(A, Q)


def test_update_more_measurements_than_states_matches_dense_oracle():
    # M > N: Q + A A^T / gamma is singular, so this case needs the N x N form.
    rng = np.random.default_rng(42)
    A = rng.standard_normal((5, 3)) * 1e4
    Q = random_spd(rng, 5)
    x_prev = rng.standard_normal(3)
    y = A @ rng.standard_normal(3) + rng.standard_normal(5)
    x_new = one_step(x_prev, y, A, Q, 1e-8)
    assert rel_err(x_new, dense_update_oracle(x_prev, y, A, Q, 1e-8)) <= 1e-12


@pytest.mark.parametrize("gamma", [1e-10, 1e-8, 1.0, 1e8])
def test_dependent_rows_get_an_answer(gamma):
    # Row 3 = row 1 + row 2, so Q + A A^T / gamma is singular to rounding
    # once gamma << ||A||^2, and A^T Q^{-1} A + gamma I is whenever M < N.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 15))
        A[2] = A[0] + A[1]
        A *= 1e4
        Q = random_spd(rng, 3)
        x_prev = rng.standard_normal(15)
        y = A @ rng.standard_normal(15) + rng.standard_normal(3)
        x_new = one_step(x_prev, y, A, Q, gamma)
        assert normal_equation_residual(x_prev, y, A, Q, gamma, x_new) <= 1e-12
        assert kernel_leak(A, x_prev, x_new) <= 1e-8
        # Beside the unit eigenvalues on ker A, eigenvalues far below
        # rounding of 1 are resolved only to a few eps.
        eigs = np.linalg.eigvalsh(lambda_matrix(A, Q, gamma))
        slack = 15 * np.finfo(float).eps
        assert np.sum(eigs > 1 - 1e-10) == 13
        assert eigs.min() >= -slack and eigs.max() <= 1 + slack
        dec = decompose_lambda(A, Q, gamma)
        assert (dec.image_dim, dec.kernel_dim) == (2, 13)
        j_eigs = np.linalg.eigvalsh(A.T @ np.linalg.inv(Q) @ A)[-2:]
        assert np.allclose(dec.nonzero_eigs, j_eigs, rtol=1e-10, atol=0)


@pytest.mark.parametrize("gamma", [1e-2, 1.0, 1e2])
def test_update_corrects_weakly_observed_direction_of_full_rank_A(gamma):
    # Whitened singular values 1e6 and 1: the second direction is observed,
    # however small beside the first, and is corrected by 1 / (1 + gamma).
    A = np.diag([1e6, 1.0])
    y = np.array([1e6, 1.0])
    x_new = one_step(np.zeros(2), y, A, np.eye(2), gamma)
    expected = np.linalg.solve(A.T @ A + gamma * np.eye(2), A.T @ y)
    assert np.allclose(x_new, expected, rtol=1e-12, atol=0)
    lam = lambda_matrix(A, np.eye(2), gamma)
    assert np.allclose(np.diag(lam), gamma / (gamma + np.diag(A) ** 2), rtol=1e-12, atol=0)
    assert lam[0, 1] == lam[1, 0] == 0


@pytest.mark.parametrize("gamma", [1e-14, 1e-8, 1.0])
def test_update_on_graded_singular_values_matches_exact_filter_factors(gamma):
    # A = U diag(1, 1e-3, 1e-6) V^T with Q = I: in V's coordinates the step is
    # exactly sigma / (sigma^2 + gamma) times U^T (y - A x_prev), direction by
    # direction, down to the smallest singular value.
    rng = np.random.default_rng(7)
    U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((15, 3)))[0]
    s = np.array([1.0, 1e-3, 1e-6])
    A = (U * s) @ V.T
    x_prev = rng.standard_normal(15)
    y = A @ rng.standard_normal(15) + rng.standard_normal(3)
    x_new = one_step(x_prev, y, A, np.eye(3), gamma)
    expected = s / (s**2 + gamma) * (U.T @ (y - A @ x_prev))
    assert np.allclose(V.T @ (x_new - x_prev), expected, rtol=1e-6, atol=0)


def test_lambda_positive_definite_with_more_measurements_and_gamma_far_below_norm_squared():
    # M >= N: L = gamma (J + gamma I)^{-1} comes from the Cholesky factor of
    # J + gamma I, so its eigenvalues gamma / (gamma + lambda_i) ~ 1e-18 stay
    # positive; I - K A would lose them to rounding.
    rng = np.random.default_rng(1)
    A = rng.standard_normal((27, 27)) * 1e7
    Q = random_spd(rng, 27)
    eigs = np.linalg.eigvalsh(lambda_matrix(A, Q, 1e-4))
    assert eigs.min() > 0 and eigs.max() <= 1


@st.composite
def step_problems(draw, wide=False):
    """(x_prev, y, A, Q, gamma) with gamma and ||A|| from 1e-8 to 1e8, Gaussian A,
    random SPD Q, and M, N from 1 to 30 (M < N when wide).

    The rows of A past the first `independent` ones repeat an earlier row or
    sum two earlier rows, so A may have linearly dependent rows.  When M >= N
    at least N rows stay independent: A then keeps full column rank, and L has
    no unit eigenvalues beside which its smallest ones would sink below
    rounding (as they may when M < N).
    """
    n = draw(st.integers(2 if wide else 1, 30))
    m = draw(st.integers(1, n - 1 if wide else 30))
    independent = draw(st.integers(n if m >= n else 1, m))
    gamma = 10.0 ** draw(st.floats(-8, 8))
    scale = 10.0 ** draw(st.floats(-8, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n)) * scale
    for row in range(independent, m):
        A[row] = A[rng.integers(0, row, size=rng.integers(1, 3))].sum(axis=0)
    Q = random_spd(rng, m)
    x_prev = rng.standard_normal(n)
    y = A @ rng.standard_normal(n) + scale * rng.standard_normal(m)
    return x_prev, y, A, Q, gamma


@given(step_problems())
def test_property_update_solves_normal_equations(problem):
    x_prev, y, A, Q, gamma = problem
    x_new = one_step(x_prev, y, A, Q, gamma)
    assert normal_equation_residual(x_prev, y, A, Q, gamma, x_new) <= 1e-12


@given(step_problems(wide=True))
def test_property_update_leaves_kernel_unchanged(problem):
    x_prev, y, A, Q, gamma = problem
    assert kernel_leak(A, x_prev, one_step(x_prev, y, A, Q, gamma)) <= 1e-8


@given(step_problems())
def test_property_lambda_symmetric_with_spectrum_in_unit_interval(problem):
    _, _, A, Q, gamma = problem
    lam = lambda_matrix(A, Q, gamma)
    assert np.array_equal(lam, lam.T)
    eigs = np.linalg.eigvalsh(lam)
    if A.shape[0] >= A.shape[1]:
        # The upper allowance is the eigensolver's own rounding near 1.
        assert eigs.min() > 0 and eigs.max() <= 1 + A.shape[1] * np.finfo(float).eps
    else:
        # I - K A keeps unit eigenvalues on ker A, so observed-direction
        # eigenvalues below its rounding level are not resolved.
        slack = spectrum_slack(A, Q)
        assert eigs.min() >= -slack and eigs.max() <= 1 + slack


@given(step_problems())
def test_property_decompose_lambda_factors_in_unit_interval_and_bases_reconstruct_lambda(problem):
    _, _, A, Q, gamma = problem
    dec = decompose_lambda(A, Q, gamma)
    factors = np.concatenate([gamma / (gamma + dec.nonzero_eigs), np.ones(dec.kernel_dim)])
    assert factors.size == A.shape[1]
    assert np.all(factors > 0) and np.all(factors <= 1)
    basis = np.hstack([dec.image_basis, dec.kernel_basis])
    assert rel_err((basis * factors) @ basis.T, lambda_matrix(A, Q, gamma)) <= 1e-12


# ------------------------------------------------------------ type validation

def test_batch_validates_inputs():
    with pytest.raises(ValueError, match="t must be"):
        MeasurementBatch(0, [1.0], [[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        MeasurementBatch(1, [1.0, 2.0], [[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        MeasurementBatch(1, [1.0, 1.0], np.eye(2), [[1.0, 0.3], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        MeasurementBatch(1, [1.0, 1.0], np.eye(2), -np.eye(2))
    with pytest.raises(ValueError):
        MeasurementBatch(1, [1.0], [[1.0]], [[1.0]], b=[1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        MeasurementBatch(1, [np.nan], [[1.0]], [[1.0]])


def test_batch_defaults_q_to_identity():
    batch = MeasurementBatch(1, [1.0, 2.0], np.eye(2))
    assert np.array_equal(batch.Q, np.eye(2))


def test_batch_and_its_update_factor_the_model_once(monkeypatch):
    # The Cholesky factor that validates Q is the one the update's gain reads.
    cholesky = count_calls(monkeypatch, np.linalg, "cholesky")
    svd = count_calls(monkeypatch, np.linalg, "svd")
    rng = np.random.default_rng(7)
    batch = MeasurementBatch(1, rng.standard_normal(3), rng.standard_normal((3, 5)), random_spd(rng, 3))
    update(initial_state(5), batch, EstimatorConfig(0.5, 5))
    assert (len(cholesky), len(svd)) == (1, 1)


def test_batch_keeps_read_only_copies_of_its_model():
    A, Q = np.array([[1.0, 0.0, 0.0]]), np.array([[1.0]])
    batch = MeasurementBatch(1, [1.0], A, Q)
    A[0] = [0.0, 1.0, 1.0]
    Q[0, 0] = 4.0
    x_hat = update(initial_state(3), batch, EstimatorConfig(1.0, 3)).x_hat
    assert np.allclose(x_hat, [0.5, 0.0, 0.0], rtol=0.0, atol=1e-15)
    for M in (batch.A, batch.Q):
        with pytest.raises(ValueError):
            M[0, 0] = 0.0


def test_config_and_state_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(-1.0, 3)
    with pytest.raises(ValueError):
        EstimatorConfig(np.inf, 3)
    with pytest.raises(ValueError):
        EstimatorConfig(1.0, 0)
    with pytest.raises(ValueError):
        EstimatorState(np.array([1.0, np.inf]))
    assert np.array_equal(initial_state(3).x_hat, np.zeros(3))
    with pytest.raises(ValueError):
        initial_state(3, [1.0])
