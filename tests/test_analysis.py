import numpy as np
import pytest

from wlstrack import analysis
from wlstrack.analysis import (
    ErrorMoments,
    SystemEnsemble,
    bound_finite_bounded,
    bound_finite_stochastic,
    bound_report,
    bound_series_bounded,
    contraction_norm,
    ensemble_constants,
    gamma_star_bounded,
    gamma_star_stochastic,
    h_bounded,
    h_stochastic,
    kernel_basis,
    observability_window,
    propagate_error_moments,
    psi,
    smallest_nonzero_eig,
    vectorized_sigma_step,
)
from wlstrack.estimator import MeasurementBatch, information_matrix, lambda_matrix
from wlstrack.simulation import generate_library

from helpers import (
    closed_form_covariance,
    closed_form_mean,
    count_calls,
    random_spd,
    rel_err,
    unit_frobenius,
)


def experiment_ensemble(seed=20260808, q_scale=1.0):
    """Benchmark library: 10 unit-Frobenius 3x15 members, identity weighting."""
    return generate_library(15, 3, 10, seed, q_scale=q_scale)


# -------------------------------------------------------------- kernel_basis

def test_kernel_basis_full_rank_square():
    assert kernel_basis(np.eye(4)).shape == (4, 0)


def test_kernel_basis_single_row():
    basis = kernel_basis(np.array([[1.0, 0.0]]))
    assert basis.shape == (2, 1)
    assert np.allclose(np.abs(basis[:, 0]), [0.0, 1.0], atol=1e-12)


def test_kernel_basis_random_rank():
    rng = np.random.default_rng(1)
    A = unit_frobenius(rng, 3, 15)
    basis = kernel_basis(A)
    assert basis.shape == (15, 12)  # rank oracle: generic 3x15 has rank 3
    assert np.allclose(basis.T @ basis, np.eye(12), atol=1e-12)
    assert np.abs(A @ basis).max() < 1e-12


def test_kernel_basis_empty_matrix():
    assert np.array_equal(kernel_basis(np.zeros((0, 3))), np.eye(3))


# ------------------------------------------------------ observability_window

def test_observability_alternating_rows():
    ens = SystemEnsemble(
        ((np.array([[1.0, 0.0]]), np.eye(1)), (np.array([[0.0, 1.0]]), np.eye(1))), 2
    )
    assert observability_window([0, 1, 0, 1, 0], ens) == 2


def test_observability_full_rank_member():
    ens = SystemEnsemble(((np.eye(3), np.eye(3)),), 3)
    assert observability_window([0, 0, 0, 0], ens) == 1


def test_observability_failure_returns_none():
    ens = SystemEnsemble(((np.array([[1.0, 0.0]]), np.eye(1)),), 2)
    assert observability_window([0, 0, 0], ens) is None


def test_observability_experiment_sequence():
    # The experiment geometry needs ceil(15/3) = 5 stacked members for full
    # column rank, so the computed window is exactly 5 under the constrained
    # policy (4 members can never span 15 columns).
    from wlstrack.simulation import generate_sequence

    ens = experiment_ensemble()
    seq = generate_sequence(ens, 60, "window", 17, window=5)
    assert observability_window(seq, ens) == 5


# ---------------------------------------------------------------------- psi

def test_psi_single_member():
    ens = SystemEnsemble(((np.array([[1.0]]), np.eye(1)),), 1)
    assert psi(ens, 1.0) == pytest.approx(0.5, abs=1e-14)


def test_psi_worst_member_dominates():
    # members with smallest nonzero eigenvalues 1 and 3: the max is at 1.
    ens = SystemEnsemble(((np.eye(2), np.eye(2)), (np.sqrt(3.0) * np.eye(2), np.eye(2))), 2)
    assert psi(ens, 1.0) == pytest.approx(0.5, abs=1e-14)


def test_psi_experiment_ensemble():
    ens = experiment_ensemble()
    value = psi(ens, 0.25)
    assert 0.0 < value < 1.0
    # oracle: eigensolver per member
    worst = max(
        0.25 / (0.25 + np.linalg.eigvalsh(information_matrix(A, Q))[-3:].min())
        for A, Q in ens.members
    )
    assert value == pytest.approx(worst, rel=1e-12)
    # psi is computed from lambda_bar alone; the factor is monotone under
    # rounding, so it equals the per-member maximum bit for bit.
    assert value == max(0.25 / (0.25 + smallest_nonzero_eig(A, Q)) for A, Q in ens.members)


def test_psi_rank_zero_member_raises():
    ens = SystemEnsemble(((np.zeros((1, 2)), np.eye(1)),), 2)
    with pytest.raises(np.linalg.LinAlgError, match="member 0"):
        psi(ens, 1.0)


def test_smallest_nonzero_eig_rank_zero():
    with pytest.raises(np.linalg.LinAlgError):
        smallest_nonzero_eig(np.zeros((2, 3)), np.eye(2))


# ------------------------------------------------------------------ constants

def test_constants_trivial_member():
    ens = SystemEnsemble(((np.array([[1.0]]), np.eye(1)),), 1)
    consts = ensemble_constants(ens)
    assert consts == pytest.approx((1.0, 1.0, 1.0, 1.0))


def test_constants_scaling():
    base = SystemEnsemble(((np.array([[1.0]]), np.eye(1)),), 1)
    scaled = SystemEnsemble(((np.array([[2.0]]), np.eye(1)),), 1)
    b = ensemble_constants(base)
    s = ensemble_constants(scaled)
    assert s.c == pytest.approx(2 * b.c)
    assert s.capital_c == pytest.approx(4 * b.capital_c)


def test_constants_experiment_unit_frobenius():
    consts = ensemble_constants(experiment_ensemble())
    assert consts.capital_c == pytest.approx(1.0, abs=1e-12)  # ||A||_F = 1 by construction
    assert consts.m == pytest.approx(np.sqrt(3.0), abs=1e-12)  # ||I_3||_F
    assert 0 < consts.lambda_bar < consts.c <= 1.0


def test_constants_are_computed_once_per_ensemble(monkeypatch):
    calls = count_calls(monkeypatch, analysis, "smallest_nonzero_eig")
    ens = experiment_ensemble()
    first = ensemble_constants(ens)
    analysis.bound_report(ens, 5, 0.25, 1.0, 1.0)
    psi(ens, 0.25)
    assert ensemble_constants(ens) is first
    assert len(calls) == len(ens)


def test_ensemble_members_are_read_only_copies():
    A, Q = np.array([[1.0, 2.0]]), np.array([[2.0]])
    ens = SystemEnsemble(((A, Q),), 2)
    before = ensemble_constants(ens)
    A[0, 0] = 100.0
    Q[0, 0] = 50.0
    assert np.array_equal(ens.members[0][0], [[1.0, 2.0]])
    assert np.array_equal(ens.members[0][1], [[2.0]])
    for M in ens.members[0]:
        with pytest.raises(ValueError):
            M[0, 0] = 0.0
    assert ensemble_constants(SystemEnsemble(((A, Q),), 2)) != before


def test_window_rank_is_memoized_by_member_multiset(monkeypatch):
    ens = experiment_ensemble()
    calls = count_calls(monkeypatch, np.linalg, "svd")
    assert ens.window_full_rank([4, 0, 2, 9, 7])
    assert ens.window_full_rank((0, 2, 4, 7, 9))
    assert ens.window_full_rank([9, 7, 4, 2, 0])
    assert not ens.window_full_rank([1, 2])
    assert not ens.window_full_rank([2, 1])
    assert len(calls) == 2


# -------------------------------------------------------------- finite bounds

def test_bound_finite_bounded_single_step():
    assert bound_finite_bounded(1, 1, 0.5, 1.0, [(0.0, 0.0, 0.0)], 1.0) == pytest.approx(0.5)


def test_bound_finite_bounded_zero_inputs():
    per = [(0.0, 0.0, 0.0)] * 7
    for T in range(1, 8):
        assert bound_finite_bounded(T, 2, 0.5, 0.0, per, 1.0) == 0.0


def test_bound_finite_bounded_hand_computed():
    # T=3, tau=2, psi=0.5, xi0=1, each step contributes 2:
    # 0.5*1 + (0.5*2 + 0.5*2 + 1*2) = 4.5
    per = [(1.0, 1.0, 1.0)] * 3
    assert bound_finite_bounded(3, 2, 0.5, 1.0, per, 1.0) == pytest.approx(4.5)


def test_bound_series_matches_per_step_calls():
    rng = np.random.default_rng(2)
    per = rng.uniform(0.0, 2.0, size=(12, 3))
    series = bound_series_bounded(3, 0.7, 1.3, per, 0.6)
    for T in range(1, 13):
        assert series[T - 1] == pytest.approx(
            bound_finite_bounded(T, 3, 0.7, 1.3, per, 0.6), rel=1e-12
        )


def test_bound_finite_bounded_validation():
    with pytest.raises(ValueError):
        bound_finite_bounded(0, 1, 0.5, 0.0, [], 1.0)
    with pytest.raises(ValueError):
        bound_finite_bounded(1, 1, 1.0, 0.0, [(0, 0, 0)], 1.0)  # psi must be < 1
    with pytest.raises(ValueError):
        bound_finite_bounded(2, 1, 0.5, 0.0, [(0, 0, 0)], 1.0)  # per_step too short


# ------------------------------------------------------------------ h_bounded

def test_h_bounded_no_noise_term():
    assert h_bounded(2.0, 3, 1.5, 7.0, 0.0, 0.5) == pytest.approx(3 * 1.5 * (1 + 2.0 / 0.5))


def test_h_bounded_unit_example():
    assert h_bounded(1.0, 1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(4.0)


def test_h_bounded_grid_minimum_matches_formula():
    consts = ensemble_constants(experiment_ensemble())
    star = gamma_star_bounded(consts.c, consts.lambda_bar, 1.0, 1.0)
    grid = np.geomspace(1e-3, 1e3, 10_000)
    values = [h_bounded(g, 5, 1.0, consts.c, 1.0, consts.lambda_bar) for g in grid]
    k = int(np.argmin(values))
    cell = grid[min(k + 1, grid.size - 1)] - grid[max(k - 1, 0)]
    assert abs(star - grid[k]) <= cell


# ---------------------------------------------------------- gamma_star_bounded

def test_gamma_star_bounded_unit():
    assert gamma_star_bounded(1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)


def test_gamma_star_bounded_zero_noise_warns():
    with pytest.warns(UserWarning):
        assert gamma_star_bounded(1.0, 1.0, 0.0, 1.0) == 0.0


def test_gamma_star_bounded_zero_variation_raises():
    with pytest.raises(ValueError):
        gamma_star_bounded(1.0, 1.0, 1.0, 0.0)


# ------------------------------------------------------------ error moments

def test_propagate_zero_matrix():
    mom = ErrorMoments(np.array([1.0, 2.0]), 0.1 * np.eye(2), 0)
    batch = MeasurementBatch(1, np.zeros(0), np.zeros((0, 2)), np.zeros((0, 0)))
    out = propagate_error_moments(mom, batch, np.array([0.5, 0.5]), 1.0)
    assert np.allclose(out.mu, [0.5, 1.5], atol=1e-14)
    assert np.allclose(out.sigma, mom.sigma, atol=1e-14)
    assert out.t == 1


def test_propagate_scalar_closed_form():
    mom = ErrorMoments(np.zeros(1), np.zeros((1, 1)), 0)
    batch = MeasurementBatch(1, [0.0], [[1.0]], [[1.0]])
    out = propagate_error_moments(mom, batch, np.zeros(1), 1.0)
    assert out.sigma[0, 0] == pytest.approx(0.25, abs=1e-14)


def test_propagate_matches_closed_form_expansion():
    rng = np.random.default_rng(3)
    n, m, gamma, T = 5, 2, 0.8, 12
    mats = [(rng.standard_normal((m, n)), random_spd(rng, m)) for _ in range(T)]
    deltas = rng.standard_normal((T, n)) * 0.3
    xi0 = rng.standard_normal(n)
    mom = ErrorMoments(xi0, np.zeros((n, n)), 0)
    for t in range(1, T + 1):
        A, Q = mats[t - 1]
        mom = propagate_error_moments(mom, MeasurementBatch(t, np.zeros(m), A, Q), deltas[t - 1], gamma)
    lams = [lambda_matrix(A, Q, gamma) for A, Q in mats]
    infos = [information_matrix(A, Q) for A, Q in mats]
    assert rel_err(mom.mu, closed_form_mean(lams, deltas, xi0)) < 1e-12
    assert rel_err(mom.sigma, closed_form_covariance(lams, infos, gamma)) < 1e-12


def test_propagate_rejects_non_sequential():
    mom = ErrorMoments(np.zeros(2), np.zeros((2, 2)), 3)
    batch = MeasurementBatch(3, [0.0], [[1.0, 0.0]], [[1.0]])
    with pytest.raises(ValueError, match="non-sequential"):
        propagate_error_moments(mom, batch, np.zeros(2), 1.0)


# ------------------------------------------------------- vectorized sigma step

def test_vectorized_scalar_case():
    batch = MeasurementBatch(1, [0.0], [[2.0]], [[1.0]])
    gamma = 1.0
    lam = 1.0 / (1.0 + 4.0)  # gamma/(gamma + a^2/q)
    sigma = 0.3
    out = vectorized_sigma_step(np.array([sigma]), batch, gamma)
    expected = lam**2 * sigma + lam**2 * 4.0 / gamma**2
    assert out[0] == pytest.approx(expected, rel=1e-12)


def test_vectorized_zero_matrix_keeps_sigma():
    batch = MeasurementBatch(1, np.zeros(0), np.zeros((0, 3)), np.zeros((0, 0)))
    v = np.arange(9.0)
    out = vectorized_sigma_step(v, batch, 2.0)
    assert np.allclose(out, v, atol=1e-12)


def test_vectorized_matches_matrix_recursion():
    check_vectorized_matches_matrix_recursion(0.6, 1.0)


def test_vectorized_matches_matrix_recursion_with_gamma_far_below_norm_squared():
    # The Kronecker noise term is (K (x) K) vec(Q); written as L J L^T / gamma^2
    # it would amplify the rounding of L by 1 / gamma^2.
    check_vectorized_matches_matrix_recursion(1e-8, 1e4)


def check_vectorized_matches_matrix_recursion(gamma, scale):
    rng = np.random.default_rng(4)
    n, m = 4, 2
    A = rng.standard_normal((m, n)) * scale
    Q = random_spd(rng, m)
    batch = MeasurementBatch(1, np.zeros(m), A, Q)
    sigma = random_spd(rng, n, shift=1.0)
    out = vectorized_sigma_step(sigma.reshape(-1), batch, gamma)
    mom = propagate_error_moments(ErrorMoments(np.zeros(n), sigma, 0), batch, np.zeros(n), gamma)
    assert rel_err(out.reshape(n, n), mom.sigma) < 1e-12


def test_vectorized_large_n_avoids_kron_and_agrees():
    rng = np.random.default_rng(5)
    n, m, gamma = 10, 3, 0.9  # above the Kronecker materialization limit
    A = rng.standard_normal((m, n))
    Q = random_spd(rng, m)
    batch = MeasurementBatch(1, np.zeros(m), A, Q)
    sigma = random_spd(rng, n, shift=1.0)
    out = vectorized_sigma_step(sigma.reshape(-1), batch, gamma)
    mom = propagate_error_moments(ErrorMoments(np.zeros(n), sigma, 0), batch, np.zeros(n), gamma)
    assert rel_err(out.reshape(n, n), mom.sigma) < 1e-12


# ------------------------------------------------------- stochastic bounds

def test_bound_finite_stochastic_zero_case():
    per = [(0.0, 0.0, 0.0)] * 5
    mu_b, sig_b = bound_finite_stochastic(5, 2, 0.5, 0.0, 0.0, per)
    assert mu_b == 0.0 and sig_b == 0.0


def test_bound_finite_stochastic_initial_terms():
    per = [(0.0, 0.0, 0.0)]
    mu_b, sig_b = bound_finite_stochastic(1, 1, 0.5, 0.0, 1.0, per)
    assert sig_b == pytest.approx(0.5)
    assert mu_b == 0.0


def test_bound_finite_stochastic_hand_computed():
    per = [(1.0, 0.0, 0.0)] * 3
    mu_b, _ = bound_finite_stochastic(3, 2, 0.5, 1.0, 0.0, per)
    assert mu_b == pytest.approx(2.5)  # 0.5*1 + (0.5 + 0.5 + 1)


def test_bound_finite_stochastic_gamma_scaling():
    per = [(0.0, 2.0, 3.0)] * 4
    _, plain = bound_finite_stochastic(4, 2, 0.5, 0.0, 0.0, per)
    _, scaled = bound_finite_stochastic(4, 2, 0.5, 0.0, 0.0, per, gamma=2.0)
    assert scaled == pytest.approx(plain / 4.0)


def test_covariance_bound_variants_against_exact_propagation():
    # The plain covariance bound omits the 1/gamma^2 factor the recursion
    # carries.  In a scalar configuration with small gamma the exact
    # covariance blows past the plain variant while the gamma-corrected
    # variant always holds.
    gamma, a, q = 0.01, 0.1, 1.0
    lam_eig = gamma / (gamma + a * a / q)
    psi_v = lam_eig  # tau = 1: the single member is full rank
    batch = MeasurementBatch(1, [0.0], [[a]], [[q]])
    per = [(0.0, a * a, 1.0 / q)] * 40
    mom = ErrorMoments(np.zeros(1), np.zeros((1, 1)), 0)
    plain_violated = False
    for t in range(1, 41):
        batch = MeasurementBatch(t, [0.0], [[a]], [[q]])
        mom = propagate_error_moments(mom, batch, np.zeros(1), gamma)
        fro = float(np.linalg.norm(mom.sigma))
        _, plain = bound_finite_stochastic(t, 1, psi_v, 0.0, 0.0, per)
        _, corrected = bound_finite_stochastic(t, 1, psi_v, 0.0, 0.0, per, gamma=gamma)
        assert fro <= corrected * (1 + 1e-9)
        plain_violated = plain_violated or fro > plain
    assert plain_violated


# --------------------------------------------------------------- h_stochastic

def test_h_stochastic_reduces_without_noise():
    assert h_stochastic(2.0, 3, 0.0, 5.0, 1.5, 0.5) == pytest.approx(3 * 1.5 * (1 + 4.0))


def test_h_stochastic_unit_example():
    assert h_stochastic(1.0, 1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(2 * np.sqrt(2.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: h_bounded(1, 0, 1, 1, 1, 1),
        lambda: h_stochastic(1, -3, 1, 1, 1, 1),
        lambda: gamma_star_stochastic(0, 1, 1, 1, 1),
    ],
    ids=["h_bounded", "h_stochastic", "gamma_star_stochastic"],
)
def test_tau_below_one_is_rejected(call):
    with pytest.raises(ValueError, match="tau must be an integer >= 1"):
        call()


# ------------------------------------------------------ gamma_star_stochastic

def test_gamma_star_stochastic_monotone_case_hits_lower_end():
    star = gamma_star_stochastic(1, 0.0, 0.0, 1.0, 1.0, search_interval=(0.01, 10.0))
    assert star == pytest.approx(0.01, rel=1e-4)


def test_gamma_star_stochastic_scale_invariance():
    a = gamma_star_stochastic(3, 2.0, 1.5, 0.7, 0.4)
    b = gamma_star_stochastic(3, 2.0 * 5, 1.5, 0.7 * 5, 0.4)
    assert a == pytest.approx(b, rel=1e-5)


def test_gamma_star_stochastic_matches_grid():
    consts = ensemble_constants(experiment_ensemble(q_scale=0.25))
    star = gamma_star_stochastic(5, consts.capital_c, consts.m, 1.0, consts.lambda_bar)
    grid = np.geomspace(1e-3, 1e3, 10_000)
    values = [h_stochastic(g, 5, consts.capital_c, consts.m, 1.0, consts.lambda_bar) for g in grid]
    k = int(np.argmin(values))
    cell = grid[min(k + 1, grid.size - 1)] - grid[max(k - 1, 0)]
    assert abs(star - grid[k]) <= cell


# ------------------------------------------------------------ contraction_norm

def test_contraction_norm_single_full_rank_member():
    lam = lambda_matrix(np.eye(2), np.eye(2), 1.0)
    assert contraction_norm([lam]) == pytest.approx(0.5, abs=1e-12)


def test_contraction_norm_identity_windows():
    lam = lambda_matrix(np.zeros((1, 3)), np.eye(1), 1.0)
    assert contraction_norm([lam, lam]) == pytest.approx(1.0, abs=1e-12)


def test_contraction_norm_experiment_windows_strictly_contract():
    # Every window that jointly observes the state contracts strictly (norm
    # below 1), and long products decay hard.  Note the per-member factor
    # psi does NOT bound the window products here: with overlapping kernels
    # the product norm can sit just under 1 (observed ~1 - 1e-6 in this
    # geometry), so only strict contraction is asserted.
    from wlstrack.simulation import generate_sequence

    ens = experiment_ensemble()
    gamma = 0.25
    seq = generate_sequence(ens, 40, "window", 23, window=5)
    tau = observability_window(seq, ens)
    lams = [ens.member_lambda(int(i), gamma) for i in seq]
    for start in range(len(seq) - tau + 1):
        norm = contraction_norm(lams[start : start + tau])
        assert norm < 1.0 - 1e-9
    # windows shorter than tau need not contract at all.
    assert contraction_norm(lams[:2]) <= 1.0 + 1e-12
    # the full product over 8 windows decays well below any single window.
    assert contraction_norm(lams) < 0.8


def test_kron_window_contraction_and_spectrum():
    # The Kronecker square of a window product has exactly the squared norm
    # of the window product (mixed-product property), hence contracts
    # strictly whenever the window does.
    ens = generate_library(4, 2, 5, 77)
    gamma = 0.7
    seq = [0, 1, 2, 3, 4, 0, 1]
    tau = observability_window(seq, ens)
    lams = [ens.member_lambda(i, gamma) for i in seq]
    for start in range(len(seq) - tau + 1):
        base = contraction_norm(lams[start : start + tau])
        window = [np.kron(l, l) for l in lams[start : start + tau]]
        kron_norm = contraction_norm(window)
        assert kron_norm == pytest.approx(base**2, rel=1e-10)
        assert kron_norm < 1.0 - 1e-9
    # pairwise-product spectrum of the Kronecker square
    lam = lams[0]
    eigs = np.linalg.eigvalsh(lam)
    pairwise = np.sort(np.outer(eigs, eigs).reshape(-1))
    assert np.allclose(np.sort(np.linalg.eigvalsh(np.kron(lam, lam))), pairwise, atol=1e-10)


# ----------------------------------------------------------------- BoundReport

def test_bound_report_fields_and_modes():
    ens = experiment_ensemble()
    report = bound_report(ens, 5, 0.25, 1.0, 1.0, noise_mode="bounded")
    d = report.to_dict()
    assert set(d) == {
        "tau", "psi", "lambda_bar", "c", "capital_c", "m",
        "delta_x", "delta_n", "gamma", "h_b", "h_mu", "h_sigma", "h_s", "gamma_star",
    }
    assert d["tau"] == 5
    assert 0 < d["psi"] < 1
    assert d["gamma_star"] == pytest.approx(
        gamma_star_bounded(d["c"], d["lambda_bar"], 1.0, 1.0)
    )
    stoch = bound_report(ens, 5, 0.25, 1.0, 1.0, noise_mode="gaussian")
    assert stoch.gamma_star > 0
    assert stoch.h_s == pytest.approx(report.h_s)
