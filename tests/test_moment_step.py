"""The second-moment kernel of the error recursion e(t) = L (e(t-1) - delta(t)) + K n(t).

analysis._moment_step takes the noise covariance R and the increment
covariance D explicitly, so it is exact for the simulator's own runs, whose
noise covariance is not the weighting matrix Q and whose state moves.
"""

import numpy as np
import pytest

from wlstrack import simulation
from wlstrack.analysis import _moment_step
from wlstrack.simulation import NoiseModel, ScenarioConfig

from helpers import random_spd


def test_bounded_runs_covariance_matches_monte_carlo():
    # Uniform noise on [-dn/2, dn/2] has covariance R = dn^2/12 I, while the
    # library weights with Q = I; uniform increments on [-dx/2, dx/2] have
    # D = dx^2/12 I, and x_hat(0) = 0 with x(0) drawn like an increment
    # gives Sigma(0) = D.  The error mean is zero throughout.
    dn, dx, n_runs = 2.0, 1.0, 2000
    sc = ScenarioConfig(
        n_states=6,
        n_meas=2,
        horizon=20,
        library_size=6,
        delta_x=dx,
        noise=NoiseModel("bounded", dn),
        gamma=0.5,
        n_runs=n_runs,
        seed=31415,
    )
    ens = simulation.build_ensemble(sc)
    seq = simulation.generate_sequence(ens, sc.horizon, "window", simulation.derive_seed(sc.seed, 99), window=3)
    summary = simulation.monte_carlo(sc, track_covariance=True, member_sequence=seq)
    R, D = dn**2 / 12 * np.eye(2), dx**2 / 12 * np.eye(6)
    gains = ens.member_gains(sc.gamma)
    X = D
    for t in range(1, sc.horizon + 1):
        j = int(seq[t - 1])
        X = _moment_step(X, ens.member_lambda(j, sc.gamma), gains[j], R, D)
        if t not in (1, 5, 10, 20):
            continue
        # By the CLT the sample covariance S of n i.i.d. vectors has
        # E||S - X||_F^2 = ((tr X)^2 + ||X||_F^2) / n when they are Gaussian
        # (Var S_ij = (X_ij^2 + X_ii X_jj) / n).  These errors are sums of
        # uniforms, whose lighter tails only lower it, so the relative RMS
        # below (0.054-0.059 here) is an upper estimate.  ||S - X||_F^2 sums
        # some 21 squares of about equal weight, so ||S - X||_F spreads by
        # about a sixth of its RMS: over 240 (seed, t) cases of this
        # scenario the ratio to the RMS averaged 0.98 with spread 0.18 and
        # peaked at 1.56, and twice the RMS is over five spreads away.  The
        # R = Q, D = 0 recursion misses by 0.43-0.77, far outside.
        frob = np.linalg.norm(X)
        rms = np.sqrt((np.trace(X) ** 2 + frob**2) / n_runs) / frob
        rel = np.linalg.norm(summary.empirical_cov[t - 1] - X) / frob
        assert rel < 2 * rms, f"t={t}: relative Frobenius error {rel:.3f}, CLT RMS {rms:.3f}"


@pytest.mark.parametrize("D", [0.0, "matrix"])
def test_stack_of_modes_gives_each_modes_bits(D):
    rng = np.random.default_rng(16)
    modes, n, m = 6, 5, 2
    X = np.stack([random_spd(rng, n) for _ in range(modes)])
    L = rng.standard_normal((modes, n, n))
    K = rng.standard_normal((modes, n, m))
    R = random_spd(rng, m)
    if D == "matrix":
        D = random_spd(rng, n)
    stacked = _moment_step(X, L, K, R, D)
    for i in range(modes):
        assert np.array_equal(stacked[i], _moment_step(X[i], L[i], K[i], R, D))
