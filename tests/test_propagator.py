import cmath
import math

import numpy as np
import pytest

from dktanh.integrator import IntegrationSpec, evolve, populations, propagator_numeric
from dktanh.model import ModelParams
from dktanh import specfun
from dktanh.propagator import (
    DegenerateParameterError,
    HyperParams,
    _aligned_sqrt,
    analytic_propagator,
    basis_solutions,
    hyper_params,
    sweep_propagator,
    transition_probabilities,
    x_of_t,
)
from dktanh.specfun import ConvergenceError

FIG2_LOSSLESS = ModelParams(P=8, alpha=1, beta=0, kappa=5, delta=0)
FIG2_LOSSY = ModelParams(P=8, alpha=1, beta=0, kappa=5, delta=1)


def scaled_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))


class TestSweepVariable:
    def test_midpoint(self):
        p = ModelParams(P=1, alpha=2, beta=3)
        assert x_of_t(-1.5, p) == pytest.approx(0.5, abs=1e-15)

    def test_limits_and_clamp(self):
        p = ModelParams(P=1, alpha=1, beta=0)
        assert x_of_t(-1e9, p) == 1e-15
        assert x_of_t(1e9, p) == 1.0 - 1e-15

    def test_oracle_value(self):
        # (1 + tanh 3)/2 to 20 digits
        p = ModelParams(P=1, alpha=1, beta=2)
        assert x_of_t(1.0, p) == pytest.approx(0.99752737684336522567, rel=1e-14)

    def test_strictly_increasing(self):
        p = ModelParams(P=1, alpha=1.7, beta=-0.3)
        ts = np.linspace(-6, 6, 100)
        xs = [x_of_t(t, p) for t in ts]
        assert all(b > a for a, b in zip(xs, xs[1:]))


class TestHyperParams:
    def test_direct_substitution(self):
        hp = hyper_params(FIG2_LOSSY)
        assert hp.a == pytest.approx(1 + 1.5j)
        assert hp.b == pytest.approx(2 + 8j)
        assert hp.c == pytest.approx((5 + 1j) / 4)

    def test_decoupled_limit(self):
        hp = hyper_params(ModelParams(P=8, alpha=1, beta=0, kappa=0, delta=0))
        assert hp.c == 0
        assert abs(hp.mu) < 1e-14
        assert abs(hp.nu) < 1e-14

    def test_exponent_sum_relations(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = ModelParams(
                P=rng.uniform(-20, 20),
                alpha=rng.uniform(0.2, 5),
                beta=rng.uniform(-3, 3),
                kappa=rng.uniform(0, 20),
                delta=rng.uniform(0, 10),
            )
            try:
                hp = hyper_params(p)
            except DegenerateParameterError:
                continue
            assert hp.rho == hp.mu + hp.nu
            assert hp.omega == pytest.approx(hp.mu + hp.nu + hp.b - 1)
            assert hp.gamma == pytest.approx(2 * hp.mu + hp.a)
            # gauge exponents: chi + sigma_hat = iP/(2 alpha) and
            # sigma_hat - chi = i kappa/(2 alpha)
            assert hp.chi + hp.sigma_hat == pytest.approx(0.5j * p.P / p.alpha)
            assert hp.sigma_hat - hp.chi == pytest.approx(0.5j * p.kappa / p.alpha)

    def test_indicial_residuals(self):
        rng = np.random.default_rng(9)
        count = 0
        while count < 1000:
            p = ModelParams(
                P=rng.uniform(-30, 30),
                alpha=rng.uniform(0.2, 5),
                beta=0.0,
                kappa=rng.uniform(0, 30),
                delta=rng.uniform(0, 15),
            )
            try:
                hp = hyper_params(p)
            except DegenerateParameterError:
                continue
            count += 1
            r_mu = hp.mu**2 + (hp.a - 1) * hp.mu + hp.c**2
            r_nu = hp.nu**2 - (1 + hp.a - hp.b) * hp.nu + hp.c**2
            assert abs(r_mu) < 1e-12
            assert abs(r_nu) < 1e-12

    def test_degenerate_gamma_raises(self):
        # c = 0 and P ~ 0 push gamma onto the integer 1
        with pytest.raises(DegenerateParameterError):
            hyper_params(ModelParams(P=1e-12, alpha=1, beta=0, kappa=0, delta=0))


class TestBasisSolutions:
    def test_frobenius_leading_order(self):
        hp = hyper_params(FIG2_LOSSY)
        x = 1e-9
        bs = basis_solutions(x, hp)
        r1_lead = cmath.exp(hp.mu * math.log(x))
        t1_lead = cmath.exp((1 + hp.mu - hp.gamma) * math.log(x))
        assert abs(bs.r1 / r1_lead - 1.0) < 1e-6
        assert abs(bs.t1 / t1_lead - 1.0) < 1e-6

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_wronskian_closed_form(self, x):
        hp = hyper_params(FIG2_LOSSY)
        bs = basis_solutions(x, hp)
        det = bs.r1 * bs.t2 - bs.t1 * bs.r2
        closed = (
            (1j / hp.c)
            * (1 - hp.gamma)
            * cmath.exp(
                (2 * hp.mu - hp.gamma + 1) * math.log(x)
                + (2 * hp.nu + hp.gamma - hp.rho - hp.omega) * math.log(1 - x)
            )
        )
        assert abs(det - closed) / abs(closed) < 1e-8

    def test_domain_validation(self):
        hp = hyper_params(FIG2_LOSSY)
        with pytest.raises(ValueError):
            basis_solutions(0.0, hp)
        with pytest.raises(ValueError):
            basis_solutions(1.2, hp)


class TestAnalyticPropagator:
    def test_identity(self):
        for p in (FIG2_LOSSLESS, FIG2_LOSSY):
            U = analytic_propagator(1.3, 1.3, p)
            assert np.max(np.abs(U - np.eye(2))) < 1e-10

    def test_lossless_unitary_and_matches_oracle(self):
        U = analytic_propagator(10, -10, FIG2_LOSSLESS)
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-7
        Un = propagator_numeric(FIG2_LOSSLESS, IntegrationSpec(-10, 10, 1e-11, 1e-11))
        assert scaled_err(U, Un) < 1e-6

    def test_lossy_matches_oracle_over_pairs(self):
        hp = hyper_params(FIG2_LOSSY)
        rng = np.random.default_rng(10)
        for _ in range(50):
            t0 = rng.uniform(-10, 10)
            t1 = rng.uniform(-10, 10)
            Ua = analytic_propagator(t1, t0, FIG2_LOSSY, hp)
            Un = propagator_numeric(FIG2_LOSSY, IntegrationSpec(t0, t1, 1e-11, 1e-11))
            assert scaled_err(Ua, Un) < 1e-6

    def test_composition(self):
        hp = hyper_params(FIG2_LOSSY)
        U20 = analytic_propagator(6, -7, FIG2_LOSSY, hp)
        U21 = analytic_propagator(6, 1.5, FIG2_LOSSY, hp)
        U10 = analytic_propagator(1.5, -7, FIG2_LOSSY, hp)
        assert np.max(np.abs(U20 - U21 @ U10)) < 1e-7

    def test_determinant_one(self):
        for p in (FIG2_LOSSLESS, FIG2_LOSSY):
            U = analytic_propagator(9, -4, p)
            assert abs(np.linalg.det(U) - 1.0) < 1e-7

    def test_branch_swap_invariance(self):
        hp = hyper_params(FIG2_LOSSY)
        s_mu = _aligned_sqrt((1 - hp.a) ** 2 - 4 * hp.c**2, 1 - hp.a)
        s_nu = _aligned_sqrt((1 + hp.a - hp.b) ** 2 - 4 * hp.c**2, 1 + hp.a - hp.b)
        mu2 = 0.5 * ((1 - hp.a) + s_mu)
        nu2 = 0.5 * ((1 + hp.a - hp.b) + s_nu)
        hp2 = HyperParams(
            hp.a, hp.b, hp.c, mu2, nu2,
            mu2 + nu2, mu2 + nu2 + hp.b - 1, 2 * mu2 + hp.a,
            hp.chi, hp.sigma_hat,
        )
        U1 = analytic_propagator(3, -4, FIG2_LOSSY, hp)
        U2 = analytic_propagator(3, -4, FIG2_LOSSY, hp2)
        assert np.max(np.abs(U1 - U2)) < 1e-8

    def test_near_saturation_stability(self):
        # deep saturation (|alpha t + beta| = 12): still finite and matching
        # the integrator
        for p in (FIG2_LOSSLESS, FIG2_LOSSY):
            Ua = analytic_propagator(12, -12, p)
            assert np.all(np.isfinite(Ua))
            Un = propagator_numeric(p, IntegrationSpec(-12, 12, 1e-11, 1e-11))
            assert scaled_err(Ua, Un) < 1e-6

    def test_decoupled_case_is_diagonal(self):
        p = ModelParams(P=8, alpha=1, beta=0, kappa=0, delta=0)
        Ua = analytic_propagator(5, -5, p)
        assert Ua[0, 1] == 0 and Ua[1, 0] == 0
        Un = propagator_numeric(p, IntegrationSpec(-5, 5, 1e-11, 1e-11))
        assert np.max(np.abs(Ua - Un)) < 1e-8


# scaled agreement required of the array route against the scalar route
ROUTE_TOL = 1e-13


def scalar_stack(ts, t0s, p, hp=None):
    return np.array([analytic_propagator(t, t0, p, hp) for t, t0 in zip(ts, t0s)])


class TestArrayRoute:
    @pytest.mark.parametrize("p", [
        FIG2_LOSSY,
        FIG2_LOSSLESS,
        ModelParams(P=8, alpha=1, beta=7, kappa=5, delta=1),
        ModelParams(P=4, alpha=1, beta=0, kappa=0.3, delta=0.3),
        ModelParams(P=0, alpha=1, beta=0, kappa=0.3, delta=0.3),
        ModelParams(P=3, alpha=2.5, beta=-1, kappa=7, delta=2),
        # decoupled: the closed form on both routes
        ModelParams(P=8, alpha=1, beta=0, kappa=0, delta=0),
        # the scan layer's degeneracy nudge of P ~ 0 without coupling
        ModelParams(P=1e-12, alpha=1, beta=0, kappa=0, delta=1e-8),
    ])
    def test_time_grid_matches_scalar_route(self, p):
        # x runs through (0, 1/2], hits 1/2 at t = -beta/alpha, and beyond
        ts = np.concatenate([np.linspace(-12, 12, 97), [-p.beta / p.alpha]])
        for t0 in (-12.0, 0.3):
            got = analytic_propagator(ts, t0, p)
            assert got.shape == (ts.size, 2, 2)
            assert scaled_err(got, scalar_stack(ts, [t0] * ts.size, p)) < ROUTE_TOL

    def test_per_point_starts(self):
        hp = hyper_params(FIG2_LOSSY)
        rng = np.random.default_rng(11)
        ts, t0s = rng.uniform(-10, 10, 60), rng.uniform(-10, 10, 60)
        got = analytic_propagator(ts, t0s, FIG2_LOSSY, hp)
        assert scaled_err(got, scalar_stack(ts, t0s, FIG2_LOSSY, hp)) < ROUTE_TOL
        # alpha = 1, beta = 0: sweep arguments are the times themselves
        assert scaled_err(sweep_propagator(ts, t0s, FIG2_LOSSY, hp), got) == 0.0

    def test_saturated_ends_at_the_log_floor(self):
        # |u| >= 350 puts log x or log(1-x) below the -700 floor
        for p in (FIG2_LOSSY, FIG2_LOSSLESS):
            us = np.array([-400.0, -360.0, -20.0, 0.0, 20.0, 360.0, 400.0])
            for u0 in (-400.0, -5.0):
                got = sweep_propagator(us, u0, p)
                ref = scalar_stack(us, [u0] * us.size, p)
                assert np.all(np.isfinite(ref))
                assert scaled_err(got, ref) < ROUTE_TOL

    def test_gamma_overflow_only_where_the_scalar_route_meets_it(self):
        # at P/alpha = 300 the 1-z route's gamma factors overflow; a grid that
        # stays on the series side (x <= 1/2) never needs them
        p = ModelParams(P=300, alpha=1, beta=0, kappa=5, delta=1)
        below = np.linspace(-10, -1, 20)
        assert scaled_err(analytic_propagator(below, -10.0, p),
                          scalar_stack(below, [-10.0] * below.size, p)) < ROUTE_TOL
        with pytest.raises(OverflowError):
            analytic_propagator(1.0, -10.0, p)
        with pytest.raises(OverflowError):
            analytic_propagator(np.linspace(-10, 10, 20), -10.0, p)

    def test_convergence_failure_raises_on_both_routes(self, monkeypatch):
        specfun._series_ratios.cache_clear()
        specfun._connection.cache_clear()
        monkeypatch.setattr(specfun, "_MAX_TERMS", 10)
        with pytest.raises(ConvergenceError):
            analytic_propagator(0.1, -3.0, FIG2_LOSSY)
        with pytest.raises(ConvergenceError):
            analytic_propagator(np.linspace(-3, 3, 20), -3.0, FIG2_LOSSY)

    def test_argument_shapes(self):
        with pytest.raises(ValueError):
            sweep_propagator(np.zeros((2, 2)), 0.0, FIG2_LOSSY)
        with pytest.raises(ValueError):
            sweep_propagator(np.zeros(3), np.zeros(2), FIG2_LOSSY)


class TestTransitionProbabilities:
    def test_identity_matrix(self):
        assert transition_probabilities(np.eye(2)) == (1.0, 0.0)

    def test_unitary_sums_to_one(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(a)
            ps, pt = transition_probabilities(q)
            assert ps + pt == pytest.approx(1.0, abs=1e-12)

    def test_fig2_endpoint_matches_oracle_populations(self):
        # (|U22|^2, |U12|^2) is the population pair of a run started in
        # state 2
        U = analytic_propagator(10, -10, FIG2_LOSSY)
        ps, pt = transition_probabilities(U)
        psi = evolve(FIG2_LOSSY, IntegrationSpec(-10, 10, 1e-11, 1e-11), (0, 1))
        p1, p2 = populations(psi)
        assert abs(pt - p1) / max(1.0, p1) < 1e-6
        assert abs(ps - p2) / max(1.0, p2) < 1e-6
