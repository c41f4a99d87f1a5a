import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dktanh import specfun
from dktanh.propagator import hyper_params
from dktanh.model import ModelParams
from dktanh.specfun import (
    ConvergenceError,
    PoleError,
    cgamma,
    hyp2f1,
    hyp2f1_derivative,
    kummer_m,
    pcf_d,
    rgamma,
)

mp.mp.dps = 30

# hypergeometric data of the lossy figure-2 point; the Wronskian and
# derivative identities below run at these genuinely complex parameters
HP = hyper_params(ModelParams(P=8, alpha=1, beta=0, kappa=5, delta=1))

complex_pts = st.complex_numbers(
    min_magnitude=0.01, max_magnitude=10, allow_nan=False, allow_infinity=False
)


def _away_from_poles(z: complex, *others: complex) -> bool:
    for w in (z, *others):
        if abs(w - round(w.real)) < 0.05 and w.real <= 0.5:
            return False
    return True


class TestGamma:
    def test_integers(self):
        assert cgamma(1) == pytest.approx(1.0, rel=1e-14)
        assert cgamma(5) == pytest.approx(24.0, rel=1e-14)

    def test_half(self):
        assert cgamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_complex_oracle(self):
        # 50-digit reference for gamma(1+i)
        ref = 0.49801566811835604271 - 0.15494982830181068512j
        assert abs(cgamma(1 + 1j) - ref) / abs(ref) < 1e-13

    def test_poles_raise(self):
        for z in (0, -1, -7):
            with pytest.raises(PoleError):
                cgamma(z)

    def test_rgamma_zero_at_poles(self):
        assert rgamma(0) == 0
        assert rgamma(-3) == 0
        assert rgamma(2.5) == pytest.approx(1 / cgamma(2.5))

    @given(z=complex_pts)
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, z):
        if not _away_from_poles(z, z + 1):
            return
        lhs = cgamma(z + 1)
        assert abs(lhs - z * cgamma(z)) / abs(lhs) < 1e-12

    @given(
        re=st.floats(-5, 5, allow_nan=False),
        im=st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_reflection(self, re, im):
        z = complex(re, im)
        if not _away_from_poles(z, 1 - z):
            return
        val = cgamma(z) * cgamma(1 - z) * cmath.sin(math.pi * z) / math.pi
        assert abs(val - 1.0) < 1e-11


class TestHyp2f1:
    def test_at_zero(self):
        assert hyp2f1(0.5 + 2j, 1 - 1j, 2 + 0.5j, 0) == 1

    def test_binomial_identity(self):
        assert hyp2f1(1, 2, 2, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_closed_forms_across_unit_interval(self):
        for z in np.linspace(0.02, 0.9, 45):
            assert abs(hyp2f1(1, 2, 2, z) - 1 / (1 - z)) < 1e-10
            assert abs(hyp2f1(1, 1, 2, z) + math.log(1 - z) / z) < 1e-10

    def test_complex_parameter_oracle(self):
        # 30-digit series evaluation of F(0.5+2i, 1-i; 2+0.5i; 0.3)
        ref = 1.5277137830784716473 + 0.21889131210321994079j
        assert abs(hyp2f1(0.5 + 2j, 1 - 1j, 2 + 0.5j, 0.3) - ref) < 1e-12

    def test_against_high_precision_on_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = complex(rng.uniform(-3, 3), rng.uniform(-6, 6))
            b = complex(rng.uniform(-3, 3), rng.uniform(-6, 6))
            c = complex(rng.uniform(0.3, 3), rng.uniform(-6, 6))
            z = rng.uniform(0.02, 0.98)
            ref = complex(mp.hyp2f1(a, b, c, z))
            got = hyp2f1(a, b, c, z)
            assert abs(got - ref) / max(1.0, abs(ref)) < 1e-9

    def test_parameter_pole_raises(self):
        with pytest.raises(PoleError):
            hyp2f1(1, 2, -3, 0.5)

    def test_unreachable_region_raises(self):
        with pytest.raises(ConvergenceError):
            hyp2f1(0.5, 0.8j, 2.5, -30.0)

    @given(a=complex_pts, b=complex_pts)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_in_first_two_parameters(self, a, b):
        c = 1.7 + 0.9j
        z = 0.37
        assert hyp2f1(a, b, c, z) == hyp2f1(b, a, c, z)

    def test_logarithmic_case_near_one(self):
        # c-a-b integer and the argument beyond the plain-series region
        ref = complex(mp.hyp2f1(1, 1, 2, 0.97))
        assert abs(hyp2f1(1, 1, 2, 0.97) - ref) < 1e-8


def _clear_memos():
    specfun._series_ratios.cache_clear()
    specfun._connection.cache_clear()


# (a, b, c, z) on each hyp2f1 route
ROUTE_CASES = {
    "series": (0.5 + 2j, 1 - 1j, 2 + 0.5j, 0.3),
    "one_minus_z": (0.5 + 2j, 1 - 1j, 2 + 0.5j, 0.8),
    "pfaff": (0.5 + 2j, 1 - 1j, 2 + 0.5j, -2.0),
    # c-a-b = 1 + 2e-7: the c +/- eps limit of the logarithmic case ...
    "logarithmic": (1 + 0.5j, 0.5 - 0.25j, 2.5 + 0.25j + 2e-7, 0.97),
    # ... and its plain-series branch
    "logarithmic_series": (1 + 0.5j, 0.5 - 0.25j, 2.5 + 0.25j + 2e-7, 0.9),
    # the basis functions of the lossy figure-2 point
    "basis": (HP.rho, HP.omega, HP.gamma, 0.93),
    "basis_shifted": (HP.rho - HP.gamma + 2, HP.omega - HP.gamma + 2, 3 - HP.gamma, 0.93),
}


def _direct_gauss_series(a, b, c, z):
    # the per-point recurrence the ratio memo replaces
    term = total = 1.0 + 0j
    small = 0
    for n in range(2000):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        if abs(term) <= 1e-17 * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise AssertionError("no convergence")


class TestHyp2f1Memo:
    def test_cold_warm_and_interleaved_values_are_identical(self):
        cold = {}
        for name, args in ROUTE_CASES.items():
            _clear_memos()
            cold[name] = hyp2f1(*args)
        for name, args in ROUTE_CASES.items():
            assert hyp2f1(*args) == cold[name], name
        # other arguments of every triple in between grow the ratio memos
        # past the depth the cold values needed
        for name, args in reversed(ROUTE_CASES.items()):
            for other in ROUTE_CASES.values():
                hyp2f1(*other[:3], 0.999)
                hyp2f1(*other[:3], 0.1)
            assert hyp2f1(*args) == cold[name], name
        assert specfun._connection.cache_info().hits > 0
        assert specfun._series_ratios.cache_info().hits > 0

    def test_series_matches_direct_recurrence(self):
        _clear_memos()
        a, b, c = 0.5 + 2j, 1 - 1j, 2 + 0.5j
        for z in (0.1, 0.45, 0.2, 0.9, 0.3):
            assert specfun._gauss_series(a, b, c, z) == _direct_gauss_series(a, b, c, z)

    def test_one_minus_z_matches_direct_formula(self):
        _clear_memos()
        for a, b, c, z in (ROUTE_CASES["one_minus_z"], ROUTE_CASES["basis"]):
            d = c - a - b
            omz = 1.0 - z
            direct = (
                cgamma(c) * cgamma(d) * rgamma(c - a) * rgamma(c - b)
                * _direct_gauss_series(a, b, 1.0 - d, omz)
            ) + (
                cmath.exp(d * cmath.log(omz)) * cgamma(c) * cgamma(-d)
                * rgamma(a) * rgamma(b)
                * _direct_gauss_series(c - a, c - b, 1.0 + d, omz)
            )
            for _ in range(2):  # cold, then warm
                assert hyp2f1(a, b, c, z) == direct

    def test_ratio_entries_grow_by_replacement(self):
        _clear_memos()
        a, b, c = 0.5 + 2j, 1 - 1j, 2 + 0.5j
        slot = specfun._series_ratios(a, b, c)
        hyp2f1(a, b, c, 0.1)
        shallow = slot[0]
        hyp2f1(a, b, c, 0.45)
        deep = slot[0]
        assert len(deep) > len(shallow) > 0
        assert deep[: len(shallow)] == shallow
        hyp2f1(a, b, c, 0.1)
        assert slot[0] is deep

    def test_memos_are_bounded(self):
        _clear_memos()
        for k in range(200):
            hyp2f1(0.5 + 0.01j * k, 1 - 1j, 2 + 0.5j, 0.3)
            hyp2f1(0.5 + 0.01j * k, 1 - 1j, 2 + 0.5j, 0.8)
        for memo in (specfun._series_ratios, specfun._connection):
            info = memo.cache_info()
            assert info.maxsize is not None and info.maxsize <= 64
            assert info.currsize == info.maxsize

    def test_errors_are_raised_on_every_call(self):
        _clear_memos()
        for _ in range(3):
            with pytest.raises(PoleError):
                hyp2f1(1, 2, -3, 0.5)
            with pytest.raises(PoleError):
                hyp2f1_derivative(1, 2, -3, 0.5)
            with pytest.raises(PoleError):
                specfun._connection(0.5 + 0j, 0.25 + 0j, -2 + 0j)
            # gamma reflection overflows in sin(pi c) at Im c = 300
            with pytest.raises(OverflowError):
                hyp2f1(1, 0.5, 0.2 + 300j, 0.8)
        assert specfun._connection.cache_info().currsize == 0


# scaled agreement required of the array route against the scalar route
ROUTE_TOL = 1e-13


def _scalar_reference(triples, x, omx):
    return [
        np.array([hyp2f1(a, b, c, xi, one_minus_z=oi) for xi, oi in zip(x, omx)])
        for a, b, c in triples
    ]


def _scaled_gap(got, ref):
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


class TestHyp2f1Array:
    BASIS_TRIPLES = (
        (HP.rho, HP.omega, HP.gamma),
        (HP.rho + 1, HP.omega + 1, HP.gamma + 1),
        (HP.rho - HP.gamma + 1, HP.omega - HP.gamma + 1, 2 - HP.gamma),
        (HP.rho - HP.gamma + 2, HP.omega - HP.gamma + 2, 3 - HP.gamma),
    )

    def _check(self, triples, x, omx=None):
        x = np.asarray(x, dtype=float)
        omx = 1.0 - x if omx is None else np.asarray(omx, dtype=float)
        got = specfun.hyp2f1_array(triples, x, omx)
        for g, r in zip(got, _scalar_reference(triples, x, omx)):
            assert g.shape == x.shape
            assert _scaled_gap(g, r) < ROUTE_TOL

    def test_both_sides_of_one_half_and_the_point_itself(self):
        x = np.concatenate([np.linspace(0.01, 0.99, 99), [0.5, 0.25, 0.75]])
        for cold in (True, False):
            if cold:
                _clear_memos()
            self._check(self.BASIS_TRIPLES, x)
        self._check([ROUTE_CASES["series"][:3]], x)

    def test_points_deep_in_both_tails(self):
        # x down to 1e-300, and 1-x supplied where x itself rounds to 1
        lx = np.linspace(-690.0, -1.0, 40)
        self._check(self.BASIS_TRIPLES, np.exp(lx), -np.expm1(lx))
        omx = np.exp(lx)
        self._check(self.BASIS_TRIPLES, -np.expm1(lx), omx)

    def test_integer_c_minus_a_minus_b_on_both_sides_of_092(self):
        a, b, c = ROUTE_CASES["logarithmic"][:3]
        x = [0.3, 0.5, 0.6, 0.9, 0.91, 0.92, 0.92000001, 0.93, 0.97, 0.999]
        self._check([(a, b, c), (a, b, c - 2e-7), (1, 1, 2)], x)

    def test_closed_forms(self):
        x = np.linspace(0.05, 0.95, 19)
        self._check([(0, 1 + 1j, 2), (1 + 1j, 0.5, 0.5), (0.5, 1 + 1j, 0.5)], x)

    def test_memo_is_shared_with_the_scalar_route(self):
        _clear_memos()
        a, b, c = ROUTE_CASES["series"][:3]
        specfun.hyp2f1_array([(a, b, c)], np.array([0.45]), np.array([0.55]))
        known = specfun._series_ratios(a, b, c)[0]
        assert len(known) > 0
        hyp2f1(a, b, c, 0.45)
        assert specfun._series_ratios(a, b, c)[0] is known

    def test_parameter_pole_raises(self):
        with pytest.raises(PoleError):
            specfun.hyp2f1_array([(1, 2, -3)], np.array([0.3]), np.array([0.7]))

    def test_unconverged_series_raises(self, monkeypatch):
        # a term budget too small for z = 0.45 (about 60 terms are needed)
        _clear_memos()
        monkeypatch.setattr(specfun, "_MAX_TERMS", 20)
        a, b, c = ROUTE_CASES["series"][:3]
        with pytest.raises(ConvergenceError):
            hyp2f1(a, b, c, 0.45)
        _clear_memos()
        x = np.array([0.01, 0.45, 0.6])
        with pytest.raises(ConvergenceError, match="did not converge in 20 terms"):
            specfun.hyp2f1_array([(a, b, c)], x, 1.0 - x)


class TestHyp2f1Derivative:
    def test_at_zero(self):
        a, b, c = 0.7 + 1j, 2 - 0.5j, 1.3 + 0.2j
        assert hyp2f1_derivative(a, b, c, 0) == pytest.approx(a * b / c)

    def test_log_closed_form(self):
        # d/dz of -log(1-z)/z at z = 0.4 (30-digit reference)
        ref = 0.97400651812922489663
        assert abs(hyp2f1_derivative(1, 1, 2, 0.4) - ref) < 1e-12

    def test_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(15):
            a = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
            b = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
            c = complex(rng.uniform(0.5, 2), rng.uniform(-3, 3))
            z = 0.2
            d1 = (hyp2f1(a, b, c, z + h) - hyp2f1(a, b, c, z - h)) / (2 * h)
            d2 = (hyp2f1(a, b, c, z + 2 * h) - hyp2f1(a, b, c, z - 2 * h)) / (4 * h)
            richardson = (4 * d1 - d2) / 3
            assert abs(hyp2f1_derivative(a, b, c, z) - richardson) < 1e-7


class TestBasisIdentities:
    """Wronskian and contiguous-derivative identities at the solver's own
    complex parameters."""

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_wronskian(self, x):
        rho, om, ga = HP.rho, HP.omega, HP.gamma
        u1 = hyp2f1(rho, om, ga, x)
        du1 = hyp2f1_derivative(rho, om, ga, x)
        g = x ** complex(1 - ga)
        u2 = g * hyp2f1(rho - ga + 1, om - ga + 1, 2 - ga, x)
        du2 = (1 - ga) * x ** complex(-ga) * hyp2f1(
            rho - ga + 1, om - ga + 1, 1 - ga, x
        )
        wron = u1 * du2 - u2 * du1
        closed = (1 - ga) * x ** complex(-ga) * (1 - x) ** complex(ga - rho - om - 1)
        assert abs(wron - closed) / abs(closed) < 1e-8

    @pytest.mark.parametrize("x", [0.15, 0.45, 0.8])
    def test_power_weighted_derivative_identity(self, x):
        # d/dx [x^(1-g) F(r-g+1, w-g+1, 2-g, x)] = (1-g) x^(-g) F(.., 1-g, x)
        rho, om, ga = HP.rho, HP.omega, HP.gamma

        def f(xx):
            return xx ** complex(1 - ga) * hyp2f1(rho - ga + 1, om - ga + 1, 2 - ga, xx)

        h = 1e-6
        d1 = (f(x + h) - f(x - h)) / (2 * h)
        d2 = (f(x + 2 * h) - f(x - 2 * h)) / (4 * h)
        numeric = (4 * d1 - d2) / 3
        closed = (1 - ga) * x ** complex(-ga) * hyp2f1(
            rho - ga + 1, om - ga + 1, 1 - ga, x
        )
        assert abs(numeric - closed) / abs(closed) < 1e-7


class TestKummer:
    def test_at_zero(self):
        assert kummer_m(0.3 + 1j, 1.5, 0) == 1

    def test_exponential_identity(self):
        z = 1 + 1j
        assert abs(kummer_m(1, 1, z) - cmath.exp(z)) < 1e-14

    def test_error_function_identity(self):
        # M(1/2, 3/2, -x^2) = sqrt(pi) erf(x) / (2x) at x = 0.7
        ref = 0.85812238297534892202
        assert abs(kummer_m(0.5, 1.5, -0.49) - ref) < 1e-14

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            kummer_m(1.0, -2, 0.3)

    def test_polynomial_case(self):
        # a = -2 terminates: M(-2, b, z) = 1 - 2z/b + z^2/(b(b+1))
        b, z = 1.3, 2.7 + 0.4j
        expected = 1 - 2 * z / b + z * z / (b * (b + 1))
        assert abs(kummer_m(-2, b, z) - expected) < 1e-13

    @pytest.mark.parametrize("mag", [5.0, 15.0, 25.0, 60.0, 200.0])
    def test_large_imaginary_argument(self, mag):
        # the crossing-model regime: argument on the positive imaginary axis
        a, b = 0.1 - 0.05j, 0.5
        ref = complex(mp.hyp1f1(a, b, mp.mpc(0, mag)))
        assert abs(kummer_m(a, b, 1j * mag) - ref) < 1e-10


def _pcf_quadrature(nu: complex, z: complex) -> complex:
    """Independent oracle: integral representation (Re nu < 0), with the
    substitution u = e^s damping the endpoint oscillation."""
    assert nu.real < 0

    def integrand(s, part):
        val = cmath.exp(-nu * s - 0.5 * cmath.exp(2 * s) - z * cmath.exp(s))
        return val.real if part == 0 else val.imag

    re = quad(integrand, -40, 5, args=(0,), limit=400, epsabs=1e-14, epsrel=1e-13)[0]
    im = quad(integrand, -40, 5, args=(1,), limit=400, epsabs=1e-14, epsrel=1e-13)[0]
    return cmath.exp(-0.25 * z * z) / cgamma(-nu) * complex(re, im)


class TestParabolicCylinder:
    def test_order_zero(self):
        assert abs(pcf_d(0, 2.0) - math.exp(-1.0)) < 1e-14

    def test_order_one(self):
        assert abs(pcf_d(1, 1.0) - math.exp(-0.25)) < 1e-14

    def test_against_quadrature_oracle(self):
        # quadrature gives orders with Re < 0; one recurrence step reaches
        # the imaginary order -i/2
        z = 1 + 1j
        d_m1 = _pcf_quadrature(complex(-1, -0.5), z)
        d_m2 = _pcf_quadrature(complex(-2, -0.5), z)
        oracle = z * d_m1 - complex(-1, -0.5) * d_m2
        assert abs(pcf_d(-0.5j, z) - oracle) < 1e-10

    def test_recurrence(self):
        # D_{nu+1} - z D_nu + nu D_{nu-1} = 0, relative to the largest term
        rng = np.random.default_rng(17)
        for _ in range(150):
            nu = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            up = pcf_d(nu + 1, z)
            mid = z * pcf_d(nu, z)
            down = nu * pcf_d(nu - 1, z)
            scale = max(abs(up), abs(mid), abs(down), 1e-30)
            assert abs(up - mid + down) / scale < 1e-9

    def test_crossing_regime_ray(self):
        # order -i*lam - 1, argument on the e^{i pi/4} ray out to |z| = 8
        nu = -0.0225j - 1
        for r in (0.5, 3.0, 8.0):
            for sign in (1, -1):
                z = sign * r * cmath.exp(0.25j * math.pi)
                ref = complex(mp.pcfd(nu, z))
                assert abs(pcf_d(nu, z) - ref) < 1e-10
