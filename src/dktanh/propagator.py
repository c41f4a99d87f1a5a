"""Exact propagator of the tanh-sweep model via Gauss hypergeometric functions.

Outline of the construction.  The gauge-transformed first amplitude obeys a
second-order equation that the variable change x(t) = (1 + tanh(alpha t +
beta))/2 maps onto the hypergeometric equation.  Two Frobenius branches give
two independent solutions R1, T1 for amplitude 1; the first-order system then
fixes the matching amplitude-2 solutions as

    R2 = (i/c) x(1-x) dR1/dx,      T2 = (i/c) x(1-x) dT1/dx,

with c = theta/(4 alpha).  The propagator between x0 and x is the
fundamental-matrix ratio M(x) M(x0)^{-1} times the scalar gauge factor
exp(chi*ln(x/x0) + sigma_hat*ln((1-x)/(1-x0))), and its determinant is
identically 1.  All complex powers are principal (x and 1-x are positive).

The decoupled case theta = 0 is handled in closed form.  All other parameter
degeneracies reduce to the hypergeometric c-parameter ``gamma`` landing on an
integer; ``hyper_params`` rejects those within 1e-9 so callers can perturb.

Two routes evaluate the same formulas, written once over a small table of
elementary operations (``_Route``):

* the scalar route, ``analytic_propagator`` at float times: Python complex
  arithmetic and one ``hyp2f1`` call per 2F1 value.  It serves single
  points whose HyperParams change from point to point (parameter scans,
  parametric maps without a beta axis) and short grids, because one
  evaluation costs 0.02-0.3 ms against the array route's fixed ~0.5 ms;
* the array route, ``sweep_propagator`` (or ``analytic_propagator`` at an
  array of times): every point of a time or beta grid at one HyperParams in
  one numpy pass, both ends of each interval in one basis evaluation and
  all Gauss series in one term matrix (``specfun.hyp2f1_array``).  Time
  series, comparisons and the time and beta axes of analytic maps use it.

The array route performs the scalar route's floating-point operations in
the same order: complex products and quotients as CPython rounds them, and
libm's exp and log1p where numpy's vectorised versions may round
differently.  The two therefore agree to the last bit wherever CPython
rounds each real product on its own (as on x86-64); the tests hold them to
a scaled 1e-13.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import ModelParams
from .specfun import _cdiv, _cmul, hyp2f1, hyp2f1_array

__all__ = [
    "DegenerateParameterError",
    "HyperParams",
    "BasisSolutions",
    "x_of_t",
    "hyper_params",
    "basis_solutions",
    "analytic_propagator",
    "sweep_propagator",
    "transition_probabilities",
]

X_CLAMP = 1e-15


class DegenerateParameterError(ValueError):
    """Hypergeometric parameters sit (numerically) on a degenerate set."""


@dataclass(frozen=True)
class HyperParams:
    """Derived complex data of the hypergeometric reduction.

    mu and nu are the branch-1 indicial exponents at x = 0 and x = 1, chosen
    so that both vanish in the decoupled limit c -> 0; chi and sigma_hat are
    the gauge exponents, with chi + sigma_hat = i*P/(2*alpha) and
    sigma_hat - chi = i*kappa/(2*alpha).
    """

    a: complex
    b: complex
    c: complex
    mu: complex
    nu: complex
    rho: complex
    omega: complex
    gamma: complex
    chi: complex
    sigma_hat: complex


@dataclass(frozen=True)
class BasisSolutions:
    """Values of the two basis solution pairs at one point x."""

    r1: complex
    t1: complex
    r2: complex
    t2: complex


def _aligned_sqrt(w: complex, ref: complex) -> complex:
    """Square root of w on the branch aligned with ref (Re(conj(ref)*s) >= 0).

    With ref equal to the sum of the two indicial roots this makes the
    "minus" root (ref - s)/2 the one that vanishes as the product of roots
    goes to zero.  Falls back to the principal branch when ref = 0.
    """
    s = cmath.sqrt(w)
    if ref == 0:
        return s
    d = (ref.conjugate() * s).real
    if d < 0.0 or (d == 0.0 and (ref.conjugate() * s).imag < 0.0):
        return -s
    return s


def _libm(f: Callable) -> Callable:
    # a real math function applied over an array, rounding as ``f`` does
    # (numpy's vectorised exp and log1p may differ from libm in the last bit)
    return lambda v: np.fromiter(map(f, v.tolist()), dtype=float, count=v.size)


class _Route(NamedTuple):
    """The elementary operations of one evaluation route.

    The scalar route works on Python numbers with math/cmath and the
    operators; the array route works on 1-D arrays with numpy and rounds
    every operation as the scalar route does.  Additions, and products with
    a real factor, round alike on both and use the operators; complex
    products and quotients go through ``mul`` and ``div``.
    """

    exp: Callable
    cexp: Callable
    log1p: Callable
    minimum: Callable
    maximum: Callable
    mul: Callable
    div: Callable
    hyp2f1s: Callable  # (triples, x, 1-x) -> one F(a, b; c; x) per triple


def _hyp2f1_scalar(triples, x: float, one_minus_x: float) -> list:
    return [hyp2f1(a, b, c, x, one_minus_z=one_minus_x) for a, b, c in triples]


_SCALAR = _Route(
    math.exp, cmath.exp, math.log1p, min, max, operator.mul, operator.truediv,
    _hyp2f1_scalar,
)
_ARRAY = _Route(
    _libm(math.exp), np.exp, _libm(math.log1p), np.minimum, np.maximum, _cmul, _cdiv,
    hyp2f1_array,
)


def _log_x_parts(u, route: _Route = _SCALAR):
    # log x and log(1-x) for x = 1/(1 + exp(-2u)), full relative accuracy at
    # both saturated ends
    e = route.log1p(route.exp(-2.0 * abs(u)))
    return 2.0 * route.minimum(u, 0.0) - e, -2.0 * route.maximum(u, 0.0) - e


def x_of_t(t: float, p: ModelParams) -> float:
    """Sweep variable x = (1 + tanh(alpha t + beta))/2, clamped away from the
    endpoints to [1e-15, 1 - 1e-15]."""
    lx, _ = _log_x_parts(p.alpha * float(t) + p.beta)
    return min(max(math.exp(lx), X_CLAMP), 1.0 - X_CLAMP)


def hyper_params(p: ModelParams) -> HyperParams:
    """Map model parameters to the hypergeometric data.

    Raises DegenerateParameterError when gamma is within 1e-9 of an integer:
    nonpositive integers and integers >= 2 are series poles of one basis
    branch, and gamma = 1 collapses the two branches (zero Wronskian).
    Callers that must proceed can perturb delta by ~1e-9.
    """
    ia = 1j / (2.0 * p.alpha)
    a = 1.0 + ia * (p.P - p.kappa)
    b = 2.0 * (1.0 + ia * p.P)
    c = complex(p.kappa, p.delta) / (4.0 * p.alpha)

    s_mu = _aligned_sqrt((1.0 - a) ** 2 - 4.0 * c * c, 1.0 - a)
    mu = 0.5 * ((1.0 - a) - s_mu)
    s_nu = _aligned_sqrt((1.0 + a - b) ** 2 - 4.0 * c * c, 1.0 + a - b)
    nu = 0.5 * ((1.0 + a - b) - s_nu)

    rho = mu + nu
    omega = mu + nu + b - 1.0
    gamma = 2.0 * mu + a
    if abs(gamma - round(gamma.real)) < 1e-9:
        raise DegenerateParameterError(
            f"hypergeometric index gamma = {gamma} is within 1e-9 of an integer; "
            "perturb the model parameters (e.g. delta += 1e-9)"
        )
    chi = 0.5j * (p.P - p.kappa) / (2.0 * p.alpha)
    sigma_hat = 0.5j * (p.P + p.kappa) / (2.0 * p.alpha)
    return HyperParams(a, b, c, mu, nu, rho, omega, gamma, chi, sigma_hat)


def basis_solutions(
    x: float, hp: HyperParams, *, one_minus_x: float | None = None
) -> BasisSolutions:
    """Evaluate both basis solution pairs at x in (0, 1).

    ``one_minus_x`` may carry a higher-accuracy value of 1-x near the
    saturated end of the sweep.
    """
    if one_minus_x is None:
        one_minus_x = 1.0 - x
    if not (0.0 < x < 1.0) or not (0.0 < one_minus_x < 1.0):
        raise ValueError(f"x must lie strictly inside (0, 1), got {x!r}")
    return _basis(math.log(x), math.log(one_minus_x), hp)


# floor for log(x), log(1-x): keeps exp() away from a hard underflow to zero
# at absurdly saturated sweep arguments while changing nothing physical
_LOG_FLOOR = -700.0


def _basis(lx, lomx, hp: HyperParams, route: _Route = _SCALAR) -> BasisSolutions:
    lx = route.maximum(lx, _LOG_FLOOR)
    lomx = route.maximum(lomx, _LOG_FLOOR)
    # x may round to exactly 1.0 deep in saturation; the hypergeometric
    # evaluation then runs entirely off the accurate 1-x value
    x = route.exp(lx)
    one_minus_x = route.exp(lomx)
    mu, nu, rho, om, ga, c = hp.mu, hp.nu, hp.rho, hp.omega, hp.gamma, hp.c
    mub = 1.0 + mu - ga  # second indicial root at x = 0
    ic = 1j / c  # = 4j*alpha/theta, the amplitude-2 prefactor
    mul = route.mul

    f1, f1p, f2, f2p = route.hyp2f1s(
        (
            (rho, om, ga),
            (rho + 1, om + 1, ga + 1),
            (rho - ga + 1, om - ga + 1, 2 - ga),
            (rho - ga + 2, om - ga + 2, 3 - ga),
        ),
        x,
        one_minus_x,
    )

    w_r = route.cexp(mu * lx + nu * lomx)
    w_t = route.cexp(mub * lx + nu * lomx)
    xox = x * one_minus_x
    r1 = mul(w_r, f1)
    r2 = mul(
        mul(ic, w_r),
        mul(mu * one_minus_x - nu * x, f1) + mul(xox * (rho * om / ga), f1p),
    )
    t1 = mul(w_t, f2)
    t2 = mul(
        mul(ic, w_t),
        mul(mub * one_minus_x - nu * x, f2)
        + mul(xox * ((rho - ga + 1) * (om - ga + 1) / (2 - ga)), f2p),
    )
    return BasisSolutions(r1, t1, r2, t2)


def _split(b: BasisSolutions, n: int) -> tuple[BasisSolutions, BasisSolutions]:
    head = BasisSolutions(b.r1[:n], b.t1[:n], b.r2[:n], b.t2[:n])
    return head, BasisSolutions(b.r1[n:], b.t1[n:], b.r2[n:], b.t2[n:])


def _evolution(u, u0, p: ModelParams, hp: HyperParams | None, route: _Route):
    """U(u, u0) between sweep arguments on one route: a (2, 2) matrix for
    floats, an (n, 2, 2) stack for a 1-D array u and a 1-element or n-element
    array u0."""
    mul, div = route.mul, route.div
    lx, lomx = _log_x_parts(u, route)
    lx0, lomx0 = _log_x_parts(u0, route)
    if p.kappa == 0.0 and p.delta == 0.0:
        # decoupled: diagonal phase evolution only
        chi = 0.25j * p.P / p.alpha
        g = route.cexp(chi * (lx - lx0) + chi * (lomx - lomx0))
        return _matrix(g, 0.0, 0.0, div(1.0, g))

    if hp is None:
        hp = hyper_params(p)
    if route is _SCALAR:
        bx = _basis(lx, lomx, hp)
        b0 = _basis(lx0, lomx0, hp)
    else:
        # both ends in one pass
        lx_both, lomx_both = np.concatenate([lx, lx0]), np.concatenate([lomx, lomx0])
        bx, b0 = _split(_basis(lx_both, lomx_both, hp, route), lx.size)
    g = route.cexp(hp.chi * (lx - lx0) + hp.sigma_hat * (lomx - lomx0))

    det0 = mul(b0.r1, b0.t2) - mul(b0.t1, b0.r2)
    u11 = div(mul(g, mul(bx.r1, b0.t2) - mul(bx.t1, b0.r2)), det0)
    u12 = div(mul(g, mul(bx.t1, b0.r1) - mul(bx.r1, b0.t1)), det0)
    u21 = div(mul(g, mul(bx.r2, b0.t2) - mul(bx.t2, b0.r2)), det0)
    u22 = div(mul(g, mul(bx.t2, b0.r1) - mul(bx.r2, b0.t1)), det0)
    return _matrix(u11, u12, u21, u22)


def _matrix(u11, u12, u21, u22) -> np.ndarray:
    U = np.empty(np.shape(u11) + (2, 2), dtype=complex)
    U[..., 0, 0] = u11
    U[..., 0, 1] = u12
    U[..., 1, 0] = u21
    U[..., 1, 1] = u22
    return U


def analytic_propagator(
    t: float, t0: float, p: ModelParams, hp: HyperParams | None = None
) -> np.ndarray:
    """Exact evolution matrix U(t, t0) of the tanh model.

    U(t0, t0) = I; composition U(t2, t0) = U(t2, t1) U(t1, t0) and det U = 1
    hold by construction.  ``hp`` may be passed to amortise the parameter map
    over many evaluations.  A 1-D array of times ``t`` (with ``t0`` a float
    or an array of the same length) takes the array route and returns the
    (n, 2, 2) stack of ``sweep_propagator``.
    """
    if np.ndim(t) or np.ndim(t0):
        t = np.asarray(t, dtype=float)
        t0 = np.asarray(t0, dtype=float)
        return sweep_propagator(p.alpha * t + p.beta, p.alpha * t0 + p.beta, p, hp)
    u = p.alpha * float(t) + p.beta
    u0 = p.alpha * float(t0) + p.beta
    return _evolution(u, u0, p, hp, _SCALAR)


# points per array-route pass: bounds the series term matrices (a few MB)
# whatever the grid length
_CHUNK_POINTS = 1024


def sweep_propagator(
    u, u0, p: ModelParams, hp: HyperParams | None = None
) -> np.ndarray:
    """U between the sweep arguments u0 = alpha t0 + beta and u = alpha t +
    beta at every point of the 1-D array u, as an (n, 2, 2) stack; ``u0`` is
    a float or an array of the same length as u.

    This is the array route (see the module docstring); it returns what
    ``analytic_propagator`` returns point by point.  Its fixed cost of about
    0.5 ms makes the scalar route cheaper below some 16-24 points.  Where
    the scalar route raises OverflowError from cmath.exp, this route raises
    FloatingPointError, and it also raises on an overflowing product or an
    invalid operation, where the scalar route would carry inf or NaN into
    the result.
    """
    u = np.asarray(u, dtype=float)
    u0 = np.asarray(u0, dtype=float).reshape(-1)
    if u.ndim != 1 or u0.size not in (1, u.size):
        raise ValueError("u must be 1-D and u0 a float or an array of its length")
    if hp is None and not (p.kappa == 0.0 and p.delta == 0.0):
        hp = hyper_params(p)
    parts = []
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for lo in range(0, u.size, _CHUNK_POINTS):
            hi = lo + _CHUNK_POINTS
            u0_part = u0[lo:hi] if u0.size > 1 else u0
            parts.append(_evolution(u[lo:hi], u0_part, p, hp, _ARRAY))
    return np.concatenate(parts) if parts else np.empty((0, 2, 2), dtype=complex)


def transition_probabilities(U: np.ndarray) -> tuple[float, float]:
    """(survival, transition) = (|U22|^2, |U12|^2) for a start in state 2.

    The two sum to 1 exactly when U is unitary (delta = 0); with loss present
    either can exceed 1.
    """
    U = np.asarray(U, dtype=complex)
    u22 = complex(U[1, 1])
    u12 = complex(U[0, 1])
    return (
        u22.real**2 + u22.imag**2,
        u12.real**2 + u12.imag**2,
    )
